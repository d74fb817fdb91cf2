"""Pre-parse tree filtering: structural tests and frequency top-k with fallback.

The structural tests are sound: a removed tree cannot appear in any complete
parse.  The frequency cut is lossy, so a failed first parse is retried with
only the structural filter applied.
"""

from __future__ import annotations

from dataclasses import dataclass

from .grammar import FrequencyTable, Grammar
from .parser import check_trees_known
from .tagging import TreeAssignment


@dataclass(frozen=True)
class PositionReport:
    before: int
    removed_structure: int
    removed_frequency: int
    survivors: int


@dataclass
class FilterReport:
    positions: list[PositionReport]
    fallback_triggered: bool = False

    def to_dict(self) -> dict:
        return {
            "fallback_triggered": self.fallback_triggered,
            "positions": [
                {"before": p.before, "removed_structure": p.removed_structure,
                 "removed_frequency": p.removed_frequency, "survivors": p.survivors}
                for p in self.positions
            ],
        }


def _profile(grammar: Grammar, name: str):
    """(left obligatory count, right obligatory count, left substitution
    categories, right substitution categories) of a tree's frontier.  The
    leaves of a tree are in the order of their addresses."""
    tree = grammar.trees[name]
    left, right = [], []
    for address in tree.substitution_addresses:
        half = left if address < tree.anchor_address else right
        half.append(tree.node_at(address).label)
    return len(left), len(right), set(left), set(right)


def structural_filter(grammar: Grammar, sentence, assignment: TreeAssignment) -> TreeAssignment:
    """Drop candidates that no complete parse could use.

    A tree anchored at position i is removed when its obligatory frontier
    positions (substitution slots plus the anchor) need more words than exist
    on either side of i, or when a substitution slot's category has no
    candidate tree rooted in it anywhere on the corresponding side.  Removals
    are iterated to a fixed point; both tests stay sound because a removed
    tree could not have supplied material to any other candidate.  A
    candidate that names no tree of the grammar raises DerivationError, as
    in ``parse``.
    """
    check_trees_known(grammar, assignment)
    n = len(sentence)
    candidates = [list(names) for names in assignment.candidates]
    profiles = {}
    for names in candidates:
        for name in names:
            if name not in profiles:
                profiles[name] = _profile(grammar, name)

    changed = True
    while changed:
        changed = False
        root_cats = [{grammar.trees[name].root.label for name in names}
                     for names in candidates]
        left_avail: list[set[str]] = [set() for _ in range(n)]
        acc: set[str] = set()
        for i in range(n):
            left_avail[i] = set(acc)
            acc |= root_cats[i]
        right_avail: list[set[str]] = [set() for _ in range(n)]
        acc = set()
        for i in range(n - 1, -1, -1):
            right_avail[i] = set(acc)
            acc |= root_cats[i]

        for i in range(n):
            kept = []
            for name in candidates[i]:
                left, right, left_cats, right_cats = profiles[name]
                if left > i or right > n - 1 - i:
                    changed = True
                    continue
                if (left_cats - left_avail[i]) or (right_cats - right_avail[i]):
                    changed = True
                    continue
                kept.append(name)
            candidates[i] = kept
    return TreeAssignment(candidates)


def frequency_filter(assignment: TreeAssignment, freq: FrequencyTable,
                     k: int) -> TreeAssignment:
    """Keep each position's k most probable candidates.

    Ties at the boundary break lexicographically by tree name; positions with
    at most k candidates are untouched.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    filtered = []
    for names in assignment.candidates:
        if len(names) <= k:
            filtered.append(list(names))
            continue
        top = sorted(names, key=lambda name: (-freq.probability(name), name))[:k]
        filtered.append(sorted(top))
    return TreeAssignment(filtered)


def filter_with_fallback(grammar: Grammar, sentence, assignment: TreeAssignment,
                         k: int, parse_fn):
    """Filter, parse, and retry without the frequency cut if nothing parses.

    The cut keeps each position's ``k`` most probable trees by ``grammar.freq``.
    Returns (forest, FilterReport).  The report's per-position counts always
    describe the full filter pipeline.  fallback_triggered is True whenever
    the first parse, of the frequency-cut candidates, finds nothing.  The
    retry then runs only if the frequency cut removed some candidate;
    otherwise it would parse the same input, and the first, empty forest is
    returned.
    """
    structural = structural_filter(grammar, sentence, assignment)
    frequent = frequency_filter(structural, grammar.freq, k)

    report_positions = []
    for before, after_s, after_f in zip(assignment.candidates, structural.candidates,
                                        frequent.candidates):
        report_positions.append(PositionReport(
            before=len(before),
            removed_structure=len(before) - len(after_s),
            removed_frequency=len(after_s) - len(after_f),
            survivors=len(after_f),
        ))

    forest = parse_fn(grammar, sentence, frequent)
    if forest.has_parse():
        return forest, FilterReport(report_positions, fallback_triggered=False)

    if frequent.candidates == structural.candidates:
        # nothing was cut by frequency; the retry would parse the same input
        return forest, FilterReport(report_positions, fallback_triggered=True)
    retry = parse_fn(grammar, sentence, structural)
    return retry, FilterReport(report_positions, fallback_triggered=True)

"""Bracketing comparison: crossing brackets, recall, precision, flattening.

Derived, gold and flattened trees are all ``parser.DerivedNode`` trees whose
nodes carry their word spans.  ``read_bracketed`` reads gold and candidate
lines through ``grammar.read_tree``, the one bracket reader, and keeps
labels and words verbatim; ``brackets_of`` reads a tree's ``Bracketing``
off its nodes, optionally flattened, and everything else scores
``Bracketing``s.  Before comparison both sides are normalized the paper's
way: labels stripped, single-word and whole-sentence spans dropped.  Two
recall conventions are supported: "standard" is correct/gold,
"paper_literal" is candidate/gold (a pure constituent-count ratio, which
can exceed 100 for over-bracketed parses).
"""

from __future__ import annotations

from dataclasses import dataclass
from statistics import mean

from .grammar import BracketFormatError, open_text, read_tree
from .parser import DerivedNode, assign_spans

AGGREGATIONS = ("first", "best_of_k", "mean_of_k")
RECALL_MODES = ("standard", "paper_literal")


def read_bracketed(text: str) -> DerivedNode:
    """Parse one Penn-style bracketed tree, e.g. ``(S (NP (N dogs)) (VP (V bark)))``.

    Returns the root of a ``DerivedNode`` tree with spans from word 0.
    """
    words = text.lstrip()
    if not words.startswith("("):
        raise BracketFormatError("expected '('", len(text) - len(words))
    root = _derived(read_tree(text))
    assign_spans(root, 0)
    return root


def _derived(form) -> DerivedNode:
    label, _, children = form
    return DerivedNode(label, [child[0] if child[2] is None else _derived(child)
                               for child in children])


def read_bracketed_corpus(path) -> list[DerivedNode]:
    with open_text(path) as handle:
        return [read_bracketed(line.strip()) for line in handle if line.strip()]


@dataclass(frozen=True)
class Bracketing:
    length: int
    spans: frozenset  # of (start, end, label or None)


def brackets_of(root: DerivedNode, flatten=frozenset()) -> Bracketing:
    """One labeled span per internal node, single-word and root spans
    included, of the tree ``root`` that the function ``flatten`` makes with
    the categories ``flatten``; with none, of ``root`` itself.

    Spans are read off the nodes of ``root``, relative to its start.
    Flattening only drops nodes (``_drops_out``), and each node it keeps
    spans the same words as in ``root``.
    """
    base = root.start
    spans = {(0, root.end - base, root.label)}
    stack = [root]
    while stack:
        node = stack.pop()
        for child in node.children:
            if isinstance(child, str):
                continue
            stack.append(child)
            if not _drops_out(node, child, flatten):
                spans.add((child.start - base, child.end - base, child.label))
    return Bracketing(root.end - base, frozenset(spans))


def normalize(bracketing: Bracketing) -> Bracketing:
    """The paper's convention: labels stripped, single-word and
    whole-sentence spans dropped."""
    return Bracketing(bracketing.length, frozenset(
        (start, end, None) for start, end, _ in bracketing.spans
        if end - start > 1 and not (start == 0 and end == bracketing.length)))


def _crosses(a, b) -> bool:
    return (a[0] < b[0] < a[1] < b[1]) or (b[0] < a[0] < b[1] < a[1])


@dataclass(frozen=True)
class EvalScores:
    crossing_count: float
    zero_crossing: bool
    recall_pct: float
    precision_pct: float


def evaluate_parse(candidate: Bracketing, gold: Bracketing,
                   mode: str = "standard") -> EvalScores:
    """Crossing brackets, recall and precision of ``candidate`` against
    ``gold``, both normalized first.  Recall is correct/gold ("standard") or
    candidate/gold ("paper_literal").  When both span sets are empty recall
    and precision are 100; when exactly one is empty both are 0."""
    if mode not in RECALL_MODES:
        raise ValueError(f"unknown recall mode {mode!r}")
    if candidate.length != gold.length:
        raise ValueError(f"length mismatch: candidate {candidate.length},"
                         f" gold {gold.length}")
    cand = normalize(candidate).spans
    gb = normalize(gold).spans
    crossings = sum(1 for span in cand if any(_crosses(span, other) for other in gb))
    correct = len(cand & gb)
    if not cand and not gb:
        recall = precision = 100.0
    elif not cand or not gb:
        recall = precision = 0.0
    else:
        precision = 100.0 * correct / len(cand)
        recall = 100.0 * (correct if mode == "standard" else len(cand)) / len(gb)
    return EvalScores(float(crossings), crossings == 0, recall, precision)


def aggregate_scores(scores: list[EvalScores], aggregation: str) -> EvalScores:
    """Collapse the per-parse scores of one sentence into a single record."""
    if aggregation not in AGGREGATIONS:
        raise ValueError(f"unknown aggregation {aggregation!r}")
    if not scores:
        raise ValueError("no scores to aggregate")
    if aggregation == "first":
        return scores[0]
    if aggregation == "best_of_k":
        return min(scores, key=lambda s: (s.crossing_count, -s.recall_pct, -s.precision_pct))
    crossing_avg = mean(s.crossing_count for s in scores)
    return EvalScores(crossing_avg, crossing_avg == 0, mean(s.recall_pct for s in scores),
                      mean(s.precision_pct for s in scores))


@dataclass(frozen=True)
class CorpusScores:
    n_sentences: int
    coverage_failures: int
    zero_crossing_pct: float
    crossing_avg: float
    recall_pct: float
    precision_pct: float

    def objective(self) -> float:
        """Zero-crossing %, recall % and precision % taken equally."""
        return (self.zero_crossing_pct + self.recall_pct + self.precision_pct) / 3.0


def corpus_scores(per_sentence: list) -> CorpusScores:
    """Aggregate per-sentence EvalScores; None marks a sentence with no parse.

    Parse failures count as non-zero-crossing with recall and precision 0 and
    are excluded from the crossing average.
    """
    if not per_sentence:
        raise ValueError("empty corpus")
    n = len(per_sentence)
    scored = [s for s in per_sentence if s is not None]
    zero_hits = sum(1 for s in scored if s.zero_crossing)
    return CorpusScores(
        n_sentences=n,
        coverage_failures=n - len(scored),
        zero_crossing_pct=100.0 * zero_hits / n,
        crossing_avg=mean(s.crossing_count for s in scored) if scored else 0.0,
        recall_pct=sum(s.recall_pct for s in scored) / n,
        precision_pct=sum(s.precision_pct for s in scored) / n,
    )


def score_corpus(pairs, top_k: int = 6, aggregation: str = "mean_of_k",
                 mode: str = "standard") -> CorpusScores:
    """Evaluate (ranked candidate bracketings, gold bracketing) pairs over a
    corpus.

    Per sentence the top ``min(top_k, available)`` parses are scored and
    collapsed with ``aggregation``; sentences with no parses are coverage
    failures.
    """
    if top_k < 1:
        raise ValueError("top_k must be at least 1")
    per_sentence = []
    for candidates, gold in pairs:
        if not candidates:
            per_sentence.append(None)
            continue
        scores = [evaluate_parse(c, gold, mode) for c in candidates[:top_k]]
        per_sentence.append(aggregate_scores(scores, aggregation))
    return corpus_scores(per_sentence)


# ---------------------------------------------------------------------------
# flattening

def flatten(root: DerivedNode, categories) -> DerivedNode:
    """Remove the internal structure of the given categories.

    Each topmost node labeled in ``categories`` keeps its label but its
    category-labeled descendants are spliced out and preterminals beneath it
    dissolve into their words; subtrees with other labels survive intact
    (and are flattened internally in turn).  Returns a new ``DerivedNode``
    tree with spans from word 0.
    """
    flat = _flat_copy(root, frozenset(categories))
    assign_spans(flat, 0)
    return flat


def _flat_copy(node, categories) -> DerivedNode:
    # a module function: a closure that calls itself is a reference cycle
    children = []
    for child in node.children:
        if isinstance(child, str):
            children.append(child)
        elif _drops_out(node, child, categories):
            children.extend(_flat_copy(child, categories).children)
        else:
            children.append(_flat_copy(child, categories))
    return DerivedNode(node.label, children)


def _drops_out(parent, child, categories) -> bool:
    """The flattening rule: a child of a node labeled in ``categories`` drops
    out, its children taking its place, when it is a preterminal or is
    itself labeled in ``categories``."""
    return parent.label in categories and (
        child.label in categories
        or bool(child.children) and all(isinstance(c, str) for c in child.children))

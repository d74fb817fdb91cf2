"""Bracketing comparison: crossing brackets, recall, precision, flattening.

Derived, gold and flattened trees are all ``parser.DerivedNode`` trees whose
nodes carry their word spans.  Every node gets its span when it is built,
by the ``Deriver``, by ``read_bracketed`` or by ``flatten``, and nothing
writes a span after.  ``read_bracketed`` reads gold and candidate lines
through ``grammar.read_tree``, the one bracket reader, and keeps labels
and words verbatim; ``brackets_of`` reads a tree's ``Bracketing`` off its
nodes, optionally flattened, and ``evaluate_parse`` scores a candidate
``Bracketing`` against a gold one.  Before comparison both sides are
normalized the paper's way: labels stripped, single-word and
whole-sentence spans dropped.  Two recall conventions are supported:
"standard" is correct/gold, "paper_literal" is candidate/gold (a pure
constituent-count ratio, which can exceed 100 for over-bracketed parses).

The scores are those of a candidate's set of normalized spans, as the
PARSEVAL metrics (Black et al. 1991) define them, and one function,
``_count``, counts such a set against the gold.  ``evaluate_derivations``
gives the same scores for all the parses of one sentence at once, off
their derivations, without a tree: it folds the span set of the subtree of
each substituted ``DerivationNode`` the parses share once, and unions it
into the set of each parse that substitutes it.
"""

from __future__ import annotations

from dataclasses import dataclass

from .grammar import BracketFormatError, open_text, read_tree
from .parser import DerivationFold, DerivedNode

AGGREGATIONS = ("first", "best_of_k", "mean_of_k")
RECALL_MODES = ("standard", "paper_literal")


def read_bracketed(text: str) -> DerivedNode:
    """Parse one Penn-style bracketed tree, e.g. ``(S (NP (N dogs)) (VP (V bark)))``.

    Returns the root of a ``DerivedNode`` tree with spans from word 0.
    """
    words = text.lstrip()
    if not words.startswith("("):
        raise BracketFormatError("expected '('", len(text) - len(words))
    return _derived(read_tree(text))


def _derived(form) -> DerivedNode:
    """The ``DerivedNode`` tree of a nested form of ``read_tree``, with spans
    from word 0, each node built with its span once its words are read.
    Like the reader it keeps a stack of its own, so a tree may nest deeper
    than Python's recursion limit."""
    position = 0
    # per node being read: its label, its first word, its unread child
    # forms and its children so far; the bottom entry holds the root
    stack = [(None, 0, iter((form,)), [])]
    while True:
        label, start, rest, children = stack[-1]
        for child_label, _, child_forms in rest:
            if child_forms is None:
                children.append(child_label)
                position += 1
            else:
                stack.append((child_label, position, iter(child_forms), []))
                break
        else:
            stack.pop()
            if not stack:
                return children[0]
            stack[-1][3].append(DerivedNode(label, children, start, position))


def read_bracketed_line(path, number: int, text: str, offset: int = 0) -> DerivedNode:
    """``read_bracketed`` of ``text``, found at character ``offset`` of line
    ``number`` of ``path``: an error names the file and the line, and its
    positions count from the line's start."""
    try:
        return read_bracketed(text)
    except BracketFormatError as exc:
        raise BracketFormatError(f"{path}, line {number}: {exc.reason}",
                                 offset + exc.position,
                                 offset + exc.label_position) from None


def read_bracketed_corpus(path) -> list[DerivedNode]:
    """The trees of the non-blank lines of ``path``; line numbers count
    blank lines."""
    with open_text(path) as handle:
        return [read_bracketed_line(path, number, line.rstrip("\n"))
                for number, line in enumerate(handle, start=1) if line.strip()]


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
    return _evaluate(candidate, gold.length, _gold_spans(gold), {}, mode)


def _gold_spans(gold: Bracketing) -> frozenset:
    """The (start, end) pairs of the normalized ``gold``."""
    return frozenset((start, end) for start, end, _ in normalize(gold).spans)


def _evaluate(candidate, length, gold, table, mode) -> EvalScores:
    """``evaluate_parse`` of ``candidate`` against a gold of ``length``
    words whose normalized spans are ``gold`` (``_gold_spans``); ``table``
    memoizes the bits of the spans (``_count``) for that gold."""
    if candidate.length != length:
        raise ValueError(f"length mismatch: candidate {candidate.length},"
                         f" gold {length}")
    spans = {(start, end) for start, end, _ in normalize(candidate).spans}
    return _scores(*_count(spans, gold, table), len(gold), mode)


def _count(spans, gold, bits) -> tuple[int, int, int]:
    """(spans, correct, crossing): how many normalized (start, end) pairs
    the set ``spans`` holds, how many of them are in ``gold`` and how many
    cross one of its spans.  ``bits`` memoizes each span's two bits
    (correct, crossing) for that gold."""
    correct = crossing = 0
    for span in spans:
        both = bits.get(span)
        if both is None:
            both = bits[span] = (span in gold, any(_crosses(span, other) for other in gold))
        correct += both[0]
        crossing += both[1]
    return len(spans), correct, crossing


def _scores(candidates, correct, crossings, gold, mode) -> EvalScores:
    """``evaluate_parse``'s scores of a candidate with ``candidates``
    normalized spans, ``correct`` of them in the gold's ``gold`` and
    ``crossings`` crossing them."""
    if not candidates and not gold:
        recall = precision = 100.0
    elif not candidates or not gold:
        recall = precision = 0.0
    else:
        precision = 100.0 * correct / candidates
        recall = 100.0 * (correct if mode == "standard" else candidates) / gold
    return EvalScores(float(crossings), crossings == 0, recall, precision)


def evaluate_derivations(grammar, derivations, gold: Bracketing, flatten=frozenset(),
                         mode: str = "standard") -> list[EvalScores]:
    """``evaluate_parse(brackets_of(derived.root, flatten), gold, mode)`` for
    each parse of ``derivations``, the ``DerivationNode``s the parser made
    of one sentence, read off the derivations without building a tree.

    Flattening drops a node whose label and whose parent's label are both
    in ``flatten``, and a preterminal, whose one word no normalized span
    keeps anyway.  A parse's scores are those of its set of normalized
    spans, and the set inside the subtree of a substituted
    ``DerivationNode`` is fixed for the sentence.  So one
    ``parser.DerivationFold`` over the parses folds each such subtree's set
    once and unions it into each parse's own set, which ``_count`` counts
    against the gold, with each span's two bits (correct, crossing)
    memoized for the sentence.
    """
    if mode not in RECALL_MODES:
        raise ValueError(f"unknown recall mode {mode!r}")
    gold_spans, bits = _gold_spans(gold), {}
    spans = _SpanSets(grammar, gold.length, frozenset(flatten))
    scored, out = {}, []
    for derivation in derivations:
        part = set()
        top = spans.instance(derivation, None, part)
        if top[1] != gold.length:  # a parse starts at word 0
            raise ValueError(f"length mismatch: candidate {top[1]}, gold {gold.length}")
        counts = _count(part, gold_spans, bits)
        scores = scored.get(counts)
        if scores is None:
            scores = scored[counts] = _scores(*counts, len(gold_spans), mode)
        out.append(scores)
    return out


class _SpanSets(DerivationFold):
    """The normalized spans of the parses of one sentence of ``length``
    words under flattening with ``flatten``, folded over their derivations.
    A node's value is its span, and a part is the set of the (start, end)
    pairs that the nodes below its top keep: a substituted node's summary
    is its subtree's set, which ``absorb`` unions into the part."""

    def __init__(self, grammar, length, flatten):
        super().__init__(grammar)
        self.length, self.flatten = length, flatten

    def make_plan(self, tree):
        """(kind, positions of its children, those of them flattening keeps)
        per node."""
        layout, flatten = tree.layout, self.flatten
        return tuple((kind, children, tuple(child for child in children
                                            if not (label in flatten
                                                    and layout[child][0] in flatten)))
                     for label, kind, children in layout)

    def part(self):
        return set()

    def internal(self, entry, values, part):
        _, children, kept = entry
        for child in kept:
            start, end = values[child]
            if end - start > 1 and (start or end != self.length):
                part.add((start, end))
        return values[children[0]][0], values[children[-1]][1]

    def summary(self, part, top):
        return part

    def absorb(self, part, top, summary):
        part |= summary


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
    crossing_avg = _mean(s.crossing_count for s in scores)
    return EvalScores(crossing_avg, crossing_avg == 0, _mean(s.recall_pct for s in scores),
                      _mean(s.precision_pct for s in scores))


def _mean(values) -> float:
    """``statistics.mean`` of finite floats, which rounds their exact sum
    divided by their number once, at a fraction of its cost.  The running
    sum is exact: an integer over a power of two, the largest denominator
    of a value so far, and Python rounds an integer quotient correctly."""
    total = shift = count = 0
    for value in values:
        numerator, denominator = value.as_integer_ratio()
        bits = denominator.bit_length() - 1  # the denominator is 2 ** bits
        if bits > shift:
            total <<= bits - shift
            shift = bits
        total += numerator << (shift - bits)
        count += 1
    return total / (count << shift)


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
        crossing_avg=_mean(s.crossing_count for s in scored) if scored else 0.0,
        recall_pct=sum(s.recall_pct for s in scored) / n,
        precision_pct=sum(s.precision_pct for s in scored) / n,
    )


def score_corpus(pairs, top_k: int = 6, aggregation: str = "mean_of_k",
                 mode: str = "standard") -> CorpusScores:
    """Evaluate (ranked candidate bracketings, gold bracketing) pairs over a
    corpus.

    Per sentence the top ``min(top_k, available)`` parses are scored as
    ``evaluate_parse`` scores them, the gold normalized once, and collapsed
    with ``aggregation``; sentences with no parses are coverage failures.
    """
    if top_k < 1:
        raise ValueError("top_k must be at least 1")
    if mode not in RECALL_MODES:
        raise ValueError(f"unknown recall mode {mode!r}")
    per_sentence = []
    for candidates, gold in pairs:
        if not candidates:
            per_sentence.append(None)
            continue
        gold_spans, table = _gold_spans(gold), {}
        scores = [_evaluate(c, gold.length, gold_spans, table, mode)
                  for c in candidates[:top_k]]
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
    tree with spans from word 0: each node it keeps spans the same words as
    in ``root``, so it is built with its span there, shifted by the root's
    start.
    """
    return _flat_copy(root, frozenset(categories), root.start)


def _flat_copy(node, categories, base) -> DerivedNode:
    # a module function: a closure that calls itself is a reference cycle
    children = []
    for child in node.children:
        if isinstance(child, str):
            children.append(child)
        elif _drops_out(node, child, categories):
            children.extend(_flat_copy(child, categories, base).children)
        else:
            children.append(_flat_copy(child, categories, base))
    return DerivedNode(node.label, children, node.start - base, node.end - base)


def _drops_out(parent, child, categories) -> bool:
    """The flattening rule: a child of a node labeled in ``categories`` drops
    out, its children taking its place, when it is a preterminal or is
    itself labeled in ``categories``."""
    return parent.label in categories and (
        child.label in categories
        or bool(child.children) and all(isinstance(c, str) for c in child.children))

"""Ranking heuristics: per-derivation feature counts scored by trainable weights.

Scores are penalties, lower is better; "disprefer" rules count matches with
positive default weights.  A registry fixes the heuristic order and thereby
the weight-vector layout.  Registry files hold one declaration per line:

    NAME local_tree_type   prefix=Rel_Cl            (or trees=a,b,c)
    NAME local_lexical     word=of prefer=tree:X disprefer=tree:Y
    NAME global_structural builtin=pp_attachment_height modifier=PP sites=NP,VP

Lexical predicates are ``pos:TAG``, ``tree:NAME[,NAME...]`` or ``prefix:STR``.
A local rule counts the tree instances whose anchoring (POS, tree name) its
``disprefer`` matches; a tree-type rule's ``prefix=``/``trees=`` is its
``disprefer``, and a lexical rule counts only the instances of its word.
Only ``disprefer`` counts: a lexical rule's ``prefer=`` is required and
checked, but read no further.
The default registry is ``STOCK_REGISTRY``, the local rules of
``sample/registry.txt``, plus the three structural builtins
(adjunction_count, pp_attachment_height, adj_attachment_height), which are
always present: a registry that omits them gets them with default settings.

Every count is a sum over a parse's tree instances or adjunctions, and
``extract`` reads it off the parse's ``DerivationNode``: no tree is built.
What a substituted node adds is fixed for the sentence, so ``rank`` reads
it once per sentence, and per parse only the parse's own part.

Weights files are ``heuristic_name<TAB>weight`` lines in registry order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from operator import add, mul

from .grammar import ANCHOR, Grammar, open_text
from .parser import DerivationFold, DerivationNode, DerivedTree, Deriver

LOCAL_TREE_TYPE = "local_tree_type"
LOCAL_LEXICAL = "local_lexical"
GLOBAL_STRUCTURAL = "global_structural"

BUILTIN_ADJUNCTIONS = "adjunction_count"
BUILTIN_PP_HEIGHT = "pp_attachment_height"
BUILTIN_ADJ_HEIGHT = "adj_attachment_height"
GLOBAL_BUILTINS = (BUILTIN_ADJUNCTIONS, BUILTIN_PP_HEIGHT, BUILTIN_ADJ_HEIGHT)

# clause-type and function-word rules; the registry appends the builtins
STOCK_REGISTRY = """\
disprefer_relative_clause local_tree_type prefix=Rel_Cl
disprefer_topicalization local_tree_type prefix=Topic
disprefer_predicative local_tree_type prefix=Pred
prefer_of_np_modifier local_lexical word=of prefer=tree:PP_Attaches_to_NP disprefer=tree:PP_Attaches_to_VP
prefer_this_determiner local_lexical word=this prefer=pos:D disprefer=pos:N
prefer_to_verb local_lexical word=to prefer=pos:V disprefer=pos:P
prefer_that_complementizer local_lexical word=that prefer=pos:Comp disprefer=pos:D
prefer_which_complementizer local_lexical word=which prefer=pos:Comp disprefer=pos:N
"""


class RegistryError(Exception):
    pass


@dataclass(frozen=True)
class Predicate:
    """Matches an anchoring analysis, i.e. a (POS, tree name) pair."""

    mode: str  # "pos" | "tree" | "prefix"
    values: tuple[str, ...]

    def matches(self, pos: str, tree_name: str) -> bool:
        if self.mode == "pos":
            return pos in self.values
        if self.mode == "tree":
            return tree_name in self.values
        return any(tree_name.startswith(prefix) for prefix in self.values)

    @classmethod
    def parse(cls, text: str) -> "Predicate":
        if ":" not in text:
            raise RegistryError(f"predicate {text!r} needs a mode: prefix")
        mode, _, rest = text.partition(":")
        if mode not in ("pos", "tree", "prefix"):
            raise RegistryError(f"unknown predicate mode {mode!r}")
        return cls(mode, _values(rest, f"predicate {text!r}"))


def _values(text: str, what: str) -> tuple[str, ...]:
    """A registry list's comma-separated items; empty ones are dropped."""
    values = tuple(v for v in text.split(",") if v)
    if not values:
        raise RegistryError(f"{what} has no values")
    return values


@dataclass(frozen=True)
class Heuristic:
    name: str
    kind: str
    word: str | None = None  # None: every anchoring counts
    disprefer: Predicate | None = None
    builtin: str | None = None
    modifier: tuple[str, ...] = ()
    sites: tuple[str, ...] = ()


@dataclass
class HeuristicRegistry:
    """Ordered heuristics; the order defines the weight-vector layout.

    ``__post_init__`` sets the layout once, as a tuple of its own: the
    heuristics given, then the missing builtins.  The local rules each
    anchoring matches, and each elementary tree's plan for counting them,
    are memoized on the registry for its lifetime.
    """

    heuristics: tuple[Heuristic, ...] = ()
    # (anchor POS, tree name, lower-cased word) -> ``_matching_rules``
    _rules: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    # id of an elementary tree -> (the tree, ``_Counter.make_plan``); the
    # entry holds the tree, so that its id is not reused
    _plans: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        given = tuple(self.heuristics)
        names = [h.name for h in given]
        if len(set(names)) != len(names):
            raise RegistryError("duplicate heuristic names in registry")
        present = {h.builtin for h in given if h.kind == GLOBAL_STRUCTURAL}
        self.heuristics = given + tuple(
            _default_global(builtin) for builtin in GLOBAL_BUILTINS if builtin not in present)

    def __len__(self):
        return len(self.heuristics)

    def names(self) -> list[str]:
        return [h.name for h in self.heuristics]


def _default_global(builtin: str) -> Heuristic:
    if builtin == BUILTIN_ADJUNCTIONS:
        return Heuristic(builtin, GLOBAL_STRUCTURAL, builtin=builtin)
    if builtin == BUILTIN_PP_HEIGHT:
        return Heuristic(builtin, GLOBAL_STRUCTURAL, builtin=builtin,
                         modifier=("PP",), sites=("NP", "VP"))
    return Heuristic(builtin, GLOBAL_STRUCTURAL, builtin=builtin,
                     modifier=("A",), sites=("N", "NP"))


def default_registry() -> HeuristicRegistry:
    """The stock registry: ``STOCK_REGISTRY`` plus the three builtins."""
    return parse_registry(STOCK_REGISTRY)


def parse_registry(text: str) -> HeuristicRegistry:
    heuristics = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) < 2:
            raise RegistryError(f"line {lineno}: expected 'name kind key=value...'")
        name, kind = parts[0], parts[1]
        options = {}
        for part in parts[2:]:
            if "=" not in part:
                raise RegistryError(f"line {lineno}: bad option {part!r}")
            key, _, value = part.partition("=")
            options[key] = value
        try:
            heuristics.append(_heuristic_from(name, kind, options))
        except RegistryError as exc:
            raise RegistryError(f"line {lineno}: {exc}")
    return HeuristicRegistry(heuristics)


def _heuristic_from(name, kind, options) -> Heuristic:
    if kind == LOCAL_TREE_TYPE:
        if "prefix" in options:
            pred = Predicate("prefix", _values(options["prefix"], f"{name}: prefix="))
        elif "trees" in options:
            pred = Predicate("tree", _values(options["trees"], f"{name}: trees="))
        else:
            raise RegistryError(f"{name}: local_tree_type needs prefix= or trees=")
        return Heuristic(name, kind, disprefer=pred)
    if kind == LOCAL_LEXICAL:
        missing = {"word", "prefer", "disprefer"} - options.keys()
        if missing:
            raise RegistryError(f"{name}: local_lexical needs {sorted(missing)}")
        Predicate.parse(options["prefer"])  # checked, never counted
        return Heuristic(name, kind, word=options["word"],
                         disprefer=Predicate.parse(options["disprefer"]))
    if kind == GLOBAL_STRUCTURAL:
        builtin = options.get("builtin", name)
        if builtin not in GLOBAL_BUILTINS:
            raise RegistryError(f"{name}: unknown builtin {builtin!r}")
        lists = {key: _values(options[key], f"{name}: {key}=")
                 for key in ("modifier", "sites") if key in options}
        return replace(_default_global(builtin), name=name, **lists)
    raise RegistryError(f"{name}: unknown heuristic kind {kind!r}")


def load_registry(path) -> HeuristicRegistry:
    with open_text(path) as handle:
        return parse_registry(handle.read())


# ---------------------------------------------------------------------------
# feature extraction and scoring

def extract(registry: HeuristicRegistry, grammar: Grammar, derivation: DerivationNode,
            words, table: dict | None = None) -> tuple[float, ...]:
    """Count each registry heuristic's matches in one parse of ``words``,
    the ``DerivationNode`` ``derivation`` that the parser made, without
    building its derived tree.

    The counts read derived nodes' labels and spans, folded off the
    derivation (``parser.DerivationFold``).  Every count is a sum over tree
    instances and adjunctions, and what a substituted ``DerivationNode``
    adds is fixed for the sentence.  ``table``, a dict kept across the
    parses of one sentence and one registry, keeps one fold, which holds
    that for each substituted node the parses share and each anchoring's
    matching local rules; ``rank`` passes one, and without it the call uses
    a dict of its own.  So a parse costs its own part.
    """
    if table is None:
        table = {}
    counter = table.get(None)
    if counter is None:
        counter = table[None] = _Counter(registry, grammar, words)
    counts = counter.part()
    counter.instance(derivation, None, counts)
    # every zero is the one constant 0.0: the cached vectors the trainer
    # reads then hold few distinct floats
    return tuple([float(count) if count else 0.0 for count in counts])


class _Counter(DerivationFold):
    """The heuristic counts of the parses of one sentence, folded over
    their derivations; a part accumulates one count per heuristic.

    A derived node's value is ``(start, end, at_start, at_end)``: its span,
    and one count per height heuristic (``heights``) for each of its
    edges.  For ``pp_attachment_height`` the count at its start (end) is of
    the nodes labelled in its sites on the node's leftmost (rightmost) path
    down to a word, the node itself included.  For ``adj_attachment_height``
    it is of the modifiers at or below the node that are open at its start
    (end): whose side is the start (end), and whose start (end) is the
    node's.  An open modifier's sites above it are those of its ancestors
    that share that edge, and these are exactly the nodes above it that it
    is still open at, so each node adds its open modifiers below it when it
    is a site.
    """

    def __init__(self, registry, grammar, words):
        super().__init__(grammar)
        self.registry, self.words = registry, words
        self.rules = {}        # (tree name, anchor index) -> ``_matching_rules``
        self.adjunctions = []  # registry positions of adjunction_count heuristics
        self.heights = []      # (registry position, lower?, modifier labels, sites)
        for index, h in enumerate(registry.heuristics):
            if h.builtin == BUILTIN_ADJUNCTIONS:
                self.adjunctions.append(index)
            elif h.builtin is not None:
                self.heights.append((index, h.builtin == BUILTIN_PP_HEIGHT,
                                     h.modifier, h.sites))

    def instance(self, node, foot, counts):
        key = (node.tree, node.anchor_index)
        matched = self.rules.get(key)
        if matched is None:
            matched = self.rules[key] = _matching_rules(
                self.registry, self.grammar, node.tree, self.words[node.anchor_index])
        for index in matched:
            counts[index] += 1
        return super().instance(node, foot, counts)

    def make_plan(self, tree):
        """(kind, positions of its children, adds, sites) per node.  ``adds``
        holds per height heuristic 1 when the heuristic counts sites on
        paths and the node is one, else 0 (None when all are 0; a tuple for
        every anchor), and ``sites`` the (height, registry position) pairs
        of the heuristics counting open modifiers that the node is a site
        of.  Memoized on the registry, across sentences."""
        cached = self.registry._plans.get(id(tree))
        if cached is None:
            plan = []
            for label, kind, children in tree.layout:
                adds = tuple(int(lower and label in sites)
                             for _, lower, _, sites in self.heights)
                plan.append((kind, children, adds if kind == ANCHOR or any(adds) else None,
                             tuple((k, index) for k, (index, lower, _, sites)
                                   in enumerate(self.heights)
                                   if not lower and label in sites)))
            cached = self.registry._plans[id(tree)] = (tree, tuple(plan))
        return cached[1]

    def part(self):
        return [0] * len(self.registry.heuristics)

    def anchor(self, entry, at):
        return (at, at + 1, entry[2], entry[2])  # a word: no sites below, none open

    def internal(self, entry, values, counts):
        _, children, adds, sites = entry
        first, last = values[children[0]], values[children[-1]]
        for k, index in sites:
            counts[index] += first[2][k] + last[3][k]
        if adds is None:
            return (first[0], last[1], first[2], last[3])
        return (first[0], last[1], tuple(map(add, adds, first[2])),
                tuple(map(add, adds, last[3])))

    def adjoined(self, child, entry, host, counts):
        top = self.instance(child, host, counts)
        for index in self.adjunctions:
            counts[index] += 1
        edge = _modifier_edge(top[0], top[1], host[0], host[1])
        if edge is None:
            return top
        side = 2 if edge == "start" else 3
        label = self.grammar.trees[child.tree].modifier_label
        host_adds, opened = entry[2], None
        for k, (index, lower, modifier, _) in enumerate(self.heights):
            if label in modifier:
                if lower:  # the sites below the host on its path
                    counts[index] += host[side][k] - (host_adds[k] if host_adds else 0)
                else:
                    opened = list(top[side] if opened is None else opened)
                    opened[k] += 1
        if opened is None:
            return top
        return top[:side] + (tuple(opened),) + top[side + 1:]

    def summary(self, counts, top):
        return [(index, count) for index, count in enumerate(counts) if count]

    def absorb(self, counts, top, summary):
        for index, count in summary:
            counts[index] += count


def _matching_rules(registry, grammar, tree_name, word) -> tuple[int, ...]:
    """Registry positions of the local rules whose ``disprefer`` matches the
    anchoring of ``tree_name`` at ``word``; words compare case-insensitively.
    Memoized on the registry, across sentences and grammars."""
    pos = grammar.trees[tree_name].anchor_pos
    word = word.lower()
    key = (pos, tree_name, word)
    matched = registry._rules.get(key)
    if matched is None:
        matched = registry._rules[key] = tuple(
            index for index, h in enumerate(registry.heuristics)
            if h.kind != GLOBAL_STRUCTURAL
            and (h.word is None or h.word.lower() == word)
            and h.disprefer.matches(pos, tree_name))
    return matched


def _modifier_edge(top_start, top_end, host_start, host_end) -> str | None:
    """The edge of its host, spanning [host_start, host_end), that an
    adjunction's modifier lies on, read off the final spans: "start" on the
    left, "end" on the right.  The modifier's top, spanning [top_start,
    top_end), is the outermost spliced-in node: the auxiliary's root or a
    tree adjoined there.  None, which the heights score 0, when material
    lies on both sides: the auxiliary has material on both sides of its
    foot, or a tree adjoined at its root does.
    """
    left = top_start < host_start
    if left and host_end < top_end:
        return None
    return "start" if left else "end"


def score(vector, weights) -> float:
    """Dot product of counts and weights; lower is preferred."""
    if len(vector) != len(weights):
        raise ValueError(f"vector length {len(vector)} != weight length {len(weights)}")
    return sum(map(mul, vector, weights))


class RankedParse:
    """One parse of a sentence: its derivation, heuristic vector and
    penalty.  ``rank`` gives the parses of a sentence whose vectors are
    equal one vector tuple and one penalty.  ``derived``, its derived tree,
    is built on first read by ``deriver``, the sentence's one ``Deriver``,
    so that the trees read share their subtrees; a parse nobody prints is
    never derived."""

    __slots__ = ("derivation", "vector", "penalty", "deriver", "_derived")

    def __init__(self, derivation: DerivationNode, vector: tuple[float, ...],
                 penalty: float, deriver: Deriver):
        self.derivation = derivation
        self.vector = vector
        self.penalty = penalty
        self.deriver = deriver
        self._derived = None

    @property
    def derived(self) -> DerivedTree:
        if self._derived is None:
            self._derived = self.deriver.derive(self.derivation)
        return self._derived


def rank(deriver: Deriver, derivations, registry: HeuristicRegistry,
         weights) -> list[RankedParse]:
    """Score one sentence's parses, the ``DerivationNode``s the parser made
    of ``deriver.words``, and sort them by ascending penalty.  No tree is
    derived: each ``RankedParse`` builds its own through ``deriver`` when
    it is first read.  Parses with equal vectors share one vector tuple,
    and each distinct vector is scored once: ``score`` is pure, so the
    penalties are those of scoring every parse.

    Ties keep the parser's canonical enumeration order (the sort is stable).
    """
    ranked = []
    table = {}  # shared substituted nodes' counts and anchorings, for this sentence
    scored = {}  # vector -> (its one tuple in this sentence, penalty)
    for derivation in derivations:
        vector = extract(registry, deriver.grammar, derivation, deriver.words, table)
        shared = scored.get(vector)
        if shared is None:
            shared = scored[vector] = (vector, score(vector, weights))
        ranked.append(RankedParse(derivation, shared[0], shared[1], deriver))
    ranked.sort(key=lambda rp: rp.penalty)
    return ranked


def uniform_weights(registry: HeuristicRegistry, value: float = 1.0) -> list[float]:
    return [value] * len(registry)


def zero_weights(registry: HeuristicRegistry) -> list[float]:
    return [0.0] * len(registry)


def load_weights(path, registry: HeuristicRegistry) -> list[float]:
    """Read a weights file; names must match the registry order exactly."""
    weights = []
    names = registry.names()
    with open_text(path) as handle:
        rows = [line.strip() for line in handle if line.strip() and not line.startswith("#")]
    if len(rows) != len(names):
        raise RegistryError(f"weights file has {len(rows)} rows, registry has {len(names)}")
    for row, expected in zip(rows, names):
        parts = row.split()
        if len(parts) != 2:
            raise RegistryError(f"bad weights row {row!r}")
        name, value = parts
        if name != expected:
            raise RegistryError(f"weights row {name!r} does not match registry {expected!r}")
        try:
            weight = float(value)
        except ValueError:
            raise RegistryError(f"bad weight {value!r} for {name!r}")
        if not math.isfinite(weight):
            raise RegistryError(f"weight {value!r} for {name!r} is not finite")
        weights.append(weight)
    return weights


def save_weights(path, registry: HeuristicRegistry, weights) -> None:
    if len(weights) != len(registry):
        raise RegistryError("weight vector does not match registry length")
    with open(path, "w") as handle:
        for name, value in zip(registry.names(), weights):
            handle.write(f"{name}\t{value!r}\n")

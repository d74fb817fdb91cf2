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

Every count is a sum over a parse's tree instances or adjunction records.
A parse and each subtree the parses of a sentence share are each a
``DerivedTree``, whose ``parts`` are the shared ones it holds, so
``extract`` reads what a shared subtree adds once per sentence, and per
parse only its own part.

Weights files are ``heuristic_name<TAB>weight`` lines in registry order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

from .grammar import Grammar, open_text
from .parser import OP_ADJUNCTION, DerivationNode, DerivedTree

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
    anchoring matches are memoized on the registry for its lifetime.
    """

    heuristics: tuple[Heuristic, ...] = ()
    # (anchor POS, tree name, lower-cased word) -> ``_matching_rules``
    _rules: dict = field(default_factory=dict, init=False, repr=False, compare=False)

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

def extract(registry: HeuristicRegistry, grammar: Grammar, derived: DerivedTree,
            table: dict | None = None) -> tuple[float, ...]:
    """Count each registry heuristic's matches in one parse, a
    ``DerivedTree`` that ``derive`` made.

    Every count is a sum over the parse's own part and its shared subtrees
    (``DerivedTree.parts``), and what a shared subtree adds is fixed for the
    sentence.  ``table``, a dict kept across the parses of one sentence and
    one registry, holds each shared subtree's ``_summary``, each anchoring's
    matching local rules and, under None, the registry's structural
    heuristics; ``rank`` passes one, and without it the call uses a dict of
    its own.  So a parse costs its own part and one lookup per outermost
    shared subtree.
    """
    if table is None:
        table = {}
    structural = table.get(None)
    if structural is None:
        structural = table[None] = [(index, h)
                                    for index, h in enumerate(registry.heuristics)
                                    if h.kind == GLOBAL_STRUCTURAL]
    local, values = _summary(registry, grammar, structural, derived, table)
    counts = [0.0] * len(registry.heuristics)
    for index, count in local:
        counts[index] = float(count)
    for (index, h), value in zip(structural, values):
        counts[index] = float(value[0] if h.builtin == BUILTIN_ADJ_HEIGHT else value)
    return tuple(counts)


def _summary(registry, grammar, structural, part, table):
    """What ``part``, a parse's ``DerivedTree`` or one of its shared
    subtrees, adds to the counts of a parse that contains it.

    Returns ``(local, values)``: the (registry index, count) pairs of the
    local rules, and one value per ``structural`` heuristic.  That is the
    adjunction count, the ``pp_attachment_height`` sum, or, for
    ``adj_attachment_height``, the triple of ``_adj_height``.  The summaries
    of ``part.parts`` are read from ``table``, or made and put there.
    """
    local = {}
    # the part's own tree instances: ``derive`` makes every substituted
    # subtree a shared one, so they are the root tree of its derivation and
    # what is adjoined there, recursively.  A substituted tree with nothing
    # attached adds only its one instance: it is counted here, and skipped
    # among the parts below
    words = part.words
    stack = [part.derivation]
    while stack:
        node = stack.pop()
        instance = (node.tree, node.anchor_index)
        matched = table.get(instance)
        if matched is None:
            matched = table[instance] = _matching_rules(
                registry, grammar, node.tree, words[node.anchor_index])
        for index in matched:
            local[index] = local.get(index, 0) + 1
        for att in node.attachments:
            if att.op == OP_ADJUNCTION or not att.child.attachments:
                stack.append(att.child)
    subs = []
    for sub in part.parts:
        if not sub.derivation.attachments:
            continue
        summary = table.get(sub)
        if summary is None:
            summary = table[sub] = _summary(registry, grammar, structural, sub, table)
        for index, count in summary[0]:
            local[index] = local.get(index, 0) + count
        subs.append((sub.root, summary[1]))
    records, values = part.records, []
    for position, (_, h) in enumerate(structural):
        if h.builtin == BUILTIN_ADJ_HEIGHT:
            values.append(_adj_height(records, subs, position, h, part.root))
            continue
        if h.builtin == BUILTIN_ADJUNCTIONS:
            value = len(records)
        else:
            value = sum(_bypassed_lower(rec, h.sites) for rec in records
                        if rec.modifier_label in h.modifier)
        for _, sub_values in subs:
            value += sub_values[position]
        values.append(value)
    return tuple(local.items()), values


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


def _modifier_edge(record) -> str | None:
    """The edge of its host that the record's modifier lies on, read off the
    final spans: "start" on the left, "end" on the right.  None, which the
    heights score 0, when material lies on both sides: the auxiliary has
    material on both sides of its foot, or a tree adjoined at its root does.
    """
    root, host = record.root_node, record.host_node
    left = root.start < host.start
    if left and host.end < root.end:
        return None
    return "start" if left else "end"


def _bypassed_lower(record, sites) -> int:
    # attachment sites below the chosen host that share its modifier-side
    # edge.  Every node spans at least one word, so those are the nodes on
    # the host's leftmost ("start") or rightmost ("end") path
    edge = _modifier_edge(record)
    if edge is None:
        return 0
    side = 0 if edge == "start" else -1
    count, node = 0, record.host_node.children[side]
    while not isinstance(node, str):
        count += node.label in sites
        node = node.children[side]
    return count


def _adj_height(records, subs, position, h, root) -> tuple[int, int, int]:
    """``adj_attachment_height``, the heuristic ``h``, of a part whose own
    records are ``records``, whose root is ``root`` and whose shared
    subtrees' roots and values are ``subs``: (sum, open at start, open at
    end), the triple of a subtree being at ``position`` of its values.

    The sum counts, per modifier, the sites above it up to ``root``.  A
    modifier whose start (end) is the root's is open at that edge: in a
    tree that contains the part, the sites above ``root`` that share that
    edge are its sites too.  They are no other modifier's, whose start
    (end) lies after (before) the root's.
    """
    total = open_start = open_end = 0
    for rec in records:
        if rec.modifier_label in h.modifier:
            edge = _modifier_edge(rec)
            if edge is not None:
                modifier = rec.root_node
                total += _sites_above(modifier, edge, h.sites, root)
                if edge == "start":
                    open_start += modifier.start == root.start
                else:
                    open_end += modifier.end == root.end
    for sub_root, sub_values in subs:
        sub_total, sub_start, sub_end = sub_values[position]
        total += sub_total
        if sub_start:
            total += sub_start * _sites_above(sub_root, "start", h.sites, root)
            if sub_root.start == root.start:
                open_start += sub_start
        if sub_end:
            total += sub_end * _sites_above(sub_root, "end", h.sites, root)
            if sub_root.end == root.end:
                open_end += sub_end
    return total, open_start, open_end


def _sites_above(node, edge, sites, root) -> int:
    # nodes from ``root`` down to ``node``, itself excluded, labelled in
    # ``sites`` that share its start or end (``edge``).  Nodes have no
    # parent link, so the path is found going down from ``root``: siblings'
    # spans are disjoint, so exactly one child of each ancestor contains
    # the node's span
    at, start, end = getattr(node, edge), node.start, node.end
    count, current = 0, root
    while current is not node:
        count += current.label in sites and getattr(current, edge) == at
        for child in current.children:
            if not isinstance(child, str) and child.start <= start and end <= child.end:
                current = child
                break
        else:
            raise ValueError("the node is not below the root")
    return count


def score(vector, weights) -> float:
    """Dot product of counts and weights; lower is preferred."""
    if len(vector) != len(weights):
        raise ValueError(f"vector length {len(vector)} != weight length {len(weights)}")
    return sum(v * w for v, w in zip(vector, weights))


@dataclass
class RankedParse:
    derived: DerivedTree
    vector: tuple[float, ...]
    penalty: float

    @property
    def derivation(self) -> DerivationNode:
        return self.derived.derivation


def rank(grammar: Grammar, parses, registry: HeuristicRegistry, weights) -> list[RankedParse]:
    """Sort one sentence's parses, the ``DerivedTree``s ``derive`` made, by
    ascending penalty.

    Ties keep the parser's canonical enumeration order (the sort is stable).
    """
    ranked = []
    table = {}  # shared subtree summaries and anchorings, for this sentence
    for derived in parses:
        vector = extract(registry, grammar, derived, table)
        ranked.append(RankedParse(derived, vector, score(vector, weights)))
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

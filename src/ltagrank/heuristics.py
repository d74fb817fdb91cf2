"""Ranking heuristics: per-derivation feature counts scored by trainable weights.

Scores are penalties, lower is better; "disprefer" rules count matches with
positive default weights.  A registry fixes the heuristic order and thereby
the weight-vector layout.  Registry files hold one declaration per line:

    NAME local_tree_type   prefix=Rel_Cl            (or trees=a,b,c)
    NAME local_lexical     word=of prefer=tree:X disprefer=tree:Y
    NAME global_structural builtin=pp_attachment_height modifier=PP sites=NP,VP

Lexical predicates are ``pos:TAG``, ``tree:NAME[,NAME...]`` or ``prefix:STR``
and are tested against the anchoring (POS, tree name) of the rule's word.
The three structural builtins (adjunction_count, pp_attachment_height,
adj_attachment_height) are always present; a registry file that omits them
gets them appended with default settings.

Weights files are ``heuristic_name<TAB>weight`` lines in registry order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .grammar import Grammar
from .parser import DerivationNode, DerivedTree

LOCAL_TREE_TYPE = "local_tree_type"
LOCAL_LEXICAL = "local_lexical"
GLOBAL_STRUCTURAL = "global_structural"

BUILTIN_ADJUNCTIONS = "adjunction_count"
BUILTIN_PP_HEIGHT = "pp_attachment_height"
BUILTIN_ADJ_HEIGHT = "adj_attachment_height"
GLOBAL_BUILTINS = (BUILTIN_ADJUNCTIONS, BUILTIN_PP_HEIGHT, BUILTIN_ADJ_HEIGHT)


class RegistryError(Exception):
    pass


@dataclass(frozen=True)
class Predicate:
    """Matches an anchoring analysis, i.e. a (POS, tree name) pair."""

    mode: str  # "pos" | "tree" | "prefix"
    values: tuple[str, ...]

    def matches(self, pos: str | None, tree_name: str) -> bool:
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
        values = tuple(v for v in rest.split(",") if v)
        if not values:
            raise RegistryError(f"predicate {text!r} has no values")
        return cls(mode, values)

    def dump(self) -> str:
        return f"{self.mode}:{','.join(self.values)}"


@dataclass(frozen=True)
class Heuristic:
    name: str
    kind: str
    tree_pred: Predicate | None = None
    word: str | None = None
    prefer: Predicate | None = None
    disprefer: Predicate | None = None
    builtin: str | None = None
    modifier: tuple[str, ...] = ()
    sites: tuple[str, ...] = ()


@dataclass
class HeuristicRegistry:
    """Ordered heuristics; the order defines the weight-vector layout."""

    heuristics: list[Heuristic] = field(default_factory=list)

    def __post_init__(self):
        names = [h.name for h in self.heuristics]
        if len(set(names)) != len(names):
            raise RegistryError("duplicate heuristic names in registry")
        present = {h.builtin for h in self.heuristics if h.kind == GLOBAL_STRUCTURAL}
        for builtin in GLOBAL_BUILTINS:
            if builtin not in present:
                self.heuristics.append(_default_global(builtin))

    def __len__(self):
        return len(self.heuristics)

    def names(self) -> list[str]:
        return [h.name for h in self.heuristics]

    def index(self, name: str) -> int:
        for i, h in enumerate(self.heuristics):
            if h.name == name:
                return i
        raise KeyError(name)

    def dumps(self) -> str:
        lines = []
        for h in self.heuristics:
            if h.kind == LOCAL_TREE_TYPE:
                lines.append(f"{h.name} {h.kind} "
                             + (f"prefix={','.join(h.tree_pred.values)}"
                                if h.tree_pred.mode == "prefix"
                                else f"trees={','.join(h.tree_pred.values)}"))
            elif h.kind == LOCAL_LEXICAL:
                lines.append(f"{h.name} {h.kind} word={h.word} "
                             f"prefer={h.prefer.dump()} disprefer={h.disprefer.dump()}")
            else:
                extra = ""
                if h.builtin != BUILTIN_ADJUNCTIONS:
                    extra = (f" modifier={','.join(h.modifier)}"
                             f" sites={','.join(h.sites)}")
                lines.append(f"{h.name} {h.kind} builtin={h.builtin}{extra}")
        return "\n".join(lines) + "\n"


def _default_global(builtin: str) -> Heuristic:
    if builtin == BUILTIN_ADJUNCTIONS:
        return Heuristic(builtin, GLOBAL_STRUCTURAL, builtin=builtin)
    if builtin == BUILTIN_PP_HEIGHT:
        return Heuristic(builtin, GLOBAL_STRUCTURAL, builtin=builtin,
                         modifier=("PP",), sites=("NP", "VP"))
    return Heuristic(builtin, GLOBAL_STRUCTURAL, builtin=builtin,
                     modifier=("A",), sites=("N", "NP"))


def default_registry() -> HeuristicRegistry:
    """The stock registry: clause-type and function-word rules plus the
    three structural builtins."""
    rules = [
        Heuristic("disprefer_relative_clause", LOCAL_TREE_TYPE,
                  tree_pred=Predicate("prefix", ("Rel_Cl",))),
        Heuristic("disprefer_topicalization", LOCAL_TREE_TYPE,
                  tree_pred=Predicate("prefix", ("Topic",))),
        Heuristic("disprefer_predicative", LOCAL_TREE_TYPE,
                  tree_pred=Predicate("prefix", ("Pred",))),
        Heuristic("prefer_of_np_modifier", LOCAL_LEXICAL, word="of",
                  prefer=Predicate("tree", ("PP_Attaches_to_NP",)),
                  disprefer=Predicate("tree", ("PP_Attaches_to_VP",))),
        Heuristic("prefer_this_determiner", LOCAL_LEXICAL, word="this",
                  prefer=Predicate("pos", ("D",)),
                  disprefer=Predicate("pos", ("N",))),
        Heuristic("prefer_to_verb", LOCAL_LEXICAL, word="to",
                  prefer=Predicate("pos", ("V",)),
                  disprefer=Predicate("pos", ("P",))),
        Heuristic("prefer_that_complementizer", LOCAL_LEXICAL, word="that",
                  prefer=Predicate("pos", ("Comp",)),
                  disprefer=Predicate("pos", ("D",))),
        Heuristic("prefer_which_complementizer", LOCAL_LEXICAL, word="which",
                  prefer=Predicate("pos", ("Comp",)),
                  disprefer=Predicate("pos", ("N",))),
    ]
    return HeuristicRegistry(rules)


def globals_only_registry() -> HeuristicRegistry:
    return HeuristicRegistry([])


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
            pred = Predicate("prefix", tuple(options["prefix"].split(",")))
        elif "trees" in options:
            pred = Predicate("tree", tuple(options["trees"].split(",")))
        else:
            raise RegistryError(f"{name}: local_tree_type needs prefix= or trees=")
        return Heuristic(name, kind, tree_pred=pred)
    if kind == LOCAL_LEXICAL:
        missing = {"word", "prefer", "disprefer"} - options.keys()
        if missing:
            raise RegistryError(f"{name}: local_lexical needs {sorted(missing)}")
        return Heuristic(name, kind, word=options["word"],
                         prefer=Predicate.parse(options["prefer"]),
                         disprefer=Predicate.parse(options["disprefer"]))
    if kind == GLOBAL_STRUCTURAL:
        builtin = options.get("builtin", name)
        if builtin not in GLOBAL_BUILTINS:
            raise RegistryError(f"{name}: unknown builtin {builtin!r}")
        base = _default_global(builtin)
        modifier = tuple(options["modifier"].split(",")) if "modifier" in options else base.modifier
        sites = tuple(options["sites"].split(",")) if "sites" in options else base.sites
        return Heuristic(name, kind, builtin=builtin, modifier=modifier, sites=sites)
    raise RegistryError(f"{name}: unknown heuristic kind {kind!r}")


def load_registry(path) -> HeuristicRegistry:
    with open(path) as handle:
        return parse_registry(handle.read())


# ---------------------------------------------------------------------------
# feature extraction and scoring

def extract(registry: HeuristicRegistry, grammar: Grammar,
            derivation: DerivationNode, derived: DerivedTree) -> tuple[float, ...]:
    """Count each registry heuristic's matches in one (derivation, derived) pair."""
    instances = derivation.instances()
    counts = []
    for h in registry.heuristics:
        if h.kind == LOCAL_TREE_TYPE:
            value = sum(1 for name, _ in instances if h.tree_pred.matches(None, name))
        elif h.kind == LOCAL_LEXICAL:
            value = 0
            for name, anchor in instances:
                if derived.words[anchor].lower() != h.word.lower():
                    continue
                tree = grammar.trees[name]
                if h.disprefer.matches(tree.anchor_pos, name):
                    value += 1
        elif h.builtin == BUILTIN_ADJUNCTIONS:
            value = len(derived.adjunctions)
        elif h.builtin == BUILTIN_PP_HEIGHT:
            value = sum(_bypassed_lower(rec, h.sites) for rec in derived.adjunctions
                        if rec.modifier_label in h.modifier)
        else:
            value = sum(_bypassed_higher(rec, h.sites) for rec in derived.adjunctions
                        if rec.modifier_label in h.modifier)
        counts.append(float(value))
    return tuple(counts)


def _bypassed_lower(record, sites) -> int:
    # attachment sites of matching category below the chosen host, adjacent
    # to the modifier span on its side
    if record.side is None:
        return 0
    count = 0
    for node in record.host_node.walk():
        if node is record.host_node or node.label not in sites:
            continue
        if record.side == "right" and node.end == record.mod_span[0]:
            count += 1
        elif record.side == "left" and node.start == record.mod_span[1]:
            count += 1
    return count


def _bypassed_higher(record, sites) -> int:
    if record.side is None:
        return 0
    count = 0
    node = record.root_node.parent
    while node is not None:
        if node.label in sites:
            if record.side == "right" and node.end == record.mod_span[1]:
                count += 1
            elif record.side == "left" and node.start == record.mod_span[0]:
                count += 1
        node = node.parent
    return count


def score(vector, weights) -> float:
    """Dot product of counts and weights; lower is preferred."""
    if len(vector) != len(weights):
        raise ValueError(f"vector length {len(vector)} != weight length {len(weights)}")
    return sum(v * w for v, w in zip(vector, weights))


@dataclass
class RankedParse:
    derivation: DerivationNode
    derived: DerivedTree
    vector: tuple[float, ...]
    penalty: float


def rank(grammar: Grammar, parses, registry: HeuristicRegistry, weights) -> list[RankedParse]:
    """Sort one sentence's parses by ascending penalty.

    Ties keep the parser's canonical enumeration order (the sort is stable).
    """
    ranked = []
    for derivation, derived in parses:
        vector = extract(registry, grammar, derivation, derived)
        ranked.append(RankedParse(derivation, derived, vector, score(vector, weights)))
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
    with open(path) as handle:
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

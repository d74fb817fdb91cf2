"""Chart parser for lexicalized tree adjoining grammars.

The chart is a packed forest over items keyed by

    (tree name, anchor position, node address, layer, i, j, foot_i, foot_j)

where ``layer`` is "bot" (subtree below the node recognized, adjunction not
yet considered) or "top" (adjunction at the node resolved, possibly by not
adjoining).  Dotted items track left-to-right traversal of an internal
node's children.  Deduction follows the standard CYK-style recognizer for
this grammar class: anchors scan their word, feet may match any span on the
correct side of their anchor, substitution consumes a finished initial tree
of matching category, and adjunction wraps a finished auxiliary tree around
a "bot" item whose span equals the auxiliary's foot span.

Each item holds its distinct ways (the deductions that posted it) in the
order they were first derived.  Enumeration unpacks them lazily in that
order, and the adjunction cap is enforced there: a way that would stack
adjunctions along a spine deeper than the cap is skipped before anything
under it is enumerated.

Conventions enforced here: every word anchors exactly one elementary tree
per derivation, at most one adjunction per node, and no adjunction at
anchor, substitution or foot nodes.
"""

from __future__ import annotations

from collections import defaultdict, deque
from dataclasses import dataclass, field
from itertools import islice

from .grammar import (ANCHOR, AUXILIARY, INITIAL, INTERNAL, SUBSTITUTION,
                      Address, Grammar, format_address)

OP_SUBSTITUTION = "substitution"
OP_ADJUNCTION = "adjunction"


class DerivationError(Exception):
    """A derivation violates the combination rules; the parser must not emit these."""


class FeatureConflict(Exception):
    """Feature unification failed; the derivation is rejected, not broken."""


@dataclass(frozen=True)
class Attachment:
    child: "DerivationNode"
    op: str
    address: Address


@dataclass(frozen=True)
class DerivationNode:
    """One elementary tree use: which tree, anchored where, with what attached."""

    tree: str
    anchor_index: int
    attachments: tuple[Attachment, ...] = ()  # in address order

    def instances(self):
        """All (tree name, anchor index) pairs in this derivation."""
        out = []
        stack = [self]
        while stack:
            node = stack.pop()
            out.append((node.tree, node.anchor_index))
            stack.extend(att.child for att in node.attachments)
        return out

    def to_dict(self) -> dict:
        return {
            "tree": self.tree,
            "anchor": self.anchor_index,
            "attachments": [
                {"op": att.op, "address": list(att.address), "child": att.child.to_dict()}
                for att in self.attachments
            ],
        }


@dataclass(eq=False, repr=False)
class DerivedNode:
    """A phrase-structure node with words at the leaves.

    The one tree type of the toolkit: ``derive`` builds derived trees from
    it, and ``parseval.read_bracketed`` and ``parseval.flatten`` build gold
    and flattened trees.  ``assign_spans`` fills in each node's word span
    ``[start, end)`` and its ``parent``.
    """

    label: str
    children: list = field(default_factory=list)  # DerivedNode | str
    features: dict = field(default_factory=dict)
    start: int = -1
    end: int = -1
    parent: "DerivedNode | None" = None

    def __repr__(self):
        return f"<DerivedNode {self.label} [{self.start},{self.end})>"

    def walk(self):
        yield self
        for child in self.children:
            if isinstance(child, DerivedNode):
                yield from child.walk()

    def leaves(self) -> list[str]:
        out = []
        for child in self.children:
            if isinstance(child, DerivedNode):
                out.extend(child.leaves())
            else:
                out.append(child)
        return out

    def to_string(self) -> str:
        parts = [c.to_string() if isinstance(c, DerivedNode) else c for c in self.children]
        return "(" + self.label + " " + " ".join(parts) + ")"


@dataclass(eq=False)
class AdjunctionRecord:
    """Provenance of one adjunction in a derived tree, for the ranking heuristics."""

    root_node: DerivedNode   # the spliced-in top half
    host_node: DerivedNode   # the original node, now under the foot position
    modifier_label: str | None
    side: str | None         # which side of the host the modifier sits on
    mod_span: tuple[int, int] | None = None


@dataclass(eq=False, repr=False)
class DerivedTree:
    root: DerivedNode
    words: list[str]
    adjunctions: list[AdjunctionRecord]

    def to_string(self) -> str:
        return self.root.to_string()


# ---------------------------------------------------------------------------
# chart items

class _Item:
    __slots__ = ("ways",)

    def __init__(self):
        self.ways = {}  # distinct ways, in first-derived order; values unused


class ParseForest:
    """Packed derivations of one sentence; immutable once parsing finishes."""

    def __init__(self, grammar, chart, goals, adjunction_cap):
        self.grammar = grammar
        self._chart = chart
        self._goals = goals
        self.adjunction_cap = adjunction_cap

    def iter_derivations(self):
        for goal in self._goals:
            yield from self._instance_derivations(goal, 0)

    def _instance_derivations(self, root_key, chain):
        # chain: adjunctions stacked along a spine down to this instance's root
        tree_name, anchor = root_key[1], root_key[2]
        spine = self.grammar.trees[tree_name].spine
        for atts in self._attachments(root_key, spine, chain):
            yield DerivationNode(tree_name, anchor, atts)

    def _attachments(self, key, spine, chain):
        # restartable recursive generators keep enumeration lazy; every
        # attachment tuple comes out in address order
        address = key[3]
        cap = self.adjunction_cap
        for way in self._chart[key].ways:
            kind = way[0]
            if kind in ("anchor", "foot"):
                yield ()
            elif kind in ("no_adjoin", "first", "complete"):
                yield from self._attachments(way[1], spine, chain)
            elif kind == "subst":
                for child in self._instance_derivations(way[1], 0):
                    yield (Attachment(child, OP_SUBSTITUTION, address),)
            elif kind == "adjoin":
                depth = chain + 1 if address in spine else 1
                if cap is not None and depth > cap:
                    continue
                aux_key, host_key = way[1], way[2]
                for host_atts in self._attachments(host_key, spine, chain):
                    for child in self._instance_derivations(aux_key, depth):
                        yield (Attachment(child, OP_ADJUNCTION, address),) + host_atts
            elif kind == "step":
                dot_key, child_key = way[1], way[2]
                for left in self._attachments(dot_key, spine, chain):
                    for right in self._attachments(child_key, spine, chain):
                        yield left + right
            else:  # pragma: no cover
                raise AssertionError(f"unknown way {kind}")

    def has_parse(self) -> bool:
        return next(self.iter_derivations(), None) is not None


def parse(grammar: Grammar, sentence, assignment, start: str = "S",
          adjunction_cap: int | None = None) -> ParseForest:
    """Parse a tagged sentence given its per-position candidate trees.

    Returns a forest packing every derivation over the candidates; an empty
    forest is a normal outcome, not an error.  ``adjunction_cap``, when set,
    bounds the number of adjunctions stacked along one spine path: the
    forest's enumeration skips every derivation deeper than that.
    """
    n = len(sentence)
    if n == 0:
        raise ValueError("cannot parse an empty sentence")
    for position, names in enumerate(assignment.candidates):
        for name in names:
            if name not in grammar.trees:
                raise DerivationError(
                    f"assignment at position {position} references unknown tree {name!r}")

    chart: dict[tuple, _Item] = {}
    agenda: deque = deque()
    goals: list[tuple] = []

    aux_roots = defaultdict(list)    # (label, fi, fj) -> root-top keys of auxiliaries
    adj_hosts = defaultdict(list)    # (label, i, j) -> bot keys at internal nodes
    child_tops = defaultdict(list)   # (tree, anchor, address, i) -> top keys
    dots_open = defaultdict(list)    # (tree, anchor, parent, done, j) -> dot keys

    subst_slots = defaultdict(list)  # category -> (tree, anchor, address)
    instances = []
    for position, names in enumerate(assignment.candidates):
        for name in names:
            instances.append((name, position))
    for name, position in instances:
        tree = grammar.trees[name]
        for address in tree.substitution_addresses:
            subst_slots[tree.node_at(address).label].append((name, position, address))

    def post(key, way):
        item = chart.get(key)
        if item is None:
            item = chart[key] = _Item()
            agenda.append(key)
        item.ways[way] = None

    # axioms: anchors scan their word; feet of auxiliaries may match any span
    # on their side of the anchor
    for name, position in instances:
        tree = grammar.trees[name]
        post(("node", name, position, tree.anchor_address, "top",
              position, position + 1, None, None), ("anchor",))
        if tree.kind == AUXILIARY:
            leaf_addresses = [a for a, _ in tree.frontier]
            foot_first = leaf_addresses.index(tree.foot_address) < leaf_addresses.index(
                tree.anchor_address)
            for i in range(n):
                for j in range(i + 1, n + 1):
                    if foot_first and j > position:
                        continue
                    if not foot_first and i < position + 1:
                        continue
                    post(("node", name, position, tree.foot_address, "top",
                          i, j, i, j), ("foot",))

    def advance_parent(key):
        # a finished node feeds its parent's dotted traversal
        _, name, position, address, _, i, j, fi, fj = key
        child_tops[(name, position, address, i)].append(key)
        parent = address[:-1]
        child_no = address[-1]
        if child_no == 1:
            post(("dot", name, position, parent, 1, i, j, fi, fj), ("first", key))
        else:
            for dot_key in dots_open[(name, position, parent, child_no - 1, i)]:
                merge_dot(dot_key, key)

    def merge_dot(dot_key, top_key):
        _, name, position, parent, done, i, _, dfi, dfj = dot_key
        _, _, _, _, _, _, j2, cfi, cfj = top_key
        if dfi is not None and cfi is not None:
            return
        fi, fj = (dfi, dfj) if dfi is not None else (cfi, cfj)
        post(("dot", name, position, parent, done + 1, i, j2, fi, fj),
             ("step", dot_key, top_key))

    def process_node(key):
        _, name, position, address, layer, i, j, fi, fj = key
        tree = grammar.trees[name]
        label = tree.node_at(address).label
        if layer == "bot":
            post(("node", name, position, address, "top", i, j, fi, fj),
                 ("no_adjoin", key))
            adj_hosts[(label, i, j)].append(key)
            for aux_key in aux_roots[(label, i, j)]:
                _, _, _, _, _, ai, aj, _, _ = aux_key
                post(("node", name, position, address, "top", ai, aj, fi, fj),
                     ("adjoin", aux_key, key))
            return
        # layer == "top"
        if address:
            advance_parent(key)
            return
        if tree.kind == INITIAL:
            for host_name, host_position, host_address in subst_slots[label]:
                post(("node", host_name, host_position, host_address, "top",
                      i, j, None, None), ("subst", key))
            if label == start and i == 0 and j == n:
                goals.append(key)
        else:
            aux_roots[(label, fi, fj)].append(key)
            for host_key in adj_hosts[(label, fi, fj)]:
                _, hname, hpos, haddr, _, _, _, hfi, hfj = host_key
                post(("node", hname, hpos, haddr, "top", i, j, hfi, hfj),
                     ("adjoin", key, host_key))

    def process_dot(key):
        _, name, position, parent, done, i, j, fi, fj = key
        tree = grammar.trees[name]
        node = tree.node_at(parent)
        if done == len(node.children):
            post(("node", name, position, parent, "bot", i, j, fi, fj),
                 ("complete", key))
            return
        dots_open[(name, position, parent, done, j)].append(key)
        for top_key in child_tops[(name, position, parent + (done + 1,), j)]:
            merge_dot(key, top_key)

    while agenda:
        key = agenda.popleft()
        if key[0] == "node":
            process_node(key)
        else:
            process_dot(key)

    return ParseForest(grammar, chart, goals, adjunction_cap)


def enumerate_derivations(forest: ParseForest, limit: int | None = None):
    """The forest's derivations in canonical order; at most ``limit`` of them.

    Repeated calls yield identical prefixes.
    """
    return list(islice(forest.iter_derivations(), limit))


# ---------------------------------------------------------------------------
# deriving phrase structure from a derivation

def _unify(target: dict, incoming: dict, where: str) -> dict:
    merged = dict(target)
    for key, value in incoming.items():
        if key in merged and merged[key] != value:
            raise FeatureConflict(
                f"feature {key!r} is {merged[key]!r} vs {value!r} at {where}")
        merged[key] = value
    return merged


def derive(grammar: Grammar, derivation: DerivationNode, words,
           check_features: bool = False) -> DerivedTree:
    """Carry out the derivation's substitutions and adjunctions bottom-up.

    ``words`` is the sentence; anchor indices index into it.  Structural
    problems (bad address, category mismatch, duplicate adjunction) raise
    DerivationError; with ``check_features`` on, clashing atomic features
    raise FeatureConflict instead (absent attributes unify with anything).
    """
    records: list[AdjunctionRecord] = []
    anchors: list[tuple[DerivedNode, int]] = []
    top, _ = _build(grammar, derivation, words, records, anchors, check_features)

    assign_spans(top, 0)
    offsets = {index - node.start for node, index in anchors}
    if len(offsets) != 1:
        raise DerivationError("anchor positions are inconsistent with the word order")
    offset = offsets.pop()
    if offset:
        for node in top.walk():
            node.start += offset
            node.end += offset
    leaves = top.leaves()
    if leaves != list(words[top.start:top.end]):
        raise DerivationError(
            f"derived yield {leaves!r} does not match words {list(words)!r}")

    for record in records:
        left = (record.root_node.start, record.host_node.start)
        right = (record.host_node.end, record.root_node.end)
        if left[0] < left[1] and right[0] < right[1]:
            record.side = None  # wrapping auxiliary; height heuristics skip it
            record.mod_span = None
        elif left[0] < left[1]:
            record.side = "left"
            record.mod_span = left
        else:
            record.side = "right"
            record.mod_span = right
    return DerivedTree(top, list(words), records)


def _build(grammar, derivation, words, records, anchors, check_features):
    tree = grammar.trees.get(derivation.tree)
    if tree is None:
        raise DerivationError(f"unknown elementary tree {derivation.tree!r}")
    if not 0 <= derivation.anchor_index < len(words):
        raise DerivationError(
            f"anchor index {derivation.anchor_index} outside the sentence")

    by_address: dict[Address, DerivedNode] = {}
    slots: dict[Address, tuple[list, int]] = {}  # (parent's children, index)

    def clone(tnode, address):
        node = DerivedNode(tnode.label, [], dict(tnode.features))
        by_address[address] = node
        if tnode.kind == ANCHOR:
            node.children = [words[derivation.anchor_index]]
            anchors.append((node, derivation.anchor_index))
        elif tnode.kind == INTERNAL:
            for index, child in enumerate(tnode.children):
                child_address = address + (index + 1,)
                node.children.append(clone(child, child_address))
                slots[child_address] = (node.children, index)
        return node

    top = clone(tree.root, ())

    seen: set[Address] = set()
    for att in derivation.attachments:
        if att.address in seen:
            raise DerivationError(
                f"two attachments at address {format_address(att.address)}"
                f" of {derivation.tree!r}")
        seen.add(att.address)
        target = by_address.get(att.address)
        if target is None:
            raise DerivationError(
                f"{derivation.tree!r} has no node at {format_address(att.address)}")
        target_kind = tree.node_at(att.address).kind
        child_tree = grammar.trees.get(att.child.tree)
        if child_tree is None:
            raise DerivationError(f"unknown elementary tree {att.child.tree!r}")

        if att.op == OP_SUBSTITUTION:
            if target_kind != SUBSTITUTION:
                raise DerivationError(
                    f"substitution at non-substitution node"
                    f" {format_address(att.address)} of {derivation.tree!r}")
            if child_tree.kind != INITIAL:
                raise DerivationError(
                    f"cannot substitute auxiliary tree {att.child.tree!r}")
            if child_tree.root.label != target.label:
                raise DerivationError(
                    f"substituting {child_tree.root.label!r} tree {att.child.tree!r}"
                    f" at {target.label!r} node of {derivation.tree!r}")
            child_top, _ = _build(grammar, att.child, words, records, anchors,
                                  check_features)
            if check_features:
                child_top.features = _unify(
                    child_top.features, target.features,
                    f"substitution at {format_address(att.address)}")
            siblings, index = slots[att.address]
            siblings[index] = child_top
        elif att.op == OP_ADJUNCTION:
            if target_kind != INTERNAL:
                raise DerivationError(
                    f"adjunction at {target_kind} node"
                    f" {format_address(att.address)} of {derivation.tree!r}")
            if child_tree.kind != AUXILIARY:
                raise DerivationError(
                    f"cannot adjoin initial tree {att.child.tree!r}")
            if child_tree.root.label != target.label:
                raise DerivationError(
                    f"adjoining {child_tree.root.label!r} tree {att.child.tree!r}"
                    f" at {target.label!r} node of {derivation.tree!r}")
            child_top, (foot_siblings, foot_index) = _build(
                grammar, att.child, words, records, anchors, check_features)
            if check_features:
                child_top.features = _unify(
                    child_top.features, target.features,
                    f"adjunction at {format_address(att.address)}")
                target.features = _unify(
                    target.features, foot_siblings[foot_index].features,
                    f"foot of {att.child.tree!r}")
            if target is top:
                top = child_top
            else:
                siblings, index = slots[att.address]
                siblings[index] = child_top
            foot_siblings[foot_index] = target
            info = child_tree.modifier_info
            records.append(AdjunctionRecord(
                child_top, target,
                info[0] if info else None, info[1] if info else None))
        else:
            raise DerivationError(f"unknown operation {att.op!r}")

    return top, slots.get(tree.foot_address)


def assign_spans(node: DerivedNode, start: int) -> int:
    """Set the span and parent of every node below ``node``, whose first word
    is word ``start``; returns the end of its span."""
    node.start = start
    position = start
    for child in node.children:
        if isinstance(child, DerivedNode):
            child.parent = node
            position = assign_spans(child, position)
        else:
            position += 1
    node.end = position
    return position

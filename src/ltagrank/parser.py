"""Chart parser for lexicalized tree adjoining grammars.

The chart is a packed forest over items keyed by

    (kind, tree name, anchor position, node address, layer, i, j, foot_i, foot_j)

A "node" item's ``layer`` is "bot" (subtree below the node recognized,
adjunction not yet considered) or "top" (adjunction at the node resolved,
possibly by not adjoining).  A "dot" item tracks the left-to-right traversal
of an internal node's children, and its ``layer`` counts the children done.
Deduction follows the standard CYK-style recognizer for this grammar class:
anchors scan their word, feet may match any span on the correct side of
their anchor, substitution consumes a finished initial tree of matching
category, and adjunction wraps a finished auxiliary tree around a "bot" item
whose span equals the auxiliary's foot span.

Each item is the tuple of its distinct ways (the deductions that posted
it) in the order they were first derived.  One function of ``parse``,
``post``, posts every derived item and so keeps its ways distinct; each
deduction rule is written once, the two-premise ones called from whichever
premise comes off the agenda second.  Enumeration unpacks them lazily
in that order, and the adjunction cap is enforced there: a way that would
stack adjunctions along a spine deeper than the cap is skipped before
anything under it is enumerated.  One enumeration builds the derivations
of each elementary-tree instance once, per instance root item and stacking
depth, and every substitution or adjunction that reaches that root replays
them through its own copy of one ``itertools.tee``: parses share
``DerivationNode``s, which are immutable tuples.  Ranking and scoring
fold the derivations alone; a parse's tree is derived, by a fold too,
when read.
A sentence's one ``Deriver`` checks and builds the subtree of each
substituted ``DerivationNode`` once, and every later parse that
substitutes it reuses it: parses share derived subtrees too, and each
anchor node, which the (tree, word) it anchors fixes.  So derived trees
are read-only (copy one with ``parseval.flatten(root, ())``), and their
nodes have no parent link.
In the same way a chart shares one item among all its anchor axioms and
one among all its foot axioms.

Conventions enforced here: every word anchors exactly one elementary tree
per derivation, at most one adjunction per node, and no adjunction at
anchor, substitution or foot nodes.
"""

from __future__ import annotations

from collections import defaultdict, deque
from dataclasses import dataclass
from itertools import islice, tee
from typing import NamedTuple

from .grammar import (ANCHOR, AUXILIARY, FOOT, INITIAL, INTERNAL, SUBSTITUTION,
                      Address, Grammar, format_address)

OP_SUBSTITUTION = "substitution"
OP_ADJUNCTION = "adjunction"

# ``_build(cls, fields)`` makes the record ``cls`` of the tuple ``fields``
# with no Python-level ``__new__`` or ``__init__``: the enumerator's one way
# to make a ``DerivationNode`` or an ``Attachment``
_build = tuple.__new__


class DerivationError(Exception):
    """A derivation violates the combination rules; the parser must not emit these."""


class FeatureConflict(Exception):
    """Feature unification failed; the derivation is rejected, not broken."""


class Attachment(NamedTuple):
    """``child`` substituted or adjoined, as ``op`` says, at ``address`` of
    its parent's tree."""

    child: DerivationNode
    op: str
    address: Address


class DerivationNode(NamedTuple):
    """One elementary tree use: which tree, anchored where, with what attached.

    ``DerivationNode`` and ``Attachment`` are immutable tuples of their
    fields, with no instance ``__dict__``: the forest makes thousands per
    sentence, and builds each with ``_build``.  So a record equals the plain
    tuple of its fields, hashes as that tuple, and can be indexed; nothing
    in the package relies on the equality or the indexing.
    """

    tree: str
    anchor_index: int
    attachments: tuple[Attachment, ...] = ()  # in address order

    def to_dict(self) -> dict:
        return {
            "tree": self.tree,
            "anchor": self.anchor_index,
            "attachments": [
                {"op": att.op, "address": list(att.address), "child": att.child.to_dict()}
                for att in self.attachments
            ],
        }


@dataclass(eq=False, repr=False, slots=True)
class DerivedNode:
    """A phrase-structure node with words at the leaves.

    The one tree type of the toolkit: ``derive`` builds derived trees from
    it, and ``parseval.read_bracketed`` and ``parseval.flatten`` gold and
    flattened trees, each node with its word span ``[start, end)`` given
    when it is built and never written again.  A node has no parent link:
    the parses of a sentence share subtrees, so a node can sit in many
    trees, and a tree is read-only.
    """

    label: str
    children: list  # DerivedNode | str
    start: int
    end: int

    def __repr__(self):
        return f"<DerivedNode {self.label} [{self.start},{self.end})>"

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


@dataclass(eq=False, repr=False, slots=True)
class DerivedTree:
    """The derived tree of ``derivation``; a ``Deriver`` makes one for a
    parse."""

    derivation: DerivationNode
    root: DerivedNode

    def to_string(self) -> str:
        return self.root.to_string()


class DerivationFold:
    """A value folded over the derived nodes of a sentence's parses, off
    their ``DerivationNode``s, without walking a derived tree.

    A derived node's span follows from the anchors: an anchor spans its
    word, a substitution slot its child's subtree, a foot its host, and an
    adjoined tree wraps its host.  ``instance`` folds one tree instance
    over its tree's nodes, children before their parent, and returns the
    value of its top, the derived node at its root's place.  The subtree of
    a substituted ``DerivationNode`` is fixed by the node, so it is folded
    once per fold and what it accumulates is added to every part that
    substitutes it: a fold serves the parses of one sentence, and each
    parse costs its own part, its root tree and what is adjoined there,
    recursively.

    A subclass defines ``make_plan(tree)``, one entry per node of
    ``tree.layout`` whose first item is the node's kind, and
    ``internal(entry, values, part)``, the value of an internal node given
    the values so far by position.  A fold that accumulates defines
    ``part()``, a new accumulation; ``summary(part, top)``, what a
    substituted node's subtree folded into ``part`` adds; and ``absorb(part,
    top, summary)``, which adds that.  ``anchor(entry, at)`` and
    ``adjoined(child, entry, host, part)``, the value of the top that the
    auxiliary ``child`` makes where it adjoins at a node whose value is
    ``host``, default to the span and to the auxiliary's fold.  The parser
    fills every substitution slot; a hand-built derivation that leaves one
    empty raises the DerivationError that ``Deriver.check`` raises, naming
    the instance's first empty slot in address order.
    """

    def __init__(self, grammar: Grammar):
        self.grammar = grammar
        self.plans = {}   # tree name -> ``make_plan``
        self.shared = {}  # substituted node id -> (node, top value, summary)

    def instance(self, node: DerivationNode, foot, part):
        """Fold the tree instance ``node`` and what is attached to it into
        ``part``; ``foot`` is the value of an auxiliary's host."""
        tree = self.grammar.trees[node.tree]
        plan = self.plans.get(node.tree)
        if plan is None:
            plan = self.plans[node.tree] = self.make_plan(tree)
        attached = {}
        for att in node.attachments:
            attached[tree.positions[att.address]] = att.child
        values = []
        for position, entry in enumerate(plan):
            kind = entry[0]
            if kind == INTERNAL:
                value = self.internal(entry, values, part)
                child = attached.get(position)
                if child is not None:
                    value = self.adjoined(child, entry, value, part)
            elif kind == ANCHOR:
                value = self.anchor(entry, node.anchor_index)
            elif kind == FOOT:
                value = foot
            else:
                try:
                    child = attached[position]
                except KeyError:
                    raise _unfilled(node, tree, {att.address for att in node.attachments}) \
                        from None
                value = self._substituted(child, part)
            values.append(value)
        return values[-1]

    def _substituted(self, child, part):
        shared = self.shared.get(id(child))
        if shared is None:
            own = self.part()
            top = self.instance(child, None, own)
            # the entry holds ``child``, so that its id is not reused
            shared = self.shared[id(child)] = (child, top, self.summary(own, top))
        self.absorb(part, shared[1], shared[2])
        return shared[1]

    def part(self):
        return None

    def summary(self, part, top):
        return None

    def absorb(self, part, top, summary):
        pass

    def anchor(self, entry, at: int):
        return (at, at + 1)

    def adjoined(self, child, entry, host, part):
        return self.instance(child, host, part)


# ---------------------------------------------------------------------------
# chart items

class _Item(tuple):
    """A chart item: the tuple of its distinct ways, in first-derived order.
    Nearly every item has one; a new way replaces the item by a longer one."""

    __slots__ = ()

    @property
    def ways(self):
        # for bench/tracing.py and the tests, until the benchmark reads a
        # stats record (ROADMAP items 2 and 3); the parser reads the item
        return self


class ParseForest:
    """Packed derivations of one sentence; immutable once parsing finishes.

    ``iter_derivations`` unpacks them in canonical order, lazily: it builds
    only what the derivations pulled so far need.  Within one call each
    sub-derivation is built once, and the parses that contain it share it;
    the sentence's one ``Deriver`` then shares their derived subtrees.
    The chart maps each key to its item, the tuple of its ways, one object
    per item.  Every anchor axiom's key maps to one item, and every foot
    axiom's key to another: no other deduction posts to such a key.
    """

    def __init__(self, grammar, chart, goals, adjunction_cap):
        self.grammar = grammar
        self._chart = chart
        self._goals = goals
        self.adjunction_cap = adjunction_cap

    def iter_derivations(self):
        # one memo per call: (instance root key, chain) -> an unread tee over
        # the instance's derivations
        memo = {}
        try:
            for goal in self._goals:
                yield from self._shared_derivations(goal, 0, memo)
        finally:
            # the generators under the memo's tees refer to the memo, a
            # cycle: clearing it lets reference counting free them all
            memo.clear()

    def _shared_derivations(self, root_key, chain, memo):
        # every way to reach an instance root reads its own copy of one tee
        # (``tee(entry, 1)[0]`` is the tee itself), so each sub-derivation is
        # built once and shared.  chain: adjunctions stacked along a spine
        # down to this root
        entry = memo.get((root_key, chain))
        if entry is None:
            tree_name, anchor = root_key[1], root_key[2]
            spine = self.grammar.trees[tree_name].spine
            build, node = _build, DerivationNode
            entry = memo[(root_key, chain)] = tee(
                (build(node, (tree_name, anchor, atts))
                 for atts in self._attachments(root_key, spine, chain, memo)), 1)[0]
        return entry.__copy__()

    def _attachments(self, key, spine, chain, memo):
        # restartable recursive generators keep enumeration lazy; every
        # attachment tuple comes out in address order
        address = key[3]
        cap = self.adjunction_cap
        build = _build
        for way in self._chart[key]:
            kind = way[0]
            if kind in ("anchor", "foot"):
                yield ()
            elif kind in ("no_adjoin", "first", "complete"):
                yield from self._attachments(way[1], spine, chain, memo)
            elif kind == "subst":
                for child in self._shared_derivations(way[1], 0, memo):
                    yield (build(Attachment, (child, OP_SUBSTITUTION, address)),)
            elif kind == "adjoin":
                depth = chain + 1 if address in spine else 1
                if cap is not None and depth > cap:
                    continue
                aux_key, host_key = way[1], way[2]
                for host_atts in self._attachments(host_key, spine, chain, memo):
                    for child in self._shared_derivations(aux_key, depth, memo):
                        yield (build(Attachment, (child, OP_ADJUNCTION, address)),) + host_atts
            elif kind == "step":
                dot_key, child_key = way[1], way[2]
                for left in self._attachments(dot_key, spine, chain, memo):
                    for right in self._attachments(child_key, spine, chain, memo):
                        yield left + right
            else:  # pragma: no cover
                raise AssertionError(f"unknown way {kind}")

    def has_parse(self) -> bool:
        return next(self.iter_derivations(), None) is not None


def _foot_words(tree, position: int, n: int) -> range:
    """The words an auxiliary's foot may span when its anchor is at
    ``position``: those on the foot's side of the anchor.  The leaves of a
    tree are in the order of their addresses."""
    if tree.foot_address < tree.anchor_address:
        return range(0, position)
    return range(position + 1, n)


def check_trees_known(grammar: Grammar, assignment) -> None:
    """Raise DerivationError if a candidate of ``assignment`` names no tree
    of ``grammar``."""
    for position, names in enumerate(assignment.candidates):
        for name in names:
            if name not in grammar.trees:
                raise DerivationError(
                    f"assignment at position {position} references unknown tree {name!r}")


def parse(grammar: Grammar, sentence, assignment, start: str = "S",
          adjunction_cap: int | None = None) -> ParseForest:
    """Parse a tagged sentence given its per-position candidate trees.

    Returns a forest packing every derivation over the candidates; an empty
    forest is a normal outcome, not an error.  ``adjunction_cap``, when set,
    bounds the number of adjunctions stacked along one spine path: the
    forest's enumeration skips every derivation deeper than that.  An
    axiom's item holds only its axiom's way, so all the anchor axioms of
    the forest share one item, and all the foot axioms another.

    A sentence with a dead position gets an empty chart, with no deduction
    run.  A position is dead when it has no candidate, or when each of its
    candidates is an auxiliary tree with no word on its foot's side.  That
    is exact: every derivation anchors one tree at every word, and a foot
    spans at least one word, so no derivation exists either way.
    """
    n = len(sentence)
    if n == 0:
        raise ValueError("cannot parse an empty sentence")
    check_trees_known(grammar, assignment)
    trees = grammar.trees

    if any(not any(trees[name].kind == INITIAL or _foot_words(trees[name], position, n)
                   for name in names)
           for position, names in enumerate(assignment.candidates)):
        return ParseForest(grammar, {}, [], adjunction_cap)

    chart: dict[tuple, _Item] = {}
    agenda: deque = deque()
    goals: list[tuple] = []
    aux_roots = defaultdict(list)    # (label, fi, fj) -> root-top keys of auxiliaries
    adj_hosts = defaultdict(list)    # (label, i, j) -> bot keys at internal nodes
    child_tops = defaultdict(list)   # (tree, anchor, address, i) -> top keys
    dots_open = defaultdict(list)    # (tree, anchor, parent, done, j) -> dot keys
    subst_slots = defaultdict(list)  # category -> (tree, anchor, address)
    shapes = {}                      # tree -> its (label, child count) per address
    initial = set()                  # the initial trees among the candidates
    instances = [(name, position) for position, names in enumerate(assignment.candidates)
                 for name in names]
    for name, position in instances:
        tree = trees[name]
        shapes[name] = tree.shapes
        if tree.kind == INITIAL:
            initial.add(name)
        for address in tree.substitution_addresses:
            subst_slots[tree.shapes[address][0]].append((name, position, address))

    def post_axiom(key, item):
        if key not in chart:
            chart[key] = item
            agenda.append(key)

    # axioms: anchors scan their word; feet of auxiliaries may match any span
    # on their side of the anchor.  Only axioms post at anchor and foot
    # nodes, so their items are shared
    anchor_item, foot_item = _Item((("anchor",),)), _Item((("foot",),))
    for name, position in instances:
        tree = trees[name]
        post_axiom(("node", name, position, tree.anchor_address, "top",
                    position, position + 1, None, None), anchor_item)
        if tree.kind == AUXILIARY:
            words = _foot_words(tree, position, n)
            for i in words:
                for j in range(i + 1, words.stop + 1):
                    post_axiom(("node", name, position, tree.foot_address, "top",
                                i, j, i, j), foot_item)

    # the deduction loop.  A key is ("node", tree, anchor, address, layer, i,
    # j, foot_i, foot_j) or ("dot", tree, anchor, parent, children done, i, j,
    # foot_i, foot_j), and a node's label and child count come from its
    # tree's shape table.  ``step`` and ``adjoin`` each state a two-premise
    # rule once, called for whichever premise comes off the agenda second
    get, append = chart.get, agenda.append

    def post(key, way):
        # the one insert-or-add: an item keeps its ways distinct, in the
        # order they were first derived
        item = get(key)
        if item is None:
            chart[key] = _Item((way,))
            append(key)
        elif way not in item:
            chart[key] = _Item(item + (way,))

    def step(dot_key, top_key):
        # a dotted traversal moves over its finished next child.  An item
        # carries only its own tree's foot span, and a tree has one foot
        foot = top_key if dot_key[7] is None else dot_key
        post(("dot", dot_key[1], dot_key[2], dot_key[3], dot_key[4] + 1, dot_key[5],
              top_key[6], foot[7], foot[8]), ("step", dot_key, top_key))

    def adjoin(aux_key, host_key):
        # a finished auxiliary wraps the "bot" item whose span is its foot's
        post(("node", host_key[1], host_key[2], host_key[3], "top", aux_key[5],
              aux_key[6], host_key[7], host_key[8]), ("adjoin", aux_key, host_key))

    while agenda:
        key = agenda.popleft()
        kind, name, position, address, layer, i, j, fi, fj = key
        if kind == "dot":
            # a dotted traversal of ``address``'s children, ``layer`` done
            if layer == shapes[name][address][1]:
                post(("node", name, position, address, "bot", i, j, fi, fj),
                     ("complete", key))
                continue
            dots_open[(name, position, address, layer, j)].append(key)
            for top_key in child_tops.get((name, position, address + (layer + 1,), j), ()):
                step(key, top_key)
        elif layer == "bot":
            label = shapes[name][address][0]
            post(("node", name, position, address, "top", i, j, fi, fj), ("no_adjoin", key))
            adj_hosts[(label, i, j)].append(key)
            for aux_key in aux_roots.get((label, i, j), ()):
                adjoin(aux_key, key)
        elif address:
            # a finished node feeds its parent's dotted traversal
            child_tops[(name, position, address, i)].append(key)
            parent, child_no = address[:-1], address[-1]
            if child_no == 1:
                post(("dot", name, position, parent, 1, i, j, fi, fj), ("first", key))
                continue
            for dot_key in dots_open.get((name, position, parent, child_no - 1, i), ()):
                step(dot_key, key)
        elif name in initial:
            label = shapes[name][()][0]
            way = ("subst", key)
            for host_name, host_position, host_address in subst_slots.get(label, ()):
                post(("node", host_name, host_position, host_address, "top", i, j, None, None),
                     way)
            if label == start and i == 0 and j == n:
                goals.append(key)
        else:
            label = shapes[name][()][0]
            aux_roots[(label, fi, fj)].append(key)
            for host_key in adj_hosts.get((label, fi, fj), ()):
                adjoin(key, host_key)

    return ParseForest(grammar, chart, goals, adjunction_cap)


def enumerate_derivations(forest: ParseForest, limit: int | None = None):
    """The forest's derivations in canonical order; at most ``limit`` of them.

    Repeated calls yield identical prefixes.
    """
    return list(islice(forest.iter_derivations(), limit))


# ---------------------------------------------------------------------------
# deriving phrase structure from a derivation

def _unify(target: tuple, incoming: tuple, op: str, at) -> tuple:
    # a node's pairs may repeat an attribute, whose last pair counts.  ``op``
    # and ``at`` name the site, formatted only for the message: an operation
    # and its address, or FOOT and the auxiliary's name
    merged = dict(target)
    for key, value in dict(incoming).items():
        if key in merged and merged[key] != value:
            where = f"foot of {at!r}" if op == FOOT else f"{op} at {format_address(at)}"
            raise FeatureConflict(
                f"feature {key!r} is {merged[key]!r} vs {value!r} at {where}")
        merged[key] = value
    return tuple(merged.items())


_OUT_OF_ORDER = "anchor positions are inconsistent with the word order"


def _unfilled(derivation: DerivationNode, tree, filled) -> DerivationError | None:
    """The error for the first substitution slot of ``derivation``'s tree,
    in address order, whose address ``filled`` lacks; None if it has all."""
    for address in tree.substitution_addresses:
        if address not in filled:
            return DerivationError(f"substitution slot {format_address(address)}"
                                   f" of {derivation.tree!r} is unfilled")
    return None


def derive(grammar: Grammar, derivation: DerivationNode, words,
           check_features: bool = False) -> DerivedTree:
    """The derived tree of ``derivation`` over the sentence ``words``, by a
    ``Deriver`` of its own: ``Deriver.derive`` says what it raises."""
    return Deriver(grammar, words, check_features).derive(derivation)


class Deriver(DerivationFold):
    """The derived trees of the parses of one sentence, ``words``, under
    one ``check_features`` setting, sharing their subtrees and checks;
    ``analyze_sentence`` makes one per sentence.  No memo refers to a
    reader of its trees, so none forms a reference cycle with one.

    An anchor node is fixed by its (tree name, anchor index), its key in
    ``anchors``.  A substituted node's subtree is fixed by the node: its
    anchors fix its words, and every adjunction into it is inside it.  So
    ``checked`` maps each substituted node, by identity, to (node, its
    top's features), and ``shared`` to (node, its built top, None), as in
    every fold: a parse costs its own part, its root tree and what is
    adjoined there, recursively.  Each derived node is built with its span
    and never written again: a derivation must fill every substitution
    slot, and siblings must abut.
    """

    def __init__(self, grammar: Grammar, words, check_features: bool = False):
        super().__init__(grammar)
        self.words, self.check_features = words, check_features
        self.anchors = {}  # (tree name, anchor index) -> its anchor node
        self.checked = {}  # substituted node id -> (node, its top's features)

    def derive(self, derivation: DerivationNode) -> DerivedTree:
        """The tree of ``derivation``, built bottom-up.  A structural
        problem (bad address, category mismatch, duplicate adjunction, an
        unfilled substitution slot, an anchor off its word) raises
        DerivationError; under ``check_features`` clashing atomic features
        raise FeatureConflict (absent attributes unify with anything).  The
        tree is read-only: ``parseval.flatten(root, ())`` copies it."""
        self.check(derivation)
        root = self.instance(derivation, None, None)
        if root.start != 0:
            raise DerivationError(_OUT_OF_ORDER)
        if root.end != len(self.words):
            raise DerivationError(
                f"derived yield {root.leaves()!r} does not match words {list(self.words)!r}")
        return DerivedTree(derivation, root)

    def check(self, derivation: DerivationNode) -> tuple:
        """Raise what ``derive`` raises for ``derivation`` but the
        word-order errors, walking its attachments in address order, then
        its substitution slots left unfilled; return its top's features,
        merged only under ``check_features``.  No tree is built, and a
        substituted node is checked once."""
        grammar, check_features = self.grammar, self.check_features
        tree = grammar.trees.get(derivation.tree)
        if tree is None:
            raise DerivationError(f"unknown elementary tree {derivation.tree!r}")
        if not 0 <= derivation.anchor_index < len(self.words):
            raise DerivationError(
                f"anchor index {derivation.anchor_index} outside the sentence")
        top = tree.root.features
        seen: set[Address] = set()
        for att in derivation.attachments:
            address = att.address
            if address in seen:
                raise DerivationError(f"two attachments at address {format_address(address)}"
                                      f" of {derivation.tree!r}")
            seen.add(address)
            if address not in tree.positions:
                raise DerivationError(
                    f"{derivation.tree!r} has no node at {format_address(address)}")
            target = tree.node_at(address)
            child_tree = grammar.trees.get(att.child.tree)
            if child_tree is None:
                raise DerivationError(f"unknown elementary tree {att.child.tree!r}")

            if att.op == OP_SUBSTITUTION:
                if target.kind != SUBSTITUTION:
                    raise DerivationError(f"substitution at non-substitution node"
                                          f" {format_address(address)} of {derivation.tree!r}")
                if child_tree.kind != INITIAL:
                    raise DerivationError(
                        f"cannot substitute auxiliary tree {att.child.tree!r}")
                if child_tree.root.label != target.label:
                    raise DerivationError(
                        f"substituting {child_tree.root.label!r} tree {att.child.tree!r}"
                        f" at {target.label!r} node of {derivation.tree!r}")
                checked = self.checked.get(id(att.child))
                if checked is None:
                    # the entry holds the node, so that its id is not reused
                    checked = self.checked[id(att.child)] = (att.child, self.check(att.child))
                if check_features:
                    _unify(checked[1], target.features, OP_SUBSTITUTION, address)
            elif att.op == OP_ADJUNCTION:
                if target.kind != INTERNAL:
                    raise DerivationError(f"adjunction at {target.kind} node"
                                          f" {format_address(address)} of {derivation.tree!r}")
                if child_tree.kind != AUXILIARY:
                    raise DerivationError(f"cannot adjoin initial tree {att.child.tree!r}")
                if child_tree.root.label != target.label:
                    raise DerivationError(
                        f"adjoining {child_tree.root.label!r} tree {att.child.tree!r}"
                        f" at {target.label!r} node of {derivation.tree!r}")
                child_top = self.check(att.child)
                if check_features:
                    merged = _unify(child_top, target.features, OP_ADJUNCTION, address)
                    _unify(target.features,
                           child_tree.node_at(child_tree.foot_address).features,
                           FOOT, att.child.tree)
                    if not address:
                        top = merged
            else:
                raise DerivationError(f"unknown operation {att.op!r}")
        unfilled = _unfilled(derivation, tree, seen)
        if unfilled is not None:
            raise unfilled
        return top

    def make_plan(self, tree):
        """(kind, positions of its children, label, tree name) per node."""
        return tuple((kind, children, label, tree.name) for label, kind, children in tree.layout)

    def anchor(self, entry, at):
        key = (entry[3], at)
        node = self.anchors.get(key)
        if node is None:
            node = self.anchors[key] = DerivedNode(entry[2], [self.words[at]], at, at + 1)
        return node

    def internal(self, entry, values, part):
        children = [values[position] for position in entry[1]]
        start = end = children[0].start
        for child in children:
            if child.start != end:
                raise DerivationError(_OUT_OF_ORDER)
            end = child.end
        return DerivedNode(entry[2], children, start, end)

"""Lexicalized tree grammars: elementary trees, tree families, lexicon, frequencies.

Grammar files are plain text, one declaration per line:

    tree NAME : initial (S NP^ (VP V@ NP^))
    tree NAME : auxiliary (VP VP* (PP P@ NP^))
    family NAME = tree, tree, ...
    lex WORD POS -> name, name, ...

In tree expressions a parenthesised form is an internal node; leaves must
carry a marker: ``label@`` is the anchor, ``label^`` a substitution slot and
``label*`` the foot of an auxiliary tree.  Any node may carry a flat feature
map written ``label[attr=val,attr=val]`` (after the marker, for leaves).
Blank lines and ``#`` comments are ignored.

``read_tree`` reads bracket notation, for tree lines here and treebank lines
in ``parseval``; each caller adds its own rules on labels and leaves.

Tree unigram frequencies live in a separate two-column file with lines of
the form ``tree_name<TAB>probability``.

``TreeNode``, ``ElementaryTree``, ``FrequencyTable`` and ``Grammar`` check
themselves when built, whether by ``loads`` or directly, and raise
GrammarValidationError.  The readers only read: where a file error needs
its line or its token, the reader words a rule through the helper the
type checks it by.

Node addresses are Gorn addresses: the root is the empty tuple and the k-th
child of the node at ``a`` is ``a + (k,)``, counting children from 1.
"""

from __future__ import annotations

import errno
import re
from contextlib import contextmanager
from collections.abc import Mapping
from dataclasses import dataclass, field, replace
from functools import cached_property
from types import MappingProxyType

INITIAL = "initial"
AUXILIARY = "auxiliary"
TREE_KINDS = (INITIAL, AUXILIARY)

INTERNAL = "internal"
ANCHOR = "anchor"
SUBSTITUTION = "substitution"
FOOT = "foot"
NODE_KINDS = (INTERNAL, ANCHOR, SUBSTITUTION, FOOT)

_MARKER_KIND = {"@": ANCHOR, "^": SUBSTITUTION, "*": FOOT}

Address = tuple[int, ...]


def format_address(address: Address) -> str:
    """Dotted rendering of a Gorn address; the root prints as 'e'."""
    return ".".join(str(k) for k in address) if address else "e"


class GrammarError(Exception):
    """Base class for grammar loading and validation problems."""


class GrammarFormatError(GrammarError):
    """Malformed grammar or frequency file; carries the offending position."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        self.line = line
        self.column = column
        where = ""
        if line is not None:
            where = f" (line {line}" + (f", column {column}" if column is not None else "") + ")"
        super().__init__(message + where)


class BracketFormatError(ValueError):
    """Malformed bracket notation.  ``position`` is the offset of the
    offending token, or of the '(' of an unclosed, unlabeled or empty node;
    ``label_position`` is that of the latter two's label slot, if any."""

    def __init__(self, reason, position, label_position=None):
        self.reason = reason
        self.position = position
        self.label_position = position if label_position is None else label_position
        super().__init__(f"{reason} (at character {position})")


class GrammarValidationError(GrammarError):
    """One or more structural invariants failed; all issues are collected."""

    def __init__(self, issues):
        self.issues = list(issues)
        super().__init__("; ".join(self.issues))


@dataclass(frozen=True)
class TreeNode:
    """A node of an elementary tree.

    Internal nodes have at least one child; anchor, substitution and foot
    nodes are childless.  Features are a flat attribute -> atomic value map,
    stored as a sorted tuple of pairs so nodes stay hashable.  A kind not
    in ``NODE_KINDS``, or children where the kind allows none or none
    where it needs some, raises GrammarValidationError.
    """

    label: str
    kind: str = INTERNAL
    children: tuple["TreeNode", ...] = ()
    features: tuple[tuple[str, str], ...] = ()

    def __post_init__(self):
        if self.kind not in NODE_KINDS:
            raise GrammarValidationError([f"node {self.label!r} has unknown kind {self.kind!r}"])
        if _is_leaf(self.kind) == bool(self.children):
            raise GrammarValidationError([
                f"{self.kind} node {self.label!r} cannot have children" if self.children
                else f"internal node {self.label!r} must have children"])


def _is_leaf(kind: str) -> bool:
    """Whether a node of ``kind`` is a leaf, which has no children: every
    kind but INTERNAL is.  ``TreeNode`` checks its children by it, and the
    tree-line reader its markers, where the message needs the token."""
    return kind != INTERNAL


@dataclass(frozen=True)
class ElementaryTree:
    """An initial or auxiliary tree, lexicalized by exactly one anchor node.

    Built as ``ElementaryTree(name, kind, root)``, where ``kind`` is
    INITIAL or AUXILIARY; the shape of ``root`` is checked then, and a bad
    one raises GrammarValidationError.  ``anchor_pos``, ``anchor_address``
    and ``foot_address`` are derived from ``root`` at construction.  The
    tables below are computed on first read and read-only after.
    """

    name: str
    kind: str
    root: TreeNode
    anchor_pos: str = field(init=False)
    anchor_address: Address = field(init=False)
    foot_address: Address | None = field(init=False)

    def __post_init__(self):
        name, kind, root = self.name, self.kind, self.root
        issues = []
        anchors = []
        feet = []
        for address, node in _walk(root):
            if node.kind == ANCHOR:
                anchors.append((address, node))
            elif node.kind == FOOT:
                feet.append((address, node))
        if kind not in TREE_KINDS:
            issues.append(f"tree {name!r} has unknown kind {kind!r}")
        if len(anchors) != 1:
            issues.append(f"tree {name!r} must have exactly one anchor, found {len(anchors)}")
        if kind == AUXILIARY:
            if len(feet) != 1:
                issues.append(f"auxiliary tree {name!r} must have exactly one foot, found {len(feet)}")
            elif feet[0][1].label != root.label:
                issues.append(
                    f"auxiliary tree {name!r} has foot label {feet[0][1].label!r}"
                    f" but root label {root.label!r}"
                )
        elif feet:
            issues.append(f"initial tree {name!r} may not contain foot nodes")
        if issues:
            raise GrammarValidationError(issues)
        anchor_address, anchor_node = anchors[0]
        object.__setattr__(self, "anchor_pos", anchor_node.label)
        object.__setattr__(self, "anchor_address", anchor_address)
        object.__setattr__(self, "foot_address", feet[0][0] if feet else None)

    def node_at(self, address: Address) -> TreeNode:
        node = self.root
        for k in address:
            node = node.children[k - 1]
        return node

    @cached_property
    def substitution_addresses(self) -> tuple[Address, ...]:
        """Substitution leaves' addresses, in left-to-right order."""
        return tuple(a for a, n in _walk(self.root) if n.kind == SUBSTITUTION)

    @cached_property
    def spine(self) -> frozenset[Address]:
        """Addresses on the root-to-foot path (empty for initial trees)."""
        if self.foot_address is None:
            return frozenset()
        return frozenset(self.foot_address[:i] for i in range(len(self.foot_address) + 1))

    @cached_property
    def shapes(self) -> Mapping[Address, tuple[str, int]]:
        """Node address -> (label, child count), for every node."""
        return MappingProxyType({a: (n.label, len(n.children)) for a, n in _walk(self.root)})

    @cached_property
    def layout(self) -> tuple[tuple[str, str, tuple[int, ...]], ...]:
        """Every node as (label, kind, positions of its children in order),
        each node after all of its descendants, so the root comes last.
        ``positions`` maps each address to its node's position."""
        positions = self.positions
        return tuple((node.label, node.kind,
                      tuple(positions[address + (k,)]
                            for k in range(1, len(node.children) + 1)))
                     for address, node in reversed(list(_walk(self.root))))

    @cached_property
    def positions(self) -> Mapping[Address, int]:
        """Node address -> its position in ``layout``: reversed pre-order."""
        addresses = [address for address, _ in _walk(self.root)]
        return MappingProxyType({address: position
                                 for position, address in enumerate(reversed(addresses))})

    @cached_property
    def modifier_label(self) -> str | None:
        """Label of an auxiliary tree's modifier material: the highest node
        off the spine on the anchor's path.  None for initial trees."""
        if self.foot_address is None:
            return None
        # the anchor is a leaf other than the foot, so its path leaves the spine
        depth = next(i for i in range(1, len(self.anchor_address) + 1)
                     if self.anchor_address[:i] not in self.spine)
        return self.node_at(self.anchor_address[:depth]).label


def _walk(root: TreeNode):
    """(address, node) of every node below ``root``, in pre-order.  It
    keeps a stack of its own, so a tree may nest deeper than Python's
    recursion limit."""
    stack = [((), root)]
    while stack:
        address, node = stack.pop()
        yield address, node
        for k in range(len(node.children), 0, -1):
            stack.append((address + (k,), node.children[k - 1]))


@dataclass(frozen=True)
class TreeFamily:
    name: str
    members: tuple[str, ...]


@dataclass(frozen=True)
class LexEntry:
    lemma: str
    pos: str
    selects: tuple[str, ...]


@dataclass(frozen=True)
class FrequencyTable:
    """Tree-name -> unigram probability; absent trees count as probability 0.
    ``entries`` is a read-only copy of the mapping given.  A value that is
    no number in [0, 1] (NaN and the infinities included) raises
    GrammarValidationError, which names each such tree."""

    entries: Mapping[str, float] = field(default_factory=dict)

    def __post_init__(self):
        entries = MappingProxyType(dict(self.entries))
        issues = []
        for name, prob in entries.items():
            issue = _probability_issue(prob)
            if issue is not None:
                issues.append(f"tree {name!r}: {issue}")
        if issues:
            raise GrammarValidationError(issues)
        object.__setattr__(self, "entries", entries)

    def probability(self, tree_name: str) -> float:
        return self.entries.get(tree_name, 0.0)


@dataclass(frozen=True)
class Grammar:
    """Trees, families, lexicon and tree frequencies.

    Valid once built, by ``loads`` or directly, and read-only after: each
    mapping is a read-only copy of the one given, and a family member or a
    lexicon entry's selection that names no tree (or, for the lexicon, no
    family) raises GrammarValidationError, with the text ``loads`` gives.
    So any number of sentences may be analyzed with one grammar, one after
    another: the toolkit runs one thread (see ``pipeline.analyze_sentence``).
    """

    trees: Mapping[str, ElementaryTree]
    families: Mapping[str, TreeFamily]
    lexicon: Mapping[tuple[str, str], LexEntry]
    freq: FrequencyTable = field(default_factory=FrequencyTable)

    def __post_init__(self):
        for name in ("trees", "families", "lexicon"):
            object.__setattr__(self, name, MappingProxyType(dict(getattr(self, name))))
        issues = []
        for family in self.families.values():
            for member in family.members:
                if member not in self.trees:
                    issues.append(f"family {family.name!r} references unknown tree {member!r}")
        for (word, pos), entry in self.lexicon.items():
            for name in entry.selects:
                if name not in self.trees and name not in self.families:
                    issues.append(
                        f"lexicon entry {word}/{pos} references unknown tree or family {name!r}")
        if issues:
            raise GrammarValidationError(issues)

    def trees_for_word(self, word: str, pos: str) -> set[str]:
        """All tree names the lexicon selects for (word, pos), families expanded.

        Unknown (word, pos) pairs yield the empty set.
        """
        entry = self.lexicon.get((word, pos))
        if entry is None:
            return set()
        out: set[str] = set()
        for name in entry.selects:
            family = self.families.get(name)
            if family is not None:
                out.update(family.members)
            else:
                out.add(name)
        return out

    def pos_tags_for_word(self, word: str) -> set[str]:
        return {pos for (lemma, pos) in self.lexicon if lemma == word}

    def trees_with_anchor_pos(self, pos: str) -> set[str]:
        return {name for name, tree in self.trees.items() if tree.anchor_pos == pos}


# ---------------------------------------------------------------------------
# file format

_TREE_LINE = re.compile(r"^tree\s+(\S+)\s*:\s*(\S+)\s+(.*)$")
_FAMILY_LINE = re.compile(r"^family\s+(\S+)\s*=\s*(.*)$")
_LEX_LINE = re.compile(r"^lex\s+(\S+)\s+(\S+)\s*->\s*(.*)$")
_TOKEN = re.compile(r"\(|\)|[^\s()]+")
_LEAF_TOKEN = re.compile(r"^([^@^*\[\]()]+)([@^*]?)(?:\[([^\]]*)\])?$")


def _parse_features(text: str, lineno: int, column: int) -> tuple[tuple[str, str], ...]:
    if not text:
        return ()
    pairs = []
    for item in text.split(","):
        if "=" not in item:
            raise GrammarFormatError(f"bad feature {item!r}", lineno, column)
        key, value = item.split("=", 1)
        pairs.append((key.strip(), value.strip()))
    return tuple(sorted(pairs))


def _parse_token(form, starts, lineno: int, offset: int):
    """(label, kind, features) of the token of ``form``, a nested form of
    ``read_tree`` read off a tree expression at ``offset`` of line
    ``lineno``, whose tokens start at ``starts``.  Leaves, and only leaves,
    are marked (``_is_leaf``); an error names the token's column."""
    text, k, children = form
    column = offset + starts[k] + 1
    match = _LEAF_TOKEN.match(text)
    if not match:
        raise GrammarFormatError(f"bad node token {text!r}", lineno, column)
    label, marker, feats = match.groups()
    kind = _MARKER_KIND.get(marker, INTERNAL)
    features = _parse_features(feats or "", lineno, column)
    if _is_leaf(kind) != (children is None):
        raise GrammarFormatError(
            f"leaf {text!r} must be marked with one of @ ^ *" if children is None
            else f"marked node {text!r} cannot have children", lineno, column)
    return label, kind, features


def token_offsets(text: str) -> list[int]:
    """The offset in ``text`` of each token that ``read_tree`` reads."""
    return [m.start() for m in _TOKEN.finditer(text)]


def read_tree(text: str):
    """Read one tree in bracket notation, ``(label child ...)``, or a bare atom.

    Returns its nested form: an atom is ``(text, k, None)`` and a node is
    ``(label, k, children)``, where ``k`` numbers the atom or the label among
    the tokens of ``text``, at offset ``token_offsets(text)[k]``.  Offsets
    are left to callers that need them: treebank lines need none, and taking
    them adds about half to the time of reading one.
    Raises ``BracketFormatError`` for an unclosed '(', a stray ')', a '('
    without a label, a node without children, or material after the tree.
    """
    tokens = _TOKEN.findall(text)
    if not tokens:
        raise _bracket_error(text, "no tree", 0)
    form, pos = _read_form(text, tokens, 0)
    if pos < len(tokens):
        raise _bracket_error(text, "trailing material after tree", pos)
    return form


def _read_form(text, tokens, k):
    """The nested form whose first token is token ``k`` of ``text``, and the
    number of the token after it.  The nodes being read are kept on a stack
    of its own, so a tree may nest deeper than Python's recursion limit."""
    opened = []  # per node being read: the number of its '(' and its children
    pos = k
    while True:
        token = tokens[pos]
        if token == ")":
            raise _bracket_error(text, "unexpected ')'", pos)
        if token == "(":
            if pos + 1 == len(tokens) or tokens[pos + 1] in "()":
                raise _bracket_error(text, "'(' without a label", pos,
                                     pos + 1 if pos + 1 < len(tokens) else pos)
            opened.append((pos, []))
            pos += 2
        else:
            if not opened:
                return (token, pos, None), pos + 1
            opened[-1][1].append((token, pos, None))
            pos += 1
        # close the nodes that end here; the innermost one reads on otherwise
        while True:
            start, children = opened[-1]
            if pos == len(tokens):
                raise _bracket_error(text, "missing ')'", start)
            if tokens[pos] != ")":
                break
            label = tokens[start + 1]
            if not children:
                raise _bracket_error(text, f"node {label!r} has no children",
                                     start, start + 1)
            opened.pop()
            form, pos = (label, start + 1, children), pos + 1
            if not opened:
                return form, pos
            opened[-1][1].append(form)


def _bracket_error(text, reason, k, label_k=None) -> BracketFormatError:
    starts = token_offsets(text) + [len(text)]
    return BracketFormatError(reason, starts[k], starts[k if label_k is None else label_k])


def _parse_tree_expr(text: str, lineno: int, offset: int) -> TreeNode:
    try:
        form = read_tree(text)
    except BracketFormatError as exc:
        raise GrammarFormatError(exc.reason, lineno, offset + exc.label_position + 1) from None
    return _tree_node(form, token_offsets(text), lineno, offset)


def _tree_node(form, starts, lineno: int, offset: int) -> TreeNode:
    """The TreeNode of a nested form of ``read_tree`` (see
    ``_parse_token``).  Tokens are read in pre-order, so the first bad one
    on the line is the one named, and nodes are built bottom-up.  Like the
    reader it keeps a stack of its own, so a tree may nest deeper than
    Python's recursion limit."""
    # per node being built: its token's parts (None above the root), its
    # unread child forms and its children built so far
    stack = [(None, iter((form,)), [])]
    while True:
        parts, rest, children = stack[-1]
        for child in rest:
            label, kind, feats = _parse_token(child, starts, lineno, offset)
            if child[2] is None:
                children.append(TreeNode(label, kind, (), feats))
            else:
                stack.append(((label, kind, feats), iter(child[2]), []))
                break
        else:
            stack.pop()
            if parts is None:
                return children[0]
            stack[-1][2].append(TreeNode(parts[0], parts[1], tuple(children), parts[2]))


def _split_names(text: str, lineno: int) -> tuple[str, ...]:
    names = tuple(name.strip() for name in text.split(",") if name.strip())
    if not names:
        raise GrammarFormatError("empty name list", lineno)
    return names


def loads(text: str, freq_text: str | None = None) -> Grammar:
    """Parse grammar text (and optional frequency text) into a Grammar.
    Format errors raise GrammarFormatError at their line.  Otherwise every
    tree-shape issue, in line order, and then the grammar's own issues are
    raised in one GrammarValidationError, before the frequency text is read."""
    trees: dict[str, ElementaryTree] = {}
    families: dict[str, TreeFamily] = {}
    lexicon: dict[tuple[str, str], LexEntry] = {}
    issues: list[str] = []

    lines = text.splitlines()
    for lineno, line in content_lines(lines):
        if line.startswith("tree"):
            match = _TREE_LINE.match(line)
            if not match:
                raise GrammarFormatError("malformed tree line", lineno)
            name, kind, expr = match.groups()
            if kind not in TREE_KINDS:
                raise GrammarFormatError(f"unknown tree kind {kind!r}", lineno)
            if name in trees:
                raise GrammarFormatError(f"duplicate tree {name!r}", lineno)
            root = _parse_tree_expr(expr, lineno, lines[lineno - 1].index(expr))
            try:
                trees[name] = ElementaryTree(name, kind, root)
            except GrammarValidationError as exc:
                issues.extend(exc.issues)
        elif line.startswith("family"):
            match = _FAMILY_LINE.match(line)
            if not match:
                raise GrammarFormatError("malformed family line", lineno)
            name, members = match.groups()
            if name in families:
                raise GrammarFormatError(f"duplicate family {name!r}", lineno)
            families[name] = TreeFamily(name, _split_names(members, lineno))
        elif line.startswith("lex"):
            match = _LEX_LINE.match(line)
            if not match:
                raise GrammarFormatError("malformed lexicon line", lineno)
            word, pos, selects = match.groups()
            names = _split_names(selects, lineno)
            key = (word, pos)
            if key in lexicon:
                # multiple lines for one (word, pos) accumulate
                merged = lexicon[key].selects + tuple(
                    n for n in names if n not in lexicon[key].selects)
                lexicon[key] = LexEntry(word, pos, merged)
            else:
                lexicon[key] = LexEntry(word, pos, names)
        else:
            raise GrammarFormatError(f"unrecognized declaration {line.split()[0]!r}", lineno)

    try:
        grammar = Grammar(trees, families, lexicon)
    except GrammarValidationError as exc:
        issues.extend(exc.issues)
    if issues:
        raise GrammarValidationError(issues)
    if freq_text is None:
        return grammar
    return replace(grammar, freq=parse_frequencies(freq_text))


def content_lines(lines):
    """(line number, content) of each of ``lines`` that holds more than
    blanks and a comment, counting lines from 1: ``#`` starts a comment
    that runs to the end of its line, and the content is what precedes it,
    stripped.  The grammar, frequency, registry and weights readers read
    their files through it."""
    for lineno, raw in enumerate(lines, start=1):
        content = raw.split("#", 1)[0].strip()
        if content:
            yield lineno, content


@contextmanager
def open_text(path):
    """``open(path)`` for reading text, except that text which cannot be
    decoded raises an ``OSError`` that names ``path``."""
    with open(path) as handle:
        try:
            yield handle
        except UnicodeDecodeError as exc:
            raise OSError(errno.EILSEQ, str(exc), str(path)) from None


def load_grammar(path, freq_path=None) -> Grammar:
    """Load a grammar file, optionally together with its frequency table."""
    with open_text(path) as handle:
        text = handle.read()
    freq_text = None
    if freq_path is not None:
        with open_text(freq_path) as handle:
            freq_text = handle.read()
    return loads(text, freq_text)


def _probability_issue(prob) -> str | None:
    """Why ``prob`` is no probability: it is no number in [0, 1] (NaN
    compares false, and the infinities lie outside); None if it is one.
    ``FrequencyTable`` checks its entries by it, naming the tree, and
    ``parse_frequencies`` its lines, naming the line."""
    if isinstance(prob, (int, float)) and 0.0 <= prob <= 1.0:
        return None
    return f"probability {prob!r} outside [0, 1]"


def parse_frequencies(text: str) -> FrequencyTable:
    """The table of a frequency file's ``tree_name<TAB>probability`` lines;
    an error names its line."""
    entries: dict[str, float] = {}
    for lineno, line in content_lines(text.splitlines()):
        parts = line.split()
        if len(parts) != 2:
            raise GrammarFormatError("expected 'tree_name<TAB>probability'", lineno)
        name, prob_text = parts
        try:
            prob = float(prob_text)
        except ValueError:
            raise GrammarFormatError(f"bad probability {prob_text!r}", lineno)
        issue = _probability_issue(prob)
        if issue is not None:
            raise GrammarFormatError(issue, lineno)
        if name in entries:
            raise GrammarFormatError(f"duplicate frequency entry {name!r}", lineno)
        entries[name] = prob
    return FrequencyTable(entries)

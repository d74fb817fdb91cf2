"""Independent brute-force oracles the chart parser and scorer are checked against.

The derivation generator enumerates complete derivations top-down from the
grammar, with no chart, spans or packing: it picks an initial tree and a word
that selects it, fills every substitution slot, and tries every adjunction
subset, bounded by a total anchor budget.  Realization then linearizes a
derivation by directly splicing nested list structures.
"""

from collections import defaultdict

from ltagrank.grammar import ANCHOR, AUXILIARY, INITIAL, INTERNAL
from ltagrank.parser import Attachment, DerivationNode


def words_selecting(grammar):
    """tree name -> sorted list of words whose lexicon entries select it."""
    chosen = defaultdict(set)
    for (word, pos), entry in grammar.lexicon.items():
        for name in entry.selects:
            family = grammar.families.get(name)
            if family is not None:
                for member in family.members:
                    chosen[member].add(word)
            else:
                chosen[name].add(word)
    return {name: sorted(words) for name, words in chosen.items()}


def all_skeletons(grammar, start, max_anchors):
    """Every complete derivation skeleton with at most max_anchors anchors.

    A skeleton is (tree_name, word, attachments) with attachments a tuple of
    (address, op, child skeleton); returned with its anchor count.
    """
    by_kind_cat = defaultdict(list)
    for tree in grammar.trees.values():
        by_kind_cat[(tree.kind, tree.root.label)].append(tree)
    for trees in by_kind_cat.values():
        trees.sort(key=lambda t: t.name)
    lexicalizers = words_selecting(grammar)
    memo = {}

    def gen(kind, cat, budget):
        key = (kind, cat, budget)
        if key in memo:
            return memo[key]
        out = []
        if budget >= 1:
            for tree in by_kind_cat[(kind, cat)]:
                for word in lexicalizers.get(tree.name, ()):
                    for atts, count in expand(tree, budget):
                        out.append(((tree.name, word, atts), count))
        memo[key] = out
        return out

    def expand(tree, budget):
        items = [("substitution", a, tree.node_at(a).label)
                 for a in tree.substitution_addresses]
        items += [("adjunction", a, tree.node_at(a).label)
                  for a in tree.internal_addresses]

        def assign(i, left):
            if i == len(items):
                yield (), 0
                return
            op, address, label = items[i]
            if op == "substitution":
                for child, ccount in gen(INITIAL, label, left):
                    for rest, rcount in assign(i + 1, left - ccount):
                        yield ((address, op, child),) + rest, ccount + rcount
            else:
                yield from assign(i + 1, left)
                for child, ccount in gen(AUXILIARY, label, left):
                    for rest, rcount in assign(i + 1, left - ccount):
                        yield ((address, op, child),) + rest, ccount + rcount

        for atts, count in assign(0, budget - 1):
            yield atts, count + 1

    return gen(INITIAL, start, max_anchors)


class _Foot:
    __slots__ = ()


def realize(grammar, skeleton):
    """(words, DerivationNode, bracket string) for one skeleton.

    Splices nested [label, child...] lists directly, then reads anchor
    positions off the leaf order.
    """
    sid_counter = [0]

    def build(skel):
        tree_name, word, attachments = skel
        sid = sid_counter[0]
        sid_counter[0] += 1
        tree = grammar.trees[tree_name]
        cells = {}

        def clone(tnode, address):
            cell = [tnode.label]
            cells[address] = cell
            if tnode.kind == ANCHOR:
                cell.append(("w", sid, word))
            elif tnode.kind == INTERNAL:
                for k, child in enumerate(tnode.children, start=1):
                    cell.append(clone(child, address + (k,)))
            return cell

        top = clone(tree.root, ())
        foot_parent = foot_index = None
        if tree.foot_address is not None:
            foot_parent = cells[tree.foot_address[:-1]]
            foot_index = tree.foot_address[-1]
        children = []
        for address, op, child_skel in attachments:
            child_top, child_fp, child_fi, child_record = build(child_skel)
            target = cells[address]
            if op == "substitution":
                cells[address[:-1]][address[-1]] = child_top
            else:
                if address == ():
                    top = child_top
                else:
                    cells[address[:-1]][address[-1]] = child_top
                child_fp[child_fi] = target
            children.append((address, op, child_record))
        return top, foot_parent, foot_index, (sid, tree_name, tuple(children))

    top, _, _, record = build(skeleton)

    words = []
    anchor_at = {}

    def walk(cell):
        for child in cell[1:]:
            if isinstance(child, list):
                walk(child)
            else:
                _, sid, word = child
                anchor_at[sid] = len(words)
                words.append(word)

    walk(top)

    def to_derivation(rec):
        sid, tree_name, children = rec
        atts = tuple(sorted(
            (Attachment(to_derivation(child), op, address)
             for address, op, child in children),
            key=lambda a: a.address))
        return DerivationNode(tree_name, anchor_at[sid], atts)

    def to_string(cell):
        parts = []
        for child in cell[1:]:
            parts.append(to_string(child) if isinstance(child, list) else child[2])
        return "(" + cell[0] + " " + " ".join(parts) + ")"

    return words, to_derivation(record), to_string(top)


def derivation_universe(grammar, start, max_anchors):
    """yield-words -> (set of derivations, set of derived bracketings)."""
    universe = {}
    for skeleton, _ in all_skeletons(grammar, start, max_anchors):
        words, derivation, bracket = realize(grammar, skeleton)
        derivs, brackets = universe.setdefault(tuple(words), (set(), set()))
        derivs.add(derivation)
        brackets.add(bracket)
    return universe


def stack_depth(grammar, derivation, chain=0) -> int:
    """Longest chain of adjunctions stacked along one spine path, the measure
    the adjunction cap bounds.

    An adjunction at a node on the host's root-to-foot path stacks on the
    chain the host itself sits on; anywhere else it starts a chain of one.
    Substitution starts over at zero.
    """
    foot = grammar.trees[derivation.tree].foot_address
    best = chain
    for att in derivation.attachments:
        if att.op != "adjunction":
            depth = 0
        elif foot is not None and foot[:len(att.address)] == att.address:
            depth = chain + 1
        else:
            depth = 1
        best = max(best, stack_depth(grammar, att.child, depth))
    return best


def untagged_candidates(grammar, word):
    """Candidate trees for a word ignoring tags: the union over all its POS entries."""
    names = set()
    for pos in grammar.pos_tags_for_word(word):
        names |= grammar.trees_for_word(word, pos)
    return names


# ---------------------------------------------------------------------------
# crossing-bracket oracle

def random_binary_bracketing(rng, n_leaves):
    """(bracket string, span set) of a uniform-split random binary tree."""
    spans = set()

    def build(lo, hi):
        if hi - lo == 1:
            return f"w{lo}"
        spans.add((lo, hi))
        cut = rng.randint(lo + 1, hi - 1)
        return f"(X {build(lo, cut)} {build(cut, hi)})"

    text = build(0, n_leaves)
    if n_leaves == 1:
        text = f"(X {text})"
    return text, spans


def brute_force_crossing(cand_spans, gold_spans, length):
    """Count candidate spans crossing any gold span, by bare iteration over
    all pairs, after the default normalization (no labels, no single-word or
    whole-sentence spans)."""
    def norm(spans):
        return {(a, b) for (a, b) in spans if b - a > 1 and not (a == 0 and b == length)}

    cand = norm(cand_spans)
    gold = norm(gold_spans)
    total = 0
    for a, b in cand:
        crossed = False
        for c, d in gold:
            if (a < c < b < d) or (c < a < d < b):
                crossed = True
        if crossed:
            total += 1
    return total

"""Independent brute-force oracles the chart parser and scorer are checked against.

The derivation generator enumerates complete derivations top-down from the
grammar, with no chart, spans or packing: it picks an initial tree and a word
that selects it, fills every substitution slot, and tries every adjunction
subset, bounded by a total anchor budget.  Realization then linearizes a
derivation by directly splicing nested list structures.  The reference
unpacker reads a parse forest's chart the plain way, rebuilding every
sub-derivation each time a way reaches it, and fixes the canonical order.
The reference deriver builds a fresh derived tree per derivation, sharing
no node with any other tree, and checks its yield word by word.  The
reference extractor and scorer read each parse whole: every tree instance,
every adjunction record and every node.  The lower attachment height is
counted over the host's whole subtree.
The exhaustive trainer re-scores every cached candidate on every attempt.
Which candidates a top-k ranking can reach is read off the candidates
sorted by vector, not counted in candidate order.
"""

import itertools
import random
from collections import defaultdict
from dataclasses import dataclass

from ltagrank.grammar import (ANCHOR, AUXILIARY, INITIAL, INTERNAL, SUBSTITUTION,
                              format_address)
from ltagrank.heuristics import (BUILTIN_ADJUNCTIONS, BUILTIN_PP_HEIGHT,
                                 GLOBAL_STRUCTURAL, _matching_rules, _modifier_edge)
from ltagrank.parser import (OP_ADJUNCTION, OP_SUBSTITUTION, Attachment,
                             DerivationError, DerivationNode, DerivedNode,
                             FeatureConflict)
from ltagrank.parseval import aggregate_scores, brackets_of, corpus_scores, evaluate_parse
from ltagrank.training import Candidate, LogEntry, SentenceRecord, TrainState


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


def internal_addresses(node, address=()):
    """Gorn addresses of the internal nodes under ``node``, in pre-order."""
    if node.kind != INTERNAL:
        return ()
    return (address,) + tuple(a for k, child in enumerate(node.children, start=1)
                              for a in internal_addresses(child, address + (k,)))


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
                  for a in internal_addresses(tree.root)]

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


def reference_derivations(forest):
    """The forest's derivations, all of them, in canonical order.

    Unpacks the chart with nested generators that share nothing: each way
    that reaches an elementary-tree instance enumerates that instance's
    derivations again, and each adjunction is checked against the cap as
    the way is met.
    """
    chart, trees, cap = forest._chart, forest.grammar.trees, forest.adjunction_cap

    def instance(root_key, chain):
        tree_name, anchor = root_key[1], root_key[2]
        for atts in attachments(root_key, trees[tree_name].spine, chain):
            yield DerivationNode(tree_name, anchor, atts)

    def attachments(key, spine, chain):
        address = key[3]
        for way in chart[key].ways:
            kind = way[0]
            if kind in ("anchor", "foot"):
                yield ()
            elif kind in ("no_adjoin", "first", "complete"):
                yield from attachments(way[1], spine, chain)
            elif kind == "subst":
                for child in instance(way[1], 0):
                    yield (Attachment(child, OP_SUBSTITUTION, address),)
            elif kind == "adjoin":
                depth = chain + 1 if address in spine else 1
                if cap is not None and depth > cap:
                    continue
                for host_atts in attachments(way[2], spine, chain):
                    for child in instance(way[1], depth):
                        yield (Attachment(child, OP_ADJUNCTION, address),) + host_atts
            elif kind == "step":
                for left in attachments(way[1], spine, chain):
                    for right in attachments(way[2], spine, chain):
                        yield left + right
            else:
                raise AssertionError(f"unknown way {kind}")

    return [derivation for goal in forest._goals
            for derivation in instance(goal, 0)]


@dataclass(eq=False)
class AdjunctionRecord:
    """One adjunction in a reference tree: the outermost spliced-in top
    (the auxiliary's root or a tree adjoined there), the host node now
    under the foot, and the auxiliary's ``modifier_label``."""

    root_node: DerivedNode
    host_node: DerivedNode
    modifier_label: str | None


@dataclass(eq=False)
class ReferenceTree:
    """A derived tree as ``reference_derive`` builds it, with the record of
    every adjunction in it."""

    derivation: DerivationNode
    root: DerivedNode
    words: list
    records: list

    def to_string(self):
        return self.root.to_string()


class FeatureNode(DerivedNode):
    """A ``DerivedNode`` of a reference tree, with its merged features."""

    __slots__ = ("features",)


def reference_derive(grammar, derivation, words, check_features=False):
    """``parser.derive`` without shared subtrees: every call builds a whole
    new tree, writes every span, and compares the yield with ``words``.

    The same checks raise the same errors with the same messages; every
    node is a ``FeatureNode`` and keeps its merged features in a dict of
    its own.  The ``ReferenceTree`` returned records every adjunction.
    """
    records, anchors = [], []

    def unify(target, incoming, where):
        merged = dict(target)
        for key, value in incoming.items():
            if key in merged and merged[key] != value:
                raise FeatureConflict(
                    f"feature {key!r} is {merged[key]!r} vs {value!r} at {where}")
            merged[key] = value
        return merged

    def clone(tnode, address, anchor_index, by_address, slots):
        node = FeatureNode(tnode.label, [])
        node.features = dict(tnode.features)
        by_address[address] = node
        if tnode.kind == ANCHOR:
            node.children = [words[anchor_index]]
            anchors.append((node, anchor_index))
        elif tnode.kind == INTERNAL:
            for index, child in enumerate(tnode.children):
                child_address = address + (index + 1,)
                node.children.append(clone(child, child_address, anchor_index,
                                           by_address, slots))
                slots[child_address] = (node.children, index)
        return node

    def build(derivation):
        tree = grammar.trees.get(derivation.tree)
        if tree is None:
            raise DerivationError(f"unknown elementary tree {derivation.tree!r}")
        if not 0 <= derivation.anchor_index < len(words):
            raise DerivationError(
                f"anchor index {derivation.anchor_index} outside the sentence")
        by_address, slots = {}, {}
        top = clone(tree.root, (), derivation.anchor_index, by_address, slots)
        seen = set()
        for att in derivation.attachments:
            where = format_address(att.address)
            if att.address in seen:
                raise DerivationError(
                    f"two attachments at address {where} of {derivation.tree!r}")
            seen.add(att.address)
            target = by_address.get(att.address)
            if target is None:
                raise DerivationError(f"{derivation.tree!r} has no node at {where}")
            target_kind = tree.node_at(att.address).kind
            child_tree = grammar.trees.get(att.child.tree)
            if child_tree is None:
                raise DerivationError(f"unknown elementary tree {att.child.tree!r}")
            if att.op == OP_SUBSTITUTION:
                if target_kind != SUBSTITUTION:
                    raise DerivationError(f"substitution at non-substitution node"
                                          f" {where} of {derivation.tree!r}")
                if child_tree.kind != INITIAL:
                    raise DerivationError(
                        f"cannot substitute auxiliary tree {att.child.tree!r}")
                if child_tree.root.label != target.label:
                    raise DerivationError(
                        f"substituting {child_tree.root.label!r} tree {att.child.tree!r}"
                        f" at {target.label!r} node of {derivation.tree!r}")
                child_top, _ = build(att.child)
                if check_features:
                    child_top.features = unify(child_top.features, target.features,
                                               f"substitution at {where}")
                siblings, index = slots[att.address]
                siblings[index] = child_top
            elif att.op == OP_ADJUNCTION:
                if target_kind != INTERNAL:
                    raise DerivationError(f"adjunction at {target_kind} node"
                                          f" {where} of {derivation.tree!r}")
                if child_tree.kind != AUXILIARY:
                    raise DerivationError(f"cannot adjoin initial tree {att.child.tree!r}")
                if child_tree.root.label != target.label:
                    raise DerivationError(
                        f"adjoining {child_tree.root.label!r} tree {att.child.tree!r}"
                        f" at {target.label!r} node of {derivation.tree!r}")
                child_top, (foot_siblings, foot_index) = build(att.child)
                if check_features:
                    child_top.features = unify(child_top.features, target.features,
                                               f"adjunction at {where}")
                    target.features = unify(target.features,
                                            foot_siblings[foot_index].features,
                                            f"foot of {att.child.tree!r}")
                if target is top:
                    top = child_top
                else:
                    siblings, index = slots[att.address]
                    siblings[index] = child_top
                foot_siblings[foot_index] = target
                records.append(AdjunctionRecord(child_top, target,
                                                child_tree.modifier_label))
            else:
                raise DerivationError(f"unknown operation {att.op!r}")
        return top, slots.get(tree.foot_address)

    def spans(node, start):
        node.start = position = start
        for child in node.children:
            position = position + 1 if isinstance(child, str) else spans(child, position)
        node.end = position
        return position

    def yield_of(node):
        return [word for child in node.children
                for word in ([child] if isinstance(child, str) else yield_of(child))]

    top, _ = build(derivation)
    spans(top, 0)
    if any(node.start != index for node, index in anchors):
        raise DerivationError("anchor positions are inconsistent with the word order")
    leaves = yield_of(top)
    if leaves != list(words):
        raise DerivationError(
            f"derived yield {leaves!r} does not match words {list(words)!r}")
    return ReferenceTree(derivation, top, list(words), records)


def nodes(root):
    """The ``DerivedNode``s of the tree ``root``, in pre-order."""
    out, stack = [], [root]
    while stack:
        node = stack.pop()
        out.append(node)
        stack.extend([child for child in reversed(node.children)
                      if child.__class__ is not str])
    return out


def instances(derivation):
    """Every (tree name, anchor index) pair of the derivation."""
    out, stack = [], [derivation]
    while stack:
        node = stack.pop()
        out.append((node.tree, node.anchor_index))
        stack.extend(att.child for att in node.attachments)
    return out


def modifier_edge(record):
    """``heuristics._modifier_edge`` of an adjunction record."""
    root, host = record.root_node, record.host_node
    return _modifier_edge(root.start, root.end, host.start, host.end)


def reference_extract(registry, grammar, derivation, derived, rules=None):
    """``heuristics.extract`` parse by parse: every tree instance of the
    derivation and every adjunction record of ``derived``, the
    ``ReferenceTree`` that ``reference_derive`` makes of it, the lower
    height counted over the host's whole subtree and the higher one over
    the modifier's ancestors, found by identity.  ``rules``, a dict kept
    across calls with one registry and grammar, memoizes the local rules
    each (tree name, word) matches."""
    rules = {} if rules is None else rules
    local = [0] * len(registry.heuristics)
    for tree_name, anchor in instances(derivation):
        key = (tree_name, derived.words[anchor])
        if key not in rules:
            rules[key] = _matching_rules(registry, grammar, *key)
        for index in rules[key]:
            local[index] += 1
    records = derived.records
    parent = {id(child): node for node in nodes(derived.root)
              for child in node.children if not isinstance(child, str)}
    counts = []
    for index, h in enumerate(registry.heuristics):
        matching = [rec for rec in records if rec.modifier_label in h.modifier]
        if h.kind != GLOBAL_STRUCTURAL:
            value = local[index]
        elif h.builtin == BUILTIN_ADJUNCTIONS:
            value = len(records)
        elif h.builtin == BUILTIN_PP_HEIGHT:
            value = sum(reference_bypassed_lower(rec, h.sites) for rec in matching)
        else:
            value = sum(_bypassed_higher(rec, h.sites, parent) for rec in matching)
        counts.append(float(value))
    return tuple(counts)


def _bypassed_higher(record, sites, parent):
    # the modifier's ancestors labelled in ``sites`` that share its outer edge
    edge = modifier_edge(record)
    if edge is None:
        return 0
    at, count, node = getattr(record.root_node, edge), 0, record.root_node
    while id(node) in parent:
        node = parent[id(node)]
        count += node.label in sites and getattr(node, edge) == at
    return count


def reference_records(analyses, gold_trees, recall_mode, flatten_cats):
    """``cli.build_records`` parse by parse: every candidate's bracketing
    read whole with ``brackets_of`` and scored with ``evaluate_parse``.  A
    derived tree met again, in an analysis given twice, is read once."""
    records, brackets = {}, {}
    for index, (analysis, gold) in enumerate(zip(analyses, gold_trees)):
        gold_brackets = brackets_of(gold)
        candidates = []
        for rp in analysis.parses:
            if id(rp.derived) not in brackets:
                brackets[id(rp.derived)] = brackets_of(rp.derived.root, flatten_cats)
            candidates.append(Candidate(rp.vector, evaluate_parse(
                brackets[id(rp.derived)], gold_brackets, recall_mode)))
        records[index] = SentenceRecord(index, candidates)
    return records


def blank_unreachable(records_by_id, top_k):
    """``records_by_id`` with the scores of every candidate that no ranking
    by (penalty, position) can put in a top ``top_k`` set to None: sorted
    by (vector, position), the candidates of one vector follow each other
    in position order, and those after the first ``top_k`` of their run
    always have ``top_k`` candidates of an equal penalty ahead of them."""
    blanked = {}
    for sid, record in records_by_id.items():
        candidates = record.candidates
        order = sorted(range(len(candidates)),
                       key=lambda i: (candidates[i].vector, i))
        unreachable = set()
        for _, run in itertools.groupby(order, key=lambda i: candidates[i].vector):
            unreachable.update(list(run)[top_k:])
        blanked[sid] = SentenceRecord(record.sid, [
            Candidate(c.vector, None if i in unreachable else c.scores)
            for i, c in enumerate(candidates)])
    return blanked


def reference_bypassed_lower(record, sites):
    """The lower attachment height of an adjunction record by its
    definition: the nodes of the host's whole subtree, host excluded, that
    are labelled in ``sites`` and share the host's modifier-side edge."""
    edge = modifier_edge(record)
    if edge is None:
        return 0
    host = record.host_node
    at = getattr(host, edge)
    return sum(1 for node in nodes(host)
               if node is not host and node.label in sites and getattr(node, edge) == at)


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


# ---------------------------------------------------------------------------
# exhaustive trainer

def reference_evaluate(records, weights, config):
    """The corpus scores of ``records`` with every candidate scored and
    ranked by (penalty, index) at ``weights``."""
    per_sentence = []
    for record in records:
        if not record.candidates:
            per_sentence.append(None)
            continue
        penalties = [sum(v * w for v, w in zip(c.vector, weights))
                     for c in record.candidates]
        order = sorted(range(len(penalties)), key=lambda i: (penalties[i], i))
        top = [record.candidates[i].scores for i in order[:config.top_k]]
        per_sentence.append(aggregate_scores(top, config.aggregation))
    return corpus_scores(per_sentence)


def reference_train(records_by_id, spec, config, initial_weights, names,
                    resume_state=None):
    """Hill climbing that re-scores every cached candidate of a split on
    every attempt, from ``initial_weights`` or from ``resume_state``.

    Returns (log entries, best held-out weights, final state), which
    ``training.train`` must reproduce exactly.
    """
    def improved(old, new):
        if config.require_all_metrics:
            return all(getattr(new, metric) > getattr(old, metric) for metric in
                       ("zero_crossing_pct", "recall_pct", "precision_pct"))
        return new.objective() > old.objective()

    train = [records_by_id[sid] for sid in spec.train_ids]
    heldout = [records_by_id[sid] for sid in spec.heldout_ids]
    rng = random.Random(config.seed)
    if resume_state is None:
        weights = list(initial_weights)
        train_objective = reference_evaluate(train, weights, config).objective()
        heldout_last = best_heldout = \
            reference_evaluate(heldout, weights, config).objective()
        best_weights = list(weights)
        strikes = attempts = accepted = 0
    else:
        rng.setstate(resume_state.rng_state)
        weights = list(resume_state.weights)
        train_objective = resume_state.train_objective
        heldout_last = resume_state.heldout_last
        best_heldout = resume_state.best_heldout
        best_weights = list(resume_state.best_weights)
        strikes = resume_state.strikes
        attempts = resume_state.attempts
        accepted = resume_state.accepted
    train_scores = reference_evaluate(train, weights, config)
    entries = []
    while attempts < config.max_iterations and strikes < config.strike_limit:
        attempts += 1
        index = rng.randrange(len(weights))
        delta = rng.uniform(-config.delta_scale, config.delta_scale)
        trial = list(weights)
        trial[index] += delta
        scores = reference_evaluate(train, trial, config)
        heldout_objective = None
        is_better = improved(train_scores, scores)
        if is_better:
            weights, train_scores = trial, scores
            train_objective = scores.objective()
            accepted += 1
            heldout_objective = reference_evaluate(heldout, weights, config).objective()
            strikes = 0 if heldout_objective > heldout_last else strikes + 1
            if heldout_objective > best_heldout:
                best_heldout, best_weights = heldout_objective, list(weights)
            heldout_last = heldout_objective
        entries.append(LogEntry(attempts, names[index], delta, scores.objective(),
                                is_better, heldout_objective))
    state = TrainState(weights, train_objective, heldout_last, best_heldout,
                       best_weights, strikes, attempts, accepted, rng.getstate())
    return entries, list(best_weights), state

import gc
import hashlib
import itertools
import random
import types
from collections import Counter
from pathlib import Path

import pytest

import ltagrank as lt
from ltagrank import parser
from ltagrank.cli import build_records
from ltagrank.heuristics import (RankedParse, default_registry, extract, parse_registry,
                                 uniform_weights)
from ltagrank.parser import (Attachment, DerivationError, DerivationNode, DerivedNode,
                             FeatureConflict, OP_ADJUNCTION, OP_SUBSTITUTION)
from ltagrank.parseval import RECALL_MODES, evaluate_derivations
from ltagrank.training import Candidate, TrainConfig
from oracles import (blank_unreachable, derivation_universe, instances, nodes,
                     reference_derivations, reference_derive, reference_extract,
                     reference_records, stack_depth)
from toygrammars import (CLAUSE_GRAMMAR, MODIFIER_GRAMMAR, OFPP_GRAMMAR, PP_GRAMMAR,
                         parses_of, tag)

IMPERATIVE_GRAMMAR = """
tree Imperative_Intrans : initial (S (VP V@))
lex sleep V -> Imperative_Intrans
"""


def _forest(grammar, text, start="S", **kwargs):
    sentence = tag(text)
    assignment = lt.select_trees(grammar, sentence)
    return lt.parse(grammar, sentence, assignment, start=start, **kwargs)


def test_pp_ambiguity_two_derivations():
    g = lt.loads(PP_GRAMMAR)
    parses = parses_of(g, "saw/V the/D man/N with/P the/D telescope/N")
    trees = {t.to_string() for t in parses}
    assert trees == {
        "(S (VP (VP (V saw) (NP (D the) (N man)))"
        " (PP (P with) (NP (D the) (N telescope)))))",
        "(S (VP (V saw) (NP (NP (D the) (N man))"
        " (PP (P with) (NP (D the) (N telescope))))))",
    }


def test_single_word_imperative():
    g = lt.loads(IMPERATIVE_GRAMMAR)
    derivations = lt.enumerate_derivations(_forest(g, "sleep/V"))
    assert len(derivations) == 1
    assert lt.derive(g, derivations[0], ["sleep"]).to_string() == "(S (VP (V sleep)))"


def test_unparseable_gives_empty_forest():
    g = lt.loads(PP_GRAMMAR)
    forest = _forest(g, "the/D the/D")
    assert not forest.has_parse()
    assert lt.enumerate_derivations(forest) == []


def test_unknown_tree_in_assignment():
    g = lt.loads(PP_GRAMMAR)
    sentence = tag("man/N")
    assignment = lt.TreeAssignment([["No_Such_Tree"]])
    with pytest.raises(DerivationError):
        lt.parse(g, sentence, assignment)


def test_enumerate_limit_is_prefix():
    g = lt.loads(PP_GRAMMAR)
    forest = _forest(g, "saw/V the/D man/N with/P the/D telescope/N")
    full = lt.enumerate_derivations(forest)
    assert len(full) == 2
    assert lt.enumerate_derivations(forest, 1) == full[:1]
    assert lt.enumerate_derivations(forest, 0) == []
    assert lt.enumerate_derivations(forest, 100) == full


def test_enumeration_deterministic():
    g = lt.loads(MODIFIER_GRAMMAR)
    text = "big/A old/A dogs/N bark/V quickly/ADV"
    first = [t.derivation for t in parses_of(g, text)]
    second = [t.derivation for t in parses_of(g, text)]
    assert first == second
    assert len(first) == len(set(first))  # no duplicates


def test_derive_substitution_and_adjunction_examples():
    grammar = lt.loads("""
tree Noun_Phrase : initial (NP N@)
tree Indic_Intrans : initial (S NP^ (VP V@))
tree Pre_VP_Adverb : auxiliary (VP ADV@ VP*)
lex dogs N -> Noun_Phrase
lex bark V -> Indic_Intrans
lex quickly ADV -> Pre_VP_Adverb
""")
    np = DerivationNode("Noun_Phrase", 0)
    plain = DerivationNode("Indic_Intrans", 1,
                           (Attachment(np, OP_SUBSTITUTION, (1,)),))
    derived = lt.derive(grammar, plain, ["dogs", "bark"])
    assert derived.to_string() == "(S (NP (N dogs)) (VP (V bark)))"

    np2 = DerivationNode("Noun_Phrase", 0)
    adv = DerivationNode("Pre_VP_Adverb", 1)
    wrapped = DerivationNode("Indic_Intrans", 2, (
        Attachment(np2, OP_SUBSTITUTION, (1,)),
        Attachment(adv, OP_ADJUNCTION, (2,)),
    ))
    derived = lt.derive(grammar, wrapped, ["dogs", "quickly", "bark"])
    assert derived.to_string() == "(S (NP (N dogs)) (VP (ADV quickly) (VP (V bark))))"


def test_derive_identity_combination():
    g = lt.loads(IMPERATIVE_GRAMMAR)
    derived = lt.derive(g, DerivationNode("Imperative_Intrans", 0), ["sleep"])
    assert derived.to_string() == "(S (VP (V sleep)))"
    assert derived.root.leaves() == ["sleep"]


def test_derive_rejects_invalid_derivations():
    g = lt.loads(PP_GRAMMAR)
    np = DerivationNode("Noun_Phrase", 0)
    # bad address
    with pytest.raises(DerivationError):
        lt.derive(g, DerivationNode("Indic_Intrans", 1,
                                    (Attachment(np, OP_SUBSTITUTION, (9, 9)),)),
                  ["dogs", "bark"])
    # substitution at an internal node
    with pytest.raises(DerivationError):
        lt.derive(g, DerivationNode("Indic_Intrans", 1,
                                    (Attachment(np, OP_SUBSTITUTION, (2,)),)),
                  ["dogs", "bark"])
    # category mismatch: substituting an NP tree at the D slot
    with pytest.raises(DerivationError):
        lt.derive(g, DerivationNode("Noun_with_Det", 1,
                                    (Attachment(np, OP_SUBSTITUTION, (1,)),)),
                  ["man", "man"])
    # adjoining an initial tree
    with pytest.raises(DerivationError):
        lt.derive(g, DerivationNode("Indic_Intrans", 1,
                                    (Attachment(np, OP_ADJUNCTION, (2,)),)),
                  ["dogs", "bark"])
    # two attachments at one address
    pp = DerivationNode("PP_Attaches_to_NP", 1,
                        (Attachment(DerivationNode("Noun_Phrase", 2),
                                    OP_SUBSTITUTION, (2, 2)),))
    with pytest.raises(DerivationError):
        lt.derive(g, DerivationNode("Noun_Phrase", 0, (
            Attachment(pp, OP_ADJUNCTION, ()),
            Attachment(pp, OP_ADJUNCTION, ()),
        )), ["man", "with", "park"])


def test_parser_matches_oracle_on_samples():
    # spot check here; the exhaustive sweep lives in the acceptance suite
    g = lt.loads(PP_GRAMMAR)
    universe = derivation_universe(g, "S", 5)
    rng = random.Random(1)
    sample = rng.sample(sorted(universe), 25)
    for words in sample:
        derivs, brackets = universe[words]
        sentence = [lt.TaggedWord(w, tuple(sorted(g.pos_tags_for_word(w))))
                    for w in words]
        forest = lt.parse(g, sentence, lt.select_trees(g, sentence))
        got = lt.enumerate_derivations(forest)
        assert set(got) == derivs
        assert len(got) == len(derivs)
        assert {lt.derive(g, d, list(words)).to_string() for d in got} == brackets


def test_soundness_yield_and_single_adjunction_per_address():
    g = lt.loads(MODIFIER_GRAMMAR)
    for text in ["big/A dogs/N bark/V quickly/ADV",
                 "old/A big/A cats/N sleep/V",
                 "dogs/N quickly/ADV quickly/ADV bark/V"]:
        sentence = tag(text)
        words = [w.surface for w in sentence]
        forest = _forest(g, text)
        for derivation in lt.enumerate_derivations(forest):
            derived = lt.derive(g, derivation, words)
            assert derived.root.leaves() == words
            stack = [derivation]
            while stack:
                node = stack.pop()
                adjoined = [a.address for a in node.attachments
                            if a.op == OP_ADJUNCTION]
                assert len(adjoined) == len(set(adjoined))
                stack.extend(a.child for a in node.attachments)


def test_adjunction_cap():
    g = lt.loads(MODIFIER_GRAMMAR)
    text = "dogs/N quickly/ADV quickly/ADV quickly/ADV quickly/ADV bark/V"
    uncapped = lt.enumerate_derivations(_forest(g, text))
    assert len(uncapped) == 1
    assert stack_depth(g, uncapped[0]) == 4
    capped = lt.enumerate_derivations(_forest(g, text, adjunction_cap=3))
    assert capped == []
    within = _forest(g, "dogs/N quickly/ADV quickly/ADV bark/V", adjunction_cap=3)
    assert len(lt.enumerate_derivations(within)) == 1


def _in_address_order(derivation):
    stack = [derivation]
    while stack:
        node = stack.pop()
        addresses = [att.address for att in node.attachments]
        if addresses != sorted(addresses):
            return False
        stack.extend(att.child for att in node.attachments)
    return True


# an auxiliary with an internal node off its spine: adjoining there starts a
# new stack instead of growing the one the auxiliary sits on
OFF_SPINE_GRAMMAR = """
tree Noun_Phrase : initial (NP N@)
tree Indic_Intrans : initial (S NP^ (VP V@))
tree Post_VP_Adverb : auxiliary (VP VP* (ADVP ADV@))
tree Intensifier : auxiliary (ADVP DEG@ ADVP*)
lex dogs N -> Noun_Phrase
lex bark V -> Indic_Intrans
lex quickly ADV -> Post_VP_Adverb
lex very DEG -> Intensifier
"""


# (grammar, deepest stack in its universe up to 6 anchors): six anchors are
# the fewest at which cap 1 drops a PP derivation and cap 3 a modifier one
@pytest.mark.parametrize("grammar_text, deepest_stack",
                         [(MODIFIER_GRAMMAR, 4), (PP_GRAMMAR, 2),
                          (OFF_SPINE_GRAMMAR, 4)],
                         ids=["modifiers", "pp", "off_spine"])
def test_capped_enumeration_matches_oracle(grammar_text, deepest_stack):
    # the cap is enforced while enumerating: it must drop exactly the
    # derivations the oracle measures as too deep, and keep the order
    g = lt.loads(grammar_text)
    universe = derivation_universe(g, "S", 6)
    deepest = 0
    for words, (derivs, _) in universe.items():
        sentence = [lt.TaggedWord(w, tuple(sorted(g.pos_tags_for_word(w))))
                    for w in words]
        assignment = lt.select_trees(g, sentence)
        uncapped = lt.enumerate_derivations(lt.parse(g, sentence, assignment))
        assert all(_in_address_order(d) for d in uncapped)
        depths = {d: stack_depth(g, d) for d in uncapped}
        deepest = max(deepest, *depths.values())
        for cap in (1, 2, 3):
            forest = lt.parse(g, sentence, assignment, adjunction_cap=cap)
            capped = lt.enumerate_derivations(forest)
            assert capped == [d for d in uncapped if depths[d] <= cap], (words, cap)
            assert set(capped) == {d for d in derivs if stack_depth(g, d) <= cap}
            assert forest.has_parse() == bool(capped)
    assert deepest == deepest_stack


def test_feature_checking():
    grammar = lt.loads("""
tree Noun_Sg : initial (NP[num=sg] N@)
tree Noun_Pl : initial (NP[num=pl] N@)
tree Verb_Pl : initial (S NP^[num=pl] (VP V@))
lex dog N -> Noun_Sg
lex dogs N -> Noun_Pl
lex bark V -> Verb_Pl
""")
    ok = DerivationNode("Verb_Pl", 1, (
        Attachment(DerivationNode("Noun_Pl", 0), OP_SUBSTITUTION, (1,)),))
    bad = DerivationNode("Verb_Pl", 1, (
        Attachment(DerivationNode("Noun_Sg", 0), OP_SUBSTITUTION, (1,)),))
    assert lt.derive(grammar, ok, ["dogs", "bark"],
                     check_features=True).to_string() == "(S (NP (N dogs)) (VP (V bark)))"
    # without checking, the clash is ignored
    lt.derive(grammar, bad, ["dog", "bark"], check_features=False)
    with pytest.raises(FeatureConflict):
        lt.derive(grammar, bad, ["dog", "bark"], check_features=True)


ADJUNCTION_FEATURE_GRAMMAR = """
tree Noun_Phrase : initial (NP N@)
tree Verb_Intrans : initial (S[a=1] NP^ (VP V@))
tree Adverb_Top_Clash : auxiliary (S[a=2] S* ADV@)
tree Adverb_Foot_Clash : auxiliary (S S*[a=2] ADV@)
tree Adverb_Top_Foot : auxiliary (S[b=1] S*[b=2] ADV@)
"""


# the messages of the clashes at the root, where the auxiliary's features merge
ADJUNCTION_CONFLICTS = {
    "Adverb_Top_Clash": "feature 'a' is '2' vs '1' at adjunction at e",
    "Adverb_Foot_Clash": "feature 'a' is '1' vs '2' at foot of 'Adverb_Foot_Clash'",
}


@pytest.mark.parametrize("adverb, derived", [
    ("Adverb_Top_Clash", None),
    ("Adverb_Foot_Clash", None),
    # the auxiliary's top unifies with the host before the host unifies with
    # the foot; the other order would clash on b
    ("Adverb_Top_Foot", "(S (S (NP (N dogs)) (VP (V bark))) (ADV now))"),
])
def test_adjunction_feature_checking(adverb, derived):
    grammar = lt.loads(ADJUNCTION_FEATURE_GRAMMAR)
    derivation = DerivationNode("Verb_Intrans", 1, (
        Attachment(DerivationNode("Noun_Phrase", 0), OP_SUBSTITUTION, (1,)),
        Attachment(DerivationNode(adverb, 2), OP_ADJUNCTION, ()),
    ))
    words = ["dogs", "bark", "now"]
    if derived is None:
        with pytest.raises(FeatureConflict) as raised:
            lt.derive(grammar, derivation, words, check_features=True)
        assert str(raised.value) == ADJUNCTION_CONFLICTS[adverb]
    else:
        assert lt.derive(grammar, derivation, words,
                         check_features=True).to_string() == derived


def test_first_feature_clash_in_address_order_is_reported():
    # "dog" clashes with the plural subject slot at 1, and "a" with "dogs"
    # inside the object substituted at 2.2: the clash at 1 is reported
    g = lt.loads(FEATURE_GRAMMAR)
    words = ["dog", "see", "a", "dogs"]
    plural_object = DerivationNode("Noun_Pl", 3, (
        Attachment(DerivationNode("Det_Sg", 2), OP_ADJUNCTION, ()),))
    derivation = DerivationNode("Verb_Pl", 1, (
        Attachment(DerivationNode("Noun_Sg", 0), OP_SUBSTITUTION, (1,)),
        Attachment(plural_object, OP_SUBSTITUTION, (2, 2))))
    message = "feature 'num' is 'sg' vs 'pl' at substitution at 1"
    with pytest.raises(FeatureConflict) as raised:
        reference_derive(g, derivation, words, check_features=True)
    assert str(raised.value) == message
    with pytest.raises(FeatureConflict) as raised:
        lt.derive(g, derivation, words, check_features=True)
    assert str(raised.value) == message
    with pytest.raises(FeatureConflict) as raised:
        lt.derive(g, plural_object, words, check_features=True)
    assert str(raised.value) == "feature 'num' is 'sg' vs 'pl' at adjunction at e"


def test_repeated_feature_attribute_unifies_by_its_last_value():
    # the loader keeps both pairs of a repeated attribute; the last one
    # counts, as it would in a dict, so the foot unifies with a bare host
    grammar = lt.loads("""
tree Noun_Phrase : initial (NP N@)
tree Verb_Intrans : initial (S NP^ (VP V@))
tree Adj : auxiliary (NP A@ NP*[num=pl,num=sg])
""")
    noun = DerivationNode("Noun_Phrase", 1, (
        Attachment(DerivationNode("Adj", 0), OP_ADJUNCTION, ()),))
    derivation = DerivationNode("Verb_Intrans", 2, (
        Attachment(noun, OP_SUBSTITUTION, (1,)),))
    assert lt.derive(grammar, derivation, ["big", "dogs", "bark"],
                     check_features=True).to_string() == \
        "(S (NP (A big) (NP (N dogs))) (VP (V bark)))"


def test_forest_counts():
    g = lt.loads(PP_GRAMMAR)
    forest = _forest(g, "saw/V the/D man/N with/P the/D telescope/N")
    assert len(lt.enumerate_derivations(forest)) == 2
    assert len(lt.enumerate_derivations(forest, 1)) == 1
    assert forest.has_parse()


# ---------------------------------------------------------------------------
# shared unpacking: the same derivations, in the same order, built once

CAPS = (None, 1, 2, 3)


def _tagged(grammar, words):
    return [lt.TaggedWord(w, tuple(sorted(grammar.pos_tags_for_word(w))))
            for w in words]


def _ladder_words(pps):
    # "the second part is the name" and ``pps`` times "of the part": 6 + 3 * pps words
    return "the second part is the name".split() + ["of", "the", "part"] * pps


def _ladder_forest(grammar, pps, cap):
    # under the structural filter
    sentence = _tagged(grammar, _ladder_words(pps))
    assignment = lt.structural_filter(grammar, sentence,
                                      lt.select_trees(grammar, sentence))
    return lt.parse(grammar, sentence, assignment, adjunction_cap=cap)


def _axiom_items(forest):
    """The distinct items of the forest's anchor axioms and of its foot
    axioms, each checked to hold only its axiom's way."""
    found = []
    for kind in ("anchor", "foot"):
        items = {id(item): item for item in forest._chart.values() if (kind,) in item.ways}
        assert all(list(item.ways) == [(kind,)] for item in items.values())
        found.append(items)
    return found


def test_enumeration_order_matches_reference_on_universes(universes):
    # one sweep over every universe sentence, the caps taken in turn.  Each
    # forest holds one item per axiom kind too
    turn = 0
    for name in ("clauses", "pp", "modifiers"):
        grammar, _, universe = universes[name]
        for words in universe:
            cap = CAPS[turn % len(CAPS)]
            turn += 1
            sentence = _tagged(grammar, words)
            forest = lt.parse(grammar, sentence, lt.select_trees(grammar, sentence),
                              adjunction_cap=cap)
            assert lt.enumerate_derivations(forest) == reference_derivations(forest), \
                (name, words, cap)
            anchor, foot = _axiom_items(forest)
            assert len(anchor) == 1 and len(foot) <= 1, (name, words)


@pytest.mark.parametrize("cap", CAPS, ids=str)
def test_enumeration_order_matches_reference_on_ladder(cap):
    g = lt.loads(OFPP_GRAMMAR)
    for pps in range(6):
        forest = _ladder_forest(g, pps, cap)
        reference = reference_derivations(forest)
        assert lt.enumerate_derivations(forest) == reference, (pps, cap)
        for limit in (0, 1, 2, 7, len(reference) // 2, len(reference) + 1):
            assert lt.enumerate_derivations(forest, limit) == reference[:limit]
        assert forest.has_parse() == bool(reference)


@pytest.fixture
def constructions(monkeypatch):
    """Counts the records the enumerator builds from here on, by type name:
    it builds every DerivationNode and Attachment through ``parser._build``,
    which runs no ``__init__`` a subclass could count."""
    count = Counter()
    build = parser._build

    def counted(cls, fields):
        count[cls.__name__] += 1
        return build(cls, fields)

    monkeypatch.setattr(parser, "_build", counted)
    return count


def _records_held(derivations):
    """How many distinct DerivationNode and Attachment objects, by
    identity, ``derivations`` hold: each was built, so the fixture's counts
    are at least these."""
    seen, stack = {}, list(derivations)
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen[id(node)] = node
            for att in node.attachments:
                seen[id(att)] = att
                stack.append(att.child)
    return Counter(type(record).__name__ for record in seen.values())


def test_full_enumeration_builds_each_sub_derivation_once(constructions):
    # 21 words, cap 3: 1039 parses from 3,524 nodes and 4,217 attachments;
    # rebuilding every sub-derivation per way took 15,695 and 14,656
    forest = _ladder_forest(lt.loads(OFPP_GRAMMAR), 5, 3)
    derivations = lt.enumerate_derivations(forest)
    assert len(derivations) == 1039
    held = _records_held(derivations)
    assert held["DerivationNode"] <= constructions["DerivationNode"] <= 3524
    assert held["Attachment"] <= constructions["Attachment"] <= 4217


def test_first_parse_and_has_parse_stay_lazy(constructions):
    # 30 words, cap 3: the first parse needs 32 nodes and 32 attachments;
    # rebuilding every sub-derivation per way took 34 and 33.  has_parse
    # builds what the first parse does
    forest = _ladder_forest(lt.loads(OFPP_GRAMMAR), 8, 3)
    first = lt.enumerate_derivations(forest, 1)
    assert len(first) == 1
    held = _records_held(first)
    assert held["DerivationNode"] <= constructions["DerivationNode"] <= 32
    assert held["Attachment"] <= constructions["Attachment"] <= 32
    built = dict(constructions)
    constructions.clear()
    assert forest.has_parse()
    assert constructions == built


# the repr of the one derivation of "the second part is the name", as it
# was when the records were frozen dataclasses
LADDER_REPR = (
    "DerivationNode(tree='Indic_Transitive', anchor_index=3, attachments=("
    "Attachment(child=DerivationNode(tree='Noun_Phrase', anchor_index=2, attachments=("
    "Attachment(child=DerivationNode(tree='Adjective_NP', anchor_index=1, attachments=("
    "Attachment(child=DerivationNode(tree='Determiner', anchor_index=0, attachments=()),"
    " op='adjunction', address=()),)), op='adjunction', address=()),)),"
    " op='substitution', address=(1,)),"
    " Attachment(child=DerivationNode(tree='Noun_Phrase', anchor_index=5, attachments=("
    "Attachment(child=DerivationNode(tree='Determiner', anchor_index=4, attachments=()),"
    " op='adjunction', address=()),)), op='substitution', address=(2, 2))))")


def test_derivation_records_are_immutable_tuples():
    # DerivationNode, Attachment and training.Candidate refuse to set a
    # field or add an attribute; a record hashes as the tuple of its fields
    # and prints as the dataclass did.  New with the tuples: a record
    # equals the plain tuple of its fields and can be indexed
    (derivation,) = lt.enumerate_derivations(_ladder_forest(lt.loads(OFPP_GRAMMAR), 0, 3))
    attachment = derivation.attachments[0]
    candidate = Candidate((1.0, 0.0), None)
    for record in (derivation, attachment, candidate):
        with pytest.raises(AttributeError):
            setattr(record, record._fields[0], None)
        with pytest.raises(AttributeError):
            record.extra = None
    assert repr(derivation) == LADDER_REPR
    assert hash(derivation) == \
        hash((derivation.tree, derivation.anchor_index, derivation.attachments))
    assert hash(attachment) == hash((attachment.child, attachment.op, attachment.address))
    assert derivation == tuple(derivation) and derivation[0] == derivation.tree == \
        "Indic_Transitive"
    assert DerivationNode("Noun_Phrase", 0).attachments == ()


def test_derive_leaves_no_garbage_cycles_of_its_own():
    # derive's scratch state and the derived trees, with a Deriver of their
    # own or one shared by all parses, are acyclic: reference counting
    # frees them all
    g = lt.loads(PP_GRAMMAR)
    derivations = lt.enumerate_derivations(
        _forest(g, "saw/V the/D man/N with/P the/D telescope/N"))
    words = "saw the man with the telescope".split()
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    try:
        derived = lt.derive(g, derivations[0], words)
        assert not hasattr(derived.root, "parent")
        deriver = lt.Deriver(g, words)
        shared = [deriver.derive(d) for d in derivations]
        del derived, shared, deriver
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()


def test_parses_share_anchor_nodes():
    # 21 words, cap 3: every tree instance of the 1039 parses holds the one
    # anchor node of its (tree, anchor index), and the parses hold 7,753
    # distinct derived nodes; an anchor node per instance made 12,378
    g = lt.loads(OFPP_GRAMMAR)
    words = _ladder_words(5)
    derivations = lt.enumerate_derivations(_ladder_forest(g, 5, 3))
    deriver, derived = lt.Deriver(g, words), []
    for derivation in derivations:
        derived.append(deriver.derive(derivation))
        preterminals = [node for node in nodes(derived[-1].root)
                        if isinstance(node.children[0], str)]
        assert sorted(map(id, preterminals)) == \
            sorted(id(deriver.anchors[instance]) for instance in instances(derivation))
    distinct = {id(node) for tree in derived for node in nodes(tree.root)}
    assert len(derived) == 1039 and len(distinct) <= 7753


@pytest.mark.parametrize("pps, chart_items, foot_items",
                         [(2, 891, 292), (4, 2956, 1002), (5, 4661, 1591)])
def test_ladder_chart_keeps_its_items_and_shares_axiom_items(pps, chart_items, foot_items):
    # 12, 18 and 21 words: as many chart items and foot axioms as with an
    # item per key, and one item per axiom kind
    forest = _ladder_forest(lt.loads(OFPP_GRAMMAR), pps, 3)
    anchor, foot = _axiom_items(forest)
    assert len(anchor) == len(foot) == 1
    assert len(forest._chart) == chart_items
    assert sum(("foot",) in item.ways for item in forest._chart.values()) == foot_items


def _chart_digest(forests):
    """sha256 of each forest's chart keys in insertion order, each item's
    ways in order, and its goals: the order of deduction, which fixes the
    order of enumeration and so how ranking ties break."""
    digest = hashlib.sha256()
    for forest in forests:
        for key, item in forest._chart.items():
            digest.update(repr((key, list(item.ways))).encode())
        digest.update(repr(forest._goals).encode())
    return digest.hexdigest()


# recorded with the parser whose agenda loop called ``node_at`` per item;
# the 18- and 21-word ladders and the entries from "sample" on with the one
# whose agenda loop wrote each post out in place
CHART_DIGESTS = {
    12: "e371f5b252a10586355b72db4d922959bd9756ef9dd642c183d0e869399243ce",
    15: "7f85c480c62b6786887dd57cff9c33267c40c19fa01e1887c307e02ea91b19b6",
    18: "4d24d5f282d2f60fd0cfd061c103474bc830730a56ad148048d8066e0d376728",
    21: "e257b221da0956f3e4f081649a32a4ceb9dfa237c582edefa640b3d6822f170f",
    "clauses": "ea32a2eeb3cac46286a216ee1bebda28643d6cd40f103e2ed87176279bba87cb",
    "pp": "bb28aa3d44df426eb17bc00064cdaa1d8bc13b064884e39a801f4a0ef85ad577",
    "modifiers": "1e4d2ff78f190cb38e63677cfc4d98af62c43a593e06540b00a8c6e50fa9eac1",
    "sample": "86a2b0f35ae2697989a730c515f52f40257cf3c1f8c357c698778ca875df218b",
    "sample_freq": "fbf0f9df68f587c544c77d541ca74bd1a7923708893cf01b64aba13b28d9258e",
    "features": "05ccf8dbec1c8a41a27a512f920ef43a0f70ca69696c20ecea1a7e338adbbbd3",
    "off_spine": "103d871516a697901f70e9fc298374226aedb3d35be7c132c664485457df069d",
    "shapes0": "915ddf7dcb691d9d411e5f535a5cb52543137651efaded9d77422a570b258fde",
    "shapes1": "a576205e0d9c7c9002ca273fbc79b11cbe4a1dbc65a583684a7de6313aa383fe",
}

SAMPLE = Path(__file__).resolve().parent.parent / "sample"


def _every_string_forests(grammar, length):
    # every string of at most ``length`` words over the vocabulary, most of
    # them without a parse
    vocab = sorted({word for (word, _) in grammar.lexicon})
    for size in range(1, length + 1):
        for words in itertools.product(vocab, repeat=size):
            sentence = _tagged(grammar, words)
            yield lt.parse(grammar, sentence, lt.select_trees(grammar, sentence))


def test_chart_keeps_its_deduction_order(universes):
    # the ladder at 12 to 21 words; every 7th universe sentence of at most 5
    # words; the sample corpus under the structural filter, and under the
    # frequency cut to 1 too (the CLI's 3 cuts nothing there); the feature
    # sentences; and every string of at most 4 words of the off-spine and
    # shape grammars
    g = lt.loads(OFPP_GRAMMAR)
    found = {6 + 3 * pps: _chart_digest([_ladder_forest(g, pps, 3)]) for pps in (2, 3, 4, 5)}
    for name in ("clauses", "pp", "modifiers"):
        grammar, _, universe = universes[name]
        sentences = [_tagged(grammar, words)
                     for words in sorted(w for w in universe if len(w) <= 5)[::7]]
        found[name] = _chart_digest(
            lt.parse(grammar, sentence, lt.select_trees(grammar, sentence))
            for sentence in sentences)
    sample = lt.load_grammar(SAMPLE / "grammar.ltag", SAMPLE / "freq.tsv")
    sentences = lt.tagging.read_tagged_corpus(SAMPLE / "corpus.tagged")
    structural = [lt.structural_filter(sample, sentence, lt.select_trees(sample, sentence))
                  for sentence in sentences]
    found["sample"] = _chart_digest(
        lt.parse(sample, sentence, assignment)
        for sentence, assignment in zip(sentences, structural))
    found["sample_freq"] = _chart_digest(
        lt.parse(sample, sentence, lt.frequency_filter(assignment, sample.freq, 1))
        for sentence, assignment in zip(sentences, structural))
    features = lt.loads(FEATURE_GRAMMAR)
    found["features"] = _chart_digest(
        lt.parse(features, sentence, lt.select_trees(features, sentence))
        for sentence in (_tagged(features, text.split()) for text in FEATURE_SENTENCES))
    found["off_spine"] = _chart_digest(_every_string_forests(lt.loads(OFF_SPINE_GRAMMAR), 4))
    for number, text in enumerate(SHAPE_GRAMMARS):
        found[f"shapes{number}"] = _chart_digest(_every_string_forests(lt.loads(text), 4))
    assert found == CHART_DIGESTS


def test_chart_items_are_tuples_of_their_distinct_ways(universes):
    # the 12-word ladder and every universe sentence of at most 5 words:
    # each item is the tuple of its ways, and its ``ways`` is itself
    forests = [_ladder_forest(lt.loads(OFPP_GRAMMAR), 2, 3)]
    for name in ("clauses", "pp", "modifiers"):
        grammar, _, universe = universes[name]
        for words in universe:
            if len(words) <= 5:
                sentence = _tagged(grammar, words)
                forests.append(lt.parse(grammar, sentence, lt.select_trees(grammar, sentence)))
    assert len(forests) > 1000
    for forest in forests:
        anchor, foot = _axiom_items(forest)
        assert len(anchor) == 1 and len(foot) <= 1
        for item in forest._chart.values():
            assert isinstance(item, tuple) and item.ways is item
            assert len(set(item)) == len(item) > 0


@pytest.mark.parametrize("grammar_text, words", [
    (PP_GRAMMAR, "the man saw the man with the telescope".split()),
    (OFPP_GRAMMAR, _ladder_words(2)),
], ids=("pp", "ladder12"))
def test_doubled_candidates_give_the_same_chart_and_derivations(grammar_text, words):
    # a tree named twice among a position's candidates posts each of its
    # substitution ways twice: an item keeps one copy, so the chart and
    # the derivations are those of the plain assignment
    g = lt.loads(grammar_text)
    sentence = _tagged(g, words)
    assignment = lt.structural_filter(g, sentence, lt.select_trees(g, sentence))
    doubled = lt.TreeAssignment([c + c for c in assignment.candidates])
    plain, twice = (lt.parse(g, sentence, a, adjunction_cap=3) for a in (assignment, doubled))
    assert len(twice._chart) == len(plain._chart)
    assert _chart_digest([twice]) == _chart_digest([plain])
    derivations = lt.enumerate_derivations(plain)
    assert len(derivations) > 1
    assert lt.enumerate_derivations(twice) == derivations


# two grammars with the same tree names, and other labels and shapes
SHAPE_GRAMMARS = ("""
tree Noun : initial (NP N@)
tree Verb : initial (S NP^ (VP V@ NP^))
tree Mod : auxiliary (NP A@ NP*)
lex dogs N -> Noun
lex cats N -> Noun
lex see V -> Verb
lex big A -> Mod
""", """
tree Noun : initial (NP (NB N@))
tree Verb : initial (S (VP NP^ V@) NP^)
tree Mod : auxiliary (NB NB* (AP A@))
lex dogs N -> Noun
lex cats N -> Noun
lex see V -> Verb
lex big A -> Mod
""")


def test_parse_reads_the_shapes_of_the_grammar_it_is_given():
    # a parse must read nothing left from an earlier grammar, even one with
    # the same tree names whose memory, and so whose id, a later one reuses
    universes = {text: derivation_universe(lt.loads(text), "S", 4) for text in SHAPE_GRAMMARS}
    assert ("big", "dogs", "see", "cats") in universes[SHAPE_GRAMMARS[0]]
    assert ("dogs", "big", "see", "cats") in universes[SHAPE_GRAMMARS[1]]
    earlier = None
    for turn in range(4):
        for text in SHAPE_GRAMMARS:
            loaded = lt.loads(text)
            # made right after reference counting frees the earlier grammar,
            # the new grammar object likely takes its place
            del earlier
            grammar = lt.Grammar(loaded.trees, loaded.families, loaded.lexicon, loaded.freq)
            del loaded
            for words, (derivations, _) in universes[text].items():
                sentence = _tagged(grammar, words)
                forest = lt.parse(grammar, sentence, lt.select_trees(grammar, sentence))
                found = lt.enumerate_derivations(forest)
                assert found == reference_derivations(forest), (turn, words)
                assert set(found) == derivations, (turn, words)
            earlier, grammar, forest = grammar, None, None


SHAPE_REGISTRY = """\
lower global_structural builtin=pp_attachment_height modifier=A,AP sites=NP,NB,S
higher global_structural builtin=adj_attachment_height modifier=A,AP sites=NP,NB,S
"""


def test_one_registry_counts_the_shapes_of_each_grammar_it_is_given():
    # a registry memoizes its counting plans across sentences and grammars.
    # The two grammars share tree names, not shapes, so one registry that
    # ranks both in turn must count as a fresh registry per grammar does
    shared = parse_registry(SHAPE_REGISTRY)
    vectors = {}
    for _ in range(2):
        for text in SHAPE_GRAMMARS:
            grammar, fresh = lt.loads(text), parse_registry(SHAPE_REGISTRY)
            for words in derivation_universe(grammar, "S", 4):
                sentence = _tagged(grammar, words)
                forest = lt.parse(grammar, sentence, lt.select_trees(grammar, sentence))
                deriver = lt.Deriver(grammar, list(words))
                derivations = lt.enumerate_derivations(forest)
                ranked = lt.rank(deriver, derivations, shared, uniform_weights(shared))
                expected = lt.rank(deriver, derivations, fresh, uniform_weights(fresh))
                assert [rp.vector for rp in ranked] == [rp.vector for rp in expected]
                vectors.setdefault(text, set()).update(rp.vector for rp in ranked)
    # each grammar's shapes give counts of their own
    assert vectors[SHAPE_GRAMMARS[0]] != vectors[SHAPE_GRAMMARS[1]]
    assert all(any(vector[:2] != (0.0, 0.0) for vector in found)
               for found in vectors.values())


def _parser_generators():
    return [o for o in gc.get_objects() if isinstance(o, types.GeneratorType)
            and o.gi_code.co_filename == parser.__file__]


def test_stopped_enumeration_leaves_no_generators_to_collect():
    # a stopped enumeration leaves suspended generators in its memo, which
    # refer back to the memo; reference counting must still free them
    forest = _ladder_forest(lt.loads(OFPP_GRAMMAR), 4, 3)
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    try:
        assert forest.has_parse()
        assert len(lt.enumerate_derivations(forest, 5)) == 5
        assert _parser_generators() == []
    finally:
        if enabled:
            gc.enable()


# ---------------------------------------------------------------------------
# shared derived subtrees: the same trees as the unshared reference deriver

FEATURE_GRAMMAR = """
tree Noun : initial (NP N@)
tree Noun_Sg : initial (NP[num=sg] N@)
tree Noun_Pl : initial (NP[num=pl] N@)
tree Det_Sg : auxiliary (NP[num=sg] D@ NP*)
tree Verb_Sg : initial (S NP^[num=sg] (VP V@ NP^))
tree Verb_Pl : initial (S NP^[num=pl] (VP V@ NP^))
tree PP_Attaches_to_NP : auxiliary (NP NP* (PP P@ NP^))
tree PP_Attaches_to_VP : auxiliary (VP VP* (PP P@ NP^))
lex sheep N -> Noun
lex dog N -> Noun_Sg
lex dogs N -> Noun_Pl
lex a D -> Det_Sg
lex see V -> Verb_Sg, Verb_Pl
lex with P -> PP_Attaches_to_NP, PP_Attaches_to_VP
"""

FEATURE_SENTENCES = ["sheep see sheep", "sheep see a dog with dogs",
                     "a sheep see dogs with a sheep with sheep",
                     "a dogs see sheep with a dog", "dogs see a sheep with dogs"]

REGISTRY = default_registry()
SETTINGS = [(cap, check_features) for cap in (None, 3) for check_features in (False, True)]
SCORINGS = [(flatten, mode) for flatten in (frozenset(), frozenset({"NP", "VP"}))
            for mode in RECALL_MODES]


def _facts(derived):
    """What a derived tree shows: its bracketing and every node's label and
    span in pre-order."""
    return (derived.to_string(),
            [(node.label, node.start, node.end) for node in nodes(derived.root)])


def _every_label_registry(grammar):
    """Both attachment heights, with every label of ``grammar`` a modifier
    and a site, after local rules that the grammar's anchorings match: a
    tree-type rule per two-letter prefix of a tree name, one that lists
    every other tree, and per POS a lexical rule for its first word,
    upper-cased, that disprefers the POS."""
    labels = ",".join(sorted(set().union(*(_labels(tree.root)
                                           for tree in grammar.trees.values()))))
    names = sorted(grammar.trees)
    lines = [f"prefix_{k} local_tree_type prefix={prefix}"
             for k, prefix in enumerate(sorted({name[:2] for name in names}))]
    lines.append(f"listed local_tree_type trees={','.join(names[::2])}")
    first = {}
    for word, pos in sorted(grammar.lexicon):
        first.setdefault(pos, word)
    lines += [f"word_{pos} local_lexical word={word.upper()} prefer=pos:{pos} disprefer=pos:{pos}"
              for pos, word in first.items()]
    lines += [f"lower global_structural builtin=pp_attachment_height modifier={labels}"
              f" sites={labels}",
              f"higher global_structural builtin=adj_attachment_height modifier={labels}"
              f" sites={labels}"]
    return parse_registry("\n".join(lines) + "\n")


def _labels(node):
    return {node.label}.union(*(_labels(child) for child in node.children))


def _left_branching(words):
    """A gold tree that crosses the right-branching parses of ``words``."""
    node = DerivedNode("X", list(words[:2]), 0, 2)
    for word in words[2:]:
        node = DerivedNode("X", [node, word], 0, node.end + 1)
    return node


def _check_shared_derive(grammar, derivations, words, check_features, scoring):
    """One ``Deriver`` over all of a forest's ``derivations`` equals
    ``reference_derive`` parse by parse; returns how many parses were
    derived and how many had a feature conflict.

    With one table over the parses, ``extract`` equals ``reference_extract``
    on the unshared tree, also with every label of the grammar a modifier
    and a site, and local rules of every kind that its anchorings match:
    the reference counts a lower attachment height over the host's whole
    subtree, and a higher one over the modifier's ancestors.
    And, given a ``scoring``, one of ``SCORINGS``, ``build_records`` equals
    ``reference_records`` against two golds, the last parse and a
    left-branching tree, with its flattening and recall mode.
    """
    every = _every_label_registry(grammar)
    deriver = lt.Deriver(grammar, words, check_features)
    table, rules, every_table, every_rules = {}, {}, {}, {}
    ranked = []
    conflicts = 0
    for derivation in derivations:
        try:
            expected = reference_derive(grammar, derivation, words, check_features)
        except FeatureConflict as exc:
            with pytest.raises(FeatureConflict) as raised:
                deriver.derive(derivation)
            assert str(raised.value) == str(exc)
            conflicts += 1
            continue
        derived = deriver.derive(derivation)
        assert _facts(derived) == _facts(expected), (words, check_features)
        vector = extract(REGISTRY, grammar, derivation, words, table)
        assert vector == reference_extract(REGISTRY, grammar, derivation, expected, rules)
        assert extract(every, grammar, derivation, words, every_table) == \
            reference_extract(every, grammar, derivation, expected, every_rules)
        ranked.append(RankedParse(derivation, vector, 0.0, deriver))
    if scoring:
        _check_scores(ranked, words, scoring)
    return len(ranked), conflicts


def _check_scores(ranked, words, scoring):
    """``build_records`` equals ``reference_records`` on the ranked parses
    of ``words`` against two golds, the last parse and a left-branching
    tree, with the flattening and recall mode of ``scoring``: at a top k
    of every parse, each candidate scored; at the default top k, with the
    scores that no top-k ranking reaches blanked."""
    if ranked:
        analyses = [types.SimpleNamespace(parses=ranked)] * 2
        golds = [ranked[-1].derived.root, _left_branching(words)]
        flatten, mode = scoring
        expected = reference_records(analyses, golds, mode, flatten)
        assert build_records(analyses, golds, mode, flatten, len(ranked)) == expected
        assert build_records(analyses, golds, mode, flatten) == \
            blank_unreachable(expected, TrainConfig.top_k)


def _check_vectors_and_scores(grammar, derivations, words, scoring):
    """With one table over the parses, ``extract`` equals
    ``reference_extract`` on the unshared tree, and ``build_records``
    equals ``reference_records`` on the trees derived with one
    ``Deriver``."""
    deriver = lt.Deriver(grammar, words)
    table, rules = {}, {}
    ranked = []
    for derivation in derivations:
        vector = extract(REGISTRY, grammar, derivation, words, table)
        assert vector == reference_extract(REGISTRY, grammar, derivation,
                                           reference_derive(grammar, derivation, words), rules)
        ranked.append(RankedParse(derivation, vector, 0.0, deriver))
    _check_scores(ranked, words, scoring)


def test_shared_derive_matches_reference_on_universes(universes):
    # one sweep over every universe sentence: the enumeration order equals
    # the reference unpacker's, and the derived trees, vectors and scores
    # equal the references'.  The caps, the feature checks and the scorings
    # are taken in turn, so that 32 turns take every combination
    turn = 0
    for name in ("clauses", "pp", "modifiers"):
        grammar, _, universe = universes[name]
        for words in universe:
            cap = CAPS[turn % len(CAPS)]
            check_features = bool(turn // len(CAPS) % 2)
            scoring = SCORINGS[turn // (2 * len(CAPS)) % len(SCORINGS)]
            turn += 1
            sentence = _tagged(grammar, words)
            forest = lt.parse(grammar, sentence, lt.select_trees(grammar, sentence),
                              adjunction_cap=cap)
            derivations = lt.enumerate_derivations(forest)
            assert derivations == reference_derivations(forest), (name, words, cap)
            _check_shared_derive(grammar, derivations, list(words), check_features,
                                 scoring)


@pytest.mark.parametrize("cap", (None, 3), ids=str)
def test_shared_derive_matches_reference_on_ladder(cap):
    # 6 to 21 words, the scorings taken in turn.  The grammar has no
    # features, so the trees are the same with feature checks on: their
    # vectors are checked again, not their scores.  Under the cap, the
    # vectors and scores at 24 words too, where subtrees nest deeper
    g = lt.loads(OFPP_GRAMMAR)
    for pps in range(6):
        derivations = lt.enumerate_derivations(_ladder_forest(g, pps, cap))
        _check_shared_derive(g, derivations, _ladder_words(pps), False,
                             SCORINGS[pps % len(SCORINGS)])
        _check_shared_derive(g, derivations, _ladder_words(pps), True, None)
    if cap is not None:
        _check_vectors_and_scores(g, lt.enumerate_derivations(_ladder_forest(g, 6, cap)),
                                  _ladder_words(6), SCORINGS[(6 + cap) % len(SCORINGS)])


def test_shared_derive_matches_reference_under_features():
    # conflicts inside shared subtrees (a/D on dogs/N) and at substitution
    # slots, next to parses that pass
    g = lt.loads(FEATURE_GRAMMAR)
    totals = [0, 0]
    for number, text in enumerate(FEATURE_SENTENCES):
        words = text.split()
        sentence = _tagged(g, words)
        for turn, (cap, check_features) in enumerate(SETTINGS, start=number):
            forest = lt.parse(g, sentence, lt.select_trees(g, sentence),
                              adjunction_cap=cap)
            counts = _check_shared_derive(g, lt.enumerate_derivations(forest), words,
                                          check_features, SCORINGS[turn % len(SCORINGS)])
            totals = [total + count for total, count in zip(totals, counts)]
    derived_count, conflicts = totals
    assert derived_count > 0 and conflicts > 0


# noun phrases nested at their left (Of_Phrase) and right edges, whose
# modifiers at those edges stay open through two levels of shared subtrees
NESTED_GRAMMAR = """
tree Noun_Deep : initial (NP (N N@))
tree Adjective : auxiliary (N A@ N*)
tree Adjective_NP : auxiliary (NP A@ NP*)
tree Post_Adjective : auxiliary (NP NP* A@)
tree Of_Phrase : initial (NP NP^ (PP P@ NP^))
tree Indic_Intrans : initial (S NP^ (VP V@))
lex dogs N -> Noun_Deep
lex cats N -> Noun_Deep
lex big A -> Adjective, Adjective_NP
lex galore A -> Post_Adjective
lex of P -> Of_Phrase
lex bark V -> Indic_Intrans
"""

NESTED_SENTENCES = ["big dogs of cats of dogs bark", "dogs of cats of dogs galore bark",
                    "big dogs of big cats galore of dogs galore bark"]


def test_shared_derive_matches_reference_on_nested_modifiers():
    g = lt.loads(NESTED_GRAMMAR)
    for turn, text in enumerate(NESTED_SENTENCES):
        words = text.split()
        sentence = _tagged(g, words)
        forest = lt.parse(g, sentence, lt.select_trees(g, sentence))
        derived_count, _ = _check_shared_derive(g, lt.enumerate_derivations(forest), words,
                                                False, SCORINGS[turn % len(SCORINGS)])
        assert derived_count > 1


def _spans(derived):
    return [(node.label, node.start, node.end) for node in nodes(derived.root)]


DITRANSITIVE_GRAMMAR = """
tree Noun_Phrase : initial (NP N@)
tree Ditransitive : initial (S NP^ (VP V@ NP^ NP^))
lex dogs N -> Noun_Phrase
lex cats N -> Noun_Phrase
lex bones N -> Noun_Phrase
lex give V -> Ditransitive
"""


@pytest.mark.parametrize("misplaced_first", [False, True], ids=["placed_first", "misplaced_first"])
def test_shared_subtree_at_the_wrong_position_is_an_error(misplaced_first):
    # the two objects swapped: "bones" lands at word 2 and "cats" at word 3,
    # though their shared subtrees start at words 3 and 2.  Every anchor's
    # own span is right, so only the landing check sees the swap
    g = lt.loads(DITRANSITIVE_GRAMMAR)
    words = ["dogs", "give", "cats", "bones"]
    dogs, cats, bones = (DerivationNode("Noun_Phrase", index) for index in (0, 2, 3))
    placed, misplaced = (
        DerivationNode("Ditransitive", 1, (
            Attachment(dogs, OP_SUBSTITUTION, (1,)),
            Attachment(first, OP_SUBSTITUTION, (2, 2)),
            Attachment(second, OP_SUBSTITUTION, (2, 3))))
        for first, second in ((cats, bones), (bones, cats)))
    message = "anchor positions are inconsistent with the word order"
    with pytest.raises(DerivationError, match=message):
        reference_derive(g, misplaced, words)
    deriver = lt.Deriver(g, words)
    if misplaced_first:
        with pytest.raises(DerivationError, match=message):
            deriver.derive(misplaced)
    derived = deriver.derive(placed)
    assert {id(cats), id(bones)} <= deriver.shared.keys()
    before = _spans(derived)
    assert before == _spans(reference_derive(g, placed, words))
    with pytest.raises(DerivationError, match=message):
        deriver.derive(misplaced)
    assert _spans(derived) == before
    assert derived.to_string() == "(S (NP (N dogs)) (VP (V give) (NP (N cats)) (NP (N bones))))"


@pytest.mark.parametrize("case", ["anchor_used_twice", "anchor_off_its_index"])
def test_malformed_derivation_leaves_shared_anchor_nodes_as_they_were(case):
    # after a valid parse has made every anchor node: "cats", word 2,
    # anchors a second Noun_Phrase at word 3, or, with every slot filled,
    # "cats" is the subject and "dogs" an object, so "cats" lands at word 0
    # and "give" after it.  Either raises, and writes no span a parse shares
    g = lt.loads(DITRANSITIVE_GRAMMAR)
    words = ["dogs", "give", "cats", "bones"]
    dogs, cats, bones = (DerivationNode("Noun_Phrase", index) for index in (0, 2, 3))
    placed = DerivationNode("Ditransitive", 1, (
        Attachment(dogs, OP_SUBSTITUTION, (1,)),
        Attachment(cats, OP_SUBSTITUTION, (2, 2)),
        Attachment(bones, OP_SUBSTITUTION, (2, 3))))
    malformed = {
        "anchor_used_twice": DerivationNode("Ditransitive", 1, (
            Attachment(dogs, OP_SUBSTITUTION, (1,)),
            Attachment(cats, OP_SUBSTITUTION, (2, 2)),
            Attachment(DerivationNode("Noun_Phrase", 2), OP_SUBSTITUTION, (2, 3)))),
        "anchor_off_its_index": DerivationNode("Ditransitive", 1, (
            Attachment(cats, OP_SUBSTITUTION, (1,)),
            Attachment(dogs, OP_SUBSTITUTION, (2, 2)),
            Attachment(bones, OP_SUBSTITUTION, (2, 3)))),
    }[case]
    message = "anchor positions are inconsistent with the word order"
    with pytest.raises(DerivationError, match=message):
        reference_derive(g, malformed, words)
    deriver = lt.Deriver(g, words)
    derived = deriver.derive(placed)
    anchors = {key: deriver.anchors[key] for key in instances(placed)}
    spans = {key: (node.start, node.end) for key, node in anchors.items()}
    assert spans == {("Ditransitive", 1): (1, 2), ("Noun_Phrase", 0): (0, 1),
                     ("Noun_Phrase", 2): (2, 3), ("Noun_Phrase", 3): (3, 4)}
    before = _spans(derived)
    with pytest.raises(DerivationError, match=message):
        deriver.derive(malformed)
    assert {key: deriver.anchors[key] for key in instances(placed)} == anchors
    assert {key: (node.start, node.end) for key, node in anchors.items()} == spans
    assert _spans(derived) == before
    assert derived.to_string() == "(S (NP (N dogs)) (VP (V give) (NP (N cats)) (NP (N bones))))"


# a derivation must fill every substitution slot; only a hand-built one
# can leave a slot empty.  The last case also has a bad attachment, which
# is checked first
UNFILLED_GRAMMAR = DITRANSITIVE_GRAMMAR + """
tree Wrapped_Subject : initial (S (NP NP^) (VP V@ NP^))
lex see V -> Wrapped_Subject
"""


@pytest.mark.parametrize("case", ["trailing", "middle", "both_objects", "leading",
                                  "leading_off_its_index", "wrapped_leading",
                                  "after_a_bad_attachment"])
def test_unfilled_substitution_slot_matches_reference(case):
    # derive, check and the reference each reject the derivation, with one
    # message
    g = lt.loads(UNFILLED_GRAMMAR)
    words, tree, anchor, objects, message = {
        "trailing": ("dogs give cats", "Ditransitive", 1, {(1,): 0, (2, 2): 2},
                     "substitution slot 2.3 of 'Ditransitive' is unfilled"),
        "middle": ("dogs give bones", "Ditransitive", 1, {(1,): 0, (2, 3): 2},
                   "substitution slot 2.2 of 'Ditransitive' is unfilled"),
        "both_objects": ("dogs give", "Ditransitive", 1, {(1,): 0},
                         "substitution slot 2.2 of 'Ditransitive' is unfilled"),
        "leading": ("give cats bones", "Ditransitive", 0, {(2, 2): 1, (2, 3): 2},
                    "substitution slot 1 of 'Ditransitive' is unfilled"),
        "leading_off_its_index": ("dogs give cats bones", "Ditransitive", 1,
                                  {(2, 2): 2, (2, 3): 3},
                                  "substitution slot 1 of 'Ditransitive' is unfilled"),
        "wrapped_leading": ("see cats", "Wrapped_Subject", 0, {(2, 2): 1},
                            "substitution slot 1.1 of 'Wrapped_Subject' is unfilled"),
        "after_a_bad_attachment": ("dogs give cats", "Ditransitive", 1, {(1,): 0, (2, 2): 9},
                                   "anchor index 9 outside the sentence"),
    }[case]
    words = words.split()
    derivation = DerivationNode(tree, anchor, tuple(
        Attachment(DerivationNode("Noun_Phrase", index), OP_SUBSTITUTION, address)
        for address, index in objects.items()))
    for check_features in (False, True):
        with pytest.raises(DerivationError) as raised:
            reference_derive(g, derivation, words, check_features)
        assert str(raised.value) == message
        deriver = lt.Deriver(g, words, check_features)
        for _ in range(2):
            for method in (deriver.derive, deriver.check):
                with pytest.raises(DerivationError) as raised:
                    method(derivation)
                assert str(raised.value) == message


@pytest.mark.parametrize("case", ["trailing", "middle", "both_objects", "leading",
                                  "wrapped_leading"])
def test_folds_name_the_first_unfilled_slot_as_check_does(case):
    # extract and evaluate_derivations fold a hand-built derivation as they
    # fold the parser's, and raise the DerivationError of Deriver.check for
    # an empty slot: the first in address order, not the first folded
    g = lt.loads(UNFILLED_GRAMMAR)
    tree, anchor, objects, message = {
        "trailing": ("Ditransitive", 1, {(1,): 0, (2, 2): 2},
                     "substitution slot 2.3 of 'Ditransitive' is unfilled"),
        "middle": ("Ditransitive", 1, {(1,): 0, (2, 3): 2},
                   "substitution slot 2.2 of 'Ditransitive' is unfilled"),
        "both_objects": ("Ditransitive", 1, {(1,): 0},
                         "substitution slot 2.2 of 'Ditransitive' is unfilled"),
        "leading": ("Ditransitive", 0, {(2, 2): 1, (2, 3): 2},
                    "substitution slot 1 of 'Ditransitive' is unfilled"),
        "wrapped_leading": ("Wrapped_Subject", 0, {(2, 2): 1},
                            "substitution slot 1.1 of 'Wrapped_Subject' is unfilled"),
    }[case]
    words = ["dogs", "give", "cats", "bones"]
    derivation = DerivationNode(tree, anchor, tuple(
        Attachment(DerivationNode("Noun_Phrase", index), OP_SUBSTITUTION, address)
        for address, index in objects.items()))
    gold = lt.brackets_of(lt.read_bracketed("(S (NP dogs) (VP give (NP cats) (NP bones)))"))
    for fold in (lambda: lt.Deriver(g, words).check(derivation),
                 lambda: extract(default_registry(), g, derivation, words),
                 lambda: evaluate_derivations(g, [derivation], gold)):
        with pytest.raises(DerivationError) as raised:
            fold()
        assert str(raised.value) == message

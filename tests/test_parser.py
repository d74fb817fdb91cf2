import random

import pytest

import ltagrank as lt
from ltagrank.parser import (Attachment, DerivationError, DerivationNode,
                             FeatureConflict, OP_ADJUNCTION, OP_SUBSTITUTION)
from oracles import derivation_universe, stack_depth
from toygrammars import MODIFIER_GRAMMAR, PP_GRAMMAR, parses_of, tag

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
    trees = {t.to_string() for _, t in parses}
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
    first = [d for d, _ in parses_of(g, text)]
    second = [d for d, _ in parses_of(g, text)]
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
    assert derived.words == ["sleep"]


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
        with pytest.raises(FeatureConflict):
            lt.derive(grammar, derivation, words, check_features=True)
    else:
        assert lt.derive(grammar, derivation, words,
                         check_features=True).to_string() == derived


def test_forest_counts():
    g = lt.loads(PP_GRAMMAR)
    forest = _forest(g, "saw/V the/D man/N with/P the/D telescope/N")
    assert len(lt.enumerate_derivations(forest)) == 2
    assert len(lt.enumerate_derivations(forest, 1)) == 1
    assert forest.has_parse()

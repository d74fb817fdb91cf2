import ltagrank as lt
from ltagrank.heuristics import default_registry, uniform_weights
from ltagrank.pipeline import PipelineConfig, analyze_sentence
from oracles import nodes
from toygrammars import FREQ_TEXT, OFPP_GRAMMAR, tag


def _analyze(text, **kwargs):
    return _analyze_with(lt.loads(OFPP_GRAMMAR, FREQ_TEXT), text, PipelineConfig(**kwargs))


def _analyze_with(grammar, text, config):
    registry = default_registry()
    return analyze_sentence(grammar, tag(text), registry, uniform_weights(registry),
                            config)


def test_analyze_ranks_and_reports():
    analysis = _analyze("the/D second/A part/N is/V the/D name/N of/P"
                        " your/D personal/A computer/N")
    assert analysis.parsed
    assert analysis.derivation_count == 3
    assert analysis.report is not None
    penalties = [rp.penalty for rp in analysis.parses]
    assert penalties == sorted(penalties)
    # candidate bookkeeping lines up position by position
    assert len(analysis.report.positions) == len(analysis.words)


def test_analyze_without_filters():
    analysis = _analyze("the/D part/N is/V the/D name/N", filter_k=None)
    assert analysis.report is None
    assert analysis.parsed


def test_analyze_max_parses_caps_enumeration():
    analysis = _analyze("the/D second/A part/N is/V the/D name/N of/P"
                        " your/D personal/A computer/N", max_parses=1)
    assert analysis.derivation_count == 1


def test_analyze_unknown_word_unparsed():
    analysis = _analyze("zork/N is/V the/D name/N")
    assert not analysis.parsed
    assert analysis.assignment.candidates[0] == []


def test_tree_assignment_items():
    grammar = lt.loads(OFPP_GRAMMAR)
    assignment = lt.select_trees(grammar, tag("the/D part/N"))
    assert "Determiner" in assignment.candidates[0]
    assert "Noun_Phrase" in assignment.candidates[1]


def test_feature_checking_drops_conflicting_parse():
    grammar = lt.loads("""
tree Noun_Sg : initial (NP[num=sg] N@)
tree Verb_Pl : initial (S NP^[num=pl] (VP V@))
lex dog N -> Noun_Sg
lex bark V -> Verb_Pl
""")
    registry = default_registry()
    weights = uniform_weights(registry)
    relaxed = analyze_sentence(grammar, tag("dog/N bark/V"), registry, weights,
                               PipelineConfig(filter_k=None))
    strict = analyze_sentence(grammar, tag("dog/N bark/V"), registry, weights,
                              PipelineConfig(filter_k=None, check_features=True))
    assert relaxed.parsed
    assert not strict.parsed


def test_feature_context_of_a_shared_subtree_keeps_both_parses():
    # both verb trees substitute the one featureless NP of "sheep": checking
    # it against NP^[num=sg] must leave nothing behind that clashes with
    # NP^[num=pl] in the next parse, which shares the NP's subtree
    grammar = lt.loads("""
tree Noun : initial (NP N@)
tree Verb_Sg : initial (S NP^[num=sg] (VP V@))
tree Verb_Pl : initial (S NP^[num=pl] (VP V@))
lex sheep N -> Noun
lex run V -> Verb_Sg, Verb_Pl
""")
    analysis = _analyze_with(grammar, "sheep/N run/V",
                             PipelineConfig(filter_k=None, check_features=True))
    assert sorted(rp.derivation.tree for rp in analysis.parses) == ["Verb_Pl", "Verb_Sg"]


def test_parses_share_derived_subtrees():
    # 21 words, cap 3: the 1039 parses hold 12,378 distinct derived nodes;
    # a fresh tree per parse held 49,872
    grammar = lt.loads(OFPP_GRAMMAR)
    text = "the/D second/A part/N is/V the/D name/N" + " of/P the/D part/N" * 5
    analysis = _analyze_with(grammar, text, PipelineConfig(filter_k=None,
                                                           adjunction_cap=3))
    assert analysis.derivation_count == 1039
    distinct = {id(node) for rp in analysis.parses for node in nodes(rp.derived.root)}
    assert len(distinct) <= 12378

import ltagrank as lt
from ltagrank.heuristics import default_registry, uniform_weights
from ltagrank.pipeline import PipelineConfig, analyze_sentence
from toygrammars import FREQ_TEXT, OFPP_GRAMMAR, tag


def _analyze(text, **kwargs):
    grammar = lt.loads(OFPP_GRAMMAR, FREQ_TEXT)
    registry = default_registry()
    return analyze_sentence(grammar, tag(text), registry,
                            uniform_weights(registry), PipelineConfig(**kwargs))


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
    analysis = _analyze("the/D part/N is/V the/D name/N", filter_k=None,
                        use_structural=False)
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

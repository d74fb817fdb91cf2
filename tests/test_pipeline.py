import gc
import weakref
from collections import Counter
from contextlib import contextmanager

import pytest

import ltagrank as lt
from ltagrank import parser, pipeline
from ltagrank.grammar import GrammarValidationError, LexEntry
from ltagrank.heuristics import default_registry, uniform_weights
from ltagrank.parser import OP_SUBSTITUTION, DerivationError, FeatureConflict
from ltagrank.pipeline import CollectorPause, PipelineConfig, analyze_sentence
from oracles import nodes, reference_derive
from test_acceptance import _tagged
from test_filtering import FALLBACK_FREQ, FALLBACK_GRAMMAR
from test_parser import FEATURE_GRAMMAR as AGREEMENT_GRAMMAR, FEATURE_SENTENCES
from toygrammars import FREQ_TEXT, OFPP_GRAMMAR, tag

FEATURE_GRAMMAR = """
tree Noun_Sg : initial (NP[num=sg] N@)
tree Verb_Pl : initial (S NP^[num=pl] (VP V@))
lex dog N -> Noun_Sg
lex bark V -> Verb_Pl
"""


def _ladder(pps):
    # the of-PP ladder: 6 + 3 * pps words
    return "the/D second/A part/N is/V the/D name/N" + " of/P the/D part/N" * pps


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
    text = "zork/N is/V the/D name/N"
    assert not _analyze(text).parsed
    assert lt.select_trees(lt.loads(OFPP_GRAMMAR), tag(text)).candidates[0] == []


def _report(befores, removed_structure):
    # no parse, and the frequency cut removes nothing from these sentences
    return {"fallback_triggered": True,
            "positions": [{"before": before, "removed_structure": removed,
                           "removed_frequency": 0, "survivors": before - removed}
                          for before, removed in zip(befores, removed_structure)]}


# the 18-word ladder and a tail word that no tree can anchor there: the
# preposition and the verb lose their trees to the structural filter, and
# the determiner keeps its tree, whose foot has no word to its right; and a
# word the lexicon does not know.  (text, report with the frequency cut)
DEAD_SENTENCES = {
    "P": (_ladder(4) + " of/P", _report([1] * 6 + [2, 1, 1] * 4 + [2], [0] * 18 + [2])),
    "D": (_ladder(4) + " the/D", _report([1] * 6 + [2, 1, 1] * 4 + [1], [0] * 19)),
    "V": (_ladder(4) + " is/V", _report([1] * 6 + [2, 1, 1] * 4 + [1], [0] * 18 + [1])),
    "unknown": ("zork/N is/V the/D name/N", _report([0, 1, 1, 1], [0, 1, 0, 0])),
}


@pytest.mark.parametrize("filter_k", (None, 3), ids=str)
@pytest.mark.parametrize("case", DEAD_SENTENCES)
def test_dead_sentence_builds_no_chart(case, filter_k):
    # a position that no candidate can anchor leaves no derivation, so the
    # parser posts no item; the filter report is the same as with a full chart
    text, report = DEAD_SENTENCES[case]
    grammar = lt.loads(OFPP_GRAMMAR, FREQ_TEXT)
    sentence = tag(text)
    assignment = lt.structural_filter(grammar, sentence, lt.select_trees(grammar, sentence))
    if filter_k is not None:
        assignment = lt.frequency_filter(assignment, grammar.freq, filter_k)
    forest = lt.parse(grammar, sentence, assignment, adjunction_cap=3)
    assert len(forest._chart) == 0
    assert not forest.has_parse()
    analysis = _analyze_with(grammar, text, PipelineConfig(filter_k=filter_k,
                                                           adjunction_cap=3))
    assert analysis.parses == []
    if filter_k is None:
        assert analysis.report is None
    else:
        assert analysis.report.to_dict() == report


def test_tree_assignment_items():
    grammar = lt.loads(OFPP_GRAMMAR)
    assignment = lt.select_trees(grammar, tag("the/D part/N"))
    assert "Determiner" in assignment.candidates[0]
    assert "Noun_Phrase" in assignment.candidates[1]


def test_feature_checking_drops_conflicting_parse():
    grammar = lt.loads(FEATURE_GRAMMAR)
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
    analysis = _analyze_with(grammar, _ladder(5), PipelineConfig(filter_k=None,
                                                           adjunction_cap=3))
    assert analysis.derivation_count == 1039
    distinct = {id(node) for rp in analysis.parses for node in nodes(rp.derived.root)}
    assert len(distinct) <= 12378


def test_analysis_derives_no_tree_until_one_is_read(monkeypatch):
    # ranking reads the derivations alone, and the feature check walks them
    # without building a tree, also where it drops parses; a tree is
    # derived, through ``parser.Deriver.derive``, when a parse's is first read
    def refuse(*args, **kwargs):
        raise AssertionError("derive called")

    monkeypatch.setattr(parser.Deriver, "derive", refuse)
    monkeypatch.setattr(parser, "derive", refuse)
    monkeypatch.setattr(pipeline, "derive", refuse)
    ofpp, agreement = lt.loads(OFPP_GRAMMAR), lt.loads(AGREEMENT_GRAMMAR)
    registry = default_registry()
    for grammar, sentence, check_features in [
            (ofpp, tag(_ladder(3)), False), (ofpp, tag(_ladder(3)), True),
            (agreement, _tagged(agreement, FEATURE_SENTENCES[2].split()), True)]:
        analysis = analyze_sentence(grammar, sentence, registry, uniform_weights(registry),
                                    PipelineConfig(filter_k=None, adjunction_cap=3,
                                                   check_features=check_features))
        assert analysis.derivation_count > 1
        with pytest.raises(AssertionError, match="derive called"):
            analysis.parses[0].derived


def test_a_substituted_node_is_checked_and_built_once_per_deriver(monkeypatch):
    # 21 words, cap 3: the grammar has no features, so the check keeps all
    # 1039 parses.  Checking them all and then reading every tree checks
    # and builds each substituted node once, in the sentence's one Deriver
    calls = {"check": Counter(), "instance": Counter()}
    check, instance = parser.Deriver.check, parser.Deriver.instance

    def counted_check(self, derivation):
        calls["check"][id(derivation)] += 1
        return check(self, derivation)

    def counted_instance(self, node, foot, part):
        calls["instance"][id(node)] += 1
        return instance(self, node, foot, part)

    monkeypatch.setattr(parser.Deriver, "check", counted_check)
    monkeypatch.setattr(parser.Deriver, "instance", counted_instance)
    analysis = _analyze_with(lt.loads(OFPP_GRAMMAR), _ladder(5),
                             PipelineConfig(filter_k=None, adjunction_cap=3,
                                            check_features=True))
    assert analysis.derivation_count == 1039
    for rp in analysis.parses:
        rp.derived
    substituted, stack = set(), [rp.derivation for rp in analysis.parses]
    while stack:
        for att in stack.pop().attachments:
            if att.op == OP_SUBSTITUTION:
                substituted.add(id(att.child))
            stack.append(att.child)
    assert substituted
    for name, counts in calls.items():
        assert {counts[key] for key in substituted} == {1}, name


@pytest.mark.parametrize("cap", (None, 3), ids=str)
def test_feature_check_keeps_the_parses_the_reference_accepts(cap):
    # the checked analysis keeps, in order, exactly the parses of the
    # unchecked one whose features unify by the reference deriver
    grammar = lt.loads(AGREEMENT_GRAMMAR)
    registry = default_registry()
    dropped = 0
    for text in FEATURE_SENTENCES:
        words = text.split()
        unchecked, checked = (
            analyze_sentence(grammar, _tagged(grammar, words), registry,
                             uniform_weights(registry),
                             PipelineConfig(filter_k=None, adjunction_cap=cap,
                                            check_features=check_features))
            for check_features in (False, True))
        accepted = []
        for rp in unchecked.parses:
            try:
                reference_derive(grammar, rp.derivation, words, check_features=True)
            except FeatureConflict:
                continue
            accepted.append(rp.derivation)
        assert [rp.derivation for rp in checked.parses] == accepted, text
        dropped += unchecked.derivation_count - len(accepted)
    assert dropped > 0


@pytest.mark.parametrize("cap", (None, 3), ids=str)
def test_lazy_trees_equal_eagerly_derived_ones(cap):
    # 12 to 21 words: every parse's tree, read in ranked order, prints as
    # one derived in that order by one Deriver.  Read with the
    # collector off and then dropped, the trees leave it nothing to find
    grammar = lt.loads(OFPP_GRAMMAR)
    for pps in range(2, 6):
        analysis = _analyze_with(grammar, _ladder(pps),
                                 PipelineConfig(filter_k=None, adjunction_cap=cap))
        deriver = lt.Deriver(grammar, analysis.words)
        eager = [deriver.derive(rp.derivation).to_string() for rp in analysis.parses]
        with _collector(False):
            assert [rp.derived.to_string() for rp in analysis.parses] == eager, pps
            del analysis
            assert gc.collect() == 0, pps


@contextmanager
def _collector(on):
    """Run the block with the cyclic collector on or off, then restore it.

    The objects made before the block are frozen for its length, so a
    collection inside it traces only what the block made, not the whole
    test session's heap.
    """
    enabled = gc.isenabled()
    gc.enable() if on else gc.disable()
    gc.freeze()
    try:
        yield
    finally:
        gc.unfreeze()
        gc.enable() if enabled else gc.disable()


def test_analysis_leaves_no_garbage_cycles(universes):
    # analyze_sentence pauses the collector, which is exact only while all
    # it builds is acyclic: with the collector off, the dropped analyses
    # must leave it nothing to find, on the error paths too
    registry = default_registry()
    weights = uniform_weights(registry)
    universe = []
    for name in ("clauses", "pp", "modifiers"):
        grammar, _, sentences = universes[name]
        universe += [(grammar, words) for words in sentences if len(words) <= 6]
    ofpp = lt.loads(OFPP_GRAMMAR, FREQ_TEXT)
    fallback = lt.loads(FALLBACK_GRAMMAR, FALLBACK_FREQ)
    groups = {
        "universe": [(grammar, _tagged(grammar, words), PipelineConfig())
                     for grammar, words in universe[::7]],
        "ladder": [(ofpp, tag(_ladder(pps)), PipelineConfig(adjunction_cap=3))
                   for pps in (2, 3, 4, 5)],
        "fallback": [(fallback, tag(text), PipelineConfig())
                     for text in ("dogs/N run/V|N", "the/D dogs/N run/V", "run/N|V",
                                  "the/D the/D", "the/D run/N run/V|N")],
        "features": [(lt.loads(FEATURE_GRAMMAR), tag("dog/N bark/V"),
                      PipelineConfig(filter_k=None, check_features=True))],
    }
    assert len(groups["universe"]) > 500
    with _collector(False):
        for name, cases in groups.items():
            for grammar, sentence, config in cases:
                analyze_sentence(grammar, sentence, registry, weights, config)
            assert gc.collect() == 0, name
        with pytest.raises(ValueError):
            analyze_sentence(ofpp, [], registry, weights)
        assert gc.collect() == 0, "empty sentence"
        # a grammar is valid once built, so only a hand-built assignment can
        # name an unknown tree, and a grammar that names one is never built
        with pytest.raises(DerivationError):
            lt.parse(ofpp, tag("ghost/N"), lt.TreeAssignment([["No_Such_Tree"]]))
        assert gc.collect() == 0, "unknown tree"
        with pytest.raises(GrammarValidationError):
            lt.Grammar(ofpp.trees, ofpp.families, {
                **ofpp.lexicon, ("ghost", "N"): LexEntry("ghost", "N", ("No_Such_Tree",))})
        assert gc.collect() == 0, "dangling reference"


@contextmanager
def _recorded_collections(events):
    """Append to ``events`` the generation of each collection that starts
    in the block."""
    def record(phase, info):
        if phase == "start":
            events.append(info["generation"])

    gc.callbacks.append(record)
    try:
        yield
    finally:
        gc.callbacks.remove(record)


def _collections(grammar, sentence):
    """(generations of the collections run while analyze_sentence handles
    ``sentence``, the type of the ValueError it raised or None).  Nothing
    but the call runs while the collections are recorded."""
    registry = default_registry()
    weights = uniform_weights(registry)
    config = PipelineConfig(adjunction_cap=3)
    generations, raised = [], None
    with _recorded_collections(generations):
        try:
            analyze_sentence(grammar, sentence, registry, weights, config)
        except ValueError as exc:
            raised = type(exc)
    return generations, raised


def test_analysis_runs_one_young_collection_when_the_collector_is_on():
    grammar, sentence = lt.loads(OFPP_GRAMMAR, FREQ_TEXT), tag(_ladder(5))
    with _collector(True):
        assert _collections(grammar, sentence) == ([0], None)
        assert gc.isenabled()
        assert _collections(grammar, []) == ([0], ValueError)
        assert gc.isenabled()


def test_analysis_leaves_a_paused_collector_alone():
    class Cycle:
        pass

    grammar, sentence = lt.loads(OFPP_GRAMMAR, FREQ_TEXT), tag(_ladder(5))
    with _collector(False):
        cycle = Cycle()
        cycle.me = cycle
        alive = weakref.ref(cycle)
        del cycle
        assert _collections(grammar, sentence) == ([], None)
        assert _collections(grammar, []) == ([], ValueError)
        assert not gc.isenabled()
        assert alive() is not None
        gc.collect()
        assert alive() is None


def test_a_pause_inside_a_pause_does_nothing():
    # the inner pause leaves the collector off and runs no collection; the
    # outer one runs the one young collection and turns the collector on
    events = []
    with _collector(True), _recorded_collections(events):
        with CollectorPause():
            with CollectorPause():
                pass
            assert not gc.isenabled() and events == []
        assert gc.isenabled() and events == [0]

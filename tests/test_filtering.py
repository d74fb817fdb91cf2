import random

import pytest

import ltagrank as lt
from ltagrank.filtering import (FilterReport, filter_with_fallback,
                                frequency_filter, structural_filter)
from ltagrank.grammar import FrequencyTable, parse_frequencies
from ltagrank.parser import DerivationError
from toygrammars import CLAUSE_GRAMMAR, FREQ_TEXT, tag


def _parse_fn(grammar, sentence, assignment):
    return lt.parse(grammar, sentence, assignment)


def test_sentence_initial_determiner_slot_removed():
    # a noun tree with a determiner substitution slot cannot anchor word 0
    g = lt.loads(CLAUSE_GRAMMAR)
    sentence = tag("dogs/N bark/V")
    assignment = lt.select_trees(g, sentence)
    assert "Noun_with_Det" in assignment.candidates[0]
    filtered = structural_filter(g, sentence, assignment)
    assert "Noun_with_Det" not in filtered.candidates[0]
    assert "Noun_Phrase" in filtered.candidates[0]


def test_anchor_only_tree_retained_on_single_word():
    g = lt.loads(CLAUSE_GRAMMAR)
    sentence = tag("dogs/N")
    filtered = structural_filter(g, sentence, lt.select_trees(g, sentence))
    assert "Noun_Phrase" in filtered.candidates[0]


def test_width_test_removes_transitive_for_final_verb():
    g = lt.loads(CLAUSE_GRAMMAR)
    sentence = tag("dogs/N bark/V|X")
    # give the verb both clause types via a second lexicon entry
    grammar_text = CLAUSE_GRAMMAR + "lex bark X -> Indic_Transitive\n"
    g = lt.loads(grammar_text)
    assignment = lt.select_trees(g, sentence)
    assert "Indic_Transitive" in assignment.candidates[1]
    filtered = structural_filter(g, sentence, assignment)
    assert "Indic_Transitive" not in filtered.candidates[1]
    assert "Indic_Intrans" in filtered.candidates[1]
    # and the parse sets agree with and without the filter
    with_filter = {d for d in lt.enumerate_derivations(_parse_fn(g, sentence, filtered))}
    without = {d for d in lt.enumerate_derivations(_parse_fn(g, sentence, assignment))}
    assert with_filter == without


def test_unknown_tree_raises_the_parser_error():
    # the filter runs before the parser, so it checks the names the parser would
    g = lt.loads(CLAUSE_GRAMMAR)
    sentence = tag("dogs/N bark/V")
    assignment = lt.TreeAssignment([["Noun_Phrase"], ["Indic_Intrans", "No_Such_Tree"]])
    message = "assignment at position 1 references unknown tree 'No_Such_Tree'"
    for run in (structural_filter, lt.parse):
        with pytest.raises(DerivationError) as raised:
            run(g, sentence, assignment)
        assert str(raised.value) == message


def test_frontier_compatibility_removes_det_slot_with_no_det_left():
    g = lt.loads(CLAUSE_GRAMMAR)
    sentence = tag("bark/V dogs/N")
    assignment = lt.select_trees(g, sentence)
    assert "Noun_with_Det" in assignment.candidates[1]
    filtered = structural_filter(g, sentence, assignment)
    # width allows one word to the left, but no candidate there is D-rooted
    assert "Noun_with_Det" not in filtered.candidates[1]


def test_frequency_filter_table_probabilities():
    freq = parse_frequencies(FREQ_TEXT)
    assignment = lt.TreeAssignment([
        ["Adjective", "Determiner", "Noun_Mods_Noun", "Noun_with_Det"]])
    filtered = frequency_filter(assignment, freq, 3)
    assert filtered.candidates[0] == ["Determiner", "Noun_Mods_Noun", "Noun_with_Det"]


def test_frequency_filter_small_sets_unchanged():
    freq = parse_frequencies(FREQ_TEXT)
    assignment = lt.TreeAssignment([["Adjective", "Determiner"]])
    assert frequency_filter(assignment, freq, 3).candidates == [["Adjective", "Determiner"]]


def test_frequency_filter_requires_positive_k():
    freq = parse_frequencies(FREQ_TEXT)
    with pytest.raises(ValueError):
        frequency_filter(lt.TreeAssignment([["Adjective"]]), freq, 0)


def test_frequency_filter_zero_prob_lexicographic_tie_break():
    freq = FrequencyTable({})
    assignment = lt.TreeAssignment([["Delta", "Alpha", "Charlie", "Bravo"]])
    filtered = frequency_filter(assignment, freq, 3)
    assert filtered.candidates[0] == ["Alpha", "Bravo", "Charlie"]


def test_frequency_filter_idempotent():
    freq = parse_frequencies(FREQ_TEXT)
    rng = random.Random(3)
    names = list(freq.entries) + ["Unlisted_A", "Unlisted_B"]
    for _ in range(50):
        sets = [sorted(rng.sample(names, rng.randint(0, len(names))))
                for _ in range(4)]
        once = frequency_filter(lt.TreeAssignment(sets), freq, 3)
        twice = frequency_filter(once, freq, 3)
        assert once.candidates == twice.candidates


FALLBACK_GRAMMAR = """
tree Noun_Phrase : initial (NP N@)
tree Noun_with_Det : initial (NP D^ N@)
tree Noun_Mods_Noun : auxiliary (N N@ N*)
tree Noun_Apposition : auxiliary (N N* N@)
tree Det_alpha : initial D@
tree Indic_Intrans : initial (S NP^ (VP V@))
lex run V -> Indic_Intrans
lex run N -> Noun_Phrase, Noun_Mods_Noun, Noun_Apposition
lex dogs N -> Noun_Phrase, Noun_with_Det
lex the D -> Det_alpha
"""

# the intransitive tree the parse needs ranks below three noun distractors,
# all of which survive the (sound) structural tests
FALLBACK_FREQ = """Noun_Phrase\t0.30
Noun_Mods_Noun\t0.28
Noun_Apposition\t0.27
Indic_Intrans\t0.001
"""


def test_fallback_recovers_low_frequency_tree():
    g = lt.loads(FALLBACK_GRAMMAR, FALLBACK_FREQ)
    sentence = tag("dogs/N run/V|N")
    assignment = lt.select_trees(g, sentence)
    assert len(assignment.candidates[1]) == 4
    forest, report = filter_with_fallback(g, sentence, assignment, 3, _parse_fn)
    assert report.fallback_triggered
    assert forest.has_parse()
    assert report.positions[1].removed_frequency == 1


def test_no_fallback_when_top_k_suffices():
    g = lt.loads(FALLBACK_GRAMMAR, FALLBACK_FREQ)
    sentence = tag("the/D dogs/N run/V")
    assignment = lt.select_trees(g, sentence)
    forest, report = filter_with_fallback(g, sentence, assignment, 3, _parse_fn)
    assert not report.fallback_triggered
    assert forest.has_parse()


def test_fallback_flag_set_when_unparseable():
    g = lt.loads(FALLBACK_GRAMMAR, FALLBACK_FREQ)
    sentence = tag("the/D the/D run/N|V")
    assignment = lt.select_trees(g, sentence)
    forest, report = filter_with_fallback(g, sentence, assignment, 3, _parse_fn)
    assert report.fallback_triggered
    assert not forest.has_parse()


def test_report_bookkeeping_identity():
    g = lt.loads(FALLBACK_GRAMMAR, FALLBACK_FREQ)
    for text in ["dogs/N run/V|N", "the/D dogs/N run/V", "run/N|V"]:
        sentence = tag(text)
        assignment = lt.select_trees(g, sentence)
        _, report = filter_with_fallback(g, sentence, assignment, 3, _parse_fn)
        for names, position in zip(assignment.candidates, report.positions):
            assert position.before == len(names)
            assert position.before == (position.removed_structure
                                       + position.removed_frequency
                                       + position.survivors)


def test_fallback_coverage_equals_unfiltered():
    g = lt.loads(FALLBACK_GRAMMAR, FALLBACK_FREQ)
    texts = ["dogs/N run/V|N", "the/D dogs/N run/V", "the/D run/N run/V|N",
             "run/N|V", "the/D the/D"]
    for text in texts:
        sentence = tag(text)
        assignment = lt.select_trees(g, sentence)
        unfiltered = _parse_fn(g, sentence, assignment).has_parse()
        forest, _ = filter_with_fallback(g, sentence, assignment, 3, _parse_fn)
        assert forest.has_parse() == unfiltered


def test_filter_report_serializes():
    report = FilterReport([], fallback_triggered=True)
    assert report.to_dict() == {"fallback_triggered": True, "positions": []}

import itertools

import pytest

import ltagrank as lt
from ltagrank.tagging import TaggedInputError
from oracles import untagged_candidates
from test_grammar import _big_lexicon_grammar
from toygrammars import PP_GRAMMAR, tag


def test_parse_tagged_line():
    words = lt.parse_tagged_line("the/D dogs/N|V bark/V")
    assert [w.surface for w in words] == ["the", "dogs", "bark"]
    assert words[1].tags == ("N", "V")


def test_tagged_line_errors():
    with pytest.raises(TaggedInputError):
        lt.parse_tagged_line("dogs bark/V")
    with pytest.raises(TaggedInputError):
        lt.parse_tagged_line("dogs/N|N bark/V")
    with pytest.raises(TaggedInputError):
        lt.parse_tagged_line("dogs/ bark/V")
    for token in ("the/D|", "the/|D", "the/D||N", "the/|"):
        with pytest.raises(TaggedInputError, match="empty tag"):
            lt.parse_tagged_line(f"{token} dogs/N")


def test_select_trees_single_tag_counts():
    g = _big_lexicon_grammar()
    assignment = lt.select_trees(g, tag("try/V"))
    assert [len(names) for names in assignment.candidates] == [59]


def test_select_trees_nbest_union():
    g = _big_lexicon_grammar()
    assignment = lt.select_trees(g, tag("try/V|N"))
    # 59 + 17, disjoint by construction
    assert [len(names) for names in assignment.candidates] == [76]


def test_select_trees_unknown_word():
    g = _big_lexicon_grammar()
    assignment = lt.select_trees(g, tag("glorp/N"))
    assert assignment.candidates == [[]]


def test_empty_sentence_rejected():
    g = _big_lexicon_grammar()
    with pytest.raises(ValueError):
        lt.select_trees(g, [])


def test_tag_monotonicity():
    g = lt.loads(PP_GRAMMAR)
    # candidates grow (weakly) as tags are added, and never exceed the
    # untagged union
    word = "saw"
    tags_all = sorted(g.pos_tags_for_word(word)) + ["N"]
    for r in range(1, len(tags_all) + 1):
        for subset in itertools.combinations(tags_all, r):
            smaller = lt.select_trees(g, [lt.TaggedWord(word, subset)])
            for extra in set(tags_all) - set(subset):
                bigger = lt.select_trees(g, [lt.TaggedWord(word, subset + (extra,))])
                assert set(smaller.candidates[0]) <= set(bigger.candidates[0])
            assert set(smaller.candidates[0]) <= untagged_candidates(g, word)


def test_all_tags_equals_untagged_union():
    g = lt.loads(PP_GRAMMAR)
    for word in ["saw", "man", "the", "with"]:
        tags = tuple(sorted(g.pos_tags_for_word(word)))
        assignment = lt.select_trees(g, [lt.TaggedWord(word, tags)])
        assert set(assignment.candidates[0]) == untagged_candidates(g, word)


def test_open_class_fallback():
    g = lt.loads(PP_GRAMMAR)
    sentence = [lt.TaggedWord("zork", ("N",))]
    assert lt.select_trees(g, sentence).candidates == [[]]
    assignment = lt.select_trees(g, sentence, open_class_fallback=True)
    assert set(assignment.candidates[0]) == {"Noun_Phrase", "Noun_with_Det"}


def test_read_tagged_corpus(tmp_path):
    path = tmp_path / "corpus.tagged"
    path.write_text("dogs/N bark/V\n\nthe/D cat/N sleeps/V\n")
    corpus = lt.tagging.read_tagged_corpus(path)
    assert len(corpus) == 2
    assert corpus[1][0].surface == "the"

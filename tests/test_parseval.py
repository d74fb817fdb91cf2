import gc
import random
from pathlib import Path

import pytest

import ltagrank as lt
import ltagrank.parseval as pv
from ltagrank.parser import DerivedNode
from oracles import (brute_force_crossing, derivation_universe, nodes,
                     random_binary_bracketing)
from toygrammars import (CLAUSE_GRAMMAR, MODIFIER_GRAMMAR, OFPP_GRAMMAR, PP_GRAMMAR,
                         bracketing, evaluate, parses_of)

SAMPLE = Path(__file__).resolve().parent.parent / "sample"


def test_brackets_of_spec_examples():
    b = bracketing("(S (NP a) (VP b))")
    assert b.length == 2
    assert b.spans == {(0, 2, "S"), (0, 1, "NP"), (1, 2, "VP")}
    flat = bracketing("(S a b c)")
    assert flat.spans == {(0, 3, "S")}


def test_brackets_round_trip():
    tree = pv.read_bracketed("(S (NP (D the) (N dogs)) (VP (V bark)))")
    assert bracketing(tree.to_string()) == pv.brackets_of(tree)


def test_derived_gold_and_flattened_trees_share_one_type():
    g = lt.loads(MODIFIER_GRAMMAR)
    for derived in parses_of(g, "big/A old/A dogs/N bark/V quickly/ADV"):
        text = derived.to_string()
        flat = pv.flatten(derived.root, {"NP"})
        assert type(derived.root) is type(pv.read_bracketed(text)) is type(flat) \
            is DerivedNode
        assert flat.to_string() == pv.flatten(pv.read_bracketed(text), {"NP"}).to_string()
        # spans read off every subtree, relative to its first word
        for node in nodes(derived.root):
            assert pv.brackets_of(node) == bracketing(node.to_string())


def test_malformed_bracket_string():
    with pytest.raises(pv.BracketFormatError):
        pv.read_bracketed("(S (NP dogs)")
    with pytest.raises(pv.BracketFormatError):
        pv.read_bracketed("(S) extra")
    err = None
    try:
        pv.read_bracketed("(S ())")
    except pv.BracketFormatError as exc:
        err = exc
    assert err is not None and err.position is not None


def test_crossing_abc_example():
    assert evaluate("(X (X a b) c)", "(X a (X b c))").crossing_count == 1
    assert evaluate("(X a (X b c))", "(X a (X b c))").crossing_count == 0


def test_crossing_derived_example():
    # candidate {(1,4),(2,4)} vs gold {(0,2),(2,4)}: only (1,4) crosses
    assert evaluate("(X a (X b (X c d)))", "(X (X a b) (X c d))").crossing_count == 1


def test_crossing_self_is_zero():
    rng = random.Random(11)
    for _ in range(100):
        text, _ = random_binary_bracketing(rng, rng.randint(2, 9))
        assert evaluate(text, text).crossing_count == 0


def test_containment_is_not_crossing():
    assert evaluate("(X (X a b) c d)", "(X (X a b c) d)").crossing_count == 0


def test_crossing_length_mismatch():
    with pytest.raises(ValueError):
        evaluate("(X a b)", "(X a b c)")


def recall_precision(candidate, gold, mode="standard"):
    scores = evaluate(candidate, gold, mode)
    return scores.recall_pct, scores.precision_pct


def test_recall_precision_examples():
    recall, precision = recall_precision("(X a (X b (X c d)))", "(X (X a b) (X c d))")
    assert (recall, precision) == (50.0, 50.0)
    recall_lit, precision_lit = recall_precision(
        "(X a (X b (X c d)))", "(X (X a b) (X c d))", mode="paper_literal")
    assert (recall_lit, precision_lit) == (100.0, 50.0)
    assert recall_precision("(X (X a b) c)", "(X (X a b) c)") == (100.0, 100.0)


def test_recall_precision_empty_cases():
    # flat candidate: no spans after normalization
    assert recall_precision("(S a b c)", "(S (X a b) c)") == (0.0, 0.0)
    assert recall_precision("(S (X a b) c)", "(S a b c)") == (0.0, 0.0)
    assert recall_precision("(S a b)", "(S a b)") == (100.0, 100.0)


def test_precision_equals_recall_when_counts_match():
    rng = random.Random(5)
    for _ in range(200):
        n = rng.randint(3, 9)
        cand, _ = random_binary_bracketing(rng, n)
        gold, _ = random_binary_bracketing(rng, n)
        cb = pv.normalize(bracketing(cand))
        gb = pv.normalize(bracketing(gold))
        if len(cb.spans) == len(gb.spans):
            recall, precision = recall_precision(cand, gold)
            assert recall == precision


def test_crossing_matches_brute_force():
    rng = random.Random(99)
    for _ in range(300):
        n = rng.randint(3, 10)
        cand_text, cand_spans = random_binary_bracketing(rng, n)
        gold_text, gold_spans = random_binary_bracketing(rng, n)
        expected = brute_force_crossing(cand_spans, gold_spans, n)
        assert evaluate(cand_text, gold_text).crossing_count == expected


def test_flatten_np_example():
    tree = pv.read_bracketed("(NP (G your) (N (N personal) (N computer)))")
    assert pv.flatten(tree, {"NP", "N"}).to_string() == "(NP your personal computer)"


def test_flatten_no_matching_labels():
    tree = pv.read_bracketed("(S (X a) (Y b c))")
    assert pv.flatten(tree, {"NP", "VP"}).to_string() == tree.to_string()


def test_flatten_outside_categories_preserved():
    tree = pv.read_bracketed("(NP (G your) (N (N personal) (N computer)))")
    out = pv.flatten(tree, {"NP"})
    assert out.to_string() == "(NP your (N (N personal) (N computer)))"
    # unlabeled multi-word spans, the whole sentence kept
    spans = {(start, end, None) for start, end, _ in pv.brackets_of(out).spans
             if end - start > 1}
    assert spans == {(0, 3, None), (1, 3, None)}


def test_flatten_removes_nested_phrases():
    tree = pv.read_bracketed(
        "(S (NP (D the) (N user)) (VP (V sets) (NP (D the) (N value))))")
    out = pv.flatten(tree, {"NP", "VP"})
    assert out.to_string() == "(S (NP the user) (VP sets the value))"


def test_flatten_idempotent_and_weakly_decreasing():
    rng = random.Random(17)
    samples = [
        "(NP (G your) (N (N personal) (N computer)))",
        "(S (NP (D the) (N user)) (VP (V sets) (NP (D the) (N value))))",
        "(S (NP (N dogs)) (VP (ADV quickly) (VP (V bark))))",
    ]
    for _ in range(100):
        text, _ = random_binary_bracketing(rng, rng.randint(2, 8))
        samples.append(text)
    for text in samples:
        for cats in ({"NP", "N"}, {"NP", "VP"}, {"X"}):
            once = pv.flatten(pv.read_bracketed(text), cats)
            assert pv.flatten(once, cats).to_string() == once.to_string()
            assert len(pv.brackets_of(once).spans) <= len(bracketing(text).spans)
            assert once.leaves() == pv.read_bracketed(text).leaves()


def test_reading_and_flattening_leave_no_garbage_cycles():
    # the bracket reader and flatten's copy are module functions: a closure
    # that calls itself would leave a reference cycle per call
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    try:
        trees = pv.read_bracketed_corpus(SAMPLE / "gold.brackets")
        assert len(trees) == 5
        flat = pv.flatten(trees[0], {"NP", "VP"})
        del trees, flat
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()


def test_flattened_brackets_equal_brackets_of_flatten():
    """``brackets_of(tree, cats) == brackets_of(flatten(tree, cats))``.

    On the derived parses and gold trees of sample/ and the derived trees
    of the toy universes, under every single label and some label sets; on
    every subtree under NP,VP."""
    trees = list(pv.read_bracketed_corpus(SAMPLE / "gold.brackets"))
    sample = lt.load_grammar(SAMPLE / "grammar.ltag", SAMPLE / "freq.tsv")
    for line in (SAMPLE / "corpus.tagged").read_text().splitlines():
        trees.extend(derived.root for derived in parses_of(sample, line))
    for text in (CLAUSE_GRAMMAR, PP_GRAMMAR, MODIFIER_GRAMMAR):
        for _, bracketings in derivation_universe(lt.loads(text), "S", 4).values():
            trees.extend(pv.read_bracketed(b) for b in sorted(bracketings))
    ofpp = lt.loads(OFPP_GRAMMAR)
    trees.extend(derived.root for derived in parses_of(
        ofpp, "the/D second/A part/N is/V the/D name/N of/P the/D part/N"))
    assert len(trees) > 500
    labels = sorted({node.label for tree in trees for node in nodes(tree)})
    category_sets = [set(), {"NP", "VP"}, {"NP", "N"}, set(labels)] + \
        [{label} for label in labels]
    for tree in trees:
        for cats in category_sets:
            assert pv.brackets_of(tree, frozenset(cats)) == \
                pv.brackets_of(pv.flatten(tree, cats)), (tree.to_string(), cats)
        for node in nodes(tree):
            assert pv.brackets_of(node, frozenset({"NP", "VP"})) == \
                pv.brackets_of(pv.flatten(node, {"NP", "VP"})), node.to_string()


def test_score_corpus_first_aggregation():
    gold = bracketing("(X (X a b) (X c d))")
    crossing_once = bracketing("(X a (X b (X c d)))")   # one crossing span
    pairs = [([gold], gold), ([crossing_once, gold], gold)]
    scores = pv.score_corpus(pairs, top_k=1, aggregation="first")
    assert scores.zero_crossing_pct == 50.0
    assert scores.crossing_avg == 0.5


def test_score_corpus_best_and_mean():
    gold = bracketing("(X (X a b) (X c d))")
    near = bracketing("(X a (X b (X c d)))")
    pairs = [([near, gold, near], gold)]
    best = pv.score_corpus(pairs, top_k=3, aggregation="best_of_k")
    assert best.crossing_avg == 0.0
    assert best.zero_crossing_pct == 100.0
    mean = pv.score_corpus(pairs, top_k=3, aggregation="mean_of_k")
    assert mean.crossing_avg == pytest.approx(2.0 / 3.0)
    assert mean.zero_crossing_pct == 0.0


def test_score_corpus_zero_parse_sentences():
    gold = bracketing("(X (X a b) c)")
    scores = pv.score_corpus([([gold], gold), ([], gold)], top_k=6,
                             aggregation="first")
    assert scores.coverage_failures == 1
    assert scores.zero_crossing_pct == 50.0
    assert scores.crossing_avg == 0.0       # failures excluded from the average
    assert scores.recall_pct == 50.0        # failure contributes zero
    assert scores.precision_pct == 50.0


def test_normalization_flags():
    full = bracketing("(S (NP a) (VP b c))")
    assert full.spans == {(0, 3, "S"), (0, 1, "NP"), (1, 3, "VP")}
    default = pv.normalize(full)
    assert default.spans == {(1, 3, None)}


# ---------------------------------------------------------------------------
# treebank lines: each format error's position is the offset of the
# offending token; errors about a node point at its '('

@pytest.mark.parametrize("text, at", [
    ("(S (NP dogs) (VP bark)", 0),  # unclosed '(': at that '('
    ("(S (NP dogs) (VP bark", 13),
    ("(S dogs))", 8),               # stray ')' after the tree
    (")", 0),                       # stray ')' in place of the tree
    ("(S () dogs)", 3),             # '(' without a label
    ("((S dogs))", 0),
    ("(S (NP) dogs)", 3),           # empty node
    ("(S dogs) bark", 9),           # trailing material: at its first token
    ("(S dogs) (S bark)", 9),
    ("dogs", 0),                    # a bare word is not a tree
    ("  dogs bark", 2),
    ("", 0),                        # nothing at all: at the end of the text
], ids=["unclosed", "unclosed_inner", "stray_close", "lone_close", "unlabeled",
        "unlabeled_nested", "empty_node", "trailing_atom", "trailing_tree",
        "bare_word", "bare_words", "empty"])
def test_treebank_line_error_positions(text, at):
    with pytest.raises(pv.BracketFormatError) as err:
        pv.read_bracketed(text)
    assert err.value.position == at


def test_treebank_labels_and_words_are_read_verbatim():
    # markers and feature brackets mean nothing in a treebank line
    tree = pv.read_bracketed("(N@ D^ dogs[x])")
    assert tree.label == "N@" and tree.children == ["D^", "dogs[x]"]
    assert (tree.start, tree.end) == (0, 2)

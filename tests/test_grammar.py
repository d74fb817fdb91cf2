import gc
import random
from dataclasses import FrozenInstanceError
from pathlib import Path

import pytest

import ltagrank as lt
from ltagrank.grammar import (ANCHOR, FOOT, INITIAL, INTERNAL, SUBSTITUTION,
                              ElementaryTree, FrequencyTable, GrammarFormatError,
                              GrammarValidationError, LexEntry, TreeFamily, TreeNode,
                              parse_frequencies)
from toygrammars import FREQ_TEXT, MODIFIER_GRAMMAR, PP_GRAMMAR

SIX_TREE_GRAMMAR = """
# a well-formed toy grammar: six trees, two families
tree Noun_Phrase : initial (NP N@)
tree Noun_with_Det : initial (NP D^ N@)
tree Det_alpha : initial D@
tree Indic_Intrans : initial (S NP^ (VP V@))
tree Imperative_Intrans : initial (S (VP V@))
tree Indic_Transitive : initial (S NP^ (VP V@ NP^))
family Tnx0V = Indic_Intrans, Imperative_Intrans
family Tnx0Vnx1 = Indic_Transitive
lex dogs N -> Noun_Phrase, Noun_with_Det
lex the D -> Det_alpha
lex bark V -> Tnx0V
lex chase V -> Tnx0Vnx1
"""


def test_load_six_trees_two_families():
    g = lt.loads(SIX_TREE_GRAMMAR)
    assert len(g.trees) == 6
    assert len(g.families) == 2
    assert set(g.families["Tnx0V"].members) == {"Indic_Intrans", "Imperative_Intrans"}


def test_auxiliary_foot_label_must_match_root():
    bad = "tree Broken_Aux : auxiliary (VP ADV@ NP*)\n"
    with pytest.raises(GrammarValidationError) as err:
        lt.loads(bad)
    assert "Broken_Aux" in str(err.value)


def test_lexicon_dangling_family_reference():
    bad = SIX_TREE_GRAMMAR + "lex meow V -> NoSuchFamily\n"
    with pytest.raises(GrammarValidationError) as err:
        lt.loads(bad)
    assert "meow" in str(err.value) and "NoSuchFamily" in str(err.value)


def test_family_dangling_member():
    bad = "tree T : initial (NP N@)\nfamily F = T, Ghost\n"
    with pytest.raises(GrammarValidationError) as err:
        lt.loads(bad)
    assert "Ghost" in str(err.value)


def test_tree_and_grammar_issues_are_raised_together_in_order():
    # tree-shape issues in line order, then family and lexicon references,
    # a reference to a rejected tree included
    text = ("tree Broken : initial (NP D@ N@)\ntree Aux : auxiliary (VP ADV@ NP*)\n"
            "family F = Broken, Aux\nlex x N -> Broken, G\n")
    with pytest.raises(GrammarValidationError) as err:
        lt.loads(text, "not a frequency line")
    assert str(err.value) == (
        "tree 'Broken' must have exactly one anchor, found 2; auxiliary tree 'Aux' has foot"
        " label 'NP' but root label 'VP'; family 'F' references unknown tree 'Broken';"
        " family 'F' references unknown tree 'Aux'; lexicon entry x/N references unknown"
        " tree or family 'Broken'; lexicon entry x/N references unknown tree or family 'G'")


def test_a_directly_built_grammar_is_checked_as_loads_checks_it():
    g = lt.loads(SIX_TREE_GRAMMAR)
    with pytest.raises(GrammarValidationError) as loaded:
        lt.loads(SIX_TREE_GRAMMAR + "family F = Noun_Phrase, Ghost\nlex meow V -> NoSuchFamily\n")
    with pytest.raises(GrammarValidationError) as built:
        lt.Grammar(g.trees, {**g.families, "F": TreeFamily("F", ("Noun_Phrase", "Ghost"))},
                   {**g.lexicon, ("meow", "V"): LexEntry("meow", "V", ("NoSuchFamily",))})
    assert str(built.value) == str(loaded.value)
    assert len(built.value.issues) == 2


def test_a_directly_built_tree_is_checked_as_loads_checks_it():
    with pytest.raises(GrammarValidationError) as loaded:
        lt.loads("tree Two_Anchors : initial (NP D@ N@)\n")
    root = TreeNode("NP", INTERNAL, (TreeNode("D", ANCHOR), TreeNode("N", ANCHOR)))
    with pytest.raises(GrammarValidationError) as built:
        ElementaryTree("Two_Anchors", INITIAL, root)
    assert str(built.value) == str(loaded.value)
    with pytest.raises(GrammarValidationError, match="unknown kind 'sideways'"):
        ElementaryTree("T", "sideways", TreeNode("N", ANCHOR))
    tree = ElementaryTree("T", INITIAL, TreeNode("NP", INTERNAL, (TreeNode("N", ANCHOR),)))
    assert (tree.anchor_pos, tree.anchor_address, tree.foot_address) == ("N", (1,), None)


def test_a_grammar_is_read_only_once_built():
    g = lt.loads(SIX_TREE_GRAMMAR, "Noun_Phrase\t0.5\n")
    tree = g.trees["Noun_Phrase"]
    with pytest.raises(TypeError):
        g.trees["Copy"] = tree
    with pytest.raises(TypeError):
        g.families["F"] = TreeFamily("F", ("Noun_Phrase",))
    with pytest.raises(TypeError):
        g.lexicon[("cats", "N")] = LexEntry("cats", "N", ("Noun_Phrase",))
    with pytest.raises(TypeError):
        g.freq.entries["Det_alpha"] = 1.0
    with pytest.raises(FrozenInstanceError):
        g.freq = FrequencyTable()
    with pytest.raises(FrozenInstanceError):
        g.trees = {}
    with pytest.raises(TypeError):
        tree.shapes[()] = ("S", 1)
    with pytest.raises(TypeError):
        tree.positions[()] = 0
    with pytest.raises(FrozenInstanceError):
        tree.anchor_pos = "D"
    assert (len(g.trees), len(g.families), len(g.lexicon)) == (6, 2, 4)
    assert dict(g.freq.entries) == {"Noun_Phrase": 0.5}
    assert tree.shapes[()] == ("NP", 1) and tree.anchor_pos == "N"


def test_a_grammar_keeps_its_own_copies_of_what_it_is_given():
    g = lt.loads(SIX_TREE_GRAMMAR)
    trees, families, lexicon = dict(g.trees), dict(g.families), dict(g.lexicon)
    entries = {"Noun_Phrase": 0.5}
    built = lt.Grammar(trees, families, lexicon, FrequencyTable(entries))
    for given in (trees, families, lexicon, entries):
        given.clear()
    assert built.trees == g.trees and built.families == g.families
    assert built.lexicon == g.lexicon and built.freq.entries == {"Noun_Phrase": 0.5}


def test_format_error_carries_line_number():
    with pytest.raises(GrammarFormatError) as err:
        lt.loads("tree T : initial (NP N@\n")
    assert err.value.line == 1
    with pytest.raises(GrammarFormatError) as err:
        lt.loads("tree A : initial (NP N@)\ntree B : sideways (NP N@)\n")
    assert err.value.line == 2


def test_unknown_tree_kind_names_its_line():
    text = "tree A : initial (NP N@)\n\ntree X : weird (S V@)\n"
    with pytest.raises(GrammarFormatError) as err:
        lt.loads(text)
    assert err.value.line == 3
    assert "weird" in str(err.value)


def test_leaf_without_marker_rejected():
    with pytest.raises(GrammarFormatError):
        lt.loads("tree T : initial (NP N)\n")


def test_declaration_order_irrelevant():
    lines = [l for l in SIX_TREE_GRAMMAR.splitlines() if l.strip() and not l.startswith("#")]
    rng = random.Random(7)
    g = lt.loads("\n".join(lines))
    for _ in range(5):
        rng.shuffle(lines)
        assert lt.loads("\n".join(lines)).trees_for_word("bark", "V") == \
            g.trees_for_word("bark", "V")


def _big_lexicon_grammar():
    lines = []
    v_names = [f"V_tree_{i:02d}" for i in range(59)]
    n_names = [f"N_tree_{i:02d}" for i in range(17)]
    for name in v_names:
        lines.append(f"tree {name} : initial (S NP^ (VP V@))")
    for name in n_names:
        lines.append(f"tree {name} : initial (NP N@)")
    lines.append("family Verb_Family_A = " + ", ".join(v_names[:30]))
    lines.append("family Verb_Family_B = " + ", ".join(v_names[30:]))
    lines.append("lex try V -> Verb_Family_A, Verb_Family_B")
    lines.append("lex try N -> " + ", ".join(n_names))
    lines.append("family Small_Family = " + ", ".join(n_names[:5]))
    lines.append("lex word N -> Small_Family, N_tree_16")
    return lt.loads("\n".join(lines))


def test_trees_for_word_paper_scale_counts():
    g = _big_lexicon_grammar()
    assert len(g.trees_for_word("try", "V")) == 59
    assert len(g.trees_for_word("try", "N")) == 17


def test_trees_for_word_unknown_word_is_empty():
    g = _big_lexicon_grammar()
    assert g.trees_for_word("unknown", "N") == set()
    assert g.trees_for_word("try", "ADV") == set()


def test_trees_for_word_family_plus_individual():
    g = _big_lexicon_grammar()
    # one family of five trees plus one individual tree
    assert len(g.trees_for_word("word", "N")) == 6


def test_trees_for_word_referential_integrity():
    g = lt.loads(SIX_TREE_GRAMMAR)
    for (word, pos) in g.lexicon:
        for name in g.trees_for_word(word, pos):
            assert name in g.trees


def test_tree_addresses_and_anchor():
    g = lt.loads(SIX_TREE_GRAMMAR)
    tree = g.trees["Indic_Transitive"]
    assert tree.anchor_pos == "V"
    assert tree.anchor_address == (2, 1)
    assert tree.node_at(()).label == "S"
    assert tree.node_at((1,)).kind == SUBSTITUTION
    assert tree.node_at((2, 2)).kind == SUBSTITUTION
    # a tree's leaves, left to right, are in the order of their addresses
    leaves = sorted(a for a, (_, children) in tree.shapes.items() if not children)
    assert [tree.node_at(a).kind for a in leaves] == [SUBSTITUTION, ANCHOR, SUBSTITUTION]
    assert tree.substitution_addresses == ((1,), (2, 2))


def test_spine_and_modifier_info():
    g = lt.loads(PP_GRAMMAR)
    pp = g.trees["PP_Attaches_to_NP"]
    assert pp.foot_address == (1,)
    assert pp.spine == {(), (1,)}
    assert pp.modifier_label == "PP"
    g2 = lt.loads(MODIFIER_GRAMMAR)
    assert g2.trees["Pre_VP_Adverb"].modifier_label == "ADV"
    assert g2.trees["Adjective"].modifier_label == "A"
    assert g2.trees["Noun_Deep"].modifier_label is None


def test_tree_node_invariants():
    with pytest.raises(GrammarValidationError):
        TreeNode("N", ANCHOR, (TreeNode("X", ANCHOR),))
    with pytest.raises(GrammarValidationError):
        TreeNode("NP", INTERNAL, ())
    with pytest.raises(GrammarValidationError):
        TreeNode("VP", FOOT, (TreeNode("X", ANCHOR),))


def test_multi_anchor_rejected():
    with pytest.raises(GrammarValidationError) as err:
        lt.loads("tree Two_Anchors : initial (NP D@ N@)\n")
    assert "Two_Anchors" in str(err.value)
    with pytest.raises(GrammarValidationError):
        lt.loads("tree No_Anchor : initial (NP D^ N^)\n")


def test_initial_with_foot_rejected():
    with pytest.raises(GrammarValidationError):
        lt.loads("tree Bad_Init : initial (NP N@ NP*)\n")


def test_features_parse_and_round_trip():
    g = lt.loads("tree T : initial (NP[wh=no] N@[num=pl,case=nom])\n")
    root = g.trees["T"].root
    assert dict(root.features) == {"wh": "no"}
    assert dict(root.children[0].features) == {"num": "pl", "case": "nom"}


def test_frequency_table():
    table = parse_frequencies(FREQ_TEXT)
    assert table.probability("Determiner") == 0.175
    assert table.probability("Missing_Tree") == 0.0
    with pytest.raises(GrammarFormatError):
        parse_frequencies("Determiner\t1.5\n")
    with pytest.raises(GrammarFormatError):
        parse_frequencies("Determiner\tmany\n")
    with pytest.raises(GrammarFormatError):
        parse_frequencies("A\t0.1\nA\t0.2\n")


def test_frequency_table_skips_comments_and_blank_lines():
    table = parse_frequencies("# tree\tprobability\n\nA\t0.25  # common\n   \nB\t1\n")
    assert table.entries == {"A": 0.25, "B": 1.0}


def test_lexicon_lines_for_one_word_and_pos_accumulate():
    g = lt.loads("tree A : initial (NP N@)\ntree B : initial (NP N@)\n"
                 "lex dog N -> A\nlex dog N -> B, A\n")
    assert g.lexicon[("dog", "N")].selects == ("A", "B")
    assert g.trees_for_word("dog", "N") == {"A", "B"}


def test_duplicate_tree_name_rejected():
    with pytest.raises(GrammarFormatError):
        lt.loads("tree T : initial (NP N@)\ntree T : initial (NP N@)\n")


# ---------------------------------------------------------------------------
# tree lines: each format error names its line, and its column points at the
# offending token (columns count from 1 in the raw line)

TREE_PREFIX = "  tree T :  initial  "


@pytest.mark.parametrize("expr, at", [
    ("(S NP^ (VP V@ NP^)", 0),     # unclosed '(': at that '('
    ("(", 0),                      # unclosed '(' at the end of the expression
    ("(NP N@))", 7),               # stray ')' after the tree
    (")", 0),                      # stray ')' in place of the tree
    ("(NP () N@)", 5),             # '(' without a label: at the token in its place
    ("((NP N@))", 1),
    ("(NP (D) N@)", 5),            # empty node: at its label
    ("(NP N@) x", 8),              # trailing material: at its first token
    ("(NP N@) (NP N@)", 8),
], ids=["unclosed", "unclosed_at_end", "stray_close", "lone_close", "unlabeled",
        "unlabeled_nested", "empty_node", "trailing_atom", "trailing_tree"])
def test_tree_line_error_positions(expr, at):
    with pytest.raises(GrammarFormatError) as err:
        lt.loads(f"# a comment line\n{TREE_PREFIX}{expr}\n")
    assert err.value.line == 2
    assert err.value.column == len(TREE_PREFIX) + at + 1


def test_tree_line_may_be_a_single_marked_leaf():
    tree = lt.loads("tree D_alpha : initial D@[num=sg]\n").trees["D_alpha"]
    assert tree.root == TreeNode("D", ANCHOR, (), (("num", "sg"),))
    assert tree.anchor_address == ()


@pytest.mark.parametrize("expr, at", [
    ("(NP D^ N)", 7),              # an unmarked leaf
    ("N", 0),                      # an unmarked leaf as the whole tree
    ("(NP (N@ D^))", 5),           # a marked node with children: at its label
    ("(N@[a=b] D^)", 1),
    ("(NP N@[a])", 4),             # a feature without '='
], ids=["unmarked_leaf", "unmarked_root_leaf", "marked_internal",
        "marked_root_internal", "bad_feature"])
def test_tree_line_marker_and_feature_errors(expr, at):
    with pytest.raises(GrammarFormatError) as err:
        lt.loads(f"{TREE_PREFIX}{expr}\n")
    assert err.value.line == 1
    assert err.value.column == len(TREE_PREFIX) + at + 1


def test_loading_leaves_no_garbage_cycles():
    # the tree readers are module functions: a closure that calls itself
    # would leave a reference cycle per tree line
    text = (Path(__file__).resolve().parent.parent / "sample" / "grammar.ltag").read_text()
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    try:
        grammar = lt.loads(text)
        assert grammar.trees
        del grammar
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()

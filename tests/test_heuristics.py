import random
from dataclasses import FrozenInstanceError
from pathlib import Path

import pytest

import ltagrank as lt
from ltagrank import heuristics
from ltagrank.heuristics import (GLOBAL_BUILTINS, Heuristic, HeuristicRegistry,
                                 Predicate, RegistryError, default_registry,
                                 extract, load_registry, load_weights, parse_registry,
                                 save_weights, score, uniform_weights, zero_weights)
from ltagrank.pipeline import PipelineConfig, analyze_sentence
from oracles import instances, modifier_edge, nodes, reference_derive
from toygrammars import (MODIFIER_GRAMMAR, OFPP_GRAMMAR, PP_GRAMMAR, parses_of, rank_trees,
                         tag)

SAMPLE = Path(__file__).resolve().parent.parent / "sample"


def test_default_registry_contents():
    reg = default_registry()
    assert len(reg) == 11
    assert set(GLOBAL_BUILTINS) <= set(reg.names())
    assert reg.names()[0] == "disprefer_relative_clause"


def test_sample_registry_is_the_stock_registry():
    assert load_registry(SAMPLE / "registry.txt") == default_registry()


def test_builtins_always_appended():
    reg = HeuristicRegistry([Heuristic("only_rule", "local_tree_type",
                                       disprefer=Predicate("prefix", ("X",)))])
    assert set(GLOBAL_BUILTINS) <= set(reg.names())
    assert len(reg) == 4


def test_registry_keeps_its_own_heuristics():
    # a later change to the caller's list leaves the weight layout alone
    given = [Heuristic("only_rule", "local_tree_type", disprefer=Predicate("prefix", ("X",)))]
    reg = HeuristicRegistry(given)
    given.append(Heuristic("late_rule", "local_tree_type",
                           disprefer=Predicate("prefix", ("Y",))))
    assert len(given) == 2
    assert reg.names() == ["only_rule", *GLOBAL_BUILTINS]


def test_registry_is_read_only_once_built():
    reg = default_registry()
    names = reg.names()
    with pytest.raises(FrozenInstanceError):
        reg.heuristics = ()
    with pytest.raises(FrozenInstanceError):
        reg.heights = ()
    assert reg.names() == names
    assert reg.adjunctions == (names.index("adjunction_count"),)
    assert [index for index, *_ in reg.heights] == [
        names.index("pp_attachment_height"), names.index("adj_attachment_height")]


def test_duplicate_names_rejected():
    h = Heuristic("dup", "local_tree_type", disprefer=Predicate("prefix", ("X",)))
    with pytest.raises(RegistryError):
        HeuristicRegistry([h, h])


def test_registry_parse_errors():
    with pytest.raises(RegistryError):
        parse_registry("lonely\n")
    with pytest.raises(RegistryError):
        parse_registry("bad local_lexical word=of\n")
    with pytest.raises(RegistryError):
        parse_registry("x global_structural builtin=unknown_builtin\n")
    # prefer= is never counted, but it is still required and checked
    with pytest.raises(RegistryError):
        parse_registry("bad local_lexical word=of disprefer=pos:N\n")
    with pytest.raises(RegistryError):
        parse_registry("bad local_lexical word=of prefer=N disprefer=pos:N\n")


@pytest.mark.parametrize("declaration, message", [
    ("lower global_structural builtin=pp_attachment_height modifier=PP sties=VP",
     "line 2: lower: pp_attachment_height does not read sties="),
    ("rel local_tree_type prefix=Rel trees=A",
     "line 2: rel: local_tree_type with prefix= does not read trees="),
    ("adj global_structural builtin=adjunction_count sites=NP",
     "line 2: adj: adjunction_count does not read sites="),
    ("of local_lexical word=of prefer=pos:P disprefer=pos:N sites=NP",
     "line 2: of: local_lexical does not read sites="),
    ("pp global_structural builtin=pp_attachment_height sites=NP sites=VP",
     "line 2: option sites= given twice"),
])
def test_registry_option_no_heuristic_reads_is_an_error(declaration, message):
    # the first line is fine; the error names the second
    with pytest.raises(RegistryError) as raised:
        parse_registry("rc local_tree_type prefix=Rel_Cl\n" + declaration + "\n")
    assert str(raised.value) == message


def test_score_arithmetic():
    assert score((2.0, 1.0, 0.0), (0.5, -1.0, 3.0)) == 0.0
    assert score((0.0, 0.0, 0.0), (5.0, -2.0, 7.0)) == 0.0
    assert score((1.0, 1.0, 1.0), (1.0, 1.0, 1.0)) == 3.0
    with pytest.raises(ValueError):
        score((1.0,), (1.0, 2.0))


def test_score_equals_the_sum_of_the_products():
    # bit for bit against the generator form ``score`` had before, signed
    # zeros, subnormals and overflow included: ranking breaks ties between
    # equal penalties, so none may move
    rng = random.Random(7)
    specials = (0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308, 1.0, 2.0, 0.1)
    draw = (lambda: rng.choice(specials), lambda: rng.uniform(-4.0, 4.0),
            lambda: float(rng.randrange(4)))
    for _ in range(2000):
        n = rng.randrange(1, 13)
        vector = tuple(rng.choice(draw)() for _ in range(n))
        weights = [rng.choice(draw)() for _ in range(n)]
        expected = sum(v * w for v, w in zip(vector, weights))
        assert score(vector, weights).hex() == expected.hex(), (vector, weights)


def test_adjunction_count_zero_without_adjunction():
    g = lt.loads(PP_GRAMMAR)
    reg = HeuristicRegistry([])
    parses = parses_of(g, "the/D man/N barked/V")
    assert len(parses) == 1
    vector = extract(reg, g, parses[0].derivation, parses[0].root.leaves())
    assert vector[reg.names().index("adjunction_count")] == 0.0


def test_pp_height_spec_example():
    g = lt.loads(PP_GRAMMAR)
    reg = HeuristicRegistry([])
    pp_index = reg.names().index("pp_attachment_height")
    heights = {}
    for derived in parses_of(g, "saw/V the/D man/N with/P the/D telescope/N"):
        names = {name for name, _ in instances(derived.derivation)}
        key = "VP" if "PP_Attaches_to_VP" in names else "NP"
        heights[key] = extract(reg, g, derived.derivation, derived.root.leaves())[pp_index]
    assert heights == {"VP": 1.0, "NP": 0.0}


def test_pp_with_determiner_at_its_root_wraps_its_host():
    # "the" adjoins at the outer PP auxiliary's root, so that PP's record
    # has material on both sides of its host and the PP height skips it
    g = lt.loads(OFPP_GRAMMAR)
    reg = HeuristicRegistry([])
    pp_index = reg.names().index("pp_attachment_height")
    parses = parses_of(g, "part/N is/V the/D name/N of/P part/N of/P part/N",
                       adjunction_cap=3)
    assert len(parses) == 9
    target = ("(S (NP (N part)) (VP (V is) (NP (D the) (NP (NP (NP (N name))"
              " (PP (P of) (NP (N part)))) (PP (P of) (NP (N part)))))))")
    [derived] = [p for p in parses if p.to_string() == target]
    assert extract(reg, g, derived.derivation, derived.root.leaves())[pp_index] == 0.0
    records = reference_derive(g, derived.derivation, derived.root.leaves()).records
    outer = max((rec for rec in records if rec.modifier_label == "PP"),
                key=lambda rec: rec.host_node.end - rec.host_node.start)
    root, host = outer.root_node, outer.host_node
    assert (host.start, host.end) == (3, 6)
    assert root.start < host.start and host.end < root.end


def test_adjective_height_direction():
    g = lt.loads(MODIFIER_GRAMMAR)
    reg = HeuristicRegistry([])
    adj_index = reg.names().index("adj_attachment_height")
    heights = set()
    for derived in parses_of(g, "big/A dogs/N bark/V"):
        names = {name for name, _ in instances(derived.derivation)}
        site = "NP" if "Adjective_NP" in names else "N"
        heights.add((site, extract(reg, g, derived.derivation, derived.root.leaves())[adj_index]))
    assert heights == {("NP", 0.0), ("N", 1.0)}


def test_higher_sites_are_found_among_the_modifiers_ancestors():
    # heights are counted off the derivations, with no parent link and no
    # tree; the modifiers' ancestors, read off a parent map of each parse's
    # reference tree, must agree, for every modifier label and two site sets
    g = lt.loads(OFPP_GRAMMAR)
    registry = default_registry()
    text = "the/D second/A part/N is/V the/D name/N" + " of/P the/D part/N" * 3
    analysis = analyze_sentence(g, tag(text), registry, uniform_weights(registry),
                                PipelineConfig(filter_k=None, adjunction_cap=3))
    labels = ",".join({tree.modifier_label for tree in g.trees.values()} - {None})
    checked = 0
    for sites in (("NP", "VP"), ("N", "NP")):
        higher = parse_registry(f"h global_structural builtin=adj_attachment_height"
                                f" modifier={labels} sites={','.join(sites)}\n")
        table = {}
        for rp in analysis.parses:
            reference = reference_derive(g, rp.derivation, analysis.words)
            parent = {id(child): node for node in nodes(reference.root)
                      for child in node.children if not isinstance(child, str)}
            expected = 0
            for record in reference.records:
                edge = modifier_edge(record)
                if edge is None:
                    continue
                modifier = record.root_node
                node = parent.get(id(modifier))
                while node is not None:
                    expected += node.label in sites and \
                        getattr(node, edge) == getattr(modifier, edge)
                    node = parent.get(id(node))
            vector = extract(higher, g, rp.derivation, analysis.words, table)
            assert vector[0] == expected
            checked += expected > 0
    assert checked > 0


RELATIVE_CLAUSE_GRAMMAR = """
tree Noun_Phrase : initial (NP N@)
tree Rel_Cl_Stub : auxiliary (NP NP* C@)
tree Indic_Intrans : initial (S NP^ (VP V@))
lex dogs N -> Noun_Phrase
lex that C -> Rel_Cl_Stub
lex bark V -> Indic_Intrans
"""


def test_relative_clause_count():
    grammar = lt.loads(RELATIVE_CLAUSE_GRAMMAR)
    reg = default_registry()
    parses = parses_of(grammar, "dogs/N that/C bark/V")
    assert len(parses) == 1
    vector = extract(reg, grammar, parses[0].derivation, parses[0].root.leaves())
    assert vector[reg.names().index("disprefer_relative_clause")] == 1.0
    assert vector[reg.names().index("disprefer_topicalization")] == 0.0


def test_registry_lists_drop_empty_items():
    # as predicates do: an empty item matches no tree, not every tree
    grammar = lt.loads(RELATIVE_CLAUSE_GRAMMAR)
    [derived] = parses_of(grammar, "dogs/N that/C bark/V")
    counts = [extract(parse_registry(f"rc local_tree_type {option}\n"), grammar,
                      derived.derivation, derived.root.leaves())[0]
              for option in ("prefix=Rel_Cl", "prefix=Rel_Cl,", "prefix=,Rel_Cl,,",
                             "trees=Rel_Cl_Stub,", "trees=,Rel_Cl_Stub")]
    assert counts == [1.0] * 5
    registry = parse_registry("pp global_structural builtin=pp_attachment_height"
                              " modifier=PP, sites=,NP,,VP\n")
    assert registry.heuristics[0].modifier == ("PP",)
    assert registry.heuristics[0].sites == ("NP", "VP")


def test_of_lexical_preference_counts():
    g = lt.loads(PP_GRAMMAR)
    reg = default_registry()
    of_index = reg.names().index("prefer_of_np_modifier")
    counts = {}
    for derived in parses_of(g, "saw/V the/D man/N of/P the/D park/N"):
        names = {name for name, _ in instances(derived.derivation)}
        key = "VP" if "PP_Attaches_to_VP" in names else "NP"
        counts[key] = extract(reg, g, derived.derivation, derived.root.leaves())[of_index]
    # dispreferred analysis (VP modifier) counts once, preferred not at all
    assert counts == {"VP": 1.0, "NP": 0.0}


MIXED_CASE_GRAMMAR = OFPP_GRAMMAR + """
lex Of P -> PP_Attaches_to_NP, PP_Attaches_to_VP
lex THIS D -> Determiner
lex THIS N -> Noun_Phrase
"""

# local rules around a builtin, so local and global counts interleave
MIXED_CASE_REGISTRY = """
of_rule local_lexical word=of prefer=tree:PP_Attaches_to_NP disprefer=tree:PP_Attaches_to_VP
pp_height global_structural builtin=pp_attachment_height
this_rule local_lexical word=This prefer=pos:D disprefer=pos:N
determiners local_tree_type prefix=Det
"""


@pytest.mark.parametrize("text", [
    "THIS/D|N is/V the/D name/N Of/P THIS/D|N part/N of/P the/D computer/N",
    "the/D second/A part/N is/V THIS/D|N Of/P the/D name/N Of/P your/D computer/N",
])
def test_rank_counts_each_anchoring_once_as_extract_would(text):
    # rank memoizes each anchoring's local counts across the sentence's
    # parses; the vectors must be those of a fresh extract per parse
    g = lt.loads(MIXED_CASE_GRAMMAR)
    reg = parse_registry(MIXED_CASE_REGISTRY)
    parses = parses_of(g, text, adjunction_cap=3)
    assert len(parses) > 1
    ranked = rank_trees(g, parses, reg, zero_weights(reg))
    assert [rp.derivation for rp in ranked] == [t.derivation for t in parses]
    names = reg.names()
    for rp, derived in zip(ranked, parses):
        assert rp.vector == extract(reg, g, derived.derivation, derived.root.leaves())
        anchored = [(name, derived.root.leaves()[anchor])
                    for name, anchor in instances(derived.derivation)]
        assert rp.vector[names.index("of_rule")] == sum(
            1 for name, word in anchored
            if word in ("of", "Of") and name == "PP_Attaches_to_VP")
        assert rp.vector[names.index("this_rule")] == sum(
            1 for name, word in anchored if word == "THIS" and name == "Noun_Phrase")
        assert rp.vector[names.index("determiners")] == sum(
            1 for name, _ in anchored if name == "Determiner")
    for rule in ("of_rule", "this_rule"):
        assert any(rp.vector[names.index(rule)] for rp in ranked), rule


def test_rank_scores_each_distinct_vector_once(monkeypatch):
    # the 18-word of-PP ladder: 227 parses with 23 distinct vectors.  The
    # parses of one vector share one tuple, and one penalty scored once
    calls = []

    def counted(vector, weights):
        calls.append(vector)
        return score(vector, weights)

    monkeypatch.setattr(heuristics, "score", counted)
    reg = default_registry()
    weights = uniform_weights(reg)
    text = "the/D second/A part/N is/V the/D name/N" + " of/P the/D part/N" * 4
    analysis = analyze_sentence(lt.loads(OFPP_GRAMMAR), tag(text), reg, weights,
                                PipelineConfig(adjunction_cap=3))
    first = {}
    for rp in analysis.parses:
        assert rp.vector is first.setdefault(rp.vector, rp).vector
        assert rp.penalty == score(rp.vector, weights)
    assert len(analysis.parses) == 227 and len(first) == 23
    assert sorted(calls) == sorted(first)


@pytest.mark.parametrize("adjunctions, heights", [(1e308, 1.0), (1e308, -1e308)])
def test_rank_refuses_a_penalty_that_is_not_finite(adjunctions, heights):
    # finite weights that overflow on the ladder's counts, to inf, or to
    # nan where inf meets -inf: no parse can be ranked
    reg = default_registry()
    weights = uniform_weights(reg)
    weights[reg.names().index("adjunction_count")] = adjunctions
    weights[reg.names().index("pp_attachment_height")] = heights
    text = "the/D second/A part/N is/V the/D name/N" + " of/P the/D part/N" * 2
    with pytest.raises(OverflowError, match="not a finite number"):
        analyze_sentence(lt.loads(OFPP_GRAMMAR), tag(text), reg, weights,
                         PipelineConfig(adjunction_cap=3))


def test_rank_prefers_low_np_attachment():
    g = lt.loads(PP_GRAMMAR)
    reg = default_registry()
    parses = parses_of(g, "saw/V the/D man/N with/P the/D telescope/N")
    ranked = rank_trees(g, parses, reg, uniform_weights(reg))
    top_names = {name for name, _ in instances(ranked[0].derivation)}
    assert "PP_Attaches_to_NP" in top_names


def test_rank_zero_weights_keeps_canonical_order():
    g = lt.loads(OFPP_GRAMMAR)
    reg = default_registry()
    parses = parses_of(
        g, "the/D second/A part/N is/V the/D name/N of/P your/D personal/A computer/N")
    ranked = rank_trees(g, parses, reg, zero_weights(reg))
    assert [rp.derivation for rp in ranked] == [t.derivation for t in parses]


def test_rank_negation_reverses_strict_order():
    g = lt.loads(PP_GRAMMAR)
    reg = HeuristicRegistry([])
    parses = parses_of(g, "saw/V the/D man/N with/P the/D telescope/N")
    weights = uniform_weights(reg)
    first = rank_trees(g, parses, reg, weights)
    negated = rank_trees(g, parses, reg, [-w for w in weights])
    assert first[0].penalty != first[1].penalty
    assert [rp.derivation for rp in negated] == [rp.derivation
                                                 for rp in reversed(first)]


def test_adjunction_count_direction():
    # one more adjoined modifier strictly increases the count
    g = lt.loads(MODIFIER_GRAMMAR)
    reg = HeuristicRegistry([])
    idx = reg.names().index("adjunction_count")
    [plain_parse] = parses_of(g, "dogs/N bark/V")
    [modified_parse] = parses_of(g, "dogs/N bark/V quickly/ADV")
    plain = extract(reg, g, plain_parse.derivation, plain_parse.root.leaves())
    modified = extract(reg, g, modified_parse.derivation, modified_parse.root.leaves())
    assert modified[idx] == plain[idx] + 1


def test_extract_pure():
    g = lt.loads(PP_GRAMMAR)
    reg = default_registry()
    parses = parses_of(g, "saw/V the/D man/N with/P the/D telescope/N")
    for derived in parses:
        assert extract(reg, g, derived.derivation, derived.root.leaves()) == \
            extract(reg, g, derived.derivation, derived.root.leaves())


def test_linearity_and_scaling_small():
    # integer-valued trials keep the arithmetic exact; the full 10k-trial run
    # lives in the acceptance suite
    rng = random.Random(2)
    for _ in range(500):
        n = rng.randint(1, 8)
        v = tuple(float(rng.randint(0, 6)) for _ in range(n))
        w1 = [float(rng.randint(-5, 5)) for _ in range(n)]
        w2 = [float(rng.randint(-5, 5)) for _ in range(n)]
        a, b = float(rng.randint(-4, 4)), float(rng.randint(-4, 4))
        combined = [a * x + b * y for x, y in zip(w1, w2)]
        assert score(v, combined) == a * score(v, w1) + b * score(v, w2)


def test_weights_file_round_trip(tmp_path):
    reg = default_registry()
    weights = [float(i) / 4 for i in range(len(reg))]
    path = tmp_path / "weights.tsv"
    save_weights(path, reg, weights)
    assert load_weights(path, reg) == weights
    # wrong order is rejected
    rows = path.read_text().splitlines()
    path.write_text("\n".join(reversed(rows)) + "\n")
    with pytest.raises(RegistryError):
        load_weights(path, reg)


def test_weights_file_comments_are_stripped_as_in_other_input_files(tmp_path):
    # an indented comment line is no row, and a comment after a row's
    # weight is not part of the row
    reg = default_registry()
    weights = [float(i) / 4 for i in range(len(reg))]
    path = tmp_path / "weights.tsv"
    save_weights(path, reg, weights)
    rows = path.read_text().splitlines()
    rows[2] += "  # note"
    rows.insert(5, "  # note")
    rows.insert(0, "# header")
    path.write_text("\n".join(rows) + "\n")
    assert load_weights(path, reg) == weights


def test_weights_file_error_names_its_line(tmp_path):
    # the line counts the file's lines, comments and blank lines included
    reg = default_registry()
    path = tmp_path / "weights.tsv"
    save_weights(path, reg, uniform_weights(reg))
    rows = path.read_text().splitlines()
    rows[1] = "x"
    path.write_text("# header\n\n" + "\n".join(rows) + "\n")
    with pytest.raises(RegistryError) as raised:
        load_weights(path, reg)
    assert str(raised.value) == "line 4: bad weights row 'x'"


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "heavy"])
def test_weights_file_rejects_non_finite(tmp_path, value):
    reg = default_registry()
    path = tmp_path / "weights.tsv"
    save_weights(path, reg, uniform_weights(reg))
    rows = path.read_text().splitlines()
    rows[3] = rows[3].split("\t")[0] + "\t" + value
    path.write_text("\n".join(rows) + "\n")
    with pytest.raises(RegistryError, match=repr(value)):
        load_weights(path, reg)


def test_uniform_and_zero_weights():
    reg = default_registry()
    assert uniform_weights(reg) == [1.0] * 11
    assert zero_weights(reg) == [0.0] * 11

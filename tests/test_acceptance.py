"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import itertools
import random
import time
from contextlib import contextmanager

import pytest

import ltagrank as lt
import ltagrank.parseval as pv
import ltagrank.training as tr
from ltagrank.heuristics import HeuristicRegistry, score, uniform_weights
from ltagrank.training import Candidate, SentenceRecord, TrainConfig
from oracles import brute_force_crossing, instances, random_binary_bracketing
from test_filtering import FALLBACK_FREQ, FALLBACK_GRAMMAR
from toygrammars import (CLAUSE_GRAMMAR, OFPP_GRAMMAR, bracketing, evaluate,
                         parses_of, rank_trees, tag)


@contextmanager
def criterion(number, name):
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {number:2d} [{name}]: FAIL")
        raise
    print(f"\nACCEPTANCE {number:2d} [{name}]: PASS")


def _tagged(grammar, words):
    return [lt.TaggedWord(w, tuple(sorted(grammar.pos_tags_for_word(w))) or ("X",))
            for w in words]


def _parse_words(grammar, words, filtered=False):
    sentence = _tagged(grammar, words)
    assignment = lt.select_trees(grammar, sentence)
    if filtered:
        assignment = lt.structural_filter(grammar, sentence, assignment)
    forest = lt.parse(grammar, sentence, assignment)
    return lt.enumerate_derivations(forest)


# ---------------------------------------------------------------------------
# shared fixtures (the derivation universes live in conftest.py)

def _build_synthetic_corpus(n_sentences, n_candidates, target, seed, n_leaves=8):
    """Sentences whose gold parse is the candidate a hidden weight vector picks."""
    rng = random.Random(seed)
    dim = len(target)
    records = {}
    gold_index = {}
    for sid in range(n_sentences):
        brackets, seen = [], set()
        while len(brackets) < n_candidates:
            text, spans = random_binary_bracketing(rng, n_leaves)
            key = frozenset(spans)
            if key not in seen:
                seen.add(key)
                brackets.append(text)
        while True:
            vectors = [tuple(float(rng.randint(0, 4)) for _ in range(dim))
                       for _ in range(n_candidates)]
            scores = [score(v, target) for v in vectors]
            if scores.count(min(scores)) == 1:
                break
        best = min(range(n_candidates), key=lambda i: scores[i])
        gold = brackets[best]
        records[sid] = SentenceRecord(sid, [
            Candidate(v, evaluate(text, gold))
            for v, text in zip(vectors, brackets)])
        gold_index[sid] = best
    return records, gold_index


def _agreement(records, gold_index, ids, weights):
    hits = 0
    for sid in ids:
        candidates = records[sid].candidates
        order = sorted(range(len(candidates)),
                       key=lambda i: (score(candidates[i].vector, weights), i))
        hits += order[0] == gold_index[sid]
    return 100.0 * hits / len(ids)


HIDDEN_TARGET = (2.2, 0.3, 1.6, 0.15, 2.9, 0.8)


@pytest.fixture(scope="module")
def synthetic_run(tmp_path_factory):
    records, gold_index = _build_synthetic_corpus(240, 8, HIDDEN_TARGET, seed=1234)
    spec = tr.split(range(240), (150, 50, 40), seed=99)
    config = TrainConfig(top_k=6, aggregation="first", strike_limit=25,
                         max_iterations=2000, seed=4242)
    started = time.perf_counter()
    result = tr.train(records, spec, config, [1.0] * len(HIDDEN_TARGET))
    elapsed = time.perf_counter() - started
    log_path = tmp_path_factory.mktemp("trainlog") / "train.log"
    tr.write_log(log_path, result, config, spec)
    return records, gold_index, spec, config, result, elapsed, log_path


# ---------------------------------------------------------------------------
# criteria

def test_criterion_1_crossing_oracle():
    with criterion(1, "crossing-bracket oracle"):
        started = time.perf_counter()
        assert evaluate("(X (X a b) c)", "(X a (X b c))").crossing_count == 1
        rng = random.Random(20260811)
        for _ in range(1000):
            n = rng.randint(3, 10)
            cand_text, cand_spans = random_binary_bracketing(rng, n)
            gold_text, gold_spans = random_binary_bracketing(rng, n)
            expected = brute_force_crossing(cand_spans, gold_spans, n)
            assert evaluate(cand_text, gold_text).crossing_count == expected
        elapsed = time.perf_counter() - started
        assert elapsed < 5.0, f"crossing oracle took {elapsed:.1f}s"


def test_criterion_2_parser_completeness(universes):
    with criterion(2, "parser completeness vs brute force"):
        started = time.perf_counter()
        rng = random.Random(7)
        for name in ("clauses", "pp", "modifiers"):
            grammar, vocab, universe = universes[name]
            # every parseable sentence of length <= 7: exact set equality of
            # derivations and of derived bracketings
            for words, (derivations, bracketings) in universe.items():
                got = _parse_words(grammar, list(words))
                assert len(got) == len(set(got))
                assert set(got) == derivations, f"{name}: {words}"
                derived = {lt.derive(grammar, d, list(words)).to_string()
                           for d in got}
                assert derived == bracketings, f"{name}: {words}"
            # sentences the generator did not produce must not parse:
            # exhaustive up to length 2, sampled for lengths 3..7
            for length in (1, 2):
                for words in itertools.product(vocab, repeat=length):
                    if words not in universe:
                        assert _parse_words(grammar, list(words)) == []
            for _ in range(150):
                length = rng.randint(3, 7)
                words = tuple(rng.choice(vocab) for _ in range(length))
                if words not in universe:
                    assert _parse_words(grammar, list(words)) == [], words
        elapsed = time.perf_counter() - started + universes["_generation_seconds"]
        assert elapsed < 60.0, f"completeness sweep took {elapsed:.1f}s"


def test_criterion_3_structural_filter_soundness(universes):
    with criterion(3, "structural filter soundness"):
        for name in ("clauses", "pp", "modifiers"):
            grammar, vocab, universe = universes[name]
            for words, (derivations, _) in universe.items():
                got = _parse_words(grammar, list(words), filtered=True)
                assert set(got) == derivations, f"{name}: {words}"
        # the sentence-initial determiner-slot example
        grammar = lt.loads(CLAUSE_GRAMMAR)
        sentence = tag("dogs/N bark/V")
        assignment = lt.select_trees(grammar, sentence)
        filtered = lt.structural_filter(grammar, sentence, assignment)
        assert "Noun_with_Det" in assignment.candidates[0]
        assert "Noun_with_Det" not in filtered.candidates[0]


def test_criterion_4_fallback_coverage():
    with criterion(4, "frequency-filter fallback coverage"):
        grammar = lt.loads(FALLBACK_GRAMMAR, FALLBACK_FREQ)
        corpus = [
            ("dogs/N run/V|N", True),    # needs the rank-4 tree back
            ("the/D dogs/N run/V", False),
            ("dogs/N run/V", False),
            ("run/N|V", True),           # no S either way: both passes fail
            ("the/D the/D", True),       # unparseable either way
            ("the/D run/N run/V|N", True),
        ]
        for text, expect_fallback in corpus:
            sentence = tag(text)
            assignment = lt.select_trees(grammar, sentence)
            unfiltered = lt.parse(grammar, sentence, assignment).has_parse()
            forest, report = lt.filter_with_fallback(
                grammar, sentence, assignment, 3, lambda g, s, a: lt.parse(g, s, a))
            assert forest.has_parse() == unfiltered, text
            assert report.fallback_triggered == expect_fallback, text
        assert any(flag for _, flag in corpus)


def test_criterion_5_ranked_parse_reproduction():
    with criterion(5, "of-PP ambiguity ranking"):
        grammar = lt.loads(OFPP_GRAMMAR)
        registry = HeuristicRegistry([])
        text = ("the/D second/A part/N is/V the/D name/N of/P"
                " your/D personal/A computer/N")
        parses = parses_of(grammar, text)
        assert len(parses) >= 3
        weights = uniform_weights(registry)
        ranked = rank_trees(grammar, parses, registry, weights)
        pp_index = registry.names().index("pp_attachment_height")

        def attachment(parse):
            names = {name for name, _ in instances(parse.derivation)}
            return "VP" if "PP_Attaches_to_VP" in names else "NP"

        assert attachment(ranked[0]) == "NP"
        assert ranked[0].vector[pp_index] == 0.0  # the lowest eligible site
        negated = list(weights)
        negated[pp_index] = -1.0
        reranked = rank_trees(grammar, parses, registry, negated)
        assert attachment(reranked[0]) == "VP"
        assert reranked[0].derivation != ranked[0].derivation


def test_criterion_6_heuristic_algebra():
    with criterion(6, "heuristic score algebra"):
        rng = random.Random(60616)
        for _ in range(10000):
            n = rng.randint(1, 10)
            v = tuple(float(rng.randint(0, 8)) for _ in range(n))
            w1 = [float(rng.randint(-6, 6)) for _ in range(n)]
            w2 = [float(rng.randint(-6, 6)) for _ in range(n)]
            a, b = float(rng.randint(-5, 5)), float(rng.randint(-5, 5))
            combined = [a * x + b * y for x, y in zip(w1, w2)]
            assert score(v, combined) == a * score(v, w1) + b * score(v, w2)

            # a small parse list: scaling by c > 0 must preserve the order,
            # and ties must stay in input order
            m = rng.randint(2, 6)
            vectors = [tuple(float(rng.randint(0, 4)) for _ in range(n))
                       for _ in range(m)]
            if rng.random() < 0.5:
                vectors[rng.randrange(m)] = vectors[rng.randrange(m)]  # force ties
            c = float(rng.randint(1, 9))
            base_order = sorted(range(m), key=lambda i: (score(vectors[i], w1), i))
            scaled_order = sorted(range(m),
                                  key=lambda i: (score(vectors[i], [c * x for x in w1]), i))
            assert base_order == scaled_order
            for i, j in zip(base_order, base_order[1:]):
                si, sj = score(vectors[i], w1), score(vectors[j], w1)
                assert si < sj or (si == sj and i < j)


def test_criterion_7_trainer_recovery(synthetic_run):
    with criterion(7, "trainer recovery on synthetic corpus"):
        records, gold_index, spec, config, result, elapsed, log_path = synthetic_run
        assert len(records) >= 200
        baseline = _agreement(records, gold_index, spec.test_ids,
                              [1.0] * len(HIDDEN_TARGET))
        trained = _agreement(records, gold_index, spec.test_ids, result.weights)
        assert baseline <= 60.0, f"baseline {baseline:.1f}%"
        assert trained >= 90.0, f"trained {trained:.1f}%"
        assert result.state.attempts <= 2000
        accepted = [e.train_objective for e in result.entries if e.accepted]
        assert accepted, "no accepted steps"
        assert all(b > a for a, b in zip(accepted, accepted[1:]))
        assert elapsed < 120.0, f"training took {elapsed:.1f}s"
        assert log_path.exists() and log_path.read_text().count("\n") >= 1
        print(f"\n  baseline {baseline:.1f}% -> trained {trained:.1f}% "
              f"({result.state.accepted} accepted / {result.state.attempts} attempts,"
              f" {elapsed:.1f}s)")


def test_criterion_8_objective_ordering(synthetic_run):
    with criterion(8, "trained >= equal weights >= no heuristics"):
        records, _, spec, config, result, _, _ = synthetic_run
        dim = len(HIDDEN_TARGET)
        for ids in (spec.heldout_ids, spec.test_ids):
            group = [records[sid] for sid in ids]
            none = tr.evaluate_set(group, [0.0] * dim, config).objective()
            equal = tr.evaluate_set(group, [1.0] * dim, config).objective()
            trained = tr.evaluate_set(group, result.weights, config).objective()
            assert trained >= equal >= none
            assert trained > none


def test_criterion_9_determinism(tmp_path):
    with criterion(9, "determinism of split and train"):
        spec = tr.split(range(931), (626, 205, 100), seed=12)
        assert (len(spec.train_ids), len(spec.heldout_ids), len(spec.test_ids)) \
            == (626, 205, 100)
        assert tr.split(range(931), (626, 205, 100), seed=12) == spec

        records, _ = _build_synthetic_corpus(60, 6, HIDDEN_TARGET, seed=8)
        small_spec = tr.split(range(60), (40, 12, 8), seed=3)
        config = TrainConfig(top_k=6, aggregation="first", strike_limit=5,
                             max_iterations=150, seed=77)
        blobs = []
        registry = HeuristicRegistry([])
        names = registry.names() + [f"extra{i}" for i in range(3)]
        for run in range(2):
            result = tr.train(records, small_spec, config,
                              [1.0] * len(HIDDEN_TARGET))
            log = tmp_path / f"log{run}.jsonl"
            tr.write_log(log, result, config, small_spec)
            weights_path = tmp_path / f"weights{run}.tsv"
            with open(weights_path, "w") as handle:
                for value in result.weights:
                    handle.write(f"{value!r}\n")
            blobs.append((log.read_bytes(), weights_path.read_bytes()))
        assert blobs[0] == blobs[1]


def test_criterion_10_flattening(universes):
    with criterion(10, "NP/VP flattening"):
        tree = pv.read_bracketed("(NP (G your) (N (N personal) (N computer)))")
        flat = pv.flatten(tree, {"NP", "N"})
        assert flat.to_string() == "(NP your personal computer)"
        # weakly decreasing constituent counts over the whole test corpus
        checked = 0
        for name in ("clauses", "pp", "modifiers"):
            grammar, _, universe = universes[name]
            for words, (_, bracketings) in itertools.islice(universe.items(), 400):
                for text in bracketings:
                    before = len(bracketing(text).spans)
                    for cats in ({"NP", "VP"}, {"NP", "N"}):
                        flattened = pv.flatten(pv.read_bracketed(text), cats)
                        assert len(pv.brackets_of(flattened).spans) <= before
                    checked += 1
        assert checked > 500

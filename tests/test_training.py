import json
import math
import random
import sys

import pytest

import ltagrank as lt
import ltagrank.training as tr
from ltagrank import heuristics
from ltagrank.cli import build_records
from ltagrank.parseval import AGGREGATIONS, EvalScores, flatten
from ltagrank.pipeline import PipelineConfig
from oracles import blank_unreachable, reference_evaluate, reference_records, reference_train
from toygrammars import OFPP_GRAMMAR, tag
from ltagrank.training import (Candidate, SentenceRecord, TrainConfig,
                               TrainingError, evaluate_set, split, step, train)


FLATTEN = frozenset({"NP", "VP"})


def objective(records, weights, config):
    return evaluate_set(records, weights, config).objective()


def make_record(sid, entries):
    candidates = []
    for vector, crossing, recall, precision in entries:
        scores = EvalScores(float(crossing), crossing == 0, float(recall),
                            float(precision))
        candidates.append(Candidate(tuple(float(x) for x in vector), scores))
    return SentenceRecord(sid, candidates)


def threshold_corpus(thresholds, good=(0, 100.0, 100.0), bad=(2, 40.0, 40.0)):
    """Sentence i ranks its gold candidate first iff w2 > c_i * w1.

    Candidate A (vector (0, 1)) carries the bad metrics and wins ties;
    candidate B (vector (c_i, 0)) carries the good ones.
    """
    records = {}
    for sid, c in enumerate(thresholds):
        records[sid] = make_record(sid, [
            ((0.0, 1.0),) + tuple(bad),
            ((c, 0.0),) + tuple(good),
        ])
    return records


# ---------------------------------------------------------------------------
# split

def test_split_paper_sizes():
    spec = split(range(931), (626, 205, 100), seed=42)
    assert (len(spec.train_ids), len(spec.heldout_ids), len(spec.test_ids)) == \
        (626, 205, 100)


def test_split_deterministic():
    a = split(range(50), (30, 10, 10), seed=7)
    b = split(range(50), (30, 10, 10), seed=7)
    assert a == b
    c = split(range(50), (30, 10, 10), seed=8)
    assert a != c


def test_split_singletons():
    spec = split(range(3), (1, 1, 1), seed=0)
    groups = [spec.train_ids, spec.heldout_ids, spec.test_ids]
    assert all(len(g) == 1 for g in groups)
    assert set().union(*groups) == {0, 1, 2}


def test_split_partition_properties():
    ids = [f"s{i}" for i in range(100)]
    spec = split(ids, (6, 2, 2), seed=3)
    groups = [set(spec.train_ids), set(spec.heldout_ids), set(spec.test_ids)]
    assert groups[0] | groups[1] | groups[2] == set(ids)
    assert not (groups[0] & groups[1] or groups[0] & groups[2]
                or groups[1] & groups[2])
    assert [len(g) for g in groups] == [60, 20, 20]


def test_split_fractional_proportions_use_largest_remainder():
    # they sum to the corpus size, but are ratios, not sizes to truncate
    spec = split(range(10), (2.5, 2.5, 5), seed=0)
    assert (len(spec.train_ids), len(spec.heldout_ids), len(spec.test_ids)) == \
        (3, 2, 5)


def test_split_too_small():
    with pytest.raises(TrainingError):
        split(range(2), (1, 1, 1), seed=0)


@pytest.mark.parametrize("proportions", [(math.nan, 1, 1), (1, math.inf, 1),
                                         (1, 1, -math.inf)])
def test_split_rejects_non_finite_proportions(proportions):
    with pytest.raises(TrainingError):
        split(range(4), proportions, seed=0)


# ---------------------------------------------------------------------------
# objective

def test_objective_arithmetic():
    config = TrainConfig(top_k=1, aggregation="first")
    records = [
        make_record(0, [((0.0,), 1, 75.0, 75.0)]),
        make_record(1, [((0.0,), 0, 75.0, 75.0)]),
    ]
    assert objective(records, [1.0], config) == pytest.approx((50 + 75 + 75) / 3)


def test_objective_perfect_corpus():
    config = TrainConfig()
    records = [make_record(i, [((0.0, 0.0), 0, 100.0, 100.0)]) for i in range(4)]
    assert objective(records, [1.0, 1.0], config) == 100.0


def test_objective_invariant_under_positive_scaling():
    rng = random.Random(4)
    config = TrainConfig(top_k=3, aggregation="mean_of_k")
    records = []
    for sid in range(20):
        entries = [(tuple(rng.randint(0, 5) for _ in range(4)),
                    rng.randint(0, 3), rng.uniform(0, 100), rng.uniform(0, 100))
                   for _ in range(5)]
        records.append(make_record(sid, entries))
    w = [rng.uniform(0.1, 2.0) for _ in range(4)]
    assert objective(records, w, config) == objective(records, [3.0 * x for x in w],
                                                      config)


def test_zero_parse_sentence_counts_against_objective():
    config = TrainConfig(top_k=1, aggregation="first")
    records = [make_record(0, [((0.0,), 0, 100.0, 100.0)]),
               SentenceRecord(1, [])]
    scores = evaluate_set(records, [1.0], config)
    assert scores.coverage_failures == 1
    assert scores.zero_crossing_pct == 50.0
    assert scores.recall_pct == 50.0


# ---------------------------------------------------------------------------
# step

def _initial_state(records, config, weights):
    rng = random.Random(config.seed)
    train_obj = objective(records, weights, config)
    return tr.TrainState(list(weights), train_obj, 0.0, 0.0, list(weights),
                         0, 0, 0, rng.getstate())


def test_step_rejects_when_objective_cannot_improve():
    # single-candidate sentences make the objective weight-independent
    config = TrainConfig(top_k=1, aggregation="first", seed=5)
    records = [make_record(0, [((1.0, 1.0), 1, 50.0, 50.0)])]
    state = _initial_state(records, config, [1.0, 1.0])
    cache = tr.RankCache(records, state.weights, config)
    for _ in range(20):
        entry, scores = step(state, config, cache, ["h0", "h1"])
        assert not entry.accepted
    assert state.weights == [1.0, 1.0]
    assert state.attempts == 20
    assert state.accepted == 0


def test_step_accepts_improving_perturbation():
    config = TrainConfig(top_k=1, aggregation="first", seed=1, delta_scale=0.5)
    records = list(threshold_corpus([1.1, 1.2, 1.3]).values())
    state = _initial_state(records, config, [1.0, 1.0])
    before = evaluate_set(records, state.weights, config).objective()
    cache = tr.RankCache(records, state.weights, config)
    accepted_objectives = []
    for _ in range(200):
        entry, scores = step(state, config, cache, ["h0", "h1"])
        if entry.accepted:
            accepted_objectives.append(entry.train_objective)
    assert accepted_objectives, "no accepting step found"
    assert accepted_objectives[0] > before
    assert accepted_objectives == sorted(accepted_objectives)
    assert all(b > a for a, b in zip(accepted_objectives, accepted_objectives[1:]))


# ---------------------------------------------------------------------------
# train

def test_train_terminates_at_cap_when_optimal():
    config = TrainConfig(top_k=1, aggregation="first", max_iterations=40, seed=3)
    records = {0: make_record(0, [((1.0,), 0, 100.0, 100.0)]),
               1: make_record(1, [((1.0,), 0, 100.0, 100.0)]),
               2: make_record(2, [((1.0,), 0, 100.0, 100.0)])}
    spec = tr.SplitSpec((0,), (1,), (2,), seed=0)
    result = train(records, spec, config, [1.0])
    assert result.state.attempts == 40
    assert result.state.accepted == 0
    assert result.weights == [1.0]


def test_three_strikes_terminates():
    # held-out sentences have one candidate each, so its score never moves
    config = TrainConfig(top_k=1, aggregation="first", strike_limit=3,
                         max_iterations=5000, seed=11)
    records = dict(threshold_corpus([1.1, 1.9, 2.8, 3.6, 4.5, 5.5, 6.5, 8.0]))
    base = len(records)
    for offset in range(3):
        records[base + offset] = make_record(base + offset,
                                             [((1.0, 1.0), 0, 80.0, 80.0)])
    spec = tr.SplitSpec(tuple(range(base)), (base, base + 1, base + 2), (),
                        seed=0)
    result = train(records, spec, config, [1.0, 1.0])
    assert result.state.strikes == 3
    assert result.state.accepted == 3
    assert result.state.attempts < 5000
    heldout = [e.heldout_objective for e in result.entries if e.accepted]
    assert heldout == [heldout[0]] * 3


def test_train_recovers_threshold_corpus():
    config = TrainConfig(top_k=1, aggregation="first", strike_limit=10,
                         max_iterations=600, seed=2)
    records = dict(threshold_corpus([1.05 + 0.05 * i for i in range(12)]))
    train_ids = tuple(range(0, 8))
    heldout_ids = tuple(range(8, 12))
    spec = tr.SplitSpec(train_ids, heldout_ids, (), seed=0)
    result = train(records, spec, config, [1.0, 1.0])
    final = objective([records[i] for i in train_ids], result.weights, config)
    initial = objective([records[i] for i in train_ids], [1.0, 1.0], config)
    assert final > initial
    accepted = [e.train_objective for e in result.entries if e.accepted]
    assert accepted == sorted(accepted) and len(set(accepted)) == len(accepted)


def test_best_heldout_checkpoint_returned():
    config = TrainConfig(top_k=1, aggregation="first", strike_limit=3,
                         max_iterations=400, seed=9)
    records = dict(threshold_corpus([1.02 + 0.07 * i for i in range(10)]))
    ids = tuple(records)
    spec = tr.SplitSpec(ids[:6], ids[6:], (), seed=0)
    result = train(records, spec, config, [1.0, 1.0])
    heldout = [records[i] for i in spec.heldout_ids]
    returned = objective(heldout, result.weights, config)
    assert returned == result.state.best_heldout
    assert all(returned >= e.heldout_objective for e in result.entries if e.accepted)


def test_train_never_touches_test_records():
    config = TrainConfig(top_k=1, aggregation="first", max_iterations=50, seed=0)
    records = dict(threshold_corpus([1.1, 1.2, 1.3, 1.4]))
    # TEST ids are absent from the record map entirely
    spec = tr.SplitSpec((0, 1), (2, 3), (997, 998, 999), seed=0)
    result = train(records, spec, config, [1.0, 1.0])
    assert result.state.attempts == 50


def test_train_requires_nonempty_sets():
    config = TrainConfig()
    records = dict(threshold_corpus([1.1]))
    with pytest.raises(TrainingError):
        train(records, tr.SplitSpec((), (0,), (), 0), config, [1.0, 1.0])


def test_train_deterministic_and_log_serializable():
    config = TrainConfig(top_k=1, aggregation="first", strike_limit=4,
                         max_iterations=120, seed=21)
    records = dict(threshold_corpus([1.02 + 0.06 * i for i in range(10)]))
    ids = tuple(records)
    spec = tr.SplitSpec(ids[:6], ids[6:], (), seed=5)
    first = train(records, spec, config, [1.0, 1.0])
    second = train(records, spec, config, [1.0, 1.0])
    assert first.weights == second.weights
    lines_a = list(tr.log_lines(first, config, spec))
    lines_b = list(tr.log_lines(second, config, spec))
    assert lines_a == lines_b
    for line in lines_a:
        json.loads(line)


def test_resume_matches_uninterrupted_run(tmp_path):
    records = dict(threshold_corpus([1.02 + 0.06 * i for i in range(10)]))
    ids = tuple(records)
    spec = tr.SplitSpec(ids[:6], ids[6:], (), seed=5)

    full_config = TrainConfig(top_k=1, aggregation="first", strike_limit=100,
                              max_iterations=60, seed=13)
    full = train(records, spec, full_config, [1.0, 1.0])

    half_config = TrainConfig(top_k=1, aggregation="first", strike_limit=100,
                              max_iterations=30, seed=13)
    half = train(records, spec, half_config, [1.0, 1.0])
    log_path = tmp_path / "train.log"
    tr.write_log(log_path, half, half_config, spec)
    state, _ = tr.read_log(log_path)
    resumed = train(records, spec, full_config, [1.0, 1.0], resume_state=state)

    assert half.entries + resumed.entries == full.entries
    assert resumed.weights == full.weights


def test_require_all_metrics_flag():
    # flipping to the gold parse improves the mean but trades recall away
    entries = [((0.0, 1.0), 1, 100.0, 100.0), ((1.5, 0.0), 0, 90.0, 90.0)]
    records = {0: make_record(0, entries), 1: make_record(1, entries)}
    spec = tr.SplitSpec((0,), (1,), (), seed=0)
    relaxed = TrainConfig(top_k=1, aggregation="first", max_iterations=300,
                          seed=6)
    strict = TrainConfig(top_k=1, aggregation="first", max_iterations=300,
                         seed=6, require_all_metrics=True)
    assert train(records, spec, relaxed, [1.0, 1.0]).state.accepted > 0
    assert train(records, spec, strict, [1.0, 1.0]).state.accepted == 0


def test_config_validation():
    with pytest.raises(TrainingError):
        TrainConfig(top_k=0)
    with pytest.raises(TrainingError):
        TrainConfig(delta_scale=0.0)
    for scale in (math.nan, math.inf):
        with pytest.raises(TrainingError, match="not finite"):
            TrainConfig(delta_scale=scale)
    with pytest.raises(TrainingError):
        TrainConfig(strike_limit=0)


def test_delta_scale_whose_perturbation_width_overflows_is_an_error():
    # step draws from [-scale, scale]: at 1e308 the width 2e308 overflows
    # and every draw is infinite; half the largest float is the last scale
    # whose width is finite
    with pytest.raises(TrainingError, match="delta_scale 1e[+]308 is too large: the"
                                            " perturbation width inf is not finite"):
        TrainConfig(delta_scale=1e308)
    largest = TrainConfig(delta_scale=sys.float_info.max / 2)
    assert math.isfinite(random.Random(0).uniform(-largest.delta_scale,
                                                  largest.delta_scale))


# ---------------------------------------------------------------------------
# the rank cache against exhaustive re-scoring

# (crossings, recall, precision) of a bad, a fair and a gold-like candidate:
# a better top candidate raises all three metrics at once
QUALITIES = [(3, 40.0, 50.0), (1, 75.0, 80.0), (0, 100.0, 100.0)]


def random_records(rng, n_sentences, dims, zero_columns):
    """Sentences of 0-9 candidates with small counts, so penalties tie; the
    heuristics in ``zero_columns`` count 0 everywhere, and some candidates
    repeat a vector of their sentence."""
    records = {}
    for sid in range(n_sentences):
        entries = []
        for _ in range(rng.choice([0, 1, 3, 5, 9])):
            if entries and rng.random() < 0.25:
                vector = rng.choice(entries)[0]
            else:
                vector = tuple(0 if i in zero_columns else rng.choice([0, 0, 1, 2])
                               for i in range(dims))
            entries.append((vector,) + rng.choice(QUALITIES))
        records[sid] = make_record(sid, entries)
    return records


def forced_tie_records(rng, n_sentences, dims, top_k):
    """Sentences over a pool of seven vectors shared across sentences (one
    of them another with its zeros negated), the last heuristic counting 0
    everywhere: in turn an empty sentence, one of a single vector, and
    three mixed ones, most of whose candidates come from two of the
    vectors.  Each candidate's metrics are drawn on their own, and every
    single-vector sentence and about two in three mixed ones hold more
    than ``top_k`` candidates of one vector."""
    pool = [tuple(0 if i == dims - 1 else rng.choice([0, 1, 2, 3]) for i in range(dims))
            for _ in range(6)]
    pool.append(tuple(-0.0 if count == 0 else count for count in pool[0]))
    records = {}
    for sid in range(n_sentences):
        kind = sid % 5
        if kind == 0:
            vectors = []
        elif kind == 1:
            vectors = [rng.choice(pool)] * rng.randint(top_k + 1, top_k + 3)
        else:
            vectors = [rng.choice(pool[:2] if rng.random() < 0.5 else pool)
                       for _ in range(rng.randint(top_k + 1, 3 * top_k + 2))]
        records[sid] = make_record(sid, [(vector,) + rng.choice(QUALITIES)
                                         for vector in vectors])
    return records


TRAINER_CASES = [(aggregation, strict) for aggregation in AGGREGATIONS
                 for strict in (False, True)]


def check_against_reference(records, spec, config, initial, names, tmp_path,
                            exhaustive=None):
    """``train`` on ``records`` equals ``reference_train`` on ``exhaustive``
    (by default the same records), fresh and resumed from the log of a run
    cut halfway; returns the fresh run's final state."""
    exhaustive = records if exhaustive is None else exhaustive
    result = train(records, spec, config, initial, heuristic_names=names)
    entries, weights, state = reference_train(exhaustive, spec, config, initial, names)
    assert result.entries == entries
    assert result.weights == weights
    assert result.state == state

    cut = state.attempts // 2
    half_config = TrainConfig(**{**vars(config), "max_iterations": max(cut, 1)})
    half = train(records, spec, half_config, initial, heuristic_names=names)
    tr.write_log(tmp_path / "half.log", half, half_config, spec)
    resume, _ = tr.read_log(tmp_path / "half.log")
    resumed = train(records, spec, config, initial, heuristic_names=names,
                    resume_state=resume)
    resumed_entries, resumed_weights, resumed_state = reference_train(
        exhaustive, spec, config, initial, names,
        resume_state=tr.read_log(tmp_path / "half.log")[0])
    assert resumed.entries == resumed_entries
    assert resumed.weights == resumed_weights
    assert resumed.state == resumed_state
    return state


@pytest.mark.parametrize("aggregation, strict", TRAINER_CASES)
def test_train_matches_exhaustive_reference(aggregation, strict, tmp_path):
    accepted = crossed = 0
    for seed in range(4):
        rng = random.Random(100 * seed + len(aggregation) + strict)
        dims = 5
        records = random_records(rng, 16, dims, zero_columns={seed % dims, 4})
        ids = tuple(records)
        spec = tr.SplitSpec(ids[:8], ids[8:], (), seed=0)
        # weights start at, near and on both sides of zero, and cross it
        initial = [rng.choice([0.0, 0.25, -0.25, 1.0]) for _ in range(dims)]
        names = [f"h{i}" for i in range(dims)]
        config = TrainConfig(top_k=rng.choice([1, 2, 3]), aggregation=aggregation,
                             delta_scale=1.0, strike_limit=6, max_iterations=120,
                             seed=seed, require_all_metrics=strict)
        state = check_against_reference(records, spec, config, initial, names, tmp_path)
        accepted += state.accepted
        crossed += any((a > 0) != (b > 0) for a, b in zip(initial, state.weights))
    assert accepted > 0 and crossed > 0


@pytest.mark.parametrize("aggregation, strict", TRAINER_CASES)
def test_train_matches_exhaustive_reference_on_forced_ties(aggregation, strict,
                                                           tmp_path):
    accepted = unscored = 0
    for seed in range(4):
        rng = random.Random(1000 + 100 * seed + len(aggregation) + strict)
        dims = 4
        top_k = rng.choice([1, 2, 3])
        records = forced_tie_records(rng, 30, dims, top_k)
        ids = tuple(records)
        spec = tr.SplitSpec(ids[:15], ids[15:], (), seed=0)
        initial = [rng.choice([0.0, 0.25, -0.25, 1.0]) for _ in range(dims)]
        config = TrainConfig(top_k=top_k, aggregation=aggregation, delta_scale=1.0,
                             strike_limit=6, max_iterations=200, seed=seed,
                             require_all_metrics=strict)
        names = [f"h{i}" for i in range(dims)]
        state = check_against_reference(records, spec, config, initial, names, tmp_path)
        # the records scored only where a top-k ranking can reach
        blanked = blank_unreachable(records, top_k)
        assert check_against_reference(blanked, spec, config, initial, names, tmp_path,
                                       exhaustive=records) == state
        unscored += sum(c.scores is None for r in blanked.values() for c in r.candidates)
        accepted += state.accepted
    assert accepted > 0 and unscored > 0


def test_records_scored_for_a_smaller_top_k_are_an_error():
    rng = random.Random(11)
    records = blank_unreachable(forced_tie_records(rng, 30, 4, 2), 2)
    ids = tuple(records)
    spec = tr.SplitSpec(ids[:15], ids[15:], (), seed=0)
    for top_k in (1, 2):
        config = TrainConfig(top_k=top_k, max_iterations=20)
        train(records, spec, config, [1.0] * 4)
        evaluate_set(list(records.values()), [1.0] * 4, config)
    config = TrainConfig(top_k=3, max_iterations=20)
    with pytest.raises(TrainingError, match="built for a smaller top k"):
        train(records, spec, config, [1.0] * 4)
    with pytest.raises(TrainingError, match="built for a smaller top k"):
        evaluate_set(list(records.values()), [1.0] * 4, config)


def test_rank_cache_follows_any_weight_change():
    rng = random.Random(7)
    dims = 4
    records = list(random_records(rng, 30, dims, zero_columns={2}).values())
    config = TrainConfig(top_k=3, aggregation="mean_of_k")
    weights = [1.0, 0.0, 0.5, -0.5]
    cache = tr.RankCache(records, weights, config)
    for _ in range(60):
        moved = list(cache.weights)
        for index in rng.sample(range(dims), rng.randint(0, dims)):
            moved[index] += rng.uniform(-1.0, 1.0)
        trial = cache.rescore(moved)
        assert trial.scores == evaluate_set(records, moved, config)
        assert trial.scores == reference_evaluate(records, moved, config)
        if rng.random() < 0.5:
            cache.commit(trial)
            assert cache.scores == evaluate_set(records, moved, config)
            assert cache.scores == reference_evaluate(records, moved, config)
    assert cache.scores == evaluate_set(records, cache.weights, config)
    assert cache.scores == reference_evaluate(records, cache.weights, config)


def test_an_attempt_scores_each_distinct_vector_once(monkeypatch):
    rng = random.Random(5)
    dims = 4
    config = TrainConfig(top_k=2, aggregation="mean_of_k", delta_scale=1.0, seed=3)
    records = list(forced_tie_records(rng, 24, dims, config.top_k).values())
    names = [f"h{i}" for i in range(dims)]
    state = _initial_state(records, config, [1.0] * dims)
    cache = tr.RankCache(records, state.weights, config)
    distinct = {c.vector for r in records for c in r.candidates}
    calls = []

    def counted(vector, weights):
        calls.append(vector)
        return heuristics.score(vector, weights)

    monkeypatch.setattr(tr, "score", counted)
    perturbed = set()
    for _ in range(60):
        calls.clear()
        entry, _ = step(state, config, cache, names)
        index = names.index(entry.heuristic)
        assert len(calls) == len(set(calls))
        assert set(calls) == {vector for vector in distinct if vector[index]}
        perturbed.add(index)
    assert perturbed == set(range(dims))
    assert not any(vector[dims - 1] for vector in distinct)


# ---------------------------------------------------------------------------
# records scored only where a top-k ranking can reach

@pytest.fixture(scope="module")
def ladder_records():
    """The of-PP ladder at 6 to 21 words (cap 3), each sentence against
    three golds: the first parse at two hidden weight vectors that prefer
    high attachment, and the last parse, which no top 6 reaches at 18 and
    21 words.  Returns (analyses, golds, exhaustive records)."""
    grammar = lt.loads(OFPP_GRAMMAR)
    registry = heuristics.default_registry()
    names = registry.names()
    config = PipelineConfig(adjunction_cap=3)
    rng = random.Random(22)
    hidden = []
    for _ in range(2):
        weights = [rng.uniform(0.5, 1.5) for _ in names]
        weights[names.index("pp_attachment_height")] = -rng.uniform(0.5, 1.5)
        hidden.append(weights)
    analyses, golds = [], []
    for pps in range(6):
        text = "the/D second/A part/N is/V the/D name/N" + " of/P the/D part/N" * pps
        analysis = lt.analyze_sentence(grammar, tag(text), registry,
                                       heuristics.uniform_weights(registry), config)
        parses = analysis.parses
        for weights in hidden:
            best = min(range(len(parses)),
                       key=lambda i: (heuristics.score(parses[i].vector, weights), i))
            analyses.append(analysis)
            golds.append(parses[best].derived.root)
        analyses.append(analysis)
        golds.append(parses[-1].derived.root)
    golds = [flatten(gold, FLATTEN) for gold in golds]
    return analyses, golds, reference_records(analyses, golds, "standard", FLATTEN)


@pytest.mark.parametrize("built_at, trained_at", [(None, 6), (None, 2), (1, 1)],
                         ids=["default-6", "default-2", "1-1"])
def test_train_on_reachable_records_matches_exhaustive_reference_on_ladder(
        ladder_records, built_at, trained_at, tmp_path):
    # records scored only where a top-k ranking can reach, at the default
    # top k or at 1, train as the exhaustive records do at that top k or a
    # smaller one, and refuse a larger one
    analyses, golds, exhaustive = ladder_records
    if built_at is None:
        records = build_records(analyses, golds, "standard", FLATTEN)
        built_at = TrainConfig.top_k
    else:
        records = build_records(analyses, golds, "standard", FLATTEN, built_at)
    assert records == blank_unreachable(exhaustive, built_at)
    assert any(c.scores is None for r in records.values() for c in r.candidates)
    ids = tuple(records)
    spec = tr.SplitSpec(ids[0::2], ids[1::2], (), seed=0)
    names = heuristics.default_registry().names()
    config = TrainConfig(top_k=trained_at, delta_scale=2.0, strike_limit=201,
                         max_iterations=200, seed=3)
    state = check_against_reference(records, spec, config, [1.0] * len(names), names,
                                    tmp_path, exhaustive=exhaustive)
    assert state.accepted > 0
    with pytest.raises(TrainingError, match="built for a smaller top k"):
        train(records, spec, TrainConfig(top_k=built_at + 1), [1.0] * len(names))

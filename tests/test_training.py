import json
import math
import random

import pytest

import ltagrank.training as tr
from ltagrank.parseval import EvalScores
from ltagrank.training import (Candidate, SentenceRecord, TrainConfig,
                               TrainingError, evaluate_set, objective, split,
                               step, train)


def make_record(sid, entries):
    candidates = []
    for vector, crossing, recall, precision in entries:
        scores = EvalScores(float(crossing), crossing == 0, float(recall),
                            float(precision), 0.0, 0.0, 0.0)
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
    scores = evaluate_set(records, state.weights, config)
    for _ in range(20):
        entry, scores = step(state, config, records, ["h0", "h1"], scores)
        assert not entry.accepted
    assert state.weights == [1.0, 1.0]
    assert state.attempts == 20
    assert state.accepted == 0


def test_step_accepts_improving_perturbation():
    config = TrainConfig(top_k=1, aggregation="first", seed=1, delta_scale=0.5)
    records = list(threshold_corpus([1.1, 1.2, 1.3]).values())
    state = _initial_state(records, config, [1.0, 1.0])
    scores = evaluate_set(records, state.weights, config)
    before = scores.objective()
    accepted_objectives = []
    for _ in range(200):
        entry, scores = step(state, config, records, ["h0", "h1"], scores)
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
    assert result.heldout_history == [result.heldout_history[0]] * 3


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
    assert all(returned >= h for h in result.heldout_history)


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
    state = tr.read_log_state(log_path)
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

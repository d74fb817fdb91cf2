"""Weight training by random single-heuristic perturbation with held-out control.

Sentences are parsed and scored against gold once, up front; the loop only
re-ranks cached candidates.  Each step perturbs one randomly chosen weight by
a uniform random amount and keeps the change iff the TRAIN objective strictly
improves.  Every accepted step re-scores HELD-OUT; three consecutive
non-improvements there (configurable) stop the run.  The returned weights are
the best held-out checkpoint seen, which is what the held-out set is for.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field, asdict

from .heuristics import score
from .parseval import CorpusScores, EvalScores, aggregate_scores, corpus_scores


class TrainingError(Exception):
    pass


@dataclass(frozen=True)
class Candidate:
    """One cached parse: its heuristic counts and its metrics against gold."""

    vector: tuple[float, ...]
    scores: EvalScores


@dataclass
class SentenceRecord:
    sid: object
    candidates: list[Candidate]


@dataclass(frozen=True)
class SplitSpec:
    train_ids: tuple
    heldout_ids: tuple
    test_ids: tuple
    seed: int


def split(ids, proportions, seed: int) -> SplitSpec:
    """Randomly partition sentence ids into TRAIN / HELD-OUT / TEST.

    ``proportions`` are three numbers: exact sizes when they sum to the
    corpus size, otherwise ratios resolved by largest remainder.
    """
    ids = list(ids)
    if len(ids) < 3:
        raise TrainingError(f"corpus of {len(ids)} sentences cannot be split three ways")
    if len(proportions) != 3 or any(p < 0 for p in proportions):
        raise TrainingError("proportions must be three non-negative numbers")
    total = sum(proportions)
    if total <= 0:
        raise TrainingError("proportions must not all be zero")
    if total == len(ids):
        sizes = [int(p) for p in proportions]
    else:
        exact = [p * len(ids) / total for p in proportions]
        sizes = [int(x) for x in exact]
        leftover = len(ids) - sum(sizes)
        by_fraction = sorted(range(3), key=lambda i: (-(exact[i] - sizes[i]), i))
        for i in range(leftover):
            sizes[by_fraction[i % 3]] += 1
    rng = random.Random(seed)
    shuffled = list(ids)
    rng.shuffle(shuffled)
    train = shuffled[:sizes[0]]
    heldout = shuffled[sizes[0]:sizes[0] + sizes[1]]
    test = shuffled[sizes[0] + sizes[1]:]
    return SplitSpec(tuple(sorted(train)), tuple(sorted(heldout)),
                     tuple(sorted(test)), seed)


@dataclass
class TrainConfig:
    top_k: int = 6
    aggregation: str = "mean_of_k"
    delta_scale: float = 0.5
    strike_limit: int = 3
    max_iterations: int = 10000
    seed: int = 0
    require_all_metrics: bool = False

    def __post_init__(self):
        if self.top_k < 1 or self.delta_scale <= 0 or self.strike_limit < 1 \
                or self.max_iterations < 1:
            raise TrainingError("config values must be positive")
        if not math.isfinite(self.delta_scale):
            raise TrainingError(f"delta_scale {self.delta_scale} is not finite")


def sentence_scores(record: SentenceRecord, weights, top_k: int,
                    aggregation: str) -> EvalScores | None:
    """Rank the cached candidates and aggregate the top k; None if no parses."""
    if not record.candidates:
        return None
    order = sorted(range(len(record.candidates)),
                   key=lambda i: (score(record.candidates[i].vector, weights), i))
    top = [record.candidates[i].scores for i in order[:top_k]]
    return aggregate_scores(top, aggregation)


def evaluate_set(records: list[SentenceRecord], weights,
                 config: TrainConfig) -> CorpusScores:
    per_sentence = [sentence_scores(r, weights, config.top_k, config.aggregation)
                    for r in records]
    return corpus_scores(per_sentence)


def objective(records: list[SentenceRecord], weights, config: TrainConfig) -> float:
    return evaluate_set(records, weights, config).objective()


@dataclass(frozen=True)
class LogEntry:
    attempt: int
    heuristic: str
    delta: float
    train_objective: float
    accepted: bool
    heldout_objective: float | None


@dataclass
class TrainState:
    weights: list[float]
    train_objective: float
    heldout_last: float
    best_heldout: float
    best_weights: list[float]
    strikes: int
    attempts: int
    accepted: int
    rng_state: tuple

    def to_dict(self) -> dict:
        d = asdict(self)
        d["rng_state"] = [self.rng_state[0], list(self.rng_state[1]), self.rng_state[2]]
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "TrainState":
        rng_state = (d["rng_state"][0], tuple(d["rng_state"][1]), d["rng_state"][2])
        return cls(list(d["weights"]), d["train_objective"], d["heldout_last"],
                   d["best_heldout"], list(d["best_weights"]), d["strikes"],
                   d["attempts"], d["accepted"], rng_state)


@dataclass
class TrainResult:
    weights: list[float]
    entries: list[LogEntry]
    state: TrainState
    heldout_history: list[float] = field(default_factory=list)


def _improved(config: TrainConfig, old_scores: CorpusScores,
              new_scores: CorpusScores) -> bool:
    if not config.require_all_metrics:
        return new_scores.objective() > old_scores.objective()
    return (new_scores.zero_crossing_pct > old_scores.zero_crossing_pct
            and new_scores.recall_pct > old_scores.recall_pct
            and new_scores.precision_pct > old_scores.precision_pct)


def step(state: TrainState, config: TrainConfig, train_records, heuristic_names,
         train_scores: CorpusScores):
    """One perturbation attempt: mutate state, return (LogEntry, new train scores).

    Picks a heuristic uniformly at random, shifts its weight by a uniform
    draw from [-delta_scale, +delta_scale], and keeps the change iff the
    TRAIN objective strictly improves.  Held-out bookkeeping is the caller's.
    """
    rng = random.Random()
    rng.setstate(state.rng_state)
    state.attempts += 1
    index = rng.randrange(len(state.weights))
    delta = rng.uniform(-config.delta_scale, config.delta_scale)
    candidate = list(state.weights)
    candidate[index] += delta
    candidate_scores = evaluate_set(train_records, candidate, config)
    accepted = _improved(config, train_scores, candidate_scores)
    if accepted:
        state.weights = candidate
        state.train_objective = candidate_scores.objective()
        state.accepted += 1
        train_scores = candidate_scores
    state.rng_state = rng.getstate()
    entry = LogEntry(state.attempts, heuristic_names[index], delta,
                     candidate_scores.objective(), accepted, None)
    return entry, train_scores


def train(records_by_id: dict, spec: SplitSpec, config: TrainConfig,
          initial_weights, heuristic_names=None,
          resume_state: TrainState | None = None) -> TrainResult:
    """Hill-climb the weight vector on TRAIN with held-out early stopping.

    Only TRAIN and HELD-OUT sentences are ever scored.  Deterministic given
    (records, spec, config, initial weights): reruns produce identical logs.
    """
    train_records = [records_by_id[sid] for sid in spec.train_ids]
    heldout_records = [records_by_id[sid] for sid in spec.heldout_ids]
    if not train_records or not heldout_records:
        raise TrainingError("TRAIN and HELD-OUT must both be non-empty")
    names = list(heuristic_names) if heuristic_names else \
        [f"h{i}" for i in range(len(initial_weights))]
    if len(names) != len(initial_weights):
        raise TrainingError("heuristic names do not match the weight vector")

    if resume_state is None:
        rng = random.Random(config.seed)
        weights = list(initial_weights)
        train_obj = objective(train_records, weights, config)
        heldout_last = objective(heldout_records, weights, config)
        state = TrainState(weights, train_obj, heldout_last, heldout_last,
                           list(weights), 0, 0, 0, rng.getstate())
    else:
        state = resume_state

    entries: list[LogEntry] = []
    heldout_history: list[float] = []
    train_scores = evaluate_set(train_records, state.weights, config)
    while state.attempts < config.max_iterations and state.strikes < config.strike_limit:
        entry, train_scores = step(state, config, train_records, names, train_scores)
        if entry.accepted:
            heldout_obj = objective(heldout_records, state.weights, config)
            heldout_history.append(heldout_obj)
            if heldout_obj > state.heldout_last:
                state.strikes = 0
            else:
                state.strikes += 1
            if heldout_obj > state.best_heldout:
                state.best_heldout = heldout_obj
                state.best_weights = list(state.weights)
            state.heldout_last = heldout_obj
            entry = LogEntry(entry.attempt, entry.heuristic, entry.delta,
                             entry.train_objective, True, heldout_obj)
        entries.append(entry)
    return TrainResult(list(state.best_weights), entries, state, heldout_history)


# ---------------------------------------------------------------------------
# log serialization

def log_lines(result: TrainResult, config: TrainConfig, spec: SplitSpec):
    yield json.dumps({"type": "config", "top_k": config.top_k,
                      "aggregation": config.aggregation,
                      "delta_scale": config.delta_scale,
                      "strike_limit": config.strike_limit,
                      "max_iterations": config.max_iterations,
                      "seed": config.seed,
                      "require_all_metrics": config.require_all_metrics,
                      "split_seed": spec.seed,
                      "sizes": [len(spec.train_ids), len(spec.heldout_ids),
                                len(spec.test_ids)]})
    for entry in result.entries:
        yield json.dumps({"type": "attempt", "attempt": entry.attempt,
                          "heuristic": entry.heuristic, "delta": entry.delta,
                          "train_objective": entry.train_objective,
                          "accepted": entry.accepted,
                          "heldout_objective": entry.heldout_objective})
    yield json.dumps({"type": "state", **result.state.to_dict()})


def write_log(path, result: TrainResult, config: TrainConfig, spec: SplitSpec) -> None:
    with open(path, "w") as handle:
        for line in log_lines(result, config, spec):
            handle.write(line + "\n")


def read_log_state(path) -> TrainState:
    """Recover the trainer state from the end of a log, for --resume."""
    state = None
    with open(path) as handle:
        for line in handle:
            record = json.loads(line)
            if record.get("type") == "state":
                state = TrainState.from_dict(record)
    if state is None:
        raise TrainingError(f"no state record found in {path}")
    return state

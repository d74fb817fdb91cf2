"""Weight training by random single-heuristic perturbation with held-out control.

Sentences are parsed and scored against gold once, up front; the loop only
re-ranks cached candidates.  Each step perturbs one randomly chosen weight by
a uniform random amount and keeps the change iff the TRAIN objective strictly
improves.  Every accepted step re-scores HELD-OUT; three consecutive
non-improvements there (configurable) stop the run.  The returned weights are
the best held-out checkpoint seen, which is what the held-out set is for.

TRAIN is ranked through a ``RankCache``: every candidate's penalty, every
sentence's top-k aggregate, and per heuristic the candidates that count
non-zero there.  An attempt changes one weight, so it re-scores only the
candidates non-zero at that heuristic, with the full dot product, and
re-ranks only their sentences; on the toy grammars most heuristics count
zero on every candidate, and their attempts re-score nothing.  Every other
candidate's penalty is the same sum up to the sign of a zero, since its
product at that heuristic is zero before and after (weights are finite), so
orders, aggregates, objectives and the log equal those of re-scoring
everything (``evaluate_set``) on every attempt.  HELD-OUT is re-scored in
full with ``evaluate_set``, once per accepted step.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, asdict

from .grammar import open_text
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

    ``proportions`` are three ratios resolved by largest remainder; whole
    numbers that sum to the corpus size come out as exactly those sizes.
    """
    ids = list(ids)
    if len(ids) < 3:
        raise TrainingError(f"corpus of {len(ids)} sentences cannot be split three ways")
    if len(proportions) != 3 or not all(0 <= p < math.inf for p in proportions):
        raise TrainingError("proportions must be three finite non-negative numbers")
    total = sum(proportions)
    if total <= 0:
        raise TrainingError("proportions must not all be zero")
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


def rank_top_k(candidates, penalties, top_k: int, aggregation: str):
    """Order one sentence's candidates by (penalty, index) and aggregate the
    scores of the first ``top_k``; None when there are no candidates."""
    return _aggregate(candidates, _top(penalties, top_k), aggregation)


def _top(penalties, top_k: int) -> tuple[int, ...]:
    """The indices of the first ``top_k`` candidates by (penalty, index)."""
    return tuple(sorted(range(len(penalties)), key=penalties.__getitem__)[:top_k])


def _aggregate(candidates, top, aggregation: str):
    if not top:
        return None
    return aggregate_scores([candidates[i].scores for i in top], aggregation)


def evaluate_set(records: list[SentenceRecord], weights,
                 config: TrainConfig) -> CorpusScores:
    """Score every candidate of every sentence at ``weights`` and rank them."""
    per_sentence = []
    for record in records:
        penalties = [score(c.vector, weights) for c in record.candidates]
        per_sentence.append(rank_top_k(record.candidates, penalties, config.top_k,
                                       config.aggregation))
    return corpus_scores(per_sentence)


@dataclass
class Rescore:
    """The ranking of a split at other weights, as far as it differs from
    the cache it came from: sentence position -> (penalties, top-k indices,
    aggregate)."""

    weights: list[float]
    sentences: dict
    scores: CorpusScores


class RankCache:
    """The ranking of one split at one weight vector, updated incrementally.

    Per sentence it holds each candidate's penalty, the indices of its top
    ``top_k`` candidates and their ``rank_top_k`` aggregate; per heuristic
    index, the candidates whose count there is non-zero, by sentence.
    Moving to weights that differ at some indices re-scores only the
    candidates non-zero at one of them, with the full ``score``, and
    re-ranks only their sentences; a sentence whose top indices stay the
    same keeps its aggregate, which they alone fix.  That is exact:
    any other candidate's products at those indices are zeros before and
    after (the weights are finite), so its penalty is the same sum up to
    the sign of a zero, which compares equal, and every order, aggregate
    and corpus score equals that of ``evaluate_set`` at the new weights.
    """

    def __init__(self, records: list[SentenceRecord], weights, config: TrainConfig):
        self.records = records
        self.config = config
        self.weights = list(weights)
        self.penalties = [[score(c.vector, self.weights) for c in r.candidates]
                          for r in records]
        self.tops = [_top(penalties, config.top_k) for penalties in self.penalties]
        self.aggregates = [_aggregate(r.candidates, top, config.aggregation)
                           for r, top in zip(records, self.tops)]
        self.scores = corpus_scores(self.aggregates)
        self.touching = [{} for _ in self.weights]
        for position, record in enumerate(records):
            for number, candidate in enumerate(record.candidates):
                for index, count in enumerate(candidate.vector):
                    if count:
                        self.touching[index].setdefault(position, []).append(number)

    def rescore(self, weights) -> Rescore:
        """The ranking at ``weights``; the cache itself is left as it is."""
        weights = list(weights)
        changed = [i for i, (old, new) in enumerate(zip(self.weights, weights))
                   if old != new]
        touched = {}
        for index in changed:
            for position, numbers in self.touching[index].items():
                touched.setdefault(position, set()).update(numbers)
        sentences = {}
        per_sentence = list(self.aggregates)
        for position, numbers in touched.items():
            candidates = self.records[position].candidates
            penalties = list(self.penalties[position])
            for number in numbers:
                penalties[number] = score(candidates[number].vector, weights)
            top = _top(penalties, self.config.top_k)
            if top != self.tops[position]:
                per_sentence[position] = _aggregate(candidates, top,
                                                    self.config.aggregation)
            sentences[position] = (penalties, top, per_sentence[position])
        return Rescore(weights, sentences, corpus_scores(per_sentence))

    def commit(self, rescore: Rescore) -> None:
        """Move the cache to the weights of ``rescore``, which it made."""
        self.weights = rescore.weights
        for position, (penalties, top, aggregate) in rescore.sentences.items():
            self.penalties[position] = penalties
            self.tops[position] = top
            self.aggregates[position] = aggregate
        self.scores = rescore.scores


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
        """The state of a state record; raises KeyError, TypeError, IndexError
        or ValueError on a record that ``step`` could not continue from."""
        rng_state = (d["rng_state"][0], tuple(d["rng_state"][1]), d["rng_state"][2])
        random.Random().setstate(rng_state)
        if not all(type(d[key]) is int for key in ("strikes", "attempts", "accepted")):
            raise TypeError("strikes, attempts and accepted must be integers")
        if not all(_finite(d[key]) for key in ("train_objective", "heldout_last",
                                               "best_heldout")):
            raise ValueError("the objectives must be finite numbers")
        return cls(list(d["weights"]), d["train_objective"], d["heldout_last"],
                   d["best_heldout"], list(d["best_weights"]), d["strikes"],
                   d["attempts"], d["accepted"], rng_state)


@dataclass
class TrainResult:
    weights: list[float]
    entries: list[LogEntry]
    state: TrainState


def _improved(config: TrainConfig, old_scores: CorpusScores,
              new_scores: CorpusScores) -> bool:
    if not config.require_all_metrics:
        return new_scores.objective() > old_scores.objective()
    return (new_scores.zero_crossing_pct > old_scores.zero_crossing_pct
            and new_scores.recall_pct > old_scores.recall_pct
            and new_scores.precision_pct > old_scores.precision_pct)


def step(state: TrainState, config: TrainConfig, train_cache: RankCache,
         heuristic_names):
    """One perturbation attempt: mutate state, return (LogEntry, TRAIN scores).

    Picks a heuristic uniformly at random, shifts its weight by a uniform
    draw from [-delta_scale, +delta_scale], and keeps the change iff the
    TRAIN objective strictly improves.  ``train_cache`` ranks TRAIN at
    ``state.weights``; the trial re-scores only the candidates with a
    non-zero count at the perturbed heuristic (see ``RankCache``), and an
    accepted step commits it.  The scores returned are those at the
    weights kept.  Held-out bookkeeping is the caller's.
    """
    rng = random.Random()
    rng.setstate(state.rng_state)
    state.attempts += 1
    index = rng.randrange(len(state.weights))
    delta = rng.uniform(-config.delta_scale, config.delta_scale)
    candidate = list(state.weights)
    candidate[index] += delta
    trial = train_cache.rescore(candidate)
    accepted = _improved(config, train_cache.scores, trial.scores)
    if accepted:
        train_cache.commit(trial)
        state.weights = candidate
        state.train_objective = trial.scores.objective()
        state.accepted += 1
    state.rng_state = rng.getstate()
    entry = LogEntry(state.attempts, heuristic_names[index], delta,
                     trial.scores.objective(), accepted, None)
    return entry, train_cache.scores


def train(records_by_id: dict, spec: SplitSpec, config: TrainConfig,
          initial_weights, heuristic_names=None,
          resume_state: TrainState | None = None) -> TrainResult:
    """Hill-climb the weight vector on TRAIN with held-out early stopping.

    Only TRAIN and HELD-OUT sentences are ever scored.  TRAIN goes through a
    ``RankCache`` built once at the starting weights (``state.weights`` when
    resuming), so every attempt re-scores only the TRAIN candidates its
    heuristic touches; HELD-OUT is re-scored in full after each accepted
    step.  The log, weights and state are those of re-scoring every
    candidate on every attempt.  Deterministic given (records, spec, config,
    initial weights): reruns produce identical logs.
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
        weights = list(initial_weights)
        train_cache = RankCache(train_records, weights, config)
        heldout_last = evaluate_set(heldout_records, weights, config).objective()
        state = TrainState(weights, train_cache.scores.objective(), heldout_last,
                           heldout_last, list(weights), 0, 0, 0,
                           random.Random(config.seed).getstate())
    else:
        state = resume_state
        if len(state.weights) != len(names) or len(state.best_weights) != len(names):
            raise TrainingError(
                f"resumed weight vector has {len(state.weights)} entries"
                f" but there are {len(names)} heuristics")
        train_cache = RankCache(train_records, state.weights, config)

    entries: list[LogEntry] = []
    while state.attempts < config.max_iterations and state.strikes < config.strike_limit:
        entry, _ = step(state, config, train_cache, names)
        if entry.accepted:
            heldout_obj = evaluate_set(heldout_records, state.weights,
                                       config).objective()
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
    return TrainResult(list(state.best_weights), entries, state)


# ---------------------------------------------------------------------------
# log serialization

def log_lines(result: TrainResult, config: TrainConfig, spec: SplitSpec, earlier=()):
    """The log's records: the config, then ``earlier`` (the attempt records
    of the log a run resumed from, verbatim), the run's attempts and its state."""
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
    yield from earlier
    for entry in result.entries:
        yield json.dumps({"type": "attempt", "attempt": entry.attempt,
                          "heuristic": entry.heuristic, "delta": entry.delta,
                          "train_objective": entry.train_objective,
                          "accepted": entry.accepted,
                          "heldout_objective": entry.heldout_objective})
    yield json.dumps({"type": "state", **result.state.to_dict()})


def write_log(path, result: TrainResult, config: TrainConfig, spec: SplitSpec,
              earlier=()) -> None:
    with open(path, "w") as handle:
        for line in log_lines(result, config, spec, earlier):
            handle.write(line + "\n")


def read_log(path) -> tuple[TrainState, list[str]]:
    """The trainer state at the end of a log and the log's attempt records,
    verbatim, for --resume."""
    state, attempts = None, []
    with open_text(path) as handle:
        for number, line in enumerate(handle, start=1):
            try:
                record = json.loads(line)
            except ValueError:
                raise TrainingError(f"{path}, line {number}: not a JSON record") from None
            kind = record.get("type") if isinstance(record, dict) else None
            if kind == "attempt":
                attempts.append(line.rstrip("\n"))
            elif kind == "state":
                try:
                    state = TrainState.from_dict(record)
                except (KeyError, TypeError, IndexError, ValueError) as exc:
                    raise TrainingError(
                        f"{path}, line {number}: malformed state record"
                        f" ({type(exc).__name__}: {exc})") from None
                if not all(_finite(w) for w in state.weights + state.best_weights):
                    raise TrainingError(f"{path}, line {number}: state record holds"
                                        " a weight that is not a finite number")
    if state is None:
        raise TrainingError(f"no state record found in {path}")
    return state, attempts


def _finite(value) -> bool:
    return isinstance(value, (int, float)) and math.isfinite(value)

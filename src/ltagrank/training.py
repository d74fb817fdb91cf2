"""Weight training by random single-heuristic perturbation with held-out control.

Sentences are parsed and scored against gold once, up front; the loop only
re-ranks cached candidates, and only those a top k can reach
(``reachable``) need scores.  Each step perturbs one randomly chosen weight
by a uniform random amount and keeps the change iff the TRAIN objective
strictly improves.  Every accepted step re-scores HELD-OUT; three consecutive
non-improvements there (configurable) stop the run.  The returned weights are
the best held-out checkpoint seen, which is what the held-out set is for.

Candidates are ranked by heuristic-vector class: equal vectors always get
equal penalties, so a split scores each distinct vector once per weight
vector, and a sentence keeps only its first ``top_k`` candidates of each
vector, since the others are never in its top k.  TRAIN is ranked through a
``RankCache``: every vector's penalty, every sentence's top-k aggregate, and
per heuristic the vectors that count non-zero there.  An attempt changes one
weight, so it re-scores only those vectors and re-sorts only the sentences
that keep one; on the toy grammars most heuristics count zero on every
candidate, and their attempts re-score nothing.  When no sentence's top k
moves, the attempt's TRAIN scores are the cached ones.  Orders, aggregates,
objectives and the log equal those of re-scoring every candidate on every
attempt (see ``RankCache``).  HELD-OUT is re-scored in full with
``evaluate_set``, once per accepted step.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, asdict
from typing import NamedTuple

from .grammar import open_text
from .heuristics import score
from .parseval import CorpusScores, EvalScores, aggregate_scores, corpus_scores


class TrainingError(Exception):
    pass


class Candidate(NamedTuple):
    """One cached parse: its heuristic counts and its metrics against gold.

    ``scores`` is None exactly when no ranking can put the candidate in a
    top k at the k its records were built for: when ``reachable`` leaves it
    out, since k earlier candidates of its sentence have its vector.

    A record holds one per parse, so it is an immutable tuple of its
    fields with no instance ``__dict__``: it equals the plain tuple
    ``(vector, scores)`` and can be indexed, which nothing in the package
    relies on.
    """

    vector: tuple[float, ...]
    scores: EvalScores | None


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
        # step draws from [-delta_scale, delta_scale], whose width must be finite
        if not math.isfinite(2 * self.delta_scale):
            raise TrainingError(f"delta_scale {self.delta_scale} is too large: the"
                                f" perturbation width {2 * self.delta_scale} is not finite")


def reachable(vectors, top_k: int):
    """The positions of a sentence's candidates, given by their ``vectors``
    (or any keys equal exactly where the vectors are), that some ranking by
    (penalty, position) can put in a top ``top_k``: those with fewer than
    ``top_k`` earlier candidates of their own vector.  Equal vectors get
    equal penalties at any weights, so a candidate with ``top_k`` such
    predecessors always has ``top_k`` candidates ahead of it."""
    if len(vectors) <= top_k:
        return range(len(vectors))
    seen = {}
    kept = []
    for position, vector in enumerate(vectors):
        count = seen.get(vector, 0)
        if count < top_k:
            seen[vector] = count + 1
            kept.append(position)
    return kept


def _classes(records: list[SentenceRecord], top_k: int):
    """Group the candidates of a split by heuristic vector: the distinct
    vectors, in first-seen order (their ids are their positions), and per
    sentence the scores and vector ids of its ``reachable`` candidates, in
    candidate order; the others are never in a top k, and their scores may
    be None.  A reachable candidate with no scores means the records were
    built for a smaller top k, and raises ``TrainingError``."""
    ids = {}
    sentences = []
    for record in records:
        candidates = record.candidates
        vids = [ids.setdefault(candidate.vector, len(ids)) for candidate in candidates]
        kept = reachable(vids, top_k)
        if len(kept) < len(vids):
            candidates = list(map(candidates.__getitem__, kept))
            vids = list(map(vids.__getitem__, kept))
        scores = [candidate.scores for candidate in candidates]
        if not all(scores):  # None is the only false score
            raise TrainingError(
                f"sentence {record.sid}: a candidate that can rank in a top {top_k}"
                f" has no scores; its records were built for a smaller top k")
        sentences.append((scores, vids))
    return list(ids), sentences


def _top(penalties, kept, top_k: int) -> tuple[int, ...]:
    """The positions among a sentence's kept candidates, whose vector ids
    are ``kept``, of its first ``top_k`` by (penalty, position)."""
    ranked = list(map(penalties.__getitem__, kept))
    return tuple(sorted(range(len(ranked)), key=ranked.__getitem__)[:top_k])


def _aggregate(scores, top, aggregation: str):
    if not top:
        return None
    return aggregate_scores([scores[i] for i in top], aggregation)


def _rank(sentences, penalties, config: TrainConfig):
    """Each sentence's top positions and their aggregate (None when it has
    no candidates) at the vector ``penalties``."""
    tops = [_top(penalties, kept, config.top_k) for _, kept in sentences]
    aggregates = [_aggregate(scores, top, config.aggregation)
                  for (scores, _), top in zip(sentences, tops)]
    return tops, aggregates


def evaluate_set(records: list[SentenceRecord], weights,
                 config: TrainConfig) -> CorpusScores:
    """Rank every sentence's candidates by (penalty at ``weights``, index)
    and score the split on each one's top ``top_k``; each distinct vector
    is scored once (see ``RankCache``)."""
    vectors, sentences = _classes(records, config.top_k)
    penalties = [score(vector, weights) for vector in vectors]
    return corpus_scores(_rank(sentences, penalties, config)[1])


@dataclass
class Rescore:
    """The ranking of a split at other weights, as far as it differs from
    the cache it came from: every vector's penalty, and sentence position
    -> (top positions, aggregate) for each sentence whose top moved."""

    weights: list[float]
    penalties: list[float]
    moved: dict
    scores: CorpusScores


class RankCache:
    """The ranking of one split at one weight vector, updated incrementally.

    It ranks heuristic-vector classes, not candidates.  Each distinct
    vector of the split has an id and one penalty; each sentence keeps
    only its first ``top_k`` candidates of each vector, in order, with the
    positions of its top ``top_k`` among them and their aggregate; and per
    heuristic index it lists the vectors non-zero there and the sentences
    that keep one.  Moving to weights that differ at some indices re-scores
    only those vectors, with the full ``score``, once each, and re-sorts
    only those sentences.  When no sentence's top moves, the corpus scores
    are the cached ones; otherwise only the moved aggregates are redone.

    Every order, aggregate and corpus score equals that of ranking every
    candidate at the new weights (``evaluate_set``):
    - equal vectors are the same products summed in the same order, so
      their penalties are equal (vectors that differ only in the sign of a
      zero count give sums that differ at most in the sign of a zero, which
      compare equal);
    - hence a candidate with ``top_k`` earlier candidates of its own vector
      has ``top_k`` candidates ahead of it by (penalty, index) at any
      weights, and the (penalty, index) order of the kept candidates is
      the full order with never-ranked candidates left out;
    - a vector zero at every changed index has zero products there before
      and after (weights are finite), so its penalty is the same sum up to
      the sign of a zero, which compares equal, and it needs no re-score;
    - an aggregate depends on its top alone, and equal aggregates give
      equal corpus scores.
    This assumes no penalty is NaN, which only weights near +-1e308 can
    make, and which leaves no order defined even when everything is
    re-scored.
    """

    def __init__(self, records: list[SentenceRecord], weights, config: TrainConfig):
        self.config = config
        self.weights = list(weights)
        self.vectors, self.sentences = _classes(records, config.top_k)
        self.penalties = [score(vector, self.weights) for vector in self.vectors]
        self.tops, self.aggregates = _rank(self.sentences, self.penalties, config)
        self.scores = corpus_scores(self.aggregates)
        nonzero = [[index for index, count in enumerate(vector) if count]
                   for vector in self.vectors]
        # per heuristic index: the vectors non-zero there, and the sentences
        # that keep one of them
        self.vectors_at = [[] for _ in self.weights]
        self.sentences_at = [set() for _ in self.weights]
        for vid, indices in enumerate(nonzero):
            for index in indices:
                self.vectors_at[index].append(vid)
        for position, (_, kept) in enumerate(self.sentences):
            for vid in set(kept):
                for index in nonzero[vid]:
                    self.sentences_at[index].add(position)

    def rescore(self, weights) -> Rescore:
        """The ranking at ``weights``; the cache itself is left as it is."""
        weights = list(weights)
        changed = [i for i, (old, new) in enumerate(zip(self.weights, weights))
                   if old != new]
        penalties = list(self.penalties)
        for vid in {vid for i in changed for vid in self.vectors_at[i]}:
            penalties[vid] = score(self.vectors[vid], weights)
        moved = {}
        for position in set().union(*(self.sentences_at[i] for i in changed)):
            scores, kept = self.sentences[position]
            top = _top(penalties, kept, self.config.top_k)
            if top != self.tops[position]:
                moved[position] = (top, _aggregate(scores, top, self.config.aggregation))
        scores = self.scores
        if moved:
            per_sentence = list(self.aggregates)
            for position, (_, aggregate) in moved.items():
                per_sentence[position] = aggregate
            scores = corpus_scores(per_sentence)
        return Rescore(weights, penalties, moved, scores)

    def commit(self, rescore: Rescore) -> None:
        """Move the cache to the weights of ``rescore``, which it made."""
        self.weights = rescore.weights
        self.penalties = rescore.penalties
        for position, (top, aggregate) in rescore.moved.items():
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


# the generator every step restores ``state.rng_state`` into, reused since a
# fresh ``random.Random()`` seeds itself from the OS only to be overwritten;
# each step sets its whole state first, so no call sees another's draws
# (steps are not meant to run in concurrent threads)
_STEP_RNG = random.Random(0)


def step(state: TrainState, config: TrainConfig, train_cache: RankCache,
         heuristic_names):
    """One perturbation attempt: mutate state, return (LogEntry, TRAIN scores).

    Picks a heuristic uniformly at random, shifts its weight by a uniform
    draw from [-delta_scale, +delta_scale], and keeps the change iff the
    TRAIN objective strictly improves.  ``train_cache`` ranks TRAIN at
    ``state.weights``; the trial re-scores only the distinct vectors with
    a non-zero count at the perturbed heuristic (see ``RankCache``), and an
    accepted step commits it.  The scores returned are those at the
    weights kept.  Held-out bookkeeping is the caller's.
    """
    rng = _STEP_RNG
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
    resuming), so every attempt re-scores only the TRAIN vectors its
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
            except (ValueError, RecursionError):  # the latter: nested too deeply
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

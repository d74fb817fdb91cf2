"""Output checks: recorded expectations, the brute-force oracle and a
reference trainer.

``expected.json`` holds, per sentence key, the derivation count, whether the
frequency-cut fallback fired, and digests of the top-6 (penalty, bracketing)
list and of every candidate's (vector, bracketing), as an exhaustive ranking
produced them (see record.py).  Bracketings are compared with their words
replaced by ``_``: of-PP sentences are keyed by their tag sequence, and the
words of a tag are interchangeable there.
"""

from __future__ import annotations

import hashlib
import json
import random
import re
from collections import defaultdict
from dataclasses import asdict

from oracles import all_skeletons, realize

from ltagrank import parseval

TOP_K = 6
_LEAF = re.compile(r"(?<= )[^()\s]+(?=\))")


def digest(value) -> str:
    text = json.dumps(value, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def delex(bracketing: str) -> str:
    return _LEAF.sub("_", bracketing)


def sentence_record(analysis, with_all: bool) -> dict:
    """What expected.json stores for one analyzed sentence."""
    record = {
        "count": analysis.derivation_count,
        "fallback": analysis.report.fallback_triggered if analysis.report else None,
        "top6": digest([[rp.penalty, delex(rp.derived.to_string())]
                        for rp in analysis.parses[:TOP_K]]),
    }
    if with_all:
        record["all"] = digest([[list(rp.vector), delex(rp.derived.to_string())]
                                for rp in analysis.parses])
    return record


def check_sentence(analysis, expected: dict | None, with_all: bool) -> str | None:
    """None when the analysis matches its expectation, else what differs."""
    if expected is None:
        return "no expected output recorded for this sentence"
    got = sentence_record(analysis, with_all)
    wrong = [f"{key} {got[key]!r} != {expected[key]!r}"
             for key in got if got[key] != expected[key]]
    return "; ".join(wrong) or None


# ---------------------------------------------------------------------------
# brute-force oracle

def _stack_depth(grammar, derivation) -> int:
    """Longest chain of adjunctions stacked along one spine path: the
    adjunction cap's measure, written independently of the parser."""
    best = 0
    todo = [(derivation, 0)]
    while todo:
        node, chain = todo.pop()
        spine = grammar.trees[node.tree].spine
        for att in node.attachments:
            if att.op == "adjunction":
                depth = chain + 1 if att.address in spine else 1
                best = max(best, depth)
                todo.append((att.child, depth))
            else:
                todo.append((att.child, 0))
    return best


def oracle_universe(grammar, max_words: int, cap: int) -> dict:
    """words -> (derivations, bracketings) of every derivation with at most
    ``max_words`` anchors and stack depth within ``cap``, from the chart-free
    generator in ``tests/oracles.py``."""
    universe = defaultdict(lambda: (set(), set()))
    for skeleton, _ in all_skeletons(grammar, "S", max_words):
        words, derivation, bracket = realize(grammar, skeleton)
        if _stack_depth(grammar, derivation) <= cap:
            derivations, brackets = universe[tuple(words)]
            derivations.add(derivation)
            brackets.add(bracket)
    return universe


def check_oracle(analysis, universe) -> str | None:
    derivations, brackets = universe.get(tuple(analysis.words), (set(), set()))
    got = [rp.derivation for rp in analysis.parses]
    if len(got) != len(set(got)):
        return "oracle: duplicate derivations"
    if set(got) != derivations:
        return f"oracle: {len(set(got))} derivations, brute force has {len(derivations)}"
    if {rp.derived.to_string() for rp in analysis.parses} != brackets:
        return "oracle: derived bracketings differ from brute force"
    return None


# ---------------------------------------------------------------------------
# reference trainer

def _dot(vector, weights) -> float:
    return sum(v * w for v, w in zip(vector, weights))


def _evaluate(records, weights, config):
    per_sentence = []
    for record in records:
        if not record.candidates:
            per_sentence.append(None)
            continue
        order = sorted(range(len(record.candidates)),
                       key=lambda i: (_dot(record.candidates[i].vector, weights), i))
        top = [record.candidates[i].scores for i in order[:config.top_k]]
        per_sentence.append(parseval.aggregate_scores(top, config.aggregation))
    return parseval.corpus_scores(per_sentence)


def reference_log(records_by_id, spec, config, initial, names) -> bytes:
    """The training log of a fresh run, re-scoring every candidate on every
    attempt: the trainer's specification, against which its output bytes
    are compared.  Supports the objective-only acceptance rule."""
    train = [records_by_id[sid] for sid in spec.train_ids]
    heldout = [records_by_id[sid] for sid in spec.heldout_ids]
    rng = random.Random(config.seed)
    weights = list(initial)
    train_scores = _evaluate(train, weights, config)
    heldout_last = best_heldout = _evaluate(heldout, weights, config).objective()
    best_weights = list(weights)
    strikes = attempts = accepted = 0
    lines = [json.dumps({"type": "config", "top_k": config.top_k,
                         "aggregation": config.aggregation,
                         "delta_scale": config.delta_scale,
                         "strike_limit": config.strike_limit,
                         "max_iterations": config.max_iterations,
                         "seed": config.seed,
                         "require_all_metrics": config.require_all_metrics,
                         "split_seed": spec.seed,
                         "sizes": [len(spec.train_ids), len(spec.heldout_ids),
                                   len(spec.test_ids)]})]
    while attempts < config.max_iterations and strikes < config.strike_limit:
        attempts += 1
        index = rng.randrange(len(weights))
        delta = rng.uniform(-config.delta_scale, config.delta_scale)
        candidate = list(weights)
        candidate[index] += delta
        scores = _evaluate(train, candidate, config)
        is_better = scores.objective() > train_scores.objective()
        heldout_obj = None
        if is_better:
            weights, train_scores = candidate, scores
            accepted += 1
            heldout_obj = _evaluate(heldout, weights, config).objective()
            strikes = 0 if heldout_obj > heldout_last else strikes + 1
            if heldout_obj > best_heldout:
                best_heldout, best_weights = heldout_obj, list(weights)
            heldout_last = heldout_obj
        lines.append(json.dumps({"type": "attempt", "attempt": attempts,
                                 "heuristic": names[index], "delta": delta,
                                 "train_objective": scores.objective(),
                                 "accepted": is_better,
                                 "heldout_objective": heldout_obj}))
    state = rng.getstate()
    lines.append(json.dumps({"type": "state", "weights": weights,
                             "train_objective": train_scores.objective(),
                             "heldout_last": heldout_last, "best_heldout": best_heldout,
                             "best_weights": best_weights, "strikes": strikes,
                             "attempts": attempts, "accepted": accepted,
                             "rng_state": [state[0], list(state[1]), state[2]]}))
    return ("\n".join(lines) + "\n").encode()


def gold_sanity(records_by_id, gold_index) -> str | None:
    """Each parsed sentence's gold candidate must score as a perfect match."""
    for sid, index in gold_index.items():
        scores = records_by_id[sid].candidates[index].scores
        if not (scores.zero_crossing and scores.recall_pct == 100.0
                and scores.precision_pct == 100.0):
            return f"sentence {sid}: gold candidate scores {asdict(scores)}"
    return None

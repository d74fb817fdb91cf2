"""Span tracing of the program's layers, from outside the program.

The tracer replaces public functions at the module attributes the program
looks them up through, records one span per call (name, start, end, parent)
in memory, and counts the per-candidate calls instead of timing them.  A
function that no longer exists is reported as absent, so refactors of the
program do not break the benchmark.
"""

from __future__ import annotations

import json
import time
from collections import Counter

from ltagrank import cli, filtering, grammar, heuristics, parseval, pipeline, training
from ltagrank.parser import ParseForest

TOP_K = 6

# (owner, attribute) pairs wrapped with a span per call
SPAN_TARGETS = [
    (grammar, "load_grammar"),
    (pipeline, "analyze_sentence"),
    (pipeline, "select_trees"),
    (pipeline, "filter_with_fallback"),
    (pipeline, "structural_filter"),
    (filtering, "structural_filter"),
    (filtering, "frequency_filter"),
    (pipeline, "parse"),
    (ParseForest, "has_parse"),
    (pipeline, "enumerate_derivations"),
    (pipeline, "derive"),
    (pipeline, "rank"),
    (cli, "build_records"),
    (parseval, "flatten"),
    (parseval, "evaluate_parse"),
    (training, "evaluate_set"),
    (training, "step"),
]
# per-candidate calls: counted, not timed
COUNTER_TARGETS = [(heuristics, "extract"), (training, "score")]

# metric -> (unit, kind, argument); kind "self" sums span self times (ms),
# "count" reads a counter, "ratio" divides two counters
LAYER_METRICS = {
    "grammar.load_ms": ("ms", "self", ("grammar.load_grammar",)),
    "tagging.select_ms": ("ms/pass", "self", ("pipeline.select_trees",)),
    "tagging.candidates": ("count/pass", "count", "tagging.candidates"),
    "filtering.structural_ms": ("ms/pass", "self", ("pipeline.structural_filter",
                                               "filtering.structural_filter")),
    "filtering.frequency_ms": ("ms/pass", "self", ("filtering.frequency_filter",)),
    "filtering.fallback_ms": ("ms/pass", "self", ("pipeline.filter_with_fallback",)),
    "filtering.removed_structure": ("count/pass", "count", "filtering.removed_structure"),
    "filtering.removed_frequency": ("count/pass", "count", "filtering.removed_frequency"),
    "filtering.fallbacks": ("count/pass", "count", "filtering.fallbacks"),
    "filtering.reparses": ("count/pass", "count", "filtering.reparses"),
    "parser.parse_ms": ("ms/pass", "self", ("pipeline.parse",)),
    "parser.parse_calls": ("count/pass", "count", "parser.parse_calls"),
    "parser.chart_items": ("count/pass", "count", "parser.chart_items"),
    "parser.foot_items": ("count/pass", "count", "parser.foot_items"),
    "parser.reachable_ratio": ("ratio", "ratio", ("parser.reachable_items",
                                                  "parser.chart_items")),
    "parser.has_parse_ms": ("ms/pass", "self", ("ParseForest.has_parse",)),
    "parser.enumerate_ms": ("ms/pass", "self", ("pipeline.enumerate_derivations",)),
    "parser.derivations": ("count/pass", "count", "parser.derivations"),
    "parser.enum_useful_ratio": ("ratio", "ratio", ("parser.shown", "parser.derivations")),
    "parser.derive_ms": ("ms/pass", "self", ("pipeline.derive",)),
    "parser.derived_trees": ("count/pass", "count", "parser.derived_trees"),
    "heuristics.rank_ms": ("ms/pass", "self", ("pipeline.rank",)),
    "heuristics.extract_calls": ("count/pass", "count", "heuristics.extract"),
    "parseval.evaluate_ms": ("ms/pass", "self", ("parseval.evaluate_parse",)),
    "parseval.flatten_ms": ("ms/pass", "self", ("parseval.flatten",)),
    "parseval.pairs": ("count/pass", "count", "parseval.pairs"),
    "training.evaluate_set_ms": ("ms/pass", "self", ("training.evaluate_set",)),
    "training.step_ms": ("ms/pass", "self", ("training.step",)),
    "training.attempts": ("count/pass", "count", "training.attempts"),
    "training.accepted": ("count/pass", "count", "training.accepted"),
    "training.heldout_evals": ("count/pass", "count", "training.heldout_evals"),
    "training.score_calls": ("count/pass", "count", "training.score"),
    "training.rescored_per_attempt": ("ratio", "ratio", ("training.score",
                                                         "training.attempts")),
    "pipeline.analyze_ms": ("ms/pass", "self", ("pipeline.analyze_sentence",)),
}
# counters fed by each wrapped call, and the span whose absence explains them
COUNTER_SOURCES = {
    "tagging.candidates": "pipeline.select_trees",
    "filtering.removed_structure": "pipeline.filter_with_fallback",
    "filtering.removed_frequency": "pipeline.filter_with_fallback",
    "filtering.fallbacks": "pipeline.filter_with_fallback",
    "filtering.reparses": "pipeline.filter_with_fallback",
    "parser.parse_calls": "pipeline.parse",
    "parser.chart_items": "pipeline.parse",
    "parser.foot_items": "pipeline.parse",
    "parser.reachable_items": "pipeline.parse",
    "parser.derivations": "pipeline.enumerate_derivations",
    "parser.shown": "pipeline.enumerate_derivations",
    "parser.derived_trees": "pipeline.derive",
    "heuristics.extract": "heuristics.extract",
    "parseval.pairs": "parseval.evaluate_parse",
    "training.attempts": "training.step",
    "training.accepted": "training.step",
    "training.heldout_evals": "training.evaluate_set",
    "training.score": "training.score",
}


def forest_stats(forest):
    """(chart items, foot items, items reachable from a goal), or None when
    the forest no longer exposes the chart this reads."""
    try:
        chart = forest._chart
        goals = list(forest._goals)
        foot = sum(1 for item in chart.values() if ("foot",) in item.ways)
        seen = set(goals)
        stack = list(goals)
        while stack:
            for way in chart[stack.pop()].ways:
                for key in way[1:]:
                    if key not in seen:
                        seen.add(key)
                        stack.append(key)
        return len(chart), foot, len(seen)
    except (AttributeError, KeyError, TypeError, IndexError):
        return None


class Tracer:
    """Spans and counters of one traced pass; install() wraps, remove() restores."""

    def __init__(self):
        self.spans = []          # [name, start, end, parent index]
        self.counters = Counter()
        self.absent = {}         # span or counter name -> reason
        self._stack = []
        self._saved = []
        self._first_step_start = None

    # -- wrapping ------------------------------------------------------------

    def install(self) -> None:
        for owner, attr in SPAN_TARGETS:
            self._replace(owner, attr, self._span_wrapper)
        for owner, attr in COUNTER_TARGETS:
            self._replace(owner, attr, self._counter_wrapper)

    def remove(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def _replace(self, owner, attr, make):
        name = f"{owner.__name__.rpartition('.')[2]}.{attr}"
        original = getattr(owner, attr, None)
        if not callable(original):
            self.absent[name] = f"{name} does not exist"
            return
        self._saved.append((owner, attr, original))
        setattr(owner, attr, make(name, original))

    def _span_wrapper(self, name, fn):
        spans, stack = self.spans, self._stack
        after = getattr(self, "_after_" + name.replace(".", "_"), None)

        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1])
            stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index][1] = start
                spans[index][2] = end
            if after is not None:
                after(index, result)
            return result
        return wrapper

    def _counter_wrapper(self, name, fn):
        counters = self.counters

        def wrapper(*args, **kwargs):
            counters[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    # -- counts taken from return values -------------------------------------

    def _after_pipeline_select_trees(self, index, assignment):
        self.counters["tagging.candidates"] += sum(len(c) for c in assignment.candidates)

    def _after_pipeline_filter_with_fallback(self, index, result):
        _, report = result
        for position in report.positions:
            self.counters["filtering.removed_structure"] += position.removed_structure
            self.counters["filtering.removed_frequency"] += position.removed_frequency
        self.counters["filtering.fallbacks"] += bool(report.fallback_triggered)
        parses = sum(1 for span in self.spans[index + 1:]
                     if span[3] == index and span[0] == "pipeline.parse")
        self.counters["filtering.reparses"] += parses > 1

    def _after_pipeline_parse(self, index, forest):
        # the chart walk is bench work: a span of its own keeps it out of the
        # caller's self time
        start = time.perf_counter()
        stats = forest_stats(forest)
        self.counters["parser.parse_calls"] += 1
        if stats is None:
            for name in ("parser.chart_items", "parser.foot_items", "parser.reachable_items"):
                self.absent[name] = "ParseForest internals changed; chart not readable"
        else:
            self.counters["parser.chart_items"] += stats[0]
            self.counters["parser.foot_items"] += stats[1]
            self.counters["parser.reachable_items"] += stats[2]
        self.spans.append(["bench.forest_stats", start, time.perf_counter(),
                           self._stack[-1] if self._stack else -1])

    def _after_pipeline_enumerate_derivations(self, index, derivations):
        self.counters["parser.derivations"] += len(derivations)
        self.counters["parser.shown"] += min(TOP_K, len(derivations))

    def _after_pipeline_derive(self, index, derived):
        self.counters["parser.derived_trees"] += 1

    def _after_parseval_evaluate_parse(self, index, scores):
        self.counters["parseval.pairs"] += 1

    def _after_training_step(self, index, result):
        entry, _ = result
        self.counters["training.attempts"] += 1
        self.counters["training.accepted"] += bool(entry.accepted)
        if self._first_step_start is None:
            self._first_step_start = self.spans[index][1]

    def _after_training_evaluate_set(self, index, scores):
        # after the first attempt, evaluate_set outside step is a held-out re-score
        span = self.spans[index]
        if (self._first_step_start is not None and span[1] > self._first_step_start
                and (span[3] < 0 or self.spans[span[3]][0] != "training.step")):
            self.counters["training.heldout_evals"] += 1

    # -- reports -------------------------------------------------------------

    def self_times(self) -> Counter:
        """Span name -> summed self time in ms (duration minus child spans)."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals = Counter()
        for (name, start, end, _), inner in zip(self.spans, child):
            totals[name] += (end - start - inner) * 1000.0
        return totals

    def layer_values(self) -> dict:
        """Metric -> value, or None when the layer is absent."""
        selfs = self.self_times()
        values = {}
        for metric, (_, kind, arg) in LAYER_METRICS.items():
            if kind == "self":
                if all(name in self.absent for name in arg):
                    values[metric] = None
                else:
                    values[metric] = sum(selfs[name] for name in arg)
            elif kind == "count":
                values[metric] = None if self._counter_absent(arg) else self.counters[arg]
            else:
                num, den = arg
                if self._counter_absent(num) or self._counter_absent(den) \
                        or not self.counters[den]:
                    values[metric] = None
                else:
                    values[metric] = self.counters[num] / self.counters[den]
        return values

    def _counter_absent(self, counter: str) -> bool:
        return counter in self.absent or COUNTER_SOURCES[counter] in self.absent

    def absent_reason(self, metric: str) -> str:
        _, kind, arg = LAYER_METRICS[metric]
        names = arg if kind != "count" else (arg,)
        for name in names:
            for key in (name, COUNTER_SOURCES.get(name)):
                if key in self.absent:
                    return self.absent[key]
        return "no calls to divide by"

    def write(self, path, pass_no: int) -> None:
        with open(path, "a") as handle:
            for name, start, end, parent in self.spans:
                handle.write(json.dumps({"pass": pass_no, "name": name, "start": start,
                                         "end": end, "parent": parent}) + "\n")

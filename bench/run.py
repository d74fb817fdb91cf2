"""Benchmark of the ltagrank pipeline and trainer.

    python3 bench/run.py                                  # every workload, a table
    python3 bench/run.py --workload ofpp_ladder --seed 1 --seconds 20 --trace 0

One workload run writes its seeded inputs under ``bench/out/``, loads them
through the program's loaders, analyzes one warm-up pass to pick each
sentence's gold parse, and then repeats passes until ``--seconds`` have gone.
A pass analyzes every sentence (``pipeline.analyze_sentence``, one caller,
one thread, each sentence after the previous one finished), builds the
training records (``cli.build_records``, NP,VP flattening) and runs one
fixed-length ``training.train``.  Every output is checked; see check.py.

With ``--trace 0`` the last line reports the end-to-end metrics; with
``--trace 1`` passes alternate untraced and traced, and it reports the
per-layer metrics of the traced passes and the tracing overhead.  The last
line is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

from clock import HostClock

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
WORKLOADS = ("ofpp_ladder", "chart_sweep", "train_loop")
MIN_TRACED_PASSES = 2
SETUP_REPEATS = 10
TAIL_BEYOND = 10      # samples that must lie beyond the tail percentile
FLATTEN = frozenset({"NP", "VP"})
RATIOS = (3, 1, 1)

E2E_UNITS = {"setup_s": "s", "sentences_per_s": "1/s", "sentence_p50_ms": "ms",
             "sentence_tail_ms": "ms", "records_s": "s", "train_s": "s",
             "peak_rss_mb": "MB"}


def _import_program():
    """Import the checkout's program and test oracles, refusing any other copy."""
    src = os.path.join(ROOT, "src")
    tests = os.path.join(ROOT, "tests")
    if not os.path.isdir(os.path.join(src, "ltagrank")) or not os.path.isdir(tests):
        sys.exit(f"error: {ROOT} has no src/ltagrank and tests/ to benchmark")
    sys.path[:0] = [src, tests]
    import ltagrank
    if os.path.dirname(os.path.abspath(ltagrank.__file__)) != os.path.join(src, "ltagrank"):
        sys.exit(f"error: imported ltagrank from {ltagrank.__file__}, not from {src}")


class Run:
    """One workload run: inputs, loaded state, per-pass measurements, checks."""

    def __init__(self, name, seed, trace):
        from ltagrank import pipeline
        import workloads as wl

        with open(os.path.join(BENCH, "expected.json")) as handle:
            expected = json.load(handle)
        self.expected = expected["sentences"]
        self.workload = wl.make_workload(name, seed, expected["pool"])
        self.config = pipeline.PipelineConfig(filter_k=3, adjunction_cap=3)
        self.out = os.path.join(BENCH, "out", f"{name}-s{seed}" + ("-trace" if trace else ""))
        shutil.rmtree(self.out, ignore_errors=True)
        os.makedirs(self.out)
        self.failures = []       # messages
        self.attempted = 0
        self.passes = []         # dicts of per-pass figures
        self.layer_passes = []   # per-layer values of traced passes
        self.tracers = []
        self.clock = HostClock()
        self.absent = {}
        self.oracle_items = []   # first-pass analyses checked against brute force
        self.first_train = None  # (log bytes, weights) of the first trainer run
        self.candidates = 0      # derivations per pass
        self._write_inputs()

    # -- inputs --------------------------------------------------------------

    def _path(self, gid, ext):
        return os.path.join(self.out, f"{gid}.{ext}")

    def _write_inputs(self):
        import workloads as wl
        self.gids = sorted({gid for gid, _, _ in self.workload.items})
        self.position = []       # item -> (gid, line number in its corpus file)
        lines = {gid: [] for gid in self.gids}
        for gid, line, _ in self.workload.items:
            self.position.append((gid, len(lines[gid])))
            lines[gid].append(line)
        for gid in self.gids:
            grammar_text, freq_text = wl.GRAMMARS[gid]
            for ext, text in (("ltag", grammar_text), ("freq", freq_text),
                              ("tagged", "\n".join(lines[gid]) + "\n")):
                with open(self._path(gid, ext), "w") as handle:
                    handle.write(text)

    def load(self, with_gold=True):
        """Everything the program reads, through its own loaders."""
        from ltagrank import grammar, heuristics, parseval, tagging
        self.grammars = {gid: grammar.load_grammar(self._path(gid, "ltag"),
                                                   self._path(gid, "freq"))
                         for gid in self.gids}
        self.registry = heuristics.load_registry(os.path.join(ROOT, "sample", "registry.txt"))
        self.weights = heuristics.load_weights(os.path.join(ROOT, "sample", "weights.tsv"),
                                               self.registry)
        corpora = {gid: tagging.read_tagged_corpus(self._path(gid, "tagged"))
                   for gid in self.gids}
        self.sentences = [corpora[gid][i] for gid, i in self.position]
        if with_gold:
            golds = {gid: parseval.read_bracketed_corpus(self._path(gid, "gold"))
                     for gid in self.gids}
            self.gold = [golds[gid][i] for gid, i in self.position]

    def write_gold(self, analyses):
        """Gold of a parsed sentence: the parse the hidden weights rank first,
        flattened like the candidates; of an unparsed one, a flat tree."""
        from ltagrank import parseval, training
        import workloads as wl
        hidden = wl.hidden_weights(self.registry.names(), self.workload.hidden_seed)
        self.gold_index = {}
        lines = {gid: [] for gid in self.gids}
        for sid, ((gid, _), analysis) in enumerate(zip(self.position, analyses)):
            if analysis is not None and analysis.parses:
                best = min(range(len(analysis.parses)),
                           key=lambda i: (training.score(analysis.parses[i].vector, hidden), i))
                self.gold_index[sid] = best
                tree = parseval.flatten(analysis.parses[best].derived.root, FLATTEN)
                lines[gid].append(tree.to_string())
            else:
                words = (w.surface for w in self.sentences[sid])
                lines[gid].append("(S " + " ".join(words) + ")")
        for gid in self.gids:
            with open(self._path(gid, "gold"), "w") as handle:
                handle.write("\n".join(lines[gid]) + "\n")

    # -- passes --------------------------------------------------------------

    def analyze_all(self):
        """Analyses, the [start, end] wall interval of each, and errors."""
        from ltagrank import pipeline
        analyses, intervals, errors = [], [], {}
        for sid, sentence in enumerate(self.sentences):
            gid = self.position[sid][0]
            start = time.perf_counter()
            try:
                analysis = pipeline.analyze_sentence(self.grammars[gid], sentence,
                                                     self.registry, self.weights, self.config)
            except Exception as exc:  # a failed operation is counted, not fatal
                analysis = None
                errors[sid] = f"{type(exc).__name__}: {exc}"
            intervals.append((start, time.perf_counter()))
            analyses.append(analysis)
        self.clock.sample()
        return analyses, intervals, errors

    def run_pass(self):
        """Analyze every sentence, build the records, train; check each step.

        Collection runs before the pass so that every pass starts from the
        same heap.  The trainer runs on the cached records alone: the
        analyses are checked and released first.  Times are in reference
        seconds (see clock.py).
        """
        from ltagrank import cli, training
        clock = self.clock
        gc.collect()
        clock.sample()
        started = time.perf_counter()
        analyses, intervals, errors = self.analyze_all()
        self.attempted += len(analyses) + 1
        build = train = records = None
        if errors:
            trainer_error = "skipped: a sentence failed"
        else:
            try:
                start = time.perf_counter()
                records = cli.build_records(analyses, self.gold, "standard", FLATTEN)
                build = (start, time.perf_counter())
            except Exception as exc:  # a failed operation is counted, not fatal
                trainer_error = f"build_records: {type(exc).__name__}: {exc}"
        clock.sample()
        self._check_sentences(analyses, errors)
        del analyses
        if records is not None:
            gc.collect()
            clock.sample()
            try:
                start = time.perf_counter()
                result = training.train(records, self.spec, self.train_config, self.weights,
                                        heuristic_names=self.registry.names())
                train = (start, time.perf_counter())
                trainer_error = self._check_trainer(records, result)
            except Exception as exc:
                trainer_error = f"{type(exc).__name__}: {exc}"
            clock.sample()
        if trainer_error:
            self.failures.append(f"trainer: {trainer_error}")
        latencies = [clock.reference(*interval) for interval in intervals]
        return {"latencies": latencies,
                "records_s": sum(latencies) + clock.reference(*build) if build else None,
                "train_s": clock.reference(*train) if train else None,
                "scale": clock.scale(started, time.perf_counter())}

    def _check_sentences(self, analyses, errors):
        import check
        import tracing
        import workloads as wl
        first = not self.passes and not self.layer_passes
        for sid, analysis in enumerate(analyses):
            gid, _ = self.position[sid]
            key = self.workload.items[sid][2]
            if analysis is None:
                self.failures.append(f"sentence {sid}: {errors[sid]}")
                continue
            wrong = check.check_sentence(analysis, self.expected.get(key), with_all=first)
            words = len(analysis.words)
            if not wrong and words in wl.ROADMAP_LADDER \
                    and key == wl.ofpp_key(wl.ladder_tags((words - 6) // 3)):
                stats = tracing.forest_stats(analysis.forest)
                if stats is None:
                    self.absent["roadmap_chart_items"] = "ParseForest internals changed"
                elif (stats[0], analysis.derivation_count) != wl.ROADMAP_LADDER[words]:
                    wrong = (f"ROADMAP ladder at {words} words: {stats[0]} items and"
                             f" {analysis.derivation_count} parses,"
                             f" expected {wl.ROADMAP_LADDER[words]}")
            if wrong:
                self.failures.append(f"sentence {sid} ({key}): {wrong}")
            if first:
                self.candidates += analysis.derivation_count
                if gid in wl.UNIVERSE_GRAMMARS + ("fallback",) \
                        and words <= wl.MAX_ORACLE_WORDS:
                    self.oracle_items.append((sid, analysis))

    def _check_trainer(self, records, result):
        """None when the log and weights match the reference (first run) or
        the first run (later runs), else what differs."""
        import check
        from ltagrank import training
        log_path = os.path.join(self.out, "train.log")
        training.write_log(log_path, result, self.train_config, self.spec)
        with open(log_path, "rb") as handle:
            log = handle.read()
        if self.first_train is not None:
            if (log, result.weights) != self.first_train:
                return "trainer output differs between passes"
            return None
        self.first_train = (log, result.weights)
        self.train_summary = {"attempts": result.state.attempts,
                              "accepted": result.state.accepted}
        reference = check.reference_log(records, self.spec, self.train_config,
                                        self.weights, self.registry.names())
        if log != reference:
            return "training log differs from the exhaustive reference"
        if result.weights != json.loads(reference.splitlines()[-1])["best_weights"]:
            return "trained weights differ from the exhaustive reference"
        return check.gold_sanity(records, self.gold_index)

    def check_oracle(self):
        import check
        by_grammar = {}
        for sid, analysis in self.oracle_items:
            by_grammar.setdefault(self.position[sid][0], []).append((sid, analysis))
        for gid, items in sorted(by_grammar.items()):
            longest = max(len(a.words) for _, a in items)
            universe = check.oracle_universe(self.grammars[gid], longest,
                                             self.config.adjunction_cap)
            for sid, analysis in items:
                wrong = check.check_oracle(analysis, universe)
                if wrong:
                    self.failures.append(f"sentence {sid} ({self.workload.items[sid][2]}): {wrong}")

    # -- measurement -----------------------------------------------------------

    def prepare(self):
        from ltagrank import training
        self.load(with_gold=False)
        self.write_gold(self.analyze_all()[0])
        n = len(self.sentences)
        self.spec = training.split(range(n), RATIOS, self.workload.split_seed)
        iterations = self.workload.max_iterations
        self.train_config = training.TrainConfig(
            top_k=6, aggregation="mean_of_k", delta_scale=1.0, max_iterations=iterations,
            strike_limit=iterations + 1, seed=self.workload.train_seed)

    def setup_batch(self, tracer=None):
        """Reference times of SETUP_REPEATS loads, and the mean time of the
        load_grammar calls in them (ms) when a tracer is given."""
        intervals = []
        started = time.perf_counter()
        if tracer:
            tracer.install()
        try:
            for _ in range(SETUP_REPEATS):
                start = time.perf_counter()
                self.load()
                intervals.append((start, time.perf_counter()))
        finally:
            if tracer:
                tracer.remove()
        self.clock.sample()
        times = [self.clock.reference(*interval) for interval in intervals]
        if tracer is None or "grammar.load_grammar" in tracer.absent:
            return times, None
        scale = self.clock.scale(started, time.perf_counter())
        return times, tracer.self_times()["grammar.load_grammar"] * scale / SETUP_REPEATS

    def measure(self, seconds, trace_mode):
        """Alternate set-up batches and passes until ``seconds`` have gone;
        in trace mode every other pass, and its set-up batch, is traced."""
        from tracing import Tracer
        start = time.perf_counter()
        self.setup_s, self.load_ms = [], []
        while True:
            have = len(self.passes) >= self.workload.min_passes if not trace_mode else \
                min(len(self.passes), len(self.layer_passes)) >= MIN_TRACED_PASSES
            if have and time.perf_counter() - start >= seconds:
                break
            if trace_mode and len(self.layer_passes) < len(self.passes):
                tracer = Tracer()
                self.load_ms.append(self.setup_batch(tracer)[1])
                self.absent.update(tracer.absent)
                tracer = Tracer()
                tracer.install()
                try:
                    figures = self.run_pass()
                finally:
                    tracer.remove()
                self.tracers.append(tracer)
                self.absent.update(tracer.absent)
                self.layer_passes.append((tracer.layer_values(), figures))
            else:
                self.setup_s.extend(self.setup_batch()[0])
                self.passes.append(self.run_pass())
        self.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _median(values):
    """Median of the values a failed operation did not leave out, or None."""
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else None


def _work(figures):
    if figures["records_s"] is None or figures["train_s"] is None:
        return None
    return figures["records_s"] + figures["train_s"]


def e2e_metrics(run):
    """Medians over the run, of times in reference seconds (see clock.py).

    The latency percentiles are taken over every sentence execution of the
    run; the other figures are medians over passes.  The tail percentile is
    fixed by the fewest executions a run can have, so it has TAIL_BEYOND
    samples beyond it however many passes fit in the run.
    """
    executions = sorted(t for p in run.passes for t in p["latencies"])
    n = len(executions)
    percentile = 1.0 - TAIL_BEYOND / (len(run.sentences) * run.workload.min_passes)
    tail_index = math.ceil(percentile * n) - 1
    metrics = {
        "setup_s": statistics.median(run.setup_s),
        "sentences_per_s": statistics.median(len(p["latencies"]) / sum(p["latencies"])
                                             for p in run.passes),
        "sentence_p50_ms": statistics.median(executions) * 1000.0,
        "sentence_tail_ms": executions[tail_index] * 1000.0,
        "records_s": _median(p["records_s"] for p in run.passes),
        "train_s": _median(p["train_s"] for p in run.passes),
        "peak_rss_mb": run.peak_rss_mb,
    }
    tail = {"percentile": round(100.0 * percentile, 2), "samples": n,
            "beyond": n - tail_index - 1, "passes": len(run.passes),
            "min_passes": run.workload.min_passes}
    return metrics, tail


def layer_metrics(run):
    """Per-layer figures, medians over the traced passes: self times scaled
    to reference ms like the end-to-end times; counts and ratios as counted."""
    import tracing
    metrics = {}
    for name, (unit, kind, _) in tracing.LAYER_METRICS.items():
        if name == "grammar.load_ms":
            values = [v for v in run.load_ms if v is not None]
        else:
            values = [layer[name] * (figures["scale"] if kind == "self" else 1)
                      for layer, figures in run.layer_passes if layer[name] is not None]
        entry = {"value": statistics.median(values) if values else None, "unit": unit}
        if not values:
            entry["absent"] = run.tracers[-1].absent_reason(name)
        metrics[name] = entry
    traced = _median(_work(figures) for _, figures in run.layer_passes)
    plain = _median(_work(figures) for figures in run.passes)
    overhead = {"value": None, "unit": "ratio", "absent": "no complete pass to compare"}
    if traced is not None and plain is not None:
        overhead = {"value": traced / plain - 1, "unit": "ratio"}
    metrics["trace.overhead_ratio"] = overhead
    return metrics


def run_workload(args) -> int:
    _import_program()
    run = Run(args.workload, args.seed, bool(args.trace))
    run.prepare()
    with run.clock:
        run.measure(args.seconds, bool(args.trace))
    if args.workload == "chart_sweep":
        run.check_oracle()

    if args.trace:
        metrics = layer_metrics(run)
        spans = os.path.join(run.out, "spans.jsonl")
        open(spans, "w").close()
        for number, tracer in enumerate(run.tracers):
            tracer.write(spans, number)
    else:
        values, tail = e2e_metrics(run)
        metrics = {name: {"value": value, "unit": E2E_UNITS[name]}
                   for name, value in values.items()}
    conditions = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(), "nproc": os.cpu_count(),
        "load": "closed loop, one caller, one thread",
        "sentences": len(run.sentences), "words": sum(len(s) for s in run.sentences),
        "candidates": run.candidates, "passes": len(run.passes) + len(run.layer_passes),
        "trainer": {"max_iterations": run.workload.max_iterations,
                    "train_sentences": len(run.spec.train_ids),
                    **getattr(run, "train_summary", {})},
        "reference_loop_ms": run.clock.median_sample() * 1000.0,
        "absent": run.absent,
    }
    if not args.trace:
        conditions["tail"] = tail
    for message in run.failures[:20]:
        print(f"FAIL {message}", file=sys.stderr)
    for name, entry in metrics.items():
        value = entry["value"]
        shown = "absent: " + entry["absent"] if value is None else f"{value:.6g}"
        print(f"{args.workload:12s} {name:32s} {shown} {entry['unit']}")
    print(f"fail_ratio {len(run.failures) / run.attempted:.6g}"
          f" ({len(run.failures)} of {run.attempted} operations)")
    print("conditions " + json.dumps(conditions))
    print(json.dumps({"correct": not run.failures, "attempted": run.attempted,
                      "failed": len(run.failures), "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Every workload in its own process; one row per workload and metric."""
    failed = False
    rows = []
    for name in WORKLOADS:
        command = [sys.executable, os.path.abspath(__file__), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
        proc = subprocess.run(command, capture_output=True, text=True, cwd=ROOT)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exited with {proc.returncode}")
            failed = True
            continue
        result = json.loads(lines[-1])
        failed |= result["failed"] > 0
        rows.append((name, "fail_ratio", f"{result['failed'] / result['attempted']:.6g}",
                     "ratio"))
        for metric, entry in result["metrics"].items():
            value = entry["value"]
            shown = "absent: " + entry.get("absent", "") if value is None else f"{value:.6g}"
            rows.append((name, metric, shown, entry["unit"]))
    widths = [max(len(row[i]) for row in rows) for i in range(3)] if rows else [0, 0, 0]
    for row in rows:
        print("  ".join(cell.ljust(width) for cell, width in zip(row, widths)) + "  " + row[3])
    return 1 if failed else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, default=None,
                        help="run one workload; without it, run all and print a table")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    return run_workload(args) if args.workload else run_all(args)


if __name__ == "__main__":
    sys.exit(main())

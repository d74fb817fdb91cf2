"""The traced benchmark run's view of the program.

``bench/tracing.py`` reads the program from outside: it wraps module
attributes by name and walks the parse forest's chart.  A rename or a new
chart layout does not break the traced run, which reports the layer as
absent instead; these tests make such a change fail here first.  Likewise
``bench/check.py`` holds the trainer's records and log to a reference
trainer and the gold to a perfect score, and a pass that fails those checks
fails a benchmark run; a test runs them on a small pass.  The last test
runs one whole traced benchmark run, as it is run from the command line.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import ltagrank as lt
from ltagrank import cli, grammar, heuristics, parseval, pipeline, tagging, training
from test_filtering import FALLBACK_FREQ, FALLBACK_GRAMMAR
from test_parser import _ladder_forest
from test_pipeline import _ladder
from toygrammars import FREQ_TEXT, OFPP_GRAMMAR

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
FLATTEN = frozenset({"NP", "VP"})


def _tracing(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import tracing
    return tracing


def test_tracer_finds_every_attribute_it_wraps(monkeypatch):
    tracer = _tracing(monkeypatch).Tracer()
    tracer.install()
    try:
        assert tracer.absent == {}
    finally:
        tracer.remove()


def test_forest_stats_reads_the_chart(monkeypatch):
    # the 12-word of-PP ladder under cap 3: 891 chart items, 292 of them foot items
    forest = _ladder_forest(lt.loads(OFPP_GRAMMAR), 2, 3)
    stats = _tracing(monkeypatch).forest_stats(forest)
    assert stats is not None and stats[:2] == (891, 292)


def _miniature_pass(tmp_path):
    """One pass as ``bench/run.py`` runs it, on five sentences: load the
    grammars and registry through the program's loaders, analyze, build
    the records against gold trees and train for a few attempts."""
    config = pipeline.PipelineConfig(filter_k=3, adjunction_cap=3)
    texts = {
        "ofpp": (OFPP_GRAMMAR, FREQ_TEXT,
                 [_ladder(2), "the/D name/N is/V the/D part/N",
                  "the/D second/A part/N is/V the/D name/N of/P your/D personal/A computer/N"]),
        "fallback": (FALLBACK_GRAMMAR, FALLBACK_FREQ, ["dogs/N run/V|N", "the/D dogs/N run/V"]),
    }
    registry = heuristics.load_registry(ROOT / "sample" / "registry.txt")
    weights = heuristics.load_weights(ROOT / "sample" / "weights.tsv", registry)
    analyses, golds = [], []
    for name, (grammar_text, freq_text, lines) in texts.items():
        (tmp_path / f"{name}.ltag").write_text(grammar_text)
        (tmp_path / f"{name}.freq").write_text(freq_text)
        (tmp_path / f"{name}.tagged").write_text("\n".join(lines) + "\n")
        g = grammar.load_grammar(tmp_path / f"{name}.ltag", tmp_path / f"{name}.freq")
        for sentence in tagging.read_tagged_corpus(tmp_path / f"{name}.tagged"):
            analysis = pipeline.analyze_sentence(g, sentence, registry, weights, config)
            assert analysis.parsed
            analyses.append(analysis)
            golds.append(parseval.flatten(analysis.parses[-1].derived.root, FLATTEN))
    records = cli.build_records(analyses, golds, "standard", FLATTEN)
    spec = training.split(range(len(records)), (3, 1, 1), 1)
    train_config = training.TrainConfig(delta_scale=1.0, max_iterations=5,
                                        strike_limit=6, seed=1)
    result = training.train(records, spec, train_config, weights,
                            heuristic_names=registry.names())
    assert result.state.attempts == 5


def test_traced_pass_reads_every_layer(monkeypatch, tmp_path):
    # a traced benchmark run reads every layer off the program's results
    # through its hooks; a hook that raises, or a layer it cannot read,
    # would leave the run without a well-formed result line
    tracer = _tracing(monkeypatch).Tracer()
    tracer.install()
    try:
        _miniature_pass(tmp_path)
    finally:
        tracer.remove()
    assert tracer.absent == {}
    values = tracer.layer_values()
    assert [name for name, value in values.items() if value is None] == []
    assert values["filtering.fallbacks"] >= 1 and values["training.attempts"] == 5


def test_benchmark_checks_pass_on_records_with_unscored_candidates(monkeypatch, tmp_path):
    # a pass as bench/run.py checks it, on of-PP sentences up to the 18-word
    # ladder, where 109 of the 227 candidates are out of every top 6 and go
    # unscored: each gold is the parse that hidden weights rank first,
    # picked as ``write_gold`` picks it; the trainer's log and weights equal
    # ``reference_log``'s, which ranks every candidate, and every gold
    # candidate scores as a perfect match
    monkeypatch.syspath_prepend(str(BENCH))
    import check
    import workloads
    config = pipeline.PipelineConfig(filter_k=3, adjunction_cap=3)
    g = lt.loads(OFPP_GRAMMAR, FREQ_TEXT)
    registry = heuristics.load_registry(ROOT / "sample" / "registry.txt")
    weights = heuristics.load_weights(ROOT / "sample" / "weights.tsv", registry)
    hidden = workloads.hidden_weights(registry.names(), 1)
    lines = [_ladder(pps) for pps in range(5)] + [
        "the/D name/N is/V the/D part/N",
        "the/D second/A part/N is/V the/D name/N of/P your/D personal/A computer/N"]
    analyses, golds, gold_index = [], [], {}
    for sid, line in enumerate(lines):
        analysis = pipeline.analyze_sentence(g, lt.parse_tagged_line(line), registry,
                                             weights, config)
        parses = analysis.parses
        gold_index[sid] = min(range(len(parses)),
                              key=lambda i: (training.score(parses[i].vector, hidden), i))
        analyses.append(analysis)
        golds.append(parseval.flatten(parses[gold_index[sid]].derived.root, FLATTEN))
    records = cli.build_records(analyses, golds, "standard", FLATTEN)
    assert [sum(c.scores is None for c in records[sid].candidates)
            for sid in range(5)] == [0, 0, 0, 0, 109]
    assert len(records[4].candidates) == 227
    spec = training.split(range(len(lines)), (3, 1, 1), 0)
    train_config = training.TrainConfig(top_k=6, aggregation="mean_of_k", delta_scale=1.0,
                                        max_iterations=40, strike_limit=41, seed=5)
    result = training.train(records, spec, train_config, weights,
                            heuristic_names=registry.names())
    training.write_log(tmp_path / "train.log", result, train_config, spec)
    reference = check.reference_log(records, spec, train_config, weights,
                                    registry.names())
    assert (tmp_path / "train.log").read_bytes() == reference
    assert result.weights == json.loads(reference.splitlines()[-1])["best_weights"]
    assert result.state.accepted > 0
    assert check.gold_sanity(records, gold_index) is None


def _refuse_constant(name):
    raise ValueError(f"{name} is not JSON")


def test_traced_benchmark_run_ends_in_a_complete_result(tmp_path):
    # ``bench/run.py --trace 1`` reads the program by attribute name and by
    # chart layout, on every layer of a real workload.  It runs on a copy of
    # the checkout, so the inputs it writes stay out of this one; its last
    # line must be a strict JSON result with every metric present
    ignore = shutil.ignore_patterns("__pycache__", "out")
    for part in ("bench", "src", "tests", "sample"):
        shutil.copytree(ROOT / part, tmp_path / part, ignore=ignore)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "ofpp_ladder", "--seed", "1",
         "--seconds", "0", "--trace", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1], parse_constant=_refuse_constant)
    assert result["correct"] is True and result["failed"] == 0, proc.stderr
    assert [name for name, entry in result["metrics"].items()
            if entry["value"] is None] == []
    conditions = [line for line in lines if line.startswith("conditions ")]
    assert json.loads(conditions[-1][len("conditions "):])["absent"] == {}

"""The traced benchmark run's view of the program.

``bench/tracing.py`` reads the program from outside: it wraps module
attributes by name and walks the parse forest's chart.  A rename or a new
chart layout does not break the traced run, which reports the layer as
absent instead; these tests make such a change fail here first.
"""

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

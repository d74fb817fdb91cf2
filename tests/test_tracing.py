"""The traced benchmark run's view of the program.

``bench/tracing.py`` reads the program from outside: it wraps module
attributes by name and walks the parse forest's chart.  A rename or a new
chart layout does not break the traced run, which reports the layer as
absent instead; these tests make such a change fail here first.
"""

from pathlib import Path

import ltagrank as lt
from test_parser import _ladder_forest
from toygrammars import OFPP_GRAMMAR

BENCH = Path(__file__).resolve().parent.parent / "bench"


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

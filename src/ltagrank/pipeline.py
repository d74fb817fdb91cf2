"""End-to-end sentence processing: select, filter, parse, rank."""

from __future__ import annotations

import gc
from dataclasses import dataclass

from .filtering import FilterReport, filter_with_fallback, structural_filter
from .grammar import Grammar
from .heuristics import HeuristicRegistry, RankedParse, rank
from .parser import Deriver, FeatureConflict, ParseForest, enumerate_derivations, parse
from .parser import derive  # noqa: F401 -- bench/tracing.py times it as pipeline.derive
from .tagging import select_trees


@dataclass
class PipelineConfig:
    start: str = "S"
    filter_k: int | None = 3
    adjunction_cap: int | None = None
    check_features: bool = False
    open_class_fallback: bool = False
    max_parses: int | None = None


@dataclass
class SentenceAnalysis:
    words: list[str]
    report: FilterReport | None
    forest: ParseForest
    parses: list[RankedParse]

    @property
    def derivation_count(self) -> int:
        return len(self.parses)

    @property
    def parsed(self) -> bool:
        return bool(self.parses)


def analyze_sentence(grammar: Grammar, sentence, registry: HeuristicRegistry,
                     weights, config: PipelineConfig | None = None) -> SentenceAnalysis:
    """Run the full per-sentence pipeline and return its ranked parses.

    The frequency cut only applies when the grammar actually carries a
    frequency table; without one the cut would be an arbitrary name-order
    truncation.

    Parses are ranked off their derivations, and no tree is derived: a
    parse's ``derived`` is built on first read, through one ``Deriver`` per
    sentence, so the trees read share their subtrees.  With
    ``check_features`` that ``Deriver`` checks every parse's derivation
    here, without building its tree, and those whose features clash are
    dropped; a tree read later reuses the checks of its substituted nodes.

    The cyclic garbage collector is paused for the whole call.  Everything
    the call builds (chart, derivations, derived trees, ranked parses) is
    acyclic, so reference counting alone frees all of it that is dropped,
    and a collection during the call would free nothing: it would only
    trace live objects, again and again.  On return or raise the caller's
    collector state is restored; when the collector was on, one young
    collection first traces the call's survivors once, so that the
    caller's next allocation does not pay for it.  The pause is
    process-wide, which is safe because the toolkit runs one thread.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        config = config or PipelineConfig()
        words = [w.surface for w in sentence]
        assignment = select_trees(grammar, sentence,
                                  open_class_fallback=config.open_class_fallback)

        def parse_fn(g, s, a):
            return parse(g, s, a, start=config.start, adjunction_cap=config.adjunction_cap)

        report = None
        filter_k = config.filter_k if grammar.freq.entries else None
        if filter_k is not None:
            forest, report = filter_with_fallback(
                grammar, sentence, assignment, filter_k, parse_fn)
        else:
            forest = parse_fn(grammar, sentence,
                              structural_filter(grammar, sentence, assignment))

        derivations = enumerate_derivations(forest, config.max_parses)
        deriver = Deriver(grammar, words, config.check_features)
        if config.check_features:
            derivations = [derivation for derivation in derivations
                           if _unifies(deriver, derivation)]
        ranked = rank(deriver, derivations, registry, weights)
        return SentenceAnalysis(words, report, forest, ranked)
    finally:
        if enabled:
            gc.collect(0)
            gc.enable()


def _unifies(deriver, derivation) -> bool:
    """Whether ``derivation``'s features unify; no tree is built."""
    try:
        deriver.check(derivation)
    except FeatureConflict:
        return False
    return True

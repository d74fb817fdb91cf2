"""End-to-end sentence processing: select, filter, parse, derive, rank."""

from __future__ import annotations

from dataclasses import dataclass

from .filtering import FilterReport, filter_with_fallback, structural_filter
from .grammar import Grammar
from .heuristics import HeuristicRegistry, RankedParse, rank
from .parser import FeatureConflict, ParseForest, derive, enumerate_derivations, parse
from .tagging import TreeAssignment, select_trees


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
    sentence: list
    words: list[str]
    assignment: TreeAssignment
    report: FilterReport | None
    forest: ParseForest
    parses: list[RankedParse]
    derivation_count: int

    @property
    def parsed(self) -> bool:
        return bool(self.parses)


def analyze_sentence(grammar: Grammar, sentence, registry: HeuristicRegistry,
                     weights, config: PipelineConfig | None = None) -> SentenceAnalysis:
    """Run the full per-sentence pipeline and return its ranked parses.

    The frequency cut only applies when the grammar actually carries a
    frequency table; without one the cut would be an arbitrary name-order
    truncation.
    """
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
            grammar, sentence, assignment, grammar.freq, filter_k, parse_fn)
    else:
        forest = parse_fn(grammar, sentence,
                          structural_filter(grammar, sentence, assignment))

    derivations = enumerate_derivations(forest, config.max_parses)
    pairs = []
    for derivation in derivations:
        try:
            derived = derive(grammar, derivation, words,
                             check_features=config.check_features)
        except FeatureConflict:
            continue
        pairs.append((derivation, derived))
    ranked = rank(grammar, pairs, registry, weights)
    return SentenceAnalysis(sentence, words, assignment, report, forest,
                            ranked, len(pairs))

"""Fixtures shared by several test modules."""

import time

import pytest

import ltagrank as lt
from oracles import derivation_universe
from toygrammars import CLAUSE_GRAMMAR, MODIFIER_GRAMMAR, PP_GRAMMAR


@pytest.fixture(scope="session")
def universes():
    """Brute-force derivation universes (up to 7 anchors) for the toy grammars."""
    out = {}
    start = time.perf_counter()
    for name, text in [("clauses", CLAUSE_GRAMMAR), ("pp", PP_GRAMMAR),
                       ("modifiers", MODIFIER_GRAMMAR)]:
        grammar = lt.loads(text)
        vocab = sorted({w for (w, _) in grammar.lexicon})
        assert len(vocab) == 10
        out[name] = (grammar, vocab, derivation_universe(grammar, "S", 7))
    out["_generation_seconds"] = time.perf_counter() - start
    return out

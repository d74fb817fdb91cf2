"""Seeded inputs for the benchmark workloads.

A workload is a corpus of (grammar id, tagged line) items plus the settings of
the trainer run that follows each pass over it and the fewest passes a run
makes (the tail percentile is fixed by it).  Every workload keeps the
amount of work it asks for nearly fixed across seeds: the seed picks words,
pool samples within fixed strata, the hidden gold weights and the trainer
seed, never the number, shape or order of the sentences.

Two kinds of sentence appear:

* of-PP sentences on ``OFPP_GRAMMAR``, written as a tag sequence whose words
  are drawn per tag.  Every word of a tag selects the same trees there and no
  lexical heuristic fires on any of them except ``of``, so the outputs depend
  only on the tag sequence; their expected outputs are keyed by it.
* pool sentences: fixed lists recorded in ``expected.json`` (samples of the
  brute-force parse universes, random word strings, fallback sentences); the
  seed samples a fixed number from each stratum.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from test_filtering import FALLBACK_FREQ, FALLBACK_GRAMMAR
from toygrammars import (CLAUSE_GRAMMAR, FREQ_TEXT, MODIFIER_GRAMMAR,
                         OFPP_GRAMMAR, PP_GRAMMAR)

# grammar id -> (grammar text, frequency table text)
GRAMMARS = {
    "ofpp": (OFPP_GRAMMAR, FREQ_TEXT),
    "pp": (PP_GRAMMAR, FREQ_TEXT),
    "clauses": (CLAUSE_GRAMMAR, FREQ_TEXT),
    "modifiers": (MODIFIER_GRAMMAR, FREQ_TEXT),
    "fallback": (FALLBACK_GRAMMAR, FALLBACK_FREQ),
}
UNIVERSE_GRAMMARS = ("pp", "clauses", "modifiers")
MAX_ORACLE_WORDS = 7

OFPP_WORDS = {"D": ("the", "your"), "A": ("second", "personal"),
              "N": ("part", "name", "computer"), "V": ("is",), "P": ("of",)}

# the ROADMAP baseline sentence: "the second part is the name" + k x "of the part"
LADDER_HEAD = ("D", "A", "N", "V", "D", "N")
# rung (PPs, giving 12, 15, 18 and 21 words) -> seeded word choices of it;
# the 21-word rung is 40% of the sentences, so the tail percentile falls in it
LADDER_RUNGS = {2: 2, 3: 2, 4: 2, 5: 4}
# chart items and parses of the ROADMAP ladder, by words
ROADMAP_LADDER = {12: (891, 12), 18: (2956, 227), 21: (4661, 1039)}

# rung (19 to 31 words with the trailing word) -> ladders per trailing word;
# the 31-word rung is weighted so that the tail percentile falls inside it
BROKEN_RUNGS = {4: 1, 5: 1, 6: 1, 7: 1, 8: 3}
BROKEN_TAILS = ("P", "D", "V")

# per-run sample size of each pool stratum
POOL_SAMPLE = {"universe": 8, "random": 4, "fallback": 3}


@dataclass
class Workload:
    name: str
    items: list          # (grammar id, tagged line, expected key)
    max_iterations: int
    min_passes: int      # passes a run makes at least
    split_seed: int
    train_seed: int
    hidden_seed: int


def ladder_tags(k: int) -> tuple:
    return LADDER_HEAD + ("P", "D", "N") * k


def ofpp_key(tags) -> str:
    return "ofpp|" + " ".join(tags)


def _ofpp_line(rng: random.Random, tags) -> str:
    return " ".join(f"{rng.choice(OFPP_WORDS[t])}/{t}" for t in tags)


def _ofpp_item(rng, tags):
    return ("ofpp", _ofpp_line(rng, tags), ofpp_key(tags))


def _np(adjective: bool) -> tuple:
    return ("D", "A", "N") if adjective else ("D", "N")


def train_shapes() -> list:
    """192 of-PP tag sequences: 64 with one PP, 96 with two and 32 with
    three, every placement of adjectives equally often (3-4, 12-16 and 48-69
    parses)."""
    shapes = []
    for k, repeats in ((1, 8), (2, 6), (3, 1)):
        for mask in range(2 ** (k + 2)):
            bits = [(mask >> i) & 1 for i in range(k + 2)]
            tags = _np(bits[0]) + ("V",) + _np(bits[1])
            for bit in bits[2:]:
                tags += ("P",) + _np(bit)
            shapes.extend([tags] * repeats)
    return shapes


def _sample_pool(rng, pool, category):
    """A fixed number of entries from each (grammar, length) stratum."""
    strata = {}
    for gid, line in pool[category]:
        strata.setdefault((gid, len(line.split())), []).append((gid, line))
    items = []
    for key in sorted(strata):
        entries = strata[key]
        for gid, line in rng.sample(entries, min(POOL_SAMPLE[category], len(entries))):
            items.append((gid, line, f"{gid}|{line}"))
    return items


def make_workload(name: str, seed: int, pool: dict) -> Workload:
    rng = random.Random(f"{name}:{seed}")
    if name == "ofpp_ladder":
        items = [_ofpp_item(rng, ladder_tags(k))
                 for k, variants in LADDER_RUNGS.items() for _ in range(variants)]
        max_iterations, min_passes = 100, 4
    elif name == "chart_sweep":
        items = _sample_pool(rng, pool, "universe") + _sample_pool(rng, pool, "random")
        items += _sample_pool(rng, pool, "fallback")
        for k, copies in BROKEN_RUNGS.items():
            for tail in BROKEN_TAILS:
                items += [_ofpp_item(rng, ladder_tags(k) + (tail,)) for _ in range(copies)]
        max_iterations, min_passes = 200, 6
    elif name == "train_loop":
        items = [_ofpp_item(rng, tags) for tags in train_shapes()]
        max_iterations, min_passes = 100, 5
    else:
        raise ValueError(f"unknown workload {name!r}")
    # items keep their order, so the fixed split puts the same kinds of
    # sentence in TRAIN for every seed
    return Workload(name, items, max_iterations, min_passes, split_seed=0,
                    train_seed=rng.randrange(2 ** 31),
                    hidden_seed=rng.randrange(2 ** 31))


def hidden_weights(registry_names, seed: int) -> list:
    """The weight vector whose first-ranked parse is each sentence's gold.

    It prefers high PP attachment and fewer adjunctions, so the uniform start
    weights are wrong on some sentences and the trainer has steps to accept.
    """
    rng = random.Random(seed)
    weights = [rng.uniform(0.5, 1.5) for _ in registry_names]
    weights[registry_names.index("pp_attachment_height")] = -rng.uniform(0.5, 1.5)
    return weights


# ---------------------------------------------------------------------------
# pool construction (run once, by record.py)

def build_pool(universes, seed: int = 0) -> dict:
    """Pool sentences: up to 24 universe samples and 12 random strings
    outside the universe per (grammar, length) stratum, and every sentence of
    the fallback family below, each of which loses its verb to the frequency
    cut and is parsed twice.

    ``universes`` maps a grammar id to (grammar, oracle universe).
    """
    rng = random.Random(seed)
    pool = {"universe": [], "random": [], "fallback": []}
    for gid in UNIVERSE_GRAMMARS:
        grammar, universe = universes[gid]
        by_length = {}
        for words in sorted(universe):
            by_length.setdefault(len(words), []).append(words)
        for length in sorted(by_length):
            for words in rng.sample(by_length[length], min(24, len(by_length[length]))):
                pool["universe"].append((gid, tag_words(grammar, words)))
        vocab = sorted({w for (w, _) in grammar.lexicon})
        for length in range(3, MAX_ORACLE_WORDS + 1):
            found = 0
            while found < 12:
                words = tuple(rng.choice(vocab) for _ in range(length))
                if words not in universe:
                    pool["random"].append((gid, tag_words(grammar, words)))
                    found += 1
    for det in ("", "the/D "):
        for n in (1, 2, 3):
            for mask in range(2 ** n):
                nouns = ["run/N" if (mask >> i) & 1 else "dogs/N" for i in range(n)]
                pool["fallback"].append(("fallback", det + " ".join(nouns) + " run/V|N"))
    return pool


def tag_words(grammar, words) -> str:
    """Tag each word with every POS the lexicon gives it, as the acceptance
    suite does."""
    return " ".join(f"{w}/{'|'.join(sorted(grammar.pos_tags_for_word(w)))}" for w in words)

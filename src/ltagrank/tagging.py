"""Stage 1 of disambiguation: map tagged words to candidate tree sets.

Tagged corpora are one sentence per line, tokens written ``word/TAG`` or
``word/TAG1|TAG2`` when the tagger supplies N-best tags (most likely first).
"""

from __future__ import annotations

from dataclasses import dataclass

from .grammar import Grammar, open_text


class TaggedInputError(Exception):
    pass


@dataclass(frozen=True)
class TaggedWord:
    surface: str
    tags: tuple[str, ...]

    def __post_init__(self):
        if not self.tags:
            raise TaggedInputError(f"word {self.surface!r} has no tags")
        if "" in self.tags:
            raise TaggedInputError(f"word {self.surface!r} has an empty tag")
        if len(set(self.tags)) != len(self.tags):
            raise TaggedInputError(f"word {self.surface!r} has duplicate tags")


@dataclass
class TreeAssignment:
    """Per-position candidate tree names, kept sorted for determinism."""

    candidates: list[list[str]]


def parse_tagged_line(line: str) -> list[TaggedWord]:
    words = []
    for token in line.split():
        if "/" not in token:
            raise TaggedInputError(f"token {token!r} is missing a /TAG suffix")
        surface, _, tag_text = token.rpartition("/")
        if not surface or not tag_text:
            raise TaggedInputError(f"token {token!r} is missing a /TAG suffix")
        words.append(TaggedWord(surface, tuple(tag_text.split("|"))))
    return words


def read_tagged_corpus(path) -> list[list[TaggedWord]]:
    """The sentences of the non-blank lines of ``path``.  An error names the
    file and the line, counting blank lines."""
    sentences = []
    with open_text(path) as handle:
        for number, raw in enumerate(handle, start=1):
            line = raw.strip()
            if line:
                try:
                    sentences.append(parse_tagged_line(line))
                except TaggedInputError as exc:
                    raise TaggedInputError(f"{path}, line {number}: {exc}") from None
    return sentences


def select_trees(grammar: Grammar, sentence: list[TaggedWord],
                 open_class_fallback: bool = False) -> TreeAssignment:
    """Union, per position, of the trees selected for each of the word's tags.

    A word unknown to the lexicon gets an empty candidate set unless
    ``open_class_fallback`` is on, in which case it gets every tree anchored
    by one of its tags.
    """
    if not sentence:
        raise ValueError("sentence must be non-empty")
    candidates = []
    for word in sentence:
        names: set[str] = set()
        for tag in word.tags:
            names |= grammar.trees_for_word(word.surface, tag)
        if not names and open_class_fallback:
            for tag in word.tags:
                names |= grammar.trees_with_anchor_pos(tag)
        candidates.append(sorted(names))
    return TreeAssignment(candidates)

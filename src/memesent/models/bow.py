"""Bag-of-words presence vectors over a capped training vocabulary."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = ["BowVocab", "build_bow_vocab", "bow_vectorize"]


@dataclass(frozen=True)
class BowVocab:
    """Ordered token list; position defines the vector component."""

    words: tuple[str, ...]

    def __post_init__(self):
        if len(set(self.words)) != len(self.words):
            raise ValueError("vocabulary contains duplicate words")

    def __len__(self) -> int:
        return len(self.words)

    @cached_property
    def index(self) -> dict[str, int]:
        return {w: i for i, w in enumerate(self.words)}


def build_bow_vocab(token_lists: list[list[str]], max_size: int = 5000) -> BowVocab:
    """Top ``max_size`` tokens by corpus frequency, ties lexicographic.

    Built from the training split only; the resulting ordering is
    deterministic, so vectors are stable across runs.
    """
    if max_size < 1:
        raise ValueError(f"max_size must be >= 1, got {max_size}")
    freq = Counter(t for tokens in token_lists for t in tokens)
    ranked = sorted(freq.items(), key=lambda kv: (-kv[1], kv[0]))
    return BowVocab(words=tuple(w for w, _ in ranked[:max_size]))


def bow_vectorize(tokens: list[str], vocab: BowVocab, out: np.ndarray | None = None) -> np.ndarray:
    """Binary float32 presence vector: component i is 1 iff vocab[i] occurs.

    Written into ``out``, a zeroed float32 row of ``len(vocab)``, when
    given (one row of a matrix filled in place); returns the row.
    """
    vec = np.zeros(len(vocab), dtype=np.float32) if out is None else out
    index = vocab.index
    for t in tokens:
        j = index.get(t)
        if j is not None:
            vec[j] = 1.0
    return vec

"""Pre-trained word-embedding tables and mean-pooled caption vectors.

Two on-disk formats are supported, both starting with an ASCII header
line "<vocab_size> <dim>\\n":

* binary: per word, the token bytes terminated by a single space,
  followed by ``dim`` little-endian IEEE-754 32-bit floats, followed by
  a newline (the reader also accepts files without the trailing
  newline). This is the layout of Mikolov et al. (2013).
* text: per word, one line "token v1 v2 ... v<dim>" with decimal
  floats.

A table is a words tuple, a word -> row index and one ``(V, dim)``
matrix, which the readers allocate once as float32 and fill in place
(the binary reader reads in blocks); with a vocabulary filter they
shrink it in place to the words found. A loaded table written back in
its layout gives the file's bytes again, for files using the newline
convention (the tests hold such writers).

A caption embedding is the mean of the rows of its in-vocabulary
tokens, summed in float64 and stored as float32; out-of-vocabulary
tokens are skipped, and a caption with none maps to the zero vector.
``embed_corpus`` stacks them into the ``(n, dim)`` matrix that
``Word2vecFfnnClassifier`` takes.
"""

from __future__ import annotations

import os
from collections.abc import Mapping
from dataclasses import dataclass, field
from functools import partial
from itertools import chain
from pathlib import Path
from types import MappingProxyType

import numpy as np

from .errors import DataFormatError

__all__ = [
    "EmbeddingTable",
    "CoverageStats",
    "FORMATS",
    "load_word2vec_binary",
    "load_word2vec_text",
    "load_embeddings",
    "embed_corpus",
    "corpus_coverage",
]

_BLOCK = 1 << 18  # bytes the binary reader asks for at a time
_POOL_CAPTIONS = 2048  # captions embed_corpus pools at a time
_POOL_VALUES = 1 << 15  # float32 values' worth of a pooling chunk (128 KiB)


def _index(words, source: str) -> dict[str, int]:
    """word -> row; raises naming the first word that appears twice."""
    index = dict(zip(words, range(len(words))))
    if len(index) < len(words):
        row, word = next((i, w) for i, w in enumerate(words) if index[w] != i)
        raise DataFormatError(
            f"{source}: duplicate word {word!r} at rows {row} and {index[word]}"
        )
    return index


@dataclass(frozen=True, eq=False)
class EmbeddingTable:
    """Row ``i`` of ``matrix`` is the vector of ``words[i]``; ``index``
    maps each word to its row."""

    words: tuple[str, ...]
    matrix: np.ndarray
    source: str = "memory"
    index: dict[str, int] = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "words", tuple(self.words))
        object.__setattr__(self, "index", _index(self.words, self.source))
        shape = self.matrix.shape
        if len(shape) != 2 or shape[0] != len(self.words) or shape[1] < 1:
            raise DataFormatError(
                f"{self.source}: matrix of shape {shape} for {len(self.words)} words"
            )
        # NaN and inf show in a row's least or greatest entry: two (V,)
        # reductions instead of a (V, dim) mask
        finite = np.isfinite(self.matrix.min(axis=1)) & np.isfinite(self.matrix.max(axis=1))
        if not finite.all():
            raise DataFormatError(
                f"{self.source}: vector for {self.words[int(np.argmin(finite))]!r} "
                "contains non-finite values"
            )

    @property
    def dim(self) -> int:
        return self.matrix.shape[1]

    @property
    def vectors(self) -> Mapping[str, np.ndarray]:
        """Read-only word -> row mapping."""
        return MappingProxyType(dict(zip(self.words, self.matrix)))

    def __len__(self) -> int:
        return len(self.words)

    def __contains__(self, word: str) -> bool:
        return word in self.index

    def __getitem__(self, word: str) -> np.ndarray:
        return self.matrix[self.index[word]]


@dataclass(frozen=True)
class CoverageStats:
    """Corpus-level vocabulary coverage of an embedding table."""

    n_captions: int
    n_all_oov: int
    n_tokens: int
    n_covered_tokens: int

    @property
    def token_coverage(self) -> float:
        return self.n_covered_tokens / self.n_tokens if self.n_tokens else 0.0


def _parse_header(line: bytes, path: Path) -> tuple[int, int]:
    try:
        vocab_s, dim_s = line.decode("utf-8").split()
        vocab_size, dim = int(vocab_s), int(dim_s)
    except (ValueError, UnicodeDecodeError) as exc:
        raise DataFormatError(f"{path}: bad header line {line!r}") from exc
    if vocab_size < 0 or dim <= 0:
        raise DataFormatError(f"{path}: bad header values {vocab_size} {dim}")
    return vocab_size, dim


def _matrix(fh, vocab_size: int, dim: int, row_bytes: int, vocab_filter) -> np.ndarray:
    """An empty float32 matrix for the words still to read from ``fh``:
    no more rows than declared, than the rest of the file holds at
    ``row_bytes`` or more each, or than the filter keeps."""
    rows = min(vocab_size, (os.fstat(fh.fileno()).st_size - fh.tell()) // row_bytes)
    if vocab_filter is not None:
        rows = min(rows, len(vocab_filter))
    return np.empty((rows, dim), dtype="<f4")


def load_word2vec_binary(
    path: str | Path, vocab_filter: set[str] | None = None
) -> EmbeddingTable:
    """Load a binary embedding file.

    ``vocab_filter`` keeps only the listed words (the whole file is
    still scanned); without it the loaded vocabulary size must equal
    the header declaration exactly. Token bytes must be UTF-8.
    """
    path = Path(path)
    if not path.is_file():
        raise DataFormatError(f"embedding file not found: {path}")
    source = f"{path}#binary"
    with open(path, "rb") as fh:
        vocab_size, dim = _parse_header(fh.readline(), path)
        vec_bytes = 4 * dim
        # read() allocates what it is asked for before it finds the end
        file_bytes = os.fstat(fh.fileno()).st_size
        matrix = _matrix(fh, vocab_size, dim, vec_bytes + 1, vocab_filter)
        words: list[str] = []
        buf, pos = b"", 0  # buf[pos:] is read but not yet parsed
        for index in range(vocab_size):
            seen = pos
            while (space := buf.find(b" ", seen)) < 0:
                seen = len(buf) - pos  # searched already; a long token doubles the read
                buf, pos = buf[pos:] + fh.read(max(_BLOCK, seen)), 0
                if len(buf) == seen:
                    raise DataFormatError(
                        f"{path}: truncated file at word index {index} (reading token)"
                    )
            # newlines before a token are the previous vector's terminator
            token, pos = buf[pos:space].lstrip(b"\n"), space + 1
            if len(buf) - pos < vec_bytes:
                missing = vec_bytes - (len(buf) - pos)
                buf, pos = buf[pos:] + fh.read(min(missing, file_bytes)), 0
                if len(buf) < vec_bytes:
                    raise DataFormatError(
                        f"{path}: truncated file at word index {index} "
                        f"(got {len(buf)} of {vec_bytes} vector bytes)"
                    )
            try:
                word = token.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise DataFormatError(
                    f"{path}: non-UTF-8 token bytes at word index {index}: {exc}"
                ) from exc
            if vocab_filter is None or word in vocab_filter:
                if len(words) == len(matrix):  # only a repeated filter word gets here
                    _index(words + [word], source)
                matrix[len(words)] = np.frombuffer(buf, "<f4", dim, pos)
                words.append(word)
            pos += vec_bytes
        trailer = buf[pos:] + fh.read()
    if trailer.strip(b"\n\r "):
        raise DataFormatError(
            f"{path}: {len(trailer)} unexpected bytes after the declared "
            f"{vocab_size} vectors"
        )
    # in place: frees the rows a filter left empty; ``matrix`` is a local
    # with no views, so numpy's reference check (which a tracer reading
    # frame locals can trip) is off
    matrix.resize((len(words), dim), refcheck=False)
    return EmbeddingTable(words, matrix, source)


def load_word2vec_text(
    path: str | Path, vocab_filter: set[str] | None = None
) -> EmbeddingTable:
    """Load a text-format embedding file (header line, then one word per line)."""
    path = Path(path)
    if not path.is_file():
        raise DataFormatError(f"embedding file not found: {path}")
    source = f"{path}#text"
    # a component beyond float32 becomes inf, which EmbeddingTable names
    with open(path, "rb") as fh, np.errstate(over="ignore"):
        vocab_size, dim = _parse_header(fh.readline(), path)
        # a line that reaches the matrix holds dim separators at least
        matrix = _matrix(fh, vocab_size, dim, dim, vocab_filter)
        words: list[str] = []
        count = 0
        for lineno, raw_line in enumerate(fh, start=2):
            try:
                line = raw_line.decode("utf-8").rstrip("\r\n")
            except UnicodeDecodeError as exc:
                raise DataFormatError(f"{path}:{lineno}: not UTF-8: {exc}") from exc
            if not line:
                continue
            parts = line.split(" ")
            if len(parts) != dim + 1:
                raise DataFormatError(
                    f"{path}:{lineno}: expected token plus {dim} components, "
                    f"got {len(parts) - 1}"
                )
            word = parts[0]
            count += 1
            if count > vocab_size:
                raise DataFormatError(
                    f"{path}:{lineno}: more words than the declared {vocab_size}"
                )
            if vocab_filter is not None and word not in vocab_filter:
                continue
            if len(words) == len(matrix):  # only a repeated filter word gets here
                _index(words + [word], source)
            try:
                matrix[len(words)] = parts[1:]
            except ValueError as exc:
                raise DataFormatError(f"{path}:{lineno}: bad float: {exc}") from exc
            words.append(word)
    if count != vocab_size:
        raise DataFormatError(
            f"{path}: header declares {vocab_size} words but file has {count}"
        )
    # in place: frees the rows a filter left empty; ``matrix`` is a local
    # with no views, so numpy's reference check (which a tracer reading
    # frame locals can trip) is off
    matrix.resize((len(words), dim), refcheck=False)
    return EmbeddingTable(words, matrix, source)


# format name -> reader
FORMATS = {"binary": load_word2vec_binary, "text": load_word2vec_text}


def load_embeddings(
    path: str | Path,
    fmt: str = "binary",
    vocab_filter: set[str] | None = None,
) -> EmbeddingTable:
    if fmt not in FORMATS:
        raise DataFormatError(
            f"unknown embedding format {fmt!r}; use {' or '.join(map(repr, FORMATS))}")
    return FORMATS[fmt](path, vocab_filter=vocab_filter)


def corpus_coverage(captions: list[list[str]], table: EmbeddingTable) -> CoverageStats:
    index = table.index
    covered = [sum(t in index for t in tokens) for tokens in captions]
    return CoverageStats(
        n_captions=len(captions),
        n_all_oov=covered.count(0),
        n_tokens=sum(map(len, captions)),
        n_covered_tokens=sum(covered),
    )


def embed_corpus(captions: list[list[str]], table: EmbeddingTable) -> np.ndarray:
    """Stack per-caption mean-pooled embeddings into an (n, dim) float32
    matrix; each row is the float64 mean of its tokens' rows, cast.

    Captions are pooled ``_POOL_CAPTIONS`` at a time, grouped by their
    in-vocabulary token count ``k``. A chunk of ``g`` captions of one
    group gathers one ``(g, k, dim)`` block and takes its float64 mean
    over ``k``, which adds each caption's rows in token order: every row
    has the bits of pooling its caption alone. A chunk's block and its
    float64 means hold at most ``_POOL_VALUES`` float32 values' worth
    (or one caption), so the memory beyond the output is bounded by the
    window, not by the corpus.
    """
    index, matrix, dim = table.index, table.matrix, table.dim
    known = index.__contains__
    out = np.zeros((len(captions), dim), dtype=np.float32)
    for lo in range(0, len(captions), _POOL_CAPTIONS):
        window, pooled = captions[lo : lo + _POOL_CAPTIONS], out[lo : lo + _POOL_CAPTIONS]
        counts = np.fromiter(map(sum, map(partial(map, known), window)), np.intp, len(window))
        # the window's in-vocabulary rows, caption after caption
        ids = np.fromiter(map(index.__getitem__, filter(known, chain.from_iterable(window))),
                          np.intp, int(counts.sum()))
        first = np.cumsum(counts) - counts
        order = np.argsort(counts, kind="stable")
        start = 0
        for k, size in enumerate(np.bincount(counts).tolist()):
            if k and size:  # captions with no in-vocabulary token stay zero
                span, step = np.arange(k), max(1, _POOL_VALUES // ((k + 2) * dim))
                for s in range(start, start + size, step):
                    rows = order[s : min(s + step, start + size)]
                    pooled[rows] = matrix[ids[first[rows, None] + span]].mean(
                        axis=1, dtype=np.float64)
            start += size
    return out

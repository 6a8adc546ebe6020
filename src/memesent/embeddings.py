"""Pre-trained word-embedding tables and mean-pooled caption vectors.

Two on-disk formats are supported, both starting with an ASCII header
line "<vocab_size> <dim>\\n":

* binary: per word, the token bytes terminated by a single space,
  followed by ``dim`` little-endian IEEE-754 32-bit floats, followed by
  a newline (the reader also accepts files without the trailing
  newline).
* text: per word, one line "token v1 v2 ... v<dim>" with decimal
  floats.

Loaded vectors stay float32, as stored; pooling widens them to float64.
A load -> save round trip is byte-identical for files using the newline
convention.

A caption embedding is the arithmetic mean of the vectors of its
in-vocabulary tokens; out-of-vocabulary tokens are skipped rather than
zero-substituted, and a caption with no in-vocabulary tokens maps to
the zero vector.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DataFormatError

__all__ = [
    "EmbeddingTable",
    "CaptionEmbedding",
    "CoverageStats",
    "load_word2vec_binary",
    "write_word2vec_binary",
    "load_word2vec_text",
    "write_word2vec_text",
    "load_embeddings",
    "caption_embedding",
    "embed_corpus",
    "corpus_coverage",
]


@dataclass(frozen=True)
class EmbeddingTable:
    """word -> vector map with a fixed dimensionality."""

    dim: int
    vectors: dict[str, np.ndarray]
    source: str = "memory"

    def __post_init__(self):
        for word, vec in self.vectors.items():
            if vec.shape != (self.dim,):
                raise DataFormatError(
                    f"vector for {word!r} has shape {vec.shape}, expected ({self.dim},)"
                )
            if not np.all(np.isfinite(vec)):
                raise DataFormatError(
                    f"{self.source}: vector for {word!r} contains non-finite values"
                )

    def __len__(self) -> int:
        return len(self.vectors)

    def __contains__(self, word: str) -> bool:
        return word in self.vectors

    def __getitem__(self, word: str) -> np.ndarray:
        return self.vectors[word]


@dataclass(frozen=True)
class CaptionEmbedding:
    vector: np.ndarray
    covered: int
    total: int


@dataclass(frozen=True)
class CoverageStats:
    """Corpus-level vocabulary coverage of an embedding table."""

    n_captions: int
    n_all_oov: int
    n_tokens: int
    n_covered_tokens: int

    @property
    def all_oov_fraction(self) -> float:
        return self.n_all_oov / self.n_captions if self.n_captions else 0.0

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


def load_word2vec_binary(
    path: str | Path,
    vocab_filter: set[str] | None = None,
    encoding_errors: str = "strict",
) -> EmbeddingTable:
    """Load a binary embedding file.

    ``vocab_filter`` keeps only the listed words (the whole file is
    still scanned); without it the loaded vocabulary size must equal
    the header declaration exactly. ``encoding_errors`` follows the
    ``bytes.decode`` convention: "strict" rejects non-UTF-8 token
    bytes, "replace" substitutes them.
    """
    path = Path(path)
    if not path.is_file():
        raise DataFormatError(f"embedding file not found: {path}")
    vectors: dict[str, np.ndarray] = {}
    with open(path, "rb") as fh:
        vocab_size, dim = _parse_header(fh.readline(), path)
        vec_bytes = 4 * dim
        # read() allocates what it is asked for before it finds the end
        file_bytes = os.fstat(fh.fileno()).st_size
        for index in range(vocab_size):
            token_bytes = bytearray()
            while True:
                ch = fh.read(1)
                if not ch:
                    raise DataFormatError(
                        f"{path}: truncated file at word index {index} (reading token)"
                    )
                if ch == b" ":
                    break
                if ch == b"\n" and not token_bytes:
                    continue  # tolerate newline-prefixed tokens
                token_bytes.extend(ch)
            try:
                word = token_bytes.decode("utf-8", errors=encoding_errors)
            except UnicodeDecodeError as exc:
                raise DataFormatError(
                    f"{path}: non-UTF-8 token bytes at word index {index}: {exc}"
                ) from exc
            raw = fh.read(min(vec_bytes, file_bytes))
            if len(raw) != vec_bytes:
                raise DataFormatError(
                    f"{path}: truncated file at word index {index} "
                    f"(got {len(raw)} of {vec_bytes} vector bytes)"
                )
            if vocab_filter is None or word in vocab_filter:
                if word in vectors:
                    raise DataFormatError(
                        f"{path}: duplicate word {word!r} at index {index}"
                    )
                vectors[word] = np.frombuffer(raw, dtype="<f4")
        trailer = fh.read()
    if trailer.strip(b"\n\r "):
        raise DataFormatError(
            f"{path}: {len(trailer)} unexpected bytes after the declared "
            f"{vocab_size} vectors"
        )
    return EmbeddingTable(dim=dim, vectors=vectors, source=f"{path}#binary")


def write_word2vec_binary(table: EmbeddingTable, path: str | Path) -> None:
    """Write the canonical binary layout (newline after every vector)."""
    path = Path(path)
    with open(path, "wb") as fh:
        fh.write(f"{len(table)} {table.dim}\n".encode("utf-8"))
        for word, vec in table.vectors.items():
            fh.write(word.encode("utf-8") + b" ")
            fh.write(vec.astype("<f4").tobytes())
            fh.write(b"\n")


def load_word2vec_text(
    path: str | Path, vocab_filter: set[str] | None = None
) -> EmbeddingTable:
    """Load a text-format embedding file (header line, then one word per line)."""
    path = Path(path)
    if not path.is_file():
        raise DataFormatError(f"embedding file not found: {path}")
    vectors: dict[str, np.ndarray] = {}
    with open(path, "rb") as fh:
        vocab_size, dim = _parse_header(fh.readline(), path)
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
            if word in vectors:
                raise DataFormatError(f"{path}:{lineno}: duplicate word {word!r}")
            try:
                vectors[word] = np.array(parts[1:], dtype="<f4")
            except ValueError as exc:
                raise DataFormatError(f"{path}:{lineno}: bad float: {exc}") from exc
    if count != vocab_size:
        raise DataFormatError(
            f"{path}: header declares {vocab_size} words but file has {count}"
        )
    return EmbeddingTable(dim=dim, vectors=vectors, source=f"{path}#text")


def write_word2vec_text(table: EmbeddingTable, path: str | Path) -> None:
    path = Path(path)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"{len(table)} {table.dim}\n")
        for word, vec in table.vectors.items():
            comps = " ".join(f"{np.float32(v):.9g}" for v in vec)
            fh.write(f"{word} {comps}\n")


def load_embeddings(
    path: str | Path,
    fmt: str = "binary",
    vocab_filter: set[str] | None = None,
) -> EmbeddingTable:
    if fmt == "binary":
        return load_word2vec_binary(path, vocab_filter=vocab_filter)
    if fmt == "text":
        return load_word2vec_text(path, vocab_filter=vocab_filter)
    raise DataFormatError(f"unknown embedding format {fmt!r}; use 'binary' or 'text'")


def caption_embedding(tokens: list[str], table: EmbeddingTable) -> CaptionEmbedding:
    """Mean-pool the in-vocabulary token vectors of one caption."""
    hits = [table.vectors[t] for t in tokens if t in table.vectors]
    if hits:
        vector = np.mean(hits, axis=0, dtype=np.float64)
    else:
        vector = np.zeros(table.dim, dtype=np.float64)
    return CaptionEmbedding(vector=vector, covered=len(hits), total=len(tokens))


def corpus_coverage(captions: list[list[str]], table: EmbeddingTable) -> CoverageStats:
    n_all_oov = 0
    n_tokens = 0
    n_covered = 0
    for tokens in captions:
        covered = sum(1 for t in tokens if t in table.vectors)
        n_tokens += len(tokens)
        n_covered += covered
        if covered == 0:
            n_all_oov += 1
    return CoverageStats(
        n_captions=len(captions),
        n_all_oov=n_all_oov,
        n_tokens=n_tokens,
        n_covered_tokens=n_covered,
    )


def embed_corpus(captions: list[list[str]], table: EmbeddingTable) -> np.ndarray:
    """Stack per-caption mean-pooled embeddings into an (n, dim) matrix."""
    out = np.zeros((len(captions), table.dim), dtype=np.float64)
    for i, tokens in enumerate(captions):
        out[i] = caption_embedding(tokens, table).vector
    return out


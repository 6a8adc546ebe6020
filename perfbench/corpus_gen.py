"""Seeded synthetic inputs shaped like Memotion task A.

Everything is drawn from NumPy generators keyed by the workload seed, so
the same seed writes the same bytes. Three kinds of file are written:

* a captions CSV (``id,caption,label`` plus ``image`` when tensors are
  written): Zipf-distributed content words, English stopwords, some
  capitalisation, punctuation and plural suffixes, and a planted class
  signal in the form of per-class cue words;
* binary Word2Vec files: every word is a 10-letter consonant-vowel
  string that survives preprocessing unchanged, so each record has the
  same size and a whole chunk is written with one ``tofile`` call. Cue
  words sit near a per-class centre; the vectors of word ``i`` do not
  depend on the file size, so a small file is a prefix of a large one;
* ``.hsv`` tensors (32x32x3 float32): the hue band carries the class,
  with a share of rows given another class's band so that the image
  branch alone is not perfect.
"""

from __future__ import annotations

import csv
from pathlib import Path

import numpy as np

# Memotion task A class sizes (3-way sentiment)
MEMOTION_COUNTS = {"positive": 4160, "neutral": 2201, "negative": 631}
LABELS = ("negative", "neutral", "positive")  # class index order

DIM = 300
WORD_LEN = 10
VOCAB_RANKS = 60_000  # content words are ranks 0..VOCAB_RANKS-1
ZIPF_S = 1.07
CUES_PER_CLASS = 40
CUE_RANK0 = 200  # cue words are ranks 200..319, mid-frequency
P_STOPWORD = 0.3
P_OWN_CUE = 0.14
P_OTHER_CUE = 0.03
P_PLURAL = 0.08
P_CAPITAL = 0.1
CENTRE_SCALE = 1.0
IMAGE_SIZE = 32
HUE_BANDS = (0.05, 0.4, 0.7)
P_IMAGE_FLIP = 0.2
CHUNK_WORDS = 50_000

_CONSONANTS = b"bdfgklmnprtvz"
_VOWELS = b"aiou"
_SYLLABLES = np.array(
    [[c, v] for c in _CONSONANTS for v in _VOWELS], dtype=np.uint8
)  # 52 syllables; 5 per word -> 380M distinct words
_SCRAMBLE = 1_000_003  # prime, coprime to 52**5
_STOPWORDS = (
    "the", "when", "you", "to", "is", "a", "of", "and", "me", "my", "i",
    "it", "this", "that", "your", "be", "are", "on", "in", "for", "what",
)
_PUNCT = ("", "", "", "", "!", "?", ",", ".", "...")


def _rng(seed: int, *stream: int) -> np.random.Generator:
    return np.random.default_rng([int(seed), *stream])


def words(indices: np.ndarray) -> np.ndarray:
    """The 10-letter word of each index, as an ``S10`` array."""
    n_syl = len(_SYLLABLES)
    # a bijection on 0..n_syl**5-1, so neighbouring indices look unrelated
    idx = np.asarray(indices, dtype=np.int64) * _SCRAMBLE % n_syl ** (WORD_LEN // 2)
    digits = np.stack(
        [(idx // n_syl**k) % n_syl for k in range(WORD_LEN // 2)], axis=1
    )
    letters = _SYLLABLES[digits].reshape(len(idx), WORD_LEN)
    return np.ascontiguousarray(letters).view(f"S{WORD_LEN}").ravel()


def _class_centres(seed: int) -> np.ndarray:
    return _rng(seed, 0).standard_normal((3, DIM)) * CENTRE_SCALE


def _cue_ranks(cls: int) -> np.ndarray:
    start = CUE_RANK0 + cls * CUES_PER_CLASS
    return np.arange(start, start + CUES_PER_CLASS)


def class_labels(counts: dict[str, int], seed: int) -> np.ndarray:
    """Class indices with the given per-label counts, in seeded order."""
    y = np.concatenate(
        [np.full(counts[name], LABELS.index(name)) for name in LABELS]
    )
    return _rng(seed, 1).permutation(y)


def captions(y: np.ndarray, seed: int) -> list[str]:
    """One caption per class index in ``y``."""
    rng = _rng(seed, 2)
    n = len(y)
    lengths = rng.integers(5, 25, size=n)
    total = int(lengths.sum())
    owner = np.repeat(np.arange(n), lengths)
    cls = y[owner]

    zipf = 1.0 / np.arange(1, VOCAB_RANKS + 1) ** ZIPF_S
    ranks = rng.choice(VOCAB_RANKS, size=total, p=zipf / zipf.sum())
    u = rng.random(total)
    cue_pick = rng.integers(0, CUES_PER_CLASS, size=total)
    other = (cls + rng.integers(1, 3, size=total)) % 3
    own_cue = u < P_OWN_CUE
    other_cue = (u >= P_OWN_CUE) & (u < P_OWN_CUE + P_OTHER_CUE)
    ranks = np.where(own_cue, CUE_RANK0 + cls * CUES_PER_CLASS + cue_pick, ranks)
    ranks = np.where(other_cue, CUE_RANK0 + other * CUES_PER_CLASS + cue_pick, ranks)

    tokens = words(ranks).astype(str).astype(object)
    plural = rng.random(total) < P_PLURAL
    tokens[plural] = tokens[plural] + "s"
    capital = rng.random(total) < P_CAPITAL
    tokens[capital] = np.array([t.capitalize() for t in tokens[capital]], dtype=object)
    stop = rng.random(total) < P_STOPWORD
    stop_pick = rng.integers(0, len(_STOPWORDS), size=total)
    tokens[stop] = np.array(_STOPWORDS, dtype=object)[stop_pick[stop]]
    punct = np.array(_PUNCT, dtype=object)[rng.integers(0, len(_PUNCT), size=total)]
    tokens = tokens + punct

    bounds = np.concatenate([[0], np.cumsum(lengths)])
    return [" ".join(tokens[bounds[i]:bounds[i + 1]]) for i in range(n)]


def write_dataset(
    path: Path,
    counts: dict[str, int],
    seed: int,
    image_dir: str | None = None,
    take: dict[str, int] | None = None,
) -> tuple[list[str], np.ndarray]:
    """Write the captions CSV; returns (ids, class indices) in file order.

    ``take`` keeps only the first ``take[label]`` rows of each class, in
    corpus order. With ``image_dir`` the CSV gets an ``image`` column
    naming ``<image_dir>/<id>.hsv`` relative to the CSV's directory.
    """
    y = class_labels(counts, seed)
    texts = captions(y, seed)
    keep = np.arange(len(y))
    if take is not None:
        keep = np.sort(np.concatenate(
            [np.flatnonzero(y == LABELS.index(name))[:n] for name, n in take.items()]
        ))
    ids = [f"m{i:05d}" for i in keep]
    y = y[keep]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        header = ["id", "caption", "label"] + (["image"] if image_dir else [])
        writer.writerow(header)
        for rec_id, text, cls in zip(ids, (texts[i] for i in keep), y):
            row = [rec_id, text, LABELS[cls]]
            if image_dir:
                row.append(f"{image_dir}/{rec_id}.hsv")
            writer.writerow(row)
    return ids, y


def word_vectors(seed: int, start: int, stop: int) -> np.ndarray:
    """float32 vectors of words ``start..stop-1`` (``start`` a chunk
    boundary), identical whatever file they end up in."""
    centres = _class_centres(seed)
    out = np.empty((stop - start, DIM), dtype=np.float32)
    for c0 in range(start, stop, CHUNK_WORDS):
        c1 = min(c0 + CHUNK_WORDS, stop)
        rng = _rng(seed, 3, c0 // CHUNK_WORDS)
        # uniform with unit variance: 4x faster to draw than normal
        chunk = rng.random((CHUNK_WORDS, DIM), dtype=np.float32)
        out[c0 - start:c1 - start] = chunk[: c1 - c0]
    out -= np.float32(0.5)
    out *= np.float32(12**0.5)
    for cls in range(3):
        ranks = _cue_ranks(cls)
        inside = ranks[(ranks >= start) & (ranks < stop)]
        out[inside - start] = (centres[cls] + 0.3 * out[inside - start]).astype(np.float32)
    return out


def write_word2vec(path: Path, n_words: int, seed: int) -> None:
    """Binary Word2Vec file of the first ``n_words`` words, written in
    chunks of fixed-size records."""
    record = np.dtype(
        [("word", f"S{WORD_LEN}"), ("sp", "S1"), ("vec", "<f4", (DIM,)), ("nl", "S1")]
    )
    with open(path, "wb") as fh:
        fh.write(f"{n_words} {DIM}\n".encode("ascii"))
        for c0 in range(0, n_words, CHUNK_WORDS):
            c1 = min(c0 + CHUNK_WORDS, n_words)
            rec = np.empty(c1 - c0, dtype=record)
            rec["word"] = words(np.arange(c0, c1))
            rec["sp"] = b" "
            rec["vec"] = word_vectors(seed, c0, c1)
            rec["nl"] = b"\n"
            rec.tofile(fh)


def hsv_tensors(y: np.ndarray, seed: int) -> np.ndarray:
    """(n, 32, 32, 3) float32 tensors whose hue band marks the class."""
    rng = _rng(seed, 4)
    n = len(y)
    shown = np.where(rng.random(n) < P_IMAGE_FLIP, rng.integers(0, 3, size=n), y)
    T = np.empty((n, IMAGE_SIZE, IMAGE_SIZE, 3), dtype=np.float32)
    T[..., 0] = np.asarray(HUE_BANDS, dtype=np.float32)[shown][:, None, None]
    T[..., 0] += rng.random((n, IMAGE_SIZE, IMAGE_SIZE), dtype=np.float32) * 0.05
    T[..., 1] = 1.0
    T[..., 2] = 0.8 + rng.random((n, IMAGE_SIZE, IMAGE_SIZE), dtype=np.float32) * 0.05
    return T


def write_hsv_dir(directory: Path, ids: list[str], y: np.ndarray, seed: int) -> None:
    """One ``<id>.hsv`` file per row, in the program's tensor format."""
    directory.mkdir(parents=True, exist_ok=True)
    header = f"{IMAGE_SIZE} {IMAGE_SIZE} 3\n".encode("ascii")
    for rec_id, tensor in zip(ids, hsv_tensors(y, seed)):
        (directory / f"{rec_id}.hsv").write_bytes(header + tensor.astype("<f4").tobytes())

import ctypes
import itertools
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st

from memesent.corpus import Dataset, MemeRecord, Sentiment
from memesent.embeddings import EmbeddingTable
from memesent.errors import DataFormatError


def make_dataset(counts, caption="some caption"):
    """Dataset with the given {Sentiment: count} mapping, ids d0, d1, ..."""
    records = []
    i = 0
    for sentiment in Sentiment:
        for _ in range(counts.get(sentiment, 0)):
            records.append(
                MemeRecord(id=f"d{i}", caption=f"{caption} {i}", label=sentiment)
            )
            i += 1
    return Dataset(tuple(records))


# ten keywords, disjoint per class; all survive preprocessing unchanged
SYNTH_WORDS = (
    "alpha", "bravo", "charlie",           # class 0
    "delta", "echo", "foxtrot",            # class 1
    "golf", "hotel", "india", "juliet",    # class 2
)
SYNTH_CLASS_WORDS = {
    0: SYNTH_WORDS[0:3],
    1: SYNTH_WORDS[3:6],
    2: SYNTH_WORDS[6:10],
}


def synthetic_corpus(n=300, dim=8, scale=2.0, seed=7):
    """Separable 3-class caption corpus plus a toy 10-word table.

    Keyword embeddings cluster tightly around one center per class, so
    mean-pooled captions are linearly separable blobs.
    """
    rng = np.random.default_rng(seed)
    centers = rng.standard_normal((3, dim)) * scale
    vectors = {}
    for cls, words in SYNTH_CLASS_WORDS.items():
        for word in words:
            vectors[word] = centers[cls] + rng.standard_normal(dim) * 0.1 * scale
    table = EmbeddingTable(tuple(vectors), np.stack(list(vectors.values())), source="toy")
    records = []
    for i in range(n):
        cls = i % 3
        count = rng.integers(3, 8)
        tokens = rng.choice(SYNTH_CLASS_WORDS[cls], size=count).tolist()
        records.append(
            MemeRecord(id=f"s{i}", caption=" ".join(tokens), label=Sentiment(cls))
        )
    return Dataset(records=tuple(records)), table


def hue_band_tensors(n=30, seed=0):
    """HSV tensors whose class is its hue band (0.05 / 0.4 / 0.7)."""
    rng = np.random.default_rng(seed)
    y = np.array([i % 3 for i in range(n)])
    T = np.zeros((n, 32, 32, 3))
    for i, cls in enumerate(y):
        T[i, ..., 0] = (0.05, 0.4, 0.7)[cls] + rng.random((32, 32)) * 0.05
        T[i, ..., 1] = 1.0
        T[i, ..., 2] = 0.8 + rng.random((32, 32)) * 0.05
    return T, y


def write_word2vec_binary(table: EmbeddingTable, path: str | Path) -> None:
    """Write the canonical binary layout (newline after every vector)."""
    rows = table.matrix.astype("<f4", copy=False)
    with open(path, "wb") as fh:
        fh.write(f"{len(table)} {table.dim}\n".encode("utf-8"))
        for word, row in zip(table.words, rows):
            fh.write(word.encode("utf-8") + b" " + row.tobytes() + b"\n")


def write_word2vec_text(table: EmbeddingTable, path: str | Path) -> None:
    """Write the text layout, each component as a float32 in 9 digits."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"{len(table)} {table.dim}\n")
        for word, vec in zip(table.words, table.matrix):
            comps = " ".join(f"{np.float32(v):.9g}" for v in vec)
            fh.write(f"{word} {comps}\n")


def write_hsv_tensor(tensor: np.ndarray, path: str | Path) -> None:
    """Write an (H, W, 3) tensor in the ``.hsv`` layout that
    ``read_hsv_tensor`` reads."""
    tensor = np.asarray(tensor, dtype=np.float64)
    if tensor.ndim != 3 or tensor.shape[2] != 3:
        raise DataFormatError(f"expected an (H, W, 3) tensor, got {tensor.shape}")
    with open(path, "wb") as fh:
        fh.write(f"{tensor.shape[0]} {tensor.shape[1]} 3\n".encode("ascii"))
        fh.write(tensor.astype("<f4").tobytes(order="C"))


def _edit(seed: bytes, edits, cut: int, tail: bytes) -> bytes:
    body = bytearray(seed)
    for pos, value in edits:
        body[pos] = value
    return bytes(body[:cut]) + tail


def mutated(seed: bytes):
    """Hypothesis strategy for a parser's input file: ``seed`` (a valid
    file) with up to four bytes replaced, cut short and given a short
    tail, or a few arbitrary bytes."""
    edits = st.lists(st.tuples(st.integers(0, len(seed) - 1), st.integers(0, 255)),
                     max_size=4)
    return st.one_of(
        st.builds(_edit, st.just(seed), edits, st.integers(0, len(seed)),
                  st.binary(max_size=12)),
        st.binary(max_size=48),
    )


# the fuzz tests write each example to the same file under tmp_path
fuzz_settings = settings(max_examples=200, deadline=None,
                         suppress_health_check=[HealthCheck.function_scoped_fixture])


SRC = Path(__file__).resolve().parent.parent / "src"
TOOLS = Path(__file__).resolve().parent.parent / "tools"


def pinned_hashes() -> tuple[dict[str, str], list[str]]:
    """The ``# name value`` environment lines and the hash lines of
    ``tools/artifact_hashes.txt``."""
    env, lines = {}, []
    for line in (TOOLS / "artifact_hashes.txt").read_text(encoding="utf-8").splitlines():
        if line.startswith("# "):
            name, _, value = line[2:].partition(" ")
            env[name] = value
        else:
            lines.append(line)
    return env, lines


def pinned_environment_differences() -> list[str]:
    """How this environment differs from the one whose bytes
    :func:`pinned_hashes` pins, one line each: another CPU's BLAS kernels
    may round otherwise."""
    if str(TOOLS) not in sys.path:
        sys.path.insert(0, str(TOOLS))
    import artifact_hashes

    env, _ = pinned_hashes()
    return [f"{name} is {value!r} here, {env.get(name)!r} in the file"
            for name, value in artifact_hashes.environment().items()
            if value != env.get(name)]


def python_env(env=None) -> dict:
    """``env`` (default: this process's environment) with ``src`` first on
    ``PYTHONPATH``."""
    env = dict(os.environ if env is None else env)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_python(*args, env=None, preexec_fn=None):
    """``python *args`` in a subprocess under :func:`python_env` of ``env``,
    calling ``preexec_fn`` in the child before it starts; the completed
    process, its output captured as text."""
    return subprocess.run([sys.executable, *map(str, args)], env=python_env(env),
                          preexec_fn=preexec_fn, capture_output=True, text=True, timeout=300)


def run_cli(*argv, env=None, preexec_fn=None):
    """``python -m memesent.cli *argv`` through :func:`run_python`."""
    return run_python("-m", "memesent.cli", *argv, env=env, preexec_fn=preexec_fn)


def blas_threads() -> list[int]:
    """The thread count of each OpenBLAS this process has loaded; empty
    where there is none or ``/proc/self/maps`` cannot be read."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = {line.split(maxsplit=5)[-1].strip() for line in fh if "openblas" in line}
    except OSError:
        return []
    counts = []
    for path, prefix, suffix in itertools.product(sorted(paths), ("scipy_", ""), ("64_", "")):
        getter = getattr(ctypes.CDLL(path), f"{prefix}openblas_get_num_threads{suffix}", None)
        if getter:
            getter.argtypes, getter.restype = [], ctypes.c_int
            counts.append(getter())
    return counts

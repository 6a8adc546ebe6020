"""Hash what every model kind writes on a seeded synthetic corpus.

Usage: python tools/artifact_hashes.py OUT_DIR [--check FILE]

Writes the inputs under OUT_DIR/inputs with perfbench's corpus generator:
the 200-row captions CSV of the ``fusion_train`` workload at seed 1 with
its HSV tensors, a 20,000-word Word2Vec file and an INI (3 folds,
2 epochs, batch 16). Then, for each model kind, runs ``train`` and
``predict``. It runs ``ffnn_w2v`` twice more, on a text-format copy of
the Word2Vec file and with ``filter_embeddings = false``; both must give
the binary, filtered run's model and predictions. Then it runs
``stability --model ffnn_w2v --upsample --runs 3``, once more with
``filter_embeddings = false`` (the pooled rows must not depend on the
table's filter, so its ``stability_runs.csv`` must be the same), and
``stability --model fusion --upsample --runs 2`` (its seeds in forked
workers, each fusion fit's rounds serial inside them). It runs the
fusion ``train`` again with the child restricted to one CPU through
``sched_setaffinity``, so that it fits serially, and prints that hash
next to the one from all CPUs. Then it runs ``train --upsample`` for
``ffnn_w2v`` and ``fusion``. Last it runs ``prepare``, ``evaluate`` on a
``nb`` model's predictions and ``compare`` on that report. Every command runs as ``python -m
memesent.cli`` from the inputs directory with relative paths, so the
hashes do not depend on OUT_DIR.

Prints the environment the bytes depend on besides the code (Python,
NumPy, its BLAS build, the OpenBLAS kernels picked for this CPU and the
machine), one ``# name value`` line each, then the first 12 hex digits
of the SHA-256 of each artifact. Exits 1 if any command fails, or an
``ffnn_w2v`` variant, the unfiltered study or the one-CPU fusion model
differs. ``tools/artifact_hashes.txt`` holds this output as committed;
with ``--check FILE``, the tool also exits 1 if any printed line differs
from FILE's, and names each such line on stderr. A change that must
leave the bytes alone passes ``--check tools/artifact_hashes.txt``; a
change that alters them updates the file in its own diff.
"""

from __future__ import annotations

import argparse
import ctypes
import functools
import hashlib
import itertools
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import corpus_gen as gen  # noqa: E402
from workloads import FusionTrain  # noqa: E402

sys.path.insert(0, str(ROOT / "src"))
from memesent.cli import _openblas  # noqa: E402
from memesent.embeddings import load_word2vec_binary  # noqa: E402

SEED = 1
WORDS = 20_000
KINDS = ("nb", "ffnn_w2v", "ffnn_bow", "cnn_hsv", "fusion")
INI = """[data]
dataset = data.csv

[model]
embeddings = w2v.bin
folds = 3

[train]
epochs = 2
batch_size = 16
"""
# ffnn_w2v configs that must give the bytes of the binary, filtered run
W2V_VARIANTS = {
    "text": INI.replace("w2v.bin", "w2v.txt\nembeddings_format = text"),
    "unfiltered": INI.replace("folds = 3", "folds = 3\nfilter_embeddings = false"),
}


def write_inputs(inputs: Path) -> None:
    inputs.mkdir(parents=True, exist_ok=True)
    ids, y = gen.write_dataset(inputs / "data.csv", gen.MEMOTION_COUNTS, SEED,
                               image_dir="hsv", take=FusionTrain.take)
    gen.write_hsv_dir(inputs / "hsv", ids, y, SEED)
    gen.write_word2vec(inputs / "w2v.bin", WORDS, SEED)
    (inputs / "run.ini").write_text(INI, encoding="utf-8")


def write_variants(inputs: Path) -> None:
    """The text-format copy of the Word2Vec file, each component a float32
    in 9 significant digits and each vector line ending in a space, as
    word2vec.c writes it, and the INIs of :data:`W2V_VARIANTS`."""
    table = load_word2vec_binary(inputs / "w2v.bin")
    with open(inputs / "w2v.txt", "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"{len(table)} {table.dim}\n")
        for word, vec in zip(table.words, table.matrix):
            fh.write(f"{word} {' '.join(f'{v:.9g}' for v in vec)} \n")
    for name, ini in W2V_VARIANTS.items():
        (inputs / f"{name}.ini").write_text(ini, encoding="utf-8")


def _openblas_cores() -> str:
    """The kernel set each OpenBLAS this process loaded picked for this CPU."""
    try:
        found = _openblas("get_corename")
    except OSError:
        return "unknown"
    cores = []
    for (getter,) in found:
        getter.argtypes, getter.restype = [], ctypes.c_char_p
        cores.append(getter().decode("ascii"))
    return " ".join(cores) or "none"


def environment() -> dict[str, str]:
    """What the hashes depend on besides the code, by name."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas['name']} {blas['version']}",
        "openblas_core": _openblas_cores(),
        "machine": platform.machine(),
    }


def run(inputs: Path, *argv: str, config: str = "run.ini", preexec_fn=None) -> bool:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", "memesent.cli", *argv, "--config", config],
                          cwd=inputs, env=env, capture_output=True, text=True,
                          preexec_fn=preexec_fn)
    if proc.returncode != 0:
        print(f"failed ({proc.returncode}): {' '.join(argv)}\n{proc.stderr}", file=sys.stderr)
    return proc.returncode == 0


def short_hash(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()[:12] if path.is_file() else "missing"


def kind_lines(out_dir: Path, run_cmd) -> tuple[bool, list[str]]:
    """``train`` then ``predict`` for each model kind, each through
    ``run_cmd(*argv)`` in the inputs directory, which returns whether the
    command succeeded; whether all did, and the hash lines of their
    artifacts under ``out_dir``."""
    ok, lines = True, []
    for kind in KINDS:
        out = f"../{kind}"
        ok &= run_cmd("train", "--model", kind, "--out", out)
        ok &= run_cmd("predict", "--model", f"{out}/model.bin", "--out", out)
        for name in ("model.bin", "predictions.csv", "train_report.json"):
            lines.append(f"{kind:<9} {name:<18} {short_hash(out_dir / kind / name)}")
    return ok, lines


# out directory -> the model kind, seed count and hash-line note of each
# ``stability --upsample`` study that tier-1 also runs
STUDIES = {
    "stability": ("ffnn_w2v", 3, ""),
    "stability_fusion": ("fusion", 2, "  (fusion, 2 runs)"),
}


def study_lines(out_dir: Path, run_cmd, out: str) -> tuple[bool, list[str]]:
    """The :data:`STUDIES` study ``out`` through ``run_cmd``, as in
    :func:`kind_lines`; whether it succeeded, and its two hash lines."""
    kind, runs, note = STUDIES[out]
    ok = run_cmd("stability", "--model", kind, "--upsample", "--runs", str(runs),
                 "--out", f"../{out}")
    return ok, [f"{'stability':<9} {name:<18} {short_hash(out_dir / out / name)}{note}"
                for name in ("stability.json", "stability_runs.csv")]


# out directory -> the files whose hashes :func:`report_lines` prints
REPORTS = {
    "prepare": ("dataset.csv", "prepare_report.json"),
    "evaluate": ("eval_report.json", "eval_report.txt"),
    "compare": ("comparison.json", "comparison.txt"),
}


def report_lines(out_dir: Path, run_cmd) -> tuple[bool, list[str]]:
    """``prepare``; ``train``, ``predict`` and ``evaluate`` of ``nb``, all
    into one directory; and ``compare`` of that report, each through
    ``run_cmd`` as in :func:`kind_lines`. Whether all succeeded, and the
    hash lines of the :data:`REPORTS` files."""
    ok = run_cmd("prepare", "--out", "../prepare")
    ok &= run_cmd("train", "--model", "nb", "--out", "../evaluate")
    ok &= run_cmd("predict", "--model", "../evaluate/model.bin", "--out", "../evaluate")
    ok &= run_cmd("evaluate", "../evaluate/predictions.csv", "--out", "../evaluate")
    ok &= run_cmd("compare", "nb=text=../evaluate/eval_report.json", "--out", "../compare")
    return ok, [f"{out:<9} {name:<18} {short_hash(out_dir / out / name)}"
                for out, names in REPORTS.items() for name in names]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python tools/artifact_hashes.py")
    parser.add_argument("out_dir", metavar="OUT_DIR")
    parser.add_argument("--check", metavar="FILE", type=Path,
                        help="also exit 1 if a printed line differs from FILE's")
    args = parser.parse_args(argv)
    out_dir = Path(args.out_dir).resolve()
    inputs = out_dir / "inputs"
    write_inputs(inputs)
    write_variants(inputs)
    printed = []

    def emit(*lines: str) -> None:
        printed.extend(lines)
        print(*lines, sep="\n", flush=True)

    emit(*(f"# {name} {value}" for name, value in environment().items()))
    here = functools.partial(run, inputs)
    ok, lines = kind_lines(out_dir, here)
    emit(*lines)
    for variant in W2V_VARIANTS:
        out, config = f"ffnn_w2v_{variant}", f"{variant}.ini"
        ok &= run(inputs, "train", "--model", "ffnn_w2v", "--out", f"../{out}", config=config)
        ok &= run(inputs, "predict", "--model", f"../{out}/model.bin", "--out", f"../{out}",
                  config=config)
        for name in ("model.bin", "predictions.csv"):
            got = short_hash(out_dir / out / name)
            emit(f"{'ffnn_w2v':<9} {name:<18} {got}  ({variant})")
            if got != short_hash(out_dir / "ffnn_w2v" / name):
                print(f"ffnn_w2v {name} differs with the {variant} table", file=sys.stderr)
                ok = False
    study_ok, lines = study_lines(out_dir, here, "stability")
    ok &= study_ok
    emit(*lines)
    ok &= run(inputs, "stability", "--model", "ffnn_w2v", "--upsample", "--runs", "3",
              "--out", "../stability_unfiltered", config="unfiltered.ini")
    got = short_hash(out_dir / "stability_unfiltered" / "stability_runs.csv")
    emit(f"{'stability':<9} {'stability_runs.csv':<18} {got}  (unfiltered)")
    if got != short_hash(out_dir / "stability" / "stability_runs.csv"):
        print("stability_runs.csv differs with the unfiltered table", file=sys.stderr)
        ok = False
    study_ok, lines = study_lines(out_dir, here, "stability_fusion")
    ok &= study_ok
    emit(*lines)
    cpu = min(os.sched_getaffinity(0))
    ok &= run(inputs, "train", "--model", "fusion", "--out", "../fusion_1cpu",
              preexec_fn=lambda: os.sched_setaffinity(0, {cpu}))
    one, every = (short_hash(out_dir / d / "model.bin") for d in ("fusion_1cpu", "fusion"))
    emit(f"{'fusion':<9} {'model.bin':<18} {one}  (CPU {cpu} only; all CPUs {every})")
    if one != every:
        print("fusion model.bin differs between one CPU and all CPUs", file=sys.stderr)
        ok = False
    for kind in ("ffnn_w2v", "fusion"):
        out = f"{kind}_upsample"
        ok &= run(inputs, "train", "--model", kind, "--upsample", "--out", f"../{out}")
        for name in ("model.bin", "train_report.json"):
            emit(f"{kind:<9} {name:<18} {short_hash(out_dir / out / name)}  (--upsample)")
    reports_ok, lines = report_lines(out_dir, here)
    ok &= reports_ok
    emit(*lines)
    if args.check:
        pinned = args.check.read_text(encoding="utf-8").splitlines()
        for i, (want, got) in enumerate(itertools.zip_longest(pinned, printed), start=1):
            if want != got:
                print(f"{args.check}:{i}: pinned {want!r}, printed {got!r}", file=sys.stderr)
                ok = False
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

"""Hash what every model kind writes on a seeded synthetic corpus.

Usage: python tools/artifact_hashes.py OUT_DIR

Writes the inputs under OUT_DIR/inputs with perfbench's corpus generator:
the 200-row captions CSV of the ``fusion_train`` workload at seed 1 with
its HSV tensors, a 20,000-word Word2Vec file and an INI (3 folds,
2 epochs, batch 16). Then, for each model kind, runs ``train`` and
``predict``, then ``stability --model ffnn_w2v --upsample --runs 3`` and
``stability --model fusion --upsample --runs 2`` (its seeds in forked
workers, each fusion fit's rounds serial inside them). Last it runs the
fusion ``train`` again with the child restricted to one CPU through
``sched_setaffinity``, so that it fits serially, and prints that hash
next to the one from all CPUs. Every command runs as ``python -m
memesent.cli`` from the inputs directory with relative paths, so the
hashes do not depend on OUT_DIR. Prints the first 12 hex digits of the
SHA-256 of each artifact and exits 1 if any command fails or the one-CPU
fusion model differs. A change that must leave the bytes alone prints
the same lines before and after.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import corpus_gen as gen  # noqa: E402
from workloads import FusionTrain  # noqa: E402

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


def write_inputs(inputs: Path) -> None:
    inputs.mkdir(parents=True, exist_ok=True)
    ids, y = gen.write_dataset(inputs / "data.csv", gen.MEMOTION_COUNTS, SEED,
                               image_dir="hsv", take=FusionTrain.take)
    gen.write_hsv_dir(inputs / "hsv", ids, y, SEED)
    gen.write_word2vec(inputs / "w2v.bin", WORDS, SEED)
    (inputs / "run.ini").write_text(INI, encoding="utf-8")


def run(inputs: Path, *argv: str, preexec_fn=None) -> bool:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", "memesent.cli", *argv, "--config", "run.ini"],
                          cwd=inputs, env=env, capture_output=True, text=True,
                          preexec_fn=preexec_fn)
    if proc.returncode != 0:
        print(f"failed ({proc.returncode}): {' '.join(argv)}\n{proc.stderr}", file=sys.stderr)
    return proc.returncode == 0


def short_hash(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()[:12] if path.is_file() else "missing"


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 1:
        print("usage: python tools/artifact_hashes.py OUT_DIR", file=sys.stderr)
        return 2
    out_dir = Path(args[0]).resolve()
    inputs = out_dir / "inputs"
    write_inputs(inputs)
    ok = True
    for kind in KINDS:
        out = f"../{kind}"
        ok &= run(inputs, "train", "--model", kind, "--out", out)
        ok &= run(inputs, "predict", "--model", f"{out}/model.bin", "--out", out)
        for name in ("model.bin", "predictions.csv", "train_report.json"):
            print(f"{kind:<9} {name:<18} {short_hash(out_dir / kind / name)}")
    ok &= run(inputs, "stability", "--model", "ffnn_w2v", "--upsample", "--runs", "3",
              "--out", "../stability")
    for name in ("stability.json", "stability_runs.csv"):
        print(f"{'stability':<9} {name:<18} {short_hash(out_dir / 'stability' / name)}")
    ok &= run(inputs, "stability", "--model", "fusion", "--upsample", "--runs", "2",
              "--out", "../stability_fusion")
    for name in ("stability.json", "stability_runs.csv"):
        print(f"{'stability':<9} {name:<18} "
              f"{short_hash(out_dir / 'stability_fusion' / name)}  (fusion, 2 runs)")
    cpu = min(os.sched_getaffinity(0))
    ok &= run(inputs, "train", "--model", "fusion", "--out", "../fusion_1cpu",
              preexec_fn=lambda: os.sched_setaffinity(0, {cpu}))
    one, every = (short_hash(out_dir / d / "model.bin") for d in ("fusion_1cpu", "fusion"))
    print(f"{'fusion':<9} {'model.bin':<18} {one}  (CPU {cpu} only; all CPUs {every})")
    if one != every:
        print("fusion model.bin differs between one CPU and all CPUs", file=sys.stderr)
        ok = False
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

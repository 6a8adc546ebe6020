"""Hash what every model kind writes on a seeded synthetic corpus.

Usage: python tools/artifact_hashes.py OUT_DIR

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
next to the one from all CPUs. Last it runs ``train --upsample`` for
``ffnn_w2v`` and ``fusion``. Every command runs as ``python -m
memesent.cli`` from the inputs directory with relative paths, so the
hashes do not depend on OUT_DIR. Prints the first 12 hex digits of the
SHA-256 of each artifact and exits 1 if any command fails, or an
``ffnn_w2v`` variant, the unfiltered study or the one-CPU fusion model
differs. A change that must leave the bytes alone prints the same lines
before and after.
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

sys.path.insert(0, str(ROOT / "src"))
from memesent.embeddings import load_word2vec_binary, write_word2vec_text  # noqa: E402

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
    write_word2vec_text(load_word2vec_binary(inputs / "w2v.bin"), inputs / "w2v.txt")
    (inputs / "run.ini").write_text(INI, encoding="utf-8")
    for name, ini in W2V_VARIANTS.items():
        (inputs / f"{name}.ini").write_text(ini, encoding="utf-8")


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
    for variant in W2V_VARIANTS:
        out, config = f"ffnn_w2v_{variant}", f"{variant}.ini"
        ok &= run(inputs, "train", "--model", "ffnn_w2v", "--out", f"../{out}", config=config)
        ok &= run(inputs, "predict", "--model", f"../{out}/model.bin", "--out", f"../{out}",
                  config=config)
        for name in ("model.bin", "predictions.csv"):
            got = short_hash(out_dir / out / name)
            print(f"{'ffnn_w2v':<9} {name:<18} {got}  ({variant})")
            if got != short_hash(out_dir / "ffnn_w2v" / name):
                print(f"ffnn_w2v {name} differs with the {variant} table", file=sys.stderr)
                ok = False
    ok &= run(inputs, "stability", "--model", "ffnn_w2v", "--upsample", "--runs", "3",
              "--out", "../stability")
    for name in ("stability.json", "stability_runs.csv"):
        print(f"{'stability':<9} {name:<18} {short_hash(out_dir / 'stability' / name)}")
    ok &= run(inputs, "stability", "--model", "ffnn_w2v", "--upsample", "--runs", "3",
              "--out", "../stability_unfiltered", config="unfiltered.ini")
    got = short_hash(out_dir / "stability_unfiltered" / "stability_runs.csv")
    print(f"{'stability':<9} {'stability_runs.csv':<18} {got}  (unfiltered)")
    if got != short_hash(out_dir / "stability" / "stability_runs.csv"):
        print("stability_runs.csv differs with the unfiltered table", file=sys.stderr)
        ok = False
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
    for kind in ("ffnn_w2v", "fusion"):
        out = f"{kind}_upsample"
        ok &= run(inputs, "train", "--model", kind, "--upsample", "--out", f"../{out}")
        for name in ("model.bin", "train_report.json"):
            print(f"{kind:<9} {name:<18} {short_hash(out_dir / out / name)}  (--upsample)")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

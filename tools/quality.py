"""The 10-seed macro-F1 of each Adam-trained model kind, from one script.

Usage: python tools/quality.py OUT_JSON [--work DIR]

Runs ``stability --upsample --runs 10`` in-process through
``memesent.cli.main``, once per kind, and writes OUT_JSON: for each kind
the mean, sample std (n - 1), min and max of the seeds' validation
macro-F1, the scores, the inputs and the resolved config the study used.

* ``ffnn_w2v`` runs on the inputs of perfbench's ``w2v_stability``
  workload at seed 1: 6,992 Memotion-shaped captions and a 50,000-word
  Word2Vec file, 10 epochs, split 0.8.
* ``ffnn_bow``, ``cnn_hsv`` and ``fusion`` run on the 200-row inputs of
  ``tools/artifact_hashes.py`` (3 folds, batch 16) at 20 epochs. At that
  INI's 2 epochs some kinds score the same on every seed, which says
  nothing about a change.

The inputs are written under ``--work`` (a temporary directory by
default). Reporting a distribution of scores, not one run, follows
Reimers & Gurevych (EMNLP 2017).
"""

from __future__ import annotations

import argparse
import configparser
import contextlib
import json
import os
import statistics
import sys
import tempfile
from pathlib import Path

import artifact_hashes  # puts perfbench/ and src/ on sys.path
from workloads import W2vStability

from memesent.cli import main as cli_main

RUNS = 10
EPOCHS = 20
KINDS = ("ffnn_w2v", "ffnn_bow", "cnn_hsv", "fusion")
INPUTS = {
    "w2v": "perfbench w2v_stability inputs, seed 1: 6,992 captions, 50,000-word table",
    "rows200": f"tools/artifact_hashes.py inputs: 200 captions with HSV tensors, "
               f"its INI at {EPOCHS} epochs",
}


def write_inputs(work: Path) -> dict[str, tuple[Path, str]]:
    """Input directory and INI name of each input set, written under ``work``."""
    w2v, rows200 = work / "w2v", work / "rows200"
    w2v.mkdir(parents=True, exist_ok=True)
    W2vStability().setup(w2v, 1)
    artifact_hashes.write_inputs(rows200)
    ini = artifact_hashes.INI.replace("epochs = 2\n", f"epochs = {EPOCHS}\n")
    (rows200 / "quality.ini").write_text(ini, encoding="utf-8")
    return {"w2v": (w2v, "stability.ini"), "rows200": (rows200, "quality.ini")}


def study(inputs: Path, config: str, kind: str) -> dict:
    """A ``stability --upsample`` study of ``kind`` in ``inputs``; its summary."""
    out = inputs / f"quality_{kind}"
    cwd = Path.cwd()
    try:
        os.chdir(inputs)
        code = cli_main(["stability", "--config", config, "--model", kind, "--upsample",
                         "--runs", str(RUNS), "--out", out.name])
    finally:
        os.chdir(cwd)
    if code != 0:
        raise SystemExit(f"stability --model {kind} exited {code}")
    scores = json.loads((out / "stability.json").read_text(encoding="utf-8"))["scores"]
    resolved = configparser.ConfigParser(interpolation=None)
    resolved.read(out / "config.ini", encoding="utf-8")
    return {
        "mean": statistics.fmean(scores),
        "std": statistics.stdev(scores),
        "min": min(scores),
        "max": max(scores),
        "scores": scores,
        "config": {name: dict(resolved[name]) for name in resolved.sections()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python tools/quality.py")
    parser.add_argument("out", metavar="OUT_JSON", type=Path)
    parser.add_argument("--work", type=Path, help="directory for the inputs (default: temporary)")
    args = parser.parse_args(argv)
    with contextlib.ExitStack() as stack:
        work = args.work or Path(stack.enter_context(tempfile.TemporaryDirectory()))
        sets = write_inputs(work.resolve())
        kinds = {}
        for kind in KINDS:
            name = "w2v" if kind == "ffnn_w2v" else "rows200"
            kinds[kind] = {"inputs": INPUTS[name], **study(*sets[name], kind)}
            print(f"{kind}: mean {kinds[kind]['mean']:.4f} std {kinds[kind]['std']:.4f} "
                  f"min {kinds[kind]['min']:.4f} max {kinds[kind]['max']:.4f}", flush=True)
    report = {"runs": RUNS, "std": "sample (n - 1)",
              "environment": artifact_hashes.environment(), "kinds": kinds}
    args.out.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())

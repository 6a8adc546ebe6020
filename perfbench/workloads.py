"""The benchmark's workloads: their inputs, timed CLI commands, row
counts and correctness checks.

Every path a command sees is relative to the workload's input directory,
which is the working directory of each CLI child, so artifacts do not
depend on where the checkout lives. The program's own seed stays 0; the
workload seed only changes the generated inputs.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from fractions import Fraction
from pathlib import Path

import corpus_gen as gen

F1_FLOOR = 0.45  # the planted signal gives 0.6-0.95; the majority class alone ~0.25
PROB_SUM_TOL = 1e-6


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _ini(path: Path, sections: dict[str, dict]) -> None:
    lines = []
    for section, values in sections.items():
        lines.append(f"[{section}]")
        lines += [f"{key} = {value}" for key, value in values.items()]
        lines.append("")
    path.write_text("\n".join(lines), encoding="utf-8")


def macro_f1(preds: list[str], golds: list[str]) -> float:
    scores = []
    for label in gen.LABELS:
        tp = sum(1 for p, g in zip(preds, golds) if p == label and g == label)
        fp = sum(1 for p, g in zip(preds, golds) if p == label and g != label)
        fn = sum(1 for p, g in zip(preds, golds) if p != label and g == label)
        scores.append(2 * tp / (2 * tp + fp + fn) if tp else 0.0)
    return sum(scores) / len(scores)


def check_predictions(predictions: Path, dataset: Path) -> list[tuple[str, bool, str]]:
    """One row per input row in input order, probability rows summing to
    1, labels that are the argmax, and macro-F1 above the floor."""
    with open(dataset, encoding="utf-8", newline="") as fh:
        gold = [(row["id"], row["label"]) for row in csv.DictReader(fh)]
    with open(predictions, encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    ids_ok = [row["id"] for row in rows] == [rec_id for rec_id, _ in gold]
    worst_sum = 0.0
    labels_ok = True
    for row in rows:
        probs = [float(row[key]) for key in ("p_neg", "p_neu", "p_pos")]
        worst_sum = max(worst_sum, abs(sum(probs) - 1.0))
        labels_ok &= row["label"] == gen.LABELS[probs.index(max(probs))]
    f1 = macro_f1([row["label"] for row in rows], [label for _, label in gold])
    return [
        ("predictions: one row per input row", ids_ok, f"{len(rows)} rows for {len(gold)}"),
        ("predictions: probabilities sum to 1", worst_sum <= PROB_SUM_TOL, f"worst |sum-1| {worst_sum:.2e}"),
        ("predictions: label is the argmax", labels_ok, ""),
        ("predictions: macro-F1 above floor", f1 >= F1_FLOOR, f"macro-F1 {f1:.4f}"),
    ]


def _class_counts(dataset: Path) -> list[int]:
    with open(dataset, encoding="utf-8", newline="") as fh:
        labels = [row["label"] for row in csv.DictReader(fh)]
    return [labels.count(label) for label in gen.LABELS]


def _train_rows(split: str, count: int) -> int:
    return math.ceil(Fraction(split) * count)


class W2vStability:
    name = "w2v_stability"
    runs = 2
    epochs = 10
    split = "0.8"
    vocab = 50_000

    def setup(self, inputs: Path, seed: int) -> list[list[str]]:
        gen.write_dataset(inputs / "captions.csv", gen.MEMOTION_COUNTS, seed)
        gen.write_word2vec(inputs / "w2v.bin", self.vocab, seed)
        _ini(inputs / "stability.ini", {
            "data": {"dataset": "captions.csv", "upsample": "true", "split": self.split},
            "model": {"model": "ffnn_w2v", "embeddings": "w2v.bin"},
            "train": {"epochs": self.epochs},
            "run": {"seed": 0, "runs": self.runs},
        })
        return []

    def setup_artifacts(self, inputs: Path) -> dict[str, Path]:
        return {}

    def commands(self, out: str) -> list[list[str]]:
        return [["stability", "--config", "stability.ini", "--out", out]]

    def rows(self, inputs: Path) -> int:
        """Training rows x epochs plus validation rows, over every seed."""
        counts = _class_counts(inputs / "captions.csv")
        train = [_train_rows(self.split, c) for c in counts]
        upsampled = 3 * max(train)
        val = sum(counts) - sum(train)
        return self.runs * (upsampled * self.epochs + val)

    def check(self, inputs: Path, out: Path):
        with open(out / "stability_runs.csv", encoding="utf-8", newline="") as fh:
            scores = [float(row["macro_f1"]) for row in csv.DictReader(fh)]
        report = json.loads((out / "stability.json").read_text(encoding="utf-8"))
        checks = [
            ("stability: one score per seed",
             len(scores) == self.runs and report.get("n_runs") == self.runs,
             f"{len(scores)} scores"),
            ("stability: macro-F1 above floor",
             bool(scores) and min(scores) >= F1_FLOOR and max(scores) <= 1.0,
             f"scores {scores}"),
        ]
        return checks, {"stability_runs.csv": out / "stability_runs.csv"}


class FusionTrain:
    name = "fusion_train"
    # the first rows of each class of the Memotion-shaped corpus, 200 in
    # Memotion's proportions; fixed counts keep the work the same per seed
    take = {"positive": 119, "neutral": 63, "negative": 18}
    epochs = 2
    folds = 5

    def setup(self, inputs: Path, seed: int) -> list[list[str]]:
        ids, y = gen.write_dataset(
            inputs / "fusion.csv", gen.MEMOTION_COUNTS, seed, image_dir="hsv", take=self.take
        )
        gen.write_hsv_dir(inputs / "hsv", ids, y, seed)
        _ini(inputs / "fusion.ini", {
            "data": {"dataset": "fusion.csv", "upsample": "true"},
            "model": {"model": "fusion", "folds": self.folds},
            # batch 16: at the default 50, 2 epochs are 16 Adam steps per
            # fit, too few for the stacker to see the neutral class on
            # some seeds (macro-F1 0.43)
            "train": {"epochs": self.epochs, "lr": "0.003", "batch_size": 16},
            "run": {"seed": 0},
        })
        return []

    def setup_artifacts(self, inputs: Path) -> dict[str, Path]:
        return {}

    def commands(self, out: str) -> list[list[str]]:
        return [
            ["train", "--config", "fusion.ini", "--out", out],
            ["predict", "--config", "fusion.ini", "--model", f"{out}/model.bin", "--out", out],
        ]

    def rows(self, inputs: Path) -> int:
        """Both branches fit on the upsampled rows once and on 4 of 5 folds
        five times, each for ``epochs``; then every input row is predicted."""
        fit_rows = 3 * max(_class_counts(inputs / "fusion.csv"))
        per_branch = (fit_rows + (self.folds - 1) * fit_rows) * self.epochs
        return 2 * per_branch + sum(self.take.values())

    def check(self, inputs: Path, out: Path):
        checks = check_predictions(out / "predictions.csv", inputs / "fusion.csv")
        return checks, {
            "model.bin": out / "model.bin",
            "predictions.csv": out / "predictions.csv",
        }


class W2vPredictFullvocab:
    name = "w2v_predict_fullvocab"
    vocab = 400_000

    def setup(self, inputs: Path, seed: int) -> list[list[str]]:
        gen.write_dataset(inputs / "captions.csv", gen.MEMOTION_COUNTS, seed)
        gen.write_word2vec(inputs / "w2v.bin", self.vocab, seed)
        for name, keep in (("train.ini", "true"), ("predict.ini", "false")):
            _ini(inputs / name, {
                "data": {"dataset": "captions.csv"},
                "model": {"model": "ffnn_w2v", "embeddings": "w2v.bin",
                          "filter_embeddings": keep},
                "train": {"epochs": 1},
                "run": {"seed": 0},
            })
        return [["train", "--config", "train.ini", "--out", "model"]]

    def setup_artifacts(self, inputs: Path) -> dict[str, Path]:
        return {"model.bin": inputs / "model" / "model.bin"}

    def commands(self, out: str) -> list[list[str]]:
        return [["predict", "--config", "predict.ini", "--model", "model/model.bin",
                 "--out", out]]

    def rows(self, inputs: Path) -> int:
        return sum(_class_counts(inputs / "captions.csv"))

    def check(self, inputs: Path, out: Path):
        checks = check_predictions(out / "predictions.csv", inputs / "captions.csv")
        return checks, {"predictions.csv": out / "predictions.csv"}


WORKLOADS = {w.name: w for w in (W2vStability(), FusionTrain(), W2vPredictFullvocab())}

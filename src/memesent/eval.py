"""Macro-F1 scoring, baselines, and seeded multi-run stability studies.

Scoring runs through a 3x3 confusion matrix (rows = gold, cols =
predicted). Per-class precision, recall, and F1 define any 0/0 as 0;
macro-F1 is the unweighted mean over the three classes, so a class
absent from both gold and predictions still contributes a 0.
"""

from __future__ import annotations

import json
import multiprocessing
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field

import numpy as np

from .base import as_label_array
from .corpus import Dataset, stratified_split
from .errors import TrainingError

__all__ = [
    "ConfusionMatrix",
    "EvalReport",
    "StabilityReport",
    "ComparisonTable",
    "macro_f1",
    "majority_baseline",
    "stability_study",
    "compare_report",
]

_N_CLASSES = 3


@dataclass(frozen=True)
class ConfusionMatrix:
    counts: np.ndarray  # (3, 3) int64; [gold, predicted]

    def __post_init__(self):
        counts = np.asarray(self.counts)
        if counts.shape != (_N_CLASSES, _N_CLASSES):
            raise ValueError(f"expected (3, 3) counts, got {counts.shape}")
        if not np.issubdtype(counts.dtype, np.integer):
            raise ValueError(f"counts must be integers, got dtype {counts.dtype}")
        if (counts < 0).any():
            raise ValueError("counts must be nonnegative")
        object.__setattr__(self, "counts", counts.astype(np.int64))

    @classmethod
    def from_pairs(cls, preds, golds) -> "ConfusionMatrix":
        preds = as_label_array(preds)
        golds = as_label_array(golds)
        if len(preds) != len(golds):
            raise ValueError(
                f"predictions and golds disagree on length: "
                f"{len(preds)} vs {len(golds)}"
            )
        if len(preds) == 0:
            raise ValueError("cannot score zero examples")
        counts = np.zeros((_N_CLASSES, _N_CLASSES), dtype=np.int64)
        np.add.at(counts, (golds, preds), 1)
        return cls(counts=counts)

    @property
    def total(self) -> int:
        return int(self.counts.sum())

    def to_lists(self) -> list[list[int]]:
        return self.counts.tolist()


def _prf_from_confusion(cm: ConfusionMatrix):
    """Per-class precision/recall/F1 with the 0/0 -> 0 convention."""
    counts = cm.counts
    tp = np.diag(counts).astype(np.float64)
    predicted = counts.sum(axis=0).astype(np.float64)
    gold = counts.sum(axis=1).astype(np.float64)
    with np.errstate(invalid="ignore", divide="ignore"):
        precision = np.where(predicted > 0, tp / predicted, 0.0)
        recall = np.where(gold > 0, tp / gold, 0.0)
        pr = precision + recall
        f1 = np.where(pr > 0, 2.0 * precision * recall / np.where(pr > 0, pr, 1.0), 0.0)
    return precision, recall, f1


@dataclass(frozen=True)
class EvalReport:
    confusion: ConfusionMatrix
    precision: tuple[float, float, float]
    recall: tuple[float, float, float]
    f1: tuple[float, float, float]
    macro_f1: float
    meta: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "confusion": self.confusion.to_lists(),
            "precision": list(self.precision),
            "recall": list(self.recall),
            "f1": list(self.f1),
            "macro_f1": self.macro_f1,
            "meta": dict(self.meta),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2)


def macro_f1(preds, golds, seed: int | None = None,
             config_hash: str | None = None) -> EvalReport:
    """Score predictions against golds; see module docstring for rules.

    ``seed`` and ``config_hash`` are carried into the report metadata
    untouched so downstream artifacts can be traced to their run.
    """
    cm = ConfusionMatrix.from_pairs(preds, golds)
    precision, recall, f1 = _prf_from_confusion(cm)
    meta = {}
    if seed is not None:
        meta["seed"] = int(seed)
    if config_hash is not None:
        meta["config_hash"] = config_hash
    return EvalReport(
        confusion=cm,
        precision=tuple(precision.tolist()),
        recall=tuple(recall.tolist()),
        f1=tuple(f1.tolist()),
        macro_f1=float(f1.mean()),
        meta=meta,
    )


def majority_baseline(train_golds, eval_golds) -> EvalReport:
    """Score a predictor that always answers the training-majority class.

    Count ties resolve to the lowest class index.
    """
    train_golds = as_label_array(train_golds)
    if len(train_golds) == 0:
        raise ValueError("majority baseline needs a nonempty training set")
    majority = int(np.argmax(np.bincount(train_golds, minlength=_N_CLASSES)))
    eval_golds = as_label_array(eval_golds)
    return macro_f1(np.full(len(eval_golds), majority), eval_golds)


@dataclass(frozen=True)
class StabilityReport:
    """Aggregate of one validation macro-F1 per seeded run."""

    scores: tuple[float, ...]
    seeds: tuple[int, ...]
    mean: float
    variance: float  # population (divide by n)
    sample_variance: float  # divide by n-1
    max: float
    n_runs: int

    @classmethod
    def from_scores(cls, scores, seeds) -> "StabilityReport":
        scores = tuple(float(s) for s in scores)
        if len(scores) != len(seeds):
            raise ValueError("one seed per score required")
        if not scores:
            raise ValueError("no runs to aggregate")
        arr = np.asarray(scores)
        if np.all(arr == arr[0]):
            # a constant scorer must report exactly zero spread
            variance = 0.0
            sample_variance = 0.0
        else:
            variance = float(np.var(arr))
            sample_variance = float(np.var(arr, ddof=1)) if len(arr) > 1 else 0.0
        return cls(
            scores=scores,
            seeds=tuple(int(s) for s in seeds),
            mean=float(arr.mean()),
            variance=variance,
            sample_variance=sample_variance,
            max=float(arr.max()),
            n_runs=len(scores),
        )

    def to_dict(self) -> dict:
        return {
            "scores": list(self.scores),
            "seeds": list(self.seeds),
            "mean": self.mean,
            "variance": self.variance,
            "sample_variance": self.sample_variance,
            "max": self.max,
            "n_runs": self.n_runs,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2)


# (train_fn, dataset, fraction, seed0, resplit, started) of the study a
# forked worker serves; set by _init_worker, inherited rather than pickled
_STUDY = None


def _run_seed(seed: int, study=None) -> tuple[float, float]:
    """Split, train and score one seed of ``study`` (the worker's own by
    default); returns its macro-F1 and the seconds it took."""
    train_fn, dataset, fraction, seed0, resplit, started = study or _STUDY
    if started is not None:
        started[seed - seed0] = 1
    start = time.perf_counter()
    try:
        split_seed = seed if resplit else seed0
        train_ds, val_ds = stratified_split(dataset, fraction, seed=split_seed)
        preds = train_fn(train_ds, val_ds, seed)
        golds = [int(label) for label in val_ds.labels()]
        score = macro_f1(preds, golds, seed=seed).macro_f1
    except Exception as exc:
        raise TrainingError(f"stability run with seed {seed} failed: {exc}") from exc
    finally:
        if started is not None:
            started[seed - seed0] = 2
    return score, time.perf_counter() - start


def _init_worker(*study) -> None:
    global _STUDY
    _STUDY = study


def _run_parallel(study, seeds, workers, collect) -> None:
    """``collect(seed, result)`` for each seed's ``_run_seed`` result, in
    seed order, computed by ``workers`` forked processes.

    The first failure in seed order is raised and the seeds not yet
    started are cancelled. A worker that dies (``os._exit``, a kill
    signal) breaks the pool; that becomes a :class:`TrainingError`
    naming the seeds that were running, one of which was its own.
    """
    started = multiprocessing.RawArray("b", len(seeds))  # 0 queued, 1 running, 2 done
    sys.stdout.flush()  # a forked worker must not write buffered output again
    sys.stderr.flush()
    pool = ProcessPoolExecutor(
        workers, mp_context=multiprocessing.get_context("fork"),
        initializer=_init_worker, initargs=(*study, started),
    )
    try:
        futures = [pool.submit(_run_seed, seed) for seed in seeds]
        for seed, future in zip(seeds, futures):
            try:
                result = future.result()
            except BrokenProcessPool as exc:
                running = [str(s) for i, s in enumerate(seeds) if started[i] == 1]
                raise TrainingError(
                    "a stability worker process died while running seed "
                    + (" or ".join(running) or str(seed))
                ) from exc
            collect(seed, result)
    finally:
        pool.shutdown(cancel_futures=True)


def stability_study(
    train_fn,
    dataset: Dataset,
    fraction: float = 0.8,
    n_runs: int = 50,
    seed0: int = 0,
    resplit: bool = True,
    workers: int = 1,
    progress=None,
) -> StabilityReport:
    """Repeat train-and-score over seeds seed0 .. seed0 + n_runs - 1.

    ``train_fn(train_ds, val_ds, seed)`` must return predictions aligned
    with ``val_ds``. Each run re-splits the dataset with its own seed by
    default, attributing spread to both the split and training
    randomness; ``resplit=False`` pins one split (seed0) so spread comes
    from training alone. A failing run aborts the study with its seed.

    With ``workers`` > 1 the seeds run in up to that many forked worker
    processes. They inherit ``train_fn`` and the dataset, so closures
    work and only results are pickled; a run's side effects stay in its
    worker. Results are collected in seed order, so the report equals
    the serial one, bit for bit, at the same BLAS thread count. Workers
    inherit the caller's BLAS setting: the CLI sets one thread before a
    study, a library caller keeps its own.
    ``progress(seed, score, seconds)`` is called for each run, in seed
    order, as its result arrives; ``seconds`` is the run's own time.
    """
    if n_runs < 2:
        raise ValueError(f"a stability study needs n_runs >= 2, got {n_runs}")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    seeds = list(range(seed0, seed0 + n_runs))
    study = (train_fn, dataset, fraction, seed0, resplit)
    scores = []

    def collect(seed, result):
        score, seconds = result
        scores.append(score)
        if progress is not None:
            progress(seed, score, seconds)

    if workers == 1:
        for seed in seeds:
            collect(seed, _run_seed(seed, (*study, None)))
    else:
        _run_parallel(study, seeds, min(workers, n_runs), collect)
    return StabilityReport.from_scores(scores, seeds)


@dataclass(frozen=True)
class ComparisonTable:
    """Rows of (modality, model, macro-F1), best score first."""

    rows: tuple[tuple[str, str, float], ...]  # (modality, model, score)

    def to_dict(self) -> dict:
        return {
            "rows": [
                {"modality": modality, "model": model, "macro_f1": score}
                for modality, model, score in self.rows
            ]
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2)

    def to_text(self) -> str:
        header = ("modality", "model", "macro-F1")
        body = [(m, name, f"{score:.4f}") for m, name, score in self.rows]
        widths = [
            max(len(row[i]) for row in [header, *body]) for i in range(3)
        ]
        lines = [
            "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)).rstrip()
            for row in [header, *body]
        ]
        return "\n".join(lines)


def compare_report(entries) -> ComparisonTable:
    """Build the comparison table from (model, modality, report) triples.

    ``report`` may be an :class:`EvalReport` or a bare macro-F1 float.
    Rows sort by score descending, then model name for determinism.
    """
    entries = list(entries)
    if not entries:
        raise ValueError("nothing to compare")
    rows = []
    for model, modality, report in entries:
        score = getattr(report, "macro_f1", report)
        rows.append((str(modality), str(model), float(score)))
    rows.sort(key=lambda r: (-r[2], r[1]))
    return ComparisonTable(rows=tuple(rows))

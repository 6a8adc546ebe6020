"""Macro-F1 scoring, seeded multi-run stability studies, and the
parallel map that the studies and fusion fits run on.

Scoring runs through a 3x3 confusion matrix (rows = gold, cols =
predicted). Per-class precision, recall, and F1 define any 0/0 as 0;
macro-F1 is the unweighted mean over the three classes, so a class
absent from both gold and predictions still contributes a 0.
"""

from __future__ import annotations

import multiprocessing
import signal
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field

import numpy as np

from .base import as_label_array
from .corpus import Dataset, stratified_split
from .errors import INPUT_ERRORS, TrainingError

__all__ = [
    "EvalReport",
    "StabilityReport",
    "macro_f1",
    "parallel_map",
    "stability_study",
    "compare_report",
]

_N_CLASSES = 3


@dataclass(frozen=True)
class EvalReport:
    confusion: np.ndarray  # (3, 3) int64; [gold, predicted]
    precision: tuple[float, float, float]
    recall: tuple[float, float, float]
    f1: tuple[float, float, float]
    macro_f1: float
    meta: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "confusion": self.confusion.tolist(),
            "precision": list(self.precision),
            "recall": list(self.recall),
            "f1": list(self.f1),
            "macro_f1": self.macro_f1,
            "meta": dict(self.meta),
        }


def macro_f1(preds, golds, seed: int | None = None,
             config_hash: str | None = None) -> EvalReport:
    """Score predictions against golds; see module docstring for rules.

    ``seed`` and ``config_hash`` are carried into the report metadata
    untouched so downstream artifacts can be traced to their run.
    """
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
    # per-class precision/recall/F1 with the 0/0 -> 0 convention
    tp = np.diag(counts).astype(np.float64)
    predicted = counts.sum(axis=0).astype(np.float64)
    gold = counts.sum(axis=1).astype(np.float64)
    with np.errstate(invalid="ignore", divide="ignore"):
        precision = np.where(predicted > 0, tp / predicted, 0.0)
        recall = np.where(gold > 0, tp / gold, 0.0)
        pr = precision + recall
        f1 = np.where(pr > 0, 2.0 * precision * recall / np.where(pr > 0, pr, 1.0), 0.0)
    meta = {}
    if seed is not None:
        meta["seed"] = int(seed)
    if config_hash is not None:
        meta["config_hash"] = config_hash
    return EvalReport(
        confusion=counts,
        precision=tuple(precision.tolist()),
        recall=tuple(recall.tolist()),
        f1=tuple(f1.tolist()),
        macro_f1=float(f1.mean()),
        meta=meta,
    )


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
        return {name: list(v) if isinstance(v, tuple) else v for name, v in vars(self).items()}


# (fn, items, started) of the map a forked worker serves; set as the worker
# starts, inherited rather than pickled. None outside a worker, so a map
# called inside one runs serially instead of forking grandchildren.
_TASK = None


def _become_worker(task) -> None:
    global _TASK
    _TASK = task
    # an interrupt is the parent's to handle: it terminates the workers
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.signal(signal.SIGTERM, signal.SIG_DFL)


def _run_item(index: int):
    fn, items, started = _TASK
    started[index] = 1
    try:
        return fn(items[index])
    finally:
        started[index] = 2


def parallel_map(fn, items, workers: int = 1, progress=None, label=str) -> list:
    """``[fn(item) for item in items]``, computed by up to ``workers``
    forked processes (never more than one per item).

    The workers inherit ``fn`` and ``items``, so closures work and only
    results are pickled; an item's side effects stay in its worker.
    Results come back in input order, and ``progress(item, result)`` is
    called for each, in that order, as it arrives. The first failure in
    input order is raised and the items not yet started are cancelled. A
    worker that dies (``os._exit``, a kill signal) breaks the pool; that
    becomes a :class:`TrainingError` naming, by ``label(item)``, the items
    that were running, one of which was its own. A ``KeyboardInterrupt``
    here (the CLI raises one on SIGINT and SIGTERM) terminates and reaps
    the workers without waiting for their items; workers ignore SIGINT.
    With one worker, or inside a worker of another map, the items run
    serially here.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    items = list(items)
    workers = min(workers, len(items))
    results = []
    if workers <= 1 or _TASK is not None:
        for item in items:
            results.append(fn(item))
            if progress is not None:
                progress(item, results[-1])
        return results
    started = multiprocessing.RawArray("b", len(items))  # 0 queued, 1 running, 2 done
    sys.stdout.flush()  # a forked worker must not write buffered output again
    sys.stderr.flush()
    pool = ProcessPoolExecutor(
        workers, mp_context=multiprocessing.get_context("fork"),
        initializer=_become_worker, initargs=((fn, items, started),),
    )
    try:
        futures = [pool.submit(_run_item, i) for i in range(len(items))]
        for item, future in zip(items, futures):
            try:
                results.append(future.result())
            except BrokenProcessPool as exc:
                running = [label(it) for i, it in enumerate(items) if started[i] == 1]
                raise TrainingError(
                    "a worker process died while running "
                    + " or ".join(running or [label(item)])
                ) from exc
            if progress is not None:
                progress(item, results[-1])
    except KeyboardInterrupt:  # no public way to stop running items before Python 3.14
        for process in list(pool._processes.values()):
            process.terminate()
        raise
    finally:
        pool.shutdown(cancel_futures=True)
    return results


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
    from training alone. A failing run aborts the study with an error
    that names its seed: of the :data:`INPUT_ERRORS` class that the
    run's error is, else a :class:`TrainingError`.

    The seeds run through :func:`parallel_map` with ``workers``: above 1,
    in forked worker processes that inherit ``train_fn`` and the dataset,
    so closures work and a run's side effects stay in its worker. A
    parallel map that ``train_fn`` calls (a fusion fit's rounds) runs
    serially inside a worker. Results are collected in seed order, so
    the report equals the serial one, bit for bit, at the same BLAS
    thread count. Workers inherit the caller's BLAS setting: the CLI sets
    one thread, a library caller keeps its own.
    ``progress(seed, score, seconds)`` is called for each run, in seed
    order, as its result arrives; ``seconds`` is the run's own time.
    """
    if n_runs < 2:
        raise ValueError(f"a stability study needs n_runs >= 2, got {n_runs}")
    seeds = list(range(seed0, seed0 + n_runs))

    def run(seed: int) -> tuple[float, float]:
        start = time.perf_counter()
        try:
            train_ds, val_ds = stratified_split(
                dataset, fraction, seed=seed if resplit else seed0
            )
            preds = train_fn(train_ds, val_ds, seed)
            score = macro_f1(preds, val_ds.labels(), seed=seed).macro_f1
        except Exception as exc:
            cls = next((c for c in INPUT_ERRORS if isinstance(exc, c)), TrainingError)
            raise cls(f"stability run with seed {seed} failed: {exc}") from exc
        return score, time.perf_counter() - start

    results = parallel_map(
        run, seeds, workers, label=lambda seed: f"seed {seed}",
        progress=None if progress is None else lambda seed, result: progress(seed, *result),
    )
    return StabilityReport.from_scores([score for score, _ in results], seeds)


def compare_report(entries) -> list[tuple[str, str, float]]:
    """Rank (model, modality, macro-F1) triples into (modality, model,
    macro-F1) rows: score descending, then model name for determinism."""
    rows = [(str(modality), str(model), float(score)) for model, modality, score in entries]
    if not rows:
        raise ValueError("nothing to compare")
    rows.sort(key=lambda r: (-r[2], r[1]))
    return rows

"""Command-line front end: prepare, train, predict, evaluate, stability, compare.

Every command resolves one RunConfig (INI file plus flag overrides),
persists the resolved copy next to its outputs, and derives all
randomness from the single configured seed. Exit codes: 0 success,
1 runtime failure, 2 config or input-validation error.
"""

from __future__ import annotations

import argparse
import csv
import ctypes
import itertools
import json
import multiprocessing
import os
import sys
from pathlib import Path

import numpy as np

from .config import (
    MODEL_KINDS,
    RunConfig,
    config_hash,
    load_config,
    write_resolved,
)
from .corpus import (
    CsvSchema,
    Dataset,
    Sentiment,
    class_stats,
    load_dataset,
    normalize_label,
    save_dataset,
    upsample,
)
from .embeddings import EmbeddingTable, load_embeddings
from .errors import ConfigError, DataFormatError
from .eval import EvalReport, compare_report, macro_f1, stability_study
from .models import (
    MODEL_CLASSES,
    BimodalFusionClassifier,
    BowFfnnClassifier,
    HsvCnnClassifier,
    MultinomialNaiveBayes,
    Word2vecFfnnClassifier,
    load_hsv_input,
    model_from_container,
)
from .persist import load_container
from .textprep import PrepConfig, preprocess

__all__ = [
    "main",
    "cmd_prepare",
    "cmd_train",
    "cmd_predict",
    "cmd_eval",
    "cmd_stability",
    "cmd_compare",
]

_HIST_BINS = ((0, 0), (1, 5), (6, 10), (11, 20), (21, 50), (51, None))


# ---------------------------------------------------------------- helpers


def _load_dataset(cfg: RunConfig) -> tuple[Dataset, Path]:
    """The configured dataset: an explicit schema mapping from the config,
    else canonical names with the optional columns that the header has."""
    if not cfg.dataset:
        raise ConfigError("no dataset path configured (set [data] dataset or --dataset)")
    path = Path(cfg.dataset)
    schema = CsvSchema.parse(cfg.schema) if cfg.schema and cfg.schema != "auto" else None
    return load_dataset(path, schema), path


def _tensors_for(ds: Dataset, base_dir: Path) -> np.ndarray:
    """Stack per-record HSV tensors; relative image paths resolve
    against the dataset file's directory."""
    missing = [rec.id for rec in ds.records if not rec.image_path]
    if missing:
        raise DataFormatError(
            f"{len(missing)} records have no image path (first: {missing[0]!r}); "
            "map the image column in the schema"
        )
    tensors = []
    for rec in ds.records:
        p = Path(rec.image_path)
        if not p.is_absolute():
            p = base_dir / p
        tensors.append(load_hsv_input(p))
    return np.stack(tensors)


def _int_labels(ds: Dataset) -> list[int]:
    return [int(label) for label in ds.labels()]


def _estimator(cls, cfg: RunConfig, seed: int, **given):
    """An unfitted ``cls`` whose constructor parameters come from
    ``given``, else from the config field of the same name (``seed`` from
    the argument), else from their defaults."""
    values = dict(vars(cfg), seed=seed, **given)
    return cls(**{name: values[name] for name in cls._param_names() if name in values})


def _fusion(cls, cfg: RunConfig, seed: int, **given):
    return _estimator(
        cls, cfg, seed, **given,
        text=_estimator(BowFfnnClassifier, cfg, seed),
        image=_estimator(HsvCnnClassifier, cfg, seed),
    )


# config model kind -> (class, build(cls, cfg, seed, table=...), inputs(ds,
# base_dir)); inputs are the positional arguments of fit and predict_proba
_MODELS = {
    "nb": (MultinomialNaiveBayes, _estimator,
           lambda ds, base_dir: ([preprocess(c) for c in ds.captions()],)),
    "ffnn_w2v": (Word2vecFfnnClassifier, _estimator, lambda ds, base_dir: (ds.captions(),)),
    "ffnn_bow": (BowFfnnClassifier, _estimator, lambda ds, base_dir: (ds.captions(),)),
    "cnn_hsv": (HsvCnnClassifier, _estimator,
                lambda ds, base_dir: (_tensors_for(ds, base_dir),)),
    "fusion": (BimodalFusionClassifier, _fusion,
               lambda ds, base_dir: (ds.captions(), _tensors_for(ds, base_dir))),
}


def _table_for(cls, cfg: RunConfig, ds: Dataset,
               prep: PrepConfig | None = None) -> EmbeddingTable | None:
    """The embedding table a model of ``cls`` needs, if any. With
    ``filter_embeddings`` it keeps only the dataset's tokens under
    ``prep``, the model's preprocessing."""
    if cls is not Word2vecFfnnClassifier:
        return None
    if not cfg.embeddings:
        raise ConfigError(
            f"model {cls.KIND!r} requires an embeddings path "
            "(set [model] embeddings or --embeddings)"
        )
    vocab = None
    if cfg.filter_embeddings:
        vocab = set()
        for caption in ds.captions():
            vocab.update(preprocess(caption, prep))
    return load_embeddings(cfg.embeddings, cfg.embeddings_format, vocab_filter=vocab)


def _fit_model(cfg: RunConfig, ds: Dataset, base_dir: Path, seed: int, table,
               workers: int = 1):
    """Train the configured model kind on a dataset; returns the model.
    A fusion fit runs its rounds in up to ``workers`` processes."""
    cls, build, inputs = _MODELS[cfg.model]
    model = build(cls, cfg, seed, table=table)
    extra = {"workers": workers} if cls is BimodalFusionClassifier else {}
    return model.fit(*inputs(ds, base_dir), _int_labels(ds), **extra)


def _model_proba(model, ds: Dataset, base_dir: Path) -> np.ndarray:
    inputs = next(inputs for cls, _, inputs in _MODELS.values() if type(model) is cls)
    return model.predict_proba(*inputs(ds, base_dir))


def _out_dir(cfg: RunConfig) -> Path:
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _length_histogram(ds: Dataset) -> list[dict]:
    """Caption lengths in whitespace tokens, bucketed."""
    lengths = [len(rec.caption.split()) for rec in ds.records]
    rows = []
    for lo, hi in _HIST_BINS:
        label = f"{lo}" if lo == hi else (f"{lo}+" if hi is None else f"{lo}-{hi}")
        count = sum(
            1 for n in lengths if n >= lo and (hi is None or n <= hi)
        )
        rows.append({"bucket": label, "count": count})
    return rows


def _report_text(rep: EvalReport) -> str:
    names = [s.canonical_name for s in Sentiment]
    width = max(len(n) for n in names)
    lines = ["confusion (rows gold, cols predicted):"]
    lines.append("  " + " " * width + "  " + "  ".join(f"{n:>8}" for n in names))
    for i, name in enumerate(names):
        row = "  ".join(f"{c:>8}" for c in rep.confusion.counts[i])
        lines.append(f"  {name:<{width}}  {row}")
    lines.append("")
    lines.append(f"  {'class':<{width}}  precision  recall  f1")
    for i, name in enumerate(names):
        lines.append(
            f"  {name:<{width}}  {rep.precision[i]:>9.4f}  {rep.recall[i]:>6.4f}"
            f"  {rep.f1[i]:.4f}"
        )
    lines.append("")
    lines.append(f"macro-F1: {rep.macro_f1:.4f}")
    return "\n".join(lines)


# ---------------------------------------------------------------- commands


def cmd_prepare(cfg: RunConfig) -> int:
    ds, _ = _load_dataset(cfg)
    if len(ds) == 0:
        raise DataFormatError(f"{cfg.dataset}: no usable records")
    stats = class_stats(ds)
    hist = _length_histogram(ds)
    out = _out_dir(cfg)
    save_dataset(ds, out / "dataset.csv")
    report = {
        "class_stats": stats.to_dict(),
        "caption_length_histogram": hist,
        "rejected_rows": len(ds.rejected_rows),
    }
    (out / "prepare_report.json").write_text(
        json.dumps(report, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    write_resolved(cfg, out)
    print(f"records: {stats.total}")
    for s in Sentiment:
        print(
            f"  {s.canonical_name:<8} {stats.counts[s]:>6}"
            f"  ({100.0 * stats.percentages[s]:.1f}%)"
        )
    if ds.rejected_rows:
        print(f"rejected rows: {len(ds.rejected_rows)}")
    print("caption length (tokens):")
    for row in hist:
        print(f"  {row['bucket']:>5}  {row['count']:>6}")
    return 0


def cmd_train(cfg: RunConfig, workers: int = 1) -> int:
    ds, path = _load_dataset(cfg)
    if cfg.upsample:
        ds = upsample(ds, seed=cfg.seed)
    table = _table_for(_MODELS[cfg.model][0], cfg, ds)
    model = _fit_model(cfg, ds, path.parent, cfg.seed, table, workers)
    out = _out_dir(cfg)
    model.save(out / "model.bin")
    report = {
        "kind": cfg.model,
        "n_records": len(ds),
        "seed": cfg.seed,
        "config_hash": config_hash(cfg),
        "epoch_losses": [float(x) for x in getattr(model, "history_", [])],
    }
    coverage = getattr(model, "coverage_", None)
    if coverage is not None:
        report["embedding_coverage"] = {
            "n_tokens": coverage.n_tokens,
            "n_covered_tokens": coverage.n_covered_tokens,
            "n_all_oov": coverage.n_all_oov,
        }
    (out / "train_report.json").write_text(
        json.dumps(report, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    write_resolved(cfg, out)
    print(f"trained {cfg.model} on {len(ds)} records -> {out / 'model.bin'}")
    for i, loss in enumerate(report["epoch_losses"], start=1):
        print(f"  epoch {i:>3}: loss {loss:.6f}")
    return 0


def cmd_predict(cfg: RunConfig, model_path: str) -> int:
    ds, path = _load_dataset(cfg)
    if len(ds) == 0:
        raise DataFormatError(f"{cfg.dataset}: no usable records")
    header, arrays = load_container(model_path)
    cls = MODEL_CLASSES.get(header.get("kind"))
    prep = cls.saved_prep(header, model_path) if cls is Word2vecFfnnClassifier else None
    table = _table_for(cls, cfg, ds, prep)
    model = model_from_container(header, arrays, model_path, table)
    probs = _model_proba(model, ds, path.parent)
    out = _out_dir(cfg)
    target = out / "predictions.csv"
    with open(target, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id", "label", "p_neg", "p_neu", "p_pos"])
        for rec, row in zip(ds.records, probs):
            label = Sentiment(int(np.argmax(row))).canonical_name
            writer.writerow([rec.id, label] + [repr(float(p)) for p in row])
    write_resolved(cfg, out)
    print(f"wrote {len(ds)} predictions -> {target}")
    return 0


def _read_predictions(path: str | Path) -> dict[str, Sentiment]:
    path = Path(path)
    if not path.is_file():
        raise DataFormatError(f"predictions file not found: {path}")
    preds = {}
    with open(path, "r", encoding="utf-8", newline="") as fh:
        try:
            reader = csv.DictReader(fh)
            if reader.fieldnames is None or not {"id", "label"} <= set(reader.fieldnames):
                raise DataFormatError(f"{path}: expected columns id,label")
            for rownum, row in enumerate(reader, start=2):
                rec_id = (row["id"] or "").strip()
                if rec_id in preds:
                    raise DataFormatError(f"{path}: duplicate id {rec_id!r} at row {rownum}")
                try:
                    preds[rec_id] = normalize_label(row["label"] or "")
                except DataFormatError as exc:
                    raise DataFormatError(f"{path}: row {rownum}: {exc}") from None
        except (UnicodeDecodeError, csv.Error) as exc:
            raise DataFormatError(f"{path}: malformed CSV: {exc}") from exc
    if not preds:
        raise DataFormatError(f"{path}: no predictions")
    return preds


def cmd_eval(cfg: RunConfig, predictions_path: str) -> int:
    preds_by_id = _read_predictions(predictions_path)
    ds, _ = _load_dataset(cfg)
    gold_ids = [rec.id for rec in ds.records]
    missing = sorted(set(gold_ids) - set(preds_by_id))
    extra = sorted(set(preds_by_id) - set(gold_ids))
    if missing or extra:
        raise DataFormatError(
            f"prediction ids do not match gold ids "
            f"({len(missing)} missing, {len(extra)} unknown; "
            f"first: {(missing + extra)[0]!r})"
        )
    golds = _int_labels(ds)
    preds = [int(preds_by_id[rec_id]) for rec_id in gold_ids]
    rep = macro_f1(preds, golds, seed=cfg.seed, config_hash=config_hash(cfg))
    out = _out_dir(cfg)
    (out / "eval_report.json").write_text(rep.to_json() + "\n", encoding="utf-8")
    text = _report_text(rep)
    (out / "eval_report.txt").write_text(text + "\n", encoding="utf-8")
    write_resolved(cfg, out)
    print(text)
    return 0


def _pin_blas() -> tuple[bool, list]:
    """Set each OpenBLAS this process loaded to one thread. Returns whether
    all now report one, and the (setter, earlier count) pairs that undo it.
    Large GEMMs give other bytes at other thread counts, and an environment
    variable would be read too late: NumPy is already loaded."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = {line.split(maxsplit=5)[-1].strip() for line in fh if "openblas" in line}
        libs = [ctypes.CDLL(path) for path in sorted(paths)]
    except OSError:
        return False, []
    getters, undo = [], []
    for lib, prefix, suffix in itertools.product(libs, ("scipy_", ""), ("64_", "")):
        setter = getattr(lib, f"{prefix}openblas_set_num_threads{suffix}", None)
        getter = getattr(lib, f"{prefix}openblas_get_num_threads{suffix}", None)
        if setter and getter:
            setter.argtypes, setter.restype = [ctypes.c_int], None
            getter.argtypes, getter.restype = [], ctypes.c_int
            undo.append((setter, getter()))
            setter(1)
            getters.append(getter)
    return bool(getters) and all(getter() == 1 for getter in getters), undo


def _workers(cpus: int, can_fork: bool, pinned: bool) -> int:
    """Worker processes for a parallel map (stability seeds, fusion rounds):
    one per CPU when they can be forked at one BLAS thread each; else 1.
    The map itself starts no more than one per item."""
    return cpus if can_fork and pinned else 1


def _print_seed(seed: int, score: float, seconds: float) -> None:
    print(f"seed {seed}: macro-F1 {score:.4f} ({seconds:.1f} s)",
          file=sys.stderr, flush=True)


def cmd_stability(cfg: RunConfig, workers: int = 1) -> int:
    ds, path = _load_dataset(cfg)
    table = _table_for(_MODELS[cfg.model][0], cfg, ds)
    base_dir = path.parent

    def train_fn(train_ds, val_ds, seed):
        fit_ds = upsample(train_ds, seed=seed) if cfg.upsample else train_ds
        model = _fit_model(cfg, fit_ds, base_dir, seed, table, workers)
        return np.argmax(_model_proba(model, val_ds, base_dir), axis=1)

    report = stability_study(
        train_fn, ds, fraction=cfg.split, n_runs=cfg.runs,
        seed0=cfg.seed, resplit=cfg.resplit, workers=workers, progress=_print_seed,
    )
    out = _out_dir(cfg)
    (out / "stability.json").write_text(report.to_json() + "\n", encoding="utf-8")
    with open(out / "stability_runs.csv", "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["seed", "macro_f1"])
        for seed, score in zip(report.seeds, report.scores):
            writer.writerow([seed, repr(score)])
    write_resolved(cfg, out)
    print(
        f"runs: {report.n_runs}  mean: {report.mean:.4f}  "
        f"variance: {report.variance:.2e}  max: {report.max:.4f}"
    )
    return 0


def _parse_compare_entry(raw: str) -> tuple[str, str, str]:
    """PATH, NAME=PATH, or NAME=MODALITY=PATH."""
    parts = raw.split("=", 2)
    if len(parts) == 1:
        return Path(parts[0]).stem, "-", parts[0]
    if len(parts) == 2:
        return parts[0], "-", parts[1]
    return parts[0], parts[1], parts[2]


def _score_from_report(path: str) -> float:
    p = Path(path)
    if not p.is_file():
        raise DataFormatError(f"report file not found: {p}")
    try:
        data = json.loads(p.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise DataFormatError(f"{p}: not valid JSON: {exc}") from exc
    for key in ("macro_f1", "mean"):
        if isinstance(data, dict) and key in data:
            return float(data[key])
    raise DataFormatError(f"{p}: no macro_f1 or mean field to compare")


def cmd_compare(cfg: RunConfig, entries: list[str]) -> int:
    triples = [
        (name, modality, _score_from_report(path))
        for name, modality, path in map(_parse_compare_entry, entries)
    ]
    table = compare_report(triples)
    text = table.to_text()
    if cfg.out:
        out = _out_dir(cfg)
        (out / "comparison.json").write_text(table.to_json() + "\n", encoding="utf-8")
        (out / "comparison.txt").write_text(text + "\n", encoding="utf-8")
    print(text)
    return 0


# ---------------------------------------------------------------- parsing


def _add_common(sub, *names):
    flags = {
        "config": dict(help="INI config file"),
        "seed": dict(type=int, help="top-level seed for all randomness"),
        "model": dict(help=f"model kind: {', '.join(MODEL_KINDS)}"),
        "dataset": dict(help="dataset CSV path"),
        "embeddings": dict(help="embedding table path"),
        "out": dict(help="output directory"),
        "runs": dict(type=int, help="number of seeded runs"),
        "split": dict(type=float, help="training fraction for splits"),
        "upsample": dict(action=argparse.BooleanOptionalAction,
                         help="oversample minority classes before training"),
    }
    for name in names:
        sub.add_argument(f"--{name}", **flags[name])


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="memesent",
        description="Meme sentiment classification toolkit.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("prepare", help="normalize a raw CSV and report stats")
    _add_common(p, "config", "seed", "dataset", "out")

    p = sub.add_parser("train", help="train a model and save it")
    _add_common(p, "config", "seed", "model", "dataset", "embeddings", "out", "upsample")

    p = sub.add_parser("predict", help="write per-record class probabilities")
    p.add_argument("--model", required=False, help="trained model file", dest="model_file")
    _add_common(p, "config", "seed", "dataset", "embeddings", "out")

    p = sub.add_parser("evaluate", help="score a predictions CSV against golds")
    p.add_argument("predictions", help="predictions CSV from the predict command")
    _add_common(p, "config", "seed", "dataset", "out")

    p = sub.add_parser("stability", help="repeat train/score over many seeds")
    _add_common(
        p, "config", "seed", "model", "dataset", "embeddings", "out", "runs",
        "split", "upsample",
    )

    p = sub.add_parser("compare", help="rank evaluation reports")
    p.add_argument(
        "reports",
        nargs="+",
        help="report JSON files; PATH, NAME=PATH, or NAME=MODALITY=PATH",
    )
    _add_common(p, "config", "out")

    return parser


def _resolve(args) -> RunConfig:
    """The config file's RunConfig, with each flag of a field's name set over it."""
    cfg = load_config(args.config) if getattr(args, "config", None) else RunConfig()
    for name in vars(cfg):
        value = getattr(args, name, None)
        if value is not None:
            setattr(cfg, name, value)
    return cfg.validate()


def main(argv=None) -> int:
    """Run one command; the BLAS thread counts are set back as they were
    when it returns. Stability seeds and fusion rounds run in
    :func:`_workers` forked processes."""
    args = build_parser().parse_args(argv)
    pinned, undo = _pin_blas()
    if not pinned:
        print("warning: could not set BLAS to one thread: output bytes may depend on "
              "its thread count, and stability seeds and fusion rounds run serially",
              file=sys.stderr)
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    workers = _workers(cpus, "fork" in multiprocessing.get_all_start_methods(), pinned)
    try:
        cfg = _resolve(args)
        if args.command == "prepare":
            return cmd_prepare(cfg)
        if args.command == "train":
            return cmd_train(cfg, workers)
        if args.command == "predict":
            if not args.model_file:
                raise ConfigError("predict requires --model MODEL_FILE")
            return cmd_predict(cfg, args.model_file)
        if args.command == "evaluate":
            return cmd_eval(cfg, args.predictions)
        if args.command == "stability":
            return cmd_stability(cfg, workers)
        if args.command == "compare":
            return cmd_compare(cfg, args.reports)
        raise ConfigError(f"unknown command {args.command!r}")
    except (ConfigError, DataFormatError, ValueError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # TrainingError and unexpected failures
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        for setter, count in undo:
            setter(count)


if __name__ == "__main__":
    sys.exit(main())

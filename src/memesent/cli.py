"""Command-line front end: prepare, train, predict, evaluate, stability, compare.

Every command resolves one RunConfig (INI file plus flag overrides),
persists the resolved copy next to its outputs, and derives all
randomness from the single configured seed. Exit codes: 0 success,
1 runtime failure, 2 config or input-validation error.
"""

from __future__ import annotations

import argparse
import csv
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
from .errors import ConfigError, DataFormatError, MemesentError
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
from .textprep import preprocess

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


def _schema_for(cfg: RunConfig, path: Path) -> CsvSchema:
    """Explicit mapping from the config, else canonical names with the
    optional columns (label, image) included only when present."""
    if cfg.schema and cfg.schema != "auto":
        return CsvSchema.parse(cfg.schema)
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            header = next(csv.reader(fh), [])
    except OSError as exc:
        raise DataFormatError(f"dataset file not found: {path}") from exc
    return CsvSchema(
        id="id",
        caption="caption",
        label="label" if "label" in header else None,
        image="image" if "image" in header else None,
    )


def _load_dataset(cfg: RunConfig) -> tuple[Dataset, Path]:
    if not cfg.dataset:
        raise ConfigError("no dataset path configured (set [data] dataset or --dataset)")
    path = Path(cfg.dataset)
    return load_dataset(path, _schema_for(cfg, path)), path


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


def _load_table(cfg: RunConfig, ds: Dataset) -> EmbeddingTable:
    if not cfg.embeddings:
        raise ConfigError(
            f"model {cfg.model!r} requires an embeddings path "
            "(set [model] embeddings or --embeddings)"
        )
    vocab = None
    if cfg.filter_embeddings:
        vocab = set()
        for caption in ds.captions():
            vocab.update(preprocess(caption))
    return load_embeddings(cfg.embeddings, cfg.embeddings_format, vocab_filter=vocab)


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


def _table_for(cls, cfg: RunConfig, ds: Dataset) -> EmbeddingTable | None:
    return _load_table(cfg, ds) if cls is Word2vecFfnnClassifier else None


def _fit_model(cfg: RunConfig, ds: Dataset, base_dir: Path, seed: int, table):
    """Train the configured model kind on a dataset; returns the model."""
    cls, build, inputs = _MODELS[cfg.model]
    model = build(cls, cfg, seed, table=table)
    return model.fit(*inputs(ds, base_dir), _int_labels(ds))


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
        "rejected_rows": len(ds.provenance.rejected_rows),
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
    if ds.provenance.rejected_rows:
        print(f"rejected rows: {len(ds.provenance.rejected_rows)}")
    print("caption length (tokens):")
    for row in hist:
        print(f"  {row['bucket']:>5}  {row['count']:>6}")
    return 0


def cmd_train(cfg: RunConfig) -> int:
    ds, path = _load_dataset(cfg)
    if cfg.upsample:
        ds = upsample(ds, seed=cfg.seed)
    table = _table_for(_MODELS[cfg.model][0], cfg, ds)
    model = _fit_model(cfg, ds, path.parent, cfg.seed, table)
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
    table = _table_for(MODEL_CLASSES.get(header.get("kind")), cfg, ds)
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
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or not {"id", "label"} <= set(reader.fieldnames):
            raise DataFormatError(f"{path}: expected columns id,label")
        preds = {}
        for rownum, row in enumerate(reader, start=2):
            rec_id = (row["id"] or "").strip()
            if rec_id in preds:
                raise DataFormatError(f"{path}: duplicate id {rec_id!r} at row {rownum}")
            preds[rec_id] = normalize_label(row["label"] or "")
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


def _env_threads(environ, name: str) -> int | None:
    """A positive integer thread count from ``environ[name]``, else None
    (unset, empty, zero or not a number: BLAS then uses its default)."""
    try:
        value = int(environ.get(name, ""))
    except ValueError:
        return None
    return value if value > 0 else None


def _stability_workers(runs: int, cpus: int, environ, can_fork: bool) -> int:
    """Stability seeds to run at once: one per ``blas_threads`` of the
    ``cpus`` this process may use, so workers never oversubscribe them.

    ``blas_threads`` is ``OPENBLAS_NUM_THREADS``, else ``OMP_NUM_THREADS``,
    else ``cpus`` (OpenBLAS's own default), so a run with unpinned BLAS
    stays serial. Without ``fork`` the study is serial too.
    """
    if not can_fork:
        return 1
    blas_threads = (_env_threads(environ, "OPENBLAS_NUM_THREADS")
                    or _env_threads(environ, "OMP_NUM_THREADS") or cpus)
    return max(1, min(runs, cpus // blas_threads))


def _workers_here(runs: int) -> int:
    """:func:`_stability_workers` for this process and its environment."""
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    can_fork = "fork" in multiprocessing.get_all_start_methods()
    return _stability_workers(runs, cpus, os.environ, can_fork)


def _print_seed(seed: int, score: float, seconds: float) -> None:
    print(f"seed {seed}: macro-F1 {score:.4f} ({seconds:.1f} s)",
          file=sys.stderr, flush=True)


def cmd_stability(cfg: RunConfig) -> int:
    ds, path = _load_dataset(cfg)
    table = _table_for(_MODELS[cfg.model][0], cfg, ds)
    base_dir = path.parent

    def train_fn(train_ds, val_ds, seed):
        fit_ds = upsample(train_ds, seed=seed) if cfg.upsample else train_ds
        model = _fit_model(cfg, fit_ds, base_dir, seed, table)
        return np.argmax(_model_proba(model, val_ds, base_dir), axis=1)

    report = stability_study(
        train_fn, ds, fraction=cfg.split, n_runs=cfg.runs,
        seed0=cfg.seed, resplit=cfg.resplit,
        workers=_workers_here(cfg.runs), progress=_print_seed,
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
    }
    for name in names:
        if name == "upsample":
            sub.add_argument(
                "--upsample",
                action=argparse.BooleanOptionalAction,
                default=None,
                help="oversample minority classes before training",
            )
        else:
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


_OVERRIDE_FLAGS = ("seed", "model", "dataset", "embeddings", "out", "runs", "split")


def _resolve(args) -> RunConfig:
    cfg = load_config(args.config) if getattr(args, "config", None) else RunConfig()
    for name in _OVERRIDE_FLAGS:
        value = getattr(args, name, None)
        if value is not None:
            setattr(cfg, name, value)
    if getattr(args, "upsample", None) is not None:
        cfg.upsample = args.upsample
    return cfg.validate()


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _resolve(args)
        if args.command == "prepare":
            return cmd_prepare(cfg)
        if args.command == "train":
            return cmd_train(cfg)
        if args.command == "predict":
            if not args.model_file:
                raise ConfigError("predict requires --model MODEL_FILE")
            return cmd_predict(cfg, args.model_file)
        if args.command == "evaluate":
            return cmd_eval(cfg, args.predictions)
        if args.command == "stability":
            return cmd_stability(cfg)
        if args.command == "compare":
            return cmd_compare(cfg, args.reports)
        raise ConfigError(f"unknown command {args.command!r}")
    except (ConfigError, DataFormatError, ValueError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemesentError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # pragma: no cover - unexpected failure
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

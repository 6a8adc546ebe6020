"""Command-line front end: prepare, train, predict, evaluate, stability, compare.

Every command resolves one RunConfig (INI file plus flag overrides),
derives all randomness from the single configured seed, and writes its
outputs through :func:`_write`: each file moved into place whole, then
the resolved ``config.ini``, which marks a complete run. Exit codes:
0 success, 1 runtime failure, 2 config or input-validation error, 130
or 143 on SIGINT or SIGTERM.
"""

from __future__ import annotations

import argparse
import csv
import ctypes
import io
import itertools
import json
import logging
import math
import multiprocessing
import os
import signal
import sys
import threading
from dataclasses import fields, replace
from pathlib import Path

import numpy as np

from .config import MODELS, RunConfig, config_hash, load_config, render_config
from .corpus import (
    CsvSchema,
    Dataset,
    Sentiment,
    _train_count,
    class_stats,
    load_dataset,
    save_dataset,
    upsample,
)
from .embeddings import CoverageStats, corpus_coverage, embed_corpus, load_embeddings
from .errors import INPUT_ERRORS, ConfigError, DataFormatError, NumericError
from .eval import EvalReport, compare_report, macro_f1, stability_study
from .models.image import IMAGE_SIZE, load_hsv_input
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

logger = logging.getLogger(__name__)


# ---------------------------------------------------------------- helpers


def _load_dataset(cfg: RunConfig, labeled: bool = True) -> tuple[Dataset, Path]:
    """The configured dataset: an explicit schema mapping from the config,
    else canonical names with the optional columns that the header has.
    A dataset without records is an input error for every command, and
    one with an unlabeled record when ``labeled``; both name the file."""
    if not cfg.dataset:
        raise ConfigError("no dataset path configured (set [data] dataset or --dataset)")
    path = Path(cfg.dataset)
    schema = CsvSchema.parse(cfg.schema) if cfg.schema and cfg.schema != "auto" else None
    ds = load_dataset(path, schema)
    if len(ds) == 0:
        raise DataFormatError(f"{path}: no usable records")
    if labeled:
        try:
            ds.labels()
        except DataFormatError as exc:
            raise DataFormatError(f"{path}: {exc}") from None
    return ds, path


def _estimator(cls, cfg: RunConfig, seed: int):
    """An unfitted ``cls`` whose constructor parameters come from the
    config field of the same name (``seed`` from the argument), else from
    their defaults; its ``BRANCHES`` are built the same way."""
    values = dict(vars(cfg), seed=seed)
    values.update({name: _estimator(branch, cfg, seed) for name, branch in cls.BRANCHES.items()})
    return cls(**{name: values[name] for name in cls._param_names() if name in values})


def _inputs(cls, cfg: RunConfig, ds: Dataset, base_dir: Path, source: str = "",
            dim: int | None = None) -> tuple[list, CoverageStats | None]:
    """The inputs that ``cls.INPUTS`` names, one row per record of ``ds``:
    ``tokens``, the preprocessed captions; ``pooled``, those mean-pooled
    into one float32 matrix; ``tensors``, the HSV tensor stack read from
    the image paths, a relative one against ``base_dir``. Each distinct
    record is preprocessed and read once: an upsampled copy shares its
    first token list and tensor.

    Pooling loads the table (with ``filter_embeddings``, only the
    captions' words), logs and returns its coverage of the rows' tokens
    (else the coverage is ``None``), and frees the table on return. A
    missing embeddings path, or a table whose dimension is not ``dim``
    (if given), is an error that begins with ``source``, the model file's
    name if there is one."""
    built, coverage = {}, None
    if {"tokens", "pooled"} & set(cls.INPUTS):
        tokens = {rec: preprocess(rec.caption) for rec in dict.fromkeys(ds.records)}
        built["tokens"] = [tokens[rec] for rec in ds.records]
    if "pooled" in cls.INPUTS:
        if not cfg.embeddings:
            raise ConfigError(
                f"{source}model {cls.KIND!r} requires an embeddings path "
                "(set [model] embeddings or --embeddings)"
            )
        vocab = ({t for row in tokens.values() for t in row}
                 if cfg.filter_embeddings else None)
        table = load_embeddings(cfg.embeddings, cfg.embeddings_format, vocab_filter=vocab)
        if dim is not None and table.dim != dim:
            raise DataFormatError(f"{source}model expects {dim}-dimensional embeddings, "
                                  f"table has dim {table.dim}")
        coverage = corpus_coverage(built["tokens"], table)
        logger.log(
            logging.WARNING if coverage.n_all_oov else logging.INFO,
            "embedded %d captions: %.1f%% token coverage; %d have no "
            "in-vocabulary tokens and embed as zero vectors",
            coverage.n_captions,
            100.0 * coverage.token_coverage,
            coverage.n_all_oov,
        )
        built["pooled"] = embed_corpus(built["tokens"], table)
    if "tensors" in cls.INPUTS:
        missing = [rec.id for rec in ds.records if not rec.image_path]
        if missing:
            raise DataFormatError(
                f"{len(missing)} records have no image path (first: {missing[0]!r}); "
                "map the image column in the schema"
            )
        stack = np.empty((len(ds), IMAGE_SIZE, IMAGE_SIZE, 3))
        first = {}
        for i, rec in enumerate(ds.records):
            j = first.setdefault(rec, i)
            # an absolute path stays
            stack[i] = stack[j] if j < i else load_hsv_input(base_dir / rec.image_path)
        built["tensors"] = stack
    return [built[name] for name in cls.INPUTS], coverage


def _fit_model(cfg: RunConfig, inputs: list, labels: list[Sentiment], seed: int,
               workers: int = 1):
    """Train the configured model kind on :func:`_inputs` and their labels;
    returns the model. A fit that takes ``workers`` (``FIT_WORKERS``) runs
    in up to that many processes."""
    cls = MODELS[cfg.model]
    extra = {"workers": workers} if cls.FIT_WORKERS else {}
    return _estimator(cls, cfg, seed).fit(*inputs, labels, **extra)


def _json(data) -> str:
    return json.dumps(data, indent=2, sort_keys=True) + "\n"


def _csv(rows) -> str:
    text = io.StringIO()
    csv.writer(text).writerows(rows)
    return text.getvalue()


def _write(cfg: RunConfig, files: dict) -> Path:
    """Write ``files`` (name -> text, or a function that writes a given
    path) into ``cfg.out``, which it returns, each under a temporary name
    moved into place whole; an earlier ``config.ini`` is removed first and
    the resolved one written last, so that it marks a complete run."""
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "config.ini").unlink(missing_ok=True)
    for name, content in {**files, "config.ini": render_config(cfg)}.items():
        tmp = out / f".{name}.{os.getpid()}.tmp"
        try:
            if callable(content):
                content(tmp)
            else:
                tmp.write_text(content, encoding="utf-8", newline="")
            os.replace(tmp, out / name)
        finally:
            tmp.unlink(missing_ok=True)
    return out


def _length_histogram(ds: Dataset) -> list[dict]:
    """Caption lengths in whitespace tokens, bucketed."""
    lengths = [len(rec.caption.split()) for rec in ds.records]
    return [{"bucket": f"{lo}" if lo == hi else (f"{lo}+" if hi is None else f"{lo}-{hi}"),
             "count": sum(lo <= n and (hi is None or n <= hi) for n in lengths)}
            for lo, hi in _HIST_BINS]


def _report_text(rep: EvalReport) -> str:
    names = [s.canonical_name for s in Sentiment]
    width = max(len(n) for n in names)
    lines = ["confusion (rows gold, cols predicted):",
             "  " + " " * width + "  " + "  ".join(f"{n:>8}" for n in names)]
    lines += [f"  {name:<{width}}  " + "  ".join(f"{c:>8}" for c in rep.confusion[i])
              for i, name in enumerate(names)]
    lines += ["", f"  {'class':<{width}}  precision  recall  f1"]
    lines += [f"  {name:<{width}}  {rep.precision[i]:>9.4f}  {rep.recall[i]:>6.4f}"
              f"  {rep.f1[i]:.4f}" for i, name in enumerate(names)]
    lines += ["", f"macro-F1: {rep.macro_f1:.4f}"]
    return "\n".join(lines)


def _comparison_text(rows: list[tuple[str, str, float]]) -> str:
    table = [("modality", "model", "macro-F1")]
    table += [(modality, model, f"{score:.4f}") for modality, model, score in rows]
    widths = [max(len(row[i]) for row in table) for i in range(3)]
    return "\n".join("  ".join(cell.ljust(width) for cell, width in zip(row, widths)).rstrip()
                     for row in table)


# ---------------------------------------------------------------- commands


def cmd_prepare(cfg: RunConfig) -> int:
    ds, path = _load_dataset(cfg)
    counts = class_stats(ds)
    hist = _length_histogram(ds)
    report = {
        "class_stats": {
            "total": len(ds),
            "counts": {s.canonical_name: n for s, n in counts.items()},
            "percentages": {s.canonical_name: n / len(ds) for s, n in counts.items()},
        },
        "caption_length_histogram": hist,
        "rejected_rows": len(ds.rejected_rows),
    }
    # a relative image path resolves against its dataset file's directory, so the
    # copy's are rewritten against the directory it is written into
    rebased = Dataset(tuple(
        replace(rec, image_path=os.path.relpath(path.parent / rec.image_path, cfg.out))
        if rec.image_path and not os.path.isabs(rec.image_path) else rec
        for rec in ds.records))
    _write(cfg, {"dataset.csv": lambda out: save_dataset(rebased, out),
                 "prepare_report.json": _json(report)})
    print(f"records: {len(ds)}")
    for s, n in counts.items():
        print(f"  {s.canonical_name:<8} {n:>6}  ({100.0 * (n / len(ds)):.1f}%)")
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
    inputs, coverage = _inputs(MODELS[cfg.model], cfg, ds, path.parent)
    model = _fit_model(cfg, inputs, ds.labels(), cfg.seed, workers)
    report = {
        "kind": cfg.model,
        "n_records": len(ds),
        "seed": cfg.seed,
        "config_hash": config_hash(cfg),
        "epoch_losses": [float(x) for x in getattr(model, "history_", [])],
    }
    if coverage is not None:  # over the fit rows, upsampled copies included
        report["embedding_coverage"] = {
            "n_tokens": coverage.n_tokens,
            "n_covered_tokens": coverage.n_covered_tokens,
            "n_all_oov": coverage.n_all_oov,
        }
    out = _write(cfg, {"model.bin": model.save, "train_report.json": _json(report)})
    print(f"trained {cfg.model} on {len(ds)} records -> {out / 'model.bin'}")
    for i, loss in enumerate(report["epoch_losses"], start=1):
        print(f"  epoch {i:>3}: loss {loss:.6f}")
    return 0


def cmd_predict(cfg: RunConfig, model_path: str) -> int:
    ds, path = _load_dataset(cfg, labeled=False)
    header, arrays = load_container(model_path)
    kind = header.get("kind")
    cls = next((cls for cls in MODELS.values() if cls.KIND == kind), None)
    if cls is None:
        raise DataFormatError(f"{model_path}: unknown model kind {kind!r}")
    # the file is checked before any table or image is read
    model = cls.from_container(header, arrays, model_path)
    dim = model.spec_.input_dim if "pooled" in cls.INPUTS else None
    inputs, _ = _inputs(cls, cfg, ds, path.parent, f"{model_path}: ", dim)
    try:
        probs = model.predict_proba(*inputs)
    except NumericError as exc:
        raise DataFormatError(f"{model_path}: {exc}") from exc
    rows = [["id", "label", "p_neg", "p_neu", "p_pos"]] + [
        [rec.id, Sentiment(int(np.argmax(row))).canonical_name, *(repr(float(p)) for p in row)]
        for rec, row in zip(ds.records, probs)]
    out = _write(cfg, {"predictions.csv": _csv(rows)})
    print(f"wrote {len(ds)} predictions -> {out / 'predictions.csv'}")
    return 0


def cmd_eval(cfg: RunConfig, predictions_path: str) -> int:
    ds, _ = _load_dataset(cfg)
    path = Path(predictions_path)
    predictions = load_dataset(path, CsvSchema(caption=None))
    if predictions.rejected_rows:
        raise DataFormatError("{}: row {}: {}".format(path, *predictions.rejected_rows[0]))
    if len(predictions) == 0:
        raise DataFormatError(f"{path}: no predictions")
    preds_by_id = {rec.id: rec.label for rec in predictions.records}
    gold_ids = [rec.id for rec in ds.records]
    missing = sorted(set(gold_ids) - set(preds_by_id))
    extra = sorted(set(preds_by_id) - set(gold_ids))
    if missing or extra:
        raise DataFormatError(
            f"prediction ids do not match gold ids "
            f"({len(missing)} missing, {len(extra)} unknown; "
            f"first: {(missing + extra)[0]!r})"
        )
    preds = [preds_by_id[rec_id] for rec_id in gold_ids]
    rep = macro_f1(preds, ds.labels(), seed=cfg.seed, config_hash=config_hash(cfg))
    text = _report_text(rep)
    _write(cfg, {"eval_report.json": _json(rep.to_dict()), "eval_report.txt": text + "\n"})
    print(text)
    return 0


def _openblas(*names: str) -> list[tuple]:
    """The functions ``openblas_<name>`` for each of ``names``, once for
    each OpenBLAS this process loaded and each symbol variant (a
    ``scipy_`` prefix, a ``64_`` suffix) under which it has them all.
    Raises ``OSError`` if the loaded libraries cannot be found or opened."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        paths = {line.split(maxsplit=5)[-1].strip() for line in fh if "openblas" in line}
    libs = [ctypes.CDLL(path) for path in sorted(paths)]
    found = []
    for lib, prefix, suffix in itertools.product(libs, ("scipy_", ""), ("64_", "")):
        functions = tuple(getattr(lib, f"{prefix}openblas_{name}{suffix}", None) for name in names)
        if all(functions):
            found.append(functions)
    return found


def _pin_blas() -> tuple[bool, list]:
    """Set each OpenBLAS this process loaded to one thread. Returns whether
    all now report one, and the (setter, earlier count) pairs that undo it.
    Large GEMMs give other bytes at other thread counts, and an environment
    variable would be read too late: NumPy is already loaded."""
    try:
        found = _openblas("set_num_threads", "get_num_threads")
    except OSError:
        return False, []
    undo = []
    for setter, getter in found:
        setter.argtypes, setter.restype = [ctypes.c_int], None
        getter.argtypes, getter.restype = [], ctypes.c_int
        undo.append((setter, getter()))
        setter(1)
    return bool(found) and all(getter() == 1 for _, getter in found), undo


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
    # the split sizes depend only on the class counts, so this holds for every seed
    if all(_train_count(cfg.split, n) == n for n in class_stats(ds).values()):
        raise DataFormatError(f"{path}: split = {cfg.split} leaves no validation records")
    # built once, here: the forked seeds share them (not the embedding table)
    # and select their rows by id, since upsampled copies keep their record's id
    inputs, _ = _inputs(MODELS[cfg.model], cfg, ds, path.parent)
    row_of = {rec.id: i for i, rec in enumerate(ds.records)}

    def rows(part: Dataset) -> list:
        index = [row_of[rec.id] for rec in part.records]
        return [x[index] if isinstance(x, np.ndarray) else [x[i] for i in index]
                for x in inputs]

    def train_fn(train_ds, val_ds, seed):
        fit_ds = upsample(train_ds, seed=seed) if cfg.upsample else train_ds
        model = _fit_model(cfg, rows(fit_ds), fit_ds.labels(), seed, workers)
        return np.argmax(model.predict_proba(*rows(val_ds)), axis=1)

    report = stability_study(
        train_fn, ds, fraction=cfg.split, n_runs=cfg.runs,
        seed0=cfg.seed, resplit=cfg.resplit, workers=workers, progress=_print_seed,
    )
    runs = [["seed", "macro_f1"]] + [[seed, repr(score)]
                                      for seed, score in zip(report.seeds, report.scores)]
    _write(cfg, {"stability.json": _json(report.to_dict()), "stability_runs.csv": _csv(runs)})
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
        # every number as a float: an integer too large for one becomes inf
        data = json.loads(p.read_text(encoding="utf-8"), parse_int=float)
    except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
        raise DataFormatError(f"{p}: not valid JSON: {exc}") from exc
    for key in ("macro_f1", "mean"):
        if isinstance(data, dict) and key in data:
            if not (isinstance(data[key], float) and math.isfinite(data[key])):
                raise DataFormatError(f"{p}: {key} is {data[key]!r}, not a finite number")
            return data[key]
    raise DataFormatError(f"{p}: no macro_f1 or mean field to compare")


def cmd_compare(cfg: RunConfig, entries: list[str]) -> int:
    triples = [
        (name, modality, _score_from_report(path))
        for name, modality, path in map(_parse_compare_entry, entries)
    ]
    rows = compare_report(triples)
    text = _comparison_text(rows)
    data = {"rows": [{"modality": modality, "model": model, "macro_f1": score}
                     for modality, model, score in rows]}
    _write(cfg, {"comparison.json": _json(data), "comparison.txt": text + "\n"})
    print(text)
    return 0


# ---------------------------------------------------------------- parsing


def _add_common(sub, *names):
    """``--config``, then the flag of each named :class:`RunConfig` field,
    typed by the field's default."""
    sub.add_argument("--config", help="INI config file")
    settings = {f.name: f for f in fields(RunConfig)}
    for name in names:
        kind = type(settings[name].default)
        typed = dict(action=argparse.BooleanOptionalAction) if kind is bool else dict(type=kind)
        sub.add_argument(f"--{name}", help=settings[name].metadata["flag"], **typed)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="memesent",
        description="Meme sentiment classification toolkit.",
    )
    parser.add_argument("--log-level", default="WARNING",
                        choices=("INFO", "WARNING", "ERROR"),
                        help="least severe log messages shown on stderr (default WARNING)")
    parser.add_argument("-v", dest="log_level", action="store_const", const="INFO",
                        help="same as --log-level INFO")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("prepare", help="normalize a raw CSV and report stats")
    _add_common(p, "seed", "dataset", "out")

    p = sub.add_parser("train", help="train a model and save it")
    _add_common(p, "seed", "model", "dataset", "embeddings", "out", "upsample")

    p = sub.add_parser("predict", help="write per-record class probabilities")
    p.add_argument("--model", required=False, help="trained model file", dest="model_file")
    _add_common(p, "seed", "dataset", "embeddings", "out")

    p = sub.add_parser("evaluate", help="score a predictions CSV against golds")
    p.add_argument("predictions", help="predictions CSV from the predict command")
    _add_common(p, "seed", "dataset", "out")

    p = sub.add_parser("stability", help="repeat train/score over many seeds")
    _add_common(p, "seed", "model", "dataset", "embeddings", "out", "runs", "split", "upsample")

    p = sub.add_parser("compare", help="rank evaluation reports")
    p.add_argument(
        "reports",
        nargs="+",
        help="report JSON files; PATH, NAME=PATH, or NAME=MODALITY=PATH",
    )
    _add_common(p, "out")

    return parser


def _resolve(args) -> RunConfig:
    """The config file's RunConfig, with each flag of a field's name set over
    it. An ``out`` that is, or lies under, something other than a directory
    is a :class:`ConfigError` here, before any command's work."""
    cfg = load_config(args.config) if getattr(args, "config", None) else RunConfig()
    for name in vars(cfg):
        value = getattr(args, name, None)
        if value is not None:
            setattr(cfg, name, value)
    cfg.validate()
    out = Path(cfg.out)
    for path in (out, *out.parents):
        if path.is_dir():
            break
        if path.exists():
            raise ConfigError(f"--out {cfg.out}: {path} is not a directory")
    return cfg


def _interrupt(signum, frame):
    raise KeyboardInterrupt(signum)


def main(argv=None) -> int:
    """Run one command; the BLAS thread counts, the ``memesent`` logger
    and, in the main thread, the SIGINT and SIGTERM handlers are set back
    as they were when it returns. Stability seeds and fusion rounds run in
    :func:`_workers` forked processes. Either signal ends the command
    with exit code 128 plus its number, and its workers with it."""
    args = build_parser().parse_args(argv)
    log = logging.getLogger("memesent")
    handler, level = logging.StreamHandler(sys.stderr), log.level
    handler.setFormatter(logging.Formatter("%(levelname)s %(name)s: %(message)s"))
    log.addHandler(handler)
    log.setLevel(args.log_level)
    pinned, undo = _pin_blas()
    if not pinned:
        print("warning: could not set BLAS to one thread: output bytes may depend on "
              "its thread count, and stability seeds and fusion rounds run serially",
              file=sys.stderr)
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    workers = _workers(cpus, "fork" in multiprocessing.get_all_start_methods(), pinned)
    handlers = ({sig: signal.signal(sig, _interrupt) for sig in (signal.SIGINT, signal.SIGTERM)}
                if threading.current_thread() is threading.main_thread() else {})
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
        return cmd_compare(cfg, args.reports)
    except INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # TrainingError and unexpected failures
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except KeyboardInterrupt as exc:
        print("error: interrupted", file=sys.stderr)
        return 128 + (exc.args[0] if exc.args else signal.SIGINT)
    finally:
        for sig, previous in handlers.items():
            signal.signal(sig, previous)
        for setter, count in undo:
            setter(count)
        log.removeHandler(handler)
        log.setLevel(level)


if __name__ == "__main__":
    sys.exit(main())

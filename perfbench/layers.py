"""The layer map: which memesent functions get spans, and the per-layer
metrics computed from those spans.

Layers are named after the program's modules. Functions shared by the
dense net and the CNN (``adam_step``, ``softmax_xent``) are attributed
by their parent span: calls under ``cnn.fit`` count to ``cnn.*``.
"""

from __future__ import annotations

import importlib
import inspect
import os
import statistics

from spans import Patches, Tracer, aggregate


def _shared(base: str):
    return lambda open_names: ("cnn." if "cnn.fit" in open_names else "nn.") + base


def _rows_arg(index: int):
    return lambda args, kwargs, result: {"rows": len(args[index])}


def _upsample_count(args, kwargs, result):
    return {"rows_out": len(result)}


def _load_count(args, kwargs, result):
    path = args[0] if args else kwargs["path"]
    with open(path, "rb") as fh:
        scanned = int(fh.readline().split()[0])
    itemsize = next(iter(result.vectors.values())).itemsize if len(result) else 0
    return {
        "words_scanned": scanned,
        "words_kept": len(result),
        "table_bytes": len(result) * result.dim * itemsize,
    }


def _adam_count(args, kwargs, result):
    return {"params": sum(p.size for p in args[1])}


def _bow_count(args, kwargs, result):
    return {"nnz": int((result != 0).sum()), "size": int(result.size)}


def _save_count(args, kwargs, result):
    path = args[0] if args else kwargs["path"]
    return {"bytes": os.path.getsize(path)}


def _stacker_count(fn):
    signature = inspect.signature(fn)

    def count(args, kwargs, result):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        return {"updates": bound.arguments["epochs"] * len(bound.arguments["labels"])}

    return count


# (span name, module, function, count)
FUNCTIONS = (
    ("textprep.preprocess", "memesent.textprep", "preprocess", None),
    ("corpus.load_dataset", "memesent.corpus", "load_dataset", None),
    ("corpus.stratified_split", "memesent.corpus", "stratified_split", None),
    ("corpus.upsample", "memesent.corpus", "upsample", _upsample_count),
    ("embeddings.load", "memesent.embeddings", "load_embeddings", _load_count),
    ("embeddings.embed_corpus", "memesent.embeddings", "embed_corpus", _rows_arg(0)),
    ("embeddings.corpus_coverage", "memesent.embeddings", "corpus_coverage", None),
    ("nn.train", "memesent.nn", "train", None),
    ("nn.forward", "memesent.nn", "forward", _rows_arg(1)),
    ("nn.backward", "memesent.nn", "backward", None),
    (_shared("adam_step"), "memesent.nn", "adam_step", _adam_count),
    (_shared("softmax_xent"), "memesent.nn", "softmax_xent", None),
    ("bow.bow_vectorize", "memesent.models.bow", "bow_vectorize", _bow_count),
    ("cnn.forward", "memesent.models.cnn", "cnn_forward", _rows_arg(1)),
    ("cnn.backward", "memesent.models.cnn", "cnn_backward", None),
    ("image.load_hsv_input", "memesent.models.image", "load_hsv_input", None),
    ("eval.macro_f1", "memesent.eval", "macro_f1", None),
    ("persist.save_container", "memesent.persist", "save_container", _save_count),
    ("persist.load_container", "memesent.persist", "load_container", None),
)

# (span name, module, class, method)
METHODS = (
    ("ffnn.w2v.fit", "memesent.models.ffnn", "Word2vecFfnnClassifier", "fit"),
    ("ffnn.w2v.predict_proba", "memesent.models.ffnn", "Word2vecFfnnClassifier", "predict_proba"),
    ("ffnn.bow.fit", "memesent.models.ffnn", "BowFfnnClassifier", "fit"),
    ("ffnn.bow.predict_proba", "memesent.models.ffnn", "BowFfnnClassifier", "predict_proba"),
    ("cnn.fit", "memesent.models.cnn", "HsvCnnClassifier", "fit"),
    ("fusion.fit", "memesent.models.fusion", "BimodalFusionClassifier", "fit"),
)


def install(tracer: Tracer) -> Patches:
    """Wrap every traced function and method of the imported program."""
    importlib.import_module("memesent.cli")  # binds every name we patch
    patches = Patches("memesent")
    try:
        for name, module, attr, count in FUNCTIONS:
            patches.function(
                importlib.import_module(module), attr,
                lambda fn, name=name, count=count: tracer.wrap(name, fn, count),
            )
        fusion = importlib.import_module("memesent.models.fusion")
        patches.function(
            fusion, "fusion_train",
            lambda fn: tracer.wrap("fusion.stacker", fn, _stacker_count(fn)),
        )
        patches.function(
            importlib.import_module("memesent.eval"), "stability_study",
            lambda fn: tracer.wrap("eval.stability_study", fn, wrap_args=_trace_seeds(tracer)),
        )
        for name, module, cls, attr in METHODS:
            patches.method(
                getattr(importlib.import_module(module), cls), attr,
                lambda fn, name=name: tracer.wrap(name, fn),
            )
    except BaseException:
        patches.restore()
        raise
    return patches


def _trace_seeds(tracer: Tracer):
    """Time each seed through the ``train_fn`` that stability_study gets."""

    def wrap_args(args, kwargs):
        if args:
            return (tracer.wrap("eval.seed", args[0]),) + tuple(args[1:]), kwargs
        kwargs = dict(kwargs, train_fn=tracer.wrap("eval.seed", kwargs["train_fn"]))
        return args, kwargs

    return wrap_args


# per-layer metric -> unit; every workload reports all of them
UNITS = {
    "textprep.preprocess.calls": "count",
    "textprep.preprocess.ms": "ms",
    "corpus.load_dataset.ms": "ms",
    "corpus.stratified_split.ms": "ms",
    "corpus.upsample.ms": "ms",
    "corpus.upsample.rows_out": "count",
    "embeddings.load.ms": "ms",
    "embeddings.load.words_scanned": "count",
    "embeddings.load.words_kept": "count",
    "embeddings.table_mb": "MB",
    "embeddings.embed_corpus.ms": "ms",
    "embeddings.embed_corpus.rows": "count",
    "embeddings.corpus_coverage.calls": "count",
    "embeddings.corpus_coverage.ms": "ms",
    "nn.train.self_ms": "ms",
    "nn.forward.ms": "ms",
    "nn.forward.calls": "count",
    "nn.forward.rows": "count",
    "nn.backward.ms": "ms",
    "nn.backward.calls": "count",
    "nn.adam_step.ms": "ms",
    "nn.adam_step.calls": "count",
    "nn.adam_step.params": "count",
    "nn.softmax_xent.ms": "ms",
    "ffnn.w2v.fit.ms": "ms",
    "ffnn.w2v.fit.self_ms": "ms",
    "ffnn.w2v.predict_proba.ms": "ms",
    "ffnn.bow.fit.ms": "ms",
    "ffnn.bow.fit.self_ms": "ms",
    "ffnn.bow.predict_proba.ms": "ms",
    "bow.bow_vectorize.calls": "count",
    "bow.bow_vectorize.ms": "ms",
    "bow.input_density": "fraction",
    "cnn.fit.calls": "count",
    "cnn.fit.ms": "ms",
    "cnn.forward.ms": "ms",
    "cnn.forward.rows": "count",
    "cnn.backward.ms": "ms",
    "cnn.adam_step.ms": "ms",
    "image.load_hsv_input.calls": "count",
    "image.load_hsv_input.ms": "ms",
    "fusion.stacker.ms": "ms",
    "fusion.stacker.updates": "count",
    "fusion.branch_fits": "count",
    "fusion.branch_fit.max_ms": "ms",
    "fusion.branch_fit.p50_ms": "ms",
    "eval.stability_study.ms": "ms",
    "eval.seed.p50_ms": "ms",
    "eval.seed.max_ms": "ms",
    "eval.macro_f1.ms": "ms",
    "persist.save_container.ms": "ms",
    "persist.save_container.bytes": "count",
    "persist.load_container.calls": "count",
    "persist.load_container.ms": "ms",
    "cli.self_ms": "ms",
    "share.nn_self": "fraction",
    "share.cnn_self": "fraction",
    "share.embeddings_load": "fraction",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
}

_BRANCH_FITS = ("ffnn.bow.fit", "cnn.fit")


def metrics(spans, wall_s: float, untraced_wall_s: float) -> dict[str, float]:
    """Every per-layer metric from one traced command's spans."""
    agg = aggregate(spans)
    empty = {"calls": 0, "ms": 0.0, "self_ms": 0.0, "counts": {}, "each_ms": []}

    def get(name):
        return agg.get(name, empty)

    out: dict[str, float] = {}
    for metric in UNITS:
        name, _, stat = metric.rpartition(".")
        entry = get(name)
        if stat in ("calls", "ms", "self_ms"):
            out[metric] = float(entry[stat])
        else:
            out[metric] = float(entry["counts"].get(stat, 0))

    load = get("embeddings.load")
    out["embeddings.table_mb"] = load["counts"].get("table_bytes", 0) / 2**20
    bow = get("bow.bow_vectorize")["counts"]
    out["bow.input_density"] = bow["nnz"] / bow["size"] if bow.get("size") else 0.0

    branch = [s.ns / 1e6 for s in spans if s.name in _BRANCH_FITS and s.parent == "fusion.fit"]
    out["fusion.branch_fits"] = float(len(branch))
    out["fusion.branch_fit.max_ms"] = max(branch, default=0.0)
    out["fusion.branch_fit.p50_ms"] = statistics.median(branch) if branch else 0.0
    seeds = get("eval.seed")["each_ms"]
    out["eval.seed.max_ms"] = max(seeds, default=0.0)
    out["eval.seed.p50_ms"] = statistics.median(seeds) if seeds else 0.0
    out["cli.self_ms"] = get("cli.main")["self_ms"]

    wall_ms = wall_s * 1e3
    out["share.nn_self"] = sum(a["self_ms"] for n, a in agg.items() if n.startswith("nn.")) / wall_ms
    out["share.cnn_self"] = sum(a["self_ms"] for n, a in agg.items() if n.startswith("cnn.")) / wall_ms
    out["share.embeddings_load"] = load["ms"] / wall_ms
    out["trace.wall_s"] = wall_s
    out["trace.overhead_s"] = wall_s - untraced_wall_s
    return out

"""Meme sentiment classification toolkit.

From-scratch pipeline for 3-way sentiment over meme captions and
images: CSV ingestion with stratified splitting and oversampling, text
preprocessing, Word2Vec embedding tables with mean pooling, a dense
softmax network trained by Adam, Naive Bayes and bag-of-words
baselines, a small CNN over HSV image tensors, late fusion of the text
and image branches, and a macro-F1 evaluation harness with seeded
stability studies. Everything is deterministic given one seed.
"""

from .base import Estimator
from .corpus import (
    ClassStats,
    CsvSchema,
    Dataset,
    MemeRecord,
    Sentiment,
    class_stats,
    load_dataset,
    normalize_label,
    save_dataset,
    stratified_split,
    upsample,
)
from .embeddings import (
    EmbeddingTable,
    corpus_coverage,
    embed_corpus,
    load_embeddings,
    load_word2vec_binary,
    load_word2vec_text,
    write_word2vec_binary,
    write_word2vec_text,
)
from .errors import (
    ConfigError,
    DataFormatError,
    MemesentError,
    NotFittedError,
    NumericError,
    TrainingError,
)
from .eval import (
    ComparisonTable,
    ConfusionMatrix,
    EvalReport,
    StabilityReport,
    compare_report,
    macro_f1,
    majority_baseline,
    stability_study,
)
from .nn import NetSpec, TrainConfig, grad_check, train
from .textprep import PrepConfig, lemmatize, preprocess
from . import models

__all__ = [
    "Estimator",
    "ClassStats",
    "CsvSchema",
    "Dataset",
    "MemeRecord",
    "Sentiment",
    "class_stats",
    "load_dataset",
    "normalize_label",
    "save_dataset",
    "stratified_split",
    "upsample",
    "EmbeddingTable",
    "corpus_coverage",
    "embed_corpus",
    "load_embeddings",
    "load_word2vec_binary",
    "load_word2vec_text",
    "write_word2vec_binary",
    "write_word2vec_text",
    "ConfigError",
    "DataFormatError",
    "MemesentError",
    "NotFittedError",
    "NumericError",
    "TrainingError",
    "ComparisonTable",
    "ConfusionMatrix",
    "EvalReport",
    "StabilityReport",
    "compare_report",
    "macro_f1",
    "majority_baseline",
    "stability_study",
    "NetSpec",
    "TrainConfig",
    "grad_check",
    "train",
    "PrepConfig",
    "lemmatize",
    "preprocess",
    "models",
]

__version__ = "0.1.0"

"""Feed-forward caption classifiers.

``MlpClassifier`` wraps the numeric core behind fit/predict on feature
matrices. It declares the four architecture parameters, which
``_net_params`` maps to and from a :class:`NetSpec` under the same
names, and inherits the five training parameters from
:class:`~memesent.base.AdamEstimator`. The caption classifiers are
featurizers in front of it: ``Word2vecFfnnClassifier`` mean-pools
embeddings of the preprocessed tokens, ``BowFfnnClassifier`` builds
bag-of-words presence vectors. They differ only in ``_features`` and in
the extra header fields they save; fit, predict and persistence are
shared. All use scaled initialization by default: the literal
standard-normal init saturates the 6-hidden-layer stack and does not
train at desk scale.
"""

from __future__ import annotations

import logging

import numpy as np

from ..base import (
    AdamEstimator,
    SavedModel,
    as_float_matrix,
    as_label_array,
    check_consistent_length,
    check_fitted,
)
from ..embeddings import EmbeddingTable, corpus_coverage, embed_corpus
from ..errors import DataFormatError
from ..nn import (
    DEFAULT_HIDDEN,
    MlpParams,
    NetSpec,
    TrainConfig,
    forward,
    softmax,
    train,
)
from ..textprep import PrepConfig, preprocess
from .bow import BowVocab, build_bow_vocab, bow_vectorize

__all__ = [
    "MlpClassifier",
    "Word2vecFfnnClassifier",
    "BowFfnnClassifier",
    "ffnn_w2v_train",
]

logger = logging.getLogger(__name__)


def _net_params(source) -> dict:
    """The parameters that a :class:`NetSpec` and an :class:`MlpClassifier`
    share, read from ``source`` (either of the two)."""
    return {name: getattr(source, name)
            for name in ("hidden", "activation", "init_mode", "init_sigma", "seed")}


class MlpClassifier(AdamEstimator):
    """Dense softmax classifier on ready-made feature rows."""

    def __init__(
        self,
        hidden: tuple[int, ...] = DEFAULT_HIDDEN,
        activation: str = "relu",
        init_mode: str = "scaled",
        init_sigma: float = 1.0,
        **train,
    ):
        self.hidden = hidden
        self.activation = activation
        self.init_mode = init_mode
        self.init_sigma = init_sigma
        super().__init__(**train)

    def _spec(self, input_dim: int) -> NetSpec:
        return NetSpec(input_dim=input_dim, **_net_params(self))

    def fit(self, X, y) -> "MlpClassifier":
        X = as_float_matrix(X)
        y = as_label_array(y)
        check_consistent_length(X, y)
        self.spec_ = self._spec(X.shape[1])
        self.params_, self.history_ = train(self.spec_, X, y, TrainConfig.of(self))
        return self

    def predict_proba(self, X) -> np.ndarray:
        check_fitted(self, "params_")
        X = as_float_matrix(X, n_features=self.spec_.input_dim)
        logits, _ = forward(self.params_, X, self.spec_.activation)
        return softmax(logits)


class _CaptionMlp(SavedModel, MlpClassifier):
    """preprocess -> ``_features`` -> :class:`MlpClassifier`.

    A subclass implements ``_features(captions, fitting)``, which may
    learn state when ``fitting``, and saves its extra header fields
    through ``_header()`` and ``_from_header(header, spec, path,
    *context)``; the latter returns the unfitted model to restore into.
    """

    def _prep(self) -> PrepConfig:
        return self.prep if self.prep is not None else PrepConfig()

    def fit(self, captions: list[str], y):
        return super().fit(self._features(captions, fitting=True), y)

    def predict_proba(self, captions: list[str]) -> np.ndarray:
        check_fitted(self, "params_")
        # the features are finite and as wide as the net by construction,
        # so MlpClassifier's input checks (a pass over every row) are skipped
        X = self._features(captions, fitting=False)
        return softmax(forward(self.params_, X, self.spec_.activation)[0])

    def _payload(self) -> tuple[dict, dict[str, np.ndarray]]:
        check_fitted(self, "params_")
        header = {
            "kind": self.KIND,
            "spec": self.spec_.to_dict(),
            "prep": self._prep().to_dict(),
            **self._header(),
        }
        return header, self.params_.arrays()

    @classmethod
    def saved_prep(cls, header: dict, path) -> PrepConfig:
        """The preprocessing recorded in a saved model's header."""
        with cls._reading(path):
            return PrepConfig.from_dict(header["prep"])

    @classmethod
    def _from_payload(cls, header, arrays, path, *context):
        spec = NetSpec.from_dict(header["spec"])
        model = cls._from_header(header, spec, path, *context)
        model.set_params(prep=cls.saved_prep(header, path), **_net_params(spec))
        model.spec_ = spec
        model.params_ = MlpParams.from_arrays(arrays, len(spec.widths) - 1, path)
        return model


class Word2vecFfnnClassifier(_CaptionMlp):
    """preprocess -> mean-pooled embeddings -> dense softmax classifier.

    The embedding table is a constructor argument and is not serialized
    with the model; ``save`` records the table's dimension so ``load`` can
    check that the caller supplies a compatible one.
    ``coverage_`` is the table's coverage of the training captions.
    """

    KIND = "ffnn-w2v"
    # bound in this class body too, where perfbench's trace looks for them
    fit = _CaptionMlp.fit
    predict_proba = _CaptionMlp.predict_proba

    def __init__(self, table: EmbeddingTable, prep: PrepConfig | None = None, **dense):
        self.table = table
        self.prep = prep
        super().__init__(**dense)

    def _features(self, captions: list[str], fitting: bool) -> np.ndarray:
        prep = self._prep()
        tokenized = [preprocess(c, prep) for c in captions]
        coverage = corpus_coverage(tokenized, self.table)
        logger.log(
            logging.WARNING if coverage.n_all_oov else logging.INFO,
            "embedded %d captions: %.1f%% token coverage; %d have no "
            "in-vocabulary tokens and embed as zero vectors",
            coverage.n_captions,
            100.0 * coverage.token_coverage,
            coverage.n_all_oov,
        )
        if fitting:
            self.coverage_ = coverage
        return embed_corpus(tokenized, self.table)

    def _header(self) -> dict:
        # the dimension alone: a path would make the bytes depend on its spelling
        return {"table": {"dim": self.table.dim}}

    @classmethod
    def _from_header(cls, header, spec, path, table: EmbeddingTable):
        if table.dim != spec.input_dim:
            raise DataFormatError(
                f"{path}: model expects {spec.input_dim}-dimensional embeddings, "
                f"table has dim {table.dim}"
            )
        return cls(table)


class BowFfnnClassifier(_CaptionMlp):
    """preprocess -> bag-of-words presence -> dense softmax classifier."""

    KIND = "ffnn-bow"
    # bound in this class body too, where perfbench's trace looks for them
    fit = _CaptionMlp.fit
    predict_proba = _CaptionMlp.predict_proba

    def __init__(self, prep: PrepConfig | None = None, vocab_size: int = 5000, **dense):
        self.prep = prep
        self.vocab_size = vocab_size
        super().__init__(**dense)

    def _features(self, captions: list[str], fitting: bool) -> np.ndarray:
        prep = self._prep()
        tokenized = [preprocess(c, prep) for c in captions]
        if fitting:
            self.vocab_ = build_bow_vocab(tokenized, self.vocab_size)
        if not tokenized:
            return np.zeros((0, len(self.vocab_)))
        return np.stack([bow_vectorize(tokens, self.vocab_) for tokens in tokenized])

    def _header(self) -> dict:
        return {"vocab": list(self.vocab_.words)}

    @classmethod
    def _from_header(cls, header, spec, path):
        model = cls(vocab_size=len(header["vocab"]))
        model.vocab_ = BowVocab(words=tuple(header["vocab"]))
        return model


def ffnn_w2v_train(
    captions: list[str],
    y,
    table: EmbeddingTable,
    spec: NetSpec | None = None,
    cfg: TrainConfig | None = None,
    prep: PrepConfig | None = None,
) -> Word2vecFfnnClassifier:
    """Functional front end over :class:`Word2vecFfnnClassifier`.

    ``cfg.seed`` drives both weight initialization and batch shuffling
    (they consume independent substreams of it); a seed carried by
    ``spec`` is superseded.
    """
    cfg = cfg if cfg is not None else TrainConfig()
    if spec is None:
        spec = NetSpec(input_dim=table.dim, init_mode="scaled")
    if spec.input_dim != table.dim:
        raise DataFormatError(
            f"network input width {spec.input_dim} does not match "
            f"embedding dim {table.dim}"
        )
    dense = {**_net_params(spec), **vars(cfg)}
    return Word2vecFfnnClassifier(table=table, prep=prep, **dense).fit(captions, y)

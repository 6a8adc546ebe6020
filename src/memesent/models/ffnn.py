"""Feed-forward caption classifiers.

``MlpClassifier`` wraps the numeric core behind fit/predict on feature
matrices. It declares the four architecture parameters, which
``_net_params`` maps to and from a :class:`NetSpec` under the same
names, and inherits the five training parameters from
:class:`~memesent.base.AdamEstimator`. The caption classifiers are
featurizers in front of it that take one token list per caption, the
output of the fixed pipeline ``memesent.textprep.preprocess``:
``Word2vecFfnnClassifier`` mean-pools the tokens' embeddings,
``BowFfnnClassifier`` builds bag-of-words presence vectors. They differ
only in ``_features`` and in the extra header fields they save; fit,
predict and persistence are shared. The header records the pipeline as
``prep``, and a file whose ``prep`` differs fails to load. All use
scaled initialization by default: the literal standard-normal init
saturates the 6-hidden-layer stack and does not train at desk scale.
The nets are float32, and so are their saved arrays; a float64 file is
cast down at load.
"""

from __future__ import annotations

import numpy as np

from ..base import (
    AdamEstimator,
    SavedModel,
    as_float_matrix,
    as_label_array,
    check_consistent_length,
    check_fitted,
    check_token_lists,
    checked_arrays,
)
from ..embeddings import EmbeddingTable, corpus_coverage, embed_corpus
from ..errors import DataFormatError
from ..nn import (
    DEFAULT_HIDDEN,
    NetSpec,
    TrainConfig,
    finite_logits,
    forward,
    param_shapes,
    softmax,
    train,
)
from ..textprep import prep_header
from .bow import BowVocab, build_bow_vocab, bow_vectorize

__all__ = [
    "MlpClassifier",
    "Word2vecFfnnClassifier",
    "BowFfnnClassifier",
]


def _proba(params: list[np.ndarray], X, activation: str) -> np.ndarray:
    """Softmax of the net's logits; :class:`NumericError` if they are not finite."""
    return softmax(finite_logits(lambda: forward(params, X, activation)[0]))


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
        X = as_float_matrix(X, finite_in=np.float32)
        y = as_label_array(y)
        check_consistent_length(X, y)
        self.spec_ = self._spec(X.shape[1])
        self.params_, self.history_ = train(self.spec_, X, y, TrainConfig.of(self))
        return self

    def predict_proba(self, X) -> np.ndarray:
        check_fitted(self, "params_")
        X = as_float_matrix(X, n_features=self.spec_.input_dim, finite_in=np.float32)
        return _proba(self.params_, X, self.spec_.activation)


class _CaptionMlp(SavedModel, MlpClassifier):
    """Token lists -> ``_features`` -> :class:`MlpClassifier`.

    A subclass implements ``_features(tokens, fitting)``, which may
    learn state when ``fitting``, and saves its extra header fields
    through ``_header()`` and ``_from_header(header, spec, path,
    *context)``; the latter returns the unfitted model to restore into.
    """

    def fit(self, tokens: list[list[str]], y):
        check_token_lists(tokens)
        return super().fit(self._features(tokens, fitting=True), y)

    def predict_proba(self, tokens: list[list[str]]) -> np.ndarray:
        check_fitted(self, "params_")
        check_token_lists(tokens)
        # the features are finite and as wide as the net by construction,
        # so MlpClassifier's input checks (a pass over every row) are skipped
        X = self._features(tokens, fitting=False)
        return _proba(self.params_, X, self.spec_.activation)

    def _payload(self) -> tuple[dict, dict[str, np.ndarray]]:
        check_fitted(self, "params_")
        header = {
            "kind": self.KIND,
            "spec": self.spec_.to_dict(),
            "prep": prep_header(),
            **self._header(),
        }
        return header, dict(zip(param_shapes(self.spec_), self.params_))

    @classmethod
    def saved_spec(cls, header, path) -> NetSpec:
        """The net spec of a saved header, checking first that its ``prep``
        is the fixed pipeline; a caller can check a header this way before
        it reads the context (the embedding table) that loading needs."""
        with cls._reading(path):
            if header["prep"] != prep_header():
                raise DataFormatError(f"{path}: saved with another preprocessing "
                                      "than the fixed pipeline")
            return NetSpec.from_dict(header["spec"])

    @classmethod
    def _from_payload(cls, header, arrays, path, *context):
        spec = cls.saved_spec(header, path)
        model = cls._from_header(header, spec, path, *context)
        model.set_params(**_net_params(spec))
        model.spec_ = spec
        model.params_ = checked_arrays(arrays, param_shapes(spec), path, dtype=np.float32)
        return model


class Word2vecFfnnClassifier(_CaptionMlp):
    """Token lists -> mean-pooled embeddings -> dense softmax classifier.

    The embedding table is a constructor argument and is not serialized
    with the model; ``save`` records the table's dimension so ``load`` can
    check that the caller supplies a compatible one.
    ``coverage_`` is the table's coverage of the training tokens.
    """

    KIND = "ffnn-w2v"
    # bound in this class body too, where perfbench's trace looks for them
    fit = _CaptionMlp.fit
    predict_proba = _CaptionMlp.predict_proba

    def __init__(self, table: EmbeddingTable, **dense):
        self.table = table
        super().__init__(**dense)

    def _features(self, tokens: list[list[str]], fitting: bool) -> np.ndarray:
        if fitting:
            self.coverage_ = corpus_coverage(tokens, self.table)
        return embed_corpus(tokens, self.table)

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
    """Token lists -> bag-of-words presence -> dense softmax classifier."""

    KIND = "ffnn-bow"
    # bound in this class body too, where perfbench's trace looks for them
    fit = _CaptionMlp.fit
    predict_proba = _CaptionMlp.predict_proba

    def __init__(self, vocab_size: int = 5000, **dense):
        self.vocab_size = vocab_size
        super().__init__(**dense)

    def _features(self, tokens: list[list[str]], fitting: bool) -> np.ndarray:
        if fitting:
            self.vocab_ = build_bow_vocab(tokens, self.vocab_size)
            if not len(self.vocab_):
                raise DataFormatError("no caption has a token left after preprocessing")
        if not tokens:
            return np.zeros((0, len(self.vocab_)))
        return np.stack([bow_vectorize(row, self.vocab_) for row in tokens])

    def _header(self) -> dict:
        return {"vocab": list(self.vocab_.words)}

    @classmethod
    def _from_header(cls, header, spec, path):
        if len(header["vocab"]) != spec.input_dim:
            raise DataFormatError(f"{path}: {len(header['vocab'])} vocabulary words "
                                  f"for a net of input width {spec.input_dim}")
        model = cls(vocab_size=len(header["vocab"]))
        model.vocab_ = BowVocab(words=tuple(header["vocab"]))
        return model


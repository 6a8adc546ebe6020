"""Feed-forward caption classifiers.

``_CaptionMlp`` is the dense softmax net behind fit/predict on one input
row per caption. It declares the four architecture parameters as
keyword-only fields, which ``_net_params`` maps to and from a
:class:`NetSpec` under the same names, and inherits the five training
parameters from :class:`~memesent.nn.TrainConfig`. Its subclasses
differ only in ``_features``, which checks their input and turns it into
the net's rows, and in the extra header fields they save:
``Word2vecFfnnClassifier`` takes the ``(n, dim)`` matrix of pooled
caption embeddings (:func:`~memesent.embeddings.embed_corpus`), checks
that it is 2-D and finite and casts it to float32; ``BowFfnnClassifier``
takes token lists, the output of the fixed pipeline
``memesent.textprep.preprocess``, and fills a float32 presence matrix
in place, one :func:`~memesent.models.bow.bow_vectorize` row at a time.
``predict_proba`` slices its input into blocks of rows and builds each
block's features (``nn.predict_blocks``), so its memory does not grow.
A prediction of 75 rows or fewer with the default net (400 or fewer with
a last hidden layer 32 or more wide) gets other bits than the same rows
in a larger batch: OpenBLAS's small-matrix kernel, which rounds
otherwise, takes such a layer. The header records the pipeline as
``prep``, and a file whose ``prep`` differs fails to load. Both use
scaled initialization by default: the literal standard-normal init
saturates the 6-hidden-layer stack and does not train at desk scale.
The nets are float32, and so are their saved arrays; a float64 file is
cast down at load.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..base import (
    Estimator,
    as_float_matrix,
    as_label_array,
    check_fitted,
    check_token_lists,
    checked_arrays,
)
from ..errors import DataFormatError
from ..nn import (
    DEFAULT_HIDDEN,
    NetSpec,
    TrainConfig,
    forward,
    param_shapes,
    predict_blocks,
    train,
)
from ..textprep import prep_header
from .bow import BowVocab, build_bow_vocab, bow_vectorize

__all__ = [
    "Word2vecFfnnClassifier",
    "BowFfnnClassifier",
]

# predict_proba's blocks hold _PREDICT_BLOCK to 2 * _PREDICT_BLOCK - 1 rows
# (or all, if fewer), never a short tail: OpenBLAS 0.3.31 takes its
# small-matrix kernel, which rounds otherwise, for up to 1,200 outputs.
_PREDICT_BLOCK = 1024


def _net_params(source) -> dict:
    """The parameters that a :class:`NetSpec` and a caption net share,
    read from ``source`` (either of the two)."""
    return {name: getattr(source, name)
            for name in ("hidden", "activation", "init_mode", "init_sigma", "seed")}


@dataclass(eq=False, kw_only=True)
class _CaptionMlp(Estimator, TrainConfig):
    """Caption rows -> ``_features`` -> dense softmax classifier.

    A subclass implements ``_features(X, fitting)``, which checks its
    input, or a slice of the input of ``predict_proba``, and may learn
    state when ``fitting``. It saves its extra header
    fields through ``_header()`` and ``_from_header(header, spec, path)``;
    the latter returns the unfitted model to restore into.
    """

    hidden: tuple[int, ...] = DEFAULT_HIDDEN
    activation: str = "relu"
    init_mode: str = "scaled"
    init_sigma: float = 1.0

    def fit(self, X, y):
        y = as_label_array(y)
        X = self._features(X, fitting=True)
        self.spec_ = NetSpec(input_dim=X.shape[1], **_net_params(self))
        self.params_, self.history_ = train(self.spec_, X, y, self)
        return self

    def predict_proba(self, X) -> np.ndarray:
        check_fitted(self, "params_")
        n = len(X)
        blocks = max(n // _PREDICT_BLOCK, 1)
        # a block's features live only as long as its forward pass
        return predict_blocks(lambda start, stop: forward(
            self.params_, self._features(X[start:stop], fitting=False), self.spec_.activation)[0],
            [i * n // blocks for i in range(blocks + 1)])

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
    def _from_payload(cls, header, arrays, path):
        if header["prep"] != prep_header():
            raise DataFormatError(f"{path}: saved with another preprocessing "
                                  "than the fixed pipeline")
        spec = NetSpec.from_dict(header["spec"])
        if spec.output_dim != 3:
            raise DataFormatError(f"{path}: a net of {spec.output_dim} outputs, not 3")
        model = cls._from_header(header, spec, path)
        model.set_params(**_net_params(spec))
        model.spec_ = spec
        model.params_ = checked_arrays(arrays, param_shapes(spec), path, dtype=np.float32)
        return model


@dataclass(eq=False)
class Word2vecFfnnClassifier(_CaptionMlp):
    """Mean-pooled caption embeddings -> dense softmax classifier.

    The embedding table is not serialized with the model; ``save``
    records its dimension, the net's input width, so that a caller can
    check a table against a saved model before it pools.
    """

    KIND = "ffnn-w2v"
    INPUTS = ("pooled",)
    # bound in this class body too, where perfbench's trace looks for them
    fit = _CaptionMlp.fit
    predict_proba = _CaptionMlp.predict_proba

    def _features(self, X, fitting: bool) -> np.ndarray:
        try:
            X = np.asarray(X)
        except ValueError:  # rows of unequal length, as token lists are
            X = None
        if X is None or X.dtype.kind not in "biuf":
            raise ValueError("expected an (n, dim) matrix of pooled caption embeddings; "
                             "tokenize captions with memesent.textprep.preprocess and "
                             "pool them with memesent.embeddings.embed_corpus")
        return as_float_matrix(X, None if fitting else self.spec_.input_dim,
                               dtype=np.float32)

    def _header(self) -> dict:
        # the dimension alone: a path would make the bytes depend on its spelling
        return {"table": {"dim": self.spec_.input_dim}}

    @classmethod
    def _from_header(cls, header, spec, path):
        return cls()


@dataclass(eq=False)
class BowFfnnClassifier(_CaptionMlp):
    """Token lists -> bag-of-words presence -> dense softmax classifier."""

    KIND = "ffnn-bow"
    INPUTS = ("tokens",)
    # bound in this class body too, where perfbench's trace looks for them
    fit = _CaptionMlp.fit
    predict_proba = _CaptionMlp.predict_proba

    vocab_size: int = 5000

    def _features(self, tokens: list[list[str]], fitting: bool) -> np.ndarray:
        check_token_lists(tokens)
        if fitting:
            self.vocab_ = build_bow_vocab(tokens, self.vocab_size)
            if not len(self.vocab_):
                raise DataFormatError("no caption has a token left after preprocessing")
        X = np.zeros((len(tokens), len(self.vocab_)), dtype=np.float32)
        for row, out in zip(tokens, X):
            bow_vectorize(row, self.vocab_, out=out)
        return X

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


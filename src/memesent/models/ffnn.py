"""Feed-forward caption classifiers.

``MlpClassifier`` wraps the numeric core behind fit/predict on feature
matrices. ``Word2vecFfnnClassifier`` composes preprocessing, mean-pooled
embeddings, and the dense network; ``BowFfnnClassifier`` swaps the
embedding front end for bag-of-words presence vectors. All three use
scaled initialization by default: the literal standard-normal init
saturates the 6-hidden-layer stack and does not train at desk scale.
"""

from __future__ import annotations

import logging

import numpy as np

from ..base import (
    Estimator,
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
from ..persist import load_container, save_container
from ..textprep import PrepConfig, preprocess
from .bow import BowVocab, build_bow_vocab, bow_vectorize

__all__ = [
    "MlpClassifier",
    "Word2vecFfnnClassifier",
    "BowFfnnClassifier",
    "ffnn_w2v_train",
    "ffnn_w2v_predict",
]

logger = logging.getLogger(__name__)


class MlpClassifier(Estimator):
    """Dense softmax classifier on ready-made feature rows."""

    def __init__(
        self,
        hidden: tuple[int, ...] = DEFAULT_HIDDEN,
        activation: str = "relu",
        init_mode: str = "scaled",
        init_sigma: float = 1.0,
        batch_size: int = 50,
        epochs: int = 10,
        lr: float = 1e-3,
        shuffle: bool = True,
        seed: int = 0,
    ):
        self.hidden = hidden
        self.activation = activation
        self.init_mode = init_mode
        self.init_sigma = init_sigma
        self.batch_size = batch_size
        self.epochs = epochs
        self.lr = lr
        self.shuffle = shuffle
        self.seed = seed

    def _spec(self, input_dim: int) -> NetSpec:
        return NetSpec(
            input_dim=input_dim,
            hidden=tuple(self.hidden),
            output_dim=3,
            activation=self.activation,
            seed=self.seed,
            init_sigma=self.init_sigma,
            init_mode=self.init_mode,
        )

    def _cfg(self) -> TrainConfig:
        return TrainConfig(
            batch_size=self.batch_size,
            epochs=self.epochs,
            lr=self.lr,
            seed=self.seed,
            shuffle=self.shuffle,
        )

    def fit(self, X, y) -> "MlpClassifier":
        X = as_float_matrix(X)
        y = as_label_array(y)
        check_consistent_length(X, y)
        self.spec_ = self._spec(X.shape[1])
        self.params_, self.history_ = train(self.spec_, X, y, self._cfg())
        return self

    def predict_proba(self, X) -> np.ndarray:
        check_fitted(self, "params_")
        X = as_float_matrix(X, n_features=self.spec_.input_dim)
        logits, _ = forward(self.params_, X, self.spec_.activation)
        return softmax(logits)

    def predict(self, X) -> np.ndarray:
        # argmax takes the first maximum, so ties go to the lower index
        return np.argmax(self.predict_proba(X), axis=1)


def _params_arrays(params: MlpParams) -> dict[str, np.ndarray]:
    out = {}
    for i, (W, b) in enumerate(zip(params.weights, params.biases)):
        out[f"W{i}"] = W
        out[f"b{i}"] = b
    return out


def _params_from_arrays(arrays: dict, n_layers: int, path) -> MlpParams:
    try:
        return MlpParams(
            weights=[arrays[f"W{i}"] for i in range(n_layers)],
            biases=[arrays[f"b{i}"] for i in range(n_layers)],
        )
    except KeyError as exc:
        raise DataFormatError(f"{path}: missing parameter array {exc}") from exc


class Word2vecFfnnClassifier(Estimator):
    """preprocess -> mean-pooled embeddings -> dense softmax classifier.

    The embedding table is a constructor argument and is not serialized
    with the model; ``save`` records the table's dimension and source so
    ``load`` can check that the caller supplies a compatible one.
    """

    def __init__(
        self,
        table: EmbeddingTable,
        prep: PrepConfig | None = None,
        hidden: tuple[int, ...] = DEFAULT_HIDDEN,
        activation: str = "relu",
        init_mode: str = "scaled",
        init_sigma: float = 1.0,
        batch_size: int = 50,
        epochs: int = 10,
        lr: float = 1e-3,
        shuffle: bool = True,
        seed: int = 0,
    ):
        self.table = table
        self.prep = prep
        self.hidden = hidden
        self.activation = activation
        self.init_mode = init_mode
        self.init_sigma = init_sigma
        self.batch_size = batch_size
        self.epochs = epochs
        self.lr = lr
        self.shuffle = shuffle
        self.seed = seed

    def _prep(self) -> PrepConfig:
        return self.prep if self.prep is not None else PrepConfig()

    def _mlp(self) -> MlpClassifier:
        return MlpClassifier(
            hidden=self.hidden,
            activation=self.activation,
            init_mode=self.init_mode,
            init_sigma=self.init_sigma,
            batch_size=self.batch_size,
            epochs=self.epochs,
            lr=self.lr,
            shuffle=self.shuffle,
            seed=self.seed,
        )

    def _embed(self, captions: list[str]) -> np.ndarray:
        prep = self._prep()
        tokenized = [preprocess(c, prep) for c in captions]
        self.coverage_ = corpus_coverage(tokenized, self.table)
        if self.coverage_.n_all_oov:
            logger.warning(
                "%d of %d captions have no in-vocabulary tokens; "
                "their embeddings are zero vectors",
                self.coverage_.n_all_oov,
                self.coverage_.n_captions,
            )
        return embed_corpus(tokenized, self.table)

    def fit(self, captions: list[str], y) -> "Word2vecFfnnClassifier":
        core = self._mlp().fit(self._embed(captions), y)
        self.spec_ = core.spec_
        self.params_ = core.params_
        self.history_ = core.history_
        return self

    def predict_proba(self, captions: list[str]) -> np.ndarray:
        check_fitted(self, "params_")
        logits, _ = forward(self.params_, self._embed(captions), self.spec_.activation)
        return softmax(logits)

    def predict(self, captions: list[str]) -> np.ndarray:
        return np.argmax(self.predict_proba(captions), axis=1)

    def save(self, path) -> None:
        check_fitted(self, "params_")
        save_container(
            path,
            {
                "kind": "ffnn-w2v",
                "spec": self.spec_.to_dict(),
                "prep": self._prep().to_dict(),
                "table": {"dim": self.table.dim, "source": self.table.source},
            },
            _params_arrays(self.params_),
        )

    @classmethod
    def load(cls, path, table: EmbeddingTable) -> "Word2vecFfnnClassifier":
        header, arrays = load_container(path)
        if header.get("kind") != "ffnn-w2v":
            raise DataFormatError(f"{path}: not an embedding-classifier file")
        return cls._from_payload(header, arrays, path, table)

    @classmethod
    def _from_payload(
        cls, header, arrays, path, table: EmbeddingTable
    ) -> "Word2vecFfnnClassifier":
        spec = NetSpec.from_dict(header["spec"])
        if table.dim != spec.input_dim:
            raise DataFormatError(
                f"{path}: model expects {spec.input_dim}-dimensional embeddings, "
                f"table has dim {table.dim}"
            )
        model = cls(
            table=table,
            prep=PrepConfig.from_dict(header["prep"]),
            hidden=spec.hidden,
            activation=spec.activation,
            init_mode=spec.init_mode,
            init_sigma=spec.init_sigma,
            seed=spec.seed,
        )
        model.spec_ = spec
        model.params_ = _params_from_arrays(arrays, len(spec.widths) - 1, path)
        return model


class BowFfnnClassifier(Estimator):
    """preprocess -> bag-of-words presence -> dense softmax classifier."""

    def __init__(
        self,
        prep: PrepConfig | None = None,
        vocab_size: int = 5000,
        hidden: tuple[int, ...] = DEFAULT_HIDDEN,
        activation: str = "relu",
        init_mode: str = "scaled",
        init_sigma: float = 1.0,
        batch_size: int = 50,
        epochs: int = 10,
        lr: float = 1e-3,
        shuffle: bool = True,
        seed: int = 0,
    ):
        self.prep = prep
        self.vocab_size = vocab_size
        self.hidden = hidden
        self.activation = activation
        self.init_mode = init_mode
        self.init_sigma = init_sigma
        self.batch_size = batch_size
        self.epochs = epochs
        self.lr = lr
        self.shuffle = shuffle
        self.seed = seed

    def _prep(self) -> PrepConfig:
        return self.prep if self.prep is not None else PrepConfig()

    def _vectors(self, captions: list[str], vocab: BowVocab) -> np.ndarray:
        prep = self._prep()
        return np.stack(
            [bow_vectorize(preprocess(c, prep), vocab) for c in captions]
        ) if captions else np.zeros((0, len(vocab)))

    def fit(self, captions: list[str], y) -> "BowFfnnClassifier":
        prep = self._prep()
        tokenized = [preprocess(c, prep) for c in captions]
        self.vocab_ = build_bow_vocab(tokenized, self.vocab_size)
        core = MlpClassifier(
            hidden=self.hidden,
            activation=self.activation,
            init_mode=self.init_mode,
            init_sigma=self.init_sigma,
            batch_size=self.batch_size,
            epochs=self.epochs,
            lr=self.lr,
            shuffle=self.shuffle,
            seed=self.seed,
        ).fit(self._vectors(captions, self.vocab_), y)
        self.spec_ = core.spec_
        self.params_ = core.params_
        self.history_ = core.history_
        return self

    def predict_proba(self, captions: list[str]) -> np.ndarray:
        check_fitted(self, "params_")
        X = self._vectors(captions, self.vocab_)
        logits, _ = forward(self.params_, X, self.spec_.activation)
        return softmax(logits)

    def predict(self, captions: list[str]) -> np.ndarray:
        return np.argmax(self.predict_proba(captions), axis=1)

    def _payload(self) -> tuple[dict, dict[str, np.ndarray]]:
        check_fitted(self, "params_")
        header = {
            "kind": "ffnn-bow",
            "spec": self.spec_.to_dict(),
            "prep": self._prep().to_dict(),
            "vocab": list(self.vocab_.words),
        }
        return header, _params_arrays(self.params_)

    def save(self, path) -> None:
        header, arrays = self._payload()
        save_container(path, header, arrays)

    @classmethod
    def load(cls, path) -> "BowFfnnClassifier":
        header, arrays = load_container(path)
        if header.get("kind") != "ffnn-bow":
            raise DataFormatError(f"{path}: not a bag-of-words classifier file")
        return cls._from_payload(header, arrays, path)

    @classmethod
    def _from_payload(cls, header, arrays, path) -> "BowFfnnClassifier":
        spec = NetSpec.from_dict(header["spec"])
        model = cls(
            prep=PrepConfig.from_dict(header["prep"]),
            vocab_size=len(header["vocab"]),
            hidden=spec.hidden,
            activation=spec.activation,
            init_mode=spec.init_mode,
            init_sigma=spec.init_sigma,
            seed=spec.seed,
        )
        model.vocab_ = BowVocab(words=tuple(header["vocab"]))
        model.spec_ = spec
        model.params_ = _params_from_arrays(arrays, len(spec.widths) - 1, path)
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
    model = Word2vecFfnnClassifier(
        table=table,
        prep=prep,
        hidden=spec.hidden,
        activation=spec.activation,
        init_mode=spec.init_mode,
        init_sigma=spec.init_sigma,
        batch_size=cfg.batch_size,
        epochs=cfg.epochs,
        lr=cfg.lr,
        shuffle=cfg.shuffle,
        seed=cfg.seed,
    )
    return model.fit(captions, y)


def ffnn_w2v_predict(model: Word2vecFfnnClassifier, caption: str) -> np.ndarray:
    """Class-probability row for one raw caption."""
    return model.predict_proba([caption])[0]

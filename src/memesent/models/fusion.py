"""Late fusion of the text and image branches.

Each branch emits a 3-class probability row; the two rows are
concatenated into a 6-component feature vector and a linear one-vs-rest
hinge-loss classifier (the stacker) picks the final label. The stacker
is trained by seeded per-sample subgradient descent with L2
regularization on the weights (biases unregularized). By default the
branch probabilities fed to stacker training come from out-of-fold
prediction, so the stacker never sees branch outputs on rows those
branches were trained on; in-sample features are available behind an
explicit flag.

The three one-vs-rest problems share nothing but the order of visits,
so :func:`fusion_train` fits them one after another, each as a loop
over Python floats with its six weights and bias held in locals, and
draws the same seeded visit order again for each. A margin is the six
products summed left to right, then the bias. Stacker scores that are
not finite raise :class:`~memesent.errors.NumericError`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..base import (
    Estimator,
    SavedModel,
    as_label_array,
    check_fitted,
    check_prob_rows,
    checked_arrays,
)
from ..errors import DataFormatError
from ..eval import parallel_map
from ..nn import finite_logits, softmax
from ..rng import substream
from .cnn import HsvCnnClassifier, _check_tensors
from .ffnn import BowFfnnClassifier

__all__ = [
    "FusionStacker",
    "fusion_train",
    "BimodalFusionClassifier",
]

_FEATURES = 6  # two concatenated 3-class probability rows


@dataclass(frozen=True)
class FusionStacker:
    """Linear one-vs-rest scorer over [text probs | image probs]."""

    weights: np.ndarray  # (3, 6)
    biases: np.ndarray  # (3,)

    def __post_init__(self):
        W = np.asarray(self.weights, dtype=np.float64)
        b = np.asarray(self.biases, dtype=np.float64)
        if W.shape != (3, _FEATURES) or b.shape != (3,):
            raise ValueError(
                f"stacker needs (3, {_FEATURES}) weights and (3,) biases, "
                f"got {W.shape} and {b.shape}"
            )
        object.__setattr__(self, "weights", W)
        object.__setattr__(self, "biases", b)

    def scores(self, X: np.ndarray) -> np.ndarray:
        """Per-class margins for (n, 6) feature rows."""
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2 or X.shape[1] != _FEATURES:
            raise ValueError(f"expected (n, {_FEATURES}) features, got {X.shape}")
        return finite_logits(lambda: X @ self.weights.T + self.biases, "the stacker's scores")


def _stack_features(text_probs, image_probs) -> np.ndarray:
    text = check_prob_rows(np.asarray(text_probs, dtype=np.float64))
    image = check_prob_rows(np.asarray(image_probs, dtype=np.float64))
    if len(text) != len(image):
        raise ValueError(
            f"text and image branches disagree on row count: "
            f"{len(text)} vs {len(image)}"
        )
    return np.hstack([text, image])


def _check_stacker(lam: float, lr: float, epochs: int) -> None:
    if not (0 <= lam < np.inf and 0 < lr < np.inf and epochs > 0):
        raise ValueError(f"the stacker needs a finite lam >= 0, a finite lr > 0 and "
                         f"epochs > 0, got lam={lam}, lr={lr}, epochs={epochs}")


def _fit_class(rows, targets, steps, shrink, orders):
    """One class's hinge problem: weights and bias after visiting ``rows``
    (6-float lists) in each order of ``orders``. ``targets`` are +-1.0 and
    ``steps`` lr * target, per row. Every visit shrinks the weights; an
    active margin (< 1) adds the step times the row, and the step to the
    bias."""
    w0 = w1 = w2 = w3 = w4 = w5 = b = 0.0
    for order in orders:
        for i in order:
            x0, x1, x2, x3, x4, x5 = rows[i]
            if targets[i] * (w0 * x0 + w1 * x1 + w2 * x2 + w3 * x3 + w4 * x4 + w5 * x5
                             + b) < 1.0:
                s = steps[i]
                w0, w1, w2 = w0 * shrink + s * x0, w1 * shrink + s * x1, w2 * shrink + s * x2
                w3, w4, w5 = w3 * shrink + s * x3, w4 * shrink + s * x4, w5 * shrink + s * x5
                b += s
            else:
                w0, w1, w2 = w0 * shrink, w1 * shrink, w2 * shrink
                w3, w4, w5 = w3 * shrink, w4 * shrink, w5 * shrink
    return [w0, w1, w2, w3, w4, w5], b


def fusion_train(
    text_probs,
    image_probs,
    labels,
    lam: float = 1e-3,
    epochs: int = 200,
    lr: float = 0.1,
    seed: int = 0,
) -> FusionStacker:
    """Fit the stacker on aligned branch-probability rows.

    One hinge problem per class (targets +1/-1), each visiting the rows
    in the same seeded order, a new permutation per epoch: the
    regularizer shrinks the weights every visit and an active margin
    (< 1) adds the signed feature row.
    """
    X = _stack_features(text_probs, image_probs)
    y = as_label_array(labels)
    if len(y) != len(X):
        raise ValueError(
            f"labels disagree on row count: {len(y)} vs {len(X)}"
        )
    if len(X) == 0:
        raise ValueError("cannot fit a stacker on zero rows")
    _check_stacker(lam, lr, epochs)
    rows = X.tolist()
    shrink = 1.0 - 2.0 * lr * lam
    W = np.zeros((3, _FEATURES))
    b = np.zeros(3)
    for c in range(3):
        T = np.where(y == c, 1.0, -1.0)
        # the orders again for each class, drawn as needed, not kept
        rng = substream(seed, "stacker")
        orders = (rng.permutation(len(X)).tolist() for _ in range(epochs))
        W[c], b[c] = _fit_class(rows, T.tolist(), (lr * T).tolist(), shrink, orders)
    return FusionStacker(weights=W, biases=b)


@dataclass(eq=False)
class BimodalFusionClassifier(SavedModel, Estimator):
    """Text branch + image branch + stacker, as one estimator.

    ``fit`` takes parallel token lists (one per caption, the output of
    ``memesent.textprep.preprocess``), HSV tensors, and labels. With
    ``in_sample=False`` (default) the stacker trains on out-of-fold
    branch predictions: rows are split into ``folds`` seeded folds and
    each row's features come from branches trained without it. The
    final branch models are always refit on all rows. That full-data
    fit and the fold rounds are independent, each seeded on its own, and
    run through :func:`~memesent.eval.parallel_map` in up to ``fit``'s
    ``workers`` forked processes (1 by default). The count is an argument
    of ``fit``, not a parameter, and is not saved: the model is the same,
    bit for bit, at any count.
    """

    KIND = "fusion-bimodal"

    text: BowFfnnClassifier | None = None
    image: HsvCnnClassifier | None = None
    folds: int = 5
    in_sample: bool = False
    lam: float = 1e-3
    stacker_epochs: int = 200
    stacker_lr: float = 0.1
    seed: int = 0

    @staticmethod
    def _clone(est):
        return type(est)(**est.get_params())

    def fit(self, tokens: list, tensors, y, workers: int = 1) -> "BimodalFusionClassifier":
        tensors = _check_tensors(tensors)
        y = as_label_array(y)
        tokens = list(tokens)
        if not (len(tokens) == len(tensors) == len(y)):
            raise ValueError(
                f"token lists, tensors, and labels disagree on row count: "
                f"{len(tokens)}, {len(tensors)}, {len(y)}"
            )
        _check_stacker(self.lam, self.stacker_lr, self.stacker_epochs)
        if not self.in_sample and self.folds < 2:
            raise ValueError("out-of-fold features need folds >= 2")
        if not self.in_sample and len(y) < self.folds:
            raise ValueError(
                f"need at least {self.folds} rows for {self.folds}-fold "
                f"out-of-fold features, got {len(y)}"
            )
        text = self.text if self.text is not None else BowFfnnClassifier(seed=self.seed)
        image = self.image if self.image is not None else HsvCnnClassifier(seed=self.seed)
        n = len(y)
        chunks = [] if self.in_sample else np.array_split(
            substream(self.seed, "oof").permutation(n), self.folds
        )

        def fit_round(k):
            """Round 0: both branches fit on all rows. Round k: fold k's
            probability rows from branches fit on the other folds."""
            if k == 0:
                return self._clone(text).fit(tokens, y), self._clone(image).fit(tensors, y)
            chunk = chunks[k - 1]
            held = np.zeros(n, dtype=bool)
            held[chunk] = True
            rest = np.flatnonzero(~held)
            fold_text = self._clone(text).fit([tokens[i] for i in rest], y[rest])
            fold_image = self._clone(image).fit(tensors[rest], y[rest])
            return (fold_text.predict_proba([tokens[i] for i in chunk]),
                    fold_image.predict_proba(tensors[chunk]))

        (self.text_, self.image_), *folds = parallel_map(
            fit_round, range(len(chunks) + 1), workers,
            label=lambda k: f"fold {k}" if k else "the full-data fit",
        )
        if self.in_sample:
            text_probs = self.text_.predict_proba(tokens)
            image_probs = self.image_.predict_proba(tensors)
        else:
            text_probs = np.zeros((n, 3))
            image_probs = np.zeros((n, 3))
            for chunk, (fold_text, fold_image) in zip(chunks, folds):
                text_probs[chunk] = fold_text
                image_probs[chunk] = fold_image
        self.stacker_ = fusion_train(
            text_probs,
            image_probs,
            y,
            lam=self.lam,
            epochs=self.stacker_epochs,
            lr=self.stacker_lr,
            seed=self.seed,
        )
        return self

    def predict_proba(self, tokens, tensors) -> np.ndarray:
        """Softmax over stacker scores.

        Hinge scores are margins, not calibrated log-odds; the softmax
        is a rank-preserving squash so downstream reporting can treat
        every model uniformly.
        """
        check_fitted(self, "stacker_")
        X = _stack_features(
            self.text_.predict_proba(list(tokens)),
            self.image_.predict_proba(tensors),
        )
        return softmax(self.stacker_.scores(X))

    def _payload(self) -> tuple[dict, dict[str, np.ndarray]]:
        check_fitted(self, "stacker_")
        header = {k: v for k, v in self.get_params().items() if k not in ("text", "image")}
        header["kind"] = self.KIND
        arrays = {"stacker_W": self.stacker_.weights, "stacker_b": self.stacker_.biases}
        for branch, fitted in (("text", self.text_), ("image", self.image_)):
            header[branch], branch_arrays = fitted._payload()
            arrays.update({f"{branch}.{k}": v for k, v in branch_arrays.items()})
        return header, arrays

    @classmethod
    def _from_payload(cls, header, arrays, path) -> "BimodalFusionClassifier":
        # every parameter but the branches, as saved, in its default's type
        model = cls(**{name: type(default)(header[name])
                       for name, default in cls().get_params().items()
                       if default is not None})
        for branch, branch_cls in (("text", BowFfnnClassifier), ("image", HsvCnnClassifier)):
            if header[branch].get("kind") != branch_cls.KIND:
                raise DataFormatError(
                    f"{path}: unsupported {branch} branch {header[branch].get('kind')!r}"
                )
            prefix = branch + "."
            branch_arrays = {
                k[len(prefix):]: v for k, v in arrays.items() if k.startswith(prefix)
            }
            setattr(model, branch + "_",
                    branch_cls._from_payload(header[branch], branch_arrays, path))
        model.stacker_ = FusionStacker(*checked_arrays(
            arrays, {"stacker_W": (3, _FEATURES), "stacker_b": (3,)}, path))
        return model

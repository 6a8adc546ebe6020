"""Small convolutional classifier over 32x32x3 HSV tensors.

Fixed architecture: conv 3x3x8 -> ReLU -> 2x2 max-pool -> conv 3x3x16
-> ReLU -> 2x2 max-pool -> flatten -> dense 64 (ReLU) -> dense 3. All
convolutions are valid (no padding), pooling uses stride 2 and drops an
odd trailing row/column, and max-pool ties resolve to the first element
in window order so gradients are deterministic. Training is the dense
core's loop (``nn.fit_adam``: loss, Adam, seeded shuffling) and the
gradient check its checker (``nn.check_gradients``).

Convolutions are im2col GEMMs (Chellapilla, Puri & Simard 2006): the
input's 3x3 patches are copied once into a patch matrix, which is
multiplied by the kernel reshaped to (out channels, C*3*3). The forward
pass keeps the patch matrices for the backward pass, where the kernel
gradient is a GEMM against them per sample, summed over the batch, and
the input gradient a GEMM followed by a col2im scatter-add, one strided
add per kernel offset. The first layer's input gradient is not
computed. Prediction runs the forward pass in blocks of
``_PREDICT_BLOCK`` rows, so its memory does not grow with the number of
rows. Training passes a :class:`Workspace`, so every step reuses the
first step's patch matrices, activations and pooling buffers instead of
allocating them again.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from ..base import (
    Estimator,
    SavedModel,
    as_label_array,
    check_consistent_length,
    check_fitted,
)
from ..errors import DataFormatError
from ..nn import TrainConfig, check_gradients, fit_adam, softmax, softmax_xent
from ..nn import adam_step  # noqa: F401 - perfbench's span test reads it here
from ..rng import substream
from .image import IMAGE_SIZE

__all__ = ["CnnParams", "HsvCnnClassifier", "cnn_grad_check"]

_CONV1 = (8, 3, 3, 3)  # out channels, in channels, kernel h, kernel w
_CONV2 = (16, 8, 3, 3)
_FLAT = 16 * 6 * 6  # after two conv+pool stages on 32x32 input
_DENSE = 64
_CLASSES = 3
# Rows per forward pass in predict_proba. A pass holds about 0.5 MB per
# row, most of it conv1's patch matrix (27/8 the size of conv1's output),
# so prediction memory does not grow with the number of rows.
_PREDICT_BLOCK = 32


@dataclass
class CnnParams:
    K1: np.ndarray
    b1: np.ndarray
    K2: np.ndarray
    b2: np.ndarray
    W3: np.ndarray
    b3: np.ndarray
    W4: np.ndarray
    b4: np.ndarray

    def flat(self) -> list[np.ndarray]:
        return [getattr(self, f.name) for f in fields(self)]

    @classmethod
    def from_flat(cls, arrays: list[np.ndarray]) -> "CnnParams":
        return cls(*arrays)


def init_cnn_params(seed: int) -> CnnParams:
    """Seeded scaled-normal weights (sigma = 1/sqrt(fan_in)), zero biases."""
    rng = substream(seed, "init")

    def draw(shape, fan_in):
        return rng.standard_normal(shape) / np.sqrt(fan_in)

    return CnnParams(
        K1=draw(_CONV1, 3 * 3 * 3),
        b1=np.zeros(_CONV1[0]),
        K2=draw(_CONV2, 8 * 3 * 3),
        b2=np.zeros(_CONV2[0]),
        W3=draw((_DENSE, _FLAT), _FLAT),
        b3=np.zeros(_DENSE),
        W4=draw((_CLASSES, _DENSE), _DENSE),
        b4=np.zeros(_CLASSES),
    )


def _fresh(name, shape):
    """A new float64 array for an intermediate; see :class:`Workspace`."""
    return np.empty(shape)


class Workspace:
    """The intermediates of a training step, kept for the next step.

    Called like :func:`_fresh`: returns the first ``shape[0]`` rows of
    the array of that name, made on first use, so every step of a fit
    (the short last batch too) works in the same memory. Fresh arrays
    of these sizes (3.1 MB for conv1's patch matrix at batch 16, about
    10 MB in all) let the C heap shrink back at the end of each step and
    fault its pages in again on the next one.
    """

    def __init__(self):
        self._arrays: dict[str, np.ndarray] = {}

    def __call__(self, name, shape):
        arr = self._arrays.get(name)
        if arr is None or len(arr) < shape[0] or arr.shape[1:] != tuple(shape[1:]):
            arr = self._arrays[name] = np.empty(shape)
        return arr[: shape[0]]


def _im2col(X, kh, kw, new=_fresh, tag=""):
    """Patch matrix of a valid kh x kw convolution: (n, C*kh*kw, OH*OW).

    Rows run in ``(c, u, v)`` order, the order of ``K.reshape(OC, -1)``;
    columns are output pixels in row-major order, so the product with
    the reshaped kernel is already channel-first.
    """
    n, C = X.shape[:2]
    win = sliding_window_view(X, (kh, kw), axis=(2, 3))  # (n, C, OH, OW, kh, kw)
    OH, OW = win.shape[2:4]
    patches = win.transpose(0, 1, 4, 5, 2, 3)
    cols = new("cols" + tag, (n, C * kh * kw, OH * OW))
    cols.reshape(patches.shape)[...] = patches
    return cols


def _conv_gemm(cols, K, b, in_shape, new=_fresh, tag=""):
    """Valid convolution from the input's patch matrix ``cols``."""
    n, _, H, W = in_shape
    OC, _, kh, kw = K.shape
    out = np.matmul(K.reshape(OC, -1), cols, out=new("z" + tag, (n, OC, cols.shape[2])))
    out += b[:, None]
    return out.reshape(n, OC, H - kh + 1, W - kw + 1)


def _conv_forward(X, K, b):
    """Valid convolution; X (n, C, H, W), K (OC, C, kh, kw)."""
    return _conv_gemm(_im2col(X, K.shape[2], K.shape[3]), K, b, X.shape)


def _conv_backward(dout, cols, K, in_shape=None, new=_fresh, tag=""):
    """Gradients of a valid convolution, given its input's patch matrix.

    Returns ``(dX, dK, db)``. ``dX`` is computed only when ``in_shape``
    is given, and is None otherwise (the first layer needs none): a GEMM
    gives the patch gradients, which col2im folds back onto the input
    with one strided add per kernel offset.
    """
    n, OC, OH, OW = dout.shape
    d2 = dout.reshape(n, OC, OH * OW)
    # per-sample GEMMs summed over the batch: a single (OC, n*P) x
    # (n*P, C*kh*kw) GEMM needs two transposed copies and measured slower
    dK = np.matmul(d2, cols.transpose(0, 2, 1)).sum(axis=0).reshape(K.shape)
    db = d2.sum(axis=(0, 2))
    if in_shape is None:
        return None, dK, db
    _, C, kh, kw = K.shape
    dcols = np.matmul(K.reshape(OC, -1).T, d2, out=new("dcols" + tag, cols.shape))
    dcols = dcols.reshape(n, C, kh, kw, OH, OW)
    dX = new("dX" + tag, in_shape)
    dX.fill(0.0)
    for u in range(kh):
        for v in range(kw):
            dX[:, :, u : u + OH, v : v + OW] += dcols[:, :, u, v]
    return dX, dK, db


def _pool_forward(X, new=_fresh, tag=""):
    """2x2 stride-2 max pool; returns (out, winner index per window)."""
    n, C, H, W = X.shape
    OH, OW = H // 2, W // 2
    win = new("win" + tag, (n, C, OH, OW, 4))
    win.reshape(n, C, OH, OW, 2, 2)[...] = (
        X[:, :, : OH * 2, : OW * 2]
        .reshape(n, C, OH, 2, OW, 2)
        .transpose(0, 1, 2, 4, 3, 5)
    )
    idx = win.argmax(axis=-1)  # first maximum wins ties
    out = np.take_along_axis(win, idx[..., None], axis=-1)[..., 0]
    return out, idx


def _pool_backward(dout, idx, in_shape, new=_fresh, tag=""):
    n, C, H, W = in_shape
    OH, OW = H // 2, W // 2
    dwin = new("dwin" + tag, (n, C, OH, OW, 4))
    dwin.fill(0.0)
    np.put_along_axis(dwin, idx[..., None], dout[..., None], axis=-1)
    dX = new("dpool" + tag, in_shape)
    dX.fill(0.0)
    for k, (u, v) in enumerate(((0, 0), (0, 1), (1, 0), (1, 1))):
        dX[:, :, u : OH * 2 : 2, v : OW * 2 : 2] = dwin[..., k]
    return dX


def _check_tensors(T) -> np.ndarray:
    T = np.asarray(T, dtype=np.float64)
    if T.ndim != 4 or T.shape[1:] != (IMAGE_SIZE, IMAGE_SIZE, 3):
        raise ValueError(
            f"expected (n, {IMAGE_SIZE}, {IMAGE_SIZE}, 3) tensors, got {T.shape}"
        )
    if not np.all(np.isfinite(T)):
        raise ValueError("image tensors contain non-finite values")
    return T


def cnn_forward(
    params: CnnParams, T: np.ndarray, new=_fresh
) -> tuple[np.ndarray, dict]:
    """Logits for a batch of HSV tensors plus the backward cache.

    ``new`` makes the large intermediates; pass a :class:`Workspace` to
    reuse them across calls (the cache then refers to its arrays).
    """
    T = _check_tensors(T)
    X = T.transpose(0, 3, 1, 2)  # to channel-first
    cols1 = _im2col(X, _CONV1[2], _CONV1[3], new, "1")
    z1 = _conv_gemm(cols1, params.K1, params.b1, X.shape, new, "1")
    a1 = np.maximum(z1, 0.0, out=new("a1", z1.shape))
    p1, idx1 = _pool_forward(a1, new, "1")
    cols2 = _im2col(p1, _CONV2[2], _CONV2[3], new, "2")
    z2 = _conv_gemm(cols2, params.K2, params.b2, p1.shape, new, "2")
    a2 = np.maximum(z2, 0.0, out=new("a2", z2.shape))
    p2, idx2 = _pool_forward(a2, new, "2")
    flat = p2.reshape(len(T), -1)
    z3 = flat @ params.W3.T + params.b3
    a3 = np.maximum(z3, 0.0)
    logits = a3 @ params.W4.T + params.b4
    cache = dict(cols1=cols1, z1=z1, a1=a1, idx1=idx1, p1=p1, cols2=cols2,
                 z2=z2, a2=a2, idx2=idx2, p2=p2, flat=flat, z3=z3, a3=a3)
    return logits, cache


def cnn_backward(
    params: CnnParams, cache: dict, dlogits: np.ndarray, new=_fresh
) -> CnnParams:
    """Gradients for the cached pass; ``new`` as in :func:`cnn_forward`."""
    dW4 = dlogits.T @ cache["a3"]
    db4 = dlogits.sum(axis=0)
    da3 = dlogits @ params.W4
    dz3 = da3 * (cache["z3"] > 0.0)
    dW3 = dz3.T @ cache["flat"]
    db3 = dz3.sum(axis=0)
    dflat = dz3 @ params.W3
    dp2 = dflat.reshape(cache["p2"].shape)
    dz2 = _pool_backward(dp2, cache["idx2"], cache["a2"].shape, new, "2")
    dz2 *= cache["z2"] > 0.0
    dp1, dK2, db2 = _conv_backward(dz2, cache["cols2"], params.K2,
                                   cache["p1"].shape, new, "2")
    dz1 = _pool_backward(dp1, cache["idx1"], cache["a1"].shape, new, "1")
    dz1 *= cache["z1"] > 0.0
    _, dK1, db1 = _conv_backward(dz1, cache["cols1"], params.K1)
    return CnnParams(K1=dK1, b1=db1, K2=dK2, b2=db2,
                     W3=dW3, b3=db3, W4=dW4, b4=db4)


def cnn_grad_check(
    params: CnnParams,
    T: np.ndarray,
    y: np.ndarray,
    eps: float = 1e-5,
    max_per_tensor: int = 40,
    seed: int = 0,
    min_grad: float = 1e-5,
) -> float:
    """``nn.check_gradients`` for the CNN at ``params`` on the batch
    (T, y); the pattern is every ReLU's on/off state and every pooling
    winner."""
    y = as_label_array(y)
    logits, cache = cnn_forward(params, T)
    _, dlogits = softmax_xent(logits, y)
    grads = cnn_backward(params, cache, dlogits)

    def loss_and_pattern():
        logits, cache = cnn_forward(params, T)
        loss, _ = softmax_xent(logits, y)
        relus = [(cache[z] > 0.0).tobytes() for z in ("z1", "z2", "z3")]
        return loss, (*relus, cache["idx1"].tobytes(), cache["idx2"].tobytes())

    return check_gradients(params.flat(), grads.flat(), loss_and_pattern,
                           eps, max_per_tensor, seed, min_grad)


class HsvCnnClassifier(SavedModel, Estimator):
    """Softmax CNN on (n, 32, 32, 3) HSV tensors."""

    KIND = "cnn-hsv"

    def __init__(
        self,
        batch_size: int = 50,
        epochs: int = 10,
        lr: float = 1e-3,
        shuffle: bool = True,
        seed: int = 0,
    ):
        self.batch_size = batch_size
        self.epochs = epochs
        self.lr = lr
        self.shuffle = shuffle
        self.seed = seed

    def fit(self, T, y) -> "HsvCnnClassifier":
        T = _check_tensors(T)
        y = as_label_array(y)
        n = check_consistent_length(T, y)

        workspace = Workspace()

        def loss_and_grad(flat, batch):
            params = CnnParams.from_flat(flat)
            logits, cache = cnn_forward(params, T[batch], workspace)
            loss, dlogits = softmax_xent(logits, y[batch])
            return loss, cnn_backward(params, cache, dlogits, workspace).flat()

        flat, self.history_ = fit_adam(init_cnn_params(self.seed).flat(),
                                       loss_and_grad, n, TrainConfig.of(self))
        self.params_ = CnnParams.from_flat(flat)
        return self

    def predict_proba(self, T) -> np.ndarray:
        check_fitted(self, "params_")
        T = _check_tensors(T)
        probs = np.empty((len(T), _CLASSES))
        for start in range(0, len(T), _PREDICT_BLOCK):
            # [0] drops the backward cache before the next block is built
            logits = cnn_forward(self.params_, T[start : start + _PREDICT_BLOCK])[0]
            probs[start : start + _PREDICT_BLOCK] = softmax(logits)
        return probs

    def _payload(self) -> tuple[dict, dict[str, np.ndarray]]:
        check_fitted(self, "params_")
        arrays = {f.name: getattr(self.params_, f.name) for f in fields(CnnParams)}
        return {"kind": self.KIND, "seed": self.seed}, arrays

    @classmethod
    def _from_payload(cls, header, arrays, path) -> "HsvCnnClassifier":
        model = cls(seed=int(header.get("seed", 0)))
        model.params_ = CnnParams(**{f.name: arrays[f.name] for f in fields(CnnParams)})
        if model.params_.K1.shape != _CONV1 or model.params_.K2.shape != _CONV2:
            raise DataFormatError(f"{path}: kernel shapes do not match architecture")
        return model

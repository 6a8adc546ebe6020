"""Small convolutional classifier over 32x32x3 HSV tensors.

Fixed architecture: conv 3x3x8 -> ReLU -> 2x2 max-pool -> conv 3x3x16
-> ReLU -> 2x2 max-pool -> flatten -> dense 64 (ReLU) -> dense 3. All
convolutions are valid (no padding), pooling uses stride 2 and drops an
odd trailing row/column, and max-pool ties resolve to the first element
in window order so gradients are deterministic. The parameters are one
list of arrays, ``[K1, b1, K2, b2, W3, b3, W4, b4]`` (``_SHAPES`` gives
each one's container name and shape), and the backward pass returns the
gradients in the same order. Training is the dense core's loop
(``nn.fit_adam``: loss, Adam, seeded shuffling) and the gradient check
its checker (``nn.check_gradients``), both on that list as it is.

Convolutions are im2col GEMMs (Chellapilla, Puri & Simard 2006): the
input's 3x3 patches are copied once into a patch matrix, which is
multiplied by the kernel reshaped to (out channels, C*3*3). The forward
pass keeps the patch matrices for the backward pass, where the kernel
gradient is a GEMM against them per sample, summed over the batch, and
the input gradient a GEMM followed by a col2im scatter-add, one strided
add per kernel offset. The first layer's input gradient is not
computed. Prediction runs the forward pass in blocks of
``_PREDICT_BLOCK`` rows, so its memory does not grow with the number of
rows. A fit, a prediction and a gradient check each allocate through one
:class:`Workspace`, so every step or block reuses the first one's patch
matrices, activations and pooling buffers instead of allocating them again.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from ..base import (
    AdamEstimator,
    SavedModel,
    as_label_array,
    check_consistent_length,
    check_fitted,
    checked_arrays,
)
from ..nn import TrainConfig, check_gradients, finite_logits, fit_adam, softmax, softmax_xent
from ..nn import adam_step  # noqa: F401 - perfbench's span test reads it here
from ..rng import substream
from .image import IMAGE_SIZE

__all__ = ["HsvCnnClassifier", "cnn_grad_check"]

_CLASSES = 3
# Rows per forward pass in predict_proba. A pass holds about 0.5 MB per
# row, most of it conv1's patch matrix (27/8 the size of conv1's output),
# so prediction memory does not grow with the number of rows.
_PREDICT_BLOCK = 32
# Container name and shape of each array of the parameter list, in its
# order. Kernels are (out channels, in channels, kernel h, kernel w);
# 16 * 6 * 6 is the flattened output of two conv+pool stages on 32x32.
_SHAPES = {
    "K1": (8, 3, 3, 3), "b1": (8,), "K2": (16, 8, 3, 3), "b2": (16,),
    "W3": (64, 16 * 6 * 6), "b3": (64,), "W4": (_CLASSES, 64), "b4": (_CLASSES,),
}


def init_cnn_params(seed: int) -> list[np.ndarray]:
    """Seeded scaled-normal weights (sigma = 1/sqrt(fan_in)), zero biases,
    in the order of ``_SHAPES``."""
    rng = substream(seed, "init")
    return [np.zeros(shape) if name[0] == "b"
            else rng.standard_normal(shape) / np.sqrt(np.prod(shape[1:]))
            for name, shape in _SHAPES.items()]


class Workspace:
    """The intermediates of a forward and backward pass, kept for the next.

    ``workspace(name, shape)`` returns the first ``shape[0]`` rows of the
    float64 array of that name, made on first use, so every step of a fit
    (the short last batch too) works in the same memory. Fresh arrays of
    these sizes (3.1 MB for conv1's patch matrix at batch 16, about 10 MB
    in all) let the C heap shrink back at the end of each step and fault
    its pages in again on the next one.
    """

    def __init__(self):
        self._arrays: dict[str, np.ndarray] = {}

    def __call__(self, name, shape):
        arr = self._arrays.get(name)
        if arr is None or len(arr) < shape[0] or arr.shape[1:] != tuple(shape[1:]):
            arr = self._arrays[name] = np.empty(shape)
        return arr[: shape[0]]


def _im2col(X, kh, kw, new, tag=""):
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


def _conv_gemm(cols, K, b, in_shape, new, tag=""):
    """Valid convolution from the input's patch matrix ``cols``."""
    n, _, H, W = in_shape
    OC, _, kh, kw = K.shape
    out = np.matmul(K.reshape(OC, -1), cols, out=new("z" + tag, (n, OC, cols.shape[2])))
    out += b[:, None]
    return out.reshape(n, OC, H - kh + 1, W - kw + 1)


def _conv_backward(dout, cols, K, new, in_shape=None, tag=""):
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


def _pool_forward(X, new, tag=""):
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


def _pool_backward(dout, idx, in_shape, new, tag=""):
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
    params: list[np.ndarray], T: np.ndarray, new: Workspace | None = None
) -> tuple[np.ndarray, dict]:
    """Logits of the net of ``params`` for a batch of float64 (n, 32, 32, 3)
    HSV tensors plus the backward cache, whose arrays belong to the
    :class:`Workspace` ``new`` (a fresh one when None) until its next pass."""
    K1, b1, K2, b2, W3, b3, W4, b4 = params
    new = new if new is not None else Workspace()
    X = T.transpose(0, 3, 1, 2)  # to channel-first
    cols1 = _im2col(X, *K1.shape[2:], new, "1")
    z1 = _conv_gemm(cols1, K1, b1, X.shape, new, "1")
    a1 = np.maximum(z1, 0.0, out=new("a1", z1.shape))
    p1, idx1 = _pool_forward(a1, new, "1")
    cols2 = _im2col(p1, *K2.shape[2:], new, "2")
    z2 = _conv_gemm(cols2, K2, b2, p1.shape, new, "2")
    a2 = np.maximum(z2, 0.0, out=new("a2", z2.shape))
    p2, idx2 = _pool_forward(a2, new, "2")
    flat = p2.reshape(len(T), -1)
    z3 = flat @ W3.T + b3
    a3 = np.maximum(z3, 0.0)
    logits = a3 @ W4.T + b4
    cache = dict(cols1=cols1, z1=z1, a1=a1, idx1=idx1, p1=p1, cols2=cols2,
                 z2=z2, a2=a2, idx2=idx2, p2=p2, flat=flat, z3=z3, a3=a3)
    return logits, cache


def cnn_backward(
    params: list[np.ndarray], cache: dict, dlogits: np.ndarray, new: Workspace | None = None
) -> list[np.ndarray]:
    """Gradients for the cached pass, in the order of ``params``; ``new``
    as in :func:`cnn_forward`. The gradients are new arrays, not the
    workspace's."""
    K1, _, K2, _, W3, _, W4, _ = params
    new = new if new is not None else Workspace()
    dW4 = dlogits.T @ cache["a3"]
    db4 = dlogits.sum(axis=0)
    da3 = dlogits @ W4
    dz3 = da3 * (cache["z3"] > 0.0)
    dW3 = dz3.T @ cache["flat"]
    db3 = dz3.sum(axis=0)
    dflat = dz3 @ W3
    dp2 = dflat.reshape(cache["p2"].shape)
    dz2 = _pool_backward(dp2, cache["idx2"], cache["a2"].shape, new, "2")
    dz2 *= cache["z2"] > 0.0
    dp1, dK2, db2 = _conv_backward(dz2, cache["cols2"], K2, new,
                                   cache["p1"].shape, "2")
    dz1 = _pool_backward(dp1, cache["idx1"], cache["a1"].shape, new, "1")
    dz1 *= cache["z1"] > 0.0
    _, dK1, db1 = _conv_backward(dz1, cache["cols1"], K1, new)
    return [dK1, db1, dK2, db2, dW3, db3, dW4, db4]


def cnn_grad_check(
    params: list[np.ndarray],
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
    T = _check_tensors(T)
    y = as_label_array(y)
    workspace = Workspace()
    logits, cache = cnn_forward(params, T, workspace)
    _, dlogits = softmax_xent(logits, y)
    grads = cnn_backward(params, cache, dlogits, workspace)

    def loss_and_pattern():
        logits, cache = cnn_forward(params, T, workspace)
        loss, _ = softmax_xent(logits, y)
        relus = [(cache[z] > 0.0).tobytes() for z in ("z1", "z2", "z3")]
        return loss, (*relus, cache["idx1"].tobytes(), cache["idx2"].tobytes())

    return check_gradients(params, grads, loss_and_pattern,
                           eps, max_per_tensor, seed, min_grad)


class HsvCnnClassifier(SavedModel, AdamEstimator):
    """Softmax CNN on (n, 32, 32, 3) HSV tensors."""

    KIND = "cnn-hsv"

    def fit(self, T, y) -> "HsvCnnClassifier":
        T = _check_tensors(T)
        y = as_label_array(y)
        n = check_consistent_length(T, y)

        workspace = Workspace()

        def loss_and_grad(params, batch):
            logits, cache = cnn_forward(params, T[batch], workspace)
            loss, dlogits = softmax_xent(logits, y[batch])
            return loss, cnn_backward(params, cache, dlogits, workspace)

        self.params_, self.history_ = fit_adam(init_cnn_params(self.seed),
                                               loss_and_grad, n, TrainConfig.of(self))
        return self

    def predict_proba(self, T) -> np.ndarray:
        check_fitted(self, "params_")
        T = _check_tensors(T)
        workspace = Workspace()
        probs = np.empty((len(T), _CLASSES))
        for start in range(0, len(T), _PREDICT_BLOCK):
            block = T[start : start + _PREDICT_BLOCK]
            logits = finite_logits(lambda: cnn_forward(self.params_, block, workspace)[0])
            probs[start : start + _PREDICT_BLOCK] = softmax(logits)
        return probs

    def _payload(self) -> tuple[dict, dict[str, np.ndarray]]:
        check_fitted(self, "params_")
        return {"kind": self.KIND, "seed": self.seed}, dict(zip(_SHAPES, self.params_))

    @classmethod
    def _from_payload(cls, header, arrays, path) -> "HsvCnnClassifier":
        model = cls(seed=int(header["seed"]))
        model.params_ = checked_arrays(arrays, _SHAPES, path)
        return model

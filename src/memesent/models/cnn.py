"""Small convolutional classifier over 32x32x3 HSV tensors.

Fixed architecture: conv 3x3x8 -> ReLU -> 2x2 max-pool -> conv 3x3x16
-> ReLU -> 2x2 max-pool -> flatten -> dense 64 (ReLU) -> dense 3. All
convolutions are valid (no padding), pooling uses stride 2 and drops an
odd trailing row/column, and max-pool ties resolve to the first element
in window order so gradients are deterministic. The parameters are one
list of arrays, ``[K1, b1, K2, b2, W3, b3, W4, b4]`` (``_SHAPES`` gives
each one's container name and shape); the backward pass writes its
gradients, in that order, into Adam's views. ``cnn_forward`` and
``cnn_backward``, bound to one :class:`Workspace`, are the net that the
dense core's loop (``nn.fit_adam``: softmax cross-entropy, Adam, seeded
shuffling; the model, a ``nn.TrainConfig``, is its config) trains and
its checker (``nn.check_gradients``) checks.

The convolution stages keep their arrays as (channels, height, width,
batch), and each (n, 32, 32, 3) batch is copied once into that layout.
Convolutions are im2col GEMMs (Chellapilla, Puri & Simard 2006): the
kernel, reshaped to (out channels, C*3*3), times the (C*3*3, OH*OW*n)
patch matrix is the whole batch's convolution in one GEMM, and the
kernel and patch gradients are one GEMM each. col2im folds the patch
gradients back with one add per kernel offset, over runs of OW*n
contiguous elements; the first layer's input gradient is not computed.
Max-pool is two pairwise maxima, over column pairs and then row pairs,
each keeping the lower index on a tie: the first maximum in window
order. ReLU follows the pool, with which it commutes, so the backward
pass routes through two winner masks and one pooled-size on-mask.
Prediction runs the forward pass in blocks of ``_PREDICT_BLOCK`` rows
(``nn.predict_blocks``), so its memory does not grow with the number of
rows. The dense layers' bits depend on a block's row count: a last block
of 27 rows or fewer gets other logits than the same rows in a full block,
and below 64 rows only 28 and the multiples of 4 keep them all (OpenBLAS
0.3.31). A fit, a prediction and a gradient
check each allocate through one :class:`Workspace`, whose arrays every
step or block reuses; the backward pass writes into forward arrays that
are dead by then.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..base import (
    Estimator,
    as_label_array,
    check_fitted,
    checked_arrays,
)
from ..nn import TrainConfig, check_gradients, fit_adam, predict_blocks
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
# The forward buffer of the same size that each backward intermediate
# overwrites, dead by then (pool2 once dW3 is taken, cols2 once dK2 is).
_BACKWARD_BUFFERS = {"dpool2": "pool2", "drows2": "rows2", "dZ2": "z2", "dcols2": "cols2",
                     "dX2": "pool1", "dpool1": "pool1", "drows1": "rows1", "dZ1": "z1"}


def init_cnn_params(seed: int) -> list[np.ndarray]:
    """Seeded scaled-normal weights (sigma = 1/sqrt(fan_in)), zero biases,
    in the order of ``_SHAPES``."""
    rng = substream(seed, "init")
    return [np.zeros(shape) if name[0] == "b"
            else rng.standard_normal(shape) / np.sqrt(np.prod(shape[1:]))
            for name, shape in _SHAPES.items()]


class Workspace(dict):
    """The intermediates of a forward and backward pass, kept for the next.

    ``workspace(name, shape, dtype)`` returns the first ``prod(shape)``
    elements of the flat array of that name (made when missing or too
    small), reshaped, so every step of a fit (the short last batch too)
    works in the same memory: the 15 arrays of a forward pass, which the
    backward pass reuses, 7.05 MiB at batch 16. Fresh arrays of these
    sizes would let the C heap shrink back at the end of each step and
    fault its pages in again on the next one.
    """

    def __call__(self, name, shape, dtype=np.float64):
        size = math.prod(shape)
        arr = self.get(name)
        if arr is None or arr.size < size:
            arr = self[name] = np.empty(size, dtype)
        return arr[:size].reshape(shape)


def _conv(X, K, b, new, tag=""):
    """Valid convolution of the (C, H, W, n) input ``X``: the (OC, OH, OW,
    n) output and the (C*kh*kw, OH*OW*n) patch matrix, whose rows run in
    ``(c, u, v)`` order, the order of ``K.reshape(OC, -1)``."""
    C, H, W, n = X.shape
    OC, _, kh, kw = K.shape
    OH, OW = H - kh + 1, W - kw + 1
    cols = new("cols" + tag, (C, kh, kw, OH, OW, n))
    for u, v in np.ndindex(kh, kw):
        cols[:, u, v] = X[:, u : u + OH, v : v + OW]
    cols = cols.reshape(C * kh * kw, OH * OW * n)
    out = np.matmul(K.reshape(OC, -1), cols, out=new("z" + tag, (OC, OH * OW * n)))
    out += b[:, None]
    return out.reshape(OC, OH, OW, n), cols


def _kernel_grads(dout, cols, dK, db):
    """Kernel and bias gradients of a convolution from its patch matrix,
    written into the contiguous ``dK`` and ``db``."""
    d2 = dout.reshape(len(dK), -1)
    np.matmul(d2, cols.T, out=dK.reshape(len(dK), -1))
    d2.sum(axis=1, out=db)


def _input_grad(dout, K, in_shape, new, tag=""):
    """Input gradient of a convolution: the patch gradients, then col2im."""
    C, H, W, n = in_shape
    OC, _, kh, kw = K.shape
    OH, OW = H - kh + 1, W - kw + 1
    dcols = np.matmul(K.reshape(OC, -1).T, dout.reshape(OC, -1),
                      out=new("dcols" + tag, (C * kh * kw, OH * OW * n)))
    dcols = dcols.reshape(C, kh, kw, OH, OW, n)
    dX = new("dX" + tag, in_shape)
    dX.fill(0.0)
    for u, v in np.ndindex(kh, kw):
        dX[:, u : u + OH, v : v + OW] += dcols[:, u, v]
    return dX


def _pool_relu(Z, new, tag=""):
    """ReLU of the 2x2 stride-2 max-pool of the (C, H, W, n) ``Z``, and the
    masks of where the right column of a pair won, where the bottom row
    won, and where the output is positive (a tie keeps left, then top)."""
    H, W = Z.shape[1] // 2 * 2, Z.shape[2] // 2 * 2  # an odd last row or column is dropped
    left, right = Z[:, :H, 0:W:2], Z[:, :H, 1:W:2]
    right_won = np.greater(right, left, out=new("right" + tag, left.shape, bool))
    rows = np.maximum(left, right, out=new("rows" + tag, left.shape))
    top, bottom = rows[:, 0::2], rows[:, 1::2]
    bottom_won = np.greater(bottom, top, out=new("bottom" + tag, top.shape, bool))
    out = np.maximum(top, bottom, out=new("pool" + tag, top.shape))
    on = np.greater(out, 0.0, out=new("on" + tag, top.shape, bool))
    return np.maximum(out, 0.0, out=out), (right_won, bottom_won, on)


def _pool_relu_backward(dout, masks, in_shape, new, tag=""):
    """Gradient of ``_pool_relu``, routed to the winners: of each pair the
    winner gets ``d * won`` and the other ``d - d * won``, exactly d or 0."""
    right_won, bottom_won, on = masks
    _, OH, OW, _ = on.shape
    dpool = np.multiply(dout, on, out=new("dpool" + tag, on.shape))
    drows = new("drows" + tag, right_won.shape)
    np.multiply(dpool, bottom_won, out=drows[:, 1::2])
    np.subtract(dpool, drows[:, 1::2], out=drows[:, 0::2])
    dZ = new("dZ" + tag, in_shape)
    dZ[:, 2 * OH :] = dZ[:, :, 2 * OW :] = 0.0  # the dropped odd edge
    dright = np.multiply(drows, right_won, out=dZ[:, : 2 * OH, 1 : 2 * OW : 2])
    np.subtract(drows, dright, out=dZ[:, : 2 * OH, 0 : 2 * OW : 2])
    return dZ


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
    X = new("X", (3, IMAGE_SIZE, IMAGE_SIZE, len(T)))
    X[...] = T.transpose(3, 1, 2, 0)
    z1, cols1 = _conv(X, K1, b1, new, "1")
    a1, masks1 = _pool_relu(z1, new, "1")
    z2, cols2 = _conv(a1, K2, b2, new, "2")
    a2, masks2 = _pool_relu(z2, new, "2")
    flat = a2.reshape(-1, len(T)).T  # (n, C*H*W), the order of W3's columns
    z3 = flat @ W3.T + b3
    a3 = np.maximum(z3, 0.0)
    logits = a3 @ W4.T + b4
    cache = dict(cols1=cols1, z1=z1, masks1=masks1, a1=a1, cols2=cols2, z2=z2,
                 masks2=masks2, a2=a2, flat=flat, z3=z3, a3=a3)
    return logits, cache


def cnn_backward(
    params: list[np.ndarray], cache: dict, dlogits: np.ndarray, new: Workspace | None = None,
    out: list[np.ndarray] | None = None,
) -> list[np.ndarray]:
    """Gradients for the cached pass, in the order of ``params``; ``new``
    as in :func:`cnn_forward`. As in ``nn.backward``, each is written into
    its contiguous array of ``out`` (Adam's gradient views), which is
    returned; without ``out``, into new arrays, with the same bits. Its
    intermediates overwrite the cache's arrays (``_BACKWARD_BUFFERS``)."""
    _, _, K2, _, W3, _, W4, _ = params
    forward_new = new if new is not None else Workspace()

    def new(name, shape, dtype=np.float64):
        return forward_new(_BACKWARD_BUFFERS[name], shape, dtype)

    grads = [np.empty(p.shape, p.dtype) for p in params] if out is None else out
    dK1, db1, dK2, db2, dW3, db3, dW4, db4 = grads
    np.matmul(dlogits.T, cache["a3"], out=dW4)
    dlogits.sum(axis=0, out=db4)
    da3 = dlogits @ W4
    dz3 = da3 * (cache["z3"] > 0.0)
    np.matmul(dz3.T, cache["flat"], out=dW3)
    dz3.sum(axis=0, out=db3)
    da2 = (W3.T @ dz3.T).reshape(cache["a2"].shape)
    dz2 = _pool_relu_backward(da2, cache["masks2"], cache["z2"].shape, new, "2")
    _kernel_grads(dz2, cache["cols2"], dK2, db2)
    da1 = _input_grad(dz2, K2, cache["a1"].shape, new, "2")
    dz1 = _pool_relu_backward(da1, cache["masks1"], cache["z1"].shape, new, "1")
    _kernel_grads(dz1, cache["cols1"], dK1, db1)
    return grads


def _passes(new: Workspace):
    """The net's ``(forward, backward)`` (see ``nn.fit_adam``), both working in ``new``."""
    return (lambda params, T: cnn_forward(params, T, new),
            lambda params, cache, d, out=None: cnn_backward(params, cache, d, new, out=out))


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
    (T, y); the pattern is every pooling winner and every ReLU's on/off
    state."""

    def pattern(cache):
        masks = (*cache["masks1"], *cache["masks2"], cache["z3"] > 0.0)
        return tuple(m.tobytes() for m in masks)

    return check_gradients(params, _passes(Workspace()), _check_tensors(T), as_label_array(y),
                           pattern, eps, max_per_tensor, seed, min_grad)


@dataclass(eq=False)
class HsvCnnClassifier(Estimator, TrainConfig):
    """Softmax CNN on (n, 32, 32, 3) HSV tensors."""

    KIND = "cnn-hsv"
    INPUTS = ("tensors",)

    def fit(self, T, y) -> "HsvCnnClassifier":
        T, y = _check_tensors(T), as_label_array(y)
        self.params_, self.history_ = fit_adam(init_cnn_params(self.seed), _passes(Workspace()),
                                               T, y, self)
        return self

    def predict_proba(self, T) -> np.ndarray:
        check_fitted(self, "params_")
        T, workspace = _check_tensors(T), Workspace()
        edges = [*range(0, len(T), _PREDICT_BLOCK), len(T)]
        return predict_blocks(
            lambda start, stop: cnn_forward(self.params_, T[start:stop], workspace)[0], edges)

    def _payload(self) -> tuple[dict, dict[str, np.ndarray]]:
        check_fitted(self, "params_")
        return {"kind": self.KIND, "seed": self.seed}, dict(zip(_SHAPES, self.params_))

    @classmethod
    def _from_payload(cls, header, arrays, path) -> "HsvCnnClassifier":
        model = cls(seed=int(header["seed"]))
        model.params_ = checked_arrays(arrays, _SHAPES, path)
        return model

"""From-scratch dense-network core: forward/backward passes, softmax
cross-entropy, Adam, the seeded mini-batch training loop and the
finite-difference gradient checker.

A net's parameters are one list of arrays, ``[W0, b0, W1, b1, ...]``
with each ``W`` (out x in) and each ``b`` (out,); :func:`backward`
returns the gradients as a list in the same order, and Adam, the
gradient checker and the fitted models take the list as it is.
:func:`param_shapes` gives each array's container name and shape.

Adam keeps the parameters, both moments and the gradients each in one
contiguous buffer; the training loop hands the gradient views to the
net's backward pass, which writes into them. :func:`adam_step` updates
``state.params`` in place by the rule of Kingma & Ba (2015, arXiv
1412.6980), its factors folded into the step size and epsilon, and every
50 steps zeroes the moments too small to move a weight before they turn
subnormal (slow), with the unflushed rule's bytes. Only the learning
rate is a parameter: beta1, beta2 and epsilon are the paper's defaults.

The dense net is float32 and the CNN float64: forward, backward and
Adam follow the parameters' dtype, softmax and cross-entropy upcast the
logits to float64, and gradient checks run on float64 copies. All is
deterministic given the seeds: weight initialization draws from the
"init" substream of the net seed, epoch shuffling from the "shuffle"
substream of the training seed.

Every model trains on the mean softmax cross-entropy, so a net is its
``(forward, backward)`` pair, and two pieces serve every model, not only
the dense net: :func:`fit_adam` is the training loop and
:func:`check_gradients` compares analytic gradients against central
finite differences on a seeded sample of coordinates. Each computes the
loss itself; :func:`grad_check` and the CNN's ``cnn_grad_check`` give
the checker only their float64 parameters and their pattern.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Callable

import numpy as np

from .errors import NumericError, TrainingError
from .rng import substream

__all__ = [
    "ACTIVATIONS",
    "INIT_MODES",
    "NetSpec",
    "AdamState",
    "TrainConfig",
    "init_params",
    "param_shapes",
    "forward",
    "softmax",
    "finite_logits",
    "softmax_xent",
    "backward",
    "init_adam",
    "adam_step",
    "fit_adam",
    "check_gradients",
    "grad_check",
    "train",
]

DEFAULT_HIDDEN = (256, 128, 64, 64, 32, 16)
ACTIVATIONS = ("relu", "linear")
INIT_MODES = ("normal", "scaled")


@dataclass(frozen=True)
class NetSpec:
    """Architecture and initialization of a dense classifier.

    ``init_mode`` "normal" draws every weight from N(0, init_sigma^2)
    (the literal reading of the source system); "scaled" divides each
    layer's sigma by sqrt(fan_in), which keeps activations O(1) in deep
    stacks and is the default used by the high-level model classes.
    """

    input_dim: int
    hidden: tuple[int, ...] = DEFAULT_HIDDEN
    output_dim: int = 3
    activation: str = "relu"  # one of ACTIVATIONS
    seed: int = 0
    init_sigma: float = 1.0
    init_mode: str = "normal"  # one of INIT_MODES

    def __post_init__(self):
        object.__setattr__(self, "hidden", tuple(self.hidden))
        if self.input_dim < 1 or self.output_dim < 1 or any(w < 1 for w in self.hidden):
            raise ValueError("all layer widths must be >= 1")
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}")
        if self.init_mode not in INIT_MODES:
            raise ValueError(f"unknown init_mode {self.init_mode!r}")

    @property
    def widths(self) -> tuple[int, ...]:
        return (self.input_dim, *self.hidden, self.output_dim)

    def to_dict(self) -> dict:
        return {**vars(self), "hidden": list(self.hidden)}

    @classmethod
    def from_dict(cls, d: dict) -> "NetSpec":
        return cls(
            input_dim=int(d["input_dim"]),
            hidden=tuple(int(w) for w in d["hidden"]),
            output_dim=int(d["output_dim"]),
            activation=str(d["activation"]),
            seed=int(d["seed"]),
            init_sigma=float(d["init_sigma"]),
            init_mode=str(d["init_mode"]),
        )


@dataclass(frozen=True)
class TrainConfig:
    batch_size: int = 50
    epochs: int = 10
    lr: float = 1e-3
    seed: int = 0
    shuffle: bool = True

    def __post_init__(self):
        if self.batch_size < 1 or self.epochs < 1:
            raise ValueError("batch_size and epochs must be >= 1")

    @classmethod
    def of(cls, estimator) -> "TrainConfig":
        """The config held by an estimator's attributes of the same names."""
        return cls(**{f.name: getattr(estimator, f.name) for f in fields(cls)})


def param_shapes(spec: NetSpec) -> dict[str, tuple[int, ...]]:
    """Container name and shape of each array of a net's parameter list,
    in its order: W0 (out x in), b0 (out,), W1, b1, ..."""
    shapes = {}
    for i, (fan_in, fan_out) in enumerate(zip(spec.widths[:-1], spec.widths[1:])):
        shapes[f"W{i}"], shapes[f"b{i}"] = (fan_out, fan_in), (fan_out,)
    return shapes


def init_params(spec: NetSpec) -> list[np.ndarray]:
    """Seeded float32 weights, drawn and scaled in float64; biases start
    at zero."""
    rng = substream(spec.seed, "init")
    params = []
    for fan_in, fan_out in zip(spec.widths[:-1], spec.widths[1:]):
        sigma = spec.init_sigma
        if spec.init_mode == "scaled":
            sigma = sigma / np.sqrt(fan_in)
        W = rng.standard_normal((fan_out, fan_in)) * sigma
        params += [W.astype(np.float32), np.zeros(fan_out, dtype=np.float32)]
    return params


def forward(
    params: list[np.ndarray], X: np.ndarray, activation: str = "relu"
) -> tuple[np.ndarray, list]:
    """Run a batch through the network of ``params`` ([W0, b0, W1, ...]).

    Hidden layers apply affine then the activation; the output layer is
    affine only (logits). The batch is cast to the dtype of the
    parameters. Returns (logits, cache) where the cache holds, for
    :func:`backward`, each layer's input and its activated output (the
    logits for the last layer); ReLU runs in place, so a hidden layer's
    output is the next layer's input, and its positive entries are
    those of the pre-activation.
    """
    X = np.asarray(X, dtype=params[0].dtype)
    if X.ndim != 2 or X.shape[1] != params[0].shape[1]:
        raise ValueError(
            f"batch shape {X.shape} does not match input width "
            f"{params[0].shape[1]}"
        )
    a = X
    cache = []
    last = len(params) // 2 - 1
    for i, (W, b) in enumerate(zip(params[0::2], params[1::2])):
        z = a @ W.T
        z += b
        if i < last and activation == "relu":
            np.maximum(z, 0.0, out=z)
        cache.append((a, z))
        a = z
    return a, cache


def softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise float64 softmax with max-subtraction stabilization."""
    logits = np.asarray(logits, dtype=np.float64)
    with np.errstate(over="ignore"):  # finite scores wider than float64 shift to -inf
        shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def finite_logits(logits_of: Callable[[], np.ndarray],
                  what: str = "the net's logits") -> np.ndarray:
    """``logits_of()``, computed with NumPy's overflow and invalid-value
    warnings off; :class:`NumericError` ("<what> are not finite") if any
    entry is NaN or +-inf. Every model's ``predict_proba`` takes its
    scores through this, so large but finite weights give the typed
    error, never a NaN row."""
    with np.errstate(over="ignore", invalid="ignore"):
        logits = logits_of()
    if not np.isfinite(logits).all():
        raise NumericError(f"{what} are not finite")
    return logits


def softmax_xent(
    logits: np.ndarray, labels: np.ndarray
) -> tuple[float, np.ndarray]:
    """Mean cross-entropy loss and its gradient w.r.t. the logits.

    ``labels`` are class indices. The gradient, (softmax - onehot)/b for
    the mean reduction, is the loss's one shifted exponential, normalized
    in its buffer; the loss is the per-row sum divided by b, the bits of
    ``np.mean``.
    """
    logits = np.asarray(logits, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    b, k = logits.shape
    if labels.shape != (b,):
        raise ValueError(f"labels shape {labels.shape} does not match batch {b}")
    if labels.size and (labels.min() < 0 or labels.max() >= k):
        raise ValueError(f"labels outside [0, {k})")
    m = logits.max(axis=1)
    rows = np.arange(b)
    with np.errstate(over="ignore"):  # finite logits wider than float64: loss inf
        dlogits = logits - m[:, None]
        np.exp(dlogits, out=dlogits)
        total = dlogits.sum(axis=1)
        loss = float((m + np.log(total) - logits[rows, labels]).sum() / b)
    dlogits /= total[:, None]
    dlogits[rows, labels] -= 1.0
    dlogits /= b
    return loss, dlogits


def backward(
    params: list[np.ndarray], cache: list, dlogits: np.ndarray, activation: str = "relu",
    out: list[np.ndarray] | None = None,
) -> list[np.ndarray]:
    """Exact gradients of the cached forward pass w.r.t. all parameters,
    in the order of ``params`` and in their dtype.

    With ``out``, arrays of the parameters' shapes and dtype (Adam's
    gradient views), each gradient is written into its array and ``out``
    is returned; the bits are those of the allocating call. The ReLU
    subgradient at 0 is taken as 0.
    """
    if 2 * len(cache) != len(params):
        raise ValueError("cache does not match network depth")
    grads = [None] * len(params) if out is None else out
    dz = np.asarray(dlogits, dtype=params[0].dtype)
    for i in range(len(cache) - 1, -1, -1):
        a_in = cache[i][0]
        grads[2 * i] = np.matmul(dz.T, a_in, out=grads[2 * i])
        grads[2 * i + 1] = dz.sum(axis=0, out=grads[2 * i + 1])
        if i > 0:
            dz = dz @ params[2 * i]
            if activation == "relu":  # a_in is a ReLU output: positive where its input was
                dz *= a_in > 0.0
    return grads


# Elements per pass of the in-place Adam update: two block-sized scratch
# rows stay in cache, and a 125k-parameter net takes 4 passes.
_ADAM_BLOCK = 32768
_ADAM_BETA1, _ADAM_BETA2, _ADAM_EPSILON, _ADAM_FLUSH_EVERY = 0.9, 0.999, 1e-8, 50


def _views(buf: np.ndarray, shapes) -> list[np.ndarray]:
    """Per-tensor views that tile ``buf`` end to end, in order."""
    views, start = [], 0
    for shape in shapes:
        size = int(np.prod(shape))
        views.append(buf[start : start + size].reshape(shape))
        start += size
    return views


@dataclass
class AdamState:
    """Adam over one packed parameter buffer, updated in place.

    ``p``, ``m``, ``v`` and ``g`` are contiguous buffers of the
    parameters' dtype that hold, end to end in the order of the flat
    parameter list, the parameters, the two scaled moments m/(1-beta1)
    and v/(1-beta2) of :func:`adam_step`, and the gradients; ``params``
    and ``grads`` are per-tensor views of ``p`` and ``g``, and
    ``scratch`` holds two block-sized work rows.
    """

    params: list[np.ndarray]
    grads: list[np.ndarray]
    p: np.ndarray
    m: np.ndarray
    v: np.ndarray
    g: np.ndarray
    scratch: np.ndarray
    t: int = 0
    lr: float = TrainConfig.lr


def init_adam(params: list[np.ndarray], lr: float = TrainConfig.lr) -> AdamState:
    """Zero moments and a packed copy of ``params``; :func:`adam_step`
    updates the copy, ``state.params``."""
    shapes = [np.shape(a) for a in params]
    size = sum(int(np.prod(shape)) for shape in shapes)
    dtype = np.result_type(*params)
    p, g = np.empty(size, dtype), np.zeros(size, dtype)
    state = AdamState(
        params=_views(p, shapes),
        grads=_views(g, shapes),
        p=p,
        m=np.zeros(size, dtype),
        v=np.zeros(size, dtype),
        g=g,
        scratch=np.empty((2, min(_ADAM_BLOCK, size)), dtype),
        lr=lr,
    )
    for view, a in zip(state.params, params):
        view[...] = a
    return state


def adam_step(state: AdamState, grads: list[np.ndarray]) -> None:
    """One Adam update of ``state.params``, in place, from the gradients
    written into ``state.grads``; ``grads`` must be that list itself
    (:class:`ValueError` otherwise). Nothing is copied in: the update
    runs over the packed buffers, ``state.g`` included, in blocks
    of ``_ADAM_BLOCK`` elements with no allocation, ten passes a block,
    on the scaled moments m~ = m/(1-b1) and v~ = v/(1-b2):

        m~ = b1*m~ + g;  v~ = b2*v~ + g**2;  p -= (a_t*m~) / (sqrt(v~) + e_t)

    with s = sqrt((1-b2**t)/(1-b2)), a_t = lr*(1-b1)*s/(1-b1**t) and e_t =
    epsilon*s, Python floats, so that a float32 pass stays float32. In
    exact arithmetic this is the textbook rule, epsilon included;
    rounding differs. v~ is 1000*v, so a float32 v~ overflows at a
    gradient near 6e17 where the textbook v would at 2e19.

    Every k = 50 steps three more passes, with a block-sized mask, zero each
    m~ below tiny/(b1**k*0.48*lr), tiny the dtype's least normal: as a_t >=
    0.48*lr for every t, a kept a_t*m~, and at lr <= 2 m~ too, stays normal
    until the next flush (subnormal passes run several times slower). A
    zeroed m~ would move its weight by under a_t*|m~|/e_t < 5e-29 in float32,
    ten times that in all: no weight beyond 1e-20 of zero, so bytes hold.
    """
    if grads is not state.grads:
        raise ValueError("grads are not the optimizer state's own gradient views")
    state.t += 1
    b1, b2 = _ADAM_BETA1, _ADAM_BETA2
    s = math.sqrt((1.0 - b2**state.t) / (1.0 - b2))
    alpha = state.lr * (1.0 - b1) * s / (1.0 - b1**state.t)
    eps = _ADAM_EPSILON * s
    flush = state.t % _ADAM_FLUSH_EVERY == 0
    floor = float(np.finfo(state.m.dtype).tiny) / (b1**_ADAM_FLUSH_EVERY * 0.48 * state.lr)
    n = state.p.size
    for lo in range(0, n, _ADAM_BLOCK):
        hi = min(lo + _ADAM_BLOCK, n)
        p, m, v, g = state.p[lo:hi], state.m[lo:hi], state.v[lo:hi], state.g[lo:hi]
        step, denom = state.scratch[0, : hi - lo], state.scratch[1, : hi - lo]
        m *= b1
        m += g
        v *= b2
        np.square(g, out=step)
        v += step
        np.sqrt(v, out=denom)
        denom += eps
        np.multiply(m, alpha, out=step)
        step /= denom
        p -= step
        if flush:
            np.putmask(m, np.abs(m, out=step) < floor, 0.0)


def check_gradients(
    flat: list[np.ndarray],
    passes,
    X: np.ndarray,
    y: np.ndarray,
    pattern,
    eps: float = 1e-5,
    max_per_tensor: int = 150,
    seed: int = 0,
    min_grad: float = 1e-5,
    order: int = 2,
) -> float:
    """Max relative error between the analytic gradients of the mean
    softmax cross-entropy of the net ``passes`` (as for :func:`fit_adam`;
    ``backward`` runs once, without ``out``) on the batch (X, y) and
    central differences over a seeded coordinate sample of ``flat``.

    Sampled coordinates are perturbed in place (and restored) before each
    forward pass; ``pattern(cache)`` of that pass returns a comparable
    record of its piecewise-linear choices, such as which ReLUs are on.
    Relative error per coordinate is |analytic - numeric| /
    max(1e-8, |analytic| + |numeric|).

    ``order`` selects the stencil: 2 is the classic two-point central
    difference with O(eps^2) truncation; 4 is the five-point stencil
    (8(f(+e) - f(-e)) - (f(+2e) - f(-2e))) / 12e, whose O(eps^4)
    truncation allows thresholds near the float64 noise floor.

    Two kinds of coordinate are excluded because the stencil cannot
    measure them: ones whose perturbations change the pattern (the
    quotient mixes two slopes there), and ones where analytic and
    numeric are both below ``min_grad`` (the quotient is float64
    evaluation noise). A bug that zeroes or rescales a gradient tensor
    still surfaces: the numeric side stays large, so the coordinate is
    kept and mismatches.
    """
    if order not in (2, 4):
        raise ValueError("order must be 2 or 4")
    fwd, bwd = passes
    logits, cache = fwd(flat, X)
    grads = bwd(flat, cache, softmax_xent(logits, y)[1])

    def probe():  # the loss and pattern at the current parameters
        logits, cache = fwd(flat, X)
        return softmax_xent(logits, y)[0], pattern(cache)

    rng = substream(seed, "gradcheck")
    steps = (eps,) if order == 2 else (eps, 2.0 * eps)
    worst = 0.0
    n_tested = 0
    for arr, g in zip(flat, grads):
        size = arr.size
        if size <= max_per_tensor:
            coords = np.arange(size)
        else:
            coords = rng.choice(size, size=max_per_tensor, replace=False)
        for c in coords:
            orig = arr.flat[c]
            diffs, patterns = [], []
            for h in steps:
                arr.flat[c] = orig + h
                f_plus, pat_plus = probe()
                arr.flat[c] = orig - h
                f_minus, pat_minus = probe()
                diffs.append(f_plus - f_minus)
                patterns.extend((pat_plus, pat_minus))
            arr.flat[c] = orig
            if any(p != patterns[0] for p in patterns[1:]):
                continue
            if order == 2:
                numeric = diffs[0] / (2.0 * eps)
            else:
                numeric = (8.0 * diffs[0] - diffs[1]) / (12.0 * eps)
            analytic = g.flat[c]
            if abs(analytic) < min_grad and abs(numeric) < min_grad:
                continue
            n_tested += 1
            denom = max(1e-8, abs(analytic) + abs(numeric))
            worst = max(worst, abs(analytic - numeric) / denom)
    if n_tested == 0:
        raise ValueError("no measurable coordinates; widen the net or batch")
    return worst


def _dense(activation: str):
    """The ``(forward, backward)`` of a dense net of ``activation``."""
    return (lambda params, X: forward(params, X, activation),
            lambda params, cache, d, out=None: backward(params, cache, d, activation, out=out))


def grad_check(
    spec: NetSpec,
    X: np.ndarray,
    y: np.ndarray,
    eps: float = 1e-5,
    max_per_tensor: int = 150,
    seed: int = 0,
    min_grad: float = 1e-5,
    order: int = 2,
) -> float:
    """:func:`check_gradients` for a float64 copy of a freshly
    initialized net of ``spec`` on the batch (X, y); the pattern is the
    on/off state of every hidden ReLU."""

    def pattern(cache):
        relu = spec.activation == "relu"
        return tuple((a > 0.0).tobytes() for _, a in cache[:-1]) if relu else ()

    return check_gradients([a.astype(np.float64) for a in init_params(spec)],
                           _dense(spec.activation), X, y, pattern,
                           eps, max_per_tensor, seed, min_grad, order)


def fit_adam(
    flat: list[np.ndarray], passes, X: np.ndarray, y: np.ndarray, cfg: TrainConfig
) -> tuple[list[np.ndarray], list[float]]:
    """Seeded mini-batch Adam on the mean softmax cross-entropy of the
    net ``passes``, its ``(forward, backward)``, over the rows of (X, y).

    A step is ``forward(params, X[batch])`` (logits and a cache),
    :func:`softmax_xent`, ``backward(params, cache, dlogits, out=grads)``
    into ``grads``, the optimizer's gradient views in the order of
    ``flat``, then :func:`adam_step` on ``params``, the views of its
    parameter buffer. Batches are sequential slices of a fresh seeded
    permutation of the rows per epoch; the last may be short. Returns the
    final parameters (those views) and the mean per-example loss of each
    epoch. Raises :class:`ValueError` unless X and y are nonempty and
    aligned, :class:`TrainingError` if the loss becomes non-finite.
    """
    X, y = np.asarray(X), np.asarray(y, dtype=np.int64)
    n = len(X)
    if n < 1 or y.shape != (n,):
        raise ValueError("X and y must be nonempty and aligned")
    fwd, bwd = passes
    state = init_adam(flat, lr=cfg.lr)
    shuffle_rng = substream(cfg.seed, "shuffle")
    history: list[float] = []
    for epoch in range(cfg.epochs):
        order = shuffle_rng.permutation(n) if cfg.shuffle else np.arange(n)
        total = 0.0
        for start in range(0, n, cfg.batch_size):
            batch = order[start : start + cfg.batch_size]
            logits, cache = fwd(state.params, X[batch])
            loss, dlogits = softmax_xent(logits, y[batch])
            if not math.isfinite(loss):
                raise TrainingError(
                    f"non-finite loss at epoch {epoch + 1}, "
                    f"batch {start // cfg.batch_size + 1}"
                )
            bwd(state.params, cache, dlogits, out=state.grads)
            del logits, cache, dlogits  # freed before the next forward pass allocates its own
            adam_step(state, state.grads)
            total += loss * len(batch)
        history.append(total / n)
    return state.params, history


def train(
    spec: NetSpec,
    X: np.ndarray,
    y: np.ndarray,
    cfg: TrainConfig,
) -> tuple[list[np.ndarray], list[float]]:
    """Seeded mini-batch training of a net of ``spec`` with
    :func:`fit_adam`; returns final params and the mean per-example
    loss of each epoch; :func:`forward` casts each batch of ``X``."""
    return fit_adam(init_params(spec), _dense(spec.activation), X, y, cfg)

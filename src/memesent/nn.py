"""From-scratch dense-network core: forward/backward passes, softmax
cross-entropy, Adam, the seeded mini-batch training loop and the
finite-difference gradient checker.

Adam keeps the parameters, both moments and the gradients each in one
contiguous buffer and updates them in place, in blocks, in the textbook
order of operations (Kingma & Ba 2015, arXiv 1412.6980); the bits are
those of the per-tensor rule with fresh arrays.

Everything runs in float64 and is deterministic given the seeds: weight
initialization draws from the "init" substream of the net seed, epoch
shuffling from the "shuffle" substream of the training seed.

Two pieces serve every model, not only the dense net: :func:`fit_adam`
is the training loop (the CNN passes it its own loss and gradients), and
:func:`check_gradients` compares analytic gradients against central
finite differences on a seeded sample of coordinates (:func:`grad_check`
and the CNN's ``cnn_grad_check`` are thin adapters over it).
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .errors import DataFormatError, TrainingError
from .rng import substream

__all__ = [
    "NetSpec",
    "MlpParams",
    "AdamState",
    "TrainConfig",
    "init_params",
    "forward",
    "softmax",
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
    activation: str = "relu"  # "relu" or "linear"
    seed: int = 0
    init_sigma: float = 1.0
    init_mode: str = "normal"  # "normal" or "scaled"

    def __post_init__(self):
        if self.input_dim < 1 or self.output_dim < 1 or any(w < 1 for w in self.hidden):
            raise ValueError("all layer widths must be >= 1")
        if self.activation not in ("relu", "linear"):
            raise ValueError(f"unknown activation {self.activation!r}")
        if self.init_mode not in ("normal", "scaled"):
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


@dataclass
class MlpParams:
    """Per-layer weight matrices (out x in) and bias vectors (out,)."""

    weights: list[np.ndarray]
    biases: list[np.ndarray]

    @property
    def n_layers(self) -> int:
        return len(self.weights)

    def flat(self) -> list[np.ndarray]:
        out = []
        for W, b in zip(self.weights, self.biases):
            out.extend((W, b))
        return out

    @classmethod
    def from_flat(cls, arrays: list[np.ndarray]) -> "MlpParams":
        return cls(weights=list(arrays[0::2]), biases=list(arrays[1::2]))

    def arrays(self) -> dict[str, np.ndarray]:
        """Named arrays for a model container: W0, b0, W1, b1, ..."""
        out = {}
        for i, (W, b) in enumerate(zip(self.weights, self.biases)):
            out[f"W{i}"] = W
            out[f"b{i}"] = b
        return out

    @classmethod
    def from_arrays(cls, arrays: dict, n_layers: int, path) -> "MlpParams":
        """Inverse of :meth:`arrays`; ``path`` names the file in errors."""
        try:
            return cls(
                weights=[arrays[f"W{i}"] for i in range(n_layers)],
                biases=[arrays[f"b{i}"] for i in range(n_layers)],
            )
        except KeyError as exc:
            raise DataFormatError(f"{path}: missing parameter array {exc}") from exc


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


def init_params(spec: NetSpec) -> MlpParams:
    """Seeded weight initialization; biases start at zero."""
    rng = substream(spec.seed, "init")
    weights, biases = [], []
    widths = spec.widths
    for fan_in, fan_out in zip(widths[:-1], widths[1:]):
        sigma = spec.init_sigma
        if spec.init_mode == "scaled":
            sigma = sigma / np.sqrt(fan_in)
        weights.append(rng.standard_normal((fan_out, fan_in)) * sigma)
        biases.append(np.zeros(fan_out, dtype=np.float64))
    return MlpParams(weights=weights, biases=biases)


def forward(
    params: MlpParams, X: np.ndarray, activation: str = "relu"
) -> tuple[np.ndarray, list]:
    """Run a batch through the network.

    Hidden layers apply affine then the activation; the output layer is
    affine only (logits). Returns (logits, cache) where the cache holds
    each layer's input and pre-activation for :func:`backward`.
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != params.weights[0].shape[1]:
        raise ValueError(
            f"batch shape {X.shape} does not match input width "
            f"{params.weights[0].shape[1]}"
        )
    a = X
    cache = []
    last = params.n_layers - 1
    for i, (W, b) in enumerate(zip(params.weights, params.biases)):
        z = a @ W.T + b
        cache.append((a, z))
        if i < last and activation == "relu":
            a = np.maximum(z, 0.0)
        else:
            a = z
    return a, cache


def softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise softmax with max-subtraction stabilization."""
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def softmax_xent(
    logits: np.ndarray, labels: np.ndarray
) -> tuple[float, np.ndarray]:
    """Mean cross-entropy loss and its gradient w.r.t. the logits.

    ``labels`` are class indices. The gradient is (softmax - onehot)
    divided by the batch size, matching the mean reduction.
    """
    logits = np.asarray(logits, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    b, k = logits.shape
    if labels.shape != (b,):
        raise ValueError(f"labels shape {labels.shape} does not match batch {b}")
    if labels.size and (labels.min() < 0 or labels.max() >= k):
        raise ValueError(f"labels outside [0, {k})")
    m = logits.max(axis=1)
    lse = m + np.log(np.exp(logits - m[:, None]).sum(axis=1))
    loss = float(np.mean(lse - logits[np.arange(b), labels]))
    dlogits = softmax(logits)
    dlogits[np.arange(b), labels] -= 1.0
    dlogits /= b
    return loss, dlogits


def backward(
    params: MlpParams, cache: list, dlogits: np.ndarray, activation: str = "relu"
) -> MlpParams:
    """Exact gradients of the cached forward pass w.r.t. all parameters.

    The ReLU subgradient at 0 is taken as 0. Returns gradients in the
    same container shape as the parameters.
    """
    if len(cache) != params.n_layers:
        raise ValueError("cache does not match network depth")
    dW = [None] * params.n_layers
    db = [None] * params.n_layers
    dz = np.asarray(dlogits, dtype=np.float64)
    for i in range(params.n_layers - 1, -1, -1):
        a_in, z = cache[i]
        dW[i] = dz.T @ a_in
        db[i] = dz.sum(axis=0)
        if i > 0:
            da = dz @ params.weights[i]
            if activation == "relu":
                _, z_prev = cache[i - 1]
                dz = da * (z_prev > 0.0)
            else:
                dz = da
    return MlpParams(weights=dW, biases=db)


# Elements per pass of the in-place Adam update: two block-sized scratch
# rows stay in cache, and a 125k-parameter net takes 4 passes.
_ADAM_BLOCK = 32768


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

    ``p``, ``m``, ``v`` and ``g`` are contiguous float64 buffers that
    hold, end to end in the order of the flat parameter list, the
    parameters, both moments and the gradients; ``params`` and ``grads``
    are per-tensor views of ``p`` and ``g``, and ``scratch`` holds two
    block-sized work rows. The update is the bias-corrected rule
    p -= lr * m_hat / (sqrt(v_hat) + epsilon).
    """

    params: list[np.ndarray]
    grads: list[np.ndarray]
    p: np.ndarray
    m: np.ndarray
    v: np.ndarray
    g: np.ndarray
    scratch: np.ndarray
    t: int = 0
    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8


def init_adam(
    params: list[np.ndarray],
    lr: float = 1e-3,
    beta1: float = 0.9,
    beta2: float = 0.999,
    epsilon: float = 1e-8,
) -> AdamState:
    """Zero moments and a packed copy of ``params``; train on
    ``state.params`` so that :func:`adam_step` needs no copy-in."""
    shapes = [np.shape(a) for a in params]
    size = sum(int(np.prod(shape)) for shape in shapes)
    p, g = np.empty(size), np.zeros(size)
    state = AdamState(
        params=_views(p, shapes),
        grads=_views(g, shapes),
        p=p,
        m=np.zeros(size),
        v=np.zeros(size),
        g=g,
        scratch=np.empty((2, min(_ADAM_BLOCK, size))),
        lr=lr,
        beta1=beta1,
        beta2=beta2,
        epsilon=epsilon,
    )
    for view, a in zip(state.params, params):
        view[...] = a
    return state


def adam_step(
    state: AdamState, params: list[np.ndarray], grads: list[np.ndarray]
) -> tuple[AdamState, list[np.ndarray]]:
    """One Adam update, in place; returns ``(state, state.params)``.

    Arrays of ``params`` and ``grads`` that are not the state's own
    views are copied into its buffers first, so the caller's arrays are
    read, never written. The update then runs over the packed buffers
    in blocks of ``_ADAM_BLOCK`` elements with no allocation, in the
    textbook order of operations: m = b1*m + (1-b1)*g, v = b2*v +
    ((1-b2)*g)*g, p = p - lr*(m/bc1) / (sqrt(v/bc2) + epsilon). Each
    element therefore gets the same bits as the list-based rule.
    """
    if len(params) != len(state.params) or len(grads) != len(params):
        raise ValueError("params/grads do not match optimizer state")
    for own_p, own_g, p, g in zip(state.params, state.grads, params, grads):
        if np.shape(p) != own_p.shape or np.shape(g) != own_p.shape:
            raise ValueError("params/grads do not match optimizer state")
        if p is not own_p:
            own_p[...] = p
        if g is not own_g:
            own_g[...] = g
    state.t += 1
    b1, b2, lr, eps = state.beta1, state.beta2, state.lr, state.epsilon
    c1, c2 = 1.0 - b1, 1.0 - b2
    bc1 = 1.0 - b1**state.t
    bc2 = 1.0 - b2**state.t
    n = state.p.size
    for lo in range(0, n, _ADAM_BLOCK):
        hi = min(lo + _ADAM_BLOCK, n)
        p, m, v, g = state.p[lo:hi], state.m[lo:hi], state.v[lo:hi], state.g[lo:hi]
        step, denom = state.scratch[0, : hi - lo], state.scratch[1, : hi - lo]
        m *= b1
        np.multiply(g, c1, out=step)
        m += step
        v *= b2
        np.multiply(g, c2, out=step)
        step *= g
        v += step
        np.divide(m, bc1, out=step)
        step *= lr
        np.divide(v, bc2, out=denom)
        np.sqrt(denom, out=denom)
        denom += eps
        step /= denom
        p -= step
    return state, state.params


def check_gradients(
    flat: list[np.ndarray],
    grads: list[np.ndarray],
    loss_and_pattern,
    eps: float = 1e-5,
    max_per_tensor: int = 150,
    seed: int = 0,
    min_grad: float = 1e-5,
    order: int = 2,
) -> float:
    """Max relative error between the analytic gradients ``grads`` and
    central differences over a seeded coordinate sample of ``flat``.

    Sampled coordinates are perturbed in place (and restored) before
    each ``loss_and_pattern()`` call, which returns the loss and a
    comparable pattern of the forward pass's piecewise-linear choices,
    such as which ReLUs are on. Relative error per coordinate is
    |analytic - numeric| / max(1e-8, |analytic| + |numeric|).

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
                f_plus, pat_plus = loss_and_pattern()
                arr.flat[c] = orig - h
                f_minus, pat_minus = loss_and_pattern()
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
    """:func:`check_gradients` for a freshly initialized net of ``spec``
    on the batch (X, y); the pattern is the on/off state of every hidden
    ReLU."""
    params = init_params(spec)
    logits, cache = forward(params, X, spec.activation)
    _, dlogits = softmax_xent(logits, y)
    grads = backward(params, cache, dlogits, spec.activation)

    def loss_and_pattern():
        logits, cache = forward(params, X, spec.activation)
        loss, _ = softmax_xent(logits, y)
        if spec.activation != "relu":
            return loss, ()
        return loss, tuple((z > 0.0).tobytes() for _, z in cache[:-1])

    return check_gradients(params.flat(), grads.flat(), loss_and_pattern,
                           eps, max_per_tensor, seed, min_grad, order)


def fit_adam(
    flat: list[np.ndarray], loss_and_grad, n: int, cfg: TrainConfig
) -> tuple[list[np.ndarray], list[float]]:
    """Seeded mini-batch Adam over a flat parameter list.

    ``loss_and_grad(flat, batch)`` returns the mean loss over the rows
    whose indices are in ``batch`` and its gradient, as a list in the
    order of ``flat``. Batches are sequential slices of a fresh seeded
    permutation of ``range(n)`` per epoch; the last batch may be short.
    ``loss_and_grad`` gets views of the optimizer's packed parameter
    buffer, which every step updates in place. Returns the final
    parameters (those views) and the mean per-example loss of each
    epoch. Raises :class:`TrainingError` if the loss becomes non-finite.
    """
    state = init_adam(flat, lr=cfg.lr)
    flat = state.params
    shuffle_rng = substream(cfg.seed, "shuffle")
    history: list[float] = []
    for epoch in range(cfg.epochs):
        order = shuffle_rng.permutation(n) if cfg.shuffle else np.arange(n)
        total = 0.0
        for start in range(0, n, cfg.batch_size):
            batch = order[start : start + cfg.batch_size]
            loss, grads = loss_and_grad(flat, batch)
            if not np.isfinite(loss):
                raise TrainingError(
                    f"non-finite loss at epoch {epoch + 1}, "
                    f"batch {start // cfg.batch_size + 1}"
                )
            state, flat = adam_step(state, flat, grads)
            total += loss * len(batch)
        history.append(total / n)
    return flat, history


def train(
    spec: NetSpec,
    X: np.ndarray,
    y: np.ndarray,
    cfg: TrainConfig,
) -> tuple[MlpParams, list[float]]:
    """Seeded mini-batch training of a net of ``spec`` with
    :func:`fit_adam`; returns final params and the mean per-example
    loss of each epoch."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    n = X.shape[0]
    if n < 1 or y.shape != (n,):
        raise ValueError("X and y must be nonempty and aligned")

    def loss_and_grad(flat, batch):
        params = MlpParams.from_flat(flat)
        logits, cache = forward(params, X[batch], spec.activation)
        loss, dlogits = softmax_xent(logits, y[batch])
        return loss, backward(params, cache, dlogits, spec.activation).flat()

    flat, history = fit_adam(init_params(spec).flat(), loss_and_grad, n, cfg)
    return MlpParams.from_flat(flat), history

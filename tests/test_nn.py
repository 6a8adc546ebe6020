import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import memesent.nn as nn
from memesent.errors import DataFormatError, TrainingError
from memesent.models.cnn import HsvCnnClassifier
from memesent.models.ffnn import BowFfnnClassifier
from memesent.nn import (
    DEFAULT_HIDDEN,
    NetSpec,
    TrainConfig,
    adam_step,
    backward,
    forward,
    grad_check,
    init_adam,
    init_params,
    param_shapes,
    softmax,
    softmax_xent,
    train,
)


def small_spec(**kw):
    defaults = dict(input_dim=5, hidden=(4, 3), output_dim=3, seed=0,
                    init_mode="scaled")
    defaults.update(kw)
    return NetSpec(**defaults)


def params64(spec):
    """Float64 copies of the float32 parameters of a fresh net of ``spec``;
    forward and backward follow their dtype."""
    return [a.astype(np.float64) for a in init_params(spec)]


# the float32 twins' bound: O(1) activations through a few layers, where
# another summation order moves a result by a few float32 ulps
F32_TOL = 64 * np.finfo(np.float32).eps


# ---------------------------------------------------------------- spec
def test_netspec_defaults():
    spec = NetSpec(input_dim=300)
    assert spec.hidden == DEFAULT_HIDDEN and len(spec.hidden) == 6
    assert spec.widths == (300, 256, 128, 64, 64, 32, 16, 3)


def test_netspec_validation():
    with pytest.raises(ValueError, match="widths"):
        NetSpec(input_dim=0)
    with pytest.raises(ValueError, match="activation"):
        NetSpec(input_dim=3, activation="tanh")
    with pytest.raises(ValueError, match="init_mode"):
        NetSpec(input_dim=3, init_mode="xavier")


def test_netspec_dict_roundtrip():
    spec = small_spec(activation="linear", init_sigma=0.5)
    assert NetSpec.from_dict(spec.to_dict()) == spec


def test_trainconfig_validation():
    with pytest.raises(ValueError):
        TrainConfig(batch_size=0)
    with pytest.raises(ValueError):
        TrainConfig(epochs=0)


# ---------------------------------------------------------------- init
def test_init_deterministic():
    a, b = init_params(small_spec()), init_params(small_spec())
    for wa, wb in zip(a, b):
        np.testing.assert_array_equal(wa, wb)


def test_init_sigma_zero():
    params = init_params(small_spec(init_sigma=0.0))
    assert all(np.all(w == 0) for w in params[0::2])


def test_init_biases_zero():
    assert all(np.all(b == 0) for b in init_params(small_spec())[1::2])


def test_init_normal_statistics():
    # 10^4 draws at sigma=1: loose two-sided bounds on mean and std.
    spec = NetSpec(input_dim=100, hidden=(100,), output_dim=3, seed=0,
                   init_mode="normal", init_sigma=1.0)
    w = init_params(spec)[0].ravel()
    assert w.size == 10_000
    assert abs(w.mean()) < 0.05
    assert 0.95 < w.std() < 1.05


def test_init_scaled_shrinks_by_fan_in():
    normal = init_params(small_spec(init_mode="normal"))[0]
    scaled = init_params(small_spec(init_mode="scaled"))[0]
    np.testing.assert_allclose(scaled, normal / np.sqrt(5), atol=1e-15)


# ---------------------------------------------------------------- forward
def test_forward_zero_params():
    params = init_params(small_spec(init_sigma=0.0))
    logits, _ = forward(params, np.ones((2, 5)))
    np.testing.assert_array_equal(logits, np.zeros((2, 3)))


def test_forward_relu_clamps():
    # single hidden layer with identity weights: negative inputs die
    params = [np.eye(2), np.zeros(2), np.ones((1, 2)), np.zeros(1)]
    logits, _ = forward(params, np.array([[-3.0, -1.0]]), "relu")
    np.testing.assert_array_equal(logits, [[0.0]])
    logits_lin, _ = forward(params, np.array([[-3.0, -1.0]]), "linear")
    np.testing.assert_array_equal(logits_lin, [[-4.0]])


def test_forward_shape_mismatch():
    with pytest.raises(ValueError, match="does not match input width"):
        forward(init_params(small_spec()), np.ones((2, 4)))


def check_forward_batching(params, X, atol):
    full, _ = forward(params, X)
    rows = np.vstack([forward(params, X[i : i + 1])[0] for i in range(len(X))])
    assert full.dtype == rows.dtype == params[0].dtype
    np.testing.assert_allclose(full, rows, atol=atol, rtol=0)


def test_forward_batching_consistency():
    X = np.random.default_rng(0).standard_normal((6, 5))
    check_forward_batching(params64(small_spec()), X, atol=1e-12)


def test_forward_batching_consistency_float32():
    X = np.random.default_rng(0).standard_normal((6, 5))
    check_forward_batching(init_params(small_spec()), X, atol=F32_TOL)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 1000), b=st.integers(1, 5))
def test_forward_batching_property(seed, b):
    X = np.random.default_rng(seed).standard_normal((b, 5))
    check_forward_batching(params64(small_spec(seed=seed)), X, atol=1e-12)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 1000), b=st.integers(1, 5))
def test_forward_batching_property_float32(seed, b):
    X = np.random.default_rng(seed).standard_normal((b, 5))
    check_forward_batching(init_params(small_spec(seed=seed)), X, atol=F32_TOL)


# ---------------------------------------------------------------- loss
def test_softmax_rows_sum_to_one():
    logits = np.random.default_rng(1).standard_normal((50, 3)) * 30
    p = softmax(logits)
    np.testing.assert_allclose(p.sum(axis=1), 1.0, atol=1e-9)
    assert np.all(p >= 0)


def test_softmax_of_scores_wider_than_float64_is_exact_and_silent():
    with np.errstate(over="raise", invalid="raise"):
        p = softmax([[-1.7e308, 1.7e308, 0.0]])
    assert p.tolist() == [[0.0, 1.0, 0.0]]


def test_xent_of_logits_wider_than_float64_is_inf_and_silent():
    # the suite turns NumPy's overflow RuntimeWarning into an error
    loss, dlogits = softmax_xent(np.array([[-1.7e308, 1.7e308, 0.0]]), np.array([0]))
    assert loss == np.inf
    assert dlogits.tolist() == [[-1.0, 1.0, 0.0]]


def test_xent_uniform_logits():
    loss, _ = softmax_xent(np.zeros((4, 3)), np.array([0, 1, 2, 0]))
    assert loss == pytest.approx(np.log(3), abs=1e-12)


def test_xent_confident_correct():
    logits = np.array([[100.0, 0.0, 0.0]])
    loss, _ = softmax_xent(logits, np.array([0]))
    assert 0 <= loss < 1e-6


def test_xent_loss_nonnegative_and_shift_invariant():
    rng = np.random.default_rng(2)
    logits = rng.standard_normal((20, 3)) * 5
    labels = rng.integers(0, 3, 20)
    loss, _ = softmax_xent(logits, labels)
    assert loss >= 0
    shifted, _ = softmax_xent(logits + 123.456, labels)
    assert abs(shifted - loss) < 1e-9


def test_xent_gradient_is_softmax_minus_onehot():
    rng = np.random.default_rng(3)
    logits = rng.standard_normal((6, 3))
    labels = rng.integers(0, 3, 6)
    _, dlogits = softmax_xent(logits, labels)
    onehot = np.eye(3)[labels]
    np.testing.assert_allclose(dlogits, (softmax(logits) - onehot) / 6, atol=1e-15)
    # central finite differences on the logits themselves
    eps = 1e-6
    for i in range(6):
        for j in range(3):
            up, down = logits.copy(), logits.copy()
            up[i, j] += eps
            down[i, j] -= eps
            numeric = (softmax_xent(up, labels)[0] - softmax_xent(down, labels)[0]) / (
                2 * eps
            )
            denom = max(1e-8, abs(numeric) + abs(dlogits[i, j]))
            assert abs(numeric - dlogits[i, j]) / denom < 1e-6


def two_exponential_xent(logits, labels):
    """Cross-entropy with the loss and the gradient from two exponentials,
    the gradient through :func:`softmax`: the oracle of softmax_xent's bits."""
    logits = np.asarray(logits, dtype=np.float64)
    b = logits.shape[0]
    m = logits.max(axis=1)
    with np.errstate(over="ignore"):
        lse = m + np.log(np.exp(logits - m[:, None]).sum(axis=1))
        loss = float(np.mean(lse - logits[np.arange(b), labels]))
    dlogits = softmax(logits)
    dlogits[np.arange(b), labels] -= 1.0
    dlogits /= b
    return loss, dlogits


def test_xent_has_the_two_exponential_bits():
    rng = np.random.default_rng(4)
    batches = [(b, k, scale) for b in (1, 2, 50) for k in (2, 3) for scale in (1.0, 30.0, 1e4)]
    # finite logits near float64's largest: differences overflow and the loss
    # is inf; at 1e300 they do not
    batches += [(1, 3, 1.7e308), (50, 3, 1.7e308), (50, 3, 1e300)]
    infinite = 0
    for b, k, scale in batches:
        for _ in range(20):
            logits = rng.uniform(-1.0, 1.0, (b, k)) * scale
            labels = rng.integers(0, k, b)
            loss, dlogits = softmax_xent(logits, labels)
            want_loss, want_dlogits = two_exponential_xent(logits, labels)
            assert np.float64(loss).tobytes() == np.float64(want_loss).tobytes()
            assert dlogits.tobytes() == want_dlogits.tobytes()
            assert np.array_equal((softmax(logits) - np.eye(k)[labels]) / b, dlogits)
            infinite += loss == np.inf
    assert infinite >= 20


def mean_xent(logits, labels):
    """softmax_xent as written before its one buffer: the loss through
    ``np.mean``, an ``arange`` for each use."""
    logits = np.asarray(logits, dtype=np.float64)
    b = logits.shape[0]
    m = logits.max(axis=1)
    with np.errstate(over="ignore"):
        dlogits = np.exp(logits - m[:, None])
        total = dlogits.sum(axis=1)
        loss = float(np.mean(m + np.log(total) - logits[np.arange(b), labels]))
    dlogits /= total[:, None]
    dlogits[np.arange(b), labels] -= 1.0
    dlogits /= b
    return loss, dlogits


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_xent_has_the_bits_of_the_mean_form(data):
    b, k = data.draw(st.integers(1, 40)), data.draw(st.integers(2, 6))
    dtype = data.draw(st.sampled_from([np.float32, np.float64]))
    # finite logits up to the dtype's largest: their differences can
    # overflow float64, and the loss is then inf
    limit = float(np.finfo(dtype).max)
    scale = data.draw(st.sampled_from([1.0, 30.0, 1e4, 1e300, limit]))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    logits = (rng.uniform(-1.0, 1.0, (b, k)) * min(scale, limit)).astype(dtype)
    labels = rng.integers(0, k, b)
    loss, dlogits = softmax_xent(logits, labels)
    want_loss, want_dlogits = mean_xent(logits, labels)
    assert np.float64(loss).tobytes() == np.float64(want_loss).tobytes()
    assert dlogits.dtype == np.float64 and dlogits.tobytes() == want_dlogits.tobytes()


def test_xent_label_validation():
    with pytest.raises(ValueError, match="outside"):
        softmax_xent(np.zeros((1, 3)), np.array([5]))
    with pytest.raises(ValueError, match="does not match batch"):
        softmax_xent(np.zeros((2, 3)), np.array([0]))


# ---------------------------------------------------------------- backward
def test_backward_zero_dlogits():
    params = init_params(small_spec())
    X = np.ones((2, 5))
    _, cache = forward(params, X)
    grads = backward(params, cache, np.zeros((2, 3)))
    assert all(np.all(g == 0) for g in grads)


def check_duplicated_rows_same_gradient(params, atol):
    rng = np.random.default_rng(4)
    X = rng.standard_normal((3, 5))
    y = np.array([0, 2, 1])
    def grads_of(Xb, yb):
        logits, cache = forward(params, Xb)
        _, d = softmax_xent(logits, yb)
        return backward(params, cache, d)
    g1 = grads_of(X, y)
    g2 = grads_of(np.vstack([X, X]), np.concatenate([y, y]))
    for a, b, p in zip(g1, g2, params):
        assert a.dtype == b.dtype == p.dtype
        np.testing.assert_allclose(a, b, atol=atol)


def test_backward_duplicated_rows_same_gradient():
    check_duplicated_rows_same_gradient(params64(small_spec()), atol=1e-12)


def test_backward_duplicated_rows_same_gradient_float32():
    check_duplicated_rows_same_gradient(init_params(small_spec()), atol=F32_TOL)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_backward_into_out_is_the_allocating_call(dtype):
    params = [a.astype(dtype) for a in init_params(small_spec())]
    X, y = np.random.default_rng(6).standard_normal((4, 5)), np.array([0, 2, 1, 1])
    logits, cache = forward(params, X)
    _, dlogits = softmax_xent(logits, y)
    fresh = backward(params, cache, dlogits)
    out = [np.full_like(p, np.nan) for p in params]
    got = backward(params, cache, dlogits, out=out)
    assert got is out
    for a, b in zip(got, fresh):
        assert a.dtype == b.dtype == dtype and np.array_equal(a, b)


def pre_activation_passes(params, X, dlogits):
    """forward and backward as written before ReLU ran in place: the cache
    held each layer's input and its pre-activation, and the mask read it."""
    a, cache = np.asarray(X, dtype=params[0].dtype), []
    last = len(params) // 2 - 1
    for i, (W, b) in enumerate(zip(params[0::2], params[1::2])):
        z = a @ W.T
        z += b
        cache.append((a, z))
        a = np.maximum(z, 0.0) if i < last else z
    dz, grads = np.asarray(dlogits, dtype=params[0].dtype), [None] * len(params)
    for i in range(len(cache) - 1, -1, -1):
        grads[2 * i] = dz.T @ cache[i][0]
        grads[2 * i + 1] = dz.sum(axis=0)
        if i > 0:
            dz = (dz @ params[2 * i]) * (cache[i - 1][1] > 0.0)
    return a, grads


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), b=st.integers(1, 20),
       dtype=st.sampled_from([np.float32, np.float64]))
def test_in_place_relu_has_the_bits_of_the_pre_activation_cache(seed, b, dtype):
    rng = np.random.default_rng(seed)
    params = [a.astype(dtype) for a in init_params(small_spec(seed=seed % 1000))]
    # biases too, so that pre-activations of either sign reach every unit
    params[1::2] = [rng.standard_normal(p.shape).astype(dtype) for p in params[1::2]]
    X = rng.standard_normal((b, 5))
    logits, cache = forward(params, X)
    _, dlogits = softmax_xent(logits, rng.integers(0, 3, b))
    want_logits, want_grads = pre_activation_passes(params, X, dlogits)
    assert logits.tobytes() == want_logits.tobytes()
    for got, want in zip(backward(params, cache, dlogits), want_grads):
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    # a hidden layer's cached output is the next layer's input
    assert all(cache[i][1] is cache[i + 1][0] for i in range(len(cache) - 1))


def test_backward_cache_mismatch():
    params = init_params(small_spec())
    with pytest.raises(ValueError, match="depth"):
        backward(params, [], np.zeros((1, 3)))


# ---------------------------------------------------------------- adam
def adam_step_on(state, grads):
    """Write ``grads`` into the state's gradient views, as a backward pass
    does, and step on them."""
    for own, g in zip(state.grads, grads, strict=True):
        own[...] = g
    adam_step(state, state.grads)


def test_adam_first_step_is_signed_lr():
    # deviation from lr*sign(g) is lr*eps/(|g|+eps), so |g| >> 1e-2 here
    for g in (0.3, -2.0, 17.0):
        state = init_adam([np.zeros(1)], lr=1e-3)
        adam_step_on(state, [np.array([g])])
        (p,) = state.params
        assert abs(p[0] - (-1e-3 * np.sign(g))) < 1e-6 * 1e-3


def test_adam_zero_gradient_never_moves():
    state = init_adam([np.array([1.5, -2.5])])
    for _ in range(50):
        adam_step(state, state.grads)
    np.testing.assert_array_equal(state.params[0], [1.5, -2.5])
    assert state.t == 50


def test_adam_bitwise_reproducible():
    rng = np.random.default_rng(5)
    grads = [rng.standard_normal((3, 2)) for _ in range(100)]
    def run():
        state = init_adam([np.ones((3, 2))], lr=0.01)
        for g in grads:
            adam_step_on(state, [g])
        return state.params[0]
    np.testing.assert_array_equal(run(), run())


def textbook_adam(params, grad_steps, lr=1e-3, b1=0.9, b2=0.999, eps=1e-8):
    """The textbook Adam rule, bias-corrected moments and epsilon added to
    sqrt(v_hat), a fresh array per operation."""
    m = [np.zeros_like(p) for p in params]
    v = [np.zeros_like(p) for p in params]
    for t, grads in enumerate(grad_steps, start=1):
        bc1 = 1.0 - b1**t
        bc2 = 1.0 - b2**t
        for i, g in enumerate(grads):
            m[i] = b1 * m[i] + (1.0 - b1) * g
            v[i] = b2 * v[i] + (1.0 - b2) * g * g
            m_hat = m[i] / bc1
            v_hat = v[i] / bc2
            params[i] = params[i] - lr * m_hat / (np.sqrt(v_hat) + eps)
    return params


def list_adam(params, grad_steps, lr=1e-3, b1=0.9, b2=0.999, eps=1e-8):
    """The folded Adam rule on the scaled moments m/(1-b1) and v/(1-b2),
    a fresh array per operation in the in-place step's order of
    operations: the oracle of that step."""
    m = [np.zeros_like(p) for p in params]
    v = [np.zeros_like(p) for p in params]
    for t, grads in enumerate(grad_steps, start=1):
        s = math.sqrt((1.0 - b2**t) / (1.0 - b2))
        alpha = lr * (1.0 - b1) * s / (1.0 - b1**t)
        eps_t = eps * s
        for i, g in enumerate(grads):
            m[i] = b1 * m[i] + g
            v[i] = b2 * v[i] + g * g
            params[i] = params[i] - alpha * m[i] / (np.sqrt(v[i]) + eps_t)
    return params


ADAM_SHAPES = [(1,), (200, 200), (7, 3), (5,)]  # 40,000 > one block


def adam_start(dtype):
    return [np.random.default_rng(1).standard_normal(s).astype(dtype) for s in ADAM_SHAPES]


def adam_grad_steps(dtype):
    """300 steps of gradients from 1e-4 to 1e2 in scale, some all zero."""
    rng = np.random.default_rng(2)
    for step in range(300):
        scale = 0.0 if step % 50 == 7 else 10.0 ** rng.integers(-4, 3)
        yield [(rng.standard_normal(s) * scale).astype(dtype) for s in ADAM_SHAPES]


def check_adam_in_place_matches_list_rule(dtype):
    assert 200 * 200 > nn._ADAM_BLOCK
    start = adam_start(dtype)
    expected = list_adam([p.copy() for p in start], adam_grad_steps(dtype), lr=0.01)
    state = init_adam(start, lr=0.01)
    assert all(buf.dtype == dtype for buf in (state.p, state.m, state.v, state.g,
                                               state.scratch))
    for grads in adam_grad_steps(dtype):
        adam_step_on(state, grads)
    assert state.t == 300
    for got, want in zip(state.params, expected):
        assert got.dtype == want.dtype == dtype
        assert np.array_equal(got, want)


def test_adam_in_place_matches_list_rule():
    check_adam_in_place_matches_list_rule(np.float64)


def test_adam_in_place_matches_list_rule_float32():
    check_adam_in_place_matches_list_rule(np.float32)


def test_folded_adam_is_the_textbook_rule():
    """In float64 the folded rule and the textbook rule differ only by
    rounding, epsilon's place included."""
    start = adam_start(np.float64)
    folded = list_adam([p.copy() for p in start], adam_grad_steps(np.float64), lr=0.01)
    textbook = textbook_adam([p.copy() for p in start], adam_grad_steps(np.float64), lr=0.01)
    for got, want in zip(folded, textbook):
        np.testing.assert_allclose(got, want, rtol=1e-10, atol=0)


def test_adam_reads_grads_and_updates_state_params_in_place():
    params = [np.ones((2, 3)), np.zeros(4)]
    grads = [np.full((2, 3), 0.5), np.full(4, -0.25)]
    state = init_adam(params)
    views, p = list(state.params), state.p
    for own, g in zip(state.grads, grads):
        own[...] = g
    assert adam_step(state, state.grads) is None
    # the caller's params were copied at init and the state's grads are read only
    assert np.array_equal(params[0], np.ones((2, 3))) and np.array_equal(params[1], np.zeros(4))
    assert np.array_equal(state.grads[0], np.full((2, 3), 0.5))
    assert np.array_equal(state.grads[1], np.full(4, -0.25))
    # the step moved the state's own views of its one buffer
    assert state.p is p and all(a is b for a, b in zip(state.params, views))
    assert all(np.shares_memory(a, state.p) for a in state.params)
    assert state.p.size == 10 and state.p.flags.c_contiguous
    np.testing.assert_allclose(state.params[0], 1.0 - 1e-3, rtol=1e-6)
    np.testing.assert_allclose(state.params[1], 1e-3, rtol=1e-6)


def test_adam_rejects_a_foreign_gradient_list():
    state = init_adam([np.ones((3, 2)), np.zeros(4)], lr=0.01)
    state.g[:] = 0.5
    # right-shaped copies, and a new list of the state's own views
    for foreign in ([g.copy() for g in state.grads], list(state.grads)):
        with pytest.raises(ValueError, match="own gradient views"):
            adam_step(state, foreign)
    assert state.t == 0 and not state.m.any() and (state.p[:6] == 1.0).all()


def fit_counting_subnormal_moments(monkeypatch, flush_every=None):
    """A 1,000-step fit of a net with dead ReLU units, with the flush
    every ``flush_every`` steps (None: the module's period); its
    parameters, the count of nonzero m~ entries below the dtype's least
    normal after every 50th step, and the count of dead units."""
    if flush_every is not None:
        monkeypatch.setattr(nn, "_ADAM_FLUSH_EVERY", flush_every)
    counts, step = [], nn.adam_step

    def counting_step(state, grads):
        step(state, grads)
        if state.t % 50 == 0:
            m = np.abs(state.m)
            counts.append(int(((m > 0) & (m < np.finfo(m.dtype).tiny)).sum()))

    monkeypatch.setattr(nn, "adam_step", counting_step)
    rng = np.random.default_rng(0)
    X, y = rng.standard_normal((200, 10)), rng.integers(0, 3, 200)
    spec = small_spec(input_dim=10, hidden=(16, 16, 16))
    params, _ = train(spec, X, y, TrainConfig(batch_size=20, epochs=100, lr=0.05))
    _, cache = forward(params, X)
    dead = sum(int((z <= 0.0).all(axis=0).sum()) for _, z in cache[:-1])
    monkeypatch.undo()
    return params, counts, dead


def test_adam_flush_keeps_the_bytes_and_the_moments_normal(monkeypatch):
    flushed, flushed_counts, dead = fit_counting_subnormal_moments(monkeypatch)
    kept, kept_counts, _ = fit_counting_subnormal_moments(monkeypatch, 1001)
    assert dead > 0 and len(kept_counts) == len(flushed_counts) == 20
    assert kept_counts[-1] > 100  # without the flush, dead units' moments turn subnormal
    assert flushed_counts == [0] * 20
    for got, want in zip(flushed, kept, strict=True):
        assert got.tobytes() == want.tobytes()


def test_adam_shape_mismatch():
    state = init_adam([np.zeros(2)])
    with pytest.raises(ValueError, match="optimizer state"):
        adam_step(state, [np.zeros(2), np.zeros(3)])
    for wrong in (np.zeros(3), np.zeros(1), np.zeros((2, 1))):  # (1,) would broadcast
        with pytest.raises(ValueError, match="optimizer state"):
            adam_step(state, [wrong])
    assert state.t == 0 and not state.g.any()


# ---------------------------------------------------------------- grad check
def graddata(n=8, dim=300, seed=0):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((n, dim)), rng.integers(0, 3, n)


def test_grad_check_narrow_deep_net():
    X, y = graddata()
    spec = NetSpec(input_dim=300, hidden=(8,) * 6, output_dim=3, seed=0,
                   init_mode="scaled")
    assert grad_check(spec, X, y, eps=1e-5) < 1e-4


def test_grad_check_linear_mode():
    X, y = graddata()
    spec = NetSpec(input_dim=300, hidden=(8,) * 6, output_dim=3, seed=0,
                   activation="linear", init_mode="scaled")
    assert grad_check(spec, X, y, eps=1e-3, order=4) < 1e-7


def test_grad_check_catches_corruption(monkeypatch):
    X, y = graddata()
    spec = NetSpec(input_dim=300, hidden=(8,) * 6, output_dim=3, seed=0,
                   init_mode="scaled")
    real = nn.backward
    def corrupted(params, cache, dlogits, activation="relu", out=None):
        grads = real(params, cache, dlogits, activation, out=out)
        grads[4] = np.zeros_like(grads[4])  # W2
        return grads
    monkeypatch.setattr(nn, "backward", corrupted)
    assert nn.grad_check(spec, X, y, eps=1e-5) > 1e-2


def test_grad_check_runs_on_float64_copies(monkeypatch):
    X, y = graddata()
    spec = NetSpec(input_dim=300, hidden=(8,) * 6, output_dim=3, seed=0,
                   init_mode="scaled")
    assert all(a.dtype == np.float32 for a in init_params(spec))
    seen = []  # the dtypes of the checked parameters, then of their gradients
    real_check, real_backward = nn.check_gradients, nn.backward
    def recording(flat, *args):
        seen.extend(a.dtype for a in flat)
        return real_check(flat, *args)
    def backward(*args, **kwargs):
        grads = real_backward(*args, **kwargs)
        seen.extend(g.dtype for g in grads)
        return grads
    monkeypatch.setattr(nn, "check_gradients", recording)
    monkeypatch.setattr(nn, "backward", backward)
    assert nn.grad_check(spec, X, y, eps=1e-5) < 1e-4
    assert len(seen) == 2 * len(init_params(spec))
    assert set(seen) == {np.dtype(np.float64)}


def test_grad_check_rejects_bad_order():
    X, y = graddata()
    with pytest.raises(ValueError, match="order"):
        grad_check(small_spec(), X[:, :5], y, order=3)


# ---------------------------------------------------------------- training
def toy_problem(n=60, seed=0):
    """Linearly separable 3-class blobs in 5 dimensions."""
    rng = np.random.default_rng(seed)
    centers = np.array(
        [[4, 0, 0, 0, 0], [0, 4, 0, 0, 0], [0, 0, 4, 0, 0]], dtype=float
    )
    y = rng.integers(0, 3, n)
    X = centers[y] + rng.standard_normal((n, 5)) * 0.3
    return X, y


def test_train_bit_identical():
    X, y = toy_problem()
    spec = small_spec()
    cfg = TrainConfig(batch_size=16, epochs=3, seed=9)
    p1, h1 = train(spec, X, y, cfg)
    p2, h2 = train(spec, X, y, cfg)
    assert h1 == h2
    for a, b in zip(p1, p2):
        np.testing.assert_array_equal(a, b)


def test_train_loss_decreases():
    X, y = toy_problem()
    spec = small_spec()
    _, history = train(spec, X, y, TrainConfig(batch_size=10, epochs=25, lr=0.01))
    assert len(history) == 25
    assert history[-1] < history[0] * 0.5


def test_train_short_last_batch():
    X, y = toy_problem(n=7)
    _, history = train(small_spec(), X, y, TrainConfig(batch_size=3, epochs=1))
    assert len(history) == 1 and np.isfinite(history[0])


def test_train_no_shuffle_deterministic_order():
    X, y = toy_problem(n=20)
    cfg = TrainConfig(batch_size=5, epochs=2, shuffle=False, seed=0)
    p1, _ = train(small_spec(), X, y, cfg)
    p2, _ = train(small_spec(), X, y, cfg)
    for a, b in zip(p1, p2):
        np.testing.assert_array_equal(a, b)


def test_train_nonfinite_loss_reports_position():
    X, y = toy_problem(n=6)
    X[0, 0] = np.inf
    with np.errstate(invalid="ignore"):
        with pytest.raises(TrainingError, match="epoch 1, batch 1"):
            train(small_spec(), X, y,
                  TrainConfig(batch_size=6, epochs=1, shuffle=False))


def test_train_empty_rejected():
    with pytest.raises(ValueError, match="nonempty"):
        train(small_spec(), np.zeros((0, 5)), np.zeros(0, dtype=int), TrainConfig())


@pytest.mark.parametrize("fit", [
    pytest.param(lambda y: train(small_spec(), np.zeros((5, 5)), y, TrainConfig()), id="train"),
    pytest.param(lambda y: BowFfnnClassifier(hidden=(4,), epochs=1).fit(
        [["alpha", "bravo"]] * 5, y), id="ffnn_bow"),
    pytest.param(lambda y: HsvCnnClassifier(epochs=1).fit(np.zeros((5, 32, 32, 3)), y),
                 id="cnn_hsv"),
])
def test_fits_share_fit_adams_alignment_check(fit):
    # 5 rows, 4 labels: the one check, in fit_adam, for every net it trains
    with pytest.raises(ValueError, match="nonempty and aligned"):
        fit(np.array([0, 1, 2, 0]))


# ---------------------------------------------------------------- persistence
def test_params_roundtrip_bit_exact(tmp_path):
    from memesent.base import checked_arrays
    from memesent.persist import load_container, save_container

    X, y = toy_problem()
    spec = small_spec()
    params, _ = train(spec, X, y, TrainConfig(epochs=1))
    path = tmp_path / "net.msnt"
    save_container(path, {"spec": spec.to_dict()}, dict(zip(param_shapes(spec), params)))
    header, arrays = load_container(path)
    assert list(arrays) == ["W0", "b0", "W1", "b1", "W2", "b2"]
    spec2 = NetSpec.from_dict(header["spec"])
    params2 = checked_arrays(arrays, param_shapes(spec2), path, dtype=np.float32)
    assert spec2 == spec
    for a, b in zip(params, params2):
        np.testing.assert_array_equal(a, b)
    # identical predictions after reload
    np.testing.assert_array_equal(forward(params, X)[0], forward(params2, X)[0])


def test_params_same_seed_same_file(tmp_path):
    from memesent.persist import save_container

    X, y = toy_problem()
    spec = small_spec()
    cfg = TrainConfig(epochs=2, seed=4)
    paths = []
    for name in ("one.msnt", "two.msnt"):
        params, _ = train(spec, X, y, cfg)
        path = tmp_path / name
        save_container(path, {"spec": spec.to_dict()}, dict(zip(param_shapes(spec), params)))
        paths.append(path.read_bytes())
    assert paths[0] == paths[1]


def test_load_params_missing_array(tmp_path):
    from memesent.base import checked_arrays

    spec = small_spec()
    arrays = dict(zip(param_shapes(spec), init_params(spec)))
    del arrays["b1"]
    with pytest.raises(DataFormatError, match="міssing.msnt: missing parameter array 'b1'"):
        checked_arrays(arrays, param_shapes(spec), "міssing.msnt")

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import memesent.nn as nn
from memesent.errors import DataFormatError, TrainingError
from memesent.nn import (
    DEFAULT_HIDDEN,
    AdamState,
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


def test_backward_cache_mismatch():
    params = init_params(small_spec())
    with pytest.raises(ValueError, match="depth"):
        backward(params, [], np.zeros((1, 3)))


# ---------------------------------------------------------------- adam
def test_adam_first_step_is_signed_lr():
    # deviation from lr*sign(g) is lr*eps/(|g|+eps), so |g| >> 1e-2 here
    for g in (0.3, -2.0, 17.0):
        state = init_adam([np.zeros(1)], lr=1e-3)
        adam_step(state, [np.array([g])])
        (p,) = state.params
        assert abs(p[0] - (-1e-3 * np.sign(g))) < 1e-6 * 1e-3


def test_adam_zero_gradient_never_moves():
    state = init_adam([np.array([1.5, -2.5])])
    for _ in range(50):
        adam_step(state, [np.zeros(2)])
    np.testing.assert_array_equal(state.params[0], [1.5, -2.5])
    assert state.t == 50


def test_adam_bitwise_reproducible():
    rng = np.random.default_rng(5)
    grads = [rng.standard_normal((3, 2)) for _ in range(100)]
    def run():
        state = init_adam([np.ones((3, 2))], lr=0.01)
        for g in grads:
            adam_step(state, [g])
        return state.params[0]
    np.testing.assert_array_equal(run(), run())


def list_adam(params, grad_steps, lr=1e-3, b1=0.9, b2=0.999, eps=1e-8):
    """The list-based Adam rule, a fresh array per operation: the oracle
    of the in-place step."""
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


def check_adam_in_place_matches_list_rule(dtype):
    shapes = [(1,), (200, 200), (7, 3), (5,)]  # 40,000 > one block
    assert 200 * 200 > nn._ADAM_BLOCK
    start = [np.random.default_rng(1).standard_normal(s).astype(dtype) for s in shapes]

    def grad_steps():
        rng = np.random.default_rng(2)
        for step in range(300):
            scale = 0.0 if step % 50 == 7 else 10.0 ** rng.integers(-4, 3)
            yield [(rng.standard_normal(s) * scale).astype(dtype) for s in shapes]

    expected = list_adam([p.copy() for p in start], grad_steps(), lr=0.01)
    state = init_adam(start, lr=0.01)
    assert all(buf.dtype == dtype for buf in (state.p, state.m, state.v, state.g,
                                               state.scratch))
    for grads in grad_steps():
        adam_step(state, grads)
    assert state.t == 300
    for got, want in zip(state.params, expected):
        assert got.dtype == want.dtype == dtype
        assert np.array_equal(got, want)


def test_adam_in_place_matches_list_rule():
    check_adam_in_place_matches_list_rule(np.float64)


def test_adam_in_place_matches_list_rule_float32():
    check_adam_in_place_matches_list_rule(np.float32)


def test_adam_reads_grads_and_updates_state_params_in_place():
    params = [np.ones((2, 3)), np.zeros(4)]
    grads = [np.full((2, 3), 0.5), np.full(4, -0.25)]
    state = init_adam(params)
    views, p = list(state.params), state.p
    assert adam_step(state, grads) is None
    # the caller's params were copied at init and its grads are read only
    assert np.array_equal(params[0], np.ones((2, 3))) and np.array_equal(params[1], np.zeros(4))
    assert np.array_equal(grads[0], np.full((2, 3), 0.5))
    assert np.array_equal(grads[1], np.full(4, -0.25))
    # the step moved the state's own views of its one buffer
    assert state.p is p and all(a is b for a, b in zip(state.params, views))
    assert all(np.shares_memory(a, state.p) for a in state.params)
    assert state.p.size == 10 and state.p.flags.c_contiguous
    np.testing.assert_allclose(state.params[0], 1.0 - 1e-3, rtol=1e-6)
    np.testing.assert_allclose(state.params[1], 1e-3, rtol=1e-6)


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
    def corrupted(params, cache, dlogits, activation="relu"):
        grads = real(params, cache, dlogits, activation)
        grads[4] = np.zeros_like(grads[4])  # W2
        return grads
    monkeypatch.setattr(nn, "backward", corrupted)
    assert nn.grad_check(spec, X, y, eps=1e-5) > 1e-2


def test_grad_check_runs_on_float64_copies(monkeypatch):
    X, y = graddata()
    spec = NetSpec(input_dim=300, hidden=(8,) * 6, output_dim=3, seed=0,
                   init_mode="scaled")
    assert all(a.dtype == np.float32 for a in init_params(spec))
    seen = []
    real = nn.check_gradients
    def recording(flat, grads, *args):
        seen.extend(a.dtype for a in flat + grads)
        return real(flat, grads, *args)
    monkeypatch.setattr(nn, "check_gradients", recording)
    assert nn.grad_check(spec, X, y, eps=1e-5) < 1e-4
    assert seen and set(seen) == {np.dtype(np.float64)}


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

"""Convolutional image branch: gradients, pooling, training."""

import tracemalloc
import warnings

import numpy as np
import pytest

from _util import hue_band_tensors
from memesent.errors import DataFormatError, NumericError
from memesent.models.cnn import (
    HsvCnnClassifier,
    cnn_grad_check,
    _PREDICT_BLOCK,
    _conv,
    _input_grad,
    _kernel_grads,
    _pool_relu,
    _pool_relu_backward,
    Workspace,
    cnn_backward,
    cnn_forward,
    init_cnn_params,
)
import memesent.models.cnn as cnn_mod
import memesent.nn as nn
from memesent.nn import TrainConfig, init_adam, softmax_xent


def cnn_train(T, y, cfg=TrainConfig()):
    return HsvCnnClassifier(**vars(cfg)).fit(T, y)


def fresh(name, shape, dtype=np.float64):
    """A new array for every intermediate: what a workspace saves."""
    return np.empty(shape, dtype)


def batch_last(X):
    """(n, C, H, W) to the module's (C, H, W, n) layout."""
    return np.ascontiguousarray(X.transpose(1, 2, 3, 0))


def batch_first(X):
    return X.transpose(3, 0, 1, 2)


def conv_forward(X, K, b):
    """Valid convolution; X (n, C, H, W), K (OC, C, kh, kw)."""
    return batch_first(_conv(batch_last(X), K, b, fresh)[0])


def small_batch(n=4, seed=0):
    rng = np.random.default_rng(seed)
    T = rng.random((n, 32, 32, 3))
    y = np.array([i % 3 for i in range(n)])
    return T, y


class TestConvOracle:
    def test_hand_convolution(self):
        # 1 sample, 1 channel, 3x3 input, one 3x3 kernel -> 1x1 output
        X = np.arange(9, dtype=np.float64).reshape(1, 1, 3, 3)
        K = np.ones((1, 1, 3, 3))
        out = conv_forward(X, K, np.array([0.5]))
        assert out.shape == (1, 1, 1, 1)
        assert out[0, 0, 0, 0] == 36.5  # sum(0..8) + bias

    def test_valid_output_size(self):
        X = np.zeros((2, 3, 32, 32))
        K = np.zeros((8, 3, 3, 3))
        out = conv_forward(X, K, np.zeros(8))
        assert out.shape == (2, 8, 30, 30)


def einsum_conv_forward(X, K, b):
    """Reference convolution: one einsum per kernel offset."""
    n, C, H, W = X.shape
    OC, _, kh, kw = K.shape
    OH, OW = H - kh + 1, W - kw + 1
    out = np.zeros((n, OC, OH, OW))
    for u in range(kh):
        for v in range(kw):
            patch = X[:, :, u : u + OH, v : v + OW]
            out += np.einsum("ncij,oc->noij", patch, K[:, :, u, v])
    return out + b[None, :, None, None]


def einsum_conv_backward(dout, X, K):
    n, C, H, W = X.shape
    OC, _, kh, kw = K.shape
    OH, OW = dout.shape[2], dout.shape[3]
    dK = np.zeros_like(K)
    dX = np.zeros_like(X)
    for u in range(kh):
        for v in range(kw):
            patch = X[:, :, u : u + OH, v : v + OW]
            dK[:, :, u, v] = np.einsum("noij,ncij->oc", dout, patch)
            dX[:, :, u : u + OH, v : v + OW] += np.einsum(
                "noij,oc->ncij", dout, K[:, :, u, v]
            )
    db = dout.sum(axis=(0, 2, 3))
    return dX, dK, db


class TestIm2colKernels:
    # (n, C, H, W, OC): batch 1, odd and even sizes, both layers' shapes
    SHAPES = [(1, 3, 32, 32, 8), (5, 8, 15, 15, 16), (1, 2, 7, 9, 3),
              (4, 1, 3, 3, 2), (3, 3, 10, 5, 4)]

    @pytest.mark.parametrize("n,C,H,W,OC", SHAPES)
    def test_matches_einsum_oracle(self, n, C, H, W, OC):
        rng = np.random.default_rng(n * 1000 + H * 10 + W)
        X = rng.standard_normal((n, C, H, W))
        K = rng.standard_normal((OC, C, 3, 3))
        b = rng.standard_normal(OC)
        # one GEMM over the whole batch for the output and each gradient
        out, cols = _conv(batch_last(X), K, b, fresh)
        ref = einsum_conv_forward(X, K, b)
        assert batch_first(out).shape == ref.shape
        assert np.abs(batch_first(out) - ref).max() < 1e-12
        dout = rng.standard_normal(ref.shape)
        dK, db = np.full_like(K, np.nan), np.full(OC, np.nan)
        _kernel_grads(batch_last(dout), cols, dK, db)
        dX = batch_first(_input_grad(batch_last(dout), K, batch_last(X).shape, fresh))
        rdX, rdK, rdb = einsum_conv_backward(dout, X, K)
        assert np.abs(dX - rdX).max() < 1e-12
        assert np.abs(dK - rdK).max() < 1e-12
        assert np.abs(db - rdb).max() < 1e-12


def loop_pool_relu(Z, dout):
    """Reference: ReLU then 2x2 max-pool of (C, H, W, n) ``Z`` by plain
    loops, each window's first maximum in window order winning, and the
    gradient ``dout`` routed to it through the ReLU."""
    C, H, W, n = Z.shape
    out = np.zeros((C, H // 2, W // 2, n))
    dZ = np.zeros_like(Z)
    for c, i, j, s in np.ndindex(out.shape):
        window = [(2 * i + u, 2 * j + v) for u, v in ((0, 0), (0, 1), (1, 0), (1, 1))]
        relu = [max(Z[c, h, w, s], 0.0) for h, w in window]
        k = relu.index(max(relu))
        out[c, i, j, s] = relu[k]
        h, w = window[k]
        if Z[c, h, w, s] > 0.0:
            dZ[c, h, w, s] = dout[c, i, j, s]
    return out, dZ


def pool_and_route(Z, dout):
    out, masks = _pool_relu(Z, fresh)
    return out, _pool_relu_backward(dout, masks, Z.shape, fresh)


def tied_windows(C, H, W, n, seed):
    """Values from a set of five, so that many windows hold ties."""
    rng = np.random.default_rng(seed)
    return rng.choice([-2.0, -1.0, 0.0, 1.0, 2.0], size=(C, H, W, n))


class TestPooling:
    def test_first_max_wins_ties(self):
        # equal maxima at (0,1) and (1,0): the first in window order wins
        Z = np.array([[1.0, 5.0], [5.0, 3.0]]).reshape(1, 2, 2, 1)
        out, grad = pool_and_route(Z, np.ones((1, 1, 1, 1)))
        assert out[0, 0, 0, 0] == 5.0
        assert grad[0, :, :, 0].tolist() == [[0.0, 1.0], [0.0, 0.0]]

    def test_odd_edge_dropped(self):
        Z = np.arange(25, dtype=np.float64).reshape(1, 5, 5, 1)
        out, grad = pool_and_route(Z, np.ones((1, 2, 2, 1)))
        assert out.shape == (1, 2, 2, 1)
        # last row/col (indices 4) never contribute
        assert out.max() == 18.0
        assert grad[0, 4, :, 0].tolist() == [0.0] * 5
        assert grad[0, :, 4, 0].tolist() == [0.0] * 5

    def test_constant_regions_route_to_the_first_element(self):
        Z = np.full((2, 4, 6, 3), 0.7)
        out, grad = pool_and_route(Z, np.ones((2, 2, 3, 3)))
        assert np.all(out == 0.7)
        assert np.array_equal(grad[:, 0::2, 0::2], np.ones((2, 2, 3, 3)))
        assert grad.sum() == out.size

    def test_all_negative_windows_have_zero_gradient(self):
        Z = -np.arange(1.0, 1.0 + 2 * 4 * 4 * 2).reshape(2, 4, 4, 2)
        out, grad = pool_and_route(Z, np.ones((2, 2, 2, 2)))
        assert np.all(out == 0.0)
        assert np.all(grad == 0.0)

    @pytest.mark.parametrize("C,H,W,n", [(2, 13, 13, 3), (1, 5, 5, 2), (3, 6, 5, 4),
                                         (2, 4, 8, 1), (8, 30, 30, 2)])
    def test_matches_loop_reference(self, C, H, W, n):
        Z = tied_windows(C, H, W, n, seed=H * W + n)
        dout = np.random.default_rng(n).standard_normal((C, H // 2, W // 2, n))
        out, grad = pool_and_route(Z, dout)
        ref_out, ref_grad = loop_pool_relu(Z, dout)
        assert np.array_equal(out, ref_out)
        assert np.array_equal(grad, ref_grad)


class TestGradients:
    def test_finite_difference_check(self):
        T, y = small_batch()
        params = init_cnn_params(seed=3)
        err = cnn_grad_check(params, T, y, eps=1e-5, max_per_tensor=8, seed=1)
        assert err < 1e-4

    def test_finite_difference_check_on_tied_pools(self):
        # a flat 24x24 square makes about half the pooling pairs ties
        T, y = hue_band_tensors(n=6, seed=7)
        T[:, 4:28, 4:28] = T[:, 4:5, 4:5]
        params = init_cnn_params(seed=3)
        err = cnn_grad_check(params, T, y, eps=1e-5, max_per_tensor=8, seed=1)
        assert err < 1e-4

    def test_corrupted_backward_detected(self, monkeypatch):
        original = cnn_mod.cnn_backward

        def broken(params, cache, dlogits, new=None, out=None):
            grads = original(params, cache, dlogits, new, out=out)
            grads[2][:] = 0.0  # K2
            return grads

        monkeypatch.setattr(cnn_mod, "cnn_backward", broken)
        T, y = small_batch()
        params = init_cnn_params(seed=3)
        err = cnn_mod.cnn_grad_check(params, T, y, max_per_tensor=8, seed=1)
        assert err > 1e-2

    def test_loss_gradient_shapes(self):
        T, y = small_batch()
        params = init_cnn_params(seed=0)
        logits, cache = cnn_forward(params, T)
        _, dlogits = softmax_xent(logits, y)
        grads = cnn_backward(params, cache, dlogits)
        for p, g in zip(params, grads):
            assert p.shape == g.shape


class TestWorkspace:
    @staticmethod
    def step(params, T, y, new, out=None):
        logits, cache = cnn_forward(params, T, new)
        _, dlogits = softmax_xent(logits, y)
        return logits, cnn_backward(params, cache, dlogits, new, out=out)

    def test_same_bits_as_fresh_arrays(self):
        params = init_cnn_params(seed=2)
        workspace = Workspace()
        # 5 rows make the arrays; the 3-row step (a short last batch)
        # and the next 5-row step reuse them
        for n, seed in ((5, 0), (3, 1), (5, 2)):
            T, y = small_batch(n=n, seed=seed)
            logits, grads = self.step(params, T, y, workspace)
            ref_logits, ref_grads = self.step(params, T, y, fresh)
            # written into Adam's views, the allocating call's bits
            state = init_adam(params)
            _, into = self.step(params, T, y, workspace, out=state.grads)
            assert into is state.grads
            assert np.array_equal(logits, ref_logits)
            for g, g_into, ref in zip(grads, into, ref_grads, strict=True):
                assert g.dtype == g_into.dtype == ref.dtype
                assert np.array_equal(g, ref) and np.array_equal(g_into, ref)

    def test_fit_step_holds_only_the_forward_buffers(self, monkeypatch):
        workspaces = []

        class Recorded(Workspace):
            def __init__(self):
                super().__init__()
                workspaces.append(self)

        monkeypatch.setattr(cnn_mod, "Workspace", Recorded)
        T, y = hue_band_tensors(n=16, seed=0)
        HsvCnnClassifier(batch_size=16, epochs=1).fit(T, y)  # one step
        (fitted,) = workspaces
        forward_only = Workspace()
        cnn_forward(init_cnn_params(seed=0), T, forward_only)
        assert sorted(fitted) == sorted(forward_only) and len(fitted) == 15
        # 7.05 MiB; with buffers of its own, the backward pass adds 8 arrays, 3.8 MiB
        assert sum(a.nbytes for a in fitted.values()) == 7_393_280
        assert sum(a.nbytes for a in forward_only.values()) == 7_393_280

    def test_reused_step_allocates_little(self):
        T, y = small_batch(n=16)
        params = init_cnn_params(seed=0)
        peaks = []
        for new in (fresh, Workspace()):
            self.step(params, T, y, new)
            tracemalloc.start()
            try:
                self.step(params, T, y, new)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        # measured 9.1 MB fresh, 0.6 MB with the workspace
        assert peaks[1] < peaks[0] / 4

    def test_short_last_batch_reuses_the_full_batch_memory(self):
        peaks = []
        for n in (32, 21):  # two batches of 16, then 16 and 5
            T, y = hue_band_tensors(n=n, seed=n)
            tracemalloc.start()
            try:
                HsvCnnClassifier(batch_size=16, epochs=1).fit(T, y)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        # arrays kept per batch shape would add the 5-row set's memory
        assert peaks[1] <= peaks[0] * 1.1


class TestTraining:
    def test_hue_band_classes_learned(self):
        T, y = hue_band_tensors(n=30, seed=0)
        model = cnn_train(T, y, TrainConfig(epochs=15, batch_size=10, lr=3e-3))
        assert (model.predict(T) == y).mean() >= 0.95

    def test_same_seed_identical_model(self):
        T, y = hue_band_tensors(n=12, seed=1)
        cfg = TrainConfig(epochs=2, batch_size=6, seed=4)
        a = cnn_train(T, y, cfg)
        b = cnn_train(T, y, cfg)
        for pa, pb in zip(a.params_, b.params_):
            assert np.array_equal(pa, pb)

    def test_backward_writes_into_adams_own_views(self, monkeypatch):
        states, outs, steps = [], [], []
        real_init, real_backward, real_step = nn.init_adam, cnn_mod.cnn_backward, nn.adam_step

        def init(params, lr):
            states.append(real_init(params, lr))
            return states[-1]

        def backward(params, cache, dlogits, new=None, out=None):
            outs.append(out)
            return real_backward(params, cache, dlogits, new, out)

        def step(state, grads):
            steps.append(grads is state.grads)
            real_step(state, grads)

        monkeypatch.setattr(nn, "init_adam", init)
        monkeypatch.setattr(cnn_mod, "cnn_backward", backward)
        monkeypatch.setattr(nn, "adam_step", step)
        T, y = hue_band_tensors(n=10, seed=5)
        model = cnn_train(T, y, TrainConfig(epochs=2, batch_size=4))
        (state,) = states
        assert len(outs) == len(steps) == 6  # 3 batches, the last short, 2 epochs
        assert all(out is state.grads for out in outs) and all(steps)
        assert all(p is q for p, q in zip(model.params_, state.params, strict=True))

    def test_loss_history_decreases(self):
        T, y = hue_band_tensors(n=30, seed=2)
        model = cnn_train(T, y, TrainConfig(epochs=15, batch_size=10, lr=3e-3))
        assert model.history_[-1] < model.history_[0]

    def test_probability_rows(self):
        T, y = hue_band_tensors(n=9, seed=3)
        model = cnn_train(T, y, TrainConfig(epochs=1, batch_size=9))
        probs = model.predict_proba(T)
        assert probs.shape == (9, 3)
        assert np.all(np.abs(probs.sum(axis=1) - 1.0) < 1e-6)

    def test_overflowing_logits_raise_numeric_error(self):
        T, y = hue_band_tensors(n=9, seed=3)
        model = cnn_train(T, y, TrainConfig(epochs=1, batch_size=9))
        # every kernel and weight matrix at 1e200: finite, but the logits overflow
        model.params_ = [np.full_like(p, 1e200) if p.ndim > 1 else p for p in model.params_]
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no NumPy warning escapes
            with pytest.raises(NumericError, match="the net's logits are not finite"):
                model.predict_proba(T)

    def test_save_load_bit_exact(self, tmp_path):
        T, y = hue_band_tensors(n=9, seed=4)
        model = cnn_train(T, y, TrainConfig(epochs=1, batch_size=9))
        path = tmp_path / "cnn.bin"
        model.save(path)
        back = HsvCnnClassifier.load(path)
        assert np.array_equal(back.predict_proba(T), model.predict_proba(T))


class TestBlockedPrediction:
    def test_blocks_survive_save_load(self, tmp_path):
        T, y = hue_band_tensors(n=2 * _PREDICT_BLOCK + 7, seed=5)
        model = cnn_train(T, y, TrainConfig(epochs=1, batch_size=50))
        path = tmp_path / "cnn.bin"
        model.save(path)
        back = HsvCnnClassifier.load(path)
        probs = model.predict_proba(T)
        assert np.array_equal(back.predict_proba(T), probs)
        logits, _ = cnn_forward(model.params_, T)  # one full-batch pass
        full = np.exp(logits - logits.max(axis=1, keepdims=True))
        full /= full.sum(axis=1, keepdims=True)
        assert np.abs(probs - full).max() < 1e-12

    def test_memory_bounded_by_block(self):
        n = 512
        model = HsvCnnClassifier()
        model.params_ = init_cnn_params(seed=0)
        T = np.random.default_rng(6).random((n, 32, 32, 3))
        full_patch_bytes = n * 3 * 3 * 3 * 30 * 30 * 8  # conv1 patch matrix, ~100 MB
        tracemalloc.start()
        try:
            probs = model.predict_proba(T)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert probs.shape == (n, 3)
        assert peak < full_patch_bytes / 4


class TestValidation:
    def test_wrong_tensor_shape(self):
        with pytest.raises(ValueError):
            cnn_train(np.zeros((4, 16, 16, 3)), [0, 1, 2, 0])

    def test_nonfinite_tensor_rejected(self):
        T, y = small_batch()
        T[0, 0, 0, 0] = np.inf
        with pytest.raises(ValueError):
            cnn_train(T, y)

    def test_label_length_mismatch(self):
        T, _ = small_batch()
        with pytest.raises(ValueError):
            cnn_train(T, [0, 1])

    def test_load_rejects_other_kinds(self, tmp_path):
        from memesent.persist import save_container

        path = tmp_path / "bad.bin"
        save_container(path, {"kind": "naive-bayes"}, {"a": np.zeros(1)})
        with pytest.raises(DataFormatError):
            HsvCnnClassifier.load(path)

    def test_load_missing_array(self, tmp_path):
        T, y = small_batch()
        model = HsvCnnClassifier(epochs=1).fit(T, y)
        path = tmp_path / "cnn.bin"
        model.save(path)
        from memesent.persist import load_container, save_container

        header, arrays = load_container(path)
        del arrays["W4"]
        save_container(path, header, arrays)
        with pytest.raises(DataFormatError):
            HsvCnnClassifier.load(path)

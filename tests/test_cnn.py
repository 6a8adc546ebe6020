"""Convolutional image branch: gradients, pooling, training."""

import tracemalloc

import numpy as np
import pytest

from _util import hue_band_tensors
from memesent.errors import DataFormatError
from memesent.models import HsvCnnClassifier, cnn_grad_check
from memesent.models.cnn import (
    _PREDICT_BLOCK,
    CnnParams,
    _fresh,
    _conv_backward,
    _conv_forward,
    _im2col,
    _pool_backward,
    _pool_forward,
    Workspace,
    cnn_backward,
    cnn_forward,
    init_cnn_params,
)
from memesent.nn import TrainConfig, softmax_xent


def cnn_train(T, y, cfg=TrainConfig()):
    return HsvCnnClassifier(**vars(cfg)).fit(T, y)


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
        out = _conv_forward(X, K, np.array([0.5]))
        assert out.shape == (1, 1, 1, 1)
        assert out[0, 0, 0, 0] == 36.5  # sum(0..8) + bias

    def test_valid_output_size(self):
        X = np.zeros((2, 3, 32, 32))
        K = np.zeros((8, 3, 3, 3))
        out = _conv_forward(X, K, np.zeros(8))
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
        out = _conv_forward(X, K, b)
        ref = einsum_conv_forward(X, K, b)
        assert out.shape == ref.shape
        assert np.abs(out - ref).max() < 1e-12
        dout = rng.standard_normal(out.shape)
        cols = _im2col(X, 3, 3)
        dX, dK, db = _conv_backward(dout, cols, K, X.shape)
        rdX, rdK, rdb = einsum_conv_backward(dout, X, K)
        assert np.abs(dX - rdX).max() < 1e-12
        assert np.abs(dK - rdK).max() < 1e-12
        assert np.abs(db - rdb).max() < 1e-12
        no_dX, dK_again, _ = _conv_backward(dout, cols, K)
        assert no_dX is None
        assert np.array_equal(dK_again, dK)


class TestPooling:
    def test_first_max_wins_ties(self):
        X = np.zeros((1, 1, 2, 2))
        X[0, 0] = [[5.0, 5.0], [3.0, 1.0]]
        out, idx = _pool_forward(X)
        assert out[0, 0, 0, 0] == 5.0
        assert idx[0, 0, 0, 0] == 0  # window order: (0,0),(0,1),(1,0),(1,1)
        grad = _pool_backward(np.ones((1, 1, 1, 1)), idx, X.shape)
        assert grad[0, 0].tolist() == [[1.0, 0.0], [0.0, 0.0]]

    def test_odd_edge_dropped(self):
        X = np.arange(25, dtype=np.float64).reshape(1, 1, 5, 5)
        out, idx = _pool_forward(X)
        assert out.shape == (1, 1, 2, 2)
        # last row/col (indices 4) never contribute
        assert out.max() == 18.0
        grad = _pool_backward(np.ones((1, 1, 2, 2)), idx, X.shape)
        assert grad[0, 0, 4, :].tolist() == [0.0] * 5
        assert grad[0, 0, :, 4].tolist() == [0.0] * 5


class TestGradients:
    def test_finite_difference_check(self):
        T, y = small_batch()
        params = init_cnn_params(seed=3)
        err = cnn_grad_check(params, T, y, eps=1e-5, max_per_tensor=8, seed=1)
        assert err < 1e-4

    def test_corrupted_backward_detected(self, monkeypatch):
        import memesent.models.cnn as cnn_mod

        original = cnn_mod.cnn_backward

        def broken(params, cache, dlogits):
            grads = original(params, cache, dlogits)
            grads.K2[:] = 0.0
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
        for p, g in zip(params.flat(), grads.flat()):
            assert p.shape == g.shape


class TestWorkspace:
    @staticmethod
    def step(params, T, y, new):
        logits, cache = cnn_forward(params, T, new)
        _, dlogits = softmax_xent(logits, y)
        return logits, cnn_backward(params, cache, dlogits, new)

    def test_same_bits_as_fresh_arrays(self):
        params = init_cnn_params(seed=2)
        workspace = Workspace()
        # 5 rows make the arrays; the 3-row step (a short last batch)
        # and the next 5-row step reuse them
        for n, seed in ((5, 0), (3, 1), (5, 2)):
            T, y = small_batch(n=n, seed=seed)
            logits, grads = self.step(params, T, y, workspace)
            ref_logits, ref_grads = self.step(params, T, y, _fresh)
            assert np.array_equal(logits, ref_logits)
            for g, ref in zip(grads.flat(), ref_grads.flat()):
                assert np.array_equal(g, ref)

    def test_reused_step_allocates_little(self):
        T, y = small_batch(n=16)
        params = init_cnn_params(seed=0)
        peaks = []
        for new in (_fresh, Workspace()):
            self.step(params, T, y, new)
            tracemalloc.start()
            try:
                self.step(params, T, y, new)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        # measured 10.7 MB fresh, 1.3 MB with the workspace
        assert peaks[1] < peaks[0] / 4


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
        for pa, pb in zip(a.params_.flat(), b.params_.flat()):
            assert np.array_equal(pa, pb)

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

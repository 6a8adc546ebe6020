"""The caption nets and the CNN predict through one block loop,
``nn.predict_blocks``, with the bits and the forward calls of the two
loops that each model once ran for itself (copied below as references)."""

import numpy as np
import pytest

from memesent import nn
from memesent.models import cnn, ffnn
from memesent.models.bow import BowVocab
from memesent.models.ffnn import BowFfnnClassifier, Word2vecFfnnClassifier, _net_params

DENSE_ROWS = (0, 1, 27, 28, 31, 32, 33, 64, 1023, 1024, 2047, 2048, 3079)
CNN_ROWS = tuple(n for n in DENSE_ROWS if n <= 200) + (200,)


def dense_reference(model, X):
    """The caption nets' own loop: ``max(n // 1024, 1)`` blocks of even size."""
    n = len(X)
    blocks = max(n // 1024, 1)
    probs = []
    for i in range(blocks):
        block = X[i * n // blocks : (i + 1) * n // blocks]
        probs.append(nn.softmax(nn.finite_logits(lambda: ffnn.forward(
            model.params_, model._features(block, fitting=False), model.spec_.activation)[0])))
    return probs[0] if blocks == 1 else np.concatenate(probs)


def cnn_reference(model, T):
    """The CNN's own loop: blocks of 32 rows, the last one short."""
    T = cnn._check_tensors(T)
    workspace = cnn.Workspace()
    probs = np.empty((len(T), 3))
    for start in range(0, len(T), 32):
        block = T[start : start + 32]
        logits = nn.finite_logits(lambda: cnn.cnn_forward(model.params_, block, workspace)[0])
        probs[start : start + 32] = nn.softmax(logits)
    return probs


def dense_model(kind, n, width=40):
    """A ``kind`` net at seeded random weights (its last hidden layer 32
    wide, the widest case of the small-matrix kernel) and ``n`` rows."""
    model = kind(hidden=(64, 32))
    model.spec_ = nn.NetSpec(input_dim=width, **_net_params(model))
    rng = np.random.default_rng(1)
    model.params_ = [rng.standard_normal(p.shape).astype(np.float32)
                     for p in nn.init_params(model.spec_)]
    if kind is Word2vecFfnnClassifier:
        return model, rng.standard_normal((n, width)).astype(np.float32)
    model.vocab_ = BowVocab(words=tuple(f"w{i}" for i in range(width)))
    return model, [[f"w{j}" for j in rng.integers(0, width + 10, size=6)] for _ in range(n)]


def cnn_model(n):
    model = cnn.HsvCnnClassifier()
    model.params_ = cnn.init_cnn_params(seed=3)
    return model, np.random.default_rng(2).random((n, 32, 32, 3))


def outcome(monkeypatch, module, name, predict, *inputs):
    """The bits ``predict`` returns, or the exception it raises, and the
    row count of each call of ``module.name``, the net's forward pass."""
    calls = []
    forward = getattr(module, name)

    def counted(params, X, *args):
        calls.append(len(X))
        return forward(params, X, *args)

    monkeypatch.setattr(module, name, counted)
    try:
        probs = predict(*inputs)
        result = (probs.shape, probs.dtype, probs.view(np.uint64).tobytes())
    except Exception as exc:  # the same exception, as type and message
        result = (type(exc), str(exc))
    monkeypatch.setattr(module, name, forward)
    return result, calls


@pytest.mark.parametrize("kind", [BowFfnnClassifier, Word2vecFfnnClassifier])
@pytest.mark.parametrize("n", DENSE_ROWS)
def test_dense_nets_keep_their_bits_and_blocks(monkeypatch, kind, n):
    model, rows = dense_model(kind, n)
    new = outcome(monkeypatch, ffnn, "forward", model.predict_proba, rows)
    old = outcome(monkeypatch, ffnn, "forward", lambda X: dense_reference(model, X), rows)
    assert new == old


@pytest.mark.parametrize("n", CNN_ROWS)
def test_cnn_keeps_its_bits_and_blocks(monkeypatch, n):
    model, T = cnn_model(n)
    new = outcome(monkeypatch, cnn, "cnn_forward", model.predict_proba, T)
    old = outcome(monkeypatch, cnn, "cnn_forward", lambda T: cnn_reference(model, T), T)
    assert new == old


@pytest.mark.parametrize("case", ["w2v_list_of_no_rows", "w2v_wrong_width", "cnn_overflow"])
def test_the_same_exception(monkeypatch, case):
    if case == "cnn_overflow":
        model, T = cnn_model(40)
        model.params_ = [np.full_like(p, 1e200) if p.ndim > 1 else p for p in model.params_]
        args = (cnn, "cnn_forward", model.predict_proba, T)
        reference = (cnn, "cnn_forward", lambda T: cnn_reference(model, T), T)
    else:
        model, rows = dense_model(Word2vecFfnnClassifier, 30)
        rows = [] if case == "w2v_list_of_no_rows" else rows[:, :-1]
        args = (ffnn, "forward", model.predict_proba, rows)
        reference = (ffnn, "forward", lambda X: dense_reference(model, X), rows)
    new = outcome(monkeypatch, *args)
    assert new == outcome(monkeypatch, *reference)
    assert isinstance(new[0][0], type) and issubclass(new[0][0], Exception)

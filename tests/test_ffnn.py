"""Embedding- and bag-of-words-fed dense classifiers, end to end."""

import functools
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import memesent.nn as nn
from _util import (
    fuzz_settings,
    pinned_environment_differences,
    synthetic_corpus,
    write_word2vec_binary,
)
from memesent import cli
from memesent.config import RunConfig
from memesent.corpus import Dataset, MemeRecord, save_dataset, stratified_split
from memesent.embeddings import EmbeddingTable, embed_corpus
from memesent.errors import DataFormatError, NotFittedError, NumericError
from memesent.eval import macro_f1
from memesent.models.bow import BowVocab
from memesent.models.ffnn import (
    _PREDICT_BLOCK,
    BowFfnnClassifier,
    Word2vecFfnnClassifier,
    _net_params,
)
from memesent.persist import load_container, save_container
from memesent.textprep import preprocess


def tokens(captions):
    return [preprocess(c) for c in captions]


def pooled(captions, table):
    """The Word2Vec net's input rows: the captions' pooled embeddings."""
    return embed_corpus(tokens(captions), table)


def fit_synthetic(seed=0, n=300):
    ds, table = synthetic_corpus(n=n)
    train, val = stratified_split(ds, 0.8, seed=0)
    model = Word2vecFfnnClassifier(seed=seed).fit(
        pooled(train.captions(), table), [int(l) for l in train.labels()]
    )
    return model, table, train, val


@functools.cache
def float64_payload():
    """A fitted Word2Vec net's header and arrays, widened to float64 as
    model files were saved before the nets trained in float32."""
    header, arrays = fit_synthetic(n=60)[0]._payload()
    return header, {name: a.astype(np.float64) for name, a in arrays.items()}


def float64_model_file(path, name_index: int, position: int, value: bytes):
    """:func:`float64_payload` saved to ``path`` with one entry of one
    array replaced by the float64 of the 8 bytes ``value``."""
    header, arrays = float64_payload()
    arrays = {name: a.copy() for name, a in arrays.items()}
    flat = arrays[sorted(arrays)[name_index % len(arrays)]].reshape(-1).view("<u8")
    flat[position % flat.size] = np.frombuffer(value, "<u8")[0]
    save_container(path, header, arrays)
    return path


SIGNALLING_NAN_F8 = bytes.fromhex("010000000000f07f")


class TestWord2vecFfnn:
    def test_separable_corpus_validation_f1(self):
        model, table, _, val = fit_synthetic()
        preds = model.predict(pooled(val.captions(), table))
        rep = macro_f1(preds, [int(l) for l in val.labels()])
        assert rep.macro_f1 >= 0.95

    def test_probability_rows(self):
        model, table, *_ = fit_synthetic(n=60)
        probs = model.predict_proba(pooled(["alpha bravo", "golf hotel india"], table))
        assert probs.shape == (2, 3)
        assert np.all(probs >= 0)
        assert np.all(np.abs(probs.sum(axis=1) - 1.0) < 1e-6)

    def test_single_caption_prediction(self):
        model, table, *_ = fit_synthetic(n=60)
        row = model.predict_proba(pooled(["delta echo echo"], table))[0]
        assert row.shape == (3,)
        twice = model.predict_proba(pooled(["delta echo echo"], table))[0]
        assert np.array_equal(row, twice)

    def test_same_seed_same_predictions(self):
        a, table, *_ = fit_synthetic(seed=5, n=90)
        b, *_ = fit_synthetic(seed=5, n=90)
        X = pooled(["alpha charlie", "foxtrot delta", "juliet golf"], table)
        assert np.array_equal(a.predict_proba(X), b.predict_proba(X))

    def test_different_seed_different_weights(self):
        a, *_ = fit_synthetic(seed=1, n=60)
        b, *_ = fit_synthetic(seed=2, n=60)
        assert not np.array_equal(a.params_[0], b.params_[0])  # W0

    def test_all_oov_caption_flagged(self, caplog, tmp_path):
        model, table, *_ = fit_synthetic(n=60)
        ds = Dataset((MemeRecord(id="x", caption="zzz qqq www"),))
        write_word2vec_binary(table, tmp_path / "vectors.bin")
        cfg = RunConfig(embeddings=str(tmp_path / "vectors.bin"))
        with caplog.at_level("WARNING", logger="memesent.cli"):
            (M,), _ = cli._inputs(Word2vecFfnnClassifier, cfg, ds, tmp_path)
            row = model.predict_proba(M)[0]
        assert "1 have no in-vocabulary tokens" in caplog.text
        assert np.abs(row.sum() - 1.0) < 1e-6  # zero vector still scores

    def test_save_load_bit_exact(self, tmp_path):
        model, table, _, val = fit_synthetic(n=90)
        path = tmp_path / "w2v.bin"
        model.save(path)
        back = Word2vecFfnnClassifier.load(path)
        X = pooled(val.captions(), table)
        assert np.array_equal(back.predict_proba(X), model.predict_proba(X))

    def test_load_accepts_a_saved_table_source(self, tmp_path):
        model, table, _, val = fit_synthetic(n=60)
        header, arrays = model._payload()
        assert header["table"] == {"dim": table.dim}
        header["table"]["source"] = "vectors.bin#binary"  # as earlier versions saved
        path = tmp_path / "old.bin"
        save_container(path, header, arrays)
        back = Word2vecFfnnClassifier.load(path)
        X = pooled(val.captions(), table)
        assert np.array_equal(back.predict_proba(X), model.predict_proba(X))

    def test_load_checks_table_dim(self, tmp_path, capsys):
        model, table, _, val = fit_synthetic(n=60)
        path = tmp_path / "w2v.bin"
        model.save(path)
        wrong = EmbeddingTable(("x",), np.zeros((1, table.dim + 2)))
        write_word2vec_binary(wrong, tmp_path / "wrong.bin")
        save_dataset(val, tmp_path / "val.csv")
        rc = cli.main(["predict", "--model", str(path), "--dataset", str(tmp_path / "val.csv"),
                       "--embeddings", str(tmp_path / "wrong.bin"), "--out", str(tmp_path / "p")])
        assert rc == 2  # a DataFormatError that names the model file
        assert capsys.readouterr().err.splitlines()[-1] == (
            f"error: {path}: model expects {table.dim}-dimensional embeddings, "
            f"table has dim {table.dim + 2}")

    @pytest.mark.parametrize("bad", [
        pytest.param(lambda X: [["alpha", "bravo"], ["golf"]], id="token_lists"),
        pytest.param(lambda X: [["alpha", "bravo"]] * len(X), id="equal_token_lists"),
        pytest.param(lambda X: X[:, 0], id="one_dimensional"),
        pytest.param(lambda X: np.where(np.arange(X.size).reshape(X.shape) == 3, np.nan, X),
                     id="nan"),
        pytest.param(lambda X: np.where(np.arange(X.size).reshape(X.shape) == 3, np.inf, X),
                     id="inf"),
        pytest.param(lambda X: np.where(np.arange(X.size).reshape(X.shape) == 3, -np.inf, X),
                     id="neg_inf"),
        pytest.param(lambda X: X.astype(np.float64) * 1e300, id="beyond_float32"),
    ])
    def test_fit_and_predict_take_only_finite_pooled_rows(self, bad):
        model, table, train, val = fit_synthetic(n=60)
        y = [int(l) for l in train.labels()]
        X = bad(pooled(train.captions(), table))
        with pytest.raises(ValueError):
            Word2vecFfnnClassifier(epochs=1).fit(X, y[:len(X)])
        with pytest.raises(ValueError):
            model.predict_proba(bad(pooled(val.captions(), table)))

    def test_predict_rejects_rows_of_another_width(self):
        model, table, _, val = fit_synthetic(n=60)
        X = pooled(val.captions(), table)
        with pytest.raises(ValueError, match="features, expected 8"):
            model.predict_proba(np.hstack([X, X]))
        with pytest.raises(ValueError, match="tokenize captions"):
            model.predict_proba(tokens(val.captions()))


class TestFloat32:
    """The dense nets train, save and predict in float32."""

    def test_fit_produces_float32(self, monkeypatch):
        states = []
        real = nn.init_adam
        def recording(params, lr):
            states.append(real(params, lr))
            return states[-1]
        monkeypatch.setattr(nn, "init_adam", recording)
        model, table, train, _ = fit_synthetic(n=60)
        assert all(a.dtype == np.float32 for a in model.params_)
        (state,) = states
        assert state.m.dtype == state.v.dtype == state.p.dtype == np.float32
        X = pooled(train.captions(), table).astype(np.float64)
        assert model._features(X, fitting=False).dtype == np.float32
        assert model.predict_proba(X).dtype == np.float64

    def test_model_file_holds_f4_weights(self, tmp_path):
        model, *_ = fit_synthetic(n=60)
        model.save(tmp_path / "m.bin")
        _, arrays = load_container(tmp_path / "m.bin")
        assert sorted({a.dtype.str for a in arrays.values()}) == ["<f4"]

    def test_float64_model_file_loads_and_predicts(self, tmp_path):
        model, table, _, val = fit_synthetic(n=60)
        header, arrays = model._payload()
        # as saved before the nets trained in float32, off the float32 grid
        wide = {name: a.astype(np.float64) * (1 + 1e-12) for name, a in arrays.items()}
        save_container(tmp_path / "old.bin", header, wide)
        back = Word2vecFfnnClassifier.load(tmp_path / "old.bin")
        # the cast rounds each weight back to the float32 it was saved from
        assert all(a.dtype == np.float32 and np.array_equal(a, b)
                   for a, b in zip(back.params_, model.params_))
        probs = back.predict_proba(pooled(val.captions(), table))
        assert np.isfinite(probs).all() and np.abs(probs.sum(axis=1) - 1).max() < 1e-9
        assert np.array_equal(probs.argmax(axis=1), model.predict(pooled(val.captions(), table)))

    def test_signalling_nan_in_a_float64_model_file_fails_typed_and_silent(self, tmp_path):
        # casting a signalling NaN down to float32 raises the CPU's invalid
        # flag, which NumPy reports as a RuntimeWarning
        path = float64_model_file(tmp_path / "m.bin", 0, 0, SIGNALLING_NAN_F8)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DataFormatError, match="holds non-finite values"):
                Word2vecFfnnClassifier.load(path)

    @fuzz_settings
    @example(name_index=0, position=0, value=SIGNALLING_NAN_F8)
    @given(name_index=st.integers(0, 63), position=st.integers(0, 2**20),
           value=st.binary(min_size=8, max_size=8))
    def test_fuzzed_float64_model_file_loads_or_fails_typed(self, tmp_path, name_index,
                                                            position, value):
        path = float64_model_file(tmp_path / "m.bin", name_index, position, value)
        try:
            Word2vecFfnnClassifier.load(path)
        except DataFormatError:
            pass

    def test_overflowing_logits_raise_typed(self):
        model, table, _, val = fit_synthetic(n=60)
        model.params_ = [np.full_like(a, 1e30) for a in model.params_]
        with np.errstate(all="raise"), pytest.raises(NumericError, match="not finite"):
            model.predict_proba(pooled(val.captions(), table))


class TestBowFfnn:
    def fit(self, seed=0):
        ds, _ = synthetic_corpus(n=120)
        model = BowFfnnClassifier(hidden=(16,), epochs=30, seed=seed)
        return model.fit(tokens(ds.captions()), [int(l) for l in ds.labels()]), ds

    def test_learns_separable_corpus(self):
        model, ds = self.fit()
        preds = model.predict(tokens(ds.captions()))
        golds = np.array([int(l) for l in ds.labels()])
        assert (preds == golds).mean() >= 0.95

    def test_vocab_from_training_data(self):
        model, _ = self.fit()
        assert set(model.vocab_.words) <= {
            "alpha", "bravo", "charlie", "delta", "echo",
            "foxtrot", "golf", "hotel", "india", "juliet",
        }

    def test_save_load_bit_exact(self, tmp_path):
        model, ds = self.fit()
        path = tmp_path / "bow.bin"
        model.save(path)
        back = BowFfnnClassifier.load(path)
        X = tokens(ds.captions()[:10])
        assert back.vocab_.words == model.vocab_.words
        assert np.array_equal(back.predict_proba(X), model.predict_proba(X))

    def test_no_token_after_preprocessing(self):
        # stopwords only: the vocabulary would be empty
        model = BowFfnnClassifier(hidden=(4,), epochs=1)
        with pytest.raises(DataFormatError, match="no caption has a token left"):
            model.fit(tokens(["the", "a is", "the a"]), [0, 1, 2])


def initialized(kind, n, width=300, seed=0):
    """A ``kind`` model with the default net at its seeded initial
    weights, and ``n`` random rows of input for it, ``width`` wide."""
    model = kind()
    model.spec_ = nn.NetSpec(input_dim=width, **_net_params(model))
    model.params_ = nn.init_params(model.spec_)
    rng = np.random.default_rng(seed)
    if kind is Word2vecFfnnClassifier:
        return model, rng.standard_normal((n, width)).astype(np.float32)
    model.vocab_ = BowVocab(words=tuple(f"w{i}" for i in range(width)))
    return model, [[f"w{j}" for j in rng.integers(0, width + 50, size=8)] for _ in range(n)]


@pytest.mark.parametrize("kind", [Word2vecFfnnClassifier, BowFfnnClassifier])
class TestBlockedPrediction:
    """predict_proba builds features and runs the net one block of
    ``_PREDICT_BLOCK`` rows at a time."""

    def test_same_bits_as_one_pass(self, kind):
        differs = pinned_environment_differences()
        if differs:  # the block size is checked against this environment's BLAS
            pytest.skip("bytes pinned in another environment: " + "; ".join(differs))
        model, rows = initialized(kind, n=3 * _PREDICT_BLOCK + 7)
        X = model._features(rows, fitting=False)
        whole = nn.softmax(nn.forward(model.params_, X, model.spec_.activation)[0])
        assert np.array_equal(model.predict_proba(rows), whole)

    def test_memory_bounded_by_block(self, kind):
        peaks = []
        for n in (_PREDICT_BLOCK, 4 * _PREDICT_BLOCK):
            model, rows = initialized(kind, n=n)
            tracemalloc.start()
            try:
                model.predict_proba(rows)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        # one pass over all rows would hold four times the block's memory
        assert peaks[1] <= 1.5 * peaks[0]

    def test_zero_rows(self, kind):
        model, rows = initialized(kind, n=0)
        assert model.predict_proba(rows).shape == (0, 3)


class TestMlpClassifier:
    """The dense net that both caption classifiers share."""

    def test_fit_predict_shapes(self):
        X = tokens([f"word{i % 3} other{i % 5}" for i in range(30)])
        y = np.array([i % 3 for i in range(30)])
        model = BowFfnnClassifier(hidden=(8,), epochs=5).fit(X, y)
        assert model.predict(X).shape == (30,)
        assert model.predict_proba(X).shape == (30, 3)

    def test_unfitted_raises(self):
        for model, X in ((BowFfnnClassifier(), [["word"]]),
                         (Word2vecFfnnClassifier(), np.ones((1, 4), dtype=np.float32))):
            with pytest.raises(NotFittedError):
                model.predict_proba(X)

    def test_get_params_round_trip(self):
        model = BowFfnnClassifier(vocab_size=7, hidden=(9, 9), lr=0.01, seed=4)
        clone = BowFfnnClassifier(**model.get_params())
        assert clone.get_params() == model.get_params()

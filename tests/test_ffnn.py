"""Embedding- and bag-of-words-fed dense classifiers, end to end."""

import numpy as np
import pytest

from _util import synthetic_corpus
from memesent.corpus import stratified_split
from memesent.embeddings import EmbeddingTable
from memesent.errors import DataFormatError, NotFittedError
from memesent.eval import macro_f1
from memesent.models import (
    BowFfnnClassifier,
    MlpClassifier,
    Word2vecFfnnClassifier,
    ffnn_w2v_train,
)
from memesent.nn import NetSpec, TrainConfig
from memesent.persist import save_container


def fit_synthetic(seed=0, n=300):
    ds, table = synthetic_corpus(n=n)
    train, val = stratified_split(ds, 0.8, seed=0)
    model = ffnn_w2v_train(
        train.captions(),
        [int(l) for l in train.labels()],
        table,
        cfg=TrainConfig(seed=seed),
    )
    return model, table, train, val


class TestWord2vecFfnn:
    def test_separable_corpus_validation_f1(self):
        model, _, _, val = fit_synthetic()
        preds = model.predict(val.captions())
        rep = macro_f1(preds, [int(l) for l in val.labels()])
        assert rep.macro_f1 >= 0.95

    def test_probability_rows(self):
        model, *_ = fit_synthetic(n=60)
        probs = model.predict_proba(["alpha bravo", "golf hotel india"])
        assert probs.shape == (2, 3)
        assert np.all(probs >= 0)
        assert np.all(np.abs(probs.sum(axis=1) - 1.0) < 1e-6)

    def test_single_caption_prediction(self):
        model, *_ = fit_synthetic(n=60)
        row = model.predict_proba(["delta echo echo"])[0]
        assert row.shape == (3,)
        twice = model.predict_proba(["delta echo echo"])[0]
        assert np.array_equal(row, twice)

    def test_same_seed_same_predictions(self):
        a, *_ = fit_synthetic(seed=5, n=90)
        b, *_ = fit_synthetic(seed=5, n=90)
        X = ["alpha charlie", "foxtrot delta", "juliet golf"]
        assert np.array_equal(a.predict_proba(X), b.predict_proba(X))

    def test_different_seed_different_weights(self):
        a, *_ = fit_synthetic(seed=1, n=60)
        b, *_ = fit_synthetic(seed=2, n=60)
        assert not np.array_equal(a.params_.weights[0], b.params_.weights[0])

    def test_all_oov_caption_flagged(self, caplog):
        model, _, train, _ = fit_synthetic(n=60)
        fitted = model.coverage_
        with caplog.at_level("WARNING", logger="memesent.models.ffnn"):
            row = model.predict_proba(["zzz qqq www"])[0]
        assert "1 have no in-vocabulary tokens" in caplog.text
        assert model.coverage_ is fitted  # prediction leaves fitted state alone
        assert fitted.n_captions == len(train) and fitted.n_all_oov == 0
        assert np.abs(row.sum() - 1.0) < 1e-6  # zero vector still scores

    def test_spec_table_dim_mismatch(self):
        ds, table = synthetic_corpus(n=30)
        bad_spec = NetSpec(input_dim=table.dim + 1)
        with pytest.raises(DataFormatError):
            ffnn_w2v_train(
                ds.captions(), [int(l) for l in ds.labels()], table, spec=bad_spec
            )

    def test_save_load_bit_exact(self, tmp_path):
        model, table, _, val = fit_synthetic(n=90)
        path = tmp_path / "w2v.bin"
        model.save(path)
        back = Word2vecFfnnClassifier.load(path, table)
        X = val.captions()
        assert np.array_equal(back.predict_proba(X), model.predict_proba(X))

    def test_load_accepts_a_saved_table_source(self, tmp_path):
        model, table, _, val = fit_synthetic(n=60)
        header, arrays = model._payload()
        assert header["table"] == {"dim": table.dim}
        header["table"]["source"] = "vectors.bin#binary"  # as earlier versions saved
        path = tmp_path / "old.bin"
        save_container(path, header, arrays)
        back = Word2vecFfnnClassifier.load(path, table)
        X = val.captions()
        assert np.array_equal(back.predict_proba(X), model.predict_proba(X))

    def test_load_checks_table_dim(self, tmp_path):
        model, table, *_ = fit_synthetic(n=60)
        path = tmp_path / "w2v.bin"
        model.save(path)
        wrong = EmbeddingTable(
            dim=table.dim + 2,
            vectors={"x": np.zeros(table.dim + 2)},
        )
        with pytest.raises(DataFormatError):
            Word2vecFfnnClassifier.load(path, wrong)


class TestBowFfnn:
    def fit(self, seed=0):
        ds, _ = synthetic_corpus(n=120)
        model = BowFfnnClassifier(hidden=(16,), epochs=30, seed=seed)
        return model.fit(ds.captions(), [int(l) for l in ds.labels()]), ds

    def test_learns_separable_corpus(self):
        model, ds = self.fit()
        preds = model.predict(ds.captions())
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
        X = ds.captions()[:10]
        assert back.vocab_.words == model.vocab_.words
        assert np.array_equal(back.predict_proba(X), model.predict_proba(X))


class TestMlpClassifier:
    def test_fit_predict_shapes(self):
        rng = np.random.default_rng(0)
        X = rng.standard_normal((30, 4))
        y = np.array([i % 3 for i in range(30)])
        model = MlpClassifier(hidden=(8,), epochs=5).fit(X, y)
        assert model.predict(X).shape == (30,)
        assert model.predict_proba(X).shape == (30, 3)

    def test_unfitted_raises(self):
        with pytest.raises(NotFittedError):
            MlpClassifier().predict_proba(np.zeros((1, 4)))

    def test_feature_width_checked(self):
        X = np.zeros((10, 4))
        y = np.array([0, 1, 2, 0, 1, 2, 0, 1, 2, 0])
        model = MlpClassifier(hidden=(4,), epochs=1).fit(X, y)
        with pytest.raises(ValueError):
            model.predict_proba(np.zeros((2, 5)))

    def test_get_params_round_trip(self):
        model = MlpClassifier(hidden=(9, 9), lr=0.01, seed=4)
        clone = MlpClassifier(**model.get_params())
        assert clone.get_params() == model.get_params()

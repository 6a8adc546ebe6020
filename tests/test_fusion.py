"""Late-fusion stacker and the bimodal estimator."""

import numpy as np
import pytest

from _util import hue_band_tensors
from memesent.errors import DataFormatError
from memesent.models.fusion import _stack_features
from memesent.rng import substream
from memesent.models import (
    BimodalFusionClassifier,
    BowFfnnClassifier,
    FusionStacker,
    HsvCnnClassifier,
    fusion_predict,
    fusion_train,
    load_model,
)


def per_sample_stacker(text_probs, image_probs, labels, lam=1e-3, epochs=200, lr=0.1,
                       seed=0):
    """The stacker loop as first written, every constant rebuilt per
    sample: the reference that ``fusion_train`` must match bit for bit."""
    X = _stack_features(text_probs, image_probs)
    y = np.asarray(labels)
    rng = substream(seed, "stacker")
    W = np.zeros((3, 6))
    b = np.zeros(3)
    classes = np.arange(3)
    for _ in range(epochs):
        for i in rng.permutation(len(X)):
            x = X[i]
            t = np.where(classes == y[i], 1.0, -1.0)
            active = t * (W @ x + b) < 1.0
            W *= 1.0 - 2.0 * lr * lam
            push = lr * t * active
            W += push[:, None] * x[None, :]
            b += push
    return W, b


def branch_rows(n, seed=0, text="perfect", image="uniform"):
    """Aligned branch probability rows for labels 0,1,2,0,1,2,..."""
    y = np.array([i % 3 for i in range(n)])
    uniform = np.full((n, 3), 1.0 / 3.0)
    perfect = np.eye(3)[y] * 0.94 + 0.02  # rows sum to 1, argmax = label
    pick = {"perfect": perfect, "uniform": uniform}
    return pick[text], pick[image], y


class TestStacker:
    def test_feature_dimension_is_six(self):
        text, image, y = branch_rows(30)
        stacker = fusion_train(text, image, y)
        assert stacker.weights.shape == (3, 6)
        assert stacker.biases.shape == (3,)

    def test_perfect_text_uniform_image_heldout(self):
        text, image, y = branch_rows(120)
        stacker = fusion_train(text, image, y)
        held_text, held_image, held_y = branch_rows(63)
        preds = [
            fusion_predict(stacker, held_text[i], held_image[i])
            for i in range(len(held_y))
        ]
        assert np.array_equal(preds, held_y)

    def test_no_information_matches_majority(self):
        # constant features -> constant prediction at the majority rate
        y = np.array([1] * 60 + [0] * 20 + [2] * 20)
        uniform = np.full((100, 3), 1.0 / 3.0)
        stacker = fusion_train(uniform, uniform, y)
        preds = np.argmax(stacker.scores(np.hstack([uniform, uniform])), axis=1)
        assert len(set(preds.tolist())) == 1
        assert (preds == y).mean() == 0.6

    def test_branch_relabeling_symmetry(self):
        rng = np.random.default_rng(3)
        a = rng.dirichlet(np.ones(3), size=40)
        b = rng.dirichlet(np.ones(3), size=40)
        y = np.array([i % 3 for i in range(40)])
        stacker = fusion_train(a, b, y, seed=7)
        swapped = FusionStacker(
            weights=stacker.weights[:, [3, 4, 5, 0, 1, 2]],
            biases=stacker.biases,
        )
        original = stacker.scores(np.hstack([a, b]))
        relabeled = swapped.scores(np.hstack([b, a]))
        assert np.allclose(original, relabeled, atol=1e-12)

    def test_hand_set_weights(self):
        # text block passes through, image block ignored
        W = np.hstack([np.eye(3), np.zeros((3, 3))])
        stacker = FusionStacker(weights=W, biases=np.zeros(3))
        assert fusion_predict(stacker, [0.1, 0.7, 0.2], [1 / 3] * 3) == 1
        assert fusion_predict(stacker, [0.5, 0.2, 0.3], [1 / 3] * 3) == 0

    def test_tie_breaks_to_lowest_index(self):
        stacker = FusionStacker(weights=np.zeros((3, 6)), biases=np.zeros(3))
        assert fusion_predict(stacker, [1 / 3] * 3, [1 / 3] * 3) == 0

    def test_deterministic_for_seed(self):
        text, image, y = branch_rows(30)
        a = fusion_train(text, image, y, seed=5)
        b = fusion_train(text, image, y, seed=5)
        assert np.array_equal(a.weights, b.weights)
        assert np.array_equal(a.biases, b.biases)

    def test_row_count_mismatch(self):
        text, image, y = branch_rows(9)
        with pytest.raises(ValueError):
            fusion_train(text[:6], image, y)
        with pytest.raises(ValueError):
            fusion_train(text, image, y[:6])

    def test_rows_must_be_distributions(self):
        bad = np.full((6, 3), 0.5)  # rows sum to 1.5
        good = np.full((6, 3), 1.0 / 3.0)
        with pytest.raises(ValueError):
            fusion_train(bad, good, [0, 1, 2, 0, 1, 2])

    @pytest.mark.parametrize("seed, n, epochs, lam, lr", [
        (0, 60, 30, 1e-3, 0.1), (3, 41, 12, 0.0, 0.5), (11, 97, 5, 0.05, 0.01),
    ])
    def test_matches_the_per_sample_loop_bitwise(self, seed, n, epochs, lam, lr):
        rng = np.random.default_rng(seed)
        text = rng.dirichlet(np.ones(3), size=n)
        image = rng.dirichlet(np.ones(3), size=n)
        y = rng.integers(0, 3, size=n)
        stacker = fusion_train(text, image, y, lam=lam, epochs=epochs, lr=lr, seed=seed)
        W, b = per_sample_stacker(text, image, y, lam=lam, epochs=epochs, lr=lr, seed=seed)
        assert np.array_equal(stacker.weights, W)
        assert np.array_equal(stacker.biases, b)

    def test_weight_shape_validated(self):
        with pytest.raises(ValueError):
            FusionStacker(weights=np.zeros((3, 5)), biases=np.zeros(3))


class TestBimodal:
    def make_inputs(self, n=30):
        T, y = hue_band_tensors(n=n, seed=0)
        words = {0: "sad awful", 1: "meh okay", 2: "joy great"}
        captions = [f"{words[int(c)]} caption {i}" for i, c in enumerate(y)]
        return captions, T, y

    def model(self):
        return BimodalFusionClassifier(
            text=BowFfnnClassifier(hidden=(16,), epochs=20, seed=0),
            image=HsvCnnClassifier(epochs=3, batch_size=10, seed=0),
            folds=3,
            seed=0,
        )

    def test_fit_predict_round(self):
        captions, T, y = self.make_inputs()
        model = self.model().fit(captions, T, y)
        preds = model.predict(captions, T)
        assert preds.shape == (30,)
        probs = model.predict_proba(captions, T)
        assert np.all(np.abs(probs.sum(axis=1) - 1.0) < 1e-6)
        # softmax squash preserves the argmax decision
        assert np.array_equal(np.argmax(probs, axis=1), preds)

    def test_out_of_fold_differs_from_in_sample(self):
        captions, T, y = self.make_inputs()
        oof = self.model().fit(captions, T, y)
        ins = self.model()
        ins.in_sample = True
        ins.fit(captions, T, y)
        assert not np.array_equal(oof.stacker_.weights, ins.stacker_.weights)

    def test_save_load_bit_exact(self, tmp_path):
        captions, T, y = self.make_inputs()
        model = self.model().fit(captions, T, y)
        path = tmp_path / "fusion.bin"
        model.save(path)
        back = load_model(path)
        assert isinstance(back, BimodalFusionClassifier)
        assert np.array_equal(
            back.predict_proba(captions, T), model.predict_proba(captions, T)
        )

    def test_one_and_two_workers_give_the_same_model(self):
        captions, T, y = self.make_inputs()
        serial = self.model().fit(captions, T, y)
        forked = self.model().fit(captions, T, y, workers=2)
        assert np.array_equal(forked.stacker_.weights, serial.stacker_.weights)
        assert np.array_equal(forked.stacker_.biases, serial.stacker_.biases)
        header, arrays = forked._payload()
        serial_header, serial_arrays = serial._payload()
        assert header == serial_header
        assert arrays.keys() == serial_arrays.keys()
        assert all(np.array_equal(arrays[k], serial_arrays[k]) for k in arrays)
        assert np.array_equal(forked.predict_proba(captions, T),
                              serial.predict_proba(captions, T))

    def test_row_count_mismatch(self):
        captions, T, y = self.make_inputs()
        with pytest.raises(ValueError):
            self.model().fit(captions[:-1], T, y)

    def test_too_few_rows_for_folds(self):
        captions, T, y = self.make_inputs()
        model = self.model()
        model.folds = 40
        with pytest.raises(ValueError):
            model.fit(captions, T, y)

    @pytest.mark.parametrize("folds", [1, 31])  # 31 folds > 30 rows
    def test_bad_folds_raise_before_any_branch_fit(self, monkeypatch, folds):
        fits = []
        for cls in (BowFfnnClassifier, HsvCnnClassifier):
            def counting(model, *args, _fit=cls.fit):
                fits.append(type(model))
                return _fit(model, *args)
            monkeypatch.setattr(cls, "fit", counting)
        captions, T, y = self.make_inputs()
        model = self.model()
        model.folds = folds
        with pytest.raises(ValueError, match="fold"):
            model.fit(captions, T, y)
        assert fits == []
        model.in_sample = True  # no out-of-fold features: the folds are unused
        model.fit(captions, T, y)
        assert fits == [BowFfnnClassifier, HsvCnnClassifier]

    def test_load_rejects_other_kinds(self, tmp_path):
        from memesent.persist import save_container

        path = tmp_path / "bad.bin"
        save_container(path, {"kind": "cnn-hsv"}, {"a": np.zeros(1)})
        with pytest.raises(DataFormatError):
            BimodalFusionClassifier.load(path)

"""Multinomial Naive Bayes against hand-computed posteriors."""

import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from memesent.errors import DataFormatError, NotFittedError, NumericError, TrainingError
from memesent.models.naive_bayes import MultinomialNaiveBayes

TOY_X = [["good", "good", "fun"], ["bad", "sad"], ["fun", "bad"]]
TOY_Y = [2, 0, 1]


def toy_model():
    return MultinomialNaiveBayes(alpha=1.0).fit(TOY_X, TOY_Y)


def nb_predict(model, tokens):
    """Posterior distribution for a single token list."""
    return model.predict_proba([tokens])[0]


def hand_posterior(tokens):
    """Exact rational posterior for the toy corpus, alpha=1, |V|=4."""
    likelihood = {
        # class -> token -> (count + 1) / (total + 4)
        0: {"bad": Fraction(2, 6), "sad": Fraction(2, 6),
            "good": Fraction(1, 6), "fun": Fraction(1, 6)},
        1: {"fun": Fraction(2, 6), "bad": Fraction(2, 6),
            "good": Fraction(1, 6), "sad": Fraction(1, 6)},
        2: {"good": Fraction(3, 7), "fun": Fraction(2, 7),
            "bad": Fraction(1, 7), "sad": Fraction(1, 7)},
    }
    scores = []
    for cls in range(3):
        score = Fraction(1, 3)
        for token in tokens:
            if token in likelihood[cls]:
                score *= likelihood[cls][token]
        scores.append(score)
    total = sum(scores)
    return [float(s / total) for s in scores]


class TestHandOracle:
    def test_two_token_posterior(self):
        model = toy_model()
        row = nb_predict(model, ["good", "fun"])
        expected = hand_posterior(["good", "fun"])
        assert np.all(np.abs(row - np.array(expected)) < 1e-9)

    def test_single_token_posterior(self):
        row = nb_predict(toy_model(), ["bad"])
        expected = hand_posterior(["bad"])
        assert np.all(np.abs(row - np.array(expected)) < 1e-9)

    def test_oov_tokens_are_skipped(self):
        model = toy_model()
        with_oov = nb_predict(model, ["good", "zzz", "qqq"])
        without = nb_predict(model, ["good"])
        assert np.array_equal(with_oov, without)

    def test_empty_tokens_give_prior(self):
        row = nb_predict(toy_model(), [])
        assert np.all(np.abs(row - 1.0 / 3.0) < 1e-12)

    def test_priors_reflect_imbalance(self):
        model = MultinomialNaiveBayes().fit([["x"], ["x"], ["y"]], [2, 2, 0])
        row = model.predict_proba([[]])[0]
        assert abs(row[2] - 2.0 / 3.0) < 1e-12
        assert abs(row[0] - 1.0 / 3.0) < 1e-12
        assert row[1] == 0.0  # class never seen


class TestInvariants:
    def test_token_order_irrelevant(self):
        model = toy_model()
        a = nb_predict(model, ["good", "fun", "bad"])
        b = nb_predict(model, ["bad", "good", "fun"])
        assert np.array_equal(a, b)

    def test_duplicate_token_sharpens_its_class(self):
        model = toy_model()
        single = nb_predict(model, ["good"])
        double = nb_predict(model, ["good", "good"])
        # "good" is dominated by class 2; repeating it must increase p(2)
        assert double[2] > single[2]

    def test_rows_are_distributions(self):
        model = toy_model()
        probs = model.predict_proba([["good"], ["bad", "sad"], [], ["zzz"]])
        assert np.all(probs >= 0)
        assert np.all(np.abs(probs.sum(axis=1) - 1.0) < 1e-6)

    @given(st.lists(st.sampled_from(["good", "bad", "fun", "sad", "zzz"]),
                    max_size=8))
    @settings(max_examples=100, deadline=None)
    def test_posterior_matches_hand_computation(self, tokens):
        row = nb_predict(toy_model(), tokens)
        known = [t for t in tokens if t != "zzz"]
        expected = hand_posterior(known)
        assert np.all(np.abs(row - np.array(expected)) < 1e-9)


class TestApi:
    def test_predict_argmax(self):
        model = toy_model()
        preds = model.predict([["good", "fun"], ["bad", "sad"]])
        assert preds.tolist() == [2, 0]

    def test_vocabulary_sorted(self):
        assert toy_model().vocabulary_ == ("bad", "fun", "good", "sad")

    def test_unfitted_predict_raises(self):
        with pytest.raises(NotFittedError):
            MultinomialNaiveBayes().predict_proba([["x"]])

    def test_empty_corpus_rejected(self):
        with pytest.raises(TrainingError):
            MultinomialNaiveBayes().fit([], [])

    def test_alpha_must_be_positive(self):
        with pytest.raises(ValueError):
            MultinomialNaiveBayes(alpha=0.0).fit(TOY_X, TOY_Y)

    @pytest.mark.parametrize("alpha", [float("nan"), float("inf"), float("-inf")])
    def test_alpha_must_be_finite(self, alpha):
        with pytest.raises(ValueError, match="alpha must be finite"):
            MultinomialNaiveBayes(alpha=alpha).fit(TOY_X, TOY_Y)

    def test_a_string_row_is_rejected(self):
        # iterated, "good day" would be the tokens " ", "a", "d", "g", ...
        with pytest.raises(ValueError, match="memesent.textprep.preprocess"):
            MultinomialNaiveBayes().fit(["good day", "bad mood"], [2, 0])
        with pytest.raises(ValueError, match="memesent.textprep.preprocess"):
            toy_model().predict_proba(["good day"])

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            MultinomialNaiveBayes().fit(TOY_X, [0, 1])

    def test_save_load_round_trip(self, tmp_path):
        model = toy_model()
        path = tmp_path / "nb.bin"
        model.save(path)
        back = MultinomialNaiveBayes.load(path)
        assert back.vocabulary_ == model.vocabulary_
        X = [["good", "fun"], [], ["sad", "sad", "bad"]]
        assert np.array_equal(back.predict_proba(X), model.predict_proba(X))

    def test_save_load_keeps_an_absent_class(self, tmp_path):
        model = MultinomialNaiveBayes().fit(TOY_X[:2], [2, 0])  # no neutral caption: a -inf prior
        path = tmp_path / "nb.bin"
        model.save(path)
        back = MultinomialNaiveBayes.load(path)
        assert back.class_log_prior_[1] == -np.inf
        X = [["good", "fun"], [], ["sad"]]
        assert np.array_equal(back.predict_proba(X), model.predict_proba(X))
        assert np.all(back.predict_proba(X)[:, 1] == 0.0)

    def test_overflowing_log_scores_raise_numeric_error(self):
        model = toy_model()
        model.token_log_likelihood_ = np.full_like(model.token_log_likelihood_, -1e308)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no NumPy warning escapes
            with pytest.raises(NumericError, match="the class log-scores are not finite"):
                model.predict_proba([["good"], ["bad", "sad"]])  # -2e308 overflows
            # one token stays finite, and a class absent from training still
            # predicts with probability 0
            model.class_log_prior_[1] = -np.inf
            probs = model.predict_proba([["good"], []])
        assert np.isfinite(probs).all() and np.all(probs[:, 1] == 0.0)

    def test_load_names_a_repeated_word(self, tmp_path):
        from memesent.persist import save_container

        path = tmp_path / "nb.bin"
        save_container(path, {"kind": "naive-bayes", "alpha": 1.0,
                              "vocabulary": ["bad", "day", "bad"]},
                       {"class_log_prior": np.zeros(3),
                        "token_log_likelihood": np.zeros((3, 3))})
        with pytest.raises(DataFormatError, match="nb.bin: vocabulary repeats the word 'bad'"):
            MultinomialNaiveBayes.load(path)

    def test_load_rejects_other_kinds(self, tmp_path):
        from memesent.persist import save_container

        path = tmp_path / "other.bin"
        save_container(path, {"kind": "something-else"}, {"a": np.zeros(2)})
        with pytest.raises(DataFormatError):
            MultinomialNaiveBayes.load(path)

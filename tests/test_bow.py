"""Bag-of-words vocabulary building and presence vectors."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from memesent.errors import NotFittedError
from memesent.models.bow import BowVocab, bow_vectorize, build_bow_vocab
from memesent.models.ffnn import BowFfnnClassifier
from memesent.textprep import preprocess


class TestBuildVocab:
    def test_orders_by_count_then_word(self):
        lists = [["b", "b", "a"], ["a", "c", "b"], ["a"]]
        vocab = build_bow_vocab(lists)
        # a and b both occur 3 times -> lexicographic; c trails with 1
        assert vocab.words == ("a", "b", "c")

    def test_max_size_truncates(self):
        lists = [["w", "w", "x", "x", "y", "z"]]
        vocab = build_bow_vocab(lists, max_size=2)
        assert vocab.words == ("w", "x")

    def test_default_cap_is_5000(self):
        lists = [[f"tok{i}"] for i in range(6000)]
        assert len(build_bow_vocab(lists)) == 5000

    def test_empty_corpus_gives_empty_vocab(self):
        assert build_bow_vocab([]).words == ()

    def test_duplicate_words_rejected(self):
        with pytest.raises(ValueError):
            BowVocab(words=("a", "a"))


class TestVectorize:
    VOCAB = BowVocab(words=("cat", "dog", "fish", "meme", "zebra"))

    def test_hand_checked_indicator(self):
        vec = bow_vectorize(["dog", "meme", "dog"], self.VOCAB)
        assert vec.tolist() == [0.0, 1.0, 0.0, 1.0, 0.0]

    def test_disjoint_tokens_give_zero_vector(self):
        vec = bow_vectorize(["lion", "tiger"], self.VOCAB)
        assert not vec.any()

    def test_presence_not_count(self):
        once = bow_vectorize(["cat"], self.VOCAB)
        thrice = bow_vectorize(["cat", "cat", "cat"], self.VOCAB)
        assert np.array_equal(once, thrice)

    def test_vector_width_is_vocab_size(self):
        assert bow_vectorize([], self.VOCAB).shape == (5,)

    @given(st.lists(st.sampled_from(["cat", "dog", "fish", "meme", "zebra", "oov"]),
                    max_size=10))
    @settings(max_examples=100, deadline=None)
    def test_vector_is_binary_and_matches_membership(self, tokens):
        vec = bow_vectorize(tokens, self.VOCAB)
        for i, word in enumerate(self.VOCAB.words):
            assert vec[i] == (1.0 if word in tokens else 0.0)


class TestVectorizer:
    """The presence rows the bag-of-words classifier feeds its dense net."""

    def test_fit_transform(self):
        model = BowFfnnClassifier(vocab_size=2)
        X = model._features([["cat", "dog"], ["dog", "fish"], ["dog"]], fitting=True)
        assert model.vocab_.words == ("dog", "cat")
        assert X.shape == (3, 2)
        assert X.tolist() == [[1.0, 1.0], [1.0, 0.0], [1.0, 0.0]]

    def test_vocab_frozen_after_fit(self):
        model = BowFfnnClassifier()
        model._features([["cat"], ["dog"]], fitting=True)
        before = model.vocab_.words
        X = model._features([preprocess("новый fish zebra")], fitting=False)
        assert model.vocab_.words == before
        assert X.tolist() == [[0.0, 0.0]]

    def test_matrix_filled_in_place_as_float32(self):
        words = [f"w{i}" for i in range(1000)]
        rows = [[words[(7 * i + 13 * j) % 1000] for j in range(10)] for i in range(2000)]
        model = BowFfnnClassifier(vocab_size=1000)
        tracemalloc.start()
        try:
            X = model._features(rows, fitting=True)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert X.dtype == np.float32 and X.shape == (2000, 1000)
        assert X.sum() == sum(len(set(row)) for row in rows)
        # float64 rows then stacked held about four times the matrix
        assert peak <= 1.25 * X.nbytes

    def test_transform_before_fit_raises(self):
        with pytest.raises(NotFittedError):
            BowFfnnClassifier().predict_proba([["cat"]])

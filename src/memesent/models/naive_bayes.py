"""Multinomial Naive Bayes over caption tokens.

Priors are class frequencies; token likelihoods use Laplace smoothing:
P(token | class) = (count + alpha) / (class token total + alpha * |V|).
Tokens unseen in training are skipped at prediction time (their
likelihood would be a class-independent constant under shared
smoothing, so skipping changes nothing but saves the lookup). An empty
token list yields the prior distribution. A class absent from training
has a -inf prior and probability 0; any other class's log-score that
overflows raises :class:`~memesent.errors.NumericError`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..base import (
    Estimator,
    as_label_array,
    check_consistent_length,
    check_fitted,
    check_token_lists,
    checked_arrays,
)
from ..errors import DataFormatError, TrainingError
from ..nn import finite_logits, softmax

__all__ = ["MultinomialNaiveBayes"]

N_CLASSES = 3


@dataclass(eq=False)
class MultinomialNaiveBayes(Estimator):
    """Token-count Naive Bayes with Laplace smoothing.

    Fitted attributes: ``vocabulary_`` (sorted token tuple),
    ``class_log_prior_`` (3,), ``token_log_likelihood_`` (3, |V|).
    """

    KIND = "naive-bayes"
    INPUTS = ("tokens",)

    alpha: float = 1.0

    def fit(self, X: list[list[str]], y) -> "MultinomialNaiveBayes":
        if not 0 < self.alpha < np.inf:
            raise ValueError(f"alpha must be finite and > 0, got {self.alpha}")
        check_token_lists(X)
        y = as_label_array(y)
        check_consistent_length(X, y)
        if len(X) == 0:
            raise TrainingError("cannot fit Naive Bayes on an empty corpus")

        vocab = sorted({t for tokens in X for t in tokens})
        index = {t: i for i, t in enumerate(vocab)}
        counts = np.zeros((N_CLASSES, len(vocab)), dtype=np.float64)
        class_counts = np.zeros(N_CLASSES, dtype=np.float64)
        for tokens, label in zip(X, y):
            class_counts[label] += 1
            for t in tokens:
                counts[label, index[t]] += 1

        self.vocabulary_ = tuple(vocab)
        self._index = index
        # Classes absent from training keep a -inf prior: they can never
        # win the argmax but still occupy their probability slot.
        with np.errstate(divide="ignore"):
            self.class_log_prior_ = np.log(class_counts / class_counts.sum())
        totals = counts.sum(axis=1, keepdims=True)
        self.token_log_likelihood_ = np.log(counts + self.alpha) - np.log(
            totals + self.alpha * len(vocab)
        )
        return self

    def _log_scores(self, X: list[list[str]]) -> np.ndarray:
        """(n, 3) class log-prior plus the log-likelihood of each known
        token, added in token order."""
        scores = np.tile(self.class_log_prior_, (len(X), 1))
        for row, tokens in zip(scores, X):
            for t in tokens:
                j = self._index.get(t)
                if j is not None:
                    row += self.token_log_likelihood_[:, j]
        return scores

    def predict_proba(self, X: list[list[str]]) -> np.ndarray:
        check_fitted(self, "class_log_prior_")
        check_token_lists(X)
        # a class with a -inf prior keeps probability 0; the others' scores
        # must be finite
        live = np.isfinite(self.class_log_prior_)
        out = np.zeros((len(X), N_CLASSES), dtype=np.float64)
        out[:, live] = softmax(finite_logits(lambda: self._log_scores(X)[:, live],
                                             "the class log-scores"))
        return out

    def _payload(self) -> tuple[dict, dict[str, np.ndarray]]:
        check_fitted(self, "class_log_prior_")
        header = {
            "kind": self.KIND,
            "alpha": self.alpha,
            "vocabulary": list(self.vocabulary_),
        }
        arrays = {
            "class_log_prior": self.class_log_prior_,
            "token_log_likelihood": self.token_log_likelihood_,
        }
        return header, arrays

    @classmethod
    def _from_payload(cls, header, arrays, path) -> "MultinomialNaiveBayes":
        model = cls(alpha=float(header["alpha"]))
        model.vocabulary_ = tuple(header["vocabulary"])
        model._index = {t: i for i, t in enumerate(model.vocabulary_)}
        if len(model._index) != len(model.vocabulary_):
            repeated = next(t for i, t in enumerate(model.vocabulary_) if model._index[t] != i)
            raise DataFormatError(f"{path}: vocabulary repeats the word {repeated!r}")
        shapes = {"class_log_prior": (N_CLASSES,),
                  "token_log_likelihood": (N_CLASSES, len(model.vocabulary_))}
        # fit gives a class absent from training a -inf prior, never every class
        model.class_log_prior_, model.token_log_likelihood_ = checked_arrays(
            arrays, shapes, path, neg_inf=("class_log_prior",))
        if np.isneginf(model.class_log_prior_).all():
            raise DataFormatError(f"{path}: every class has a -inf prior")
        return model

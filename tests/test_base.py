from dataclasses import dataclass

import numpy as np
import pytest

from memesent.base import (
    Estimator,
    as_float_matrix,
    as_label_array,
    check_consistent_length,
    check_fitted,
    check_prob_rows,
)
from memesent.errors import NotFittedError


@dataclass(eq=False)
class Toy(Estimator):
    alpha: float = 1.0
    mode: str = "fast"

    def fit(self, X, y=None):
        self.state_ = 1
        return self


def test_get_params_reflects_init():
    assert Toy().get_params() == {"alpha": 1.0, "mode": "fast"}
    assert Toy(alpha=2.5).get_params()["alpha"] == 2.5


def test_set_params_roundtrip_and_validation():
    t = Toy().set_params(alpha=0.5, mode="slow")
    assert (t.alpha, t.mode) == (0.5, "slow")
    with pytest.raises(ValueError, match="invalid parameter"):
        t.set_params(nope=1)


def test_repr_shows_params():
    assert repr(Toy(alpha=2)) == "Toy(alpha=2, mode='fast')"


def test_check_fitted():
    t = Toy()
    with pytest.raises(NotFittedError):
        check_fitted(t, "state_")
    check_fitted(t.fit(None), "state_")


def test_check_consistent_length():
    assert check_consistent_length([1, 2], [3, 4]) == 2
    with pytest.raises(ValueError, match="inconsistent"):
        check_consistent_length([1, 2], [3])


def test_as_float_matrix():
    arr = as_float_matrix([[1, 2], [3, 4]])
    assert arr.dtype == np.float64 and arr.shape == (2, 2)
    with pytest.raises(ValueError, match="2-dimensional"):
        as_float_matrix([1, 2, 3])
    with pytest.raises(ValueError, match="features"):
        as_float_matrix([[1, 2]], n_features=3)
    with pytest.raises(ValueError, match="non-finite"):
        as_float_matrix([[np.nan, 1]])
    assert as_float_matrix(np.ones((2, 2), dtype=np.float32)).dtype == np.float64
    assert as_float_matrix([[-1e308, 1e39]]).dtype == np.float64
    for bad in (np.inf, -np.inf, np.nan):
        with pytest.raises(ValueError, match="non-finite"):
            as_float_matrix([[0.0, bad]])
    assert as_float_matrix(np.zeros((0, 2))).shape == (0, 2)


def test_as_label_array():
    np.testing.assert_array_equal(as_label_array([0, 1, 2]), [0, 1, 2])
    with pytest.raises(ValueError, match="outside"):
        as_label_array([0, 3])
    with pytest.raises(ValueError, match="1-dimensional"):
        as_label_array([[0], [1]])


def test_check_prob_rows():
    check_prob_rows([[0.2, 0.3, 0.5]])
    with pytest.raises(ValueError, match="sum to 1"):
        check_prob_rows([[0.2, 0.2, 0.2]])
    with pytest.raises(ValueError, match="negative"):
        check_prob_rows([[-0.2, 0.7, 0.5]])

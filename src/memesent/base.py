"""Estimator base class and input-validation helpers.

Estimators follow the scikit-learn protocol: constructor arguments are
stored verbatim as attributes of the same name, ``fit`` returns self,
learned state uses a trailing underscore, and ``get_params`` /
``set_params`` allow composition with the wider ecosystem without
requiring scikit-learn itself. Each estimator is a dataclass
(``eq=False``: equality stays identity) whose fields are its parameters,
so each parameter and its default is declared once; the config's
``[model]`` defaults are read from these fields; an Adam-trained model
inherits its five training ones from :class:`~memesent.nn.TrainConfig`.

:class:`Estimator` is also the one persistence protocol of the model
classes: a ``KIND`` tag, ``save``/``load`` through the checksummed
container, and one place that turns a malformed payload into
:class:`DataFormatError`; ``checked_arrays`` checks each loaded array
against the shape the model's architecture gives it.
"""

from __future__ import annotations

from dataclasses import fields

import numpy as np

from .errors import DataFormatError, NotFittedError
from .persist import load_container, save_container

__all__ = [
    "Estimator",
    "checked_arrays",
    "check_fitted",
    "check_consistent_length",
    "check_token_lists",
    "as_float_matrix",
    "as_label_array",
    "check_prob_rows",
]


class Estimator:
    """Minimal scikit-learn-compatible parameter handling, ``predict``
    as the argmax of the subclass's ``predict_proba``, and save and load
    through the model container (:mod:`memesent.persist`). A subclass is
    a dataclass whose fields are its parameters. It sets ``KIND``, the
    container's ``kind`` field, and implements ``_payload() -> (header,
    arrays)``, whose header carries that kind, and the classmethod
    ``_from_payload(header, arrays, path)``. It names the sources of its
    ``fit`` and ``predict_proba`` inputs, in order, in ``INPUTS`` (see
    :func:`memesent.cli._inputs`), its sub-models' classes by parameter in
    ``BRANCHES``, and in ``FIT_WORKERS`` whether ``fit`` takes ``workers``."""

    KIND = ""
    INPUTS = ()
    BRANCHES = {}
    FIT_WORKERS = False

    @classmethod
    def _param_names(cls):
        """The parameter names: the fields of the dataclass ``cls``."""
        return [f.name for f in fields(cls)]

    def get_params(self, deep: bool = True) -> dict:
        return {name: getattr(self, name) for name in self._param_names()}

    def set_params(self, **params) -> "Estimator":
        valid = set(self._param_names())
        for name, value in params.items():
            if name not in valid:
                raise ValueError(
                    f"invalid parameter {name!r} for {type(self).__name__}; "
                    f"valid parameters: {sorted(valid)}"
                )
            setattr(self, name, value)
        return self

    def predict(self, *inputs) -> np.ndarray:
        # argmax takes the first maximum, so ties go to the lower index
        return np.argmax(self.predict_proba(*inputs), axis=1)

    def save(self, path) -> None:
        save_container(path, *self._payload())

    @classmethod
    def load(cls, path):
        return cls.from_container(*load_container(path), path)

    @classmethod
    def from_container(cls, header: dict, arrays: dict, path):
        """The model held by an already-read container; another kind, or a
        missing or mistyped field or array, raises :class:`DataFormatError`
        naming ``path``."""
        if header.get("kind") != cls.KIND:
            raise DataFormatError(
                f"{path}: not a {cls.KIND} model file (kind {header.get('kind')!r})"
            )
        try:
            return cls._from_payload(header, arrays, path)
        except (KeyError, TypeError, ValueError, AttributeError) as exc:
            raise DataFormatError(
                f"{path}: malformed {cls.KIND} model ({type(exc).__name__}: {exc})"
            ) from exc


def _finite(arr: np.ndarray, neg_inf: bool) -> bool:
    """No NaN or +inf in ``arr``, and no -inf unless ``neg_inf``."""
    if neg_inf:
        return not (np.isnan(arr) | (arr == np.inf)).any()
    return bool(np.isfinite(arr).all())


def checked_arrays(arrays: dict, shapes: dict, path, neg_inf=(),
                   dtype=np.float64) -> list[np.ndarray]:
    """The arrays named by ``shapes``, in its order and cast to ``dtype``,
    read from a model container. Raise :class:`DataFormatError` naming
    ``path`` if one is missing, has another shape than ``shapes`` gives,
    or holds NaN or +-inf; the arrays named in ``neg_inf`` may hold -inf.
    Values are checked at the container's dtype, so a NaN never reaches
    the cast (a signalling one would warn there), and again after it (a
    value beyond float32 becomes inf there)."""
    out = []
    for name, shape in shapes.items():
        if name not in arrays:
            raise DataFormatError(f"{path}: missing parameter array {name!r}")
        arr = np.asarray(arrays[name])
        if arr.shape != shape:
            raise DataFormatError(f"{path}: array {name!r} has shape {arr.shape}, not {shape}")
        ok = _finite(arr, name in neg_inf)
        if ok and arr.dtype != dtype:
            with np.errstate(over="ignore"):
                arr = arr.astype(dtype)
            ok = _finite(arr, name in neg_inf)
        if not ok:
            raise DataFormatError(f"{path}: array {name!r} holds non-finite values")
        out.append(arr)
    return out


def check_fitted(estimator, attribute: str) -> None:
    """Raise :class:`NotFittedError` unless ``attribute`` exists and is set."""
    if getattr(estimator, attribute, None) is None:
        raise NotFittedError(
            f"{type(estimator).__name__} is not fitted; call fit() first"
        )


def check_consistent_length(*arrays) -> int:
    lengths = {len(a) for a in arrays}
    if len(lengths) != 1:
        raise ValueError(f"inconsistent input lengths: {sorted(lengths)}")
    return lengths.pop()


def check_token_lists(X) -> None:
    """Raise ``ValueError`` if a row of ``X`` is a string: a row is one
    caption's token list, and a string would count as its characters."""
    if any(isinstance(row, str) for row in X):
        raise ValueError("expected one token list per caption, got a string; "
                         "tokenize captions with memesent.textprep.preprocess")


def as_float_matrix(X, n_features: int | None = None, name: str = "X",
                    dtype=np.float64) -> np.ndarray:
    """Coerce to a 2-D ``dtype`` array of finite values, optionally
    checking width. A float array is checked before the cast, without a
    copy, so a value beyond ``dtype``'s range counts as non-finite."""
    is_float = isinstance(X, np.ndarray) and X.dtype.kind == "f"
    arr = X if is_float else np.asarray(X, dtype=np.float64)
    if arr.ndim != 2:
        raise ValueError(f"{name} must be 2-dimensional, got shape {arr.shape}")
    if n_features is not None and arr.shape[1] != n_features:
        raise ValueError(
            f"{name} has {arr.shape[1]} features, expected {n_features}"
        )
    # min and max carry NaN through, and NaN fails both comparisons
    top = np.finfo(dtype).max
    if arr.size and not (-top <= arr.min() and arr.max() <= top):
        raise ValueError(f"{name} contains non-finite values (as {np.dtype(dtype).name})")
    return arr.astype(dtype, copy=False)


def as_label_array(y) -> np.ndarray:
    """Coerce class labels (ints or :class:`~memesent.corpus.Sentiment`
    values) to a 1-D int64 array in ``[0, 3)``."""
    arr = np.asarray(y, dtype=np.int64)
    if arr.ndim != 1:
        raise ValueError(f"y must be 1-dimensional, got shape {arr.shape}")
    if arr.size and (arr.min() < 0 or arr.max() >= 3):
        raise ValueError("y contains labels outside [0, 3)")
    return arr


def check_prob_rows(P) -> np.ndarray:
    """Validate an (n, 3) array of class-probability rows, each entry at
    least -1e-6 and each row's sum within 1e-6 of 1."""
    arr = as_float_matrix(P, n_features=3, name="probabilities")
    if arr.size and arr.min() < -1e-6:
        raise ValueError("probabilities contains negative entries")
    if arr.size and np.max(np.abs(arr.sum(axis=1) - 1.0)) > 1e-6:
        raise ValueError("probabilities rows do not sum to 1")
    return arr

"""The model registry, the persistence protocol and the public API surface."""

import importlib
import inspect
import pkgutil

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import memesent
from _util import hue_band_tensors, run_python, synthetic_corpus
from memesent import cli
from memesent.base import Estimator, SavedModel
from memesent.config import _SECTIONS, MODEL_KINDS, RunConfig
from memesent.corpus import Dataset, MemeRecord
from memesent.errors import DataFormatError, NumericError
from memesent.models import MODEL_CLASSES, load_model, model_from_container, write_hsv_tensor
from memesent.models.bow import build_bow_vocab
from memesent.models.ffnn import BowFfnnClassifier
from memesent.models.fusion import BimodalFusionClassifier, fusion_train
from memesent.models.naive_bayes import MultinomialNaiveBayes, nb_train
from memesent.nn import TrainConfig
from memesent.persist import load_container, save_container


@pytest.fixture(scope="module")
def captioned_images(tmp_path_factory):
    """30 labeled captions, each with an HSV tensor file, plus a table."""
    base = tmp_path_factory.mktemp("registry")
    ds, table = synthetic_corpus(n=30)
    T, _ = hue_band_tensors(n=30, seed=1)
    records = []
    for rec, tensor in zip(ds.records, T):
        write_hsv_tensor(tensor, base / f"{rec.id}.hsv")
        records.append(MemeRecord(id=rec.id, caption=rec.caption,
                                  label=rec.label, image_path=f"{rec.id}.hsv"))
    return Dataset(records=tuple(records)), base, table


def test_registry_covers_every_model_kind():
    assert set(cli._MODELS) == set(MODEL_KINDS)
    classes = [cls for cls, _, _ in cli._MODELS.values()]
    assert sorted(cls.KIND for cls in classes) == sorted(MODEL_CLASSES)
    assert all(MODEL_CLASSES[cls.KIND] is cls for cls in classes)


@pytest.mark.parametrize("kind", MODEL_KINDS)
def test_train_save_load_predict_identical(kind, captioned_images, tmp_path):
    ds, base, table = captioned_images
    cfg = RunConfig(model=kind, epochs=2, batch_size=10, folds=2, hidden=(8,))
    model = cli._fit_model(cfg, ds, base, 3, table)
    assert type(model) is cli._MODELS[kind][0]
    path = tmp_path / "model.bin"
    model.save(path)
    back = load_model(path, table)
    assert type(back) is type(model)
    probs = cli._model_proba(model, ds, base)
    assert probs.shape == (len(ds), 3)
    assert np.array_equal(cli._model_proba(back, ds, base), probs)
    back.save(tmp_path / "again.bin")
    assert (tmp_path / "again.bin").read_bytes() == path.read_bytes()


@pytest.fixture(scope="module")
def saved_models(captioned_images):
    """The header and arrays of one saved model of each kind."""
    ds, base, table = captioned_images
    saved = {}
    for kind in MODEL_KINDS:
        cfg = RunConfig(model=kind, epochs=1, batch_size=10, folds=2, hidden=(8,))
        cli._fit_model(cfg, ds, base, 3, table).save(base / f"{kind}.bin")
        saved[kind] = load_container(base / f"{kind}.bin")
    return saved


@st.composite
def _perturbed(draw, arrays):
    """``arrays`` with one array reshaped (by one along an axis, or to an
    arbitrary shape) or with up to four of its entries replaced by NaN,
    +-inf or any finite float64."""
    name = draw(st.sampled_from(sorted(arrays)))
    arr = arrays[name].copy()
    if draw(st.booleans()):
        shape = list(arr.shape)
        if shape and draw(st.booleans()):
            axis = draw(st.integers(0, len(shape) - 1))
            shape[axis] = max(0, shape[axis] + draw(st.sampled_from((-1, 1))))
        else:
            shape = draw(st.lists(st.integers(0, 4), max_size=3))
        arr = np.resize(arr, shape)
    elif arr.size:
        arr = arr.astype(np.float64)  # a float32 array would turn large values to inf
        values = st.one_of(st.sampled_from((np.nan, np.inf, -np.inf)),
                           st.floats(allow_nan=False, allow_infinity=False))
        for index in draw(st.lists(st.integers(0, arr.size - 1), min_size=1, max_size=4)):
            arr.reshape(-1)[index] = draw(values)
    return {**arrays, name: arr}


@pytest.mark.parametrize("kind", MODEL_KINDS)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_perturbed_arrays_fail_typed_or_predict_probabilities(
        kind, saved_models, captioned_images, data):
    ds, base, table = captioned_images
    header, arrays = saved_models[kind]
    path = base / f"perturbed_{kind}.bin"
    save_container(path, header, data.draw(_perturbed(arrays)))
    try:
        model = model_from_container(*load_container(path), path, table)
    except DataFormatError as exc:
        assert str(path) in str(exc)
        return
    try:
        probs = cli._model_proba(model, ds, base)
    except NumericError:  # finite weights whose scores overflow: a typed failure
        return
    assert probs.shape == (len(ds), 3) and np.isfinite(probs).all()
    assert np.abs(probs.sum(axis=1) - 1.0).max() < 1e-9


def test_config_fields_reach_the_estimators(captioned_images):
    ds, _, table = captioned_images
    cfg = RunConfig(model="fusion", hidden=(5, 4), lr=0.01, vocab_size=7, folds=3,
                    in_sample=True, epochs=1, batch_size=9, shuffle=False)
    cls, build, _ = cli._MODELS["fusion"]
    model = build(cls, cfg, 11, table=table)
    assert (model.folds, model.in_sample, model.seed) == (3, True, 11)
    assert model.text.get_params() == dict(
        prep=None, vocab_size=7, hidden=(5, 4), activation="relu", init_mode="scaled",
        init_sigma=1.0, batch_size=9, epochs=1, lr=0.01, shuffle=False, seed=11,
    )
    assert model.image.get_params() == dict(
        batch_size=9, epochs=1, lr=0.01, shuffle=False, seed=11,
    )
    w2v = cli._MODELS["ffnn_w2v"][1](cli._MODELS["ffnn_w2v"][0], cfg, 2, table=table)
    assert w2v.table is table and w2v.hidden == (5, 4) and w2v.seed == 2


def _estimator_classes():
    found = set()
    for info in pkgutil.walk_packages(memesent.__path__, "memesent."):
        module = importlib.import_module(info.name)
        for _, obj in inspect.getmembers(module, inspect.isclass):
            if issubclass(obj, Estimator) and obj is not Estimator:
                found.add(obj)
    return sorted(found, key=lambda cls: cls.__name__)


@pytest.mark.parametrize("cls", _estimator_classes(), ids=lambda cls: cls.__name__)
def test_get_params_are_the_constructor_parameters(cls):
    required = {"table": synthetic_corpus(n=3)[1]}
    est = cls(**{k: v for k, v in required.items() if k in cls._param_names()})
    params = est.get_params()
    # each key is a constructor parameter that is stored under its name
    for name in params:
        marker = object()
        clone = cls(**dict(params, **{name: marker}))
        assert clone.get_params()[name] is marker
    # and the constructor takes nothing else
    with pytest.raises(TypeError):
        cls(**params, not_a_parameter=1)


def test_training_defaults_are_train_config_defaults():
    train = vars(TrainConfig())
    adam_trained = [cls for cls in _estimator_classes() if set(train) <= set(cls._param_names())]
    assert {cls.__name__ for cls in adam_trained} >= {
        "MlpClassifier", "Word2vecFfnnClassifier", "BowFfnnClassifier", "HsvCnnClassifier"}
    for cls in adam_trained:
        params = cls(**{"table": None} if "table" in cls._param_names() else {}).get_params()
        assert {name: params[name] for name in train} == train, cls.__name__
    run = RunConfig()
    assert {name: getattr(run, name) for name in _SECTIONS["train"]} == {
        name: train[name] for name in _SECTIONS["train"]}


def _defaults(fn):
    return {name: p.default for name, p in inspect.signature(fn).parameters.items()
            if p.default is not p.empty}


def test_model_defaults_are_estimator_defaults():
    run = RunConfig()
    covered = set()
    for cls in _estimator_classes():
        params = cls(**{"table": None} if "table" in cls._param_names() else {}).get_params()
        for name in set(_SECTIONS["model"]) & set(params):
            assert params[name] == getattr(run, name), (cls.__name__, name)
            covered.add(name)
    assert covered == {"alpha", "vocab_size", "hidden", "activation", "init_mode",
                       "init_sigma", "folds", "in_sample"}


def test_functional_front_ends_have_their_classes_defaults():
    assert _defaults(nb_train)["alpha"] == MultinomialNaiveBayes().alpha
    fusion = BimodalFusionClassifier().get_params()
    assert _defaults(fusion_train) == {"lam": fusion["lam"], "epochs": fusion["stacker_epochs"],
                                       "lr": fusion["stacker_lr"], "seed": fusion["seed"]}
    assert _defaults(build_bow_vocab)["max_size"] == BowFfnnClassifier().vocab_size


def test_saved_models_are_registered():
    # every concrete (KIND-tagged) saved model is in the loader's registry
    saved = [cls for cls in _estimator_classes() if issubclass(cls, SavedModel) and cls.KIND]
    assert sorted(cls.KIND for cls in saved) == sorted(MODEL_CLASSES)


def test_importing_one_module_loads_only_what_it_imports():
    # the package root re-exports nothing, so it pulls in no models or eval
    proc = run_python("-c", "import sys, memesent.persist; "
                            "print(*sorted(m for m in sys.modules if m.startswith('memesent')))")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["memesent", "memesent.errors", "memesent.persist"]


def _memesent_modules():
    names = ["memesent"] + [
        info.name for info in pkgutil.walk_packages(memesent.__path__, "memesent.")
    ]
    return [importlib.import_module(name) for name in names]


@pytest.mark.parametrize("module", _memesent_modules(), ids=lambda m: m.__name__)
def test_every_export_resolves(module):
    exports = getattr(module, "__all__", [])
    assert [name for name in exports if not hasattr(module, name)] == []
    assert len(set(exports)) == len(exports)


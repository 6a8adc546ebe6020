"""The model registry, the persistence protocol and the public API surface."""

import ast
import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import memesent
from _util import (
    hue_band_tensors,
    run_python,
    synthetic_corpus,
    write_hsv_tensor,
    write_word2vec_binary,
)
from memesent import cli
from memesent.base import Estimator, SavedModel
from memesent.config import _SECTIONS, MODEL_KINDS, MODELS, RunConfig
from memesent.corpus import Dataset, MemeRecord
from memesent.errors import DataFormatError, NumericError
from memesent.models.bow import build_bow_vocab
from memesent.models.ffnn import BowFfnnClassifier, Word2vecFfnnClassifier
from memesent.models.fusion import BimodalFusionClassifier, fusion_train
from memesent.nn import TrainConfig
from memesent.persist import load_container, save_container


@pytest.fixture(scope="module")
def captioned_images(tmp_path_factory):
    """30 labeled captions, each with an HSV tensor file, plus the path of
    a binary embedding table."""
    base = tmp_path_factory.mktemp("registry")
    ds, table = synthetic_corpus(n=30)
    write_word2vec_binary(table, base / "vectors.bin")
    T, _ = hue_band_tensors(n=30, seed=1)
    records = []
    for rec, tensor in zip(ds.records, T):
        write_hsv_tensor(tensor, base / f"{rec.id}.hsv")
        records.append(MemeRecord(id=rec.id, caption=rec.caption,
                                  label=rec.label, image_path=f"{rec.id}.hsv"))
    return Dataset(records=tuple(records)), base, str(base / "vectors.bin")


def _load(kind, path):
    """The saved model of config kind ``kind``, through its class's ``load``."""
    return MODELS[kind].load(path)


def test_registry_covers_every_model_kind():
    assert tuple(MODELS) == MODEL_KINDS
    kinds = [cls.KIND for cls in MODELS.values()]
    assert all(kinds) and len(set(kinds)) == len(kinds)


@pytest.mark.parametrize("kind", MODEL_KINDS)
def test_train_save_load_predict_identical(kind, captioned_images, tmp_path):
    ds, base, emb = captioned_images
    cfg = RunConfig(model=kind, epochs=2, batch_size=10, folds=2, hidden=(8,),
                    embeddings=emb)
    inputs, _ = cli._inputs(MODELS[kind], cfg, ds, base)
    model = cli._fit_model(cfg, inputs, ds.labels(), 3)
    assert type(model) is MODELS[kind]
    path = tmp_path / "model.bin"
    model.save(path)
    back = _load(kind, path)
    assert type(back) is type(model)
    probs = model.predict_proba(*inputs)
    assert probs.shape == (len(ds), 3)
    assert np.array_equal(back.predict_proba(*inputs), probs)
    # the library label is the one that `memesent predict` writes
    assert np.array_equal(model.predict(*inputs), np.argmax(probs, axis=1))
    back.save(tmp_path / "again.bin")
    assert (tmp_path / "again.bin").read_bytes() == path.read_bytes()


@pytest.mark.parametrize("kind", ["nb", "ffnn_w2v", "ffnn_bow", "fusion"])
def test_a_caption_where_a_token_list_belongs_is_rejected(kind, captioned_images):
    # a string would count as its characters
    ds, base, emb = captioned_images
    cfg = RunConfig(model=kind, epochs=1, batch_size=10, folds=2, hidden=(8,),
                    embeddings=emb)
    inputs, _ = cli._inputs(MODELS[kind], cfg, ds, base)
    captions = [ds.captions(), *inputs[1:]]
    labels = ds.labels()
    with pytest.raises(ValueError, match="tokenize captions with memesent.textprep.preprocess"):
        cli._fit_model(cfg, captions, labels, 3)
    model = cli._fit_model(cfg, inputs, labels, 3)
    with pytest.raises(ValueError, match="tokenize captions with memesent.textprep.preprocess"):
        model.predict_proba(*captions)


@pytest.fixture(scope="module")
def saved_models(captioned_images):
    """The header and arrays of one saved model of each kind."""
    ds, base, emb = captioned_images
    saved = {}
    for kind in MODEL_KINDS:
        cfg = RunConfig(model=kind, epochs=1, batch_size=10, folds=2, hidden=(8,),
                        embeddings=emb)
        inputs, _ = cli._inputs(MODELS[kind], cfg, ds, base)
        cli._fit_model(cfg, inputs, ds.labels(), 3).save(base / f"{kind}.bin")
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
    ds, base, emb = captioned_images
    header, arrays = saved_models[kind]
    path = base / f"perturbed_{kind}.bin"
    save_container(path, header, data.draw(_perturbed(arrays)))
    try:
        model = _load(kind, path)
    except DataFormatError as exc:
        assert str(path) in str(exc)
        return
    try:
        probs = model.predict_proba(*cli._inputs(type(model), RunConfig(embeddings=emb),
                                                 ds, base)[0])
    except NumericError:  # finite weights whose scores overflow: a typed failure
        return
    assert probs.shape == (len(ds), 3) and np.isfinite(probs).all()
    assert np.abs(probs.sum(axis=1) - 1.0).max() < 1e-9


def test_config_fields_reach_the_estimators():
    cfg = RunConfig(model="fusion", hidden=(5, 4), lr=0.01, vocab_size=7, folds=3,
                    in_sample=True, epochs=1, batch_size=9, shuffle=False)
    model = cli._estimator(MODELS["fusion"], cfg, 11)
    assert (model.folds, model.in_sample, model.seed) == (3, True, 11)
    assert model.text.get_params() == dict(
        vocab_size=7, hidden=(5, 4), activation="relu", init_mode="scaled",
        init_sigma=1.0, batch_size=9, epochs=1, lr=0.01, shuffle=False, seed=11,
    )
    assert model.image.get_params() == dict(
        batch_size=9, epochs=1, lr=0.01, shuffle=False, seed=11,
    )
    w2v = cli._estimator(MODELS["ffnn_w2v"], cfg, 2)
    assert w2v.hidden == (5, 4) and w2v.seed == 2


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
    params = cls().get_params()
    # each key is a constructor parameter that is stored under its name
    for name in params:
        marker = object()
        clone = cls(**dict(params, **{name: marker}))
        assert clone.get_params()[name] is marker
    # and the constructor takes nothing else
    with pytest.raises(TypeError):
        cls(**params, not_a_parameter=1)
    # a hand-written __init__ cannot take a parameter that get_params leaves out
    assert sorted(inspect.signature(cls).parameters) == sorted(cls._param_names())


def test_training_defaults_are_train_config_defaults():
    train = vars(TrainConfig())
    adam_trained = [cls for cls in _estimator_classes() if set(train) <= set(cls._param_names())]
    assert {cls.__name__ for cls in adam_trained} >= {
        "Word2vecFfnnClassifier", "BowFfnnClassifier", "HsvCnnClassifier"}
    for cls in adam_trained:
        params = cls().get_params()
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
        params = cls().get_params()
        for name in set(_SECTIONS["model"]) & set(params):
            assert params[name] == getattr(run, name), (cls.__name__, name)
            covered.add(name)
    assert covered == {"alpha", "vocab_size", "hidden", "activation", "init_mode",
                       "init_sigma", "folds", "in_sample"}


def test_functional_front_ends_have_their_classes_defaults():
    fusion = BimodalFusionClassifier().get_params()
    assert _defaults(fusion_train) == {"lam": fusion["lam"], "epochs": fusion["stacker_epochs"],
                                       "lr": fusion["stacker_lr"], "seed": fusion["seed"]}
    assert _defaults(build_bow_vocab)["max_size"] == BowFfnnClassifier().vocab_size


def test_saved_models_are_registered():
    # every concrete (KIND-tagged) saved model is in the registry
    saved = [cls for cls in _estimator_classes() if issubclass(cls, SavedModel) and cls.KIND]
    assert set(saved) == set(MODELS.values())


def test_importing_one_module_loads_only_what_it_imports():
    # neither the package root nor memesent.models re-exports anything
    for module, loaded in (
        ("memesent.persist", ["memesent", "memesent.errors", "memesent.persist"]),
        ("memesent.models.image",
         ["memesent", "memesent.errors", "memesent.models", "memesent.models.image"]),
    ):
        proc = run_python("-c", f"import sys, {module}; print(*sorted("
                                "m for m in sys.modules if m.startswith('memesent')))")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == loaded


def test_readme_imports_resolve():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```", readme, re.M | re.S)
    imports = [node for block in blocks for node in ast.walk(ast.parse(block))
               if isinstance(node, ast.ImportFrom) and node.module.startswith("memesent")]
    assert imports
    missing = [f"{node.module}.{alias.name}" for node in imports for alias in node.names
               if not hasattr(importlib.import_module(node.module), alias.name)]
    assert missing == []


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


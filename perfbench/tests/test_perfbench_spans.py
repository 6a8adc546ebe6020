import sys
import types

import pytest

import layers
from spans import Patches, Tracer, aggregate, by_parent


class FakeClock:
    """Advances 10 ns per reading, so every span has a known length."""

    def __init__(self):
        self.now = 0

    def __call__(self):
        self.now += 10
        return self.now


@pytest.fixture
def fakepkg():
    """A package whose second module imports the first one's function by
    name, the way models/cnn.py imports nn.adam_step."""
    a = types.ModuleType("fakepkg.a")
    b = types.ModuleType("fakepkg.b")
    pkg = types.ModuleType("fakepkg")

    def inner(x):
        return x + 1

    def outer(x):
        return a.inner(x) * 2  # looked up in a's globals at call time

    class Model:
        def fit(self, x):
            return b.inner(x)  # the name bound in b

    a.inner, a.outer, a.Model = inner, outer, Model
    b.inner = inner
    pkg.a, pkg.b = a, b
    mods = {"fakepkg": pkg, "fakepkg.a": a, "fakepkg.b": b}
    sys.modules.update(mods)
    yield pkg
    for name in mods:
        sys.modules.pop(name, None)


def test_patch_reaches_every_binding_and_restores(fakepkg):
    a, b = fakepkg.a, fakepkg.b
    inner, outer, fit = a.inner, a.outer, a.Model.__dict__["fit"]
    tracer = Tracer(clock=FakeClock())
    patches = Patches("fakepkg")
    patches.function(a, "inner", lambda fn: tracer.wrap("inner", fn))
    patches.function(a, "outer", lambda fn: tracer.wrap("outer", fn))
    patches.method(a.Model, "fit", lambda fn: tracer.wrap("fit", fn))
    assert a.inner is not inner and b.inner is a.inner
    assert a.outer(1) == 4
    assert a.Model().fit(1) == 2
    patches.restore()
    assert a.inner is inner and b.inner is inner and a.outer is outer
    assert a.Model.__dict__["fit"] is fit
    assert [(s.name, s.parent) for s in tracer.spans] == [
        ("inner", "outer"), ("outer", None), ("inner", "fit"), ("fit", None),
    ]


def test_self_time_excludes_children():
    tracer = Tracer(clock=FakeClock())
    leaf = tracer.wrap("leaf", lambda: None)
    mid = tracer.wrap("mid", lambda: (leaf(), leaf()))
    top = tracer.wrap("top", mid)
    top()
    spans = {s.name: s for s in tracer.spans}
    assert spans["leaf"].ns == 10 and spans["leaf"].self_ns == 10
    # mid reads the clock twice around two 10 ns leaves and their 4 readings
    assert spans["mid"].ns == 50 and spans["mid"].self_ns == 30
    assert spans["top"].ns == 70 and spans["top"].self_ns == 20
    agg = aggregate(tracer.spans)
    assert agg["leaf"]["calls"] == 2 and agg["leaf"]["self_ms"] == pytest.approx(2e-5)
    rows = {(r["name"], r["parent"]): r["calls"] for r in by_parent(tracer.spans)}
    assert rows == {("leaf", "mid"): 2, ("mid", "top"): 1, ("top", None): 1}


def test_span_closes_when_the_function_raises():
    tracer = Tracer(clock=FakeClock())

    def boom():
        raise ValueError("x")

    traced = tracer.wrap("boom", boom)
    with pytest.raises(ValueError):
        traced()
    assert tracer.open_names() == []


def test_shared_functions_are_attributed_by_parent():
    tracer = Tracer(clock=FakeClock())
    step = tracer.wrap(layers._shared("adam_step"), lambda: None)
    tracer.wrap("cnn.fit", step)()
    tracer.wrap("nn.train", step)()
    assert [(s.name, s.parent) for s in tracer.spans[::2]] == [
        ("cnn.adam_step", "cnn.fit"), ("nn.adam_step", "nn.train"),
    ]


def test_install_wraps_the_program_and_restores_it():
    import memesent.cli
    import memesent.models.cnn as cnn
    import memesent.nn as nn

    originals = (nn.adam_step, cnn.adam_step, memesent.cli.load_dataset,
                 cnn.HsvCnnClassifier.__dict__["fit"])
    patches = layers.install(Tracer())
    try:
        assert nn.adam_step is not originals[0] and cnn.adam_step is nn.adam_step
        assert memesent.cli.load_dataset is not originals[2]
    finally:
        patches.restore()
    assert (nn.adam_step, cnn.adam_step, memesent.cli.load_dataset,
            cnn.HsvCnnClassifier.__dict__["fit"]) == originals


def test_metrics_cover_every_unit():
    tracer = Tracer(clock=FakeClock())
    tracer.wrap("cli.main", lambda: None)()
    out = layers.metrics(tracer.spans, wall_s=2.0, untraced_wall_s=1.5)
    assert set(out) == set(layers.UNITS)
    assert out["trace.overhead_s"] == pytest.approx(0.5)

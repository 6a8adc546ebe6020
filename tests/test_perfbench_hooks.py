"""The program names and arguments that perfbench's tracer reads.

``perfbench/layers.py`` wraps ``adam_step`` and counts a step's
parameters from its second positional argument, times the two
backward passes by name, and counts the presence rows that
``bow_vectorize`` writes. With one worker, traced fits run in the
benchmark's own process, so a renamed hook or a ``grads`` passed by
keyword would break a traced run there. This test traces real fits.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import layers  # noqa: E402
import numpy as np  # noqa: E402
from _util import hue_band_tensors, synthetic_corpus  # noqa: E402
from memesent.models import bow as bow_mod, ffnn as ffnn_mod  # noqa: E402
from memesent.models.cnn import HsvCnnClassifier  # noqa: E402
from memesent.models.ffnn import BowFfnnClassifier  # noqa: E402
from memesent.textprep import preprocess  # noqa: E402
from spans import Tracer, aggregate  # noqa: E402

CNN_PARAMS = 38_515  # K1, b1, K2, b2, W3, b3, W4, b4: 216 + 8 + 1,152 + 16 + 36,864 + 64 + 192 + 3


def test_traced_fits_count_each_adam_steps_parameters(monkeypatch):
    rows = []  # what each bow_vectorize call returned

    def vectorize(tokens, vocab, out=None):
        rows.append(real_vectorize(tokens, vocab, out=out))
        return rows[-1]

    real_vectorize = bow_mod.bow_vectorize
    for module in (bow_mod, ffnn_mod):
        monkeypatch.setattr(module, "bow_vectorize", vectorize)
    tracer = Tracer()
    patches = layers.install(tracer)
    try:
        T, y = hue_band_tensors(n=12, seed=0)
        HsvCnnClassifier(epochs=1, batch_size=4).fit(T, y)
        ds, _ = synthetic_corpus(n=12)
        bow = BowFfnnClassifier(hidden=(8,), epochs=1, batch_size=4).fit(
            [preprocess(c) for c in ds.captions()], [int(l) for l in ds.labels()])
    finally:
        patches.restore()
    spans = aggregate(tracer.spans)
    assert spans["cnn.adam_step"]["calls"] == 3
    assert spans["cnn.adam_step"]["counts"]["params"] == 3 * CNN_PARAMS
    bow_params = sum(p.size for p in bow.params_)
    assert spans["nn.adam_step"]["calls"] == 3
    assert spans["nn.adam_step"]["counts"]["params"] == 3 * bow_params
    assert spans["cnn.backward"]["calls"] == spans["nn.backward"]["calls"] == 3
    assert spans["cnn.fit"]["calls"] == spans["ffnn.bow.fit"]["calls"] == 1
    # the one-row writer of the float32 presence matrix, once per caption
    width = len(bow.vocab_)
    assert spans["bow.bow_vectorize"]["calls"] == len(rows) == len(ds)
    assert spans["bow.bow_vectorize"]["counts"]["size"] == len(ds) * width
    assert all(row.dtype == np.float32 and row.shape == (width,) for row in rows)

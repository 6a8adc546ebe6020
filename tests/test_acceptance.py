"""Headline guarantees of the toolkit, one test per guarantee.

Each test ends by printing a single ``[PASS]``/``[FAIL]`` line so the
verdicts can be grepped out of a captured log (run with ``pytest -rA``
or ``-s`` to see them for passing tests). The final test exercises the
real Memotion training data and is skipped unless both
``MEMESENT_MEMOTION_CSV`` (task-A training CSV, canonical or mapped via
``MEMESENT_MEMOTION_SCHEMA``) and ``MEMESENT_W2V_BIN`` (binary word2vec
file) are set.
"""

import os
import time

import numpy as np
import pytest

from _util import synthetic_corpus, write_word2vec_binary, write_word2vec_text
from memesent.cli import main
from memesent.corpus import CsvSchema, load_dataset, save_dataset, stratified_split, upsample
from memesent.embeddings import (
    EmbeddingTable,
    embed_corpus,
    load_word2vec_binary,
    load_word2vec_text,
)
from memesent.eval import macro_f1, stability_study
from memesent.models.ffnn import Word2vecFfnnClassifier
from memesent.models.fusion import fusion_train
from memesent.models.image import rgb_to_hsv
from memesent.models.naive_bayes import MultinomialNaiveBayes
from memesent.nn import NetSpec, grad_check
from memesent.textprep import preprocess


def verdict(name: str, ok: bool) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}")
    assert ok, name


def test_gradient_correctness():
    """Analytic backprop agrees with finite differences on the full-width net."""
    rng = np.random.default_rng(0)
    X = rng.standard_normal((8, 300))
    y = rng.integers(0, 3, size=8)
    hidden = (256, 128, 64, 64, 32, 16)
    t0 = time.monotonic()
    relu_err = grad_check(
        NetSpec(input_dim=300, hidden=hidden, activation="relu",
                init_mode="scaled", seed=0),
        X, y, eps=1e-5,
    )
    linear_err = grad_check(
        NetSpec(input_dim=300, hidden=hidden, activation="linear",
                init_mode="scaled", seed=0),
        X, y, eps=1e-3, order=4,
    )
    elapsed = time.monotonic() - t0
    verdict(
        "gradient correctness "
        f"(relu {relu_err:.2e} < 1e-4, linear {linear_err:.2e} < 1e-7, "
        f"{elapsed:.1f}s < 30s)",
        relu_err < 1e-4 and linear_err < 1e-7 and elapsed < 30.0,
    )


def brute_macro_f1(preds, golds):
    """Per-class F1 from first principles, no confusion matrix."""
    total = 0.0
    for c in range(3):
        tp = sum(1 for p, g in zip(preds, golds) if p == c and g == c)
        fp = sum(1 for p, g in zip(preds, golds) if p == c and g != c)
        fn = sum(1 for p, g in zip(preds, golds) if p != c and g == c)
        prec = tp / (tp + fp) if tp + fp else 0.0
        rec = tp / (tp + fn) if tp + fn else 0.0
        total += 2 * prec * rec / (prec + rec) if prec + rec else 0.0
    return total / 3.0


def test_metric_oracle():
    """macro_f1 equals a brute-force computation; two known scores pin it."""
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(1000):
        preds = rng.integers(0, 3, size=100)
        golds = rng.integers(0, 3, size=100)
        worst = max(
            worst,
            abs(macro_f1(preds, golds).macro_f1 - brute_macro_f1(preds, golds)),
        )
    perfect = macro_f1([0, 1, 2, 1], [0, 1, 2, 1]).macro_f1
    golds = [2] * 4160 + [1] * 2201 + [0] * 631
    all_pos = macro_f1([2] * len(golds), golds).macro_f1
    verdict(
        f"metric oracle (dual-route diff {worst:.1e} <= 1e-12, perfect "
        f"{perfect}, all-positive {all_pos:.6f} = 0.2487 +/- 1e-4)",
        worst <= 1e-12 and perfect == 1.0 and abs(all_pos - 0.2487) <= 1e-4,
    )


def test_synthetic_end_to_end():
    """Default dense pipeline and the token-count baseline separate the
    constructed 3-class corpus."""
    t0 = time.monotonic()
    ds, table = synthetic_corpus(n=300)
    train, val = stratified_split(ds, 0.8, seed=0)
    golds = [int(l) for l in val.labels()]

    ffnn = Word2vecFfnnClassifier(batch_size=50, epochs=10).fit(
        embed_corpus([preprocess(c) for c in train.captions()], table),
        [int(l) for l in train.labels()],
    )
    ffnn_f1 = macro_f1(
        ffnn.predict(embed_corpus([preprocess(c) for c in val.captions()], table)), golds
    ).macro_f1

    nb = MultinomialNaiveBayes().fit(
        [preprocess(c) for c in train.captions()],
        [int(l) for l in train.labels()],
    )
    nb_preds = nb.predict([preprocess(c) for c in val.captions()])
    nb_f1 = macro_f1(nb_preds, golds).macro_f1
    elapsed = time.monotonic() - t0
    verdict(
        f"synthetic end-to-end (ffnn {ffnn_f1:.3f} >= 0.95, "
        f"nb {nb_f1:.3f} >= 0.90, {elapsed:.1f}s < 60s)",
        ffnn_f1 >= 0.95 and nb_f1 >= 0.90 and elapsed < 60.0,
    )


def test_determinism(tmp_path):
    """Same config + seed => byte-identical artifacts; a constant scorer
    has exactly zero variance."""
    ds, table = synthetic_corpus(n=60)
    data = tmp_path / "data.csv"
    save_dataset(ds, data)
    emb = tmp_path / "vectors.bin"
    write_word2vec_binary(table, emb)

    args = ["train", "--model", "ffnn_w2v", "--dataset", str(data),
            "--embeddings", str(emb), "--seed", "3"]
    for out in ("t1", "t2"):
        assert main(args + ["--out", str(tmp_path / out)]) == 0
    models_equal = (
        (tmp_path / "t1" / "model.bin").read_bytes()
        == (tmp_path / "t2" / "model.bin").read_bytes()
    )

    for out in ("p1", "p2"):
        assert main([
            "predict", "--model", str(tmp_path / "t1" / "model.bin"),
            "--embeddings", str(emb), "--dataset", str(data),
            "--out", str(tmp_path / out),
        ]) == 0
    preds_equal = (
        (tmp_path / "p1" / "predictions.csv").read_bytes()
        == (tmp_path / "p2" / "predictions.csv").read_bytes()
    )

    def echo_golds(train_ds, val_ds, seed):
        return [int(l) for l in val_ds.labels()]

    report = stability_study(echo_golds, ds, n_runs=10, seed0=0)
    verdict(
        "determinism (model files equal: "
        f"{models_equal}, prediction CSVs equal: {preds_equal}, "
        f"constant-scorer variance {report.variance!r} == 0.0)",
        models_equal and preds_equal and report.variance == 0.0,
    )


def test_format_fidelity(tmp_path):
    """Embedding files round-trip byte-for-byte; the two encodings agree;
    HSV conversion hits the analytic corners exactly."""
    rng = np.random.default_rng(9)
    table = EmbeddingTable(
        tuple(f"w{i}" for i in range(23)),
        np.stack([rng.standard_normal(7) for _ in range(23)]),
        source="synthetic",
    )
    bin1, bin2 = tmp_path / "a.bin", tmp_path / "b.bin"
    write_word2vec_binary(table, bin1)
    loaded = load_word2vec_binary(bin1)
    write_word2vec_binary(loaded, bin2)
    binary_rt = bin1.read_bytes() == bin2.read_bytes()

    txt = tmp_path / "a.txt"
    write_word2vec_text(loaded, txt)
    from_text = load_word2vec_text(txt)
    f32_eps = float(np.finfo(np.float32).eps)
    encodings_agree = from_text.words == loaded.words and np.allclose(
        from_text.matrix, loaded.matrix, rtol=f32_eps, atol=f32_eps
    )

    corners = np.array([
        [255, 0, 0], [0, 255, 0], [0, 0, 255],
        [0, 0, 0], [128, 128, 128], [255, 255, 255],
    ])
    expected = np.array([
        [0.0, 1.0, 1.0],
        [1.0 / 3.0, 1.0, 1.0],
        [2.0 / 3.0, 1.0, 1.0],
        [0.0, 0.0, 0.0],
        [0.0, 0.0, 128.0 / 255.0],
        [0.0, 0.0, 1.0],
    ])
    hsv_exact = np.array_equal(rgb_to_hsv(corners), expected)

    verdict(
        f"format fidelity (binary round-trip: {binary_rt}, text/binary "
        f"agree: {encodings_agree}, HSV corners exact: {hsv_exact})",
        binary_rt and encodings_agree and hsv_exact,
    )


def test_fusion_sanity():
    """A perfect text branch through the stacker wins on held-out rows
    even when the image branch is pure noise."""
    rng = np.random.default_rng(0)
    y = rng.integers(0, 3, size=180)
    text = np.eye(3)[y] * 0.94 + 0.02   # rows sum to 1, argmax = label
    image = np.full((180, 3), 1.0 / 3.0)
    stacker = fusion_train(text[:120], image[:120], y[:120], seed=0)
    held = np.argmax(stacker.scores(np.hstack([text[120:], image[120:]])), axis=1)
    accuracy = float(np.mean(held == y[120:]))
    dim_six = stacker.weights.shape == (3, 6)
    verdict(
        f"fusion sanity (held-out accuracy {accuracy} == 1.0, "
        f"stacker input dim 6: {dim_six})",
        accuracy == 1.0 and dim_six,
    )


MEMOTION_CSV = os.environ.get("MEMESENT_MEMOTION_CSV", "")
W2V_BIN = os.environ.get("MEMESENT_W2V_BIN", "")


@pytest.mark.skipif(
    not (MEMOTION_CSV and W2V_BIN),
    reason="set MEMESENT_MEMOTION_CSV and MEMESENT_W2V_BIN to run the "
    "real-data stability check",
)
def test_real_data_stability():
    """50-seed stability study on the real training data lands in the
    published band: mean macro-F1 in [0.30, 0.38], max >= mean."""
    schema_spec = os.environ.get("MEMESENT_MEMOTION_SCHEMA", "")
    schema = CsvSchema.parse(schema_spec) if schema_spec else CsvSchema()
    ds = load_dataset(MEMOTION_CSV, schema)
    vocab = {t for c in ds.captions() for t in preprocess(c)}
    table = load_word2vec_binary(W2V_BIN, vocab_filter=vocab)

    def train_fn(train_ds, val_ds, seed):
        up = upsample(train_ds, seed)
        model = Word2vecFfnnClassifier(seed=seed).fit(
            embed_corpus([preprocess(c) for c in up.captions()], table),
            [int(l) for l in up.labels()],
        )
        return model.predict(embed_corpus([preprocess(c) for c in val_ds.captions()], table))

    t0 = time.monotonic()
    report = stability_study(train_fn, ds, fraction=0.8, n_runs=50, seed0=0)
    elapsed = time.monotonic() - t0
    verdict(
        f"real-data stability (mean {report.mean:.4f} in [0.30, 0.38], "
        f"max {report.max:.4f} >= mean, variance {report.variance:.2e}, "
        f"{elapsed / 60.0:.1f}min < 30min)",
        0.30 <= report.mean <= 0.38
        and report.max >= report.mean
        and elapsed < 1800.0,
    )

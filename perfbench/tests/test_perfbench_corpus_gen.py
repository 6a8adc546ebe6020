import csv

import numpy as np

import corpus_gen as gen
from memesent.embeddings import load_word2vec_binary
from memesent.models.image import load_hsv_input
from memesent.textprep import preprocess


def _write_all(directory, seed):
    directory.mkdir()
    ids, y = gen.write_dataset(directory / "c.csv", gen.MEMOTION_COUNTS, seed, image_dir="img",
                               take={"positive": 50, "neutral": 30, "negative": 10})
    gen.write_word2vec(directory / "w.bin", 700, seed)
    gen.write_hsv_dir(directory / "img", ids, y, seed)
    return sorted(p for p in directory.rglob("*") if p.is_file())


def test_same_seed_same_bytes(tmp_path):
    first = _write_all(tmp_path / "a", 5)
    second = _write_all(tmp_path / "b", 5)
    other = _write_all(tmp_path / "c", 6)
    assert len(first) == len(second) == 2 + 90
    for p, q in zip(first, second):
        assert p.read_bytes() == q.read_bytes(), p.name
    assert (tmp_path / "a" / "c.csv").read_bytes() != (tmp_path / "c" / "c.csv").read_bytes()
    assert (tmp_path / "a" / "w.bin").read_bytes() != (tmp_path / "c" / "w.bin").read_bytes()


def test_memotion_class_counts(tmp_path):
    gen.write_dataset(tmp_path / "c.csv", gen.MEMOTION_COUNTS, 1)
    with open(tmp_path / "c.csv", encoding="utf-8", newline="") as fh:
        labels = [row["label"] for row in csv.DictReader(fh)]
    assert {k: labels.count(k) for k in gen.LABELS} == {
        "negative": 631, "neutral": 2201, "positive": 4160,
    }
    take = {"positive": 20, "neutral": 9, "negative": 3}
    gen.write_dataset(tmp_path / "part.csv", gen.MEMOTION_COUNTS, 1, take=take)
    with open(tmp_path / "part.csv", encoding="utf-8", newline="") as fh:
        part = list(csv.DictReader(fh))
    with open(tmp_path / "c.csv", encoding="utf-8", newline="") as fh:
        full = list(csv.DictReader(fh))
    for label, n in take.items():
        assert [r for r in part if r["label"] == label] == [r for r in full if r["label"] == label][:n]
    assert [r["id"] for r in part] == sorted(r["id"] for r in part)


def test_small_file_is_a_prefix_and_reads_back(tmp_path):
    gen.write_word2vec(tmp_path / "small.bin", 300, 2)
    gen.write_word2vec(tmp_path / "large.bin", 600, 2)
    small = load_word2vec_binary(tmp_path / "small.bin")
    large = load_word2vec_binary(tmp_path / "large.bin")
    assert len(small) == 300 and small.dim == gen.DIM
    for word, vec in small.vectors.items():
        assert np.array_equal(vec, large[word])
        assert preprocess(word) == [word]  # words survive preprocessing


def test_tensors_carry_the_class_hue(tmp_path):
    y = np.array([0, 1, 2] * 20)
    gen.write_hsv_dir(tmp_path, [f"r{i}" for i in range(len(y))], y, 3)
    hues = np.array([load_hsv_input(tmp_path / f"r{i}.hsv")[..., 0].mean() for i in range(len(y))])
    nearest = np.abs(hues[:, None] - (np.array(gen.HUE_BANDS) + 0.025)).argmin(axis=1)
    assert (nearest == y).mean() > 0.6

import numpy as np
import pytest

from memesent.embeddings import EmbeddingTable


@pytest.fixture
def tiny_csv(tmp_path):
    path = tmp_path / "tiny.csv"
    path.write_text(
        "id,caption,label\n"
        "m1,When the wifi drops,positive\n"
        'm2,"Me, pretending to work",neutral\n'
        "m3,Monday again,negative\n",
        encoding="utf-8",
    )
    return path


@pytest.fixture
def toy_table():
    rng = np.random.default_rng(42)
    words = ["king", "queen", "meme", "cat", "dog"]
    return EmbeddingTable(words, np.stack([rng.standard_normal(4) for _ in words]))

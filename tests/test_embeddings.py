import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from memesent.embeddings import (
    CoverageStats,
    EmbeddingTable,
    caption_embedding,
    corpus_coverage,
    embed_corpus,
    load_embeddings,
    load_word2vec_binary,
    load_word2vec_text,
    write_word2vec_binary,
    write_word2vec_text,
)
from memesent.errors import DataFormatError

from _util import fuzz_settings, mutated


def write_binary_fixture(path):
    """Two words, dim 3, classic layout."""
    v1 = np.array([0.25, -1.5, 3.0], dtype="<f4")
    v2 = np.array([1.0, 2.0, -0.125], dtype="<f4")
    with open(path, "wb") as fh:
        fh.write(b"2 3\n")
        fh.write(b"king " + v1.tobytes() + b"\n")
        fh.write(b"queen " + v2.tobytes() + b"\n")
    return {"king": v1.astype(np.float64), "queen": v2.astype(np.float64)}


# ---------------------------------------------------------------- binary
def test_binary_load(tmp_path):
    path = tmp_path / "vecs.bin"
    expected = write_binary_fixture(path)
    table = load_word2vec_binary(path)
    assert table.dim == 3 and len(table) == 2
    for word, vec in expected.items():
        np.testing.assert_array_equal(table[word], vec)


def test_binary_roundtrip_byte_identical(tmp_path):
    src = tmp_path / "vecs.bin"
    write_binary_fixture(src)
    table = load_word2vec_binary(src)
    out = tmp_path / "copy.bin"
    write_word2vec_binary(table, out)
    assert out.read_bytes() == src.read_bytes()


def test_binary_without_trailing_newlines(tmp_path):
    path = tmp_path / "tight.bin"
    v = np.array([1.0, 2.0], dtype="<f4")
    with open(path, "wb") as fh:
        fh.write(b"1 2\na " + v.tobytes())  # no newline after the vector
    table = load_word2vec_binary(path)
    np.testing.assert_array_equal(table["a"], [1.0, 2.0])


def test_binary_truncated_vector(tmp_path):
    path = tmp_path / "trunc.bin"
    v = np.array([1.0, 2.0, 3.0], dtype="<f4")
    with open(path, "wb") as fh:
        fh.write(b"2 3\n")
        fh.write(b"king " + v.tobytes() + b"\n")
        fh.write(b"queen " + v.tobytes()[:5])
    with pytest.raises(DataFormatError, match="word index 1"):
        load_word2vec_binary(path)


def test_binary_truncated_token(tmp_path):
    path = tmp_path / "trunc2.bin"
    path.write_bytes(b"1 3\nkin")
    with pytest.raises(DataFormatError, match="word index 0"):
        load_word2vec_binary(path)


def test_binary_trailing_garbage(tmp_path):
    path = tmp_path / "extra.bin"
    v = np.array([1.0], dtype="<f4")
    path.write_bytes(b"1 1\na " + v.tobytes() + b"\nEXTRA")
    with pytest.raises(DataFormatError, match="unexpected bytes"):
        load_word2vec_binary(path)


def test_binary_bad_header(tmp_path):
    path = tmp_path / "hdr.bin"
    path.write_bytes(b"not a header\n")
    with pytest.raises(DataFormatError, match="header"):
        load_word2vec_binary(path)


def test_binary_duplicate_word(tmp_path):
    path = tmp_path / "dup.bin"
    v = np.array([1.0], dtype="<f4").tobytes()
    path.write_bytes(b"2 1\na " + v + b"\na " + v + b"\n")
    with pytest.raises(DataFormatError, match="duplicate word"):
        load_word2vec_binary(path)


def test_binary_vocab_filter(tmp_path):
    path = tmp_path / "vecs.bin"
    write_binary_fixture(path)
    table = load_word2vec_binary(path, vocab_filter={"queen"})
    assert len(table) == 1 and "queen" in table and "king" not in table


def test_binary_non_utf8_token(tmp_path):
    path = tmp_path / "latin.bin"
    v = np.array([1.0], dtype="<f4").tobytes()
    path.write_bytes(b"1 1\ncaf\xe9 " + v + b"\n")
    with pytest.raises(DataFormatError, match="non-UTF-8"):
        load_word2vec_binary(path)
    table = load_word2vec_binary(path, encoding_errors="replace")
    assert len(table) == 1  # token kept with the replacement character


def test_binary_header_dim_larger_than_file(tmp_path):
    # read() would first allocate the 40 TB vector the header declares
    path = tmp_path / "vecs.bin"
    path.write_bytes(b"1 10000000000000\nw ")
    with pytest.raises(DataFormatError, match="word index 0"):
        load_word2vec_binary(path)


_BINARY_SEED = (b"2 3\nking " + np.array([0.25, -1.5, 3.0], dtype="<f4").tobytes()
                + b"\nqueen " + np.array([1.0, 2.0, -0.125], dtype="<f4").tobytes() + b"\n")
_TEXT_SEED = b"2 3\nking 0.25 -1.5 3\nqueen 1 2 -0.125\n"


@fuzz_settings
@given(data=mutated(_BINARY_SEED))
def test_binary_fuzz_fails_typed(tmp_path, data):
    path = tmp_path / "fuzz.bin"
    path.write_bytes(data)
    try:
        load_word2vec_binary(path)
    except DataFormatError:
        pass


@fuzz_settings
@given(data=mutated(_TEXT_SEED))
def test_text_fuzz_fails_typed(tmp_path, data):
    path = tmp_path / "fuzz.txt"
    path.write_bytes(data)
    try:
        load_word2vec_text(path)
    except DataFormatError:
        pass


def test_missing_file(tmp_path):
    with pytest.raises(DataFormatError, match="not found"):
        load_word2vec_binary(tmp_path / "nope.bin")


# ---------------------------------------------------------------- text
def test_text_load(tmp_path):
    path = tmp_path / "vecs.txt"
    path.write_text("1 3\nking 0.1 0.2 0.3\n")
    table = load_word2vec_text(path)
    np.testing.assert_allclose(table["king"], [0.1, 0.2, 0.3], atol=1e-7)


def test_text_bad_component_count(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("1 3\nking 0.1 0.2\n")
    with pytest.raises(DataFormatError, match=":2:"):
        load_word2vec_text(path)


def test_text_count_mismatch(tmp_path):
    path = tmp_path / "short.txt"
    path.write_text("2 2\nking 0.1 0.2\n")
    with pytest.raises(DataFormatError, match="declares 2"):
        load_word2vec_text(path)


def test_text_bad_float(tmp_path):
    path = tmp_path / "nan.txt"
    path.write_text("1 2\nking 0.1 oops\n")
    with pytest.raises(DataFormatError, match="bad float"):
        load_word2vec_text(path)


def test_text_non_finite_vector_names_the_file(tmp_path):
    path = tmp_path / "nan.txt"
    path.write_text("2 3\nab 1 1 1\ncd nan 1 1\n")
    with pytest.raises(DataFormatError, match=r"nan\.txt.*'cd' contains non-finite"):
        load_word2vec_text(path)


def test_binary_non_finite_vector_names_the_file(tmp_path):
    path = tmp_path / "inf.bin"
    vec = np.array([1.0, np.inf, 1.0], dtype="<f4")
    path.write_bytes(b"1 3\ncd " + vec.tobytes() + b"\n")
    with pytest.raises(DataFormatError, match=r"inf\.bin.*'cd' contains non-finite"):
        load_word2vec_binary(path)


def test_text_non_utf8_token(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_bytes(b"2 3\nok 1 2 3\n\xff\xfeab 1 2 3\n")
    with pytest.raises(DataFormatError, match=r"bad\.txt:3: not UTF-8"):
        load_word2vec_text(path)


def test_text_binary_agree_within_f32(tmp_path, toy_table):
    bin_path, txt_path = tmp_path / "t.bin", tmp_path / "t.txt"
    write_word2vec_binary(toy_table, bin_path)
    write_word2vec_text(toy_table, txt_path)
    from_bin = load_embeddings(bin_path, "binary")
    from_txt = load_embeddings(txt_path, "text")
    assert set(from_bin.vectors) == set(from_txt.vectors)
    for word in from_bin.vectors:
        np.testing.assert_allclose(
            from_bin[word], from_txt[word], rtol=0, atol=np.finfo(np.float32).eps
        )


def test_readers_keep_float32(tmp_path, toy_table):
    bin_path, txt_path = tmp_path / "t.bin", tmp_path / "t.txt"
    write_word2vec_binary(toy_table, bin_path)
    write_word2vec_text(toy_table, txt_path)
    for table in (load_word2vec_binary(bin_path), load_word2vec_text(txt_path)):
        assert len(table) == len(toy_table)
        assert all(vec.dtype == np.float32 for vec in table.vectors.values())


def test_pooling_a_loaded_table_equals_pooling_its_float64_copy(tmp_path):
    rng = np.random.default_rng(3)
    words = [f"w{i}" for i in range(300)]
    path = tmp_path / "v.bin"
    write_word2vec_binary(EmbeddingTable(dim=50, vectors={
        w: rng.standard_normal(50) * 10.0 ** rng.integers(-3, 4) for w in words}), path)
    loaded = load_word2vec_binary(path)
    wide = EmbeddingTable(dim=50, vectors={w: v.astype(np.float64)
                                           for w, v in loaded.vectors.items()})
    # repeated words from a small vocabulary, two out-of-vocabulary words
    # and empty captions
    captions = [rng.choice(words + ["oov_a", "oov_b"], size=rng.integers(0, 80)).tolist()
                for _ in range(1200)]
    pooled = embed_corpus(captions, loaded)
    assert pooled.dtype == np.float64
    assert np.array_equal(pooled, embed_corpus(captions, wide))


def test_load_embeddings_unknown_format(tmp_path):
    with pytest.raises(DataFormatError, match="unknown embedding format"):
        load_embeddings(tmp_path / "x", fmt="parquet")


def test_table_validates_shapes():
    with pytest.raises(DataFormatError, match="shape"):
        EmbeddingTable(dim=3, vectors={"a": np.zeros(2)})
    with pytest.raises(DataFormatError, match="non-finite"):
        EmbeddingTable(dim=1, vectors={"a": np.array([np.inf])})


# ---------------------------------------------------------------- pooling
def test_caption_embedding_single(toy_table):
    emb = caption_embedding(["king"], toy_table)
    np.testing.assert_array_equal(emb.vector, toy_table["king"])
    assert (emb.covered, emb.total) == (1, 1)


def test_caption_embedding_mean():
    table = EmbeddingTable(
        dim=2, vectors={"a": np.array([1.0, 0.0]), "b": np.array([0.0, 1.0])}
    )
    emb = caption_embedding(["a", "b"], table)
    np.testing.assert_array_equal(emb.vector, [0.5, 0.5])


def test_caption_embedding_oov(toy_table):
    for tokens in ([], ["zzz", "qqq"]):
        emb = caption_embedding(tokens, toy_table)
        np.testing.assert_array_equal(emb.vector, np.zeros(4))
        assert emb.covered == 0


def test_caption_embedding_skips_oov(toy_table):
    with_oov = caption_embedding(["king", "zzz"], toy_table)
    without = caption_embedding(["king"], toy_table)
    np.testing.assert_array_equal(with_oov.vector, without.vector)
    assert (with_oov.covered, with_oov.total) == (1, 2)


def test_embed_corpus_shape_and_rows(toy_table):
    captions = [["king"], ["queen", "cat"], ["zzz"]]
    M = embed_corpus(captions, toy_table)
    assert M.shape == (3, 4)
    for i, tokens in enumerate(captions):
        np.testing.assert_array_equal(M[i], caption_embedding(tokens, toy_table).vector)
    assert embed_corpus([], toy_table).shape == (0, 4)


def test_corpus_coverage(toy_table):
    cov = corpus_coverage([["king", "zzz"], ["qqq"]], toy_table)
    assert cov == CoverageStats(n_captions=2, n_all_oov=1, n_tokens=3,
                                n_covered_tokens=1)
    assert cov.all_oov_fraction == 0.5
    assert cov.token_coverage == pytest.approx(1 / 3)


def test_vectorizer_matches_function(toy_table):
    # the Word2Vec classifier's features are embed_corpus of the tokens
    from memesent.models import Word2vecFfnnClassifier

    model = Word2vecFfnnClassifier(toy_table)
    X = model._features(["king queen", ""], fitting=True)
    np.testing.assert_array_equal(X, embed_corpus([["king", "queen"], []], toy_table))
    assert model.coverage_.n_captions == 2
    assert "table" in model.get_params()


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_mean_bound_and_permutation_invariance(data):
    dim = data.draw(st.integers(1, 5))
    words = data.draw(st.lists(st.sampled_from("abcdefgh"), min_size=1,
                               max_size=6, unique=True))
    rng = np.random.default_rng(data.draw(st.integers(0, 1000)))
    table = EmbeddingTable(
        dim=dim, vectors={w: rng.standard_normal(dim) for w in words}
    )
    tokens = data.draw(st.lists(st.sampled_from(words), min_size=1, max_size=8))
    emb = caption_embedding(tokens, table)
    stack = np.stack([table[t] for t in tokens])
    assert np.all(emb.vector >= stack.min(axis=0) - 1e-12)
    assert np.all(emb.vector <= stack.max(axis=0) + 1e-12)
    perm = data.draw(st.permutations(tokens))
    np.testing.assert_allclose(
        caption_embedding(list(perm), table).vector, emb.vector, atol=1e-12
    )

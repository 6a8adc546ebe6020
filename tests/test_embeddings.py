import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from memesent import embeddings
from memesent.embeddings import (
    CoverageStats,
    EmbeddingTable,
    corpus_coverage,
    embed_corpus,
    load_embeddings,
    load_word2vec_binary,
    load_word2vec_text,
)
from memesent.errors import DataFormatError

from _util import fuzz_settings, mutated, write_word2vec_binary, write_word2vec_text


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
    path.write_text("1 2\na  ")  # shorter than two one-digit components
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


def test_text_line_may_end_with_one_space(tmp_path):
    # word2vec.c and fastText end each vector line with a space
    plain, spaced = tmp_path / "plain.txt", tmp_path / "spaced.txt"
    plain.write_bytes(b"2 3\nhello 0.1 0.2 0.3\nworld 1.0 2.0 3.0\n")
    spaced.write_bytes(b"2 3\nhello 0.1 0.2 0.3 \nworld 1.0 2.0 3.0 \r\n")
    a, b = load_word2vec_text(plain), load_word2vec_text(spaced)
    assert a.words == b.words == ("hello", "world")
    assert a.matrix.tobytes() == b.matrix.tobytes()


def test_text_written_with_trailing_spaces_is_the_plain_table(tmp_path, toy_table):
    plain, spaced = tmp_path / "plain.txt", tmp_path / "spaced.txt"
    write_word2vec_text(toy_table, plain)
    write_word2vec_text(toy_table, spaced, end=" \n")
    assert spaced.read_bytes() != plain.read_bytes()
    a, b = load_word2vec_text(plain), load_word2vec_text(spaced)
    assert a.words == b.words == toy_table.words
    assert a.matrix.tobytes() == b.matrix.tobytes()


@pytest.mark.parametrize("line", [b"a 0.1 0.2  ", b"a 0.1 0.2 \t", b"a 0.1 0.2 0.3 ", b"a  0.1 0.2"],
                         ids=["two_trailing", "space_tab", "extra_component", "two_after_token"])
def test_text_rejects_any_other_extra_separator(tmp_path, line):
    path = tmp_path / "bad.txt"
    path.write_bytes(b"1 2\n" + line + b"\n")
    with pytest.raises(DataFormatError, match=r"bad\.txt:2: expected token plus 2 components"):
        load_word2vec_text(path)


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
    assert from_bin.words == from_txt.words == toy_table.words
    np.testing.assert_allclose(
        from_bin.matrix, from_txt.matrix, rtol=0, atol=np.finfo(np.float32).eps
    )


def test_readers_keep_float32(tmp_path, toy_table):
    bin_path, txt_path = tmp_path / "t.bin", tmp_path / "t.txt"
    write_word2vec_binary(toy_table, bin_path)
    write_word2vec_text(toy_table, txt_path)
    for table in (load_word2vec_binary(bin_path), load_word2vec_text(txt_path)):
        assert len(table) == len(toy_table)
        assert table.matrix.dtype == np.float32


def test_pooling_a_loaded_table_equals_pooling_its_float64_copy(tmp_path):
    rng = np.random.default_rng(3)
    words = [f"w{i}" for i in range(300)]
    path = tmp_path / "v.bin"
    write_word2vec_binary(EmbeddingTable(words, np.stack([
        rng.standard_normal(50) * 10.0 ** rng.integers(-3, 4) for _ in words])), path)
    loaded = load_word2vec_binary(path)
    wide = EmbeddingTable(loaded.words, loaded.matrix.astype(np.float64))
    # repeated words from a small vocabulary, two out-of-vocabulary words
    # and empty captions
    captions = [rng.choice(words + ["oov_a", "oov_b"], size=rng.integers(0, 80)).tolist()
                for _ in range(1200)]
    pooled = embed_corpus(captions, loaded)
    assert pooled.dtype == np.float32
    assert np.array_equal(pooled, embed_corpus(captions, wide))
    assert np.array_equal(pooled, np.stack([mean64(tokens, wide) for tokens in captions])
                          .astype(np.float32))


def test_load_embeddings_unknown_format(tmp_path):
    with pytest.raises(DataFormatError, match="unknown embedding format"):
        load_embeddings(tmp_path / "x", fmt="parquet")


def test_table_validates_shapes():
    with pytest.raises(DataFormatError, match="shape"):
        EmbeddingTable(("a",), np.zeros((2, 3)))
    with pytest.raises(DataFormatError, match="shape"):
        EmbeddingTable(("a",), np.zeros(3))
    with pytest.raises(DataFormatError, match=r"src: vector for 'b' contains non-finite"):
        EmbeddingTable(("a", "b", "c"), np.array([[1.0], [np.inf], [np.nan]]), "src")
    with pytest.raises(DataFormatError, match=r"src: duplicate word 'a' at rows 0 and 2"):
        EmbeddingTable(("a", "b", "a"), np.zeros((3, 2)), "src")


def test_table_maps_words_to_rows(toy_table):
    assert toy_table.words == ("king", "queen", "meme", "cat", "dog")
    assert toy_table.index["cat"] == 3 and toy_table.dim == 4
    np.testing.assert_array_equal(toy_table["cat"], toy_table.matrix[3])
    assert list(toy_table.vectors) == list(toy_table.words)
    np.testing.assert_array_equal(toy_table.vectors["cat"], toy_table.matrix[3])
    with pytest.raises(TypeError):
        toy_table.vectors["cat"] = np.zeros(4)


# ---------------------------------------------------------------- block reads
def _binary_table(rng, n=40, dim=5):
    # tokens of one to several bytes, some of them multi-byte UTF-8
    words = tuple(f"w{i}" * (i % 4) + "é" * (i % 3) + str(i) for i in range(n))
    return EmbeddingTable(words, rng.standard_normal((n, dim)).astype(np.float32))


_V = np.array([1.0, 2.0, 3.0], dtype="<f4").tobytes()
_BAD_BINARY = {
    "truncated token": (b"2 3\nking " + _V + b"\nque", "word index 1"),
    "truncated vector": (b"2 3\nking " + _V + b"\nqueen " + _V[:5], "word index 1"),
    "non-UTF-8": (b"2 3\nking " + _V + b"\ncaf\xe9 " + _V + b"\n",
                  "non-UTF-8 token bytes at word index 1"),
    "duplicate": (b"3 3\nab " + _V + b"\ncd " + _V + b"\nab " + _V + b"\n",
                  "duplicate word 'ab' at rows 0 and 2"),
    "trailing": (b"1 3\nab " + _V + b"\nEXTRA", "unexpected bytes"),
    "dim beyond file": (b"1 10000000000000\nw " + _V, "word index 0"),
}


@pytest.mark.parametrize("block", [1, 2, 3, 7])
def test_binary_block_boundaries(tmp_path, monkeypatch, block):
    path = tmp_path / "v.bin"
    write_word2vec_binary(_binary_table(np.random.default_rng(block)), path)
    whole = load_word2vec_binary(path)
    keep = set(whole.words[::3])
    some = load_word2vec_binary(path, vocab_filter=keep)
    monkeypatch.setattr(embeddings, "_BLOCK", block)
    for table, vocab_filter in ((whole, None), (some, keep)):
        small = load_word2vec_binary(path, vocab_filter=vocab_filter)
        assert small.words == table.words
        assert np.array_equal(small.matrix, table.matrix)


@pytest.mark.parametrize("case", sorted(_BAD_BINARY))
def test_binary_errors_at_a_small_block(tmp_path, monkeypatch, case):
    data, message = _BAD_BINARY[case]
    path = tmp_path / "bad.bin"
    path.write_bytes(data)
    monkeypatch.setattr(embeddings, "_BLOCK", 3)
    with pytest.raises(DataFormatError, match=message):
        load_word2vec_binary(path)


@pytest.mark.parametrize("fmt", ["binary", "text"])
def test_filtered_duplicate_is_named(tmp_path, fmt):
    # the filter keeps two words, so the second 'a' leaves no row for 'b'
    table = EmbeddingTable(("x",), np.ones((1, 2)))
    path = tmp_path / "v"
    (write_word2vec_binary if fmt == "binary" else write_word2vec_text)(table, path)
    body = path.read_bytes().split(b"\n", 1)[1]
    row = body[1:]  # " <vector>\n" after the token "x"
    path.write_bytes(b"3 2\n" + b"a" + row + b"a" + row + b"b" + row)
    with pytest.raises(DataFormatError, match="duplicate word 'a'"):
        load_embeddings(path, fmt, vocab_filter={"a", "b"})


@pytest.mark.parametrize("fmt", ["binary", "text"])
def test_filter_with_absent_words_gives_back_their_rows(tmp_path, fmt):
    whole = _binary_table(np.random.default_rng(3))
    path = tmp_path / "v"
    (write_word2vec_binary if fmt == "binary" else write_word2vec_text)(whole, path)
    keep = set(whole.words[::2])
    table = load_embeddings(path, fmt, vocab_filter=keep | {"absent", "also absent"})
    assert table.words == whole.words[::2]
    assert np.array_equal(table.matrix, whole.matrix[::2])
    # the matrix holds exactly the words found: no view into a larger block
    assert table.matrix.base is None and table.matrix.flags.owndata
    assert table.matrix.shape == (len(table.words), whole.dim)


def test_binary_load_memory_is_close_to_the_matrix(tmp_path):
    rng = np.random.default_rng(0)
    path = tmp_path / "big.bin"
    n, dim = 20_000, 300
    write_word2vec_binary(EmbeddingTable(
        tuple(f"word{i}" for i in range(n)),
        rng.standard_normal((n, dim)).astype(np.float32)), path)
    tracemalloc.start()
    try:
        table = load_word2vec_binary(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(table) == n and table.matrix.nbytes == n * dim * 4
    assert peak <= 1.2 * table.matrix.nbytes, peak / table.matrix.nbytes


# ---------------------------------------------------------------- pooling
def mean64(tokens, table):
    """The float64 mean of the in-vocabulary tokens' vectors."""
    hits = [table[t] for t in tokens if t in table]
    if not hits:
        return np.zeros(table.dim)
    return np.mean(np.stack(hits), axis=0, dtype=np.float64)


def pooled(tokens, table):
    """The oracle: :func:`mean64` cast to float32."""
    return mean64(tokens, table).astype(np.float32)


def test_caption_embedding_single(toy_table):
    np.testing.assert_array_equal(embed_corpus([["king"]], toy_table)[0],
                                  toy_table["king"].astype(np.float32))


def test_caption_embedding_mean():
    table = EmbeddingTable(("a", "b"), np.eye(2))
    np.testing.assert_array_equal(embed_corpus([["a", "b"]], table), [[0.5, 0.5]])


def test_caption_embedding_oov(toy_table):
    M = embed_corpus([[], ["zzz", "qqq"]], toy_table)
    np.testing.assert_array_equal(M, np.zeros((2, 4)))


def test_caption_embedding_skips_oov(toy_table):
    M = embed_corpus([["king", "zzz"], ["king"]], toy_table)
    np.testing.assert_array_equal(M[0], M[1])


def test_embed_corpus_shape_and_rows():
    rng = np.random.default_rng(5)
    words = tuple(f"w{i}" for i in range(30))
    # repeated tokens, out-of-vocabulary tokens and empty captions
    captions = [rng.choice(words + ("oov",), size=rng.integers(0, 12)).tolist()
                for _ in range(200)] + [[], ["oov", "oov"], ["w1"] * 5]
    for dtype in (np.float32, np.float64):
        table = EmbeddingTable(words, (rng.standard_normal((30, 8)) * 100).astype(dtype))
        M = embed_corpus(captions, table)
        assert M.shape == (len(captions), 8) and M.dtype == np.float32
        assert np.array_equal(M, np.stack([pooled(tokens, table) for tokens in captions]))
        assert embed_corpus([], table).shape == (0, 8)


def test_corpus_coverage(toy_table):
    cov = corpus_coverage([["king", "zzz"], ["qqq"]], toy_table)
    assert cov == CoverageStats(n_captions=2, n_all_oov=1, n_tokens=3,
                                n_covered_tokens=1)
    assert cov.token_coverage == pytest.approx(1 / 3)


def test_vectorizer_matches_function(toy_table, tmp_path):
    # the Word2Vec net's rows, as the CLI builds them, are embed_corpus of
    # the preprocessed captions, an upsampled copy included
    from memesent import cli
    from memesent.config import RunConfig
    from memesent.corpus import Dataset, MemeRecord
    from memesent.models.ffnn import Word2vecFfnnClassifier
    from memesent.textprep import preprocess

    king, none = MemeRecord(id="a", caption="King queen!"), MemeRecord(id="b", caption="xyz")
    ds = Dataset((king, none, king))
    write_word2vec_binary(toy_table, tmp_path / "v.bin")
    cfg = RunConfig(embeddings=str(tmp_path / "v.bin"))
    (X,), _ = cli._inputs(Word2vecFfnnClassifier, cfg, ds, tmp_path)
    tokens = [preprocess(rec.caption) for rec in ds.records]
    table = load_embeddings(tmp_path / "v.bin", "binary")
    np.testing.assert_array_equal(X, embed_corpus(tokens, table))
    assert X.dtype == np.float32 and X[0].any() and not X[1].any()


def pooled_one_by_one(captions, table):
    """Pooling as it was written before captions were grouped: each
    caption's rows gathered and averaged on their own."""
    index, matrix = table.index, table.matrix
    out = np.zeros((len(captions), table.dim), dtype=np.float32)
    for i, tokens in enumerate(captions):
        ids = [index[t] for t in tokens if t in index]
        if ids:
            out[i] = matrix[ids].mean(axis=0, dtype=np.float64)
    return out


def same_bits(a, b) -> bool:
    return a.shape == b.shape and np.array_equal(a.view(np.uint32), b.view(np.uint32))


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_grouped_pooling_has_the_bits_of_pooling_one_by_one(data):
    window = data.draw(st.sampled_from([1, 3, embeddings._POOL_CAPTIONS]))
    chunk = data.draw(st.sampled_from([1, 40, embeddings._POOL_VALUES]))
    dim = data.draw(st.sampled_from([1, 2, 5, 300]))
    n_words = data.draw(st.integers(1, 12))
    words = tuple(f"w{i}" for i in range(n_words))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    dtype = data.draw(st.sampled_from([np.float32, np.float64]))
    if data.draw(st.booleans()):
        matrix = rng.standard_normal((n_words, dim)) * 10
    else:
        # large entries cancel and small ones are lost beside them, so
        # another summation order shows in the float32 bits
        matrix = rng.choice([1e17, -1e17, 1.0, 0.5, -3.0], (n_words, dim))
    table = EmbeddingTable(words, matrix.astype(dtype))
    # repeated tokens, out-of-vocabulary ones, empty and all-OOV captions
    vocab = list(words) + ["oov", "zzz"]
    captions = data.draw(st.lists(st.lists(st.sampled_from(vocab), max_size=12), max_size=40))
    if data.draw(st.booleans()):
        captions.append(rng.choice(vocab, size=200).tolist())
    # small windows and chunks make groups span several chunks and windows,
    # down to one caption a chunk
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(embeddings, "_POOL_CAPTIONS", window)
        patch.setattr(embeddings, "_POOL_VALUES", chunk)
        got = embed_corpus(captions, table)
    assert same_bits(got, pooled_one_by_one(captions, table))


def memotion_like(n_captions: int, n_words: int, dim: int, seed: int):
    """Captions of 5 to 24 tokens over a table of ``n_words`` words, about
    one token in ten out of vocabulary."""
    rng = np.random.default_rng(seed)
    words = tuple(f"w{i}" for i in range(n_words))
    table = EmbeddingTable(words, rng.standard_normal((n_words, dim)).astype(np.float32))
    vocab = np.array(words + tuple(f"oov{i}" for i in range(n_words // 10)))
    captions = [vocab[rng.integers(0, len(vocab), rng.integers(5, 25))].tolist()
                for _ in range(n_captions)]
    return captions, table


def test_pooling_at_its_real_sizes_has_the_same_bits():
    # several windows of 2,048 captions, every group over several chunks
    captions, table = memotion_like(5_000, 2_000, 300, seed=3)
    captions += [[], ["oov0"], ["w1"] * 200]
    assert same_bits(embed_corpus(captions, table), pooled_one_by_one(captions, table))


@pytest.mark.parametrize("n_captions", [5_000, 20_000])
def test_pooling_memory_is_the_output_and_a_bounded_rest(n_captions):
    # what pooling holds beyond its output does not grow with the corpus
    captions, table = memotion_like(n_captions, 2_000, 300, seed=4)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        out = embed_corpus(captions, table)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak <= out.nbytes + (1 << 20), (peak - out.nbytes) / (1 << 20)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_mean_bound_and_permutation_invariance(data):
    dim = data.draw(st.integers(1, 5))
    words = data.draw(st.lists(st.sampled_from("abcdefgh"), min_size=1,
                               max_size=6, unique=True))
    rng = np.random.default_rng(data.draw(st.integers(0, 1000)))
    dtype = data.draw(st.sampled_from([np.float32, np.float64]))
    table = EmbeddingTable(words, rng.standard_normal((len(words), dim)).astype(dtype))
    tokens = data.draw(st.lists(st.sampled_from(words + ["oov"]), min_size=1, max_size=8))
    perm = data.draw(st.permutations(tokens))
    M = embed_corpus([tokens, list(perm)], table)
    assert np.array_equal(M[0], pooled(tokens, table))
    # the cast to float32 moves a float64 table's mean by up to half a
    # float32 ulp, and another summation order can round to the next one
    tol = float(np.finfo(np.float32).eps) * float(np.abs(table.matrix).max())
    hits = [t for t in tokens if t in table]
    if hits:
        stack = np.stack([table[t] for t in hits])
        assert np.all(M[0] >= stack.min(axis=0) - tol)
        assert np.all(M[0] <= stack.max(axis=0) + tol)
    np.testing.assert_allclose(M[1], M[0], atol=tol, rtol=0)

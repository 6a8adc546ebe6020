import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from _util import synthetic_corpus
from memesent.cli import main
from memesent.corpus import save_dataset
from memesent.errors import DataFormatError
from memesent.persist import CONTAINER_VERSION, MAGIC, load_container, save_container


def sample_arrays():
    return {
        "W": np.arange(6, dtype=np.float64).reshape(2, 3),
        "b32": np.array([1.5, -2.5], dtype=np.float32),
        "idx": np.array([3, 1, 4], dtype=np.int64),
        "flags": np.array([0, 1, 1], dtype=np.uint8),
    }


def test_roundtrip(tmp_path):
    path = tmp_path / "m.msnt"
    header = {"kind": "demo", "nested": {"b": 2, "a": 1}}
    arrays = sample_arrays()
    save_container(path, header, arrays)
    got_header, got_arrays = load_container(path)
    assert got_header == header
    assert list(got_arrays) == list(arrays)  # order preserved
    for name in arrays:
        np.testing.assert_array_equal(got_arrays[name], arrays[name])
        assert got_arrays[name].dtype == arrays[name].dtype


def test_save_load_save_byte_identical(tmp_path):
    p1, p2 = tmp_path / "a.msnt", tmp_path / "b.msnt"
    save_container(p1, {"z": 1, "a": [1, 2]}, sample_arrays())
    header, arrays = load_container(p1)
    save_container(p2, header, arrays)
    assert p1.read_bytes() == p2.read_bytes()


def test_checksum_detects_corruption(tmp_path):
    path = tmp_path / "m.msnt"
    save_container(path, {"kind": "demo"}, {"x": np.zeros(4)})
    data = bytearray(path.read_bytes())
    data[len(data) // 2] ^= 0xFF
    path.write_bytes(bytes(data))
    with pytest.raises(DataFormatError, match="checksum"):
        load_container(path)


def test_bad_magic(tmp_path):
    path = tmp_path / "m.msnt"
    save_container(path, {}, {})
    data = bytearray(path.read_bytes())
    data[:4] = b"XXXX"
    # restore checksum so the magic check is what fires
    import hashlib

    blob = bytes(data[:-32])
    path.write_bytes(blob + hashlib.sha256(blob).digest())
    with pytest.raises(DataFormatError, match="magic"):
        load_container(path)


def test_too_short(tmp_path):
    path = tmp_path / "m.msnt"
    path.write_bytes(b"MSNT123")
    with pytest.raises(DataFormatError, match="too short"):
        load_container(path)


def test_missing_file(tmp_path):
    with pytest.raises(DataFormatError, match="not found"):
        load_container(tmp_path / "nope.msnt")


def test_unsupported_dtype(tmp_path):
    with pytest.raises(DataFormatError, match="unsupported array dtype"):
        save_container(tmp_path / "m.msnt", {}, {"c": np.zeros(2, dtype=complex)})


def test_zero_dim_array_roundtrip(tmp_path):
    path = tmp_path / "m.msnt"
    save_container(path, {}, {"scalar": np.float64(3.25), "empty": np.zeros((0, 4))})
    _, arrays = load_container(path)
    assert arrays["scalar"].shape == ()
    assert float(arrays["scalar"]) == 3.25
    assert arrays["empty"].shape == (0, 4)


def test_header_canonicalization(tmp_path):
    p1, p2 = tmp_path / "a.msnt", tmp_path / "b.msnt"
    save_container(p1, {"a": 1, "b": 2}, {})
    save_container(p2, {"b": 2, "a": 1}, {})
    assert p1.read_bytes() == p2.read_bytes()


def _with_checksum(blob: bytes) -> bytes:
    import hashlib

    return blob + hashlib.sha256(blob).digest()


def test_header_must_be_an_object(tmp_path):
    path = tmp_path / "m.msnt"
    save_container(path, [1, 2], {})
    with pytest.raises(DataFormatError, match="not an object"):
        load_container(path)


def test_deeply_nested_header_fails_typed(tmp_path):
    path = tmp_path / "m.msnt"
    deep = b"[" * 100_000
    path.write_bytes(_with_checksum(MAGIC + struct.pack("<IQ", CONTAINER_VERSION, len(deep))
                                    + deep + struct.pack("<I", 0)))
    with pytest.raises(DataFormatError, match=r"m.msnt: malformed container \(RecursionError"):
        load_container(path)


def test_truncated_dims_fail_typed(tmp_path):
    path = tmp_path / "m.msnt"
    save_container(path, {"kind": "demo"}, {"x": np.zeros((2, 3))})
    blob = path.read_bytes()[:-32]
    dims_end = blob.index(b"x") + 1 + 2 + 8  # name, tag + ndim, first dim
    path.write_bytes(_with_checksum(blob[:dims_end + 4]))
    with pytest.raises(DataFormatError, match="m.msnt: malformed container"):
        load_container(path)


def _valid_body() -> bytes:
    import tempfile
    from pathlib import Path

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "m.msnt"
        save_container(path, {"kind": "naive-bayes", "alpha": 1.0, "vocabulary": ["a"]},
                       {"class_log_prior": np.zeros(3), "token_log_likelihood": np.zeros((3, 1))})
        return path.read_bytes()[:-32]


_BODY = _valid_body()


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(edits=st.lists(st.tuples(st.integers(0, len(_BODY) - 1), st.integers(0, 255)),
                      max_size=4),
       cut=st.integers(4, len(_BODY)),
       tail=st.binary(max_size=12))
def test_fuzzed_body_fails_typed(tmp_path, edits, cut, tail):
    """A body changed anywhere after the magic, with a valid checksum,
    either loads or raises DataFormatError; so does building the Naive
    Bayes model it held."""
    from memesent.models.naive_bayes import MultinomialNaiveBayes

    body = bytearray(_BODY)
    for pos, value in edits:
        body[max(pos, 4)] = value
    path = tmp_path / "fuzz.msnt"
    path.write_bytes(_with_checksum(bytes(body[:cut]) + tail))
    try:
        header, arrays = load_container(path)
        MultinomialNaiveBayes.from_container(header, arrays, path)
    except DataFormatError:
        pass


def _past_the_end() -> bytes:
    """A container of one (2**32, 2**32) float64 array 'a' with 8 data
    bytes: its byte count is beyond what ``np.frombuffer`` can take."""
    header = b'{"kind":"naive-bayes"}'
    return (MAGIC + struct.pack("<IQ", CONTAINER_VERSION, len(header)) + header
            + struct.pack("<IH", 1, 1) + b"a" + struct.pack("<BB2Q", 0, 2, 2**32, 2**32)
            + bytes(8))


@pytest.mark.parametrize("body, message", [
    (lambda: _BODY[:4] + struct.pack("<I", 2) + _BODY[8:], "unsupported container version 2"),
    (lambda: _BODY + b"abc", "3 trailing bytes in container"),
    (_past_the_end, "array 'a' runs past the end of the file"),
], ids=["version_2", "trailing_bytes", "past_the_end"])
def test_container_check_behind_the_checksum_exits_2(tmp_path, capsys, body, message):
    """Each check that only a body with a rewritten checksum reaches fails
    ``memesent predict`` as an input error that names the file."""
    save_dataset(synthetic_corpus(n=6)[0], tmp_path / "data.csv")
    path = tmp_path / "model.bin"
    path.write_bytes(_with_checksum(body()))
    rc = main(["predict", "--model", str(path), "--dataset", str(tmp_path / "data.csv"),
               "--out", str(tmp_path / "p")])
    assert rc == 2
    assert capsys.readouterr().err.splitlines()[-1] == f"error: {path}: {message}"

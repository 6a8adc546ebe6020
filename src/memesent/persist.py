"""Versioned binary container for model files.

Layout (all integers little-endian):

    magic   b"MSNT"
    version u32
    hlen    u64, then hlen bytes of canonical JSON (sorted keys, compact)
    narr    u32
    per array: nlen u16 + name bytes, dtype tag u8, ndim u8, dims u64...,
               raw array bytes (little-endian, C order)
    sha256 digest (32 bytes) of everything before it

The JSON header is canonicalized on write, so a load -> save round trip
is byte-identical. The checksum is verified on load.
"""

from __future__ import annotations

import hashlib
import json
import math
import struct
from pathlib import Path

import numpy as np

from .errors import DataFormatError

__all__ = ["save_container", "load_container", "CONTAINER_VERSION"]

MAGIC = b"MSNT"
CONTAINER_VERSION = 1

_DTYPE_TAGS = {"<f8": 0, "<f4": 1, "<i8": 2, "|u1": 3}
_TAG_DTYPES = {v: k for k, v in _DTYPE_TAGS.items()}


def _canonical_json(header: dict) -> bytes:
    return json.dumps(
        header, sort_keys=True, separators=(",", ":"), ensure_ascii=False
    ).encode("utf-8")


def save_container(path: str | Path, header: dict, arrays: dict[str, np.ndarray]) -> None:
    """Write header metadata plus named arrays; array order is preserved."""
    chunks: list[bytes] = [MAGIC, struct.pack("<I", CONTAINER_VERSION)]
    hbytes = _canonical_json(header)
    chunks.append(struct.pack("<Q", len(hbytes)))
    chunks.append(hbytes)
    chunks.append(struct.pack("<I", len(arrays)))
    for name, arr in arrays.items():
        arr = np.asarray(arr)
        if not arr.flags.c_contiguous:
            arr = np.ascontiguousarray(arr)
        key = arr.dtype.newbyteorder("<").str if arr.dtype.itemsize > 1 else arr.dtype.str
        if key not in _DTYPE_TAGS:
            raise DataFormatError(f"unsupported array dtype {arr.dtype} for {name!r}")
        le = arr.astype(key, copy=False)
        nbytes = name.encode("utf-8")
        chunks.append(struct.pack("<H", len(nbytes)))
        chunks.append(nbytes)
        chunks.append(struct.pack("<BB", _DTYPE_TAGS[key], le.ndim))
        chunks.append(struct.pack(f"<{le.ndim}Q", *le.shape))
        chunks.append(le.tobytes(order="C"))
    blob = b"".join(chunks)
    digest = hashlib.sha256(blob).digest()
    Path(path).write_bytes(blob + digest)


def load_container(path: str | Path) -> tuple[dict, dict[str, np.ndarray]]:
    """Read a container, verifying magic, version, and checksum."""
    path = Path(path)
    if not path.is_file():
        raise DataFormatError(f"model file not found: {path}")
    data = path.read_bytes()
    if len(data) < len(MAGIC) + 4 + 8 + 4 + 32:
        raise DataFormatError(f"{path}: file too short to be a model container")
    blob, digest = data[:-32], data[-32:]
    if hashlib.sha256(blob).digest() != digest:
        raise DataFormatError(f"{path}: checksum mismatch (corrupted file)")
    if blob[:4] != MAGIC:
        raise DataFormatError(f"{path}: bad magic {blob[:4]!r}")
    try:
        return _parse(blob, path)
    except (struct.error, ValueError, RecursionError) as exc:  # truncated, bad bytes, deep JSON
        raise DataFormatError(
            f"{path}: malformed container ({type(exc).__name__}: {exc})"
        ) from exc


def _parse(blob: bytes, path: Path) -> tuple[dict, dict[str, np.ndarray]]:
    """Header and arrays of a container whose checksum and magic hold."""
    off = 4
    (version,) = struct.unpack_from("<I", blob, off)
    off += 4
    if version != CONTAINER_VERSION:
        raise DataFormatError(f"{path}: unsupported container version {version}")
    (hlen,) = struct.unpack_from("<Q", blob, off)
    off += 8
    header = json.loads(blob[off : off + hlen].decode("utf-8"))
    if not isinstance(header, dict):
        raise DataFormatError(f"{path}: JSON header is not an object")
    off += hlen
    (narr,) = struct.unpack_from("<I", blob, off)
    off += 4
    arrays: dict[str, np.ndarray] = {}
    for _ in range(narr):
        (nlen,) = struct.unpack_from("<H", blob, off)
        off += 2
        name = blob[off : off + nlen].decode("utf-8")
        off += nlen
        tag, ndim = struct.unpack_from("<BB", blob, off)
        off += 2
        if tag not in _TAG_DTYPES:
            raise DataFormatError(f"{path}: unknown dtype tag {tag} for {name!r}")
        shape = struct.unpack_from(f"<{ndim}Q", blob, off)
        off += 8 * ndim
        dtype = np.dtype(_TAG_DTYPES[tag])
        count = math.prod(shape)
        nbytes = count * dtype.itemsize
        if nbytes > len(blob) - off:
            raise DataFormatError(f"{path}: array {name!r} runs past the end of the file")
        arr = np.frombuffer(blob, dtype=dtype, count=count, offset=off).reshape(shape)
        arrays[name] = arr.copy()  # decouple from the file buffer
        off += nbytes
    if off != len(blob):
        raise DataFormatError(f"{path}: {len(blob) - off} trailing bytes in container")
    return header, arrays

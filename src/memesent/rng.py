"""Deterministic random-number streams.

All randomness in the toolkit flows from a single integer seed fanned
out into named substreams ("split", "init", "shuffle", "upsample",
"oof", "stacker", "gradcheck"). Each substream is an independent Philox
counter-based generator keyed by SHA-256(seed ":" name), so results are
reproducible across runs and do not depend on the order in which
streams are consumed. Every consumer, ``corpus.stratified_split``
included, takes its generator from :func:`substream`.
"""

from __future__ import annotations

import hashlib

import numpy as np

__all__ = ["substream"]


def substream(seed: int, name: str) -> np.random.Generator:
    """Return the named Philox substream for ``seed``.

    Calling this twice with the same (seed, name) yields generators that
    produce identical output.
    """
    digest = hashlib.sha256(f"{int(seed)}:{name}".encode("utf-8")).digest()
    key = int.from_bytes(digest[:16], "little")
    return np.random.Generator(np.random.Philox(key=key))


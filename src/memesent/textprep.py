"""Deterministic caption-to-token pipeline.

``preprocess`` applies, in order: punctuation/special-character
stripping (every non-alphanumeric byte becomes a space; non-ASCII,
including emoji, counts as special), lower-casing, whitespace
tokenization, stopword removal, and rule-based lemmatization. The
stopword list and lemmatizer exception list ship as versioned data
files so runs are reproducible without any external resources. The
pipeline has no options; ``prep_header`` is how a model file records it.

Everything after tokenization depends on the token alone, so it runs
through a bounded per-process memo of the most recently used distinct
tokens (never written to disk), and every output token is interned:
equal tokens are one string object.

The lemmatizer is a small fixed-point suffix reducer (plural
-s/-es/-ies, -ing, -ed with a minimum stem length of 3 and an exception
list), not a dictionary lemmatizer; token-level parity with any
particular external toolkit is not a goal.
"""

from __future__ import annotations

import sys
from functools import lru_cache
from importlib import resources
from pathlib import Path

__all__ = [
    "preprocess",
    "prep_header",
    "lemmatize",
    "read_wordlist",
    "default_stopwords",
    "default_lemma_exceptions",
]

# byte -> its lowercase if it is an ASCII letter or digit, else a space;
# ASCII-encoded with "replace", every non-ASCII character is one such byte
_LOWER_ALNUM = bytes(ord(c.lower()) if c.isascii() and c.isalnum() else 32
                     for c in map(chr, range(256)))

_DOUBLE_KEEP = {"ll", "ss", "ee"}  # tell, kiss, see


def read_wordlist(path: str | Path) -> frozenset[str]:
    """Read a one-entry-per-line UTF-8 word list; '#' starts a comment."""
    words = set()
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            entry = line.split("#", 1)[0].strip()
            if entry:
                words.add(entry.lower())
    return frozenset(words)


def _bundled(name: str) -> frozenset[str]:
    with resources.as_file(resources.files("memesent.data").joinpath(name)) as path:
        return read_wordlist(path)


@lru_cache(maxsize=None)
def default_stopwords() -> frozenset[str]:
    return _bundled("stopwords.txt")


@lru_cache(maxsize=None)
def default_lemma_exceptions() -> frozenset[str]:
    return _bundled("lemma_exceptions.txt")


def prep_header() -> dict:
    """The fixed pipeline as a model file records it, its ``prep`` field:
    the stopword list, with lemmatization on and digits kept (meme
    captions reference years and counts)."""
    return {"stopwords": sorted(default_stopwords()), "lemmatize": True, "strip_digits": False}


def _apply_suffix_rules(token: str, exceptions: frozenset[str]) -> str:
    """One rule application; returns the token unchanged if no rule fits."""
    if token in exceptions:
        return token
    n = len(token)
    # studies -> study, cities -> city
    if n >= 5 and token.endswith("ies"):
        return token[:-3] + "y"
    # boxes -> box, churches -> church, classes -> class
    if n >= 5 and token.endswith(("sses", "xes", "zes", "ches", "shes")):
        return token[:-2]
    if token.endswith(("ss", "us", "is")):
        return token
    if n >= 4 and token.endswith("s") and not token.endswith("es"):
        return token[:-1]
    if n >= 4 and token.endswith("es"):
        return token[:-1]  # memes -> meme
    if n >= 6 and token.endswith("ing"):
        stem = token[:-3]
        if len(stem) >= 4 and stem[-1] == stem[-2] and stem[-2:] not in _DOUBLE_KEEP:
            stem = stem[:-1]  # running -> run
        if len(stem) >= 3:
            return stem
        return token
    if n >= 5 and token.endswith("ed") and not token.endswith("eed"):
        stem = token[:-2]
        if len(stem) >= 4 and stem[-1] == stem[-2] and stem[-2:] not in _DOUBLE_KEEP:
            stem = stem[:-1]  # stopped -> stop
        if len(stem) >= 3:
            return stem
        return token
    return token


def lemmatize(token: str) -> str:
    """Reduce a lowercase token to its suffix-rule fixed point.

    Iterating to a fixed point makes the function idempotent:
    "feelings" -> "feeling" (exception) stays put, "sayings" ->
    "saying" -> "say".
    """
    exceptions = default_lemma_exceptions()
    while True:
        reduced = _apply_suffix_rules(token, exceptions)
        if reduced == token:
            return token
        token = reduced


# Distinct tokens the memo holds, about 190 KiB. Memotion-sized captions
# hold 71k tokens, 12.6k of them distinct: a frequent token stays in the
# memo, and a rare one costs a lemmatization as it did without one.
_MEMO_TOKENS = 1024


@lru_cache(maxsize=_MEMO_TOKENS)
def _lemma(token: str) -> str | None:
    """The interned lemma of a split token, or None if the token or its
    lemma is a stopword."""
    stopwords = default_stopwords()
    if token in stopwords:
        return None
    # A lemma can land in the stopword set even when the surface form did
    # not ("shes" -> "she"); check again so the no-stopword guarantee holds
    # and reprocessing is a no-op.
    lemma = lemmatize(token)
    return None if lemma in stopwords else sys.intern(lemma)


def preprocess(raw: str) -> list[str]:
    """Turn a raw caption into a list of clean lowercase tokens.

    Total function: any string, including the empty one, yields a
    (possibly empty) token list. Every output token matches [a-z0-9]+,
    is outside the stopword set and is interned, so equal tokens are one
    object. The caption is split as ASCII bytes, lower-cased, with every
    other character a space. Each split token is stopword-checked,
    lemmatized and checked again through a bounded memo: a token seen
    recently costs one lookup.
    """
    words = raw.encode("ascii", "replace").translate(_LOWER_ALNUM).split()
    tokens = [t for t in map(_lemma, map(bytes.decode, words)) if t is not None]
    return tokens[:]  # exact length: a corpus keeps every caption's list

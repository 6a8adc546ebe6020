import re
import string
import sys
import tracemalloc

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from memesent import textprep
from memesent.textprep import (
    default_lemma_exceptions,
    default_stopwords,
    lemmatize,
    preprocess,
    read_wordlist,
)


def test_caption_example():
    assert preprocess("I am feeling unhappy.") == ["feeling", "unhappy"]


def test_empty_input():
    assert preprocess("") == []
    assert preprocess("   \t\n ") == []


def test_punct_case_and_plurals():
    assert preprocess("Dogs, CATS & birds!!!") == ["dog", "cat", "bird"]


def test_emoji_and_nonascii_stripped():
    # accented bytes split the word; "d" then falls to the stopword list
    assert preprocess("so cool 😂👌 déjà vu") == ["cool", "j", "vu"]


def test_digits_kept_by_default():
    assert preprocess("year 2020 mood") == ["year", "2020", "mood"]


def test_lemmatize_examples():
    cases = {
        "cats": "cat",
        "bus": "bus",
        "memes": "meme",
        "studies": "study",
        "boxes": "box",
        "churches": "church",
        "classes": "class",
        "running": "run",
        "stopped": "stop",
        "walked": "walk",
        "sayings": "say",      # two rule applications to the fixed point
        "feelings": "feeling",  # exception list protects the -ing noun
        "feeling": "feeling",
        "kiss": "kiss",
        "see": "see",
        "news": "news",
    }
    for token, want in cases.items():
        assert lemmatize(token) == want, token


def test_exceptions_are_loaded():
    exc = default_lemma_exceptions()
    assert "feeling" in exc and "thing" in exc


def test_read_wordlist(tmp_path):
    path = tmp_path / "words.txt"
    path.write_text("# header comment\nAlpha\nbeta  # trailing\n\n gamma \n")
    assert read_wordlist(path) == frozenset({"alpha", "beta", "gamma"})


def test_default_stopwords_contents():
    sw = default_stopwords()
    assert {"i", "am", "the", "and"} <= sw
    assert "unhappy" not in sw


token_strategy = st.text(alphabet=string.ascii_lowercase, min_size=1, max_size=12)


@settings(max_examples=300, deadline=None)
@given(token=token_strategy)
def test_lemmatize_idempotent(token):
    once = lemmatize(token)
    assert lemmatize(once) == once


@settings(max_examples=200, deadline=None)
@given(raw=st.text(max_size=80))
def test_preprocess_output_shape(raw):
    tokens = preprocess(raw)
    for t in tokens:
        assert t, "empty token"
        assert all(c in string.ascii_lowercase + string.digits for c in t)
        assert t not in default_stopwords()


@settings(max_examples=200, deadline=None)
@given(raw=st.text(max_size=80))
def test_preprocess_idempotent_on_rejoined_output(raw):
    tokens = preprocess(raw)
    assert preprocess(" ".join(tokens)) == tokens


def unmemoized(raw: str) -> list[str]:
    """The pipeline without the memo, as the CLI ran it before: strip,
    lower, split, drop stopwords, lemmatize, drop stopwords, intern."""
    stopwords = default_stopwords()
    tokens = [t for t in re.sub(r"[^A-Za-z0-9]+", " ", raw).lower().split()
              if t not in stopwords]
    return [sys.intern(t) for t in map(lemmatize, tokens) if t not in stopwords]


def same_tokens(got: list[str], want: list[str]) -> bool:
    return got == want and all(a is b for a, b in zip(got, want))


# words with every suffix rule's ending, stopwords among them, and separators
_WORDS = ["cats", "bus", "studies", "boxes", "running", "stopped", "feelings", "shes",
          "the", "and", "memes", "2020", "Dogs", "CLASSES", "déjà", "was", "x"]
caption_strategy = st.lists(
    st.one_of(st.sampled_from(_WORDS), st.text(string.ascii_letters + string.digits,
                                               min_size=1, max_size=9)),
    max_size=30).flatmap(
    lambda words: st.lists(st.sampled_from([" ", ", ", "!! ", "\n", " 😂 "]),
                           min_size=len(words), max_size=len(words)).map(
        lambda seps: "".join(w + s for w, s in zip(words, seps))))


# any text, lone surrogates included
any_text = st.text(st.characters(exclude_categories=()), max_size=60)


@settings(max_examples=200, deadline=None)
@given(captions=st.lists(st.one_of(caption_strategy, any_text), min_size=1, max_size=8))
def test_preprocess_matches_the_unmemoized_pipeline(captions):
    for raw in captions + captions:  # a second pass reads the memo
        assert same_tokens(preprocess(raw), unmemoized(raw))


def many_distinct_captions(n_words: int, seed: int) -> list[str]:
    """Captions over ``n_words`` distinct generated words, ten to a caption,
    with suffixed forms and stopwords between them."""
    rng = np.random.default_rng(seed)
    stems = ["".join(rng.choice(list("bcdfgklmnprstvz"), 3)) + f"{i}q" for i in range(n_words)]
    forms = [stem + rng.choice(["", "s", "es", "ing", "ed"]) for stem in stems]
    return [" the ".join(forms[i : i + 10]) for i in range(0, n_words, 10)]


def test_preprocess_beyond_the_memo_matches_and_stays_bounded():
    captions = many_distinct_captions(3 * textprep._MEMO_TOKENS, seed=1)
    for raw in captions + captions[::-1] + captions:
        assert same_tokens(preprocess(raw), unmemoized(raw))
    assert textprep._lemma.cache_info().currsize <= textprep._MEMO_TOKENS


def test_memo_memory_is_bounded():
    # 50,000 distinct tokens, each caption's tokens freed before the next:
    # what stays is the memo, whatever the vocabulary (an unbounded memo
    # would keep about 8 MB here). The tokens are their own lemmas, interned
    # beforehand, so the interpreter's table of interned strings, which
    # resizes as it sees fit, does not count.
    words = [sys.intern(f"w{i}q") for i in range(50_000)]
    assert all(lemmatize(w) == w for w in words)
    captions = [" the ".join(words[i : i + 10]) for i in range(0, len(words), 10)]
    textprep._lemma.cache_clear()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for raw in captions:
            preprocess(raw)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert retained <= 320 * 1024, retained

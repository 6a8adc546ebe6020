import string

from hypothesis import given, settings
from hypothesis import strategies as st

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

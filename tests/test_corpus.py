import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from memesent import cli
from memesent.corpus import (
    CsvSchema,
    Dataset,
    MemeRecord,
    Sentiment,
    class_stats,
    load_dataset,
    normalize_label,
    save_dataset,
    stratified_split,
    upsample,
)
from memesent.errors import DataFormatError

from _util import fuzz_settings, make_dataset, mutated

# Class counts of the real training data (positive/neutral/negative).
TASK_COUNTS = {
    Sentiment.POSITIVE: 4160,
    Sentiment.NEUTRAL: 2201,
    Sentiment.NEGATIVE: 631,
}


# ---------------------------------------------------------------- labels
def test_normalize_label_basic():
    assert normalize_label("positive") is Sentiment.POSITIVE
    assert normalize_label("Neutral") is Sentiment.NEUTRAL
    assert normalize_label("VERY_NEGATIVE") is Sentiment.NEGATIVE
    assert normalize_label("very positive") is Sentiment.POSITIVE
    assert normalize_label(" Very-Negative ") is Sentiment.NEGATIVE


def test_normalize_label_rejects_unknown():
    with pytest.raises(DataFormatError, match="funny"):
        normalize_label("funny")
    with pytest.raises(DataFormatError, match="empty"):
        normalize_label("   ")


def test_sentiment_indices_are_stable():
    assert [int(s) for s in Sentiment] == [0, 1, 2]
    assert Sentiment.NEGATIVE.canonical_name == "negative"


# ---------------------------------------------------------------- loading
def test_load_three_rows(tiny_csv):
    ds = load_dataset(tiny_csv)
    assert len(ds) == 3
    assert ds[0] == MemeRecord(id="m1", caption="When the wifi drops",
                               label=Sentiment.POSITIVE)
    assert ds[1].caption == "Me, pretending to work"  # quoted comma survives
    assert ds.rejected_rows == ()


def test_load_byte_order_mark(tmp_path, tiny_csv):
    # as Excel and Notepad save UTF-8
    bom = tmp_path / "bom.csv"
    bom.write_bytes(b"\xef\xbb\xbf" + tiny_csv.read_bytes())
    assert load_dataset(bom).records == load_dataset(tiny_csv).records


def test_load_missing_file(tmp_path):
    with pytest.raises(DataFormatError, match="not found"):
        load_dataset(tmp_path / "nope.csv")


def test_load_missing_column(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("id,text\n1,hello\n")
    with pytest.raises(DataFormatError, match="caption"):
        load_dataset(path)


def test_load_duplicate_id(tmp_path):
    path = tmp_path / "dup.csv"
    path.write_text("id,caption,label\na,x,positive\na,y,negative\n")
    with pytest.raises(DataFormatError, match="duplicate id 'a' at row 3"):
        load_dataset(path)


def test_load_rejects_bad_labels_with_row_numbers(tmp_path):
    path = tmp_path / "mixed.csv"
    path.write_text(
        "id,caption,label\n"
        "a,x,positive\n"
        "b,y,funny\n"
        "c,z,negative\n"
    )
    ds = load_dataset(path)
    assert [r.id for r in ds] == ["a", "c"]
    (rownum, reason), = ds.rejected_rows
    assert rownum == 3 and "funny" in reason


def test_load_ragged_row(tmp_path):
    path = tmp_path / "ragged.csv"
    path.write_text("id,caption,label\na,x,positive,EXTRA\n")
    with pytest.raises(DataFormatError, match="row 2"):
        load_dataset(path)


def test_load_empty_file(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("")
    with pytest.raises(DataFormatError, match="empty"):
        load_dataset(path)


def test_load_non_utf8(tmp_path):
    path = tmp_path / "latin1.csv"
    path.write_bytes(b"id,caption,label\nm1,caf\xe9,positive\n")
    with pytest.raises(DataFormatError, match="latin1.csv"):
        load_dataset(path)


_CSV_SEED = (b'id,caption,label,image\nm1,"a, b",positive,m1.hsv\n'
             b"m2,c,very negative,\n")


@fuzz_settings
@given(data=mutated(_CSV_SEED))
def test_fuzzed_file_fails_typed(tmp_path, data):
    path = tmp_path / "fuzz.csv"
    path.write_bytes(data)
    for schema in (CsvSchema(), CsvSchema(image="image"), None):
        try:
            load_dataset(path, schema)
        except DataFormatError:
            pass


@pytest.mark.parametrize("header, label, image", [
    ("id,caption", None, None),
    ("id,caption,label", Sentiment.POSITIVE, None),
    ("caption,image,id", None, "m1.hsv"),
    ("image,label,caption,id", Sentiment.POSITIVE, "m1.hsv"),
])
def test_no_schema_reads_the_canonical_columns_the_header_has(tmp_path, header, label,
                                                              image):
    values = {"id": "m1", "caption": "a b", "label": "positive", "image": "m1.hsv"}
    columns = header.split(",")
    path = tmp_path / "data.csv"
    path.write_text(header + "\n" + ",".join(values[c] for c in columns) + "\n")
    ds = load_dataset(path, None)
    assert ds.records == (MemeRecord("m1", "a b", image_path=image, label=label),)


def test_custom_schema(tmp_path):
    path = tmp_path / "task.csv"
    path.write_text(
        "image_name,text_corrected,overall_sentiment\n"
        "img_1.jpg,good vibes,very_positive\n"
    )
    schema = CsvSchema.parse(
        "id=image_name,caption=text_corrected,label=overall_sentiment"
    )
    ds = load_dataset(path, schema)
    assert ds[0].id == "img_1.jpg"
    assert ds[0].label is Sentiment.POSITIVE


def test_schema_parse_rejects_garbage():
    with pytest.raises(DataFormatError, match="key=column"):
        CsvSchema.parse("id")
    with pytest.raises(DataFormatError, match="unknown schema key"):
        CsvSchema.parse("body=text")


def test_unlabeled_schema(tmp_path):
    path = tmp_path / "nolabel.csv"
    path.write_text("id,caption\na,hello there\n")
    ds = load_dataset(path, CsvSchema(label=None))
    assert ds[0].label is None
    with pytest.raises(DataFormatError, match="unlabeled"):
        ds.labels()


def test_save_load_roundtrip(tmp_path, tiny_csv):
    ds = load_dataset(tiny_csv)
    out = tmp_path / "canon.csv"
    save_dataset(ds, out)
    again = load_dataset(out, CsvSchema(id="id", caption="caption",
                                        label="label", image="image"))
    assert again.records == ds.records


# ---------------------------------------------------------------- stats
def prepared_stats(ds, tmp_path) -> dict:
    """The ``class_stats`` section of ``prepare``'s report on ``ds``."""
    save_dataset(ds, tmp_path / "in.csv")
    assert cli.main(["prepare", "--dataset", str(tmp_path / "in.csv"),
                     "--out", str(tmp_path / "prep")]) == 0
    return json.loads((tmp_path / "prep" / "prepare_report.json").read_text())["class_stats"]


def test_class_stats_task_distribution(tmp_path):
    ds = make_dataset(TASK_COUNTS)
    counts = class_stats(ds)
    assert list(counts) == list(Sentiment)
    assert sum(counts.values()) == 6992
    assert counts[Sentiment.POSITIVE] == 4160
    stats = prepared_stats(ds, tmp_path)
    assert stats["total"] == 6992
    assert abs(stats["percentages"]["positive"] - 0.595) < 5e-4
    assert abs(stats["percentages"]["neutral"] - 0.315) < 5e-4
    assert abs(stats["percentages"]["negative"] - 0.090) < 5e-4
    assert abs(sum(stats["percentages"].values()) - 1.0) < 1e-9


def test_class_stats_single_record(tmp_path):
    stats = prepared_stats(make_dataset({Sentiment.POSITIVE: 1}), tmp_path)
    assert stats["percentages"]["positive"] == 1.0


def test_class_stats_empty():
    with pytest.raises(DataFormatError, match="empty"):
        class_stats(Dataset(()))


def test_class_stats_to_dict(tmp_path):
    ds = make_dataset({Sentiment.NEGATIVE: 2})
    assert class_stats(ds) == {Sentiment.NEGATIVE: 2, Sentiment.NEUTRAL: 0,
                               Sentiment.POSITIVE: 0}
    stats = prepared_stats(ds, tmp_path)
    assert stats["counts"] == {"negative": 2, "neutral": 0, "positive": 0}


# ---------------------------------------------------------------- split
def test_split_task_sizes():
    train, val = stratified_split(make_dataset(TASK_COUNTS), 0.8, seed=0)
    assert (len(train), len(val)) == (5594, 1398)
    # Per-class proportions survive: 0.8*4160=3328, 0.8*2201=1760.8->1761,
    # 0.8*631=504.8->505.
    tc = class_stats(train)
    assert tc[Sentiment.POSITIVE] == 3328
    assert tc[Sentiment.NEUTRAL] == 1761
    assert tc[Sentiment.NEGATIVE] == 505


def test_split_deterministic_and_seed_sensitive():
    ds = make_dataset({Sentiment.POSITIVE: 30, Sentiment.NEGATIVE: 20})
    a1, b1 = stratified_split(ds, 0.8, seed=5)
    a2, b2 = stratified_split(ds, 0.8, seed=5)
    assert a1.records == a2.records and b1.records == b2.records
    a3, _ = stratified_split(ds, 0.8, seed=6)
    assert a1.records != a3.records


def test_split_single_class():
    train, val = stratified_split(make_dataset({Sentiment.NEUTRAL: 10}), 0.8, 0)
    assert (len(train), len(val)) == (8, 2)


def test_split_fraction_validation():
    ds = make_dataset({Sentiment.POSITIVE: 4})
    for bad in (0.0, 1.0, -0.2, 1.5):
        with pytest.raises(ValueError, match="train_fraction"):
            stratified_split(ds, bad, 0)


def test_split_preserves_original_order():
    ds = make_dataset({Sentiment.POSITIVE: 10, Sentiment.NEGATIVE: 10})
    train, val = stratified_split(ds, 0.5, seed=1)
    ids = [r.id for r in ds]
    assert [r.id for r in train] == sorted([r.id for r in train], key=ids.index)
    assert [r.id for r in val] == sorted([r.id for r in val], key=ids.index)


@settings(max_examples=40, deadline=None)
@given(
    counts=st.tuples(st.integers(0, 60), st.integers(0, 60), st.integers(0, 60)),
    fraction=st.floats(0.05, 0.95),
    seed=st.integers(0, 2**32),
)
def test_split_conserves_records(counts, fraction, seed):
    neg, neu, pos = counts
    ds = make_dataset({Sentiment.NEGATIVE: neg, Sentiment.NEUTRAL: neu,
                       Sentiment.POSITIVE: pos})
    if len(ds) == 0:
        return
    train, val = stratified_split(ds, fraction, seed)
    assert len(train) + len(val) == len(ds)
    assert {r.id for r in train} | {r.id for r in val} == {r.id for r in ds}
    assert {r.id for r in train} & {r.id for r in val} == set()
    # per-class counts off by at most the rounding record
    for s in Sentiment:
        n = class_stats(ds)[s] if len(ds) else 0
        if n == 0:
            continue
        got = sum(1 for r in train if r.label is s)
        assert abs(got - fraction * n) < 1.0


# ---------------------------------------------------------------- upsample
def test_upsample_balances():
    ds = make_dataset({Sentiment.POSITIVE: 10, Sentiment.NEGATIVE: 3})
    up = upsample(ds, seed=0)
    counts = class_stats(up)
    assert counts[Sentiment.POSITIVE] == counts[Sentiment.NEGATIVE] == 10
    assert counts[Sentiment.NEUTRAL] == 0  # absent classes stay absent


def test_upsample_task_counts():
    up = upsample(make_dataset(TASK_COUNTS), seed=0)
    assert len(up) == 12480
    counts = class_stats(up)
    assert counts[Sentiment.POSITIVE] == 4160
    assert counts[Sentiment.NEUTRAL] == 4160
    assert counts[Sentiment.NEGATIVE] == 4160


def test_upsample_keeps_originals_intact():
    ds = make_dataset({Sentiment.POSITIVE: 5, Sentiment.NEGATIVE: 2})
    up = upsample(ds, seed=3)
    assert up.records[: len(ds)] == ds.records
    originals = set(ds.records)
    assert all(r in originals for r in up.records[len(ds):])


def test_upsample_balanced_is_identity():
    ds = make_dataset({Sentiment.POSITIVE: 4, Sentiment.NEGATIVE: 4})
    assert upsample(ds, seed=0).records == ds.records


def test_upsample_deterministic():
    ds = make_dataset({Sentiment.POSITIVE: 9, Sentiment.NEUTRAL: 2})
    assert upsample(ds, 1).records == upsample(ds, 1).records
    assert upsample(ds, 1).records != upsample(ds, 2).records


def test_upsample_empty():
    with pytest.raises(DataFormatError, match="empty"):
        upsample(Dataset(()), 0)

"""Dataset ingestion, label normalization, splitting, and upsampling.

A dataset is an immutable ordered list of meme records (id, caption,
optional image path, optional sentiment label) loaded from a UTF-8 CSV
with a header row and RFC-4180 quoting, together with the rows the load
rejected. Column names are supplied via a schema mapping so arbitrary
exports of the source data can be read; without one, the loader takes
the canonical names from the header it reads.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from enum import IntEnum
from pathlib import Path

from .errors import DataFormatError
from .rng import substream

__all__ = [
    "Sentiment",
    "MemeRecord",
    "Dataset",
    "CsvSchema",
    "normalize_label",
    "load_dataset",
    "save_dataset",
    "class_stats",
    "stratified_split",
    "upsample",
]

class Sentiment(IntEnum):
    """Three-way sentiment with fixed class indices used everywhere
    (probability vectors, confusion matrices, model outputs)."""

    NEGATIVE = 0
    NEUTRAL = 1
    POSITIVE = 2

    @property
    def canonical_name(self) -> str:
        return self.name.lower()


# Raw annotations come in both 3-level and 5-level variants; the 5-level
# extremes collapse onto their 3-level class.
_LABEL_MAP = {
    "positive": Sentiment.POSITIVE,
    "very_positive": Sentiment.POSITIVE,
    "neutral": Sentiment.NEUTRAL,
    "negative": Sentiment.NEGATIVE,
    "very_negative": Sentiment.NEGATIVE,
}


def normalize_label(raw: str) -> Sentiment:
    """Map a raw label string onto a :class:`Sentiment`.

    Case-insensitive; spaces and hyphens are treated as underscores so
    "Very Positive" and "very_positive" are equivalent. Unrecognized
    labels raise :class:`DataFormatError` naming the offending value.
    """
    key = raw.strip().lower().replace("-", "_").replace(" ", "_")
    if not key:
        raise DataFormatError("empty label string")
    try:
        return _LABEL_MAP[key]
    except KeyError:
        raise DataFormatError(f"unrecognized sentiment label: {raw!r}") from None


@dataclass(frozen=True)
class MemeRecord:
    """One dataset row. Captions may be empty (real captions range from
    0 tokens to 100+)."""

    id: str
    caption: str
    image_path: str | None = None
    label: Sentiment | None = None


@dataclass(frozen=True)
class Dataset:
    """Immutable ordered collection of records.

    Record ids are unique when loaded from file; datasets produced by
    :func:`upsample` contain repeated ids by construction.
    ``rejected_rows`` holds the (1-based row number, reason) of each row
    :func:`load_dataset` skipped.
    """

    records: tuple[MemeRecord, ...]
    rejected_rows: tuple[tuple[int, str], ...] = ()

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self):
        return iter(self.records)

    def __getitem__(self, i: int) -> MemeRecord:
        return self.records[i]

    def captions(self) -> list[str]:
        return [r.caption for r in self.records]

    def labels(self) -> list[Sentiment]:
        missing = [r.id for r in self.records if r.label is None]
        if missing:
            raise DataFormatError(
                f"{len(missing)} records are unlabeled (first: {missing[0]!r})"
            )
        return [r.label for r in self.records]


@dataclass(frozen=True)
class CsvSchema:
    """Column-name mapping for CSV ingestion.

    ``label`` and ``image`` may be None for unlabeled / text-only files;
    ``caption`` may be None when set from code, and then no caption
    column is read (a predictions file).
    """

    id: str = "id"
    caption: str | None = "caption"
    label: str | None = "label"
    image: str | None = None

    @classmethod
    def parse(cls, spec: str) -> "CsvSchema":
        """Parse "id=image_name,caption=text_corrected,label=overall_sentiment"."""
        fields = {}
        for part in spec.split(","):
            part = part.strip()
            if not part:
                continue
            if "=" not in part:
                raise DataFormatError(f"bad schema entry {part!r}; expected key=column")
            key, _, col = part.partition("=")
            key, col = key.strip(), col.strip()
            if key not in ("id", "caption", "label", "image"):
                raise DataFormatError(f"unknown schema key {key!r}")
            if not col and key in ("id", "caption"):
                raise DataFormatError(f"schema key {key!r} must name a column")
            fields[key] = col or None
        return cls(**fields)


def load_dataset(path: str | Path, schema: CsvSchema | None = CsvSchema()) -> Dataset:
    """Load a CSV file into a :class:`Dataset`.

    One record per data row. With ``schema`` None the columns are the
    canonical ``id`` and ``caption``, plus ``label`` and ``image`` when
    the header has them. Rows whose label cannot be parsed (when the
    schema maps a label column) are skipped and reported with their
    1-based row numbers in ``rejected_rows``. Structural problems --
    missing file, missing mapped column, duplicate id, malformed
    quoting, bytes that are not UTF-8 -- raise :class:`DataFormatError`.
    """
    path = Path(path)
    if not path.is_file():
        raise DataFormatError(f"CSV file not found: {path}")

    records: list[MemeRecord] = []
    rejected: list[tuple[int, str]] = []
    seen_ids: set[str] = set()

    try:
        with open(path, "r", encoding="utf-8-sig", newline="") as fh:
            reader = csv.DictReader(fh)
            if reader.fieldnames is None:
                raise DataFormatError(f"empty CSV file: {path}")
            columns = set(reader.fieldnames)
            if schema is None:
                schema = CsvSchema(label="label" if "label" in columns else None,
                                   image="image" if "image" in columns else None)
            required = {column for column in vars(schema).values() if column is not None}
            missing = sorted(required - columns)
            if missing:
                raise DataFormatError(
                    f"{path}: missing mapped column(s) {missing}; file has {sorted(columns)}"
                )

            for rownum, row in enumerate(reader, start=2):  # row 1 is the header
                if None in row:
                    raise DataFormatError(
                        f"{path}: row {rownum} has more fields than the header"
                    )
                rec_id = (row[schema.id] or "").strip()
                if not rec_id:
                    rejected.append((rownum, "empty id"))
                    continue
                if rec_id in seen_ids:
                    raise DataFormatError(f"{path}: duplicate id {rec_id!r} at row {rownum}")
                label = None
                if schema.label is not None:
                    try:
                        label = normalize_label(row[schema.label] or "")
                    except DataFormatError as exc:
                        rejected.append((rownum, str(exc)))
                        continue
                image = None
                if schema.image is not None:
                    image = (row[schema.image] or "").strip() or None
                seen_ids.add(rec_id)
                records.append(
                    MemeRecord(
                        id=rec_id,
                        caption=row.get(schema.caption) or "",  # None: no column
                        image_path=image,
                        label=label,
                    )
                )
    except (csv.Error, UnicodeDecodeError) as exc:
        raise DataFormatError(f"{path}: malformed CSV: {exc}") from exc

    return Dataset(tuple(records), tuple(rejected))


def save_dataset(ds: Dataset, path: str | Path) -> None:
    """Write a dataset in the canonical column layout (id, caption, image, label)."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh).writerows([("id", "caption", "image", "label")] + [
            (rec.id, rec.caption, rec.image_path or "",
             "" if rec.label is None else rec.label.canonical_name) for rec in ds.records])


def class_stats(ds: Dataset) -> dict[Sentiment, int]:
    """Records per class, in class order; all records must be labeled."""
    if len(ds) == 0:
        raise DataFormatError("cannot compute class stats of an empty dataset")
    counts = {s: 0 for s in Sentiment}
    for label in ds.labels():
        counts[label] += 1
    return counts


def _per_class_indices(ds: Dataset) -> dict[Sentiment, list[int]]:
    by_class: dict[Sentiment, list[int]] = {s: [] for s in Sentiment}
    for i, label in enumerate(ds.labels()):
        by_class[label].append(i)
    return by_class


def _train_count(fraction: float, class_count: int) -> int:
    # Per-class floor with the fractional remainder record assigned to
    # train; the epsilon guards against 0.8 * 4160 = 3328.0000000000005.
    t = fraction * class_count
    n = math.floor(t + 1e-9)
    if t - n > 1e-9:
        n += 1
    return min(n, class_count)


def stratified_split(
    ds: Dataset, train_fraction: float, seed: int
) -> tuple[Dataset, Dataset]:
    """Split into (train, validation) preserving class proportions.

    Each class contributes floor(train_fraction * count) records to the
    train part, plus one more when the product is fractional. Record
    order within each part follows the original dataset order, so the
    split is a pure function of (dataset, fraction, seed).
    """
    if not 0.0 < train_fraction < 1.0:
        raise ValueError(f"train_fraction must be in (0, 1), got {train_fraction}")
    rng = substream(seed, "split")
    train_idx: set[int] = set()
    # Iterate classes in fixed index order so the stream is stable.
    for sentiment, indices in sorted(_per_class_indices(ds).items()):
        perm = rng.permutation(len(indices))
        n_train = _train_count(train_fraction, len(indices))
        train_idx.update(indices[j] for j in perm[:n_train])

    train_recs = tuple(r for i, r in enumerate(ds.records) if i in train_idx)
    val_recs = tuple(r for i, r in enumerate(ds.records) if i not in train_idx)
    return Dataset(train_recs), Dataset(val_recs)


def upsample(ds: Dataset, seed: int) -> Dataset:
    """Duplicate minority-class records until every class matches the
    majority count.

    Copies are drawn uniformly with replacement from the class's
    original records and appended after the originals; original records
    are never modified or removed.
    """
    if len(ds) == 0:
        raise DataFormatError("cannot upsample an empty dataset")
    by_class = _per_class_indices(ds)
    majority = max(len(v) for v in by_class.values())
    rng = substream(seed, "upsample")
    extra: list[MemeRecord] = []
    for sentiment, indices in sorted(by_class.items()):
        deficit = majority - len(indices)
        if deficit == 0 or not indices:
            continue
        picks = rng.integers(0, len(indices), size=deficit)
        extra.extend(ds.records[indices[int(p)]] for p in picks)
    return Dataset(ds.records + tuple(extra))

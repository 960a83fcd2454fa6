"""Feature pipeline: raw click logs -> vocabularies -> encoded batches.

Raw input is header-less delimited text (tab or comma), one column per
field plus a binary label column. Categorical tokens below a frequency
threshold collapse to the reserved UNK index 0; numeric values x > 2 are
squashed to (ln x)^2. Vocabularies are built on the training partition
only and frozen afterwards.
"""
from __future__ import annotations

import contextlib
import gzip
import hashlib
import math
import os
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

UNK_INDEX = 0


@contextlib.contextmanager
def replacing(path, mode: str = "wb", **open_args):
    """Open a temporary file beside ``path`` for the block to write. It
    replaces ``path`` only once the block has written it whole; on any
    failure it is removed, and ``path`` keeps what it held before."""
    tmp = f"{os.fspath(path)}.tmp"
    try:
        with open(tmp, mode, **open_args) as f:
            yield f
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):  # the write or the replace failed
            os.remove(tmp)


class TableSchema:
    """Column layout of one raw file. ``numeric_columns`` is sorted, and
    ``categorical_fields`` holds ``(name, column)`` pairs in column order,
    where ``C<k>`` names the k-th listed column."""

    def __init__(self, label_column: int, numeric_columns: Sequence[int] = (),
                 categorical_columns: Sequence[int] = (), delimiter: str = "\t"):
        positions = [*numeric_columns, *categorical_columns]
        if not positions:
            raise ValueError("no feature columns configured")
        if len(set(positions)) != len(positions):
            raise ValueError("field positions must be unique")
        if label_column in positions:
            raise ValueError("label column cannot also be a feature column")
        if max(positions) - min(positions) + 1 != len(positions):
            raise ValueError("feature positions must be contiguous")
        self.label_column = label_column
        self.numeric_columns = tuple(sorted(numeric_columns))
        self.categorical_fields = tuple(sorted(
            ((f"C{k}", column) for k, column in enumerate(categorical_columns, start=1)),
            key=lambda field: field[1]))
        self.n_columns = max(label_column, *positions) + 1
        self.delimiter = delimiter


def read_rows(path, delimiter: str = "\t") -> list[list[str]]:
    """Read a delimited text file (gzip by .gz suffix) into column lists."""
    opener = gzip.open if str(path).endswith(".gz") else open
    rows = []
    with opener(path, "rt", encoding="utf-8") as f:
        for line in f:
            line = line.rstrip("\r\n")
            if line:
                rows.append(line.split(delimiter))
    return rows


def transform_numeric(x: np.ndarray) -> np.ndarray:
    """Squash large numerics: x if x <= 2, else (ln x)^2, elementwise."""
    out = np.array(x, dtype=np.float64)
    big = out > 2.0
    out[big] = np.square(np.log(out[big]))
    return out


def _parse_numeric(token: str) -> float:
    # missing and negative raw values map to 0 before the transform;
    # nan and +-inf are errors
    if token == "":
        return 0.0
    value = float(token)
    if not math.isfinite(value):
        raise ValueError(f"non-finite numeric value {token!r}")
    return 0.0 if value < 0 else value


def _escape(token: str) -> str:
    return token.replace("\\", "\\\\").replace("\t", "\\t").replace("\n", "\\n")


class FeatureVocabulary:
    """Per-field token -> index maps with index 0 reserved for UNK.

    Tokens whose training frequency is below ``build``'s ``min_count`` are
    absent from the map and therefore encode to UNK; so does anything unseen
    at build time. Indices are dense and assigned in sorted token order.
    """

    def __init__(self, mapping: dict[str, dict[str, int]]):
        self.mapping = mapping

    @classmethod
    def build(cls, rows: Sequence[Sequence[str]], schema: TableSchema,
              min_count: int) -> "FeatureVocabulary":
        if not rows:
            raise ValueError("cannot build a vocabulary from zero rows")
        _check_width(rows, schema.n_columns)
        mapping = {}
        for name, column in schema.categorical_fields:
            counts = Counter(row[column] for row in rows)
            kept = sorted(t for t, c in counts.items() if c >= min_count)
            mapping[name] = {tok: i + 1 for i, tok in enumerate(kept)}
        return cls(mapping)

    def size(self, field: str) -> int:
        return len(self.mapping[field]) + 1  # + UNK

    def sizes(self) -> tuple[int, ...]:
        return tuple(self.size(f) for f in self.mapping)

    def text(self) -> str:
        """``vocab.tsv``: one ``field<TAB>token<TAB>index`` line per entry,
        sorted by field and index."""
        return "".join(f"{_escape(field)}\t{_escape(token)}\t{index}\n"
                       for field in sorted(self.mapping)
                       for token, index in sorted(self.mapping[field].items(),
                                                  key=lambda kv: kv[1]))

    def fingerprint(self) -> str:
        return hashlib.sha256(self.text().encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class Batch:
    cat: np.ndarray      # (B, n_categorical) int32
    num: np.ndarray      # (B, n_numeric) float64
    labels: np.ndarray   # (B, 1) float64

    def __len__(self) -> int:
        return self.cat.shape[0]


class EncodedDataset:
    """Column arrays for a partition, with instrumented label access.

    Every read through the ``labels`` property bumps ``label_reads``; code
    paths that must not consume labels (KD-loss early stopping) can be
    audited by checking the counter stays at zero.
    """

    def __init__(self, cat: np.ndarray, num: np.ndarray, labels: np.ndarray):
        cat = np.asarray(cat, dtype=np.int32)
        num = np.asarray(num, dtype=np.float64)
        labels = np.asarray(labels, dtype=np.float64)
        n = labels.shape[0]
        if cat.ndim != 2 or num.ndim != 2 or cat.shape[0] != n or num.shape[0] != n:
            raise ValueError("cat/num/labels row counts disagree")
        self.cat = cat
        self.num = num
        self._labels = labels
        self.label_reads = 0

    @property
    def labels(self) -> np.ndarray:
        self.label_reads += 1
        return self._labels

    def __len__(self) -> int:
        return self._labels.shape[0]

    def subset(self, indices) -> "EncodedDataset":
        idx = np.asarray(indices)
        if idx.size == 0:
            idx = idx.astype(np.intp)
        return EncodedDataset(self.cat[idx], self.num[idx], self._labels[idx])

    @classmethod
    def concatenate(cls, parts: Iterable["EncodedDataset"]) -> "EncodedDataset":
        parts = list(parts)
        return cls(np.concatenate([p.cat for p in parts]),
                   np.concatenate([p.num for p in parts]),
                   np.concatenate([p._labels for p in parts]))

    def save_npz(self, path) -> None:
        with replacing(path) as f:
            np.savez(f, cat=self.cat, num=self.num, labels=self._labels)

    @classmethod
    def load_npz(cls, path) -> "EncodedDataset":
        with np.load(path) as z:
            return cls(z["cat"], z["num"], z["labels"])


def _check_width(rows: Sequence[Sequence[str]], width: int) -> None:
    for i, row in enumerate(rows):
        if len(row) < width:
            raise ValueError(f"row {i} has {len(row)} columns, schema needs {width}: "
                             f"column {len(row)} is missing")


def encode_rows(rows: Sequence[Sequence[str]], schema: TableSchema,
                vocab: FeatureVocabulary) -> EncodedDataset:
    """Map raw rows to index/value arrays using a frozen vocabulary, one
    column at a time: every row's width is checked first, then the labels,
    then each categorical and each numeric column in turn."""
    n = len(rows)
    _check_width(rows, schema.n_columns)
    binary = {"0": 0.0, "1": 1.0}
    labels = [binary.get(row[schema.label_column]) for row in rows]
    if None in labels:
        i = labels.index(None)
        raise ValueError(f"row {i}: label {rows[i][schema.label_column]!r} is not binary")
    cat = np.empty((n, len(schema.categorical_fields)), dtype=np.int32)
    for j, (name, column) in enumerate(schema.categorical_fields):
        get = vocab.mapping[name].get
        cat[:, j] = np.fromiter((get(row[column], UNK_INDEX) for row in rows),
                                dtype=np.int32, count=n)
    num = np.empty((n, len(schema.numeric_columns)), dtype=np.float64)
    values = np.empty(n, dtype=np.float64)
    for j, column in enumerate(schema.numeric_columns):
        for i, row in enumerate(rows):
            try:
                values[i] = _parse_numeric(row[column])
            except ValueError as err:
                raise ValueError(f"row {i}, column {column}: {err}") from None
        num[:, j] = transform_numeric(values)
    return EncodedDataset(cat, num, labels)


@dataclass(frozen=True)
class RandomRatioSplit:
    ratios: tuple[float, float, float]
    seed: int

    def __post_init__(self):
        r = self.ratios
        if (len(r) != 3 or not all(math.isfinite(x) and x >= 0 for x in r)
                or abs(sum(r) - 1.0) > 1e-9):
            raise ValueError(f"split ratios must be three finite non-negatives summing to 1, "
                             f"got {r}")


@dataclass(frozen=True)
class SequentialSplit:
    day_column: int
    train_days: int

    def __post_init__(self):
        if self.train_days < 1:
            raise ValueError("sequential split needs at least one training day")


def split_rows(rows: Sequence, strategy) -> tuple[list, list, list]:
    """Deterministic disjoint+exhaustive train/val/test partition of rows."""
    if isinstance(strategy, RandomRatioSplit):
        return _split_random(rows, strategy)
    if isinstance(strategy, SequentialSplit):
        return _split_sequential(rows, strategy)
    raise TypeError(f"unknown split strategy {strategy!r}")


def _split_random(rows, strategy: RandomRatioSplit):
    r = strategy.ratios
    n = len(rows)
    perm = np.random.default_rng(strategy.seed).permutation(n)
    b1 = math.floor(n * r[0] + 0.5)
    b2 = math.floor(n * (r[0] + r[1]) + 0.5)
    parts = (np.sort(perm[:b1]), np.sort(perm[b1:b2]), np.sort(perm[b2:]))
    return tuple([rows[i] for i in part] for part in parts)


def _split_sequential(rows, strategy: SequentialSplit):
    day_of_row = []
    for i, row in enumerate(rows):
        if strategy.day_column >= len(row):
            raise ValueError(f"row {i} has no day column {strategy.day_column}")
        day_of_row.append(row[strategy.day_column])
    days_in_order = list(dict.fromkeys(day_of_row))  # first-appearance order
    if len(days_in_order) <= strategy.train_days:
        raise ValueError(f"found {len(days_in_order)} days, need more than "
                         f"train_days={strategy.train_days} to form a tail")
    train_set = set(days_in_order[:strategy.train_days])
    train = [r for r, d in zip(rows, day_of_row) if d in train_set]
    tail = [r for r, d in zip(rows, day_of_row) if d not in train_set]
    half = len(tail) // 2
    return train, tail[:half], tail[half:]


def batches(dataset: EncodedDataset, batch_size: int, seed):
    """Stream the dataset once as Batch objects, in an order shuffled by
    ``seed`` (anything ``np.random.default_rng`` takes)."""
    n = len(dataset)
    if n == 0:
        raise ValueError("cannot batch an empty dataset")
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    order = np.random.default_rng(seed).permutation(n)
    labels = dataset.labels
    for start in range(0, n, batch_size):
        idx = order[start:start + batch_size]
        yield Batch(dataset.cat[idx], dataset.num[idx], labels[idx].reshape(-1, 1))

"""Feature pipeline: raw click logs -> columns -> vocabularies -> encoded batches.

Raw input is header-less delimited text (tab or comma), one column per
field plus a binary label column. ``read_rows`` parses the file a chunk of
lines at a time into a ``RawTable`` of columns, checking every row as it
goes; ``split_rows`` selects the train, val and test rows by index.
Categorical tokens below a frequency threshold collapse to the reserved UNK
index 0; numeric values x > 2 are squashed to (ln x)^2. Vocabularies are
built on the training partition only and frozen afterwards.
"""
from __future__ import annotations

import contextlib
import gzip
import hashlib
import itertools
import math
import os
from dataclasses import dataclass, replace
from typing import Iterable, Sequence

import numpy as np

UNK_INDEX = 0
# lines read_rows reads and parses at a time: it holds one chunk of rows as
# strings, besides the table's column arrays
_CHUNK_ROWS = 2048
_BINARY = {"0": 0.0, "1": 1.0}


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


@dataclass(frozen=True)
class RawTable:
    """The rows of a raw file as columns, as ``read_rows`` parsed them.

    ``lines`` holds each row's 1-based line in the file, ``labels`` its label
    and ``num`` its numeric columns in column order, missing and negative
    values already 0 but not yet squashed. ``codes[:, j]`` indexes
    ``tokens[j]``, the token list of the j-th field of
    ``schema.categorical_fields``; a field's codes number its tokens in the
    order they first appear in the file. ``days`` codes ``day_column`` the
    same way when the table was read for a sequential split, and ``n_days``
    counts its distinct days.
    """

    lines: np.ndarray    # (n,) int64
    labels: np.ndarray   # (n,) float64
    num: np.ndarray      # (n, n_numeric) float64
    codes: np.ndarray    # (n, n_categorical) int32
    tokens: tuple[list[str], ...]
    day_column: int | None = None
    days: np.ndarray | None = None  # (n,) int32
    n_days: int = 0

    def __len__(self) -> int:
        return self.lines.shape[0]

    def take(self, index: np.ndarray) -> "RawTable":
        """The rows at ``index``, in that order; the token lists are shared."""
        return replace(self, lines=self.lines[index], labels=self.labels[index],
                       num=self.num[index], codes=self.codes[index],
                       days=None if self.days is None else self.days[index])


def read_rows(path, schema: TableSchema, day_column: int | None = None) -> RawTable:
    """Read a delimited text file (gzip by .gz suffix) into a ``RawTable``.

    The file is read and parsed ``_CHUNK_ROWS`` lines at a time, so no list
    of all its rows is ever built. Blank lines are skipped but counted in
    the line numbers. ``day_column``, when given, is coded for a sequential
    split. The first faulty line in file order is refused with an error
    naming that line, the column and the token: a row with fewer columns
    than the schema or without the day column, a label other than ``0`` or
    ``1``, or a numeric that is not a finite number. Within one line the
    label comes first, then the numeric columns from left to right.
    """
    opener = gzip.open if str(path).endswith(".gz") else open
    with opener(path, "rt", encoding="utf-8") as f:
        return _read_lines(f, schema, day_column)


def _read_lines(lines: Iterable[str], schema: TableSchema,
                day_column: int | None = None) -> RawTable:
    """``read_rows`` over any iterable of lines, the first being line 1."""
    fields = [{} for _ in schema.categorical_fields]  # per field: token -> code
    days = {}
    chunks = []
    lines = iter(lines)
    first = 1
    while chunk := list(itertools.islice(lines, _CHUNK_ROWS)):
        rows = [line.rstrip("\r\n").split(schema.delimiter) for line in chunk]
        numbers = np.arange(first, first + len(rows))
        if [""] in rows:  # only a blank line splits into [""]
            kept = [i for i, row in enumerate(rows) if row != [""]]
            rows, numbers = [rows[i] for i in kept], numbers[kept]
        chunks.append(_parse_chunk(rows, numbers, schema, day_column, fields, days))
        first += len(chunk)
    # a chunk of no rows gives every column its dtype and shape in an empty file
    none = _parse_chunk([], np.empty(0, np.int64), schema, day_column, fields, days)
    numbers, labels, num, codes, day_codes = (np.concatenate(c) for c in zip(none, *chunks))
    return RawTable(numbers, labels, num, codes, tuple(list(f) for f in fields),
                    day_column, None if day_column is None else day_codes, len(days))


class _CellError(ValueError):
    """A refused cell; ``row`` indexes the cells of one column."""

    def __init__(self, row: int, message: str):
        super().__init__(message)
        self.row = row


def _parse_chunk(rows: list[list[str]], numbers: np.ndarray, schema: TableSchema,
                 day_column: int | None, fields: list[dict], days: dict):
    """Column arrays ``(numbers, labels, num, codes, day codes)`` of one chunk
    of split lines, whose file lines are ``numbers``. New tokens join
    ``fields`` and new days ``days``. The first faulty row is refused."""
    width = schema.n_columns if day_column is None else max(schema.n_columns, day_column + 1)
    short = None
    if rows and min(map(len, rows)) < width:
        short = next(i for i, row in enumerate(rows) if len(row) < width)
        short_row, rows = rows[short], rows[:short]  # a fault on an earlier line comes first
    n = len(rows)
    columns = list(zip(*rows)) if rows else [()] * width
    faults = []  # (row, rank within the row, column, message)
    labels = columns[schema.label_column]
    if not set(labels).issubset(_BINARY):
        i = next(i for i, token in enumerate(labels) if token not in _BINARY)
        faults.append((i, -1, schema.label_column, f"label {labels[i]!r} is not binary"))
    num = np.empty((n, len(schema.numeric_columns)))
    for j, column in enumerate(schema.numeric_columns):
        try:
            num[:, j] = _parse_numeric_column(columns[column])
        except _CellError as err:
            faults.append((err.row, j, column, str(err)))
    if faults:
        i, _, column, message = min(faults)
        raise ValueError(f"line {numbers[i]}, column {column}: {message}")
    if short is not None:
        line, k = numbers[short], len(short_row)
        if k < schema.n_columns:
            raise ValueError(f"line {line} has {k} columns, schema needs {schema.n_columns}: "
                             f"column {k} is missing")
        raise ValueError(f"line {line} has {k} columns: day column {day_column} is missing")
    codes = np.empty((n, len(fields)), dtype=np.int32)
    for j, (_, column) in enumerate(schema.categorical_fields):
        codes[:, j] = _code(columns[column], fields[j])
    day_codes = _code(columns[day_column] if day_column is not None else (), days)
    return (numbers, np.fromiter(map(_BINARY.__getitem__, labels), np.float64, n), num,
            codes, day_codes)


def _code(tokens: Sequence[str], codes: dict) -> np.ndarray:
    """``tokens`` as int32 codes, giving each token not yet in ``codes`` the
    next code, in order of first appearance."""
    fresh = [token for token in dict.fromkeys(tokens) if token not in codes]
    codes.update(zip(fresh, itertools.count(len(codes))))
    return np.fromiter(map(codes.__getitem__, tokens), np.int32, len(tokens))


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


def _parse_numeric_column(tokens: Sequence[str]) -> np.ndarray:
    """``_parse_numeric`` over a column of tokens, in one ``np.array`` call:
    numpy parses a ``str`` as ``float`` does. Only a column that call
    refuses, or that holds a non-finite value, goes through the per-cell
    loop, which raises ``_CellError`` at its first faulty cell."""
    try:
        values = np.array([t or "0" for t in tokens] if "" in tokens else tokens,
                          dtype=np.float64)
    except ValueError:
        values = None
    if values is not None and np.isfinite(values).all():
        values[values < 0] = 0.0  # keeps -0.0, as _parse_numeric does
        return values
    values = np.empty(len(tokens))
    for i, token in enumerate(tokens):
        try:
            values[i] = _parse_numeric(token)
        except ValueError as err:
            raise _CellError(i, str(err)) from None
    return values


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
    def build(cls, table: RawTable, schema: TableSchema,
              min_count: int) -> "FeatureVocabulary":
        """Keep each field's tokens that occur at least ``min_count`` times
        in ``table``, the training rows: a count of its codes."""
        if not len(table):
            raise ValueError("cannot build a vocabulary from zero rows")
        mapping = {}
        for j, (name, _) in enumerate(schema.categorical_fields):
            tokens = table.tokens[j]
            counts = np.bincount(table.codes[:, j], minlength=len(tokens))
            kept = sorted(tokens[k] for k in np.flatnonzero(counts >= max(min_count, 1)))
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


def encode_rows(table: RawTable, schema: TableSchema,
                vocab: FeatureVocabulary) -> EncodedDataset:
    """Map a table's rows to index/value arrays using a frozen vocabulary:
    each categorical field's codes go through one lookup array, and each
    numeric column through ``transform_numeric``."""
    cat = np.empty((len(table), len(schema.categorical_fields)), dtype=np.int32)
    for j, (name, _) in enumerate(schema.categorical_fields):
        tokens = table.tokens[j]
        lookup = np.fromiter(map(vocab.mapping[name].get, tokens, itertools.repeat(UNK_INDEX)),
                             np.int32, len(tokens))
        cat[:, j] = lookup[table.codes[:, j]]
    num = np.empty_like(table.num)
    for j in range(num.shape[1]):
        num[:, j] = transform_numeric(table.num[:, j])
    return EncodedDataset(cat, num, table.labels)


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


def split_rows(table: RawTable, strategy) -> tuple[RawTable, RawTable, RawTable]:
    """Deterministic disjoint+exhaustive train/val/test partition of a
    table's rows, each part in file order."""
    if isinstance(strategy, RandomRatioSplit):
        parts = _split_random(len(table), strategy)
    elif isinstance(strategy, SequentialSplit):
        parts = _split_sequential(table, strategy)
    else:
        raise TypeError(f"unknown split strategy {strategy!r}")
    return tuple(table.take(part) for part in parts)


def _split_random(n: int, strategy: RandomRatioSplit):
    r = strategy.ratios
    perm = np.random.default_rng(strategy.seed).permutation(n)
    b1 = math.floor(n * r[0] + 0.5)
    b2 = math.floor(n * (r[0] + r[1]) + 0.5)
    return np.sort(perm[:b1]), np.sort(perm[b1:b2]), np.sort(perm[b2:])


def _split_sequential(table: RawTable, strategy: SequentialSplit):
    if table.day_column != strategy.day_column:
        raise ValueError(f"the table was not read with day column {strategy.day_column}")
    if table.n_days <= strategy.train_days:
        raise ValueError(f"found {table.n_days} days, need more than "
                         f"train_days={strategy.train_days} to form a tail")
    # day codes follow first appearance, so the first train_days days train
    in_train = table.days < strategy.train_days
    tail = np.flatnonzero(~in_train)
    half = len(tail) // 2
    return np.flatnonzero(in_train), tail[:half], tail[half:]


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

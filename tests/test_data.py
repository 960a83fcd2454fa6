import gzip
import hashlib
import math
import re
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctrkd import data as D
from ctrkd import synth
from ctrkd.config import parse_config_text


def toy_schema():
    # label, one numeric column, then the categorical fields C1 and C2
    return D.TableSchema(0, numeric_columns=(1,), categorical_columns=(2, 3),
                         delimiter="\t")


def make_rows(tokens_a, tokens_b=None, label="0"):
    tokens_b = tokens_b or ["z"] * len(tokens_a)
    return [[label, "1.0", a, b] for a, b in zip(tokens_a, tokens_b)]


def table_of(rows, schema=None, day_column=None):
    """The table read_rows gives for a file of ``rows``, one line each."""
    schema = schema or toy_schema()
    return D._read_lines((schema.delimiter.join(row) + "\n" for row in rows), schema,
                         day_column)


def rows_in(part, rows):
    """The rows of ``rows`` (the file's lines in order) that ``part`` holds."""
    return [rows[line - 1] for line in part.lines]


def assert_same_table(a, b):
    for name in ("lines", "labels", "num", "codes", "days"):
        x, y = getattr(a, name), getattr(b, name)
        assert (x is None and y is None) or (x.dtype, x.shape, x.tobytes()) == \
            (y.dtype, y.shape, y.tobytes()), name
    assert (a.tokens, a.day_column, a.n_days) == (b.tokens, b.day_column, b.n_days)


def test_schema_validation():
    with pytest.raises(ValueError):
        D.TableSchema(1, categorical_columns=(1,))
    with pytest.raises(ValueError):
        D.TableSchema(0, categorical_columns=(1, 3))
    with pytest.raises(ValueError, match="no feature columns configured"):
        D.TableSchema(0)


def test_vocab_threshold_semantics():
    rows = make_rows(["a"] * 12 + ["b"] * 3)
    vocab = D.FeatureVocabulary.build(table_of(rows), toy_schema(), min_count=10)
    assert vocab.mapping["C1"].get("a", D.UNK_INDEX) == 1
    assert vocab.mapping["C1"].get("b", D.UNK_INDEX) == D.UNK_INDEX
    assert vocab.size("C1") == 2


def test_vocab_min_count_one_keeps_everything():
    rows = make_rows(["a", "b", "c", "a"])
    vocab = D.FeatureVocabulary.build(table_of(rows), toy_schema(), min_count=1)
    assert vocab.size("C1") == 4  # three tokens + UNK
    assert all(vocab.mapping["C1"].get(t, D.UNK_INDEX) != D.UNK_INDEX for t in "abc")


def test_vocab_keeps_only_tokens_of_the_training_rows():
    # the token lists cover the whole file, so a count of 0 must not keep a
    # token that only the other splits hold
    table = table_of(make_rows(["a", "b", "c", "d"]))
    train = table.take(np.array([0, 2]))
    for min_count in (0, 1):
        vocab = D.FeatureVocabulary.build(train, toy_schema(), min_count=min_count)
        assert vocab.mapping["C1"] == {"a": 1, "c": 2}


def test_vocab_empty_input_rejected():
    with pytest.raises(ValueError):
        D.FeatureVocabulary.build(table_of([]), toy_schema(), min_count=1)


def test_vocab_short_row_rejected():
    # the reader refuses the row before any vocabulary sees it
    rows = [["0", "1.0", "a"]]
    with pytest.raises(ValueError, match="line 1 has 3 columns"):
        D.FeatureVocabulary.build(table_of(rows), toy_schema(), min_count=1)


def test_vocab_matches_counter_oracle():
    rng = np.random.default_rng(77)
    tokens = [f"t{rng.integers(0, 3000)}" for _ in range(100_000)]
    rows = make_rows(tokens)
    vocab = D.FeatureVocabulary.build(table_of(rows), toy_schema(), min_count=10)
    counts = Counter(tokens)
    kept = {t for t, c in counts.items() if c >= 10}
    assert vocab.size("C1") == len(kept) + 1
    assert set(vocab.mapping["C1"]) == kept


def test_vocab_frozen_after_build():
    rows = make_rows(["a", "a", "b", "b"])
    vocab = D.FeatureVocabulary.build(table_of(rows), toy_schema(), min_count=2)
    snapshot = {f: dict(m) for f, m in vocab.mapping.items()}
    unseen = [["0", "3.0", "martian", "zeta"], ["1", "", "a", "b"]]
    ds = D.encode_rows(table_of(unseen), toy_schema(), vocab)
    assert ds.cat[0, 0] == D.UNK_INDEX  # unseen token -> UNK
    assert vocab.mapping == snapshot    # encoding never mutates the mapping


def test_vocab_roundtrip_through_file(tmp_path):
    # comma-delimited, so that a token can hold a tab
    schema = D.TableSchema(0, numeric_columns=(1,), categorical_columns=(2, 3),
                           delimiter=",")
    rows = make_rows(["a", "a", "we\tird", "we\tird", ""])
    # read_rows breaks lines only at \n, \r and \r\n, so a token keeps every
    # other character that str.splitlines would break at
    raw = tmp_path / "rows.txt"
    breaks = "\x0b\x0c\x1c\x85\u2028\u2029"
    raw.write_text("".join(",".join(row) + "\n" for row in rows)
                   + "".join(f"0,1.0,p{ch}q,z\n" for ch in breaks * 2), encoding="utf-8")
    table = D.read_rows(raw, schema)
    tokens = table.tokens[0]
    assert [tokens[c] for c in table.codes[-len(breaks):, 0]] == [f"p{ch}q" for ch in breaks]
    vocab = D.FeatureVocabulary.build(table, schema, min_count=2)
    # one "field<TAB>token<TAB>index\n" line per entry, in field then index
    # order: a tab inside a token is written as \t, other breaks as they are
    kept = sorted(["a", "we\tird", *(f"p{ch}q" for ch in breaks)])
    expected = [("C1", tok.replace("\t", "\\t"), i) for i, tok in enumerate(kept, start=1)]
    expected.append(("C2", "z", 1))
    text = vocab.text()
    assert text == "".join(f"{f}\t{t}\t{i}\n" for f, t, i in expected)
    assert vocab.fingerprint() == hashlib.sha256(text.encode("utf-8")).hexdigest()


def test_encode_decode_roundtrip_token_or_unk():
    rows = make_rows(["a", "b", "a", "c", "a", "b"])
    vocab = D.FeatureVocabulary.build(table_of(rows), toy_schema(), min_count=2)
    inverse = {i: t for t, i in vocab.mapping["C1"].items()}
    assert D.UNK_INDEX not in inverse
    for tok in ["a", "b", "c", "unseen"]:
        idx = vocab.mapping["C1"].get(tok, D.UNK_INDEX)
        back = inverse.get(idx)
        if idx == D.UNK_INDEX:
            assert back is None
        else:
            assert back == tok


def test_transform_numeric_branches():
    e2 = float(np.exp(2.0))
    np.testing.assert_array_equal(D.transform_numeric(np.array([1.0, 2.0])), [1.0, 2.0])
    np.testing.assert_allclose(
        D.transform_numeric(np.array([0.0, 2.0, e2])), [0.0, 2.0, 4.0], atol=1e-12)


def test_encode_rows_values_and_errors():
    rows = [["1", "7.389056098930650", "a", "z"],
            ["0", "", "a", "z"],
            ["0", "-5", "b", "z"]]
    vocab = D.FeatureVocabulary.build(table_of(rows), toy_schema(), min_count=1)
    ds = D.encode_rows(table_of(rows), toy_schema(), vocab)
    assert ds.num[0, 0] == pytest.approx(4.0, abs=1e-12)
    assert ds.num[1, 0] == 0.0  # missing -> 0
    assert ds.num[2, 0] == 0.0  # negative -> 0
    assert ds._labels.tolist() == [1.0, 0.0, 0.0]
    with pytest.raises(ValueError, match=r"line 1, column 0: label '2' is not binary"):
        D.encode_rows(table_of([["2", "1", "a", "z"]]), toy_schema(), vocab)


def test_encode_rows_rejects_short_rows():
    # val and test rows never pass through FeatureVocabulary.build
    vocab = D.FeatureVocabulary.build(table_of(make_rows(["a", "b"])), toy_schema(),
                                      min_count=1)
    short = [["0", "1.0", "a", "z"], ["1", "2.0", "b"]]
    with pytest.raises(ValueError, match=r"line 2 has 3 columns.*column 3 is missing"):
        D.encode_rows(table_of(short), toy_schema(), vocab)


def test_encode_rows_rejects_non_finite_numerics():
    vocab = D.FeatureVocabulary.build(table_of(make_rows(["a", "b"])), toy_schema(),
                                      min_count=1)
    for token in ("nan", "NaN", "inf", "-inf", "1e999"):
        rows = [["0", "1.0", "a", "z"], ["1", token, "b", "z"]]
        with pytest.raises(ValueError, match=rf"line 2, column 1: .*'{re.escape(token)}'"):
            D.encode_rows(table_of(rows), toy_schema(), vocab)
    with pytest.raises(ValueError, match=r"line 1, column 1: .*'x1'"):
        D.encode_rows(table_of([["0", "x1", "a", "z"]]), toy_schema(), vocab)


def test_encode_rows_of_zero_rows_keeps_column_shapes():
    vocab = D.FeatureVocabulary.build(table_of(make_rows(["a", "b"])), toy_schema(),
                                      min_count=1)
    ds = D.encode_rows(table_of([]), toy_schema(), vocab)
    assert (ds.cat.shape, ds.cat.dtype) == ((0, 2), np.int32)
    assert (ds.num.shape, ds.num.dtype) == ((0, 1), np.float64)
    assert ds._labels.shape == (0,)


def test_columns_listed_out_of_order_follow_column_order():
    schema = parse_config_text("data.numeric_columns = 2,1\n"
                               "data.categorical_columns = 5,3,6,4\n").schema
    # label, numerics in columns 1-2, categoricals in columns 3-6
    rows = [["1", "3.0", "0.5", "a", "b", "a", "c"],
            ["0", "", "9.0", "b", "a", "a", "b"],
            ["1", "1.0", "", "c", "a", "b", "a"]]
    vocab = D.FeatureVocabulary.build(table_of(rows, schema), schema, min_count=1)
    # C<k> names the k-th listed column: C1 is column 5, C2 column 3, ...
    assert list(vocab.mapping) == ["C2", "C4", "C1", "C3"]
    assert vocab.sizes() == (4, 3, 3, 4)
    assert set(vocab.mapping["C1"]) == {"a", "b"}
    ds = D.encode_rows(table_of(rows, schema), schema, vocab)
    np.testing.assert_array_equal(ds.cat, [[1, 2, 1, 3], [2, 1, 1, 2], [3, 1, 2, 1]])
    np.testing.assert_allclose(
        ds.num, [[math.log(3.0) ** 2, 0.5], [0.0, math.log(9.0) ** 2], [1.0, 0.0]],
        rtol=0, atol=1e-12)
    assert ds._labels.tolist() == [1.0, 0.0, 1.0]


def test_random_split_exact_ratio():
    rows = make_rows([f"t{i}" for i in range(10)])
    train, val, test = D.split_rows(table_of(rows), D.RandomRatioSplit((0.8, 0.1, 0.1), seed=5))
    assert (len(train), len(val), len(test)) == (8, 1, 1)


def test_random_split_deterministic_and_invalid_ratios():
    rows = make_rows([f"t{i}" for i in range(37)])
    s = D.RandomRatioSplit((0.6, 0.2, 0.2), seed=9)
    a = D.split_rows(table_of(rows), s)
    b = D.split_rows(table_of(rows), s)
    assert [rows_in(part, rows) for part in a] == [rows_in(part, rows) for part in b]
    with pytest.raises(ValueError):
        D.split_rows(table_of(rows), D.RandomRatioSplit((0.5, 0.2, 0.2), seed=1))
    with pytest.raises(TypeError, match="unknown split strategy"):
        D.split_rows(table_of(rows), (0.6, 0.2, 0.2))


@settings(max_examples=40, deadline=None)
@given(n=st.integers(min_value=3, max_value=400), seed=st.integers(0, 2**31 - 1))
def test_random_split_disjoint_exhaustive(n, seed):
    rows = make_rows([str(i) for i in range(n)])
    train, val, test = D.split_rows(table_of(rows),
                                    D.RandomRatioSplit((0.8, 0.1, 0.1), seed=seed))
    ids = [r[2] for part in (train, val, test) for r in rows_in(part, rows)]
    assert sorted(ids, key=int) == [str(i) for i in range(n)]
    assert len(set(ids)) == n


def test_sequential_split_halves_tail():
    rows = []
    for day in range(1, 9):
        rows += [["0", str(day), f"t{i}", "z"] for i in range(10 + day)]
    strat = D.SequentialSplit(day_column=1, train_days=7)
    train, val, test = D.split_rows(table_of(rows, day_column=1), strat)
    day8 = 18
    assert len(val) == day8 // 2
    assert len(test) == day8 - day8 // 2
    assert len(train) == len(rows) - day8
    assert all(r[1] != "8" for r in rows_in(train, rows))


def test_sequential_split_errors():
    rows = [["0", "1", "a", "z"]]
    with pytest.raises(ValueError):
        D.split_rows(table_of(rows, day_column=1), D.SequentialSplit(day_column=1, train_days=1))
    with pytest.raises(ValueError, match="line 1 has 4 columns: day column 5 is missing"):
        D.split_rows(table_of(rows, day_column=5), D.SequentialSplit(day_column=5, train_days=1))
    # the day column is coded only when the table is read for it
    with pytest.raises(ValueError, match="not read with day column 1"):
        D.split_rows(table_of(rows * 2), D.SequentialSplit(day_column=1, train_days=1))


def _dataset(n):
    return D.EncodedDataset(
        np.arange(n, dtype=np.int32).reshape(-1, 1) % 3,
        np.zeros((n, 1)),
        np.arange(n, dtype=np.float64) % 2)


def test_batches_sizes_and_order():
    ds = _dataset(5)
    sizes = [len(b) for b in D.batches(ds, 2, 0)]
    assert sizes == [2, 2, 1]
    flat = np.concatenate([b.cat[:, 0] for b in D.batches(ds, 2, 0)])
    np.testing.assert_array_equal(flat, ds.cat[np.random.default_rng(0).permutation(5), 0])


def test_batches_shuffle_determinism():
    ds = _dataset(64)
    def order(seed):
        return np.concatenate([b.labels[:, 0] for b in D.batches(ds, 7, seed)])
    np.testing.assert_array_equal(order(3), order(3))
    assert not np.array_equal(order(3), order(4))


def test_batches_cover_every_sample_once():
    ds = _dataset(23)
    seen = np.concatenate([b.num[:, 0] * 0 + b.cat[:, 0] for b in D.batches(ds, 4, 1)])
    assert len(seen) == 23


def test_batches_reject_empty_and_bad_size():
    ds = _dataset(4)
    with pytest.raises(ValueError):
        list(D.batches(ds.subset([]), 2, 0))
    with pytest.raises(ValueError):
        list(D.batches(ds, 0, 0))
    with pytest.raises(ValueError, match="row counts disagree"):
        D.EncodedDataset(ds.cat, ds.num[:3], ds._labels)


def test_label_read_counter():
    ds = _dataset(10)
    assert ds.label_reads == 0
    _ = ds.labels
    assert ds.label_reads == 1
    list(D.batches(ds, 4, 0))
    assert ds.label_reads == 2


def test_dataset_npz_roundtrip(tmp_path):
    ds = _dataset(12)
    path = tmp_path / "part.npz"
    ds.save_npz(path)
    back = D.EncodedDataset.load_npz(path)
    np.testing.assert_array_equal(back.cat, ds.cat)
    np.testing.assert_array_equal(back._labels, ds._labels)


def test_read_rows_plain_and_gzip(tmp_path):
    text = "0\t1.5\ta\tz\n1\t\tb\tz\n"
    plain = tmp_path / "rows.txt"
    plain.write_text(text)
    zipped = tmp_path / "rows.txt.gz"
    with gzip.open(zipped, "wt") as f:
        f.write(text)
    r1 = D.read_rows(plain, toy_schema())
    r2 = D.read_rows(zipped, toy_schema())
    assert_same_table(r1, r2)
    assert (r1.lines[1], r1.labels[1], r1.num[1, 0]) == (2, 1.0, 0.0)
    assert [tokens[c] for tokens, c in zip(r1.tokens, r1.codes[1])] == ["b", "z"]


def test_synthetic_draw_never_holds_a_whole_rows_fields_latent_array():
    spec = synth.SyntheticSpec(n_cat=26, vocab=50, latent_dim=8)
    n = 30_000
    tracemalloc.start()
    try:
        synth._draw(spec, n, seed=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < n * spec.n_cat * spec.latent_dim * 8


def test_synthetic_draw_is_bitwise_the_same_in_any_block_size(monkeypatch):
    spec = synth.SyntheticSpec(n_cat=5, vocab=30, latent_dim=3)
    whole = synth._draw(spec, 1000, seed=11)
    monkeypatch.setattr(synth, "_BLOCK_ROWS", 7)
    for a, b in zip(whole, synth._draw(spec, 1000, seed=11)):
        assert a.tobytes() == b.tobytes()


# -- reading raw files -----------------------------------------------------------

def test_every_refusal_names_the_file_line_column_and_token():
    # blank lines count, so line numbers are not row indices
    good = "0\t1.0\ta\tz\td1\n"
    cases = [("1\t2.0\tb\n", r"line 4 has 3 columns, schema needs 4: column 3 is missing"),
             ("2\t2.0\tb\tz\td1\n", r"line 4, column 0: label '2' is not binary"),
             ("1\tinf\tb\tz\td1\n", r"line 4, column 1: non-finite numeric value 'inf'"),
             ("1\tx1\tb\tz\td1\n", r"line 4, column 1: could not convert .*'x1'"),
             ("1\t2.0\tb\tz\n", r"line 4 has 4 columns: day column 4 is missing")]
    for bad, message in cases:
        lines = [good, "\n", good, bad, good]
        with pytest.raises(ValueError, match=message):
            D._read_lines(lines, toy_schema(), day_column=4)


def test_the_first_faulty_line_in_file_order_is_refused(monkeypatch):
    rows = [["0", "1.0", "2.0", f"t{i}"] for i in range(9)]
    rows[2][1] = ""            # missing: no fault
    rows[3] = ["1", "2.0"]     # short, line 4
    rows[5][0] = "x"           # bad label, line 6
    schema = D.TableSchema(0, numeric_columns=(1, 2), categorical_columns=(3,))
    with pytest.raises(ValueError, match="line 4 has 2 columns"):
        table_of(rows, schema)
    rows[3] = ["1", "2.0", "-nan", "z"]  # non-finite in column 2, line 4
    rows[1][1] = "y"                     # unparsable in column 1, line 2
    for chunk_rows in (1, 3, 2048):
        monkeypatch.setattr(D, "_CHUNK_ROWS", chunk_rows)
        with pytest.raises(ValueError, match=r"line 2, column 1: .*'y'"):
            table_of(rows, schema)
    rows[1][1] = "1"
    with pytest.raises(ValueError, match=r"line 4, column 2: .*'-nan'"):
        table_of(rows, schema)
    # within one line the label comes first, then the numerics left to right
    rows[3] = ["2", "x1", "nan", "z"]
    with pytest.raises(ValueError, match=r"line 4, column 0: label '2'"):
        table_of(rows, schema)
    rows[3][0] = "1"
    with pytest.raises(ValueError, match=r"line 4, column 1: .*'x1'"):
        table_of(rows, schema)


def test_blank_lines_are_skipped_but_counted():
    lines = ["\n", "0\t1.0\ta\tz\n", "\r\n", "\n", "1\t2.0\tb\tz"]
    table = D._read_lines(lines, toy_schema())
    assert table.lines.tolist() == [2, 5]
    assert table.labels.tolist() == [0.0, 1.0]
    assert D._read_lines(["\n"] * 3, toy_schema()).lines.shape == (0,)


def _reference_numeric(token):
    # the per-cell rule: float, "" as 0, non-finite refused, negatives to 0
    if token == "":
        return 0.0
    value = float(token)
    if not math.isfinite(value):
        raise ValueError(f"non-finite numeric value {token!r}")
    return 0.0 if value < 0 else value


ACCEPTED = ["", "-5", "-0.0", "+3", "1_0", " 1", "1 ", "١", "7.389056098930650",
            "1e-320", "0", "2.5E3"]
NON_FINITE = ["nan", "nAn", "Infinity", "-inf", "1e999"]
UNPARSABLE = ["0x10", "x1"]


@pytest.mark.parametrize("token", ACCEPTED + NON_FINITE + UNPARSABLE)
def test_one_call_numeric_parse_matches_float_token_by_token(token):
    try:
        expected = np.float64(_reference_numeric(token)).tobytes()
    except ValueError as err:
        with pytest.raises(D._CellError) as got:
            D._parse_numeric_column(["1.5", token])
        assert (got.value.row, str(got.value)) == (1, str(err))
        kind = "non-finite" if token in NON_FINITE else "could not convert"
        assert kind in str(err) and token in str(err)
        return
    assert token in ACCEPTED
    assert D._parse_numeric_column(["1.5", token])[1].tobytes() == expected


def test_one_call_numeric_parse_of_a_whole_column_and_its_first_fault():
    values = D._parse_numeric_column(ACCEPTED)
    assert values.tobytes() == np.array([_reference_numeric(t) for t in ACCEPTED]).tobytes()
    assert np.signbit(values[ACCEPTED.index("-0.0")])
    # the per-cell loop names the first faulty cell, whatever its kind
    for column, row in ((["1", "nan", "x1"], 1), (["1", "2", "x1", "inf"], 2)):
        with pytest.raises(D._CellError) as got:
            D._parse_numeric_column(column)
        assert got.value.row == row


def _synthetic_file(tmp_path, n=500):
    path = tmp_path / "clicks.txt"
    synth.write_synthetic_file(path, n, seed=8, spec=synth.SyntheticSpec(
        n_cat=4, vocab=40, n_num=2, latent_dim=2))
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    for at in (0, 17, 18, 400):  # blank lines, at the start and in a run
        lines.insert(at, "\n")
    path.write_text("".join(lines), encoding="utf-8")
    schema = parse_config_text("data.numeric_columns = 1-2\n"
                               "data.categorical_columns = 3-6\n").schema
    return path, schema


def _preprocess(path, schema, strategy, day_column=None):
    table = D.read_rows(path, schema, day_column)
    parts = D.split_rows(table, strategy)
    vocab = D.FeatureVocabulary.build(parts[0], schema, min_count=2)
    return table, vocab, [D.encode_rows(part, schema, vocab) for part in parts]


def test_reading_is_bitwise_the_same_in_any_chunk_size(tmp_path, monkeypatch):
    path, schema = _synthetic_file(tmp_path)
    for strategy, day_column in ((D.RandomRatioSplit((0.8, 0.1, 0.1), seed=4), None),
                                 (D.SequentialSplit(day_column=3, train_days=30), 3)):
        table, vocab, datasets = _preprocess(path, schema, strategy, day_column)
        for chunk_rows in (1, 7):
            monkeypatch.setattr(D, "_CHUNK_ROWS", chunk_rows)
            other, other_vocab, others = _preprocess(path, schema, strategy, day_column)
            assert_same_table(table, other)
            assert other_vocab.text() == vocab.text()
            for a, b in zip(datasets, others):
                for x, y in ((a.cat, b.cat), (a.num, b.num), (a._labels, b._labels)):
                    assert (x.dtype, x.shape, x.tobytes()) == (y.dtype, y.shape, y.tobytes())
        monkeypatch.undo()


# tokens with a NUL at the end, empty tokens and the characters that
# str.splitlines breaks at but a file line does not
CELLS = ["", "a", "a\x00", "b", "a b", "\x0b", "p\x0cq", "\x1c", "\x85", " ", "z "]
NUMBERS = ["", "0", "1.5", "-5", "-0.0", "3e2", "7.389", " 2", "1_0", "١"]
ROWS = st.lists(st.one_of(
    st.none(),  # a blank line
    st.tuples(st.sampled_from(["0", "1"]), st.sampled_from(NUMBERS),
              st.sampled_from(CELLS), st.sampled_from(CELLS),
              st.sampled_from(["d1", "d2", "d3"]))), max_size=40)


def _reference_pipeline(rows, schema, strategy, min_count):
    """read, split, build and encode, one row at a time over row lists."""
    numbered = [(i, list(row)) for i, row in enumerate(rows, start=1) if row is not None]
    if isinstance(strategy, D.RandomRatioSplit):
        n, r = len(numbered), strategy.ratios
        perm = np.random.default_rng(strategy.seed).permutation(n)
        b1, b2 = math.floor(n * r[0] + 0.5), math.floor(n * (r[0] + r[1]) + 0.5)
        parts = [[numbered[i] for i in np.sort(p)] for p in (perm[:b1], perm[b1:b2], perm[b2:])]
    else:
        day = [row[strategy.day_column] for _, row in numbered]
        days = list(dict.fromkeys(day))
        if len(days) <= strategy.train_days:
            raise ValueError("too few days")
        first = set(days[:strategy.train_days])
        tail = [nr for nr, d in zip(numbered, day) if d not in first]
        parts = [[nr for nr, d in zip(numbered, day) if d in first],
                 tail[:len(tail) // 2], tail[len(tail) // 2:]]
    if not parts[0]:
        raise ValueError("no training rows")
    mapping = {}
    for name, column in schema.categorical_fields:
        counts = Counter(row[column] for _, row in parts[0])
        kept = sorted(t for t, c in counts.items() if c >= min_count)
        mapping[name] = {t: i + 1 for i, t in enumerate(kept)}
    encoded = []
    for part in parts:
        cat = np.array([[mapping[name].get(row[column], D.UNK_INDEX)
                         for name, column in schema.categorical_fields] for _, row in part],
                       dtype=np.int32).reshape(len(part), len(schema.categorical_fields))
        num = np.array([[_reference_numeric(row[c]) for c in schema.numeric_columns]
                        for _, row in part]).reshape(len(part), len(schema.numeric_columns))
        num = np.stack([D.transform_numeric(num[:, j]) for j in range(num.shape[1])], axis=1)
        labels = np.array([float(row[schema.label_column]) for _, row in part])
        encoded.append(([i for i, _ in part], cat, num, labels))
    return mapping, encoded


@settings(max_examples=60)
@given(rows=ROWS, sequential=st.booleans(), seed=st.integers(0, 2**16),
       min_count=st.integers(1, 3))
def test_preprocess_matches_a_per_row_reference(rows, sequential, seed, min_count):
    schema = toy_schema()
    strategy = (D.SequentialSplit(day_column=4, train_days=1) if sequential
                else D.RandomRatioSplit((0.6, 0.2, 0.2), seed=seed))
    lines = ["\n" if row is None else "\t".join(row) + "\n" for row in rows]
    try:
        expected = _reference_pipeline(rows, schema, strategy, min_count)
    except ValueError:
        with pytest.raises(ValueError):
            table = D._read_lines(lines, schema, 4 if sequential else None)
            parts = D.split_rows(table, strategy)
            D.FeatureVocabulary.build(parts[0], schema, min_count)
        return
    mapping, encoded = expected
    table = D._read_lines(lines, schema, 4 if sequential else None)
    parts = D.split_rows(table, strategy)
    vocab = D.FeatureVocabulary.build(parts[0], schema, min_count)
    assert vocab.mapping == mapping
    for part, (numbers, cat, num, labels) in zip(parts, encoded):
        ds = D.encode_rows(part, schema, vocab)
        assert part.lines.tolist() == numbers
        assert ds.cat.tobytes() == cat.tobytes() and ds.cat.shape == cat.shape
        assert ds.num.tobytes() == num.tobytes() and ds.num.shape == num.shape
        assert ds._labels.tobytes() == labels.tobytes()


@settings(max_examples=60)
@given(rows=ROWS, faults=st.lists(st.tuples(st.integers(0, 39), st.sampled_from(
    [(0, "2"), (1, "nan"), (1, "x1"), (1, "-inf"), (None, None)])), max_size=3))
def test_the_refused_line_is_the_first_faulty_one(rows, faults):
    rows = [None if row is None else list(row) for row in rows]
    for at, (column, token) in faults:
        if at < len(rows) and rows[at] is not None:
            if column is None:
                rows[at] = rows[at][:3]
            else:
                rows[at][column] = token
    expected = None
    for i, row in enumerate(rows, start=1):
        if row is None:
            continue
        if len(row) < 4:
            expected = rf"line {i} has 3 columns"
        elif row[0] not in ("0", "1"):
            expected = rf"line {i}, column 0: label"
        else:
            try:
                _reference_numeric(row[1])
                continue
            except ValueError:
                expected = rf"line {i}, column 1: .*{re.escape(repr(row[1]))}"
        break
    lines = ["\n" if row is None else "\t".join(row) + "\n" for row in rows]
    if expected is None:
        assert len(D._read_lines(lines, toy_schema())) == sum(r is not None for r in rows)
    else:
        with pytest.raises(ValueError, match=expected):
            D._read_lines(lines, toy_schema())


def test_preprocessing_never_holds_a_list_of_every_row(tmp_path):
    n = 20_000
    path = tmp_path / "clicks.txt"
    synth.write_synthetic_file(path, n, seed=5, spec=synth.SyntheticSpec(
        n_cat=26, n_num=13, vocab=2000))
    schema = parse_config_text("data.format = criteo\n").schema
    tracemalloc.start()
    try:
        _preprocess(path, schema, D.RandomRatioSplit((0.8, 0.1, 0.1), seed=1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # A list of every row holds n * 40 str objects of at least 49 bytes each
    # (39.2 MB here); the row-list reader peaked at 53.7 MB on this file, the
    # chunked one at 17.4 MB.
    assert peak < n * schema.n_columns * 49

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


def test_schema_validation():
    with pytest.raises(ValueError):
        D.TableSchema(1, categorical_columns=(1,))
    with pytest.raises(ValueError):
        D.TableSchema(0, categorical_columns=(1, 3))
    with pytest.raises(ValueError, match="no feature columns configured"):
        D.TableSchema(0)


def test_vocab_threshold_semantics():
    rows = make_rows(["a"] * 12 + ["b"] * 3)
    vocab = D.FeatureVocabulary.build(rows, toy_schema(), min_count=10)
    assert vocab.mapping["C1"].get("a", D.UNK_INDEX) == 1
    assert vocab.mapping["C1"].get("b", D.UNK_INDEX) == D.UNK_INDEX
    assert vocab.size("C1") == 2


def test_vocab_min_count_one_keeps_everything():
    rows = make_rows(["a", "b", "c", "a"])
    vocab = D.FeatureVocabulary.build(rows, toy_schema(), min_count=1)
    assert vocab.size("C1") == 4  # three tokens + UNK
    assert all(vocab.mapping["C1"].get(t, D.UNK_INDEX) != D.UNK_INDEX for t in "abc")


def test_vocab_empty_input_rejected():
    with pytest.raises(ValueError):
        D.FeatureVocabulary.build([], toy_schema(), min_count=1)


def test_vocab_short_row_rejected():
    rows = [["0", "1.0", "a"]]
    with pytest.raises(ValueError):
        D.FeatureVocabulary.build(rows, toy_schema(), min_count=1)


def test_vocab_matches_counter_oracle():
    rng = np.random.default_rng(77)
    tokens = [f"t{rng.integers(0, 3000)}" for _ in range(100_000)]
    rows = make_rows(tokens)
    vocab = D.FeatureVocabulary.build(rows, toy_schema(), min_count=10)
    counts = Counter(tokens)
    kept = {t for t, c in counts.items() if c >= 10}
    assert vocab.size("C1") == len(kept) + 1
    assert set(vocab.mapping["C1"]) == kept


def test_vocab_frozen_after_build():
    rows = make_rows(["a", "a", "b", "b"])
    vocab = D.FeatureVocabulary.build(rows, toy_schema(), min_count=2)
    snapshot = {f: dict(m) for f, m in vocab.mapping.items()}
    unseen = [["0", "3.0", "martian", "zeta"], ["1", "", "a", "b"]]
    ds = D.encode_rows(unseen, toy_schema(), vocab)
    assert ds.cat[0, 0] == D.UNK_INDEX  # unseen token -> UNK
    assert vocab.mapping == snapshot    # encoding never mutates the mapping


def test_vocab_roundtrip_through_file(tmp_path):
    rows = make_rows(["a", "a", "we\tird", "we\tird", ""])
    # read_rows breaks lines only at \n, \r and \r\n, so a token keeps every
    # other character that str.splitlines would break at
    raw = tmp_path / "rows.txt"
    breaks = "\x0b\x0c\x1c\x85\u2028\u2029"
    raw.write_text("".join(f"0\t1.0\tp{ch}q\tz\n" for ch in breaks * 2), encoding="utf-8")
    rows += D.read_rows(raw)
    assert [row[2] for row in rows[-len(breaks):]] == [f"p{ch}q" for ch in breaks]
    vocab = D.FeatureVocabulary.build(rows, toy_schema(), min_count=2)
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
    vocab = D.FeatureVocabulary.build(rows, toy_schema(), min_count=2)
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
    vocab = D.FeatureVocabulary.build(rows, toy_schema(), min_count=1)
    ds = D.encode_rows(rows, toy_schema(), vocab)
    assert ds.num[0, 0] == pytest.approx(4.0, abs=1e-12)
    assert ds.num[1, 0] == 0.0  # missing -> 0
    assert ds.num[2, 0] == 0.0  # negative -> 0
    assert ds._labels.tolist() == [1.0, 0.0, 0.0]
    with pytest.raises(ValueError):
        D.encode_rows([["2", "1", "a", "z"]], toy_schema(), vocab)


def test_encode_rows_rejects_short_rows():
    # val and test rows never pass through FeatureVocabulary.build
    vocab = D.FeatureVocabulary.build(make_rows(["a", "b"]), toy_schema(), min_count=1)
    short = [["0", "1.0", "a", "z"], ["1", "2.0", "b"]]
    with pytest.raises(ValueError, match=r"row 1 has 3 columns.*column 3 is missing"):
        D.encode_rows(short, toy_schema(), vocab)


def test_encode_rows_rejects_non_finite_numerics():
    vocab = D.FeatureVocabulary.build(make_rows(["a", "b"]), toy_schema(), min_count=1)
    for token in ("nan", "NaN", "inf", "-inf", "1e999"):
        rows = [["0", "1.0", "a", "z"], ["1", token, "b", "z"]]
        with pytest.raises(ValueError, match=rf"row 1, column 1: .*'{re.escape(token)}'"):
            D.encode_rows(rows, toy_schema(), vocab)
    with pytest.raises(ValueError, match=r"row 0, column 1: .*'x1'"):
        D.encode_rows([["0", "x1", "a", "z"]], toy_schema(), vocab)


def test_encode_rows_of_zero_rows_keeps_column_shapes():
    vocab = D.FeatureVocabulary.build(make_rows(["a", "b"]), toy_schema(), min_count=1)
    ds = D.encode_rows([], toy_schema(), vocab)
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
    vocab = D.FeatureVocabulary.build(rows, schema, min_count=1)
    # C<k> names the k-th listed column: C1 is column 5, C2 column 3, ...
    assert list(vocab.mapping) == ["C2", "C4", "C1", "C3"]
    assert vocab.sizes() == (4, 3, 3, 4)
    assert set(vocab.mapping["C1"]) == {"a", "b"}
    ds = D.encode_rows(rows, schema, vocab)
    np.testing.assert_array_equal(ds.cat, [[1, 2, 1, 3], [2, 1, 1, 2], [3, 1, 2, 1]])
    np.testing.assert_allclose(
        ds.num, [[math.log(3.0) ** 2, 0.5], [0.0, math.log(9.0) ** 2], [1.0, 0.0]],
        rtol=0, atol=1e-12)
    assert ds._labels.tolist() == [1.0, 0.0, 1.0]


def test_random_split_exact_ratio():
    rows = make_rows([f"t{i}" for i in range(10)])
    train, val, test = D.split_rows(rows, D.RandomRatioSplit((0.8, 0.1, 0.1), seed=5))
    assert (len(train), len(val), len(test)) == (8, 1, 1)


def test_random_split_deterministic_and_invalid_ratios():
    rows = make_rows([f"t{i}" for i in range(37)])
    s = D.RandomRatioSplit((0.6, 0.2, 0.2), seed=9)
    a = D.split_rows(rows, s)
    b = D.split_rows(rows, s)
    assert a == b
    with pytest.raises(ValueError):
        D.split_rows(rows, D.RandomRatioSplit((0.5, 0.2, 0.2), seed=1))
    with pytest.raises(TypeError, match="unknown split strategy"):
        D.split_rows(rows, (0.6, 0.2, 0.2))


@settings(max_examples=40, deadline=None)
@given(n=st.integers(min_value=3, max_value=400), seed=st.integers(0, 2**31 - 1))
def test_random_split_disjoint_exhaustive(n, seed):
    rows = [[str(i)] for i in range(n)]
    train, val, test = D.split_rows(rows, D.RandomRatioSplit((0.8, 0.1, 0.1), seed=seed))
    ids = [r[0] for part in (train, val, test) for r in part]
    assert sorted(ids, key=int) == [str(i) for i in range(n)]
    assert len(set(ids)) == n


def test_sequential_split_halves_tail():
    rows = []
    for day in range(1, 9):
        rows += [["0", str(day), f"t{i}", "z"] for i in range(10 + day)]
    strat = D.SequentialSplit(day_column=1, train_days=7)
    train, val, test = D.split_rows(rows, strat)
    day8 = 18
    assert len(val) == day8 // 2
    assert len(test) == day8 - day8 // 2
    assert len(train) == len(rows) - day8
    assert all(r[1] != "8" for r in train)


def test_sequential_split_errors():
    rows = [["0", "1", "a", "z"]]
    with pytest.raises(ValueError):
        D.split_rows(rows, D.SequentialSplit(day_column=1, train_days=1))
    with pytest.raises(ValueError):
        D.split_rows([["0"]], D.SequentialSplit(day_column=5, train_days=1))


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
    r1 = D.read_rows(plain)
    r2 = D.read_rows(zipped)
    assert r1 == r2
    assert r1[1] == ["1", "", "b", "z"]


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

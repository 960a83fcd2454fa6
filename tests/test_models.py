from dataclasses import replace

import numpy as np
import pytest

from ctrkd import tensor as T
from ctrkd.data import EncodedDataset
from ctrkd.models import PRESETS, WIDE_KINDS, FieldDims, Model, ModelSpec, spec_from_preset
from ctrkd.tensor import sigmoid_values
from ctrkd.train import PREDICT_BATCH, TrainHyper, predict_dataset, train_teacher

from gradcheck import check_grads

DIMS = FieldDims(vocab_sizes=(5, 4, 6), n_numeric=2)


def toy_batch(batch=3, seed=0):
    rng = np.random.default_rng(seed)
    cat = np.stack([rng.integers(0, v, size=batch) for v in DIMS.vocab_sizes], axis=1)
    num = rng.normal(size=(batch, DIMS.n_numeric))
    return cat, num


def test_spec_validation():
    with pytest.raises(ValueError):
        ModelSpec(wide="none", deep=())
    with pytest.raises(ValueError):
        ModelSpec(wide="quantum")
    with pytest.raises(ValueError):
        ModelSpec(wide="cin", cin_maps=())
    with pytest.raises(ValueError):
        ModelSpec(deep=(8,), dropout=1.0)
    with pytest.raises(ValueError, match="cross_layers"):
        ModelSpec(wide="cross", cross_layers=0)
    with pytest.raises(ValueError, match="vocabulary sizes"):
        FieldDims((5, 0), 1)
    with pytest.raises(ValueError, match="n_numeric"):
        FieldDims((5,), -1)


def test_model_without_input_fields_is_refused():
    for preset in PRESETS:
        with pytest.raises(ValueError, match="at least one input field"):
            Model(spec_from_preset(preset), FieldDims((), 0))


def test_forward_refuses_a_batch_of_the_wrong_shape():
    model = Model(ModelSpec.deepfm((4,), embedding_dim=2), DIMS, seed=0)
    cat, num = toy_batch()
    with pytest.raises(ValueError, match=r"cat of shape \(B, 3\)"):
        model.forward(cat[:, :2], num)
    with pytest.raises(ValueError, match=r"num of shape \(B, 2\)"):
        model.forward(cat, num[:, 0])
    with pytest.raises(ValueError, match="batch sizes differ"):
        model.forward(cat, num[:2])


def test_spec_kv_roundtrip():
    for spec in [ModelSpec.lr(), ModelSpec.fm(6), ModelSpec.dnn((32, 16), 8, 0.2),
                 ModelSpec.dcn(2, (16,), 4), ModelSpec.xdeepfm((3, 3), (16,), 4)]:
        assert ModelSpec.from_kv(spec.to_kv()) == spec


def test_spec_presets():
    assert spec_from_preset("deepfm", embedding_dim=8).wide == "fm"
    assert spec_from_preset("dcn", cross_layers=2).cross_layers == 2
    with pytest.raises(ValueError):
        spec_from_preset("tabnet")


def test_lr_zero_weights_gives_zero():
    model = Model(ModelSpec.lr(), DIMS, seed=1)
    cat, num = toy_batch()
    np.testing.assert_array_equal(model.logit_values(cat, num), np.zeros((3, 1)))


def test_lr_single_feature_plus_bias():
    dims = FieldDims((3,), 0)
    model = Model(ModelSpec.lr(), dims, seed=0)
    model.linear_cat[0].values[2, 0] = 1.5
    model.linear_bias.values[0, 0] = 0.5
    out = model.logit_values(np.array([[2]]), np.zeros((1, 0)))
    assert out[0, 0] == 2.0


def test_lr_matches_dot_product_oracle():
    rng = np.random.default_rng(42)
    dims = FieldDims((7, 7, 7, 7, 7), 0)
    model = Model(ModelSpec.lr(), dims, seed=3)
    for table in model.linear_cat:
        table.values[:] = rng.normal(size=table.values.shape)
    model.linear_bias.values[:] = rng.normal()
    cat = rng.integers(0, 7, size=(4, 5))
    expected = np.array([
        sum(model.linear_cat[f].values[cat[b, f], 0] for f in range(5))
        + model.linear_bias.values[0, 0]
        for b in range(4)]).reshape(-1, 1)
    np.testing.assert_allclose(model.logit_values(cat, np.zeros((4, 0))), expected, rtol=1e-12)


def fm_fields_values(model, cat, num):
    vs = [table.values[cat[:, i]] for i, table in enumerate(model.embeddings)]
    for j, proj in enumerate(model.numeric_proj):
        vs.append(num[:, j:j + 1] @ proj.values)
    return vs


def test_fm_zero_embeddings_is_linear_only():
    model = Model(ModelSpec.fm(4), DIMS, seed=1)
    for e in model.embeddings + model.numeric_proj:
        e.values[:] = 0.0
    rng = np.random.default_rng(0)
    for t in model.linear_cat:
        t.values[:] = rng.normal(size=t.values.shape)
    cat, num = toy_batch()
    wide, _ = model.forward(cat, num)
    linear = model._linear_logit(cat, num)
    np.testing.assert_array_equal(wide.values, linear.values)


def test_fm_single_field_has_no_pairs():
    dims = FieldDims((5,), 0)
    model = Model(ModelSpec.fm(4), dims, seed=2)
    cat = np.array([[1], [3]])
    _, pair = model.forward(cat, np.zeros((2, 0)))
    np.testing.assert_array_equal(pair.values, np.zeros((2, 4)))


def test_fm_matches_bruteforce_pairs():
    # independent O(m^2) oracle over all field pairs
    model = Model(ModelSpec.fm(2), DIMS, seed=7)
    rng = np.random.default_rng(11)
    for e in model.embeddings + model.numeric_proj:
        e.values[:] = rng.normal(size=e.values.shape)
    cat, num = toy_batch(batch=4, seed=5)
    vs = fm_fields_values(model, cat, num)
    m = len(vs)
    brute = np.zeros((4, 1))
    for i in range(m):
        for j in range(i + 1, m):
            brute[:, 0] += np.sum(vs[i] * vs[j], axis=1)
    linear = model._linear_logit(cat, num).values
    logit, _ = model.forward(cat, num)
    np.testing.assert_allclose(logit.values, linear + brute, atol=1e-10)


def test_crossnet_zero_weights_is_identity():
    for layers in (1, 3, 5):
        model = Model(ModelSpec(wide="cross", cross_layers=layers, embedding_dim=3),
                      DIMS, seed=3)
        for w in model.cross_w:
            w.values[:] = 0.0
        cat, num = toy_batch()
        _, vec = model.forward(cat, num)
        embeds = [t.values[cat[:, i]] for i, t in enumerate(model.embeddings)]
        x0 = np.concatenate(embeds + [num], axis=1)
        np.testing.assert_array_equal(vec.values, x0)


def test_crossnet_hand_example():
    # x0=(1,1), one layer, w=(1,0), b=0 -> x1 = x0*(x.w) + b + x0 = (2,2)
    dims = FieldDims((2,), 0)
    model = Model(ModelSpec(wide="cross", cross_layers=1, embedding_dim=2), dims, seed=0)
    model.embeddings[0].values[1] = [1.0, 1.0]
    model.cross_w[0].values[:, 0] = [1.0, 0.0]
    model.cross_b[0].values[:] = 0.0
    _, vec = model.forward(np.array([[1]]), np.zeros((1, 0)))
    np.testing.assert_array_equal(vec.values, [[2.0, 2.0]])


def test_crossnet_matches_unrolled_oracle():
    model = Model(ModelSpec(wide="cross", cross_layers=3, embedding_dim=2), DIMS, seed=9)
    rng = np.random.default_rng(4)
    for p in model.parameters():
        p.values[:] = rng.normal(scale=0.5, size=p.values.shape)
    cat, num = toy_batch(batch=2, seed=8)
    embeds = [t.values[cat[:, i]] for i, t in enumerate(model.embeddings)]
    x0 = np.concatenate(embeds + [num], axis=1)
    expected = np.zeros((2, 1))
    for b in range(2):
        x = x0[b].copy()
        for w, bias in zip(model.cross_w, model.cross_b):
            s = float(x @ w.values[:, 0])
            x = x0[b] * s + bias.values[0] + x
        expected[b, 0] = x @ model.cross_head_w.values[:, 0] + model.cross_head_b.values[0, 0]
    logit, _ = model.forward(cat, num)
    np.testing.assert_allclose(logit.values, expected, atol=1e-10)


def test_cin_zero_weights_gives_head_bias():
    model = Model(ModelSpec(wide="cin", cin_maps=(3, 2), embedding_dim=2), DIMS, seed=1)
    for w in model.cin_w:
        w.values[:] = 0.0
    model.cin_head_b.values[:] = 0.7
    cat, num = toy_batch()
    logit, _ = model.forward(cat, num)
    np.testing.assert_allclose(logit.values, np.full((3, 1), 0.7), atol=0)


def test_cin_all_ones_single_map_pools_all_products():
    dims = FieldDims((3, 3), 0)
    model = Model(ModelSpec(wide="cin", cin_maps=(1,), embedding_dim=2), dims, seed=0)
    model.cin_w[0].values[:] = 1.0
    cat = np.array([[1, 2]])
    x0 = [t.values[cat[:, i]] for i, t in enumerate(model.embeddings)]
    expected = sum(np.sum(x0[i] * x0[j]) for i in range(2) for j in range(2))
    model.cin_head_w.values[:] = 1.0
    model.cin_head_b.values[:] = 0.0
    logit, _ = model.forward(cat, np.zeros((1, 0)))
    assert logit.values[0, 0] == pytest.approx(expected, abs=1e-10)


def test_cin_matches_naive_triple_loop():
    model = Model(ModelSpec(wide="cin", cin_maps=(3, 2), embedding_dim=2), DIMS, seed=5)
    rng = np.random.default_rng(13)
    for p in model.parameters():
        p.values[:] = rng.normal(scale=0.4, size=p.values.shape)
    cat, num = toy_batch(batch=2, seed=3)
    fields = fm_fields_values(model, cat, num)  # CIN uses the same field vectors
    m = len(fields)
    pooled_all = []
    prev = fields
    for w, h in zip(model.cin_w, model.spec.cin_maps):
        maps = []
        for hh in range(h):
            acc = np.zeros_like(fields[0])
            for i in range(len(prev)):
                for j in range(m):
                    acc += w.values[hh, i * m + j] * (prev[i] * fields[j])
            maps.append(acc)
        pooled_all.append(np.stack([mp.sum(axis=1) for mp in maps], axis=1))
        prev = maps
    vec = np.concatenate(pooled_all, axis=1)
    expected = vec @ model.cin_head_w.values + model.cin_head_b.values
    logit, got_vec = model.forward(cat, num)
    np.testing.assert_allclose(got_vec.values, vec, atol=1e-8)
    np.testing.assert_allclose(logit.values, expected, atol=1e-8)


def test_mlp_zero_weights_gives_zero_logit_and_hidden():
    model = Model(ModelSpec.dnn((8, 4), embedding_dim=3), DIMS, seed=2)
    for p in model.parameters():
        if p.name.startswith("mlp"):
            p.values[:] = 0.0
    cat, num = toy_batch()
    logit, hint = model.forward(cat, num)
    np.testing.assert_array_equal(logit.values, np.zeros((3, 1)))
    np.testing.assert_array_equal(hint.values, np.zeros((3, 4)))


def test_mlp_hand_computed_single_layer():
    dims = FieldDims((2,), 0)
    model = Model(ModelSpec.dnn((2,), embedding_dim=2), dims, seed=0)
    model.embeddings[0].values[1] = [1.0, 2.0]
    model.mlp[0][0].values[:] = np.eye(2)
    model.mlp[0][1].values[:] = [[0.5, -10.0]]
    model.mlp_head_w.values[:] = [[1.0], [1.0]]
    model.mlp_head_b.values[:] = 0.25
    logit, hint = model.forward(np.array([[1]]), np.zeros((1, 0)))
    np.testing.assert_allclose(hint.values, [[1.5, 0.0]])  # relu clips the -8
    assert logit.values[0, 0] == pytest.approx(1.75)


def test_mlp_gradients_match_finite_differences():
    model = Model(ModelSpec.dnn((6, 4), embedding_dim=3), DIMS, seed=4)
    cat, num = toy_batch(batch=2, seed=1)

    def loss():
        logit, _ = model.forward(cat, num)
        return T.reduce_sum(logit)

    check_grads(loss, model.parameters(), tol=1e-4)


def part_of(model, **change):
    """A model with ``change`` applied to the spec, holding the model's
    parameters of the same names."""
    return Model(replace(model.spec, **change), DIMS, tensors=model.state())


def test_model_logit_additivity():
    for preset in ["wide_deep", "deepfm", "dcn", "xdeepfm"]:
        spec = spec_from_preset(preset, embedding_dim=3, hidden=(6, 4),
                                cross_layers=2, cin_maps=(3,))
        model = Model(spec, DIMS, seed=6)
        rng = np.random.default_rng(1)
        for p in model.parameters():
            p.values[:] = rng.normal(scale=0.3, size=p.values.shape)
        cat, num = toy_batch(batch=4, seed=2)
        full, _ = model.forward(cat, num)
        wide, _ = part_of(model, deep=()).forward(cat, num)
        deep, _ = part_of(model, wide="none").forward(cat, num)
        np.testing.assert_array_equal(full.values, wide.values + deep.values)


def test_fm_only_equals_fm_logit():
    model = Model(ModelSpec.fm(3), DIMS, seed=8)
    cat, num = toy_batch()
    full, pair = model.forward(cat, num)
    linear = model._linear_logit(cat, num)
    np.testing.assert_array_equal(full.values,
                                  linear.values + pair.values.sum(axis=1, keepdims=True))


def test_hint_selection():
    deep = Model(ModelSpec.deepfm((8, 5), embedding_dim=3), DIMS, seed=1)
    cat, num = toy_batch()
    _, hint = deep.forward(cat, num)
    assert hint.shape == (3, 5)
    assert deep.hint_dim == 5
    fm = Model(ModelSpec.fm(3), DIMS, seed=1)
    _, hint = fm.forward(cat, num)
    assert hint.shape == (3, 3)
    assert fm.hint_dim == 3
    no_numeric = FieldDims(vocab_sizes=DIMS.vocab_sizes)
    for dims in (DIMS, no_numeric):
        for wide in WIDE_KINDS:
            for deep in [(8, 5)] + ([] if wide == "none" else [()]):
                model = Model(ModelSpec(wide=wide, deep=deep, embedding_dim=3, cross_layers=2,
                                        cin_maps=(3, 2)), dims, seed=1)
                _, hint = model.forward(cat, num[:, :dims.n_numeric])
                assert hint.shape == (3, model.hint_dim), (dims, wide, deep)
    # DCN's hint is its cross output: the categorical fields times d
    dcn = Model(ModelSpec.dcn(2, hidden=(), embedding_dim=3), no_numeric, seed=1)
    assert dcn.hint_dim == 3 * 3


def test_inference_values_equal_the_eval_forward_bitwise():
    cat, num = toy_batch(batch=7, seed=4)
    for name in PRESETS:
        model = Model(spec_from_preset(name, embedding_dim=3, hidden=(6, 4), dropout=0.3,
                                       cin_maps=(3, 2)), DIMS, seed=2)
        logit, hint = model.forward(cat, num, training=False)
        assert logit.requires_grad
        z = model.logit_values(cat, num)
        z2, h2 = model.hint_values(cat, num)
        assert z.tobytes() == logit.values.tobytes(), name
        assert z2.tobytes() == logit.values.tobytes(), name
        assert h2.tobytes() == hint.values.tobytes(), name


def _criteo_graph(spec):
    """The loss graph of ``spec`` on a batch of 8 rows of 26 categorical
    fields and 13 numerics."""
    dims = FieldDims((30,) * 26, 13)
    rng = np.random.default_rng(0)
    cat = rng.integers(0, 30, size=(8, 26))
    num = rng.normal(size=(8, 13))
    y = (rng.random((8, 1)) < 0.5).astype(float)
    model = Model(spec, dims, seed=1)
    loss = T.bce_with_logits(model.forward(cat, num)[0], y)
    return T.ComputationRecord.trace(loss).nodes


def test_dnn_and_dcn_gather_their_input_in_one_node():
    # 26 fields give 26 tables but one field_row node; a per-field chain
    # would add 26 rows nodes and a concat per part that reads the row
    # DNN: 32 parameters; field_row, 2 x (linear, relu), head, loss.
    # DCN: 40 parameters; field_row, its no-op reshape, 3 cross layers,
    # cross head, 2 x (linear, relu), MLP head, add, loss.
    for spec, nodes in [(ModelSpec.dnn((16, 8), 4), 39), (ModelSpec.dcn(3, (16, 8), 4), 53)]:
        record = _criteo_graph(spec)
        assert len(record) == nodes, spec
        assert sum(t._op == "field_row" for t in record) == 1, spec


def test_fm_family_gathers_once_and_fuses_its_chains():
    # 26 tables and 13 numeric projections, but one field_row node that
    # the FM or CIN part and the MLP both read. Per-field rows and the FM,
    # linear-logit and CIN chains gave FM 281 nodes, DeepFM 294, xDeepFM 144.
    # FM: 67 parameters; field_row, linear_sum, fm_pair, reduce_sum, add, loss.
    # DeepFM: 73 parameters; FM's 5 nodes, 2 x (linear, relu), MLP head, add, loss.
    # xDeepFM: 49 parameters; field_row, cin_maps, 2 x (cin_layer, reshape,
    # reduce_sum), concat, CIN head, 2 x (linear, relu), MLP head, add, loss.
    for spec, nodes in [(ModelSpec.fm(4), 73), (ModelSpec.deepfm((16, 8), 4), 85),
                        (ModelSpec.xdeepfm((4, 4), (16, 8), 4), 66)]:
        record = _criteo_graph(spec)
        assert len(record) == nodes, spec
        ops = [t._op for t in record]
        assert ops.count("field_row") == 1 and "rows" not in ops, spec


@pytest.mark.parametrize("spec", [ModelSpec.deepfm((8,), 3), ModelSpec.xdeepfm((2,), (8,), 3),
                                  ModelSpec.fm(3)], ids=["deepfm", "xdeepfm", "fm"])
def test_field_row_takes_the_fm_and_cin_row_adjoint_one_field_at_a_time(monkeypatch, spec):
    # fm_pair and cin_maps hand the row their adjoint unbuilt; in a training
    # step field_row asks it for each table's columns and never builds it whole
    asked = []
    columns = T._RowAdjoint.columns

    def record(self, start, stop):
        asked.append((start, stop))
        return columns(self, start, stop)

    def refuse(self, like):
        raise AssertionError("the row adjoint was built whole")

    monkeypatch.setattr(T._RowAdjoint, "columns", record)
    monkeypatch.setattr(T._RowAdjoint, "dense", refuse)
    cat, num = toy_batch(batch=6, seed=4)
    model = Model(spec, DIMS, seed=3)
    before = model.state()
    train_teacher(model, EncodedDataset(cat, num, np.array([0, 1, 1, 0, 1, 0])),
                  TrainHyper(lr=0.01, batch_size=6, max_epochs=1, patience=None), seed=1)
    d = spec.embedding_dim
    assert asked == [(i * d, (i + 1) * d) for i in range(len(DIMS.vocab_sizes))]
    assert all(not np.array_equal(before[f"embed.{i}"], t.values)
               for i, t in enumerate(model.embeddings))


def test_a_row_gets_its_chunk_logit_in_any_batch_of_a_multiple_of_four_rows():
    # Logits inferred once over a whole 8192-row split can stand for those of
    # the training batches, or of predict_dataset's blocks, only if a row's
    # logit does not depend on its batch.
    # BLAS runs the last (B mod 4) rows of a product through another kernel
    # path, so only batches of a multiple of 4 rows are pinned; the tail rows
    # of other batches may differ in the last bits.
    dims = FieldDims((50, 40, 30, 20, 10, 5), 3)
    rng = np.random.default_rng(8)
    chunk = 8192
    cat = np.stack([rng.integers(0, v, size=chunk) for v in dims.vocab_sizes], axis=1)
    num = rng.normal(size=(chunk, dims.n_numeric))
    for name in PRESETS:
        model = Model(spec_from_preset(name, embedding_dim=4, hidden=(16, 8), cin_maps=(3, 2)),
                      dims, seed=2)
        for p in model.parameters():  # the LR and FM linear parts start at zero
            p.values += rng.normal(scale=0.1, size=p.shape)
        whole = model.logit_values(cat, num)
        for size in (4, 8, 252, 2000):
            for _ in range(3):
                rows = rng.choice(chunk, size=size, replace=False)
                batch = model.logit_values(cat[rows], num[rows])
                assert batch.tobytes() == whole[rows].tobytes(), (name, size)


def _preset_split(n, seed=8):
    dims = FieldDims((50, 40, 30, 20, 10, 5), 3)
    rng = np.random.default_rng(seed)
    cat = np.stack([rng.integers(0, v, size=n) for v in dims.vocab_sizes], axis=1)
    return dims, EncodedDataset(cat, rng.normal(size=(n, dims.n_numeric)), np.zeros(n))


@pytest.mark.parametrize("name", PRESETS)
def test_predict_dataset_is_one_predict_proba_over_the_split(name):
    dims, split = _preset_split(10001)
    rng = np.random.default_rng(9)
    model = Model(spec_from_preset(name, embedding_dim=4, hidden=(16, 8), cin_maps=(3, 2)),
                  dims, seed=2)
    for p in model.parameters():  # the LR and FM linear parts start at zero
        p.values += rng.normal(scale=0.1, size=p.shape)
    for n in (1, 3, 2047, 2048, 2049, 4095, 4097, 8193, 10001):
        part = split.subset(np.arange(n))
        got = predict_dataset(model, part)
        assert got.tobytes() == model.predict_proba(part.cat, part.num).tobytes(), n


def test_predict_dataset_scores_blocks_of_at_least_predict_batch_rows(monkeypatch):
    assert PREDICT_BATCH == 2048
    dims, split = _preset_split(3 * PREDICT_BATCH + 5)
    model = Model(ModelSpec.lr(), dims, seed=0)
    sizes = []
    score = Model.predict_proba

    def record(self, cat, num):
        sizes.append(len(cat))
        return score(self, cat, num)

    monkeypatch.setattr(Model, "predict_proba", record)
    for n, blocks in [(1, [1]), (2047, [2047]), (2048, [2048]), (2049, [2049]),
                      (4095, [4095]), (4096, [2048, 2048]), (4097, [2048, 2049]),
                      (3 * 2048 + 5, [2048, 2048, 2053])]:
        sizes.clear()
        assert len(predict_dataset(model, split.subset(np.arange(n)))) == n
        assert sizes == blocks, n


def test_predict_dataset_of_no_rows_is_empty():
    dims, split = _preset_split(0)
    for name in PRESETS:
        model = Model(spec_from_preset(name, embedding_dim=4, hidden=(8,), cin_maps=(2,)),
                      dims, seed=1)
        out = predict_dataset(model, split)
        assert out.dtype == np.float64 and out.shape == (0,), name


def test_predict_sigmoid_mapping():
    model = Model(ModelSpec.lr(), DIMS, seed=0)
    cat, num = toy_batch()
    p = model.predict_proba(cat, num)
    np.testing.assert_array_equal(p, np.full(3, 0.5))
    model.linear_bias.values[0, 0] = np.log(3.0)
    assert model.predict_proba(cat, num)[0] == pytest.approx(0.75, abs=1e-12)
    model.linear_bias.values[0, 0] = 40.0
    assert model.predict_proba(cat, num)[0] == pytest.approx(1.0, abs=1e-12)


def test_state_roundtrip_and_mismatch():
    model = Model(ModelSpec.deepfm((4,), embedding_dim=2), DIMS, seed=3)
    state = model.state()
    arrays = dict(state)
    clone = Model(ModelSpec.deepfm((4,), embedding_dim=2), DIMS, seed=99, tensors=state)
    assert state == {}  # the clone took every array out, without a copy
    assert all(p.values is arrays[p.name] for p in clone.parameters())
    cat, num = toy_batch()
    np.testing.assert_array_equal(clone.logit_values(cat, num), model.logit_values(cat, num))
    with pytest.raises(ValueError, match="lacks parameters"):
        Model(ModelSpec.lr(), DIMS, seed=0, tensors=model.state())
    with pytest.raises(ValueError, match="shape mismatch"):
        Model(ModelSpec.deepfm((4,), embedding_dim=3), DIMS, seed=0, tensors=model.state())


def test_dropout_only_in_training_mode():
    model = Model(ModelSpec.dnn((16,), embedding_dim=3, dropout=0.5), DIMS, seed=2)
    cat, num = toy_batch()
    a = model.logit_values(cat, num)
    b = model.logit_values(cat, num)
    np.testing.assert_array_equal(a, b)
    rng = np.random.default_rng(0)
    logit, _ = model.forward(cat, num, training=True, rng=rng)
    assert not np.array_equal(logit.values, a)

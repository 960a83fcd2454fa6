import numpy as np
import pytest

from ctrkd import distill as KD
from ctrkd import experiment
from ctrkd import tensor as T
from ctrkd.data import EncodedDataset
from ctrkd.distill import DistillConfig
from ctrkd.metrics import auc
from ctrkd.models import FieldDims, Model, ModelSpec
from ctrkd.synth import synthetic_dataset
from ctrkd.tensor import parameter
from ctrkd.train import (KD_LOSS_MIN, VAL_AUC_MAX, Adam, EarlyStopMonitor,
                         TrainHyper, TrainingDiverged, TrainRecord, EpochStats,
                         evaluate_model, predict_dataset, train_student_cotrain,
                         train_student_pretrain, train_teacher)


# -- Adam ------------------------------------------------------------------

def test_adam_zero_gradient_keeps_params():
    w = parameter(np.array([1.0, -2.0]), "w")
    opt = Adam([w])
    w.grad = np.zeros(2)
    opt.step()
    np.testing.assert_array_equal(w.values, [1.0, -2.0])


def test_adam_first_step_is_signed_lr():
    w = parameter(np.array([1.0, 1.0]), "w")
    opt = Adam([w], lr=0.01)
    w.grad = np.array([0.3, -7.0])
    opt.step()
    np.testing.assert_allclose(w.values, [1.0 - 0.01, 1.0 + 0.01], atol=1e-9)


def test_adam_missing_grad_raises():
    w = parameter(np.zeros(2), "w")
    with pytest.raises(ValueError):
        Adam([w]).step()


def test_adam_clears_grads_after_step():
    w = parameter(np.zeros(2), "w")
    opt = Adam([w])
    w.grad = np.ones(2)
    opt.step()
    assert w.grad is None


def scalar_adam_oracle(w0, grads, lr=1e-3, b1=0.9, b2=0.999, eps=1e-8):
    """Independent scalar re-implementation of the update rule."""
    w, m, v = w0, 0.0, 0.0
    for t, g in enumerate(grads, start=1):
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        mhat = m / (1 - b1 ** t)
        vhat = v / (1 - b2 ** t)
        w -= lr * mhat / (np.sqrt(vhat) + eps)
    return w


def test_adam_three_steps_on_quadratic_matches_scalar_oracle():
    w = parameter(np.array([1.0]), "w")
    opt = Adam([w], lr=1e-3)
    grads = []
    for _ in range(3):
        loss = T.reduce_sum(T.square(w))
        loss.backward()
        grads.append(float(w.grad[0]))
        opt.step()
    expected = scalar_adam_oracle(1.0, grads)
    assert w.values[0] == pytest.approx(expected, abs=1e-12)


def _dense_adam_replay(p, m, v, g, t, lr, b1=0.9, b2=0.999, eps=1e-8):
    """The dense Adam statements, verbatim, on raw arrays."""
    c1 = 1.0 - b1 ** t
    c2 = 1.0 - b2 ** t
    m *= b1
    m += (1.0 - b1) * g
    v *= b2
    v += (1.0 - b2) * np.square(g)
    p -= lr * (m / c1) / (np.sqrt(v / c2) + eps)


@pytest.mark.parametrize("shape,init", [((60, 1), "zeros"), ((60, 5), "normal")])
def test_adam_row_sparse_step_matches_dense_replay(shape, init):
    rng = np.random.default_rng(9)
    start = np.zeros(shape) if init == "zeros" else rng.normal(size=shape)
    table = parameter(start.copy(), "emb")
    # a second, dense parameter shares the scratch buffers with the table
    bias = parameter(rng.normal(size=(3,)), "bias")
    opt = Adam([table, bias], lr=0.01)
    ref = [start.copy(), np.zeros(shape), np.zeros(shape)]
    ref_bias = [bias.values.copy(), np.zeros(3), np.zeros(3)]
    for t in range(1, 26):
        # rows 0-9 are touched most steps; rows 40-59 only every 8th step
        idx = rng.integers(0, 10, size=12)
        if t % 8 == 0:
            idx = np.concatenate([idx, rng.integers(40, 60, size=3)])
        weights = rng.normal(size=(idx.size, shape[1]))
        loss = T.add(T.reduce_sum(T.mul(T.rows(table, idx), T.Tensor(weights))),
                     T.reduce_sum(T.square(bias)))
        bias_grad = 2.0 * bias.values
        loss.backward()
        assert table.row_grad is not None
        opt.step()
        g = np.zeros(shape)
        np.add.at(g, idx, weights)
        _dense_adam_replay(*ref, np.zeros(shape) + g, t, 0.01)
        _dense_adam_replay(*ref_bias, np.zeros(3) + bias_grad, t, 0.01)
        for got, want in zip([table.values, opt.m[0], opt.v[0]], ref):
            assert got.tobytes() == want.tobytes()
        for got, want in zip([bias.values, opt.m[1], opt.v[1]], ref_bias):
            assert got.tobytes() == want.tobytes()
    assert np.all(table.values[10:40] == start[10:40])  # never touched, m stays 0


def test_setting_grad_clears_the_row_sparse_form():
    table = parameter(np.zeros((10, 2)), "emb")
    T.reduce_sum(T.rows(table, np.array([1, 4]))).backward()
    assert table.row_grad is not None
    table.grad = np.ones((10, 2))
    assert table.row_grad is None
    Adam([table], lr=0.01).step()
    np.testing.assert_allclose(table.values, -0.01, rtol=1e-6)  # every row moved
    assert table.grad is None and table.row_grad is None


@pytest.mark.parametrize("field,value", [
    ("lr", -0.01), ("lr", 0.0), ("lr", float("nan")), ("lr", float("inf")),
    ("batch_size", 0), ("max_epochs", -1), ("patience", 0),
    ("l2_embedding", -1e-4), ("l2_embedding", float("nan")), ("kd_monitor_rows", 0)])
def test_train_hyper_refuses_values_that_train_the_wrong_thing(field, value):
    with pytest.raises(ValueError, match=f"^{field} must be"):
        TrainHyper(**{field: value})


def test_train_hyper_accepts_its_edges():
    TrainHyper(max_epochs=0, patience=None, l2_embedding=0.0, batch_size=1,
               kd_monitor_rows=1)


# -- early stopping ----------------------------------------------------------

def test_monitor_never_stops_on_improving_sequence():
    mon = EarlyStopMonitor(VAL_AUC_MAX, patience=3)
    w = parameter(np.zeros(1), "w")
    for epoch, v in enumerate([0.5, 0.6, 0.7, 0.8, 0.9], start=1):
        assert not mon.update(v, [w], epoch)


def test_monitor_stops_after_three_flat_epochs():
    mon = EarlyStopMonitor(VAL_AUC_MAX, patience=3)
    w = parameter(np.zeros(1), "w")
    outcomes = [mon.update(v, [w], e) for e, v in enumerate([0.80, 0.79, 0.79, 0.79], 1)]
    assert outcomes == [False, False, False, True]
    assert mon.best_epoch == 1


def test_monitor_min_mode_resets_on_improvement():
    mon = EarlyStopMonitor(KD_LOSS_MIN, patience=3)
    w = parameter(np.zeros(1), "w")
    values = [0.5, 0.4, 0.41, 0.39, 0.42, 0.43, 0.44]
    outcomes = [mon.update(v, [w], e) for e, v in enumerate(values, 1)]
    assert outcomes == [False, False, False, False, False, False, True]
    assert mon.best_value == 0.39 and mon.best_epoch == 4


def test_monitor_restores_best_snapshot():
    mon = EarlyStopMonitor(VAL_AUC_MAX, patience=2)
    w = parameter(np.array([1.0]), "w")
    mon.update(0.9, [w], 1)
    w.values[0] = 5.0
    mon.update(0.8, [w], 2)
    w.values[0] = 6.0
    assert mon.update(0.7, [w], 3)
    mon.restore([w])
    assert w.values[0] == 1.0


def test_monitor_rejects_unknown_mode():
    with pytest.raises(ValueError):
        EarlyStopMonitor("loss_goes_brr")


# -- training loops ----------------------------------------------------------

def separable_dataset(n=400):
    # one categorical field fully determines the label
    rng = np.random.default_rng(0)
    cat = rng.integers(0, 2, size=(n, 1)).astype(np.int32)
    labels = cat[:, 0].astype(np.float64)
    return EncodedDataset(cat, np.zeros((n, 0)), labels)


def small_synth(n=2000, seed=0):
    ds, _ = synthetic_dataset(n, seed=seed)
    return ds, FieldDims(tuple([50] * 6), 2)


def test_lr_reaches_auc_one_on_separable_data():
    ds = separable_dataset()
    model = Model(ModelSpec.lr(), FieldDims((2,), 0), seed=0)
    hyper = TrainHyper(lr=0.05, batch_size=100, max_epochs=50, patience=None)
    train_teacher(model, ds, hyper, seed=1)
    scores = predict_dataset(model, ds)
    assert auc(scores, ds.labels) == 1.0


def test_zero_epoch_budget_returns_untouched_model():
    ds, dims = small_synth(200)
    model = Model(ModelSpec.lr(), dims, seed=3)
    before = model.state()
    # with validation data the early-stop monitor restores a snapshot it never took
    for val_data in (None, ds):
        record = train_teacher(model, ds, TrainHyper(max_epochs=0), seed=0, val_data=val_data)
        assert len(record) == 0 and record.best_epoch == 0
        for name, arr in model.state().items():
            np.testing.assert_array_equal(arr, before[name])


def test_teacher_training_deterministic():
    ds, dims = small_synth(1500)
    train, val = ds.subset(range(1200)), ds.subset(range(1200, 1500))
    hyper = TrainHyper(lr=3e-3, batch_size=300, max_epochs=4, patience=None)

    def run():
        model = Model(ModelSpec.deepfm((8,), embedding_dim=4, dropout=0.2), dims, seed=5)
        record = train_teacher(model, train, hyper, seed=5, val_data=val)
        return model.state(), [(e.epoch, e.loss, e.monitor, e.stopped) for e in record.epochs]

    s1, r1 = run()
    s2, r2 = run()
    assert r1 == r2  # identical traces apart from wall time
    for name in s1:
        np.testing.assert_array_equal(s1[name], s2[name])


def test_best_epoch_is_the_restored_epoch():
    ds, dims = small_synth(1500)
    train, val = ds.subset(range(1200)), ds.subset(range(1200, 1500))
    model = Model(ModelSpec.fm(4), dims, seed=5)
    record = train_teacher(model, train, TrainHyper(lr=3e-2, batch_size=300, max_epochs=10,
                                                    patience=1), seed=5, val_data=val)
    monitors = [e.monitor for e in record.epochs]
    assert record.epochs[-1].stopped and len(record) < 10
    assert record.best_epoch == 1 + int(np.argmax(monitors)) < len(record)
    # the parameters the model ends with are that epoch's
    assert auc(predict_dataset(model, val), val.labels) == max(monitors)


def test_teacher_divergence_detected():
    ds, dims = small_synth(500)
    model = Model(ModelSpec.dnn((8,), embedding_dim=4), dims, seed=0)
    model.mlp_head_b.values[:] = np.nan
    with pytest.raises(TrainingDiverged):
        train_teacher(model, ds, TrainHyper(max_epochs=1), seed=0)


def test_l2_touches_embeddings_only():
    ds, dims = small_synth(600)
    lam = 1e-2

    def deltas(l2):
        model = Model(ModelSpec.deepfm((8,), embedding_dim=4), dims, seed=9)
        before = model.state()
        train_teacher(model, ds, TrainHyper(lr=1e-3, batch_size=600, max_epochs=1,
                                            patience=None, l2_embedding=l2), seed=9)
        after = model.state()
        return before, after

    b0, a0 = deltas(0.0)
    b1, a1 = deltas(lam)
    emb_names = {f"embed.{i}" for i in range(6)} | {f"numproj.{j}" for j in range(2)}
    for name in b0:
        d0 = a0[name] - b0[name]
        d1 = a1[name] - b1[name]
        if name in emb_names:
            assert not np.array_equal(d0, d1), f"{name} should feel the decay"
        else:
            np.testing.assert_array_equal(d0, d1)


def test_train_record_csv(tmp_path):
    # the record CSV that experiment._save_trained writes beside a checkpoint
    record = TrainRecord()
    record.append(EpochStats(1, 0.6, 0.7, 1.25, False))
    record.append(EpochStats(2, 0.5, float("nan"), 1.5, True))
    model = Model(ModelSpec.dnn((4,), embedding_dim=2), FieldDims((5, 5), 1), seed=0)
    meta = experiment._save_trained(str(tmp_path), "m", "teacher/dnn", model, 3, record, "f")
    assert meta["best_epoch"] == 2 and meta["seconds"] == 2.75
    written = (tmp_path / "m.record.csv").read_bytes().decode("utf-8")
    assert written == ("epoch,loss,monitor_value,seconds,stopped\n"
                       "1,0.6,0.7,1.25,false\n2,0.5,nan,1.5,true\n")


# -- distillation loops -------------------------------------------------------

def trace(record):
    return [(e.epoch, e.loss, e.monitor, e.stopped) for e in record.epochs]


def test_pretrain_beta_zero_matches_plain_training_bitwise():
    ds, dims = small_synth(1600)
    val, _ = small_synth(400, seed=1)
    teacher = Model(ModelSpec.fm(4), dims, seed=1)
    # val_auc_max runs stop early, so the plain and KD monitors must restore alike
    cases = [("soft_label", KD_LOSS_MIN,
              TrainHyper(lr=3e-3, batch_size=400, max_epochs=3, patience=None)),
             ("soft_label", VAL_AUC_MAX,
              TrainHyper(lr=3e-2, batch_size=400, max_epochs=8, patience=1)),
             ("hint", VAL_AUC_MAX,
              TrainHyper(lr=3e-2, batch_size=400, max_epochs=8, patience=1))]
    for method, stop_mode, hyper in cases:
        val_data = val if stop_mode == VAL_AUC_MAX else None
        plain = Model(ModelSpec.dnn((8,), embedding_dim=4), dims, seed=2)
        plain_record = train_teacher(plain, ds, hyper, seed=7, val_data=val_data)

        via_kd = Model(ModelSpec.dnn((8,), embedding_dim=4), dims, seed=2)
        dcfg = DistillConfig(method=method, tau=1.0, beta=0.0, gamma=1.0)
        res = train_student_pretrain(via_kd, [teacher], dcfg, ds, hyper, seed=7,
                                     val_data=val_data, stop_mode=stop_mode)

        ps, ks = plain.state(), via_kd.state()
        for name in ps:
            np.testing.assert_array_equal(ps[name], ks[name])
        if val_data is not None:
            assert plain_record.epochs[-1].stopped
            assert trace(res.record) == trace(plain_record)
            assert res.record.best_epoch == plain_record.best_epoch


def test_hint_beta_zero_refuses_kd_loss_stop_before_training():
    # beta = 0 trains no hint projectors, so there is no KD loss to monitor
    ds, dims = small_synth(400)
    teacher = Model(ModelSpec.fm(4), dims, seed=1)
    student = Model(ModelSpec.dnn((8,), embedding_dim=4), dims, seed=2)
    before = student.state()
    dcfg = DistillConfig(method="hint", beta=0.0, gamma=1.0)
    for patience in (3, None):
        hyper = TrainHyper(batch_size=200, max_epochs=2, patience=patience)
        with pytest.raises(ValueError, match="val_auc_max"):
            train_student_pretrain(student, [teacher], dcfg, ds, hyper, seed=7)
    for name, arr in student.state().items():
        np.testing.assert_array_equal(arr, before[name])


def test_pretrain_rejects_schema_mismatch_and_empty_teachers():
    ds, dims = small_synth(300)
    student = Model(ModelSpec.dnn((4,), embedding_dim=2), dims, seed=0)
    other = Model(ModelSpec.fm(2), FieldDims((3,), 0), seed=0)
    with pytest.raises(ValueError):
        train_student_pretrain(student, [other], DistillConfig(), ds, TrainHyper(), 0)
    with pytest.raises(ValueError):
        train_student_pretrain(student, [], DistillConfig(), ds, TrainHyper(), 0)
    teacher = Model(ModelSpec.lr(), dims, seed=0)
    with pytest.raises(ValueError, match="unknown stop mode"):
        train_student_pretrain(student, [teacher], DistillConfig(), ds, TrainHyper(), 0,
                               stop_mode="val_loss")


def test_pretrain_kd_mode_reads_no_validation_labels():
    ds, dims = small_synth(1200)
    train, val = ds.subset(range(1000)), ds.subset(range(1000, 1200))
    teacher = Model(ModelSpec.fm(4), dims, seed=1)
    train_teacher(teacher, train, TrainHyper(max_epochs=2, patience=None), seed=1)
    student = Model(ModelSpec.dnn((8,), embedding_dim=4), dims, seed=3)
    dcfg = DistillConfig(tau=2.0, beta=0.5, gamma=0.5)
    assert val.label_reads == 0
    train_student_pretrain(student, [teacher], dcfg, train,
                           TrainHyper(max_epochs=3), seed=3, val_data=val,
                           stop_mode=KD_LOSS_MIN)
    assert val.label_reads == 0  # never consumed in kd_loss_min mode
    # merged-training path runs fine without any validation set at all
    merged = EncodedDataset.concatenate([train, val])
    student2 = Model(ModelSpec.dnn((8,), embedding_dim=4), dims, seed=3)
    res = train_student_pretrain(student2, [teacher], dcfg, merged,
                                 TrainHyper(max_epochs=2), seed=3)
    assert len(res.record) == 2


def test_pretrain_val_auc_mode_requires_and_reads_val():
    ds, dims = small_synth(900)
    train, val = ds.subset(range(700)), ds.subset(range(700, 900))
    teacher = Model(ModelSpec.fm(4), dims, seed=1)
    student = Model(ModelSpec.dnn((8,), embedding_dim=4), dims, seed=3)
    with pytest.raises(ValueError):
        train_student_pretrain(student, [teacher], DistillConfig(), train,
                               TrainHyper(max_epochs=1), seed=0, stop_mode=VAL_AUC_MAX)
    train_student_pretrain(student, [teacher], DistillConfig(), train,
                           TrainHyper(max_epochs=1), seed=0, val_data=val,
                           stop_mode=VAL_AUC_MAX)
    assert val.label_reads > 0


def test_single_teacher_gating_equals_no_gating_trajectory():
    ds, dims = small_synth(1500)
    teacher = Model(ModelSpec.fm(4), dims, seed=4)
    train_teacher(teacher, ds, TrainHyper(max_epochs=2, patience=None), seed=4)
    hyper = TrainHyper(lr=3e-3, batch_size=500, max_epochs=3, patience=None)

    val, _ = small_synth(400, seed=1)

    def distill(gating, stop_mode):
        student = Model(ModelSpec.dnn((8,), embedding_dim=4), dims, seed=6)
        dcfg = DistillConfig(tau=2.0, beta=0.6, gamma=0.4, gating=gating)
        res = train_student_pretrain(student, [teacher], dcfg, ds, hyper, seed=6,
                                     val_data=val, stop_mode=stop_mode)
        return student.state(), res

    for stop_mode in (KD_LOSS_MIN, VAL_AUC_MAX):
        gated, res_g = distill(True, stop_mode)
        plain, res_p = distill(False, stop_mode)
        for name in gated:
            np.testing.assert_array_equal(gated[name], plain[name])
        assert trace(res_g.record) == trace(res_p.record)
        # the single-teacher gate stays at its neutral initialization
        assert [p.name for p in res_g.parts] == ["gate.w.0", "gate.b.0"]
        np.testing.assert_array_equal(res_g.parts[0].values, [[1.0]])
        np.testing.assert_array_equal(res_g.parts[1].values, [[0.0]])
        assert res_p.parts == []


def test_hint_distillation_trains_projector():
    ds, dims = small_synth(1000)
    teacher = Model(ModelSpec.deepfm((12, 6), embedding_dim=4), dims, seed=2)
    train_teacher(teacher, ds, TrainHyper(max_epochs=1, patience=None), seed=2)
    dcfg = DistillConfig(method="hint", beta=1e-3, gamma=1.0)

    def distill():
        student = Model(ModelSpec.dnn((8, 5), embedding_dim=4), dims, seed=3)
        res = train_student_pretrain(student, [teacher], dcfg, ds,
                                     TrainHyper(max_epochs=2, patience=None), seed=3)
        return student.state(), res

    state, res = distill()
    [proj] = res.parts
    assert proj.name == "hintproj.0.w"
    assert proj.shape == (5, 6)  # student dim x teacher dim
    assert not np.array_equal(proj.values, np.zeros((5, 6)))
    # a rerun is bitwise identical, projector and trace included
    state2, res2 = distill()
    for name in state:
        np.testing.assert_array_equal(state[name], state2[name])
    np.testing.assert_array_equal(proj.values, res2.parts[0].values)
    assert trace(res.record) == trace(res2.record)


def test_hint_distillation_from_heterogeneous_teachers():
    # one projector per teacher; per-teacher hint losses averaged uniformly
    ds, dims = small_synth(900)
    hyper = TrainHyper(max_epochs=1, patience=None)
    t1 = Model(ModelSpec.deepfm((12, 6), embedding_dim=4), dims, seed=1)
    t2 = Model(ModelSpec.fm(4), dims, seed=2)  # hint dim = embedding dim
    for i, t in enumerate((t1, t2)):
        train_teacher(t, ds, hyper, seed=i)
    student = Model(ModelSpec.dnn((8, 5), embedding_dim=4), dims, seed=3)
    res = train_student_pretrain(student, [t1, t2],
                                 DistillConfig(method="hint", beta=1e-3, gamma=1.0),
                                 ds, TrainHyper(max_epochs=2, patience=None), seed=3)
    assert [(p.name, p.shape) for p in res.parts] == [("hintproj.0.w", (5, 6)),
                                                      ("hintproj.1.w", (5, 4))]


def test_cotrain_teacher_bitwise_equals_standalone():
    ds, dims = small_synth(2000)
    hyper = TrainHyper(lr=3e-3, batch_size=500, max_epochs=3, patience=None)

    standalone = Model(ModelSpec.deepfm((8,), embedding_dim=4, dropout=0.3), dims, seed=11)
    train_teacher(standalone, ds, hyper, seed=11)

    co_teacher = Model(ModelSpec.deepfm((8,), embedding_dim=4, dropout=0.3), dims, seed=11)
    student = Model(ModelSpec.dnn((8,), embedding_dim=4), dims, seed=12)
    train_student_cotrain(co_teacher, student, DistillConfig(tau=2.0, beta=0.5, gamma=0.5),
                          ds, hyper, seed=11)

    a, b = standalone.state(), co_teacher.state()
    for name in a:
        np.testing.assert_array_equal(a[name], b[name])


def test_cotrain_beta_zero_matches_both_standalone_runs():
    ds, dims = small_synth(1200)
    hyper = TrainHyper(lr=3e-3, batch_size=400, max_epochs=2, patience=None)
    co_t = Model(ModelSpec.fm(4), dims, seed=20)
    co_s = Model(ModelSpec.dnn((6,), embedding_dim=4), dims, seed=21)
    train_student_cotrain(co_t, co_s, DistillConfig(tau=1.0, beta=0.0, gamma=1.0),
                          ds, hyper, seed=20)

    solo_t = Model(ModelSpec.fm(4), dims, seed=20)
    train_teacher(solo_t, ds, hyper, seed=20)
    for name, arr in solo_t.state().items():
        np.testing.assert_array_equal(arr, co_t.state()[name])
    # dropout-free student consumes no rng, so it matches standalone too
    solo_s = Model(ModelSpec.dnn((6,), embedding_dim=4), dims, seed=21)
    train_teacher(solo_s, ds, hyper, seed=20)
    for name, arr in solo_s.state().items():
        np.testing.assert_array_equal(arr, co_s.state()[name])


def test_cotrain_refuses_a_gating_config():
    # cotrain trains no gate, so a gating config would be silently dropped
    ds, dims = small_synth(400)
    teacher = Model(ModelSpec.fm(4), dims, seed=1)
    student = Model(ModelSpec.dnn((6,), embedding_dim=4), dims, seed=2)
    before = teacher.state()
    with pytest.raises(ValueError, match="no teacher gate"):
        train_student_cotrain(teacher, student, DistillConfig(gating=True), ds,
                              TrainHyper(max_epochs=1), seed=1)
    for name, arr in before.items():
        np.testing.assert_array_equal(arr, teacher.state()[name])


def test_evaluate_model_returns_metrics():
    ds, dims = small_synth(800)
    model = Model(ModelSpec.lr(), dims, seed=0)
    a, ll = evaluate_model(model, ds)
    assert 0.0 <= a <= 1.0
    assert ll == pytest.approx(np.log(2.0), abs=1e-9)  # all-0.5 predictions

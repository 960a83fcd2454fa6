"""Acceptance suite: one test per acceptance criterion, run in file order.

The distillation-quality criteria train real models on a 100k-row synthetic
set with a known second-order ground truth; expect a few minutes of CPU
time for the whole module. Each criterion prints its own PASS line (visible
with ``pytest -s``).
"""
import time
from collections import Counter
from functools import lru_cache

import numpy as np
import pytest

from ctrkd import distill as KD
from ctrkd import persist
from ctrkd import tensor as T
from ctrkd.config import parse_config_text
from ctrkd.data import (EncodedDataset, FeatureVocabulary, RandomRatioSplit, encode_rows,
                        split_rows)
from ctrkd.distill import DistillConfig, HintProjector, TeacherGate
from ctrkd.metrics import auc
from ctrkd.models import FieldDims, Model, ModelSpec
from ctrkd.synth import SyntheticSpec, write_synthetic_file, synthetic_dataset
from ctrkd.tensor import Tensor, sigmoid_values
from ctrkd.train import (KD_LOSS_MIN, EarlyStopMonitor, TrainHyper,
                         evaluate_model, train_student_cotrain,
                         train_student_pretrain, train_teacher)

from gradcheck import max_rel_err, numeric_grad


def _pass(name):
    print(f"ACCEPTANCE PASS: {name}")


# shared setup for the KD-quality criteria (calibrated, frozen)
DIMS = FieldDims(tuple([50] * 6), 2)
HYPER = TrainHyper(lr=3e-3, batch_size=2000, max_epochs=20, patience=3,
                   kd_monitor_rows=20000)
STUDENT_SPEC = ModelSpec.dnn((32, 16), embedding_dim=8)
MIMIC = DistillConfig(method="soft_label", tau=1.0, beta=1.0, gamma=0.0)
MIMIC_GATED = DistillConfig(method="soft_label", tau=1.0, beta=1.0, gamma=0.0,
                            gating=True)
SEEDS = (1, 2, 3, 4, 5)


@lru_cache(maxsize=1)
def splits():
    ds, _ = synthetic_dataset(100_000, seed=1)
    idx = np.arange(len(ds))
    train = ds.subset(idx[:80_000])
    val = ds.subset(idx[80_000:90_000])
    test = ds.subset(idx[90_000:])
    merged = EncodedDataset.concatenate([train, val])
    return train, val, test, merged


@lru_cache(maxsize=None)
def teacher(kind: str) -> Model:
    specs = {
        "deepfm": ModelSpec.deepfm((32, 16), embedding_dim=8),
        "dcn": ModelSpec.dcn(3, (64, 32), embedding_dim=8),
        "xdeepfm": ModelSpec.xdeepfm((4,), (32, 16), embedding_dim=8),
    }
    train, val, _, _ = splits()
    model = Model(specs[kind], DIMS, seed=100)
    train_teacher(model, train, HYPER, seed=100, val_data=val)
    return model


@lru_cache(maxsize=None)
def distilled_auc(kind: str, seed: int) -> float:
    train, val, test, merged = splits()
    student = Model(STUDENT_SPEC, DIMS, seed=seed)
    train_student_pretrain(student, [teacher(kind)], MIMIC, merged, HYPER, seed=seed)
    return evaluate_model(student, test)[0]


# -- 1. gradient correctness ------------------------------------------------

FD_DIMS = FieldDims((5, 4, 6), 2)

FD_ZOO = [
    ("LR", ModelSpec.lr()),
    ("FM", ModelSpec.fm(4)),
    ("DNN 2x16", ModelSpec.dnn((16, 16), embedding_dim=4)),
    ("Wide&Deep", ModelSpec.wide_deep((16, 16), embedding_dim=4)),
    ("DeepFM", ModelSpec.deepfm((16, 16), embedding_dim=4)),
    ("DCN 2 cross layers", ModelSpec.dcn(2, (16, 16), embedding_dim=4)),
    ("xDeepFM 1 CIN layer H=4", ModelSpec.xdeepfm((4,), (16, 16), embedding_dim=4)),
]


def test_gradient_correctness_across_the_zoo():
    started = time.perf_counter()
    rng = np.random.default_rng(2024)
    cat = np.stack([rng.integers(0, v, size=2) for v in FD_DIMS.vocab_sizes], axis=1)
    num = rng.normal(size=(2, FD_DIMS.n_numeric))
    labels = np.array([[1.0], [0.0]])
    for name, spec in FD_ZOO:
        model = Model(spec, FD_DIMS, seed=7)

        def loss_tensor():
            logit, _ = model.forward(cat, num)
            return KD.bce_loss(labels, logit)

        for p in model.parameters():
            p.grad = None
        loss_tensor().backward()
        worst = 0.0
        for p in model.parameters():
            analytic = p.grad if p.grad is not None else np.zeros_like(p.values)
            numeric = numeric_grad(lambda: loss_tensor().item(), p)
            err = max_rel_err(analytic, numeric)
            worst = max(worst, err)
            assert err < 1e-4, f"{name}/{p.name}: rel err {err:.2e}"
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0, f"gradient checks took {elapsed:.1f}s"
    _pass(f"gradient correctness for all 7 zoo models ({elapsed:.1f}s)")


# -- 2. loss identities -------------------------------------------------------

def test_loss_identities():
    ln2 = float(np.log(2.0))
    for tau in (1.0, 2.0, 10.0):
        value = KD.soft_label_loss(np.zeros((1, 1)), Tensor(np.zeros((1, 1))), tau).item()
        assert abs(value - ln2) <= 1e-12

    # tau=1 reduces to plain BCE on the student logits against sigmoided
    # teacher logits, bitwise: soft_label_loss == cross_entropy(sigmoid(z_T), z_S)
    # and bce_loss is exactly cross_entropy restricted to hard labels.
    rng = np.random.default_rng(5)
    z_t, z_s = rng.normal(size=(16, 1)), Tensor(rng.normal(size=(16, 1)))
    assert (KD.soft_label_loss(z_t, z_s, 1.0).item()
            == KD.cross_entropy(sigmoid_values(z_t), z_s).item())
    y = (z_t > 0).astype(float)
    assert KD.bce_loss(y, z_s).item() == KD.cross_entropy(y, z_s).item()

    proj = HintProjector(6, 6)
    v = rng.normal(size=(4, 6))
    assert KD.hint_loss(v, Tensor(v.copy()), proj).item() == 0.0

    y = np.array([[1.0], [0.0], [1.0]])
    z = Tensor(np.array([[0.61], [-1.7], [2.93]]))
    assert (KD.student_loss(y, z, None, beta=0.0, gamma=1.0).item()
            == KD.bce_loss(y, z).item())
    _pass("loss identities (soft-label ln2, tau=1 reduction, hint zero, beta=0)")


# -- 3. gating ----------------------------------------------------------------

def test_gating_normalization_and_invariances():
    rng = np.random.default_rng(77)
    gate = TeacherGate(3)
    for w, b in zip(gate.w, gate.b):
        w.values[:] = rng.normal()
        b.values[:] = rng.normal()
    z = [rng.normal(size=(10_000, 1)) * 2.5 for _ in range(3)]
    alphas = KD.gate_weights(z, gate)
    total = sum(a.values for a in alphas)
    assert np.max(np.abs(total - 1.0)) <= 1e-12
    assert all(np.all((a.values > 0) & (a.values < 1)) for a in alphas)

    # normalization survives extreme scores too (max-subtracted softmax)
    z_big = [rng.normal(size=(10_000, 1)) * 200.0 for _ in range(3)]
    total_big = sum(a.values for a in KD.gate_weights(z_big, gate))
    assert np.max(np.abs(total_big - 1.0)) <= 1e-12

    base = [a.values.copy() for a in alphas]
    for b in gate.b:
        b.values += 57.25  # constant shift of every pre-softmax score
    shifted = KD.gate_weights(z, gate)
    for a, s in zip(base, shifted):
        assert np.max(np.abs(a - s.values)) <= 1e-12

    # single-teacher gating is the identity: bitwise-equal student trajectory
    ds, _ = synthetic_dataset(3000, seed=9)
    dims = FieldDims(tuple([50] * 6), 2)
    t_model = Model(ModelSpec.fm(4), dims, seed=3)
    train_teacher(t_model, ds, TrainHyper(max_epochs=2, patience=None), seed=3)
    hyper = TrainHyper(lr=3e-3, batch_size=500, max_epochs=3, patience=None)

    def run(gating):
        student = Model(ModelSpec.dnn((8,), embedding_dim=4), dims, seed=5)
        dcfg = DistillConfig(tau=2.0, beta=0.5, gamma=0.5, gating=gating)
        train_student_pretrain(student, [t_model], dcfg, ds, hyper, seed=5)
        return student.state()

    gated, ungated = run(True), run(False)
    for name in gated:
        np.testing.assert_array_equal(gated[name], ungated[name])
    _pass("gating (normalization 1e-12, shift invariance, single-teacher identity)")


# -- 4. unidirectional flow in co-train ---------------------------------------

def test_cotrain_teacher_bitwise_identical_every_step():
    ds, _ = synthetic_dataset(10_000, seed=4)
    dims = FieldDims(tuple([50] * 6), 2)
    hyper = TrainHyper(lr=1e-3, batch_size=500, max_epochs=3, patience=None)
    spec = ModelSpec.deepfm((16, 8), embedding_dim=4, dropout=0.2)

    def fingerprint(model):
        return tuple(arr.tobytes() for arr in (p.values for p in model.parameters()))

    solo = Model(spec, dims, seed=31)
    solo_trace = []
    train_teacher(solo, ds, hyper, seed=31,
                  on_step=lambda e, s: solo_trace.append(fingerprint(solo)))

    co_teacher = Model(spec, dims, seed=31)
    student = Model(ModelSpec.dnn((16,), embedding_dim=4, dropout=0.1), dims, seed=32)
    co_trace = []
    train_student_cotrain(co_teacher, student,
                          DistillConfig(tau=2.0, beta=0.8, gamma=0.2),
                          ds, hyper, seed=31,
                          on_step=lambda e, s: co_trace.append(fingerprint(co_teacher)))

    assert len(solo_trace) == len(co_trace) == 60  # 20 steps x 3 epochs
    for k, (a, b) in enumerate(zip(solo_trace, co_trace)):
        assert a == b, f"teacher diverged from standalone run at step {k}"
    _pass("co-train teacher bitwise-identical to standalone after every step")


# -- 5. AUC against the all-pairs oracle --------------------------------------

def test_auc_matches_all_pairs_oracle():
    rng = np.random.default_rng(123)
    for trial in range(100):
        n = int(rng.integers(2, 1001))
        labels = rng.integers(0, 2, size=n)
        if labels.min() == labels.max():
            labels[rng.integers(n)] = 1 - labels[0]
        if trial % 2 == 0:
            scores = np.round(rng.random(n), 2)  # heavy ties
        else:
            scores = rng.normal(size=n)
        pos = scores[labels == 1]
        neg = scores[labels == 0]
        cmp = pos[:, None] - neg[None, :]
        oracle = ((cmp > 0).sum() + 0.5 * (cmp == 0).sum()) / (len(pos) * len(neg))
        assert abs(auc(scores, labels) - oracle) <= 1e-9, f"trial {trial}"
    _pass("rank-based AUC equals all-pairs oracle on 100 random vectors")


# -- 6. directional distillation result ---------------------------------------

@pytest.mark.slow
def test_distilled_student_beats_plain_student():
    started = time.perf_counter()
    train, val, test, merged = splits()
    teacher("deepfm")

    plain_aucs, kd_aucs = [], []
    for seed in SEEDS:
        plain = Model(STUDENT_SPEC, DIMS, seed=seed)
        train_teacher(plain, train, HYPER, seed=seed, val_data=val)
        plain_aucs.append(evaluate_model(plain, test)[0])
        kd_aucs.append(distilled_auc("deepfm", seed))

    elapsed = time.perf_counter() - started
    wins = sum(k > p for k, p in zip(kd_aucs, plain_aucs))
    print(f"  plain mean {np.mean(plain_aucs):.4f}, KD mean {np.mean(kd_aucs):.4f}, "
          f"wins {wins}/5, {elapsed:.0f}s")
    assert np.mean(kd_aucs) >= np.mean(plain_aucs)
    assert wins >= 4, f"only {wins}/5 seeds favored distillation"
    assert elapsed < 600.0, f"directional check took {elapsed:.0f}s"
    _pass(f"KD student beats plain student ({wins}/5 wins, "
          f"+{(np.mean(kd_aucs) - np.mean(plain_aucs)) * 1000:.1f} permille AUC)")


# -- 7. ensemble distillation non-inferiority ----------------------------------

@pytest.mark.slow
def test_ensemble_distillation_at_least_best_single():
    train, val, test, merged = splits()
    kinds = ("deepfm", "dcn", "xdeepfm")
    single_means = {}
    for kind in kinds:
        single_means[kind] = float(np.mean([distilled_auc(kind, s) for s in SEEDS]))

    ensemble_aucs = []
    teachers = [teacher(k) for k in kinds]
    for seed in SEEDS:
        student = Model(STUDENT_SPEC, DIMS, seed=seed)
        train_student_pretrain(student, teachers, MIMIC_GATED, merged, HYPER, seed=seed)
        ensemble_aucs.append(evaluate_model(student, test)[0])

    best_single = max(single_means.values())
    mean_3t = float(np.mean(ensemble_aucs))
    print(f"  singles {single_means}, 3T {mean_3t:.4f}")
    assert mean_3t >= best_single - 0.002, \
        f"3T mean {mean_3t:.4f} under best single {best_single:.4f} - 0.002"
    _pass(f"3T ensemble student within bound ({mean_3t:.4f} vs best single {best_single:.4f})")


# -- 8. early-stop semantics ----------------------------------------------------

def test_early_stop_rule_and_label_isolation():
    mon = EarlyStopMonitor("val_auc_max", patience=3)
    w = [T.parameter(np.zeros(1), "w")]
    assert [mon.update(v, w, e) for e, v in enumerate((0.80, 0.79, 0.79, 0.79), 1)] \
        == [False, False, False, True]
    mon = EarlyStopMonitor("val_auc_max", patience=3)
    assert not any(mon.update(v, w, e) for e, v in enumerate((0.7, 0.71, 0.72, 0.73, 0.74), 1))
    mon = EarlyStopMonitor("kd_loss_min", patience=3)
    flags = [mon.update(v, w, e) for e, v in enumerate((0.5, 0.4, 0.41, 0.39, 0.5, 0.5, 0.5), 1)]
    assert flags == [False, False, False, False, False, False, True]
    assert mon.best_value == 0.39

    # kd_loss_min stopping must never consume validation labels
    ds, _ = synthetic_dataset(4000, seed=2)
    dims = FieldDims(tuple([50] * 6), 2)
    train, val = ds.subset(range(3000)), ds.subset(range(3000, 4000))
    t_model = Model(ModelSpec.fm(4), dims, seed=1)
    train_teacher(t_model, train, TrainHyper(max_epochs=2, patience=None), seed=1)
    student = Model(ModelSpec.dnn((8,), embedding_dim=4), dims, seed=2)
    assert val.label_reads == 0
    train_student_pretrain(student, [t_model], DistillConfig(tau=2.0, beta=0.5, gamma=0.5),
                           train, TrainHyper(max_epochs=4), seed=2,
                           val_data=val, stop_mode=KD_LOSS_MIN)
    assert val.label_reads == 0, "kd_loss_min stopping read validation labels"
    # and the same path runs with validation rows merged into training
    merged = EncodedDataset.concatenate([train, val])
    student2 = Model(ModelSpec.dnn((8,), embedding_dim=4), dims, seed=2)
    res = train_student_pretrain(student2, [t_model],
                                 DistillConfig(tau=2.0, beta=0.5, gamma=0.5),
                                 merged, TrainHyper(max_epochs=2), seed=2)
    assert len(res.record) == 2
    _pass("early stopping (3-epoch rule exact, zero validation label reads)")


# -- 9. persistence -------------------------------------------------------------

def test_checkpoint_roundtrip_bitwise_for_every_zoo_model(tmp_path):
    rng = np.random.default_rng(0)
    cat = np.stack([rng.integers(0, v, size=100) for v in FD_DIMS.vocab_sizes], axis=1)
    num = rng.normal(size=(100, FD_DIMS.n_numeric))
    for name, spec in FD_ZOO:
        model = Model(spec, FD_DIMS, seed=13)
        path = tmp_path / f"{name.replace(' ', '_')}.ckpt"
        persist.save(path, model, seed=13, vocab_fingerprint="f" * 64)
        rebuilt = persist.load(path).build_model(expected_fingerprint="f" * 64)
        np.testing.assert_array_equal(rebuilt.logit_values(cat, num),
                                      model.logit_values(cat, num))
    _pass("checkpoint round-trip bitwise on 100 samples for all 7 zoo models")


# -- 10. pipeline fidelity -------------------------------------------------------

def test_pipeline_fidelity_against_scripted_oracle(tmp_path):
    # bundled fixture: 10^4-row criteo-format file, generated deterministically
    fixture = tmp_path / "criteo_fixture.txt"
    spec = SyntheticSpec(n_cat=26, vocab=60, n_num=13, latent_dim=2)
    write_synthetic_file(fixture, 10_000, seed=42, spec=spec)
    schema = parse_config_text("data.format = criteo\n").schema
    from ctrkd.data import read_rows
    rows = read_rows(fixture, "\t")
    assert len(rows) == 10_000

    strategy = RandomRatioSplit((0.8, 0.1, 0.1), seed=77)
    train_rows, val_rows, test_rows = split_rows(rows, strategy)
    assert (len(train_rows), len(val_rows), len(test_rows)) == (8000, 1000, 1000)
    key = lambda r: "\t".join(r)
    all_keys = sorted(map(key, rows))
    part_keys = sorted(map(key, train_rows + val_rows + test_rows))
    assert all_keys == part_keys  # disjoint and exhaustive

    min_count = 10
    vocab = FeatureVocabulary.build(train_rows, schema, min_count)
    encoded_train = encode_rows(train_rows, schema, vocab)
    encoded_test = encode_rows(test_rows, schema, vocab)

    # independent single-pass frequency oracle over the raw training rows
    for j, (name, column) in enumerate(schema.categorical_fields):
        counts = Counter(r[column] for r in train_rows)
        kept = {t for t, c in counts.items() if c >= min_count}
        assert vocab.size(name) == len(kept) + 1, name
        # UNK hits in the encoded train split == rows holding a rare token
        expected_unk = sum(c for t, c in counts.items() if t not in kept)
        assert int((encoded_train.cat[:, j] == 0).sum()) == expected_unk, name
        # test-split UNK hits: tokens rare-in-train or never seen in train
        expected_test_unk = sum(1 for r in test_rows if r[column] not in kept)
        assert int((encoded_test.cat[:, j] == 0).sum()) == expected_test_unk, name
    _pass("pipeline fidelity (vocab sizes, UNK collapse, split cardinalities)")

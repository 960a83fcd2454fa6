"""The benchmark's layer trace still hooks into the training code.

``perfbench/spans.py`` wraps module and class attributes that the training
loop looks up at call time. If a rename or a refactor moves one of those
lookups, a traced benchmark run breaks or silently counts nothing; this
test turns that into a tier-1 failure.
"""
import math
import os
import sys

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                "perfbench"))

import ctrkd.persist  # noqa: E402
import ctrkd.train  # noqa: E402
import spans  # noqa: E402
from ctrkd import cli  # noqa: E402
from ctrkd.distill import DistillConfig  # noqa: E402
from ctrkd.models import FieldDims, Model, ModelSpec  # noqa: E402
from ctrkd.synth import synthetic_dataset  # noqa: E402
from ctrkd.train import TrainHyper  # noqa: E402
from test_experiment import tiny_config  # noqa: E402


def assert_restored(saved):
    for owner, attr, original in saved:
        assert owner.__dict__[attr] is original, f"{attr} left wrapped"


def test_traced_training_counts_match_the_bench_formulas():
    ds, _ = synthetic_dataset(1000, seed=0)
    dims = FieldDims((50,) * 6, 2)
    train, val = ds.subset(np.arange(900)), ds.subset(np.arange(900, 1000))
    # patience = max_epochs: the monitors run but cannot cut the epoch budget
    hyper = TrainHyper(lr=3e-3, batch_size=400, max_epochs=2, patience=2,
                       kd_monitor_rows=300)
    teacher = Model(ModelSpec.deepfm((8,), embedding_dim=4), dims, seed=1)
    student = Model(ModelSpec.dnn((8,), embedding_dim=4), dims, seed=2)
    dcfg = DistillConfig(tau=1.0, beta=0.5, gamma=0.5, gating=True)

    tracer = spans.Tracer("test")
    tracer.install()
    saved = list(tracer._saved)
    try:
        ctrkd.train.train_teacher(teacher, train, hyper, 1, val_data=val)
        ctrkd.train.train_student_pretrain(student, [teacher], dcfg, train, hyper, 2)
    finally:
        tracer.uninstall()

    assert_restored(saved)
    epochs, rows = hyper.max_epochs, len(train)
    batches = 2 * epochs * math.ceil(rows / hyper.batch_size)
    assert tracer.counts() == {
        "epochs": 2 * epochs,
        "rows_trained": 2 * epochs * rows,
        "batches": batches,
        "backward_calls": batches,
        "teacher_rows_inferred": epochs * 1 * (rows + hyper.kd_monitor_rows),
    }
    names = {s["name"] for s in tracer.spans}
    assert {"train.train_teacher", "train.train_student_pretrain", "data.batches.wait",
            "train.adam_step", "train.early_stop_update", "models.predict",
            "metrics.auc"} <= names


def test_checkpoint_reload_builds_one_model(tmp_path):
    model = Model(ModelSpec.deepfm((8,), embedding_dim=4), FieldDims((50,) * 6, 2), seed=1)
    path = str(tmp_path / "model.ckpt")

    tracer = spans.Tracer("test")
    tracer.install()
    saved = list(tracer._saved)
    try:
        ctrkd.persist.save(path, model)
        again = ctrkd.persist.load(path).build_model()
    finally:
        tracer.uninstall()

    assert_restored(saved)
    metrics = tracer.metrics()
    assert metrics["persist.save.calls"] == 1
    assert metrics["persist.load.calls"] == 1
    assert metrics["models.init.calls"] == 1
    for name, arr in again.state().items():
        np.testing.assert_array_equal(arr, model.state()[name])


def test_cli_run_opens_one_span_per_stage(tmp_path):
    # the stage wrappers only count if the runner looks each stage up when it
    # runs it, not through a table of the functions taken at import time
    path = tiny_config(tmp_path)

    tracer = spans.Tracer("test")
    tracer.install()
    saved = list(tracer._saved)
    try:
        assert cli.main(["run", "-c", str(path)]) == 0
    finally:
        tracer.uninstall()

    assert_restored(saved)
    names = [s["name"] for s in tracer.spans]
    assert [n for n in names if n.startswith("experiment.")] == \
        [f"experiment.{stage}" for stage in spans.STAGES.values()]
    assert names.count("data.read_rows") == 1


def test_untraced_call_log_counts_match_the_bench_formulas(monkeypatch):
    # an untraced benchmark run installs only workloads.CallLog, which binds
    # the training calls' parameters by name and reads DistillResult.record
    import workloads

    # CallLog has no uninstall; monkeypatch puts back every attribute it wraps
    for mod in (ctrkd.train, ctrkd.experiment):
        for fn in ("train_teacher", "train_student_pretrain"):
            monkeypatch.setattr(mod, fn, getattr(mod, fn))
    monkeypatch.setattr(ctrkd.experiment, "stage_preprocess",
                        ctrkd.experiment.stage_preprocess)
    ds, _ = synthetic_dataset(1000, seed=0)
    dims = FieldDims((50,) * 6, 2)
    train, val = ds.subset(np.arange(900)), ds.subset(np.arange(900, 1000))
    # patience = max_epochs: the monitors run but cannot cut the epoch budget
    hyper = TrainHyper(lr=3e-3, batch_size=400, max_epochs=2, patience=2,
                       kd_monitor_rows=300)
    teacher = Model(ModelSpec.deepfm((8,), embedding_dim=4), dims, seed=1)
    student = Model(ModelSpec.dnn((8,), embedding_dim=4), dims, seed=2)
    dcfg = DistillConfig(tau=1.0, beta=0.5, gamma=0.5, gating=True)

    log = workloads.CallLog()
    log.install()
    ctrkd.train.train_teacher(teacher, train, hyper, 1, val_data=val)
    ctrkd.train.train_student_pretrain(student, [teacher], dcfg, train, hyper, 2)

    epochs, rows = hyper.max_epochs, len(train)
    batches = epochs * math.ceil(rows / hyper.batch_size)
    assert [(c.kind, c.model, c.rows, c.epochs, c.budget, c.batches, c.teacher_rows,
             c.finite) for c in log.calls] == [
        ("teacher", "deepfm", rows, epochs, epochs, batches, 0, True),
        ("kd", "dnn", rows, epochs, epochs, batches,
         epochs * 1 * (rows + hyper.kd_monitor_rows), True)]


def test_cli_pipeline_checks_read_the_run_files(tmp_path, monkeypatch):
    # CliPipeline.check reads status.txt, report.csv, runs.csv and the
    # *_meta.csv files; run the workload end to end on a small file
    import workloads

    for mod in (ctrkd.train, ctrkd.experiment):
        for fn in ("train_teacher", "train_student_pretrain"):
            monkeypatch.setattr(mod, fn, getattr(mod, fn))
    monkeypatch.setattr(ctrkd.experiment, "stage_preprocess",
                        ctrkd.experiment.stage_preprocess)

    class SmallCliPipeline(workloads.CliPipeline):
        rows = 3000

    log = workloads.CallLog()
    log.install()
    bench = SmallCliPipeline(seed=1, workdir=str(tmp_path), log=log)
    bench.setup()
    bench.prepare()
    log.clear()
    job = bench.job(None)
    job.calls = list(log.calls)
    checks = dict(bench.check(job))
    # test_auc_floor is set for the benchmark's 20,000 rows, not these 3,000
    checks.pop("test_auc_floor")
    assert checks and all(checks.values()), checks
    assert {"exit_code", "status_ok", "report_rows", "reload_matches_evaluate"} <= set(checks)

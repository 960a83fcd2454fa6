"""Bitwise-parity digest of training: one sha256 per run, plus a combined one.

Run it on two checkouts and compare the last line:

    PYTHONPATH=src python tests/parity_digest.py

Each of the 15 library runs trains on a small seeded synthetic task and
hashes the bytes of every parameter it trained (model, gate, projectors)
together with the ``repr`` of its per-epoch records: epoch, loss, monitored
value and the stop flag. Epoch seconds are wall time and are left out.

Each of the 10 pipeline runs is ``ctrkd run`` on a small synthetic file and
hashes every file under its ``output.dir``, in path order. In CSV files the
``seconds`` column is blanked and ``ckpt`` is made relative to ``output.dir``;
every other file is hashed as it is.

The 4 large-vocabulary runs, printed last, are hashed like the library runs.
Their tables have eight times as many rows as a batch, so ``rows`` gives a
row-sparse gradient and most rows go untouched for many steps; one run adds
L2 on the embeddings, which densifies that gradient.

The first line, starting with ``#``, names OpenBLAS's active core (its
kernel, such as ``SkylakeX``) and thread count, read from the library numpy
bundles, or ``unknown`` without one: hashes taken on another kernel may
differ in the last bits for that reason alone.

Nothing depends on ``PYTHONHASHSEED``: runs, parameters, records and files are
hashed in list order. pytest does not collect this file;
``tests/test_parity.py`` runs it and compares every hash with a pinned value.
"""
from __future__ import annotations

import contextlib
import csv
import ctypes
import glob
import hashlib
import io
import itertools
import os
import sys
import tempfile
from dataclasses import replace

import numpy as np

from ctrkd.cli import main as ctrkd_main
from ctrkd.config import format_kv, parse_kv
from ctrkd.data import EncodedDataset
from ctrkd.distill import DistillConfig
from ctrkd.models import PRESETS, FieldDims, Model, spec_from_preset
from ctrkd.synth import SyntheticSpec, synthetic_dataset, write_synthetic_file
from ctrkd.train import (KD_LOSS_MIN, VAL_AUC_MAX, TrainHyper, train_student_cotrain,
                         train_student_pretrain, train_teacher)

TASK = SyntheticSpec(n_cat=4, vocab=30, n_num=2, latent_dim=3)
HYPER = TrainHyper(lr=0.01, batch_size=250, max_epochs=3, patience=3,
                   kd_monitor_rows=500)
SHAPE = dict(embedding_dim=4, hidden=(16, 8), cross_layers=2, cin_maps=(3, 2))


def _digest(params, records) -> str:
    h = hashlib.sha256()
    for p in params:
        h.update(p.name.encode())
        h.update(p.values.tobytes())
    for record in records:
        h.update(repr([(e.epoch, e.loss, e.monitor, e.stopped)
                       for e in record.epochs]).encode())
        h.update(repr(record.best_epoch).encode())
    return h.hexdigest()


def _distill_params(student, result):
    return student.parameters() + result.parts


def runs():
    """Yield (name, digest) for every run, in a fixed order."""
    ds, _ = synthetic_dataset(2500, seed=11, spec=TASK)
    train, val = ds.subset(np.arange(2000)), ds.subset(np.arange(2000, 2500))
    dims = FieldDims((TASK.vocab,) * TASK.n_cat, TASK.n_num)

    teachers = {}
    for i, preset in enumerate(PRESETS):
        model = Model(spec_from_preset(preset, **SHAPE), dims, seed=20 + i)
        record = train_teacher(model, train, HYPER, seed=20 + i, val_data=val)
        teachers[preset] = model
        yield f"teacher/{preset}", _digest(model.parameters(), [record])

    # dropout, L2 on embeddings and an early stop that restores a snapshot
    model = Model(spec_from_preset("dnn", **{**SHAPE, "dropout": 0.3}), dims, seed=40)
    hyper = replace(HYPER, l2_embedding=1e-3, patience=1, max_epochs=4)
    record = train_teacher(model, train, hyper, seed=40, val_data=val)
    yield "teacher/dnn-dropout-l2", _digest(model.parameters(), [record])

    # one field and no numerics: the CIN has a single base map (m == 1)
    one = FieldDims((TASK.vocab,), 0)
    one_train, one_val = (EncodedDataset(d.cat[:, :1], d.num[:, :0], d.labels)
                          for d in (train, val))
    model = Model(spec_from_preset("xdeepfm", **SHAPE), one, seed=41)
    record = train_teacher(model, one_train, HYPER, seed=41, val_data=one_val)
    yield "teacher/xdeepfm-one-field", _digest(model.parameters(), [record])

    three = [teachers[name] for name in ("deepfm", "dcn", "xdeepfm")]
    student_spec = spec_from_preset("dnn", **SHAPE)
    pretrain = [
        ("gated-kd_loss_min", three, DistillConfig(tau=2.0, gating=True), KD_LOSS_MIN),
        ("val_auc_max", three, DistillConfig(tau=2.0), VAL_AUC_MAX),
        ("hint", [teachers["deepfm"]],
         DistillConfig(method="hint", beta=1e-3, gamma=1.0), KD_LOSS_MIN),
        ("beta0", [teachers["fm"]], DistillConfig(beta=0.0, gamma=1.0), VAL_AUC_MAX),
    ]
    for name, group, dcfg, stop in pretrain:
        student = Model(student_spec, dims, seed=50)
        result = train_student_pretrain(student, group, dcfg, train, HYPER, seed=50,
                                        val_data=val, stop_mode=stop)
        yield f"student/{name}", _digest(_distill_params(student, result), [result.record])

    cotrain = [("soft", DistillConfig(tau=2.0)),
               ("hint", DistillConfig(method="hint", beta=1e-3, gamma=1.0))]
    for name, dcfg in cotrain:
        teacher = Model(spec_from_preset("deepfm", **SHAPE), dims, seed=60)
        student = Model(student_spec, dims, seed=61)
        t_record, result = train_student_cotrain(teacher, student, dcfg, train, HYPER,
                                                 seed=61)
        yield f"cotrain/{name}", _digest(teacher.parameters() + student.parameters(),
                                         [t_record, result.record])


BIG_TASK = SyntheticSpec(n_cat=8, vocab=4000, n_num=2, latent_dim=3)
BIG_HYPER = replace(HYPER, batch_size=500, max_epochs=4, patience=None)


def bigvocab_runs():
    """Yield (name, digest) for every large-vocabulary run, in a fixed order."""
    ds, _ = synthetic_dataset(5000, seed=12, spec=BIG_TASK)
    train, val = ds.subset(np.arange(4000)), ds.subset(np.arange(4000, 5000))
    dims = FieldDims((BIG_TASK.vocab,) * BIG_TASK.n_cat, BIG_TASK.n_num)
    runs = [("deepfm", "deepfm", BIG_HYPER),
            ("wide_deep", "wide_deep", BIG_HYPER),
            ("deepfm-l2", "deepfm", replace(BIG_HYPER, l2_embedding=1e-4))]
    teacher = None
    for i, (name, preset, hyper) in enumerate(runs):
        model = Model(spec_from_preset(preset, **SHAPE), dims, seed=70 + i)
        record = train_teacher(model, train, hyper, seed=70 + i, val_data=val)
        teacher = teacher or model
        yield f"bigvocab/teacher/{name}", _digest(model.parameters(), [record])

    student = Model(spec_from_preset("dnn", **SHAPE), dims, seed=75)
    result = train_student_pretrain(student, [teacher], DistillConfig(tau=2.0), train,
                                    BIG_HYPER, seed=75, val_data=val, stop_mode=KD_LOSS_MIN)
    yield "bigvocab/student", _digest(_distill_params(student, result), [result.record])


PIPELINE_BASE = """\
data.path = clicks.txt
data.numeric_columns = 1-2
data.categorical_columns = 3-6
data.min_count = 2
teacher.model = deepfm
teacher.embedding_dim = 4
teacher.hidden = 8
teacher.cross_layers = 2
teacher.cin_maps = 3
student.embedding_dim = 4
student.hidden = 8
train.lr = 0.01
train.batch_size = 200
train.max_epochs = 2
train.patience = 2
train.seeds = 1,2
train.kd_monitor_rows = 300
distill.tau = 2.0
"""
HINT_KEYS = "distill.method = hint\ndistill.beta = 0.001\ndistill.gamma = 1\n"
PIPELINES = [
    ("single-teacher", ""),
    ("M-3-architectures-gated", "ensemble.mode = M\ndistill.gating = true\n"
                                "ensemble.teachers = deepfm,dcn,xdeepfm\n"),
    ("M-seeds-prediction-average", "ensemble.mode = M\nensemble.teachers = fm\n"
                                   "ensemble.seeds = 5,6\n"
                                   "report.ensemble_metric = prediction_average\n"),
    ("D-3-partitions", "ensemble.mode = D\nensemble.partitions = 3\n"),
    ("hint-val_auc", HINT_KEYS + "distill.stop = val_auc\n"),
    ("hint-kd_loss-no-merge", HINT_KEYS + "distill.merge_val = false\n"),
    ("cotrain", "distill.scheme = cotrain\n"),
    # report.csv's deltas against a teacher, read back from runs.csv
    ("baseline-teacher", "report.baseline = teacher/deepfm\n"),
    # the seed loop without a plain student
    ("no-plain-student", "report.include_plain_student = false\n"
                         "report.baseline = student_kd\n"),
    # columns listed out of order: C<k> names the k-th listed column, and the
    # vocabulary and the encoded arrays follow column order. The synthetic
    # columns share one token set, so only a min_count that drops different
    # tokens per column makes vocab.tsv tell the columns apart.
    ("shuffled-columns", "data.numeric_columns = 2,1\n"
                         "data.categorical_columns = 5,3,6,4\n"
                         "data.min_count = 60\n"),
]


def _file_digest(h, path: str, outdir: str) -> None:
    if path.endswith(".csv"):
        with open(path, newline="", encoding="utf-8") as f:
            rows = list(csv.reader(f))
        header = rows[0]
        for row in rows[1:]:
            for i, column in enumerate(header):
                if column == "seconds":
                    row[i] = ""
                elif column == "ckpt":
                    row[i] = os.path.relpath(row[i], outdir)
        h.update(repr(rows).encode())
    else:
        with open(path, "rb") as f:
            h.update(f.read())


def pipeline_runs():
    """Yield (name, digest) for every ``ctrkd run`` config, in a fixed order."""
    with tempfile.TemporaryDirectory() as tmp:
        write_synthetic_file(os.path.join(tmp, "clicks.txt"), 1000, seed=3,
                             spec=SyntheticSpec(n_cat=4, vocab=12, n_num=2, latent_dim=2))
        for name, extra in PIPELINES:
            cfg_path = os.path.join(tmp, f"{name}.cfg")
            with open(cfg_path, "w", encoding="utf-8") as f:
                keys = {**parse_kv(PIPELINE_BASE), "output.dir": name, **parse_kv(extra)}
                f.write(format_kv(keys.items()))
            with contextlib.redirect_stdout(io.StringIO()):
                code = ctrkd_main(["run", "-c", cfg_path])
            if code != 0:
                raise RuntimeError(f"ctrkd run failed on {name} (exit {code})")
            outdir = os.path.join(tmp, name)
            h = hashlib.sha256()
            for root, dirs, files in os.walk(outdir):
                dirs.sort()
                for file in sorted(files):
                    path = os.path.join(root, file)
                    h.update(os.path.relpath(path, outdir).encode())
                    _file_digest(h, path, outdir)
            yield f"pipeline/{name}", h.hexdigest()


def all_runs():
    """Yield (name, digest) for all 29 runs, in the printed order."""
    return itertools.chain(runs(), pipeline_runs(), bigvocab_runs())


def blas_kernel() -> str:
    """``core=<name> threads=<n>`` of the OpenBLAS numpy bundles, or
    ``core=unknown threads=unknown`` when it bundles none."""
    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libdir, "libscipy_openblas64_*"))):
        lib = ctypes.CDLL(path)
        corename = getattr(lib, "scipy_openblas_get_corename64_", None)
        threads = getattr(lib, "scipy_openblas_get_num_threads64_", None)
        if corename is not None and threads is not None:
            corename.argtypes, corename.restype = [], ctypes.c_char_p
            threads.argtypes, threads.restype = [], ctypes.c_int
            return f"core={corename().decode()} threads={threads()}"
    return "core=unknown threads=unknown"


def main() -> int:
    print(f"# OpenBLAS {blas_kernel()}", flush=True)
    combined = hashlib.sha256()
    for name, digest in all_runs():
        print(f"{digest}  {name}", flush=True)
        combined.update(f"{name} {digest}\n".encode())
    print(f"{combined.hexdigest()}  combined")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""The three seeded benchmark workloads.

Every job does a fixed amount of work: epoch budgets are fixed and no
early stop can cut them short (``patience=None`` in library calls,
``train.patience = train.max_epochs`` in the CLI config), so a change in
arithmetic cannot change how many epochs run.

- ``ensemble_kd``: the acceptance geometry. DeepFM, DCN and xDeepFM
  teachers, then gated soft-label KD from all three into a DNN student.
  Tiny vocabulary, so model, tensor and distill compute dominate; frozen
  teacher inference is about half of KD time; the only CIN backward.
- ``bigvocab_train``: one DeepFM on a Criteo-shaped set with ~20k tokens
  per field. Dense embedding gradients and Adam over whole tables
  dominate, and no teacher inference runs.
- ``cli_pipeline``: ``ctrkd run`` in-process on a raw tab file. The only
  workload that parses text, builds a vocabulary, and writes and reads
  back ``.npz`` files and checkpoints.
"""
from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import math
import os
import shutil
import statistics
import time
from dataclasses import dataclass, field

import numpy as np

import ctrkd.cli
import ctrkd.experiment
import ctrkd.persist
import ctrkd.train
from ctrkd import DistillConfig, EncodedDataset, FieldDims, Model, ModelSpec, TrainHyper
from ctrkd.metrics import auc
from ctrkd.synth import SyntheticSpec, synthetic_dataset, write_synthetic_file

from spans import bind, model_name

# Warm-up in setup: one epoch on two batches of training rows with the full
# validation split as monitor, then one full-size prediction of the test
# split per model. Without the full-size predictions, the first job's
# prediction passes ran up to 40% slower than later ones on bigvocab_train.
WARM_UP_ROWS = 4000
HIDDEN = (32, 16)
EMBED_DIM = 8
TEACHER_SEED = 100
STUDENT_SEED = 1
# Criteo-shaped synthetic logs: 26 categorical fields, 13 numerics.
CRITEO_SHAPE = dict(n_cat=26, n_num=13, latent_std=0.15, weight_std=0.5)


@dataclass
class TrainCall:
    """One call of a training entry point, as the call log saw it."""

    kind: str  # "teacher" (train_teacher) or "kd" (train_student_pretrain)
    model: str
    seconds: float
    rows: int
    epochs: int
    budget: int
    batches: int
    teacher_rows: int
    finite: bool


class CallLog:
    """Clock reads around the entry points that define end-to-end metrics.

    ``train_teacher``, ``train_student_pretrain`` and ``stage_preprocess``
    are timed at the attribute their callers look up, one pair of clock
    reads per call; this is the only wrapper an untraced run installs.
    The work counts are derived from each call's arguments and record.
    """

    def __init__(self):
        self.calls: list[TrainCall] = []
        self.preprocess_s: list[float] = []
        # called after every training or preprocess call returns, outside
        # its timing
        self.after_call = None

    def install(self) -> None:
        for mod in (ctrkd.train, ctrkd.experiment):
            for fn in ("train_teacher", "train_student_pretrain"):
                setattr(mod, fn, self._train_call(getattr(mod, fn)))
        exp = ctrkd.experiment
        exp.stage_preprocess = self._preprocess(exp.stage_preprocess)

    def clear(self) -> None:
        self.calls.clear()
        self.preprocess_s.clear()

    def _train_call(self, fn):
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            result = fn(*args, **kwargs)
            seconds = time.perf_counter() - t0
            a = bind(fn, args, kwargs)
            hyper, rows = a["hyper"], len(a["train_data"])
            record = getattr(result, "record", result)
            epochs = len(record)
            teacher_rows = 0
            if "teachers" in a and a["dcfg"].beta > 0.0:
                monitor = (min(hyper.kd_monitor_rows, rows)
                           if a["stop_mode"] == ctrkd.train.KD_LOSS_MIN else 0)
                teacher_rows = epochs * len(a["teachers"]) * (rows + monitor)
            self.calls.append(TrainCall(
                kind="kd" if "teachers" in a else "teacher",
                model=model_name(a.get("model") or a["student"]),
                seconds=seconds, rows=rows, epochs=epochs, budget=hyper.max_epochs,
                batches=epochs * math.ceil(rows / hyper.batch_size),
                teacher_rows=teacher_rows,
                finite=all(math.isfinite(e.loss) and math.isfinite(e.monitor)
                           for e in record.epochs)))
            if self.after_call:
                self.after_call()
            return result
        wrapper.__wrapped__ = fn
        return wrapper

    def _preprocess(self, fn):
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            result = fn(*args, **kwargs)
            self.preprocess_s.append(time.perf_counter() - t0)
            if self.after_call:
                self.after_call()
            return result
        wrapper.__wrapped__ = fn
        return wrapper


def rows_per_s(calls: list[TrainCall], kind: str) -> float:
    """Rows × epochs over seconds, summed over the training calls of a kind."""
    calls = [c for c in calls if c.kind == kind]
    seconds = sum(c.seconds for c in calls)
    return sum(c.rows * c.epochs for c in calls) / seconds if seconds else 0.0


@dataclass
class Job:
    """What one timed job measured, plus the outputs its checks read."""

    wall_s: float = 0.0
    burst_s: float = 0.0
    predict_s: list[float] = field(default_factory=list)
    predict_rows: int = 0
    test_auc: float = 0.0
    preds: list[np.ndarray] = field(default_factory=list)
    calls: list[TrainCall] = field(default_factory=list)
    preprocess_s: float = 0.0
    preprocess_rows: int = 0

    def rows_per_s(self, kind: str) -> float:
        return rows_per_s(self.calls, kind)

    def predict_rows_per_s(self) -> float:
        return self.predict_rows * len(self.predict_s) / sum(self.predict_s)

    def counts(self) -> dict[str, int]:
        return {
            "epochs": sum(c.epochs for c in self.calls),
            "rows_trained": sum(c.rows * c.epochs for c in self.calls),
            "batches": sum(c.batches for c in self.calls),
            # every batch of every training call runs exactly one backward
            "backward_calls": sum(c.batches for c in self.calls),
            "teacher_rows_inferred": sum(c.teacher_rows for c in self.calls),
        }

    def digest(self) -> str:
        h = hashlib.sha256()
        for p in self.preds:
            h.update(p.tobytes())
        return h.hexdigest()


def split3(data: EncodedDataset, n_train: int, n_val: int):
    n = len(data)
    return (data.subset(np.arange(n_train)),
            data.subset(np.arange(n_train, n_train + n_val)),
            data.subset(np.arange(n_train + n_val, n)))


def reload_matches(model, path: str, test: EncodedDataset, preds: np.ndarray) -> bool:
    """Save, load and rebuild a model; its test predictions must be bitwise equal."""
    ctrkd.persist.save(path, model)
    again = ctrkd.persist.load(path).build_model()
    return ctrkd.train.predict_dataset(again, test).tobytes() == preds.tobytes()


class Workload:
    """Interface: ``setup`` makes inputs and warms up, ``prepare`` builds
    fresh models, ``job`` is timed, ``check`` reads its outputs.

    ``predict_rows_per_s`` comes from prediction bursts: ``burst_passes``
    timed passes of ``test`` by every model in ``predict_models``, run after
    every training call of a job (and after preprocessing and at the end of
    the job on ``cli_pipeline``). The host's speed changes from one second
    to the next, so passes taken at many moments of the run give a steadier
    figure than passes in one block. Bursts are left out of ``wall_s`` and
    out of every span.
    """

    name = ""
    auc_floor = 0.0
    burst_passes = 2

    def __init__(self, seed: int, workdir: str, log: CallLog):
        self.seed = seed
        self.workdir = workdir
        self.log = log
        self.tracer = None
        self.predict_models: list[Model] = []
        self.test: EncodedDataset | None = None

    def prepare(self) -> None:
        pass

    def burst(self, job: Job) -> None:
        if not self.predict_models:
            return
        t0 = time.perf_counter()
        with self.tracer.paused() if self.tracer else contextlib.nullcontext():
            for _ in range(self.burst_passes):
                p0 = time.perf_counter()
                for m in self.predict_models:
                    ctrkd.train.predict_dataset(m, self.test)
                job.predict_s.append(time.perf_counter() - p0)
        job.predict_rows = len(self.predict_models) * len(self.test)
        job.burst_s += time.perf_counter() - t0

    def timed(self, job: Job, tracer, work) -> None:
        """Run ``work`` as the timed part of ``job``, with a burst after every
        training or preprocess call; ``wall_s`` is its time without them."""
        self.tracer = tracer
        self.log.after_call = lambda: self.burst(job)
        t0 = time.perf_counter()
        try:
            work()
        finally:
            self.log.after_call = None
        job.wall_s = time.perf_counter() - t0 - job.burst_s

    def check(self, job: Job) -> list[tuple[str, bool]]:
        checks = [(f"finite_losses.{c.model}", c.finite) for c in job.calls]
        checks += [(f"epoch_budget.{c.model}", c.epochs == c.budget) for c in job.calls]
        checks.append(("test_auc_floor", job.test_auc > self.auc_floor))
        return checks


class EnsembleKD(Workload):
    name = "ensemble_kd"
    auc_floor = 0.65
    epochs = 2
    teacher_specs = (ModelSpec.deepfm(HIDDEN, EMBED_DIM),
                     ModelSpec.dcn(hidden=HIDDEN, embedding_dim=EMBED_DIM),
                     ModelSpec.xdeepfm(hidden=HIDDEN, embedding_dim=EMBED_DIM))
    dims = FieldDims((50,) * 6, 2)
    dcfg = DistillConfig(method="soft_label", tau=1.0, beta=0.5, gamma=0.5, gating=True)

    def setup(self) -> None:
        data, _ = synthetic_dataset(100_000, seed=self.seed)
        self.train, self.val, self.test = split3(data, 80_000, 10_000)
        teachers, student = self._build()
        self._fit(teachers, student, self.train.subset(np.arange(WARM_UP_ROWS)), self.val, 1)
        # the warm-up models serve the bursts: same shapes as the job's
        self.predict_models = teachers + [student]
        for m in self.predict_models:
            ctrkd.train.predict_dataset(m, self.test)
        self.prepare()

    def _build(self):
        teachers = [Model(s, self.dims, seed=TEACHER_SEED + i)
                    for i, s in enumerate(self.teacher_specs)]
        return teachers, Model(ModelSpec.dnn(HIDDEN, EMBED_DIM), self.dims, seed=STUDENT_SEED)

    def prepare(self) -> None:
        self.teachers, self.student = self._build()

    def _fit(self, teachers, student, train, val, epochs: int) -> None:
        hyper = TrainHyper(lr=3e-3, batch_size=2000, max_epochs=epochs, patience=None)
        for i, t in enumerate(teachers):
            ctrkd.train.train_teacher(t, train, hyper, TEACHER_SEED + i, val_data=val)
        ctrkd.train.train_student_pretrain(student, teachers, self.dcfg, train, hyper,
                                           STUDENT_SEED)

    def job(self, tracer) -> Job:
        job = Job()

        def work():
            self._fit(self.teachers, self.student, self.train, self.val, self.epochs)
            job.preds = [ctrkd.train.predict_dataset(m, self.test)
                         for m in self.teachers + [self.student]]

        self.timed(job, tracer, work)
        job.test_auc = auc(job.preds[-1], self.test.labels)
        return job

    def check(self, job: Job) -> list[tuple[str, bool]]:
        path = os.path.join(self.workdir, "student.ckpt")
        return super().check(job) + [
            ("reload_bitwise", reload_matches(self.student, path, self.test, job.preds[-1]))]


class BigVocabTrain(Workload):
    name = "bigvocab_train"
    auc_floor = 0.75
    burst_passes = 8
    epochs = 2
    vocab = 20_000
    spec = ModelSpec.deepfm(HIDDEN, EMBED_DIM)

    def setup(self) -> None:
        synth = SyntheticSpec(vocab=self.vocab, **CRITEO_SHAPE)
        data, _ = synthetic_dataset(60_000, seed=self.seed, spec=synth)
        self.train, self.val, self.test = split3(data, 40_000, 10_000)
        self.dims = FieldDims((self.vocab,) * synth.n_cat, synth.n_num)
        self.prepare()
        self._fit(self.train.subset(np.arange(WARM_UP_ROWS)), self.val, 1)
        self.predict_models = [self.model]
        ctrkd.train.predict_dataset(self.model, self.test)
        self.prepare()

    def prepare(self) -> None:
        self.model = Model(self.spec, self.dims, seed=TEACHER_SEED)

    def _fit(self, train, val, epochs: int) -> None:
        hyper = TrainHyper(lr=3e-3, batch_size=2000, max_epochs=epochs, patience=None)
        ctrkd.train.train_teacher(self.model, train, hyper, TEACHER_SEED, val_data=val)

    def job(self, tracer) -> Job:
        job = Job()

        def work():
            self._fit(self.train, self.val, self.epochs)
            job.preds = [ctrkd.train.predict_dataset(self.model, self.test)]

        self.timed(job, tracer, work)
        job.test_auc = auc(job.preds[0], self.test.labels)
        return job

    def check(self, job: Job) -> list[tuple[str, bool]]:
        path = os.path.join(self.workdir, "model.ckpt")
        return super().check(job) + [
            ("reload_bitwise", reload_matches(self.model, path, self.test, job.preds[0]))]


CLI_CONFIG = """\
data.path = {name}.tsv
data.format = criteo
output.dir = {name}
teacher.model = dcn
teacher.embedding_dim = 8
teacher.hidden = 32,16
student.model = dnn
student.embedding_dim = 8
student.hidden = 32,16
train.lr = 0.01
train.batch_size = 1000
train.max_epochs = {epochs}
train.patience = {epochs}
train.seeds = 1,2
distill.tau = 1.0
distill.beta = 0.5
distill.gamma = 0.5
"""


class CliPipeline(Workload):
    name = "cli_pipeline"
    auc_floor = 0.60
    burst_passes = 4
    rows = 20_000
    epochs = 2

    def setup(self) -> None:
        # warm-up: the same pipeline on a small file, one epoch
        for name, rows, epochs in (("warmup", 3000, 1), ("run", self.rows, self.epochs)):
            write_synthetic_file(os.path.join(self.workdir, f"{name}.tsv"), rows, self.seed,
                                 SyntheticSpec(vocab=2000, **CRITEO_SHAPE))
            with open(os.path.join(self.workdir, f"{name}.cfg"), "w", encoding="utf-8") as f:
                f.write(CLI_CONFIG.format(name=name, epochs=epochs))
        self._run("warmup")

    def _run(self, name: str) -> int:
        shutil.rmtree(os.path.join(self.workdir, name), ignore_errors=True)
        with contextlib.redirect_stdout(io.StringIO()):
            return ctrkd.cli.main(["run", "-c", os.path.join(self.workdir, f"{name}.cfg")])

    def prepare(self) -> None:
        shutil.rmtree(os.path.join(self.workdir, "run"), ignore_errors=True)

    def job(self, tracer) -> Job:
        # Bursts inside the run use the checkpoints of the job before, which
        # are bitwise the same as this job's; the first job has none yet.
        job = Job()

        def work():
            self.exit_code = self._run("run")

        self.timed(job, tracer, work)
        out = os.path.join(self.workdir, "run")
        # loading the checkpoints is neither timed nor traced
        with tracer.paused() if tracer else contextlib.nullcontext():
            self.test = EncodedDataset.load_npz(os.path.join(out, "test.npz"))
            self.entries = [row for meta in ("teachers_meta.csv", "students_meta.csv")
                            for row in _read_csv(os.path.join(out, meta))]
            self.predict_models = [ctrkd.persist.load(row["ckpt"]).build_model()
                                   for row in self.entries]
            job.preds = [ctrkd.train.predict_dataset(m, self.test)
                         for m in self.predict_models]
        self.burst(job)
        # the KD students' mean test AUC, the figure report.csv gives: a single
        # KD student can die (AUC 0.5 at data seeds 801 and 839, seed 1)
        job.test_auc = statistics.fmean(
            auc(p, self.test.labels)
            for p, row in zip(job.preds, self.entries) if row["model"] == "student_kd")
        job.preprocess_rows = self.rows
        return job

    def check(self, job: Job) -> list[tuple[str, bool]]:
        out = os.path.join(self.workdir, "run")
        with open(os.path.join(out, "status.txt"), encoding="utf-8") as f:
            status = f.read().strip()
        report = {row["model"] for row in _read_csv(os.path.join(out, "report.csv"))}
        runs = _read_csv(os.path.join(out, "runs.csv"))
        # evaluate's AUCs were computed from the same checkpoints: exact match
        evaluated = [float(r["auc"]) for r in runs]
        reloaded = [auc(p, self.test.labels) for p in job.preds]
        return super().check(job) + [
            ("exit_code", self.exit_code == 0),
            ("status_ok", status == "ok"),
            ("report_rows", {"teacher/dcn", "student_plain", "student_kd"} <= report),
            ("reload_matches_evaluate", evaluated == reloaded),
        ]


def _read_csv(path: str) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as f:
        return list(csv.DictReader(f))


WORKLOADS = {w.name: w for w in (EnsembleKD, BigVocabTrain, CliPipeline)}

"""Optimization: Adam, early stopping, and one training loop that serves
teacher training and pretrain and cotrain distillation; the schemes differ
only in their objectives and in what the monitor measures.

Reproducibility contract: given (seed, data order, hyperparameters) every
parameter is bitwise identical across reruns. All randomness flows through
named streams derived from the run seed, so the teacher inside a co-train
run consumes exactly the rng draws a standalone teacher run would.
"""
from __future__ import annotations

import math
import os
import time
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from . import distill as KD
from . import tensor as T
from .data import Batch, EncodedDataset, batches
from .distill import DistillConfig, HintProjector, TeacherGate
from .metrics import auc, logloss
from .models import Model
from .tensor import Tensor

VAL_AUC_MAX = "val_auc_max"
KD_LOSS_MIN = "kd_loss_min"

# stream tags so independent rng consumers never collide
_BATCH_TAG = 0xB0
_DROPOUT_TAG = 0xD0
_MONITOR_TAG = 0x30
_PROJECTOR_TAG = 0x70

TEACHER_ROLE = 0
STUDENT_ROLE = 1

BETA1, BETA2, EPS = 0.9, 0.999, 1e-8  # Adam

# rows per inference batch when scoring a whole split
PREDICT_BATCH = 8192

# parameter elements from which Adam updates on two threads (see Adam)
SPLIT_SIZE = 1 << 20


class TrainingDiverged(RuntimeError):
    pass


def _batch_seed(seed: int, epoch: int) -> np.random.SeedSequence:
    return np.random.SeedSequence([_BATCH_TAG, seed, epoch])


def _dropout_rng(seed: int, role: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([_DROPOUT_TAG, seed, role]))


def _monitor_rng(seed: int, epoch: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([_MONITOR_TAG, seed, epoch]))


@dataclass(frozen=True)
class TrainHyper:
    lr: float = 1e-3
    batch_size: int = 2000
    max_epochs: int = 100
    patience: int | None = 3
    l2_embedding: float = 0.0
    kd_monitor_rows: int = 8192

    def __post_init__(self):
        # each message starts with the field name, the suffix of its config key
        checks = [("lr", math.isfinite(self.lr) and self.lr > 0, "a positive finite number"),
                  ("batch_size", self.batch_size >= 1, "at least 1"),
                  ("max_epochs", self.max_epochs >= 0, "at least 0"),
                  ("patience", self.patience is None or self.patience >= 1,
                   "at least 1 when set"),
                  ("l2_embedding", math.isfinite(self.l2_embedding) and self.l2_embedding >= 0,
                   "a non-negative finite number"),
                  ("kd_monitor_rows", self.kd_monitor_rows >= 1, "at least 1")]
        for field, ok, what in checks:
            if not ok:
                raise ValueError(f"{field} must be {what}, got {getattr(self, field)!r}")


class Adam:
    """Adam with bias correction, moment decays ``BETA1``, ``BETA2`` and
    denominator guard ``EPS``.

    A row-sparse gradient (``Tensor.row_grad``) updates the moments of its
    touched rows only; the decay and the parameter update still cover the
    whole table, as dense Adam moves untouched rows too.

    A parameter set of at least ``SPLIT_SIZE`` elements, on a host that lets
    the process run on two CPUs, is updated on two threads: its parameters
    are dealt whole, largest first, to two groups in turn, and ``step`` runs
    one group on a ``ThreadPoolExecutor`` opened for that step while the
    calling thread runs the other. Each parameter's update is the same
    sequence of numpy operations on the same arrays whichever thread runs
    it, so the result is bitwise the serial one.
    """

    def __init__(self, params: list[Tensor], lr: float = 1e-3):
        self.params = list(params)
        if len({id(p) for p in self.params}) < len(self.params):
            # two moment pairs would update it, on two threads after a split
            raise ValueError("a parameter is listed more than once")
        self.lr = lr
        self.t = 0
        self.m = [np.zeros(p.shape) for p in self.params]
        self.v = [np.zeros(p.shape) for p in self.params]
        # (index, a, b) per parameter: a group's update buffers a and b are
        # sized to its largest parameter and shared by all its parameters
        self._groups = []
        for group in _deal([p.size for p in self.params]):
            members = [(i, self.params[i]) for i in group]
            size = max((p.size for _, p in members), default=0)
            a, b = np.empty(size), np.empty(size)
            self._groups.append([(i, a[:p.size].reshape(p.shape), b[:p.size].reshape(p.shape))
                                 for i, p in members])

    def step(self) -> None:
        """Apply one bias-corrected update, then clear the gradients."""
        grads = []
        for p in self.params:
            g = p.row_grad if p.row_grad is not None else p.grad
            if g is None:
                raise ValueError(f"parameter {p.name or p} has no gradient")
            grads.append(g)
        self.t += 1
        c1 = 1.0 - BETA1 ** self.t
        c2 = 1.0 - BETA2 ** self.t
        # the first group runs here, any other on a worker of its own
        first, *rest = self._groups
        if rest:
            from concurrent.futures import ThreadPoolExecutor
            # leaving the block joins the workers; result() re-raises a failure
            with ThreadPoolExecutor(len(rest), thread_name_prefix="ctrkd-adam") as pool:
                shares = [pool.submit(self._update, group, grads, c1, c2) for group in rest]
                self._update(first, grads, c1, c2)
                for share in shares:
                    share.result()
        else:
            self._update(first, grads, c1, c2)
        for p in self.params:
            p.grad = None

    def _update(self, group, grads: list, c1: float, c2: float) -> None:
        # numpy only: no Tensor property and nothing a tracer wraps, so any
        # thread may run it
        for i, a, b in group:
            m, v, g = self.m[i], self.v[i], grads[i]
            m *= BETA1
            v *= BETA2
            if isinstance(g, T.RowGrad):
                # the dense path adds +0.0 to untouched rows' moments and this
                # one adds nothing: values, and so updates, are equal
                touched, g = g
                m[touched] += (1.0 - BETA1) * g
                v[touched] += (1.0 - BETA2) * np.square(g)
            else:
                m += np.multiply(1.0 - BETA1, g, out=a)
                v += np.multiply(1.0 - BETA2, np.square(g, out=b), out=b)
            # p -= lr * (m / c1) / (sqrt(v / c2) + EPS), op for op
            np.multiply(self.lr, np.divide(m, c1, out=a), out=a)
            np.add(np.sqrt(np.divide(v, c2, out=b), out=b), EPS, out=b)
            self.params[i].values -= np.divide(a, b, out=a)


def _deal(sizes: list[int]) -> list[list[int]]:
    """Parameter indices in one group, or in two of near-equal element count
    when the set is large enough and two CPUs are allowed: whole parameters,
    largest first, dealt to the two groups in turn."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    if len(sizes) < 2 or sum(sizes) < SPLIT_SIZE or cpus < 2:
        return [list(range(len(sizes)))]
    order = sorted(range(len(sizes)), key=lambda i: -sizes[i])
    return [sorted(order[0::2]), sorted(order[1::2])]


def _apply_l2(embedding_params: list[Tensor], lam: float) -> None:
    # gradient of lam * sum ||E||^2, embeddings only
    if lam == 0.0:
        return
    for p in embedding_params:
        p.grad += 2.0 * lam * p.values


@dataclass
class EpochStats:
    epoch: int
    loss: float
    monitor: float
    seconds: float
    stopped: bool


class TrainRecord:
    """Per-epoch training trace."""

    def __init__(self):
        self.epochs: list[EpochStats] = []
        # the epoch whose parameters the model ends with: the last one run,
        # or the one an early-stop monitor restored
        self.best_epoch = 0

    def append(self, stats: EpochStats) -> None:
        self.epochs.append(stats)
        self.best_epoch = stats.epoch

    def __len__(self) -> int:
        return len(self.epochs)

    @property
    def total_seconds(self) -> float:
        return sum(e.seconds for e in self.epochs)


class EarlyStopMonitor:
    """Stop after `patience` consecutive epochs without strict improvement;
    the best-epoch parameter snapshot is restored on stop. A NaN or infinite
    monitored value raises ``TrainingDiverged``: no later value compares
    against a NaN, so it would stay the best."""

    def __init__(self, mode: str, patience: int = 3):
        if mode not in (VAL_AUC_MAX, KD_LOSS_MIN):
            raise ValueError(f"unknown early-stop mode {mode!r}")
        if patience < 1:
            raise ValueError(f"patience must be at least 1, got {patience!r}")
        self.mode = mode
        self.patience = patience
        self.best_value: float | None = None
        self.best_epoch = 0
        self.epochs_since_best = 0
        self._best_state: list[np.ndarray] | None = None

    def _improved(self, value: float) -> bool:
        if self.best_value is None:
            return True
        if self.mode == VAL_AUC_MAX:
            return value > self.best_value
        return value < self.best_value

    def update(self, value: float, params: list[Tensor], epoch: int) -> bool:
        """Record one epoch's monitored value; True means stop now."""
        if not np.isfinite(value):
            raise TrainingDiverged(
                f"the {self.mode} monitor read {value} at epoch {epoch}; "
                "lower the learning rate or check the input scaling")
        if self._improved(value):
            self.best_value = value
            self.best_epoch = epoch
            self.epochs_since_best = 0
            self._best_state = [p.values.copy() for p in params]
        else:
            self.epochs_since_best += 1
        return self.epochs_since_best >= self.patience

    def restore(self, params: list[Tensor]) -> None:
        if self._best_state is None:
            return
        for p, saved in zip(params, self._best_state):
            np.copyto(p.values, saved)


def predict_dataset(model: Model, dataset: EncodedDataset) -> np.ndarray:
    """Inference-mode probabilities for a whole split; labels untouched."""
    out = []
    n = len(dataset)
    for start in range(0, n, PREDICT_BATCH):
        stop = min(start + PREDICT_BATCH, n)
        out.append(model.predict_proba(dataset.cat[start:stop], dataset.num[start:stop]))
    return np.concatenate(out)


def evaluate_model(model: Model, dataset: EncodedDataset) -> tuple[float, float]:
    """(AUC, logloss) on a labeled split."""
    scores = predict_dataset(model, dataset)
    labels = dataset.labels
    return auc(scores, labels), logloss(scores, labels)


def _check_finite(loss_value: float, epoch: int, step: int) -> None:
    if not np.isfinite(loss_value):
        raise TrainingDiverged(
            f"loss became {loss_value} at epoch {epoch}, step {step}; "
            "lower the learning rate or check the input scaling")


@dataclass
class _Objective:
    """One model's share of each batch: ``opt`` minimizes ``loss(batch, rng)``,
    with L2 decay on ``embed`` and ``rng`` as the model's dropout stream."""

    loss: Callable[[Batch, np.random.Generator], Tensor]
    opt: Adam
    embed: list[Tensor]
    rng: np.random.Generator


def _fit(objectives: list[_Objective], train_data: EncodedDataset, hyper: TrainHyper,
         seed: int, stop_mode: str | None = None, measure=None,
         on_step=None) -> list[TrainRecord]:
    """The training loop shared by every scheme; one record per objective.

    Each batch steps the objectives in list order. After each epoch
    ``measure(epoch)`` gives the monitored value; unless ``hyper.patience``
    is None it feeds a ``stop_mode`` early-stop monitor, whose best snapshot
    is restored at the end. ``on_step(epoch, step)`` fires after each
    batch's updates.
    """
    params = [p for obj in objectives for p in obj.opt.params]
    monitor = (EarlyStopMonitor(stop_mode, hyper.patience)
               if measure is not None and hyper.patience is not None else None)
    records = [TrainRecord() for _ in objectives]
    for epoch in range(1, hyper.max_epochs + 1):
        t0 = time.perf_counter()
        loss_sums = [0.0] * len(objectives)
        n_batches = 0
        for step, batch in enumerate(batches(train_data, hyper.batch_size,
                                             _batch_seed(seed, epoch))):
            for k, obj in enumerate(objectives):
                loss = obj.loss(batch, obj.rng)
                value = loss.item()
                _check_finite(value, epoch, step)
                loss.backward()
                _apply_l2(obj.embed, hyper.l2_embedding)
                obj.opt.step()
                loss_sums[k] += value
            if on_step is not None:
                on_step(epoch, step)
            n_batches += 1

        monitor_value = measure(epoch) if measure is not None else float("nan")
        stop = monitor is not None and monitor.update(monitor_value, params, epoch)
        seconds = time.perf_counter() - t0
        for record, loss_sum in zip(records, loss_sums):
            record.append(EpochStats(epoch, loss_sum / n_batches, monitor_value,
                                     seconds, stop))
        if stop:
            break
    if monitor is not None:
        monitor.restore(params)
        for record in records:
            record.best_epoch = monitor.best_epoch
    return records


def _val_auc(model: Model, val_data: EncodedDataset):
    return lambda epoch: auc(predict_dataset(model, val_data), val_data.labels)


def _bce_objective(model: Model, hyper: TrainHyper, seed: int) -> _Objective:
    def loss(batch: Batch, rng: np.random.Generator) -> Tensor:
        logit, _ = model.forward(batch.cat, batch.num, training=True, rng=rng)
        return KD.bce_loss(batch.labels, logit)

    return _Objective(loss, Adam(model.parameters(), lr=hyper.lr),
                      model.embedding_parameters(), _dropout_rng(seed, TEACHER_ROLE))


def train_teacher(model: Model, train_data: EncodedDataset, hyper: TrainHyper,
                  seed: int, val_data: EncodedDataset | None = None,
                  on_step=None) -> TrainRecord:
    """Minimize BCE (+ L2 on embeddings); early-stop on validation AUC.

    ``on_step(epoch, step)`` fires after each optimizer update, for tracing.
    """
    measure = _val_auc(model, val_data) if val_data is not None else None
    [record] = _fit([_bce_objective(model, hyper, seed)], train_data, hyper, seed,
                    VAL_AUC_MAX, measure, on_step)
    return record


def _student_objective(student: Model, teachers: list[Model], dcfg: DistillConfig,
                       hyper: TrainHyper, seed: int):
    """CE plus the KD term against the teachers' detached outputs; returns the
    objective, the term ``kd(cat, num, student_logit, student_hint)`` and the
    gate's then the hint projectors' parameters, trained with the student."""
    for t in teachers:
        if t.dims != student.dims:
            raise ValueError("teacher and student were built for different field schemas")
    # beta = 0 skips the KD term, so the gate/projectors would never see a
    # gradient; leave them out to keep the trajectory identical to plain CE
    m = len(teachers)
    gate = TeacherGate(m) if dcfg.gating and dcfg.beta > 0.0 else None
    projectors = []
    if dcfg.method == KD.HINT and dcfg.beta > 0.0:
        proj_rng = np.random.default_rng(np.random.SeedSequence([_PROJECTOR_TAG, seed]))
        projectors = [HintProjector(t.hint_dim, student.hint_dim, rng=proj_rng,
                                    name=f"hintproj.{i}")
                      for i, t in enumerate(teachers)]
    parts = [p for part in [gate, *projectors] if part is not None for p in part.parameters()]

    def kd(cat, num, student_logit: Tensor, student_hint: Tensor) -> Tensor:
        outputs = [t.hint_values(cat, num) for t in teachers]  # one call per teacher
        if dcfg.method == KD.SOFT_LABEL:
            logits = [z for z, _ in outputs]
            alphas = KD.gate_weights(logits, gate) if gate is not None else [1.0 / m] * m
            ensemble = KD.ensemble_teacher_logit(logits, alphas)
            return KD.soft_label_loss(ensemble, student_logit, dcfg.tau)
        # hint regression: uniform average of per-teacher hint losses
        total = None
        for (_, hint), proj in zip(outputs, projectors):
            term = KD.hint_loss(hint, student_hint, proj)
            total = term if total is None else T.add(total, term)
        return total if m == 1 else T.mul(total, 1.0 / m)

    def loss(batch: Batch, rng: np.random.Generator) -> Tensor:
        s_logit, s_hint = student.forward(batch.cat, batch.num, training=True, rng=rng)
        # beta = 0: skip teacher inference entirely
        term = kd(batch.cat, batch.num, s_logit, s_hint) if dcfg.beta != 0.0 else None
        return KD.student_loss(batch.labels, s_logit, term, dcfg.beta, dcfg.gamma)

    objective = _Objective(loss, Adam(student.parameters() + parts, lr=hyper.lr),
                           student.embedding_parameters(), _dropout_rng(seed, STUDENT_ROLE))
    return objective, kd, parts


@dataclass
class DistillResult:
    """A KD student's record and the gate's then projectors' parameters it trained."""

    record: TrainRecord
    parts: list[Tensor]


def train_student_pretrain(student: Model, teachers: list[Model],
                           dcfg: DistillConfig, train_data: EncodedDataset,
                           hyper: TrainHyper, seed: int,
                           val_data: EncodedDataset | None = None,
                           stop_mode: str = KD_LOSS_MIN) -> DistillResult:
    """Distill from frozen teachers; by default early-stop on the KD loss
    measured over an unlabeled slice of training inputs, so no validation
    labels are ever read (merge the validation rows into ``train_data`` to
    use them as extra training signal)."""
    if not teachers:
        raise ValueError("pretrain distillation needs at least one trained teacher")
    if stop_mode not in (KD_LOSS_MIN, VAL_AUC_MAX):
        raise ValueError(f"unknown stop mode {stop_mode!r}")
    if stop_mode == VAL_AUC_MAX and val_data is None:
        raise ValueError("val_auc_max stopping requires validation data")
    if stop_mode == KD_LOSS_MIN and dcfg.method == KD.HINT and dcfg.beta == 0.0:
        raise ValueError("hint distillation with beta = 0 has no KD loss to stop on "
                         "(no hint projectors are trained); use val_auc_max stopping")

    objective, kd, parts = _student_objective(student, teachers, dcfg, hyper, seed)
    if stop_mode == KD_LOSS_MIN:
        def measure(epoch: int) -> float:
            # unlabeled monitoring slice of training inputs, refreshed per epoch
            n = len(train_data)
            rows = min(hyper.kd_monitor_rows, n)
            idx = _monitor_rng(seed, epoch).choice(n, size=rows, replace=False)
            cat, num = train_data.cat[idx], train_data.num[idx]
            # a value only: no graph over the slice, for the student, the
            # gate or the projectors
            with T.no_grad():
                s_logit, s_hint = student.forward(cat, num, training=False)
                return kd(cat, num, s_logit, s_hint).item()
    else:
        measure = _val_auc(student, val_data)
    [record] = _fit([objective], train_data, hyper, seed, stop_mode, measure)
    return DistillResult(record, parts)


def train_student_cotrain(teacher: Model, student: Model, dcfg: DistillConfig,
                          train_data: EncodedDataset, hyper: TrainHyper,
                          seed: int, on_step=None) -> tuple[TrainRecord, DistillResult]:
    """Joint loop with one teacher: each batch, the teacher steps on its own
    BCE, then the student steps against the freshly updated teacher's
    detached inference outputs. The teacher's trajectory is bit-identical
    to a standalone run at the same seed and batch order. Returns the
    teacher's record and the student's ``DistillResult``.

    ``on_step(epoch, step)`` fires after both optimizer updates of a batch;
    the student's update leaves the teacher's parameters untouched."""
    if dcfg.gating:
        raise ValueError("cotrain trains no teacher gate; use a config with gating=False")
    student_objective, _, parts = _student_objective(student, [teacher], dcfg, hyper, seed)
    t_record, s_record = _fit([_bce_objective(teacher, hyper, seed), student_objective],
                              train_data, hyper, seed, on_step=on_step)
    return t_record, DistillResult(s_record, parts)

"""Distillation losses, multi-teacher combination, and teacher gating.

Teacher outputs must enter these losses as value snapshots (plain arrays
from graph-free inference), never as live graph nodes of the teacher
models: gradient flow from student to teacher is cut mechanically. The gate
and hint projector are trained jointly with the student, so their
parameters do stay in the graph.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .tensor import Tensor

SOFT_LABEL = "soft_label"
HINT = "hint"

PRETRAIN = "pretrain"
COTRAIN = "cotrain"

HINT_BETA_MAX = 1e-3


def _check_tau(tau: float) -> None:
    if not 1.0 <= tau < math.inf:  # nan fails the comparison too
        raise ValueError("temperature tau must be finite and >= 1")


@dataclass(frozen=True)
class DistillConfig:
    """Which KD signal to use and how to weight it against the CE term."""

    method: str = SOFT_LABEL
    tau: float = 1.0
    beta: float = 0.5
    gamma: float = 0.5
    gating: bool = False

    def __post_init__(self):
        if self.method not in (SOFT_LABEL, HINT):
            raise ValueError(f"unknown distillation method {self.method!r}")
        if self.method == SOFT_LABEL:
            _check_tau(self.tau)
            if not (0.0 <= self.beta <= 1.0 and 0.0 <= self.gamma <= 1.0):
                raise ValueError("soft-label weights must lie in [0, 1]")
            if abs(self.beta + self.gamma - 1.0) > 1e-9:
                raise ValueError("soft-label distillation requires beta + gamma = 1")
        else:
            if self.gamma != 1.0:
                raise ValueError("hint regression requires gamma = 1")
            if not 0.0 <= self.beta <= HINT_BETA_MAX:
                raise ValueError(f"hint beta must lie in [0, {HINT_BETA_MAX}]")
            if self.gating:
                raise ValueError("teacher gating applies to soft-label distillation only")


def cross_entropy(target, logits: Tensor) -> Tensor:
    """Mean binary cross-entropy of sigmoid(``logits``) against (possibly
    soft) targets of the same shape.

    ``target`` may be a constant array or a live tensor (gated ensemble
    targets keep their gradient path).
    """
    return T.bce_with_logits(logits, target)


def bce_loss(labels, logits: Tensor) -> Tensor:
    """Mean binary cross-entropy of sigmoid(``logits``) against hard {0,1} labels."""
    values = labels.values if isinstance(labels, Tensor) else np.asarray(labels, dtype=np.float64)
    if not np.all((values == 0.0) | (values == 1.0)):
        raise ValueError("bce_loss labels must be 0 or 1")
    return cross_entropy(values, logits)


def soft_label_loss(teacher_logits, student_logits: Tensor, tau: float) -> Tensor:
    """Cross-entropy between temperature-softened teacher and student
    probabilities: CE(sigmoid(z_T / tau), sigmoid(z_S / tau)).

    Pass teacher logits as raw values (detached); the teacher side then
    contributes a constant target and gradients reach the student only.
    A gated ensemble logit may be passed as a live tensor so the gate
    parameters keep training.
    """
    _check_tau(tau)
    target = T.sigmoid(T.mul(teacher_logits, 1.0 / tau))
    return cross_entropy(target, T.mul(student_logits, 1.0 / tau))


class HintProjector:
    """Linear map from teacher hint space (dim m) to student hint space (dim n)."""

    def __init__(self, teacher_dim: int, student_dim: int,
                 rng: np.random.Generator | None = None, name: str = "hintproj"):
        if teacher_dim == student_dim:
            w = np.eye(student_dim)
        else:
            if rng is None:
                rng = np.random.default_rng(0)
            limit = np.sqrt(6.0 / (teacher_dim + student_dim))
            w = rng.uniform(-limit, limit, size=(student_dim, teacher_dim))
        self.w = T.parameter(w, name=f"{name}.w")

    def parameters(self) -> list[Tensor]:
        return [self.w]


def hint_loss(teacher_hint, student_hint: Tensor, projector: HintProjector) -> Tensor:
    """Squared L2 distance || W v_T - v_S ||^2, mean over the batch.

    Teacher hints enter as values; gradients flow to the student hint and
    the projector only.
    """
    v_t = teacher_hint.values if isinstance(teacher_hint, Tensor) else np.asarray(teacher_hint)
    n, m = projector.w.shape
    if v_t.ndim != 2 or v_t.shape[1] != m:
        raise ValueError(f"teacher hint dim {v_t.shape} incompatible with projector {projector.w.shape}")
    if student_hint.shape[1] != n:
        raise ValueError(f"student hint dim {student_hint.shape[1]} != projector output {n}")
    projected = T.matmul(Tensor(v_t), T.transpose(projector.w))
    sq = T.square(T.sub(projected, student_hint))
    per_sample = T.reduce_sum(sq, axis=1, keepdims=True)
    batch = per_sample.shape[0]
    return T.mul(T.reduce_sum(per_sample), 1.0 / batch)


class TeacherGate:
    """Per-teacher scalar (w_i, b_i) feeding a softmax over teacher logits."""

    def __init__(self, n_teachers: int):
        if n_teachers < 1:
            raise ValueError("gate needs at least one teacher")
        self.w = [T.parameter(np.ones((1, 1)), name=f"gate.w.{i}") for i in range(n_teachers)]
        self.b = [T.parameter(np.zeros((1, 1)), name=f"gate.b.{i}") for i in range(n_teachers)]

    def parameters(self) -> list[Tensor]:
        return list(self.w) + list(self.b)


def gate_weights(teacher_logits: list, gate: TeacherGate) -> list[Tensor]:
    """Sample-wise softmax weights alpha_i over teacher logits.

    alpha_i = exp(w_i z_i + b_i) / sum_j exp(w_j z_j + b_j), computed with
    the row max subtracted first so the exponentials stay bounded.
    """
    if len(teacher_logits) != len(gate.w):
        raise ValueError(f"{len(teacher_logits)} logit columns for {len(gate.w)} teachers")
    logits = [T.as_tensor(z) for z in teacher_logits]
    scores = [T.add(T.mul(z, w), b) for z, w, b in zip(logits, gate.w, gate.b)]
    row_max = np.max(np.concatenate([s.values for s in scores], axis=1),
                     axis=1, keepdims=True)
    exps = [T.exp(T.sub(s, Tensor(row_max))) for s in scores]
    denom = exps[0]
    for e in exps[1:]:
        denom = T.add(denom, e)
    return [T.div(e, denom) for e in exps]


def ensemble_teacher_logit(teacher_logits: list, alphas: list) -> Tensor:
    """Convex combination sum_i alpha_i z_i in logit space (alpha_i a tensor or a float)."""
    if len(teacher_logits) != len(alphas):
        raise ValueError("teacher logits and weights must have the same length")
    if not teacher_logits:
        raise ValueError("need at least one teacher")
    logits = [T.as_tensor(z) for z in teacher_logits]
    out = T.mul(alphas[0], logits[0])
    for a, z in zip(alphas[1:], logits[1:]):
        out = T.add(out, T.mul(a, z))
    return out


def student_loss(labels, student_logit: Tensor, kd_term: Tensor | None,
                 beta: float, gamma: float) -> Tensor:
    """gamma * CE(labels, sigmoid(logit)) + beta * KD. beta=0 returns the
    plain CE term untouched, so a zero-weight run is bit-identical to no KD."""
    ce = bce_loss(labels, student_logit)
    if beta == 0.0:
        return ce if gamma == 1.0 else T.mul(ce, gamma)
    if kd_term is None:
        raise ValueError("beta > 0 requires a kd_term")
    if gamma == 0.0:
        return kd_term if beta == 1.0 else T.mul(kd_term, beta)
    return T.add(T.mul(ce, gamma), T.mul(kd_term, beta))

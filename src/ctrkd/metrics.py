"""Evaluation metrics: rank-based AUC with average-rank ties, logloss."""
from __future__ import annotations

import numpy as np

# Probability clamp for logloss; the training losses work on logits.
PROB_EPS = 1e-7


class MetricError(ValueError):
    """Raised when a metric is undefined for the given inputs."""


def _checked(scores, labels, metric: str) -> tuple[np.ndarray, np.ndarray]:
    """Flat float arrays of equal length, finite scores and labels in {0, 1}."""
    scores = np.asarray(scores, dtype=np.float64).reshape(-1)
    labels = np.asarray(labels, dtype=np.float64).reshape(-1)
    if scores.shape != labels.shape:
        raise ValueError("scores and labels must have the same length")
    if not np.all(np.isfinite(scores)):
        raise MetricError(f"{metric} is undefined for non-finite scores")
    if not np.all((labels == 0) | (labels == 1)):
        raise MetricError(f"{metric} needs labels in {{0, 1}}")
    return scores, labels


def auc(scores, labels) -> float:
    """Area under the ROC curve via average ranks.

    Equals the probability that a random positive outranks a random
    negative, with tied scores counted as half a correct ordering. Labels
    must be 0 or 1 and scores finite: a NaN would rank above every number.
    """
    scores, labels = _checked(scores, labels, "AUC")
    n_pos = int(np.sum(labels == 1))
    n_neg = labels.size - n_pos
    if n_pos == 0 or n_neg == 0:
        raise MetricError("AUC is undefined when only one class is present")

    order = np.argsort(scores, kind="mergesort")
    sorted_scores = scores[order]
    # Average 1-based rank within each group of tied scores.
    bounds = np.flatnonzero(np.diff(sorted_scores)) + 1
    starts = np.concatenate(([0], bounds))
    ends = np.concatenate((bounds, [scores.size]))
    group_rank = (starts + ends + 1) / 2.0
    ranks = np.empty(scores.size)
    ranks[order] = np.repeat(group_rank, ends - starts)

    pos_rank_sum = ranks[labels == 1].sum()
    return float((pos_rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


def logloss(scores, labels) -> float:
    """Mean binary cross-entropy of predicted probabilities.

    Labels must be 0 or 1 and scores probabilities in [0, 1]; each score is
    clamped to [PROB_EPS, 1 - PROB_EPS] so that a confident miss stays finite.
    """
    p, y = _checked(scores, labels, "logloss")
    if not np.all((p >= 0.0) & (p <= 1.0)):
        raise MetricError("logloss needs scores in [0, 1]")
    p = np.clip(p, PROB_EPS, 1.0 - PROB_EPS)
    return float(np.mean(-(y * np.log(p) + (1.0 - y) * np.log(1.0 - p))))

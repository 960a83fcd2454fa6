"""Evaluation metrics: rank-based AUC with average-rank ties, logloss."""
from __future__ import annotations

import numpy as np

# Probability clamp for logloss; the training losses work on logits.
PROB_EPS = 1e-7


class MetricError(ValueError):
    """Raised when a metric is undefined for the given inputs."""


def auc(scores, labels) -> float:
    """Area under the ROC curve via average ranks.

    Equals the probability that a random positive outranks a random
    negative, with tied scores counted as half a correct ordering.
    """
    scores = np.asarray(scores, dtype=np.float64).reshape(-1)
    labels = np.asarray(labels, dtype=np.float64).reshape(-1)
    if scores.shape != labels.shape:
        raise ValueError("scores and labels must have the same length")
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
    """Mean binary cross-entropy of predicted probabilities."""
    p = np.clip(np.asarray(scores, dtype=np.float64).reshape(-1), PROB_EPS, 1.0 - PROB_EPS)
    y = np.asarray(labels, dtype=np.float64).reshape(-1)
    if p.shape != y.shape:
        raise ValueError("scores and labels must have the same length")
    return float(np.mean(-(y * np.log(p) + (1.0 - y) * np.log(1.0 - p))))

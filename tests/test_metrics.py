import numpy as np
import pytest

from ctrkd.metrics import MetricError, auc, logloss


def pairwise_auc(scores, labels):
    """O(n^2) all-pairs oracle: P(pos ranked above neg), ties count 0.5."""
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels)
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    wins = 0.0
    for p in pos:
        for q in neg:
            if p > q:
                wins += 1.0
            elif p == q:
                wins += 0.5
    return wins / (len(pos) * len(neg))


def test_perfect_and_inverted_ranking():
    labels = [0, 0, 1, 1]
    assert auc([0.1, 0.2, 0.3, 0.4], labels) == 1.0
    assert auc([0.4, 0.3, 0.2, 0.1], labels) == 0.0


def test_known_value():
    assert auc([0.1, 0.4, 0.35, 0.8], [0, 0, 1, 1]) == pytest.approx(0.75, abs=1e-12)


def test_single_class_is_undefined():
    with pytest.raises(MetricError):
        auc([0.1, 0.2], [1, 1])
    with pytest.raises(MetricError):
        auc([0.1, 0.2], [0, 0])


def test_scores_and_labels_of_different_lengths_are_refused():
    for metric in (auc, logloss):
        with pytest.raises(ValueError, match="same length"):
            metric([0.1, 0.2, 0.7], [0, 1])


def test_matches_pairwise_oracle_with_ties():
    rng = np.random.default_rng(2024)
    for trial in range(30):
        n = int(rng.integers(2, 120))
        labels = rng.integers(0, 2, size=n)
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        # quantized scores force plenty of exact ties
        scores = np.round(rng.random(n), 1)
        assert auc(scores, labels) == pytest.approx(
            pairwise_auc(scores, labels), abs=1e-9), f"trial {trial}"


def test_all_tied_scores_give_half():
    assert auc([0.3, 0.3, 0.3, 0.3], [0, 1, 0, 1]) == pytest.approx(0.5, abs=1e-12)


def test_logloss_constants():
    assert logloss([0.5, 0.5], [0, 1]) == pytest.approx(np.log(2.0), abs=1e-12)
    assert logloss([1.0, 0.0], [1, 0]) == pytest.approx(0.0, abs=1e-5)


def test_logloss_mixed_batch_matches_manual_mean():
    p = np.array([0.2, 0.7, 0.9])
    y = np.array([0.0, 1.0, 1.0])
    manual = -(np.log(1 - p[0]) + np.log(p[1]) + np.log(p[2])) / 3.0
    assert logloss(p, y) == pytest.approx(manual, rel=1e-12)

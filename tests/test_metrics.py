import numpy as np
import pytest

from ctrkd.metrics import PROB_EPS, MetricError, auc, logloss


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
    assert logloss([1.0, 0.0], [0, 1]) == pytest.approx(-np.log(PROB_EPS), rel=1e-6)


def test_logloss_mixed_batch_matches_manual_mean():
    p = np.array([0.2, 0.7, 0.9])
    y = np.array([0.0, 1.0, 1.0])
    manual = -(np.log(1 - p[0]) + np.log(p[1]) + np.log(p[2])) / 3.0
    assert logloss(p, y) == pytest.approx(manual, rel=1e-12)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_non_finite_scores_are_refused(bad):
    # a NaN sorts above every number, so it would rank as the best score
    with pytest.raises(MetricError, match="non-finite"):
        auc([0.1, bad, bad, 0.2], [0, 1, 1, 0])


@pytest.mark.parametrize("labels", [[0, 2, 1, 0], [0, -1, 1, 0], [0, 0.5, 1, 0],
                                    [0, float("nan"), 1, 0]])
def test_labels_other_than_zero_and_one_are_refused(labels):
    # any label other than 1 used to count as a negative
    with pytest.raises(MetricError, match="labels in"):
        auc([0.1, 0.4, 0.3, 0.2], labels)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_logloss_refuses_non_finite_scores(bad):
    # a NaN used to make the mean NaN; an infinity was clipped to a probability
    with pytest.raises(MetricError, match="non-finite"):
        logloss([0.5, bad], [1, 0])


@pytest.mark.parametrize("labels", [[2, 0], [-1, 0], [0.5, 0], [float("nan"), 0]])
def test_logloss_refuses_labels_other_than_zero_and_one(labels):
    # a label of 2 used to score 0.458 against these scores
    with pytest.raises(MetricError, match="labels in"):
        logloss([0.5, 0.2], labels)


@pytest.mark.parametrize("score", [1.5, -0.1, 1.0 + 1e-12])
def test_logloss_refuses_scores_that_are_not_probabilities(score):
    # a score of 1.5 used to be clipped to 1 - PROB_EPS without a word
    with pytest.raises(MetricError, match=r"scores in \[0, 1\]"):
        logloss([score, 0.2], [1, 0])

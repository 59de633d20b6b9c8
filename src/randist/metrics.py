"""Exact evaluation metrics.

* auc_roc: Mann-Whitney statistic (ties count 1/2), which equals the area
  under the ROC curve.
* auc_pr: average precision, the step-wise sum of precision at each
  positive's rank; descending order, ties broken by stable input order.
* nmi: mutual information normalized by the geometric mean of the two
  entropies (natural log).
* pairwise_f: F1 over same-cluster point pairs, permutation-invariant and
  symmetric in its arguments.
"""
from __future__ import annotations

import math

import numpy as np


def check_labels(labels) -> np.ndarray:
    """labels as an array, or a ValueError if one is not 0 or 1."""
    labels = np.asarray(labels)
    if not np.all((labels == 0) | (labels == 1)):
        raise ValueError("labels must be 0 or 1")
    return labels


def _check_binary(scores: np.ndarray, labels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    scores = np.asarray(scores, dtype=np.float64)
    labels = check_labels(labels)
    if scores.ndim != 1 or labels.shape != scores.shape:
        raise ValueError(f"scores and labels must be equal-length vectors, got {scores.shape} vs {labels.shape}")
    if not np.all(np.isfinite(scores)):
        raise ValueError("scores must be finite")
    if labels.min() == labels.max():
        raise ValueError("need at least one positive and one negative label")
    return scores, labels.astype(np.int64)


def auc_roc(scores, labels) -> float:
    """Probability that a random positive outranks a random negative."""
    scores, labels = _check_binary(scores, labels)
    order = np.argsort(scores, kind="mergesort")
    s = scores[order]
    # average rank over ties, 1-based
    first = np.searchsorted(s, s, side="left")
    last = np.searchsorted(s, s, side="right")
    ranks = np.empty(s.size)
    ranks[order] = (first + last + 1) / 2.0
    n_pos = int(labels.sum())
    n_neg = labels.size - n_pos
    u = ranks[labels == 1].sum() - n_pos * (n_pos + 1) / 2.0
    return float(u / (n_pos * n_neg))


def auc_pr(scores, labels) -> float:
    """Average precision over positives in descending score order."""
    scores, labels = _check_binary(scores, labels)
    order = np.argsort(-scores, kind="mergesort")
    hits = labels[order]
    cum_pos = np.cumsum(hits)
    precision = cum_pos / np.arange(1, hits.size + 1)
    return float(precision[hits == 1].sum() / cum_pos[-1])


def _contingency(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    _, ai = np.unique(a, return_inverse=True)
    _, bi = np.unique(b, return_inverse=True)
    table = np.zeros((ai.max() + 1, bi.max() + 1), dtype=np.int64)
    np.add.at(table, (ai, bi), 1)
    return table


def _check_partitions(a, b, min_len: int = 1) -> tuple[np.ndarray, np.ndarray]:
    a = np.asarray(a, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64)
    if a.ndim != 1 or a.shape != b.shape:
        raise ValueError(f"partitions must be equal-length vectors, got {a.shape} vs {b.shape}")
    if a.size < min_len:
        raise ValueError(f"need at least {min_len} points, got {a.size}")
    return a, b


def nmi(labels_a, labels_b) -> float:
    """Normalized mutual information between two partitions, in [0, 1],
    over the geometric mean of their entropies.

    Two single-cluster partitions are identical, hence 1.0; when exactly
    one side is single-cluster the mutual information is 0 and so is the
    score.
    """
    a, b = _check_partitions(labels_a, labels_b)
    table = _contingency(a, b)
    n = a.size
    row = table.sum(axis=1)
    col = table.sum(axis=0)
    h_a = -sum(c / n * math.log(c / n) for c in row if c > 0)
    h_b = -sum(c / n * math.log(c / n) for c in col if c > 0)
    if h_a == 0.0 and h_b == 0.0:
        return 1.0
    if h_a == 0.0 or h_b == 0.0:
        return 0.0
    mi = 0.0
    for i in range(table.shape[0]):
        for j in range(table.shape[1]):
            nij = table[i, j]
            if nij > 0:
                mi += nij / n * math.log(n * nij / (row[i] * col[j]))
    return float(min(1.0, max(0.0, mi / math.sqrt(h_a * h_b))))


def pairwise_f(labels_a, labels_b) -> float:
    """F1 over co-clustered point pairs; labels_a is the reference side.

    1.0 when neither partition co-clusters any pair (they agree trivially);
    0.0 when precision and recall are both zero.
    """
    a, b = _check_partitions(labels_a, labels_b, min_len=2)
    table = _contingency(a, b)

    def pairs(counts) -> int:
        return int(sum(int(c) * (int(c) - 1) // 2 for c in np.ravel(counts)))

    tp = pairs(table)
    true_pairs = pairs(table.sum(axis=1))
    pred_pairs = pairs(table.sum(axis=0))
    if true_pairs == 0 and pred_pairs == 0:
        return 1.0
    precision = tp / pred_pairs if pred_pairs > 0 else 0.0
    recall = tp / true_pairs if true_pairs > 0 else 0.0
    if precision + recall == 0.0:
        return 0.0
    return float(2.0 * precision * recall / (precision + recall))

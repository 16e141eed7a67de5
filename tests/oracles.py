"""Loop reference implementations that the tests compare the library against.

``average_ranks`` and ``roc_curve`` are the one-element-at-a-time tie loops
that ``labelbridge.metrics`` replaced with sorted-run numpy code; the library
must match them exactly. ``roc_points`` and ``trapezoid_area`` turn a ROC
curve into an area for the AUC cross-checks.
"""

import numpy as np

from labelbridge import metrics
from labelbridge.errors import InputError


def average_ranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks with ties averaged."""
    order = np.argsort(values, kind="mergesort")
    ranks = np.empty(len(values), dtype=np.float64)
    i = 0
    while i < len(values):
        j = i
        while j + 1 < len(values) and values[order[j + 1]] == values[order[i]]:
            j += 1
        ranks[order[i: j + 1]] = (i + j) / 2.0 + 1.0
        i = j + 1
    return ranks


def roc_curve(scores, labels):
    """(threshold, fpr, tpr) triples at every distinct score, descending."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    pos = labels == 1
    n_pos = int(pos.sum())
    n_neg = len(labels) - n_pos
    if n_pos == 0 or n_neg == 0:
        raise InputError("ROC curve needs both classes present")
    order = np.argsort(-scores, kind="mergesort")
    points = [(float("inf"), 0.0, 0.0)]
    tp = fp = 0
    i = 0
    while i < len(order):
        j = i
        value = scores[order[i]]
        while j + 1 < len(order) and scores[order[j + 1]] == value:
            j += 1
        block = order[i: j + 1]
        tp += int(pos[block].sum())
        fp += len(block) - int(pos[block].sum())
        points.append((float(value), fp / n_neg, tp / n_pos))
        i = j + 1
    return points


def roc_points(scores, labels):
    """(fpr, tpr) pairs of the library's ROC curve."""
    return [(fpr, tpr) for _, fpr, tpr in metrics.roc_curve(scores, labels)]


def trapezoid_area(points) -> float:
    area = 0.0
    for (x0, y0), (x1, y1) in zip(points, points[1:]):
        area += (x1 - x0) * (y0 + y1) / 2.0
    return area

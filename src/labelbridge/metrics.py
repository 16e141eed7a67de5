"""Evaluation metrics: per-label AUC, ROC curves, and overall P/R/F1.

AUC is the Mann-Whitney statistic (probability that a random positive
outranks a random negative, ties counted 1/2) and is undefined when a
split contains only one class; undefined labels are excluded from the
mean and flagged. Thresholding is strict: a label is predicted positive
when its confidence exceeds 0.5, i.e. its logit exceeds 0. A non-finite
logit has no rank, so every per-label AUC raises NumericalError on one.
"""

import numpy as np

from .errors import InputError, NumericalError


def sigmoid(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    return sigmoid_of(x, np.exp(-np.abs(x)))


def sigmoid_of(x: np.ndarray, e: np.ndarray) -> np.ndarray:
    """sigmoid(x) from e = exp(-|x|), which never overflows: 1/(1+e) where
    x >= 0, else e/(1+e). The numerator is max(e, x >= 0), 1 or e since
    0 <= e <= 1, so one exp serves both signs without a masked select."""
    s = np.maximum(e, x >= 0)
    s /= 1.0 + e
    return s


def auc_score(scores, labels):
    """Mann-Whitney AUC, or None when only one class is present."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    if scores.ndim != 1 or scores.shape != labels.shape:
        raise InputError(f"scores {scores.shape} and labels {labels.shape} must be "
                         f"equal-length vectors")
    if len(scores) < 1:
        raise InputError("auc_score needs at least one sample")
    pos = labels == 1
    n_pos = int(pos.sum())
    n_neg = len(labels) - n_pos
    if n_pos == 0 or n_neg == 0:
        return None
    ranks = _average_ranks(scores)
    rank_sum = ranks[pos].sum()
    return float((rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


def _average_ranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks with ties averaged."""
    order = np.argsort(values, kind="mergesort")
    first, last = _tie_groups(values[order])
    ranks = np.empty(len(values), dtype=np.float64)
    ranks[order] = np.repeat((first + last) / 2.0 + 1.0, last - first + 1)
    return ranks


def _tie_groups(sorted_values: np.ndarray):
    """First and last positions of each run of equal values (NaN equals nothing)."""
    breaks = np.flatnonzero(sorted_values[1:] != sorted_values[:-1])
    first = np.concatenate(([0], breaks + 1))
    last = np.concatenate((breaks, [len(sorted_values) - 1]))
    return first, last


def overall_prf(predictions: np.ndarray, truths: np.ndarray) -> dict:
    """Micro-averaged precision/recall/F1 over all labels, as the metrics.json
    fields op, or, of1, confusion_totals and prf_flags.

    Inputs are binary N x C matrices; predictions must already be
    thresholded. Zero denominators report the component as 0 with a flag.
    """
    predictions = np.asarray(predictions)
    truths = np.asarray(truths)
    if predictions.shape != truths.shape or predictions.ndim != 2:
        raise InputError(f"prediction matrix {predictions.shape} and truth matrix "
                         f"{truths.shape} must be equal N x C shapes")
    n_correct = int(np.sum((predictions == 1) & (truths == 1)))
    n_pred = int(np.sum(predictions == 1))
    n_gold = int(np.sum(truths == 1))
    op = n_correct / n_pred if n_pred else 0.0
    or_ = n_correct / n_gold if n_gold else 0.0
    of1 = 2 * op * or_ / (op + or_) if op + or_ > 0 else 0.0
    return {"op": op, "or": or_, "of1": of1,
            "confusion_totals": {"n_correct": n_correct, "n_pred": n_pred,
                                 "n_gold": n_gold},
            "prf_flags": [flag for flag, count in (("no_predicted_positives", n_pred),
                                                   ("no_true_positives", n_gold))
                          if not count]}


def roc_curve(scores, labels) -> np.ndarray:
    """(K+1) x 3 float64 rows of (threshold, fpr, tpr), one per distinct score
    in descending order after the sentinel first row (inf, 0, 0).

    The last row is (min score, 1, 1); a sample counts as predicted positive
    when score >= threshold.
    """
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    pos = labels == 1
    n_pos = int(pos.sum())
    n_neg = len(labels) - n_pos
    if n_pos == 0 or n_neg == 0:
        raise InputError("ROC curve needs both classes present")
    order = np.argsort(-scores, kind="mergesort")
    ranked = scores[order]
    first, last = _tie_groups(ranked)
    tp = np.cumsum(pos[order])[last]
    fp = last + 1 - tp
    # a tie group's threshold is its first score: -0.0 and 0.0 tie
    return np.concatenate(([[np.inf, 0.0, 0.0]],
                           np.column_stack((ranked[first], fp / n_neg, tp / n_pos))))


def top_k_table(logits: np.ndarray, k: int):
    """Per sample, the k highest-confidence labels: two N x k arrays, the
    label indices and their sigmoid scores.

    Ties break toward the lower label index.
    """
    logits = np.atleast_2d(np.asarray(logits, dtype=np.float64))
    if k < 1:
        raise InputError(f"k must be >= 1, got {k}")
    if k > logits.shape[1]:
        raise InputError(f"k={k} exceeds the number of labels {logits.shape[1]}")
    scores = sigmoid(logits)
    indices = np.argsort(-scores, axis=1, kind="mergesort")[:, :k]
    return indices, np.take_along_axis(scores, indices, axis=1)


def _per_label_auc(logits: np.ndarray, truths: np.ndarray) -> list:
    """AUC of each label's column, None where only one class is present.

    Raises NumericalError on a non-finite logit, which no AUC can rank.
    """
    logits = np.asarray(logits, dtype=np.float64)
    finite = np.isfinite(logits)
    if not finite.all():
        raise NumericalError(f"{int((~finite).sum())} of {logits.size} logits are "
                             f"non-finite (first: {float(logits[~finite][0])!r})")
    return [auc_score(logits[:, j], truths[:, j]) for j in range(truths.shape[1])]


def _mean_defined(aucs):
    defined = [a for a in aucs if a is not None]
    return float(np.mean(defined)) if defined else None


def mean_val_auc(logits: np.ndarray, truths: np.ndarray):
    """Mean of the defined per-label AUCs, or None if none are defined."""
    return _mean_defined(_per_label_auc(logits, truths))


def build_report(logits: np.ndarray, truths: np.ndarray, vocab_labels: list[str]):
    """Full evaluation of logit scores against binary truths: (report, roc).

    ``report`` holds the metrics.json fields in file order: per_label_auc
    (label -> AUC or None), mean_auc, op, or, of1, confusion_totals,
    undefined_labels and prf_flags. ``roc`` maps each label with a defined
    AUC to its roc_curve array, in vocabulary order.
    """
    logits = np.asarray(logits, dtype=np.float64)
    truths = np.asarray(truths)
    if logits.shape != truths.shape:
        raise InputError(f"logits {logits.shape} and truths {truths.shape} differ")
    aucs = dict(zip(vocab_labels, _per_label_auc(logits, truths)))
    prf = overall_prf((logits > 0).astype(np.int64), truths)
    flags = prf.pop("prf_flags")
    report = {
        "per_label_auc": aucs,
        "mean_auc": _mean_defined(aucs.values()),
        **prf,
        "undefined_labels": [label for label, auc in aucs.items() if auc is None],
        "prf_flags": flags,
    }
    roc = {label: roc_curve(logits[:, j], truths[:, j])
           for j, (label, auc) in enumerate(aucs.items()) if auc is not None}
    return report, roc

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
    return _Ranking(scores[:, None], labels[:, None]).aucs()[0]


def _average_ranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks with ties averaged."""
    ranking = _Ranking(values[:, None], np.zeros((len(values), 1)))
    ranks = np.empty(len(values), dtype=np.float64)
    ranks[ranking.order[0]] = np.repeat(ranking.mean_ranks(),
                                        ranking.last - ranking.first + 1)
    return ranks


class _Ranking:
    """Every column of N x C scores (N >= 1) ranked by one stable descending
    sort, as its runs of equal scores (tie groups).

    ``order[j]`` lists column j's rows from the highest score down, and
    ``ranked[j]`` their scores. Column j's groups are
    ``bounds[j]:bounds[j + 1]``, in that order; group g spans sorted
    positions ``first[g]`` to ``last[g]``, and ``tp[g]`` positives (truth 1)
    score at or above it, so a column's last tp is its positive count.
    """

    def __init__(self, scores: np.ndarray, truths: np.ndarray):
        n, c = scores.shape
        self.order = np.argsort(-scores.T, axis=1, kind="stable")
        self.ranked = np.take_along_axis(scores.T, self.order, axis=1)
        ends = np.empty((c, n), dtype=bool)
        np.not_equal(self.ranked[:, 1:], self.ranked[:, :-1], out=ends[:, :-1])
        ends[:, -1] = True
        flat = np.flatnonzero(ends)
        self.bounds = np.concatenate(([0], np.cumsum(ends.sum(axis=1))))
        self.last = flat - np.repeat(np.arange(0, c * n, n), np.diff(self.bounds))
        self.first = np.empty_like(self.last)
        self.first[1:] = self.last[:-1] + 1
        self.first[self.bounds[:-1]] = 0
        hits = np.take_along_axis(truths.T == 1, self.order, axis=1)
        self.tp = hits.cumsum(axis=1).ravel()[flat]

    def mean_ranks(self) -> np.ndarray:
        """Each group's 1-based ascending rank, ties averaged: n - (first +
        last) / 2 over its descending positions, a half-integer."""
        return self.ranked.shape[1] - (self.first + self.last) / 2.0

    def aucs(self) -> list:
        """Each column's Mann-Whitney AUC, None where only one class is
        present. The positives' rank sums are sums of half-integers, exact
        in any summing order, so each AUC has the bits of a per-column
        rank sum."""
        n, starts = self.ranked.shape[1], self.bounds[:-1]
        in_group = np.diff(self.tp, prepend=0)
        in_group[starts] = self.tp[starts]
        rank_sum = np.add.reduceat(in_group * self.mean_ranks(), starts)
        n_pos = self.tp[self.bounds[1:] - 1]
        return [float((s - p * (p + 1) / 2.0) / (p * (n - p))) if 0 < p < n else None
                for s, p in zip(rank_sum.tolist(), n_pos.tolist())]

    def counts(self, j: int):
        """Column j's curve as (threshold, fp, tp) arrays, one entry per
        group: its first score, and the negatives and positives scored at
        or above it."""
        part = slice(self.bounds[j], self.bounds[j + 1])
        tp = self.tp[part]
        return self.ranked[j, self.first[part]], self.last[part] + 1 - tp, tp


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
    pos = np.asarray(labels) == 1
    if pos.all() or not pos.any():
        raise InputError("ROC curve needs both classes present")
    return curve_of(*_Ranking(scores[:, None], pos[:, None]).counts(0))


def curve_of(threshold: np.ndarray, fp: np.ndarray, tp: np.ndarray) -> np.ndarray:
    """The roc_curve array of one column's (threshold, fp, tp) groups, whose
    last fp and tp are its class counts: fpr is fp / n_neg, tpr tp / n_pos."""
    # a tie group's threshold is its first score: -0.0 and 0.0 tie
    return np.concatenate(([[np.inf, 0.0, 0.0]],
                           np.column_stack((threshold, fp / fp[-1], tp / tp[-1]))))


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


# Columns are ranked in blocks of at most this many logits (and at least one
# column). One sort serves a whole block, and a block's arrays stay small
# enough for the allocator to reuse between blocks and calls: one 20,000 x 14
# block faulted in about 18 MB of fresh pages per call, which made it slower
# than sorting each column alone.
_RANK_BLOCK = 1 << 16


def _rankings(logits: np.ndarray, truths: np.ndarray):
    """The ranking of each block of label columns, in column order, for
    their AUCs and curves; a generator, so a caller that takes only AUCs
    holds one block at a time.

    Raises NumericalError on a non-finite logit, which no AUC can rank.
    """
    logits = np.asarray(logits, dtype=np.float64)
    truths = np.asarray(truths)
    finite = np.isfinite(logits)
    if not finite.all():
        raise NumericalError(f"{int((~finite).sum())} of {logits.size} logits are "
                             f"non-finite (first: {float(logits[~finite][0])!r})")
    if not len(logits):
        raise InputError("an AUC needs at least one sample")
    n, c = logits.shape
    width = max(1, _RANK_BLOCK // n)
    return (_Ranking(logits[:, j:j + width], truths[:, j:j + width])
            for j in range(0, c, width))


def _mean_defined(aucs):
    defined = [a for a in aucs if a is not None]
    return float(np.mean(defined)) if defined else None


def mean_val_auc(logits: np.ndarray, truths: np.ndarray):
    """Mean of the defined per-label AUCs, or None if none are defined."""
    return _mean_defined([a for ranking in _rankings(logits, truths)
                          for a in ranking.aucs()])


def build_report(logits: np.ndarray, truths: np.ndarray, vocab_labels: list[str]):
    """Full evaluation of logit scores against binary truths: (report, roc).

    ``report`` holds the metrics.json fields in file order: per_label_auc
    (label -> AUC or None), mean_auc, op, or, of1, confusion_totals,
    undefined_labels and prf_flags. ``roc`` maps each label with a defined
    AUC, in vocabulary order, to its curve's (threshold, fp, tp) arrays:
    one entry per distinct logit, descending, with the negatives and
    positives scored at or above it, so ``curve_of`` gives its roc_curve.
    Every AUC and curve comes from one sort per block of columns (the
    whole split up to _RANK_BLOCK logits).
    """
    logits = np.asarray(logits, dtype=np.float64)
    truths = np.asarray(truths)
    if logits.shape != truths.shape:
        raise InputError(f"logits {logits.shape} and truths {truths.shape} differ")
    rankings = list(_rankings(logits, truths))
    aucs = dict(zip(vocab_labels, [a for ranking in rankings for a in ranking.aucs()]))
    prf = overall_prf((logits > 0).astype(np.int64), truths)
    flags = prf.pop("prf_flags")
    report = {
        "per_label_auc": aucs,
        "mean_auc": _mean_defined(aucs.values()),
        **prf,
        "undefined_labels": [label for label, auc in aucs.items() if auc is None],
        "prf_flags": flags,
    }
    curves = (ranking.counts(k) for ranking in rankings for k in range(len(ranking.ranked)))
    roc = {label: curve for (label, auc), curve in zip(aucs.items(), curves)
           if auc is not None}
    return report, roc

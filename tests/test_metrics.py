import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import oracles
import io
from unittest import mock

from labelbridge import (auc_score, build_report, cli, metrics, overall_prf, roc_curve, sigmoid,
                         top_k_table)
from labelbridge.errors import InputError, NumericalError
from labelbridge.metrics import _average_ranks, curve_of, mean_val_auc
from oracles import roc_points, trapezoid_area


def brute_force_auc(scores, labels):
    pos = [s for s, l in zip(scores, labels) if l == 1]
    neg = [s for s, l in zip(scores, labels) if l == 0]
    if not pos or not neg:
        return None
    wins = 0.0
    for p in pos:
        for q in neg:
            if p > q:
                wins += 1.0
            elif p == q:
                wins += 0.5
    return wins / (len(pos) * len(neg))


class TestAuc:
    def test_perfect_ranking(self):
        assert auc_score([0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0]) == 1.0

    def test_three_of_four_pairs(self):
        assert auc_score([0.9, 0.7, 0.3, 0.1], [1, 0, 1, 0]) == 0.75

    def test_single_class_undefined(self):
        assert auc_score([0.4, 0.6], [1, 1]) is None
        assert auc_score([0.4, 0.6], [0, 0]) is None

    def test_all_ties_is_half(self):
        assert auc_score([0.5, 0.5, 0.5, 0.5], [1, 0, 1, 0]) == 0.5

    def test_matches_brute_force(self):
        rng = np.random.Generator(np.random.PCG64(1))
        for _ in range(100):
            n = int(rng.integers(2, 50))
            scores = rng.choice([0.1, 0.25, 0.5, 0.8], size=n)
            labels = rng.integers(0, 2, size=n)
            expected = brute_force_auc(scores.tolist(), labels.tolist())
            got = auc_score(scores, labels)
            if expected is None:
                assert got is None
            else:
                assert got == pytest.approx(expected, abs=1e-12)

    def test_invariant_under_increasing_transform(self):
        rng = np.random.Generator(np.random.PCG64(2))
        scores = rng.standard_normal(40)
        labels = rng.integers(0, 2, size=40)
        if labels.sum() in (0, 40):
            labels[0] = 1 - labels[0]
        base = auc_score(scores, labels)
        assert auc_score(np.exp(scores), labels) == pytest.approx(base, abs=1e-12)
        assert auc_score(3 * scores + 7, labels) == pytest.approx(base, abs=1e-12)


# scores drawn from a few values (so ties are common) or from all finite floats
SCORES = st.one_of(
    st.lists(st.sampled_from([-1.5, -0.0, 0.0, 0.25, 0.5, 3.0]), min_size=1, max_size=40),
    st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=40))


@st.composite
def scored_labels(draw):
    scores = draw(SCORES)
    labels = draw(st.lists(st.integers(0, 1), min_size=len(scores), max_size=len(scores)))
    return np.array(scores), np.array(labels)


class TestAucProperties:
    @settings(max_examples=200, deadline=None)
    @given(scored_labels())
    def test_equals_pairwise_count(self, case):
        scores, labels = case
        expected = brute_force_auc(scores.tolist(), labels.tolist())
        got = auc_score(scores, labels)
        if expected is None:
            assert got is None
        else:
            assert got == pytest.approx(expected, abs=1e-12)

    @settings(max_examples=200, deadline=None)
    @given(scored_labels(), st.lists(st.floats(1e-3, 1e3), min_size=40, max_size=40),
           st.floats(-1e6, 1e6))
    def test_unchanged_by_strictly_increasing_map(self, case, gaps, start):
        scores, labels = case
        # send the k-th smallest distinct score to start + gaps[0] + ... + gaps[k]
        distinct, position = np.unique(scores, return_inverse=True)
        targets = start + np.cumsum(gaps[:len(distinct)])
        assume(np.all(np.diff(targets) > 0))
        assert auc_score(targets[position], labels) == auc_score(scores, labels)


class TestOverallPrf:
    def test_exact_predictions(self):
        truths = np.array([[1, 0], [0, 1]])
        result = overall_prf(truths, truths)
        assert (result["op"], result["or"], result["of1"]) == (1.0, 1.0, 1.0)

    def test_hand_counted_example(self):
        truths = np.array([[1, 0], [1, 1]])
        preds = np.array([[1, 1], [0, 1]])
        result = overall_prf(preds, truths)
        assert result["confusion_totals"] == {"n_correct": 2, "n_pred": 3, "n_gold": 3}
        assert result["op"] == pytest.approx(2 / 3)
        assert result["or"] == pytest.approx(2 / 3)
        assert result["of1"] == pytest.approx(2 / 3)

    def test_no_predicted_positives_flagged(self):
        truths = np.array([[1, 0], [1, 1]])
        preds = np.zeros_like(truths)
        result = overall_prf(preds, truths)
        assert result["op"] == 0.0 and result["or"] == 0.0 and result["of1"] == 0.0
        assert "no_predicted_positives" in result["prf_flags"]

    def test_shape_mismatch(self):
        with pytest.raises(InputError):
            overall_prf(np.zeros((2, 3)), np.zeros((2, 2)))


class TestRoc:
    def test_perfect_separation_two_samples(self):
        assert roc_points([0.9, 0.1], [1, 0]) == [(0.0, 0.0), (0.0, 1.0), (1.0, 1.0)]

    def test_all_equal_scores(self):
        points = roc_points([0.5, 0.5, 0.5, 0.5], [1, 0, 1, 0])
        assert points == [(0.0, 0.0), (1.0, 1.0)]
        assert trapezoid_area(points) == 0.5

    def test_starts_origin_ends_corner_and_monotone(self):
        rng = np.random.Generator(np.random.PCG64(3))
        scores = rng.standard_normal(30)
        labels = rng.integers(0, 2, size=30)
        labels[0], labels[1] = 0, 1
        points = roc_points(scores, labels)
        assert points[0] == (0.0, 0.0)
        assert points[-1] == (1.0, 1.0)
        for (x0, y0), (x1, y1) in zip(points, points[1:]):
            assert x1 >= x0 and y1 >= y0

    def test_area_equals_auc_on_random_instances(self):
        rng = np.random.Generator(np.random.PCG64(4))
        for _ in range(100):
            n = int(rng.integers(2, 60))
            scores = rng.choice([0.0, 0.2, 0.4, 0.9], size=n)
            labels = rng.integers(0, 2, size=n)
            if labels.min() == labels.max():
                continue
            assert trapezoid_area(roc_points(scores, labels)) == pytest.approx(
                auc_score(scores, labels), abs=1e-10)

    def test_single_class_is_error(self):
        with pytest.raises(InputError):
            roc_points([0.1, 0.2], [1, 1])

    def test_thresholds_descend(self):
        curve = roc_curve([0.1, 0.5, 0.3], [1, 0, 1])
        thresholds = [thr for thr, _, _ in curve]
        assert thresholds[0] == float("inf")
        assert thresholds[1:] == [0.5, 0.3, 0.1]


def tied_scores(n, seed, ties):
    """n scores whose ties follow ``ties``: none, rounded, all equal, signed zeros."""
    rng = np.random.Generator(np.random.PCG64(seed))
    scores = rng.standard_normal(n)
    if ties == "rounded":
        scores = np.round(scores, 1)
    elif ties == "equal":
        scores = np.full(n, scores[0])
    elif ties == "zeros":
        scores = np.where(rng.random(n) < 0.5, -0.0, 0.0)
        scores[rng.random(n) < 0.3] = 1.0
    return scores


TIE_MODES = st.sampled_from(["none", "rounded", "equal", "zeros"])


@st.composite
def logit_matrices(draw):
    """(N x C logits, N x C 0/1 truths), N from 1: the logits' ties follow a
    tie mode, and each column's truths are mixed, all 1 or all 0."""
    n, c = draw(st.integers(1, 80)), draw(st.integers(1, 12))
    seed = draw(st.integers(0, 2**32 - 2))
    logits = tied_scores(n * c, seed, draw(TIE_MODES)).reshape(n, c)
    rng = np.random.Generator(np.random.PCG64(seed + 1))
    truths = rng.integers(0, 2, (n, c))
    classes = rng.integers(0, 3, c)
    truths[:, classes == 1] = 1
    truths[:, classes == 2] = 0
    return logits, truths


class TestAgainstLoopOracles:
    """The sorted-run numpy ranks and ROC equal the one-at-a-time tie loops."""

    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 3000), st.integers(0, 2**32 - 1), TIE_MODES)
    def test_ranks_equal_loop(self, n, seed, ties):
        scores = tied_scores(n, seed, ties)
        assert np.array_equal(_average_ranks(scores), oracles.average_ranks(scores))

    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 3000), st.integers(0, 2**32 - 1), TIE_MODES,
           st.sampled_from(["mixed", "positive", "negative"]))
    def test_roc_equals_loop(self, n, seed, ties, classes):
        scores = tied_scores(n, seed, ties)
        labels = {"mixed": np.random.Generator(np.random.PCG64(seed + 1)).integers(0, 2, n),
                  "positive": np.ones(n, dtype=int),
                  "negative": np.zeros(n, dtype=int)}[classes]
        if labels.min() == labels.max():
            for roc in (roc_curve, oracles.roc_curve):
                with pytest.raises(InputError, match="both classes"):
                    roc(scores, labels)
            return
        got, expected = roc_curve(scores, labels).tolist(), oracles.roc_curve(scores, labels)
        assert got == expected
        assert repr(got) == repr(expected)  # == alone cannot tell -0.0 from 0.0

    @settings(max_examples=150, deadline=None)
    @given(logit_matrices(), st.integers(1, 1000))
    def test_one_sort_equals_the_column_loops(self, case, block):
        """Every AUC and curve that build_report and mean_val_auc take from
        one sort per block of columns (of any size, down to one column), and
        the one-column auc_score and roc_curve, equal the per-column tie
        loops to the bit."""
        logits, truths = case
        labels = [f"c{j}" for j in range(logits.shape[1])]
        with mock.patch.object(metrics, "_RANK_BLOCK", block):
            report, roc = build_report(logits, truths, labels)
            mean = mean_val_auc(logits, truths)
        expected = [oracles.auc_score(logits[:, j], truths[:, j]) for j in range(len(labels))]
        assert repr(list(report["per_label_auc"].values())) == repr(expected)
        defined = [a for a in expected if a is not None]
        assert repr(mean) == repr(float(np.mean(defined)) if defined else None)
        assert repr(report["mean_auc"]) == repr(mean)
        assert list(roc) == [label for label, a in zip(labels, expected) if a is not None]
        for j, label in enumerate(labels):
            scores, column = logits[:, j], truths[:, j]
            assert repr(auc_score(scores, column)) == repr(expected[j])
            if expected[j] is None:
                with pytest.raises(InputError, match="both classes"):
                    roc_curve(scores, column)
                continue
            want = repr(oracles.roc_curve(scores, column))
            assert repr(curve_of(*roc[label]).tolist()) == want
            assert repr(roc_curve(scores, column).tolist()) == want

    @settings(max_examples=100, deadline=None)
    @given(logit_matrices(), st.data())
    def test_roc_csv_equals_the_row_writer(self, case, data):
        """roc.csv, one template per curve and one string per distinct
        rate, is the text the row-at-a-time writer gives, for label names
        that hold "%", "," or '"'."""
        logits, truths = case
        names = st.text(alphabet='%,"ds() x', max_size=5)
        labels = [f"{data.draw(names)}{j}" for j in range(logits.shape[1])]
        _, roc = build_report(logits, truths, labels)
        written = io.StringIO()
        cli._write_roc(written, roc)
        assert written.getvalue() == oracles.roc_csv(
            {label: oracles.roc_curve(logits[:, j], truths[:, j])
             for j, label in enumerate(labels) if label in roc})

    def test_tie_group_threshold_is_its_first_score(self):
        # -0.0 and 0.0 tie; the group reports the one that sorts first
        assert repr(roc_curve([-0.0, 0.0, 1.0], [0, 1, 1]).tolist()[2][0]) == "-0.0"
        assert repr(roc_curve([0.0, -0.0, 1.0], [0, 1, 1]).tolist()[2][0]) == "0.0"

    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 60), st.integers(1, 20), st.integers(0, 2**32 - 1), TIE_MODES,
           st.data())
    def test_top_k_equals_row_loop(self, n, c, seed, ties, data):
        logits = tied_scores(n * c, seed, ties).reshape(n, c)
        k = data.draw(st.integers(1, c))
        indices, scores = top_k_table(logits, k)
        expected_indices, expected_scores = oracles.top_k_table(logits, k)
        assert indices.tolist() == expected_indices
        assert np.array_equal(scores.view(np.uint64),
                              np.array(expected_scores).reshape(n, k).view(np.uint64))


class TestTopK:
    def test_full_ranking(self):
        indices, _ = top_k_table(np.array([[0.0, 2.0, -1.0]]), 3)
        assert indices.tolist() == [[1, 0, 2]]

    def test_dominant_logit_first(self):
        indices, _ = top_k_table(np.array([[5.0, 0.1, 0.2]]), 1)
        assert indices[0, 0] == 0

    def test_ties_break_by_lower_index(self):
        indices, _ = top_k_table(np.array([[1.0, 1.0, 2.0]]), 3)
        assert indices.tolist() == [[2, 0, 1]]

    def test_scores_are_sigmoids(self):
        indices, scores = top_k_table(np.array([[0.0, 4.0]]), 2)
        assert indices.tolist() == [[1, 0]]
        assert scores[0, 0] == pytest.approx(float(sigmoid(np.array([4.0]))[0]))
        assert scores[0, 1] == pytest.approx(0.5)

    def test_k_bounded(self):
        with pytest.raises(InputError):
            top_k_table(np.zeros((1, 2)), 3)

    @pytest.mark.parametrize("k", [0, -1])
    def test_k_below_one_rejected(self, k):
        with pytest.raises(InputError, match="k must be >= 1"):
            top_k_table(np.zeros((1, 3)), k)


class TestReport:
    def test_mean_over_defined_labels_only(self):
        logits = np.array([[2.0, 1.0], [-2.0, 1.0], [1.0, 1.0], [-1.0, 1.0]])
        truths = np.array([[1, 1], [0, 1], [1, 1], [0, 1]])  # label 1 all-positive
        report, roc = build_report(logits, truths, ["a", "b"])
        assert report["per_label_auc"]["a"] == 1.0
        assert report["per_label_auc"]["b"] is None
        assert report["mean_auc"] == 1.0
        assert report["undefined_labels"] == ["b"]
        assert "b" not in roc

    def test_thresholding_is_logit_positive(self):
        logits = np.array([[0.0, 1e-9], [-1.0, 2.0]])
        truths = np.array([[0, 1], [0, 1]])
        report, _ = build_report(logits, truths, ["a", "b"])
        # logit exactly 0 (confidence exactly 0.5) predicts negative
        assert report["confusion_totals"]["n_pred"] == 2
        assert report["confusion_totals"]["n_correct"] == 2

    def test_mean_auc_permutation_invariant(self):
        rng = np.random.Generator(np.random.PCG64(6))
        logits = rng.standard_normal((20, 4))
        truths = rng.integers(0, 2, size=(20, 4))
        truths[0] = [0, 0, 0, 0]
        truths[1] = [1, 1, 1, 1]
        base = build_report(logits, truths, list("abcd"))[0]["mean_auc"]
        perm = [2, 0, 3, 1]
        permuted = build_report(logits[:, perm], truths[:, perm],
                                [list("abcd")[j] for j in perm])[0]["mean_auc"]
        assert permuted == pytest.approx(base, abs=1e-12)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_logit_rejected(self, bad):
        logits = np.array([[2.0, 1.0], [-2.0, 1.0], [1.0, -1.0]])
        truths = np.array([[1, 1], [0, 0], [1, 0]])
        logits[1, 1] = bad
        with pytest.raises(NumericalError, match="1 of 6 logits are non-finite"):
            build_report(logits, truths, ["a", "b"])
        with pytest.raises(NumericalError, match="1 of 6 logits are non-finite"):
            mean_val_auc(logits, truths)


import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from labelbridge import (LabelVocabulary, TrainConfig, binarize,
                         build_correlation_graph, conditional_matrix,
                         count_cooccurrence, graph_from_conditional, normalize,
                         reweight, synthetic_embeddings)
from labelbridge.errors import InputError
from labelbridge.graph import REWEIGHT_AXES
from labelbridge.training import build_network

A_, B_, C_ = 0, 1, 2  # micro-dataset order [a, b, c]


def brute_force_counts(mat):
    n, c = mat.shape
    single = np.zeros(c, dtype=np.int64)
    pair = np.zeros((c, c), dtype=np.int64)
    for s in range(n):
        for i in range(c):
            if mat[s, i]:
                single[i] += 1
            for j in range(c):
                if mat[s, i] and mat[s, j]:
                    pair[i, j] += 1
    return single, pair


class TestCounts:
    def test_micro_dataset_single_counts(self, micro_labels):
        counts = count_cooccurrence(micro_labels, 3)
        assert np.diag(counts).tolist() == [3, 3, 1]

    def test_micro_dataset_pair_counts(self, micro_labels):
        counts = count_cooccurrence(micro_labels, 3)
        assert counts[A_, B_] == 2
        assert counts[B_, C_] == 1
        assert counts[A_, C_] == 0

    def test_all_zero_samples(self):
        mat = np.zeros((4, 3), dtype=np.int64)
        counts = count_cooccurrence(mat, 3)
        assert not np.diag(counts).any()
        assert not counts.any()

    def test_matches_brute_force_on_random_matrices(self):
        rng = np.random.Generator(np.random.PCG64(0))
        for _ in range(25):
            n = int(rng.integers(1, 40))
            c = int(rng.integers(2, 8))
            mat = rng.integers(0, 2, size=(n, c))
            counts = count_cooccurrence(mat, c)
            single, pair = brute_force_counts(mat)
            assert np.array_equal(np.diag(counts), single)
            assert np.array_equal(counts, pair)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 300), st.integers(1, 40), st.floats(0.0, 1.0),
           st.integers(0, 2**32 - 1))
    def test_counts_equal_int64_product(self, n, c, density, seed):
        """The float64 GEMM gives the exact integers of the int64 product."""
        rng = np.random.Generator(np.random.PCG64(seed))
        mat = (rng.random((n, c)) < density).astype(np.int64)
        counts = count_cooccurrence(mat, c)
        pair = mat.T @ mat
        assert counts.dtype == np.int64
        assert np.array_equal(counts, pair)
        assert np.array_equal(np.diag(counts), np.diag(pair))

    def test_invariants(self, micro_labels):
        counts = count_cooccurrence(micro_labels, 3)
        assert np.array_equal(counts, counts.T)
        upper = np.minimum.outer(np.diag(counts), np.diag(counts))
        assert np.all(counts <= upper)

    def test_empty_sample_list_fatal(self):
        with pytest.raises(InputError):
            count_cooccurrence([], 3)


class TestConditionalMatrix:
    def test_micro_dataset_values(self, micro_labels):
        p = conditional_matrix(count_cooccurrence(micro_labels, 3))
        assert p[A_, B_] == pytest.approx(2 / 3, abs=1e-15)
        assert p[B_, C_] == 1.0
        assert p[C_, A_] == 0.0
        assert p[C_, B_] == pytest.approx(1 / 3, abs=1e-15)

    def test_zero_count_column_is_zero(self):
        p = conditional_matrix(np.array([[2, 0], [0, 0]]))
        assert p[:, 1].tolist() == [0.0, 0.0]
        assert p[0, 0] == 1.0

    def test_detailed_balance_with_counts(self):
        rng = np.random.Generator(np.random.PCG64(1))
        mat = rng.integers(0, 2, size=(30, 5))
        counts = count_cooccurrence(mat, 5)
        p = conditional_matrix(counts)
        t = np.diag(counts)
        for i in range(5):
            for j in range(5):
                if t[i] > 0 and t[j] > 0:
                    assert p[i, j] * t[j] == pytest.approx(p[j, i] * t[i], abs=1e-9)


class TestBinarize:
    def test_micro_dataset_retention(self, micro_labels):
        p = conditional_matrix(count_cooccurrence(micro_labels, 3))
        a = binarize(p, 0.3)
        assert a[A_, B_] == 1   # 0.667 > 0.3
        assert a[C_, B_] == 1   # 0.333 > 0.3
        assert a[A_, C_] == 0

    def test_boundary_equal_epsilon_drops(self):
        p = conditional_matrix(np.array([[10, 3], [3, 10]]))
        assert p[0, 1] == 0.3
        assert binarize(p, 0.3)[0, 1] == 0

    def test_diagonal_kept_for_any_epsilon_when_occurring(self, micro_labels):
        p = conditional_matrix(count_cooccurrence(micro_labels, 3))
        a = binarize(p, 1.0)
        assert np.array_equal(a, np.eye(3, dtype=np.int64))

    def test_diagonal_zero_for_absent_label(self):
        a = binarize(conditional_matrix(np.array([[2, 0], [0, 0]])), 0.3)
        assert a[1, 1] == 0

    def test_monotone_in_epsilon(self, micro_labels):
        p = conditional_matrix(count_cooccurrence(micro_labels, 3))
        previous = binarize(p, 0.0)
        for eps in np.linspace(0.1, 1.0, 10):
            current = binarize(p, float(eps))
            assert np.all(current <= previous)
            previous = current

    def test_epsilon_range_checked(self):
        with pytest.raises(InputError):
            binarize(np.eye(2), 1.5)


class TestReweight:
    def test_micro_dataset_values(self, micro_labels):
        p = conditional_matrix(count_cooccurrence(micro_labels, 3))
        ea = reweight(binarize(p, 0.3), 0.2)
        assert ea[B_, A_] == pytest.approx(0.1, abs=1e-15)
        assert ea[B_, C_] == pytest.approx(0.1, abs=1e-15)
        assert np.diag(ea).tolist() == pytest.approx([0.8, 0.8, 0.8], abs=1e-15)

    def test_isolated_node(self):
        a = np.array([[1, 0], [0, 1]])
        ea = reweight(a, 0.2)
        assert ea[0, 1] == 0.0 and ea[1, 0] == 0.0
        assert np.diag(ea).tolist() == [0.8, 0.8]

    def test_row_mass_is_delta(self):
        rng = np.random.Generator(np.random.PCG64(4))
        for delta in np.arange(0.1, 0.95, 0.1):
            a = rng.integers(0, 2, size=(6, 6))
            np.fill_diagonal(a, 1)
            ea = reweight(a, float(delta))
            off = a.copy()
            np.fill_diagonal(off, 0)
            for i in range(6):
                row_off = ea[i].sum() - ea[i, i]
                if off[i].sum() > 0:
                    assert row_off == pytest.approx(delta, abs=1e-9)
                    assert ea[i].sum() == pytest.approx(1.0, abs=1e-9)
                else:
                    assert row_off == 0.0

    def test_column_axis_variant(self):
        a = np.array([[1, 1, 1], [1, 1, 0], [0, 1, 1]])
        ea = reweight(a, 0.3, axis="col")
        # column b has two retained off-diagonal entries (rows a and c)
        assert ea[A_, B_] == pytest.approx(0.15, abs=1e-15)
        assert ea[C_, B_] == pytest.approx(0.15, abs=1e-15)
        assert ea[B_, A_] == pytest.approx(0.3, abs=1e-15)

    def test_delta_range_checked(self):
        with pytest.raises(InputError):
            reweight(np.eye(2), 1.0)


class TestNormalize:
    def test_micro_dataset_is_fixed_point(self, micro_labels):
        p = conditional_matrix(count_cooccurrence(micro_labels, 3))
        ea = reweight(binarize(p, 0.3), 0.2)
        assert np.allclose(normalize(ea), ea, atol=1e-15)

    def test_identity(self):
        assert np.array_equal(normalize(np.eye(3)), np.eye(3))

    def test_scale_invariance(self):
        ea = np.array([[0.8, 0.2], [0.1, 0.9]])
        scaled = ea.copy()
        scaled[0] *= 2.0
        assert np.allclose(normalize(scaled), normalize(ea), atol=1e-15)

    def test_zero_row_stays_zero(self):
        ea = np.array([[0.0, 0.0], [0.3, 0.7]])
        out = normalize(ea)
        assert out[0].tolist() == [0.0, 0.0]
        assert out[1].sum() == pytest.approx(1.0, abs=1e-12)

    def test_idempotent(self):
        rng = np.random.Generator(np.random.PCG64(9))
        ea = rng.random((5, 5))
        once = normalize(ea)
        assert np.allclose(normalize(once), once, atol=1e-12)

    def test_rejects_negative_entries(self):
        with pytest.raises(InputError):
            normalize(np.array([[0.5, -0.1], [0.2, 0.8]]))


class TestBuildGraph:
    def test_full_pipeline_invariants(self, micro_labels):
        g = build_correlation_graph(count_cooccurrence(micro_labels, 3), 0.3, 0.2)
        assert np.allclose(g["EA_norm"].sum(axis=1), 1.0, atol=1e-9)
        assert np.allclose(g["EA_norm"], g["EA"], atol=1e-12)
        assert g["epsilon"] == 0.3 and g["delta"] == 0.2

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 60), st.integers(2, 12), st.floats(0.0, 1.0),
           st.floats(0.0, 1.0), st.floats(0.0, 1.0, exclude_max=True),
           st.sampled_from(REWEIGHT_AXES), st.integers(0, 2**32 - 1))
    def test_ea_norm_is_row_stochastic(self, n, c, density, epsilon, delta, axis, seed):
        """Every row keeps its diagonal 1 - delta > 0, so none is all zero;
        build_network derives the same EA_norm from P and the config."""
        rng = np.random.Generator(np.random.PCG64(seed))
        mat = (rng.random((n, c)) < density).astype(np.int64)
        p = conditional_matrix(count_cooccurrence(mat, c))
        ea_norm = graph_from_conditional(p, epsilon, delta, axis)["EA_norm"]
        assert np.all(ea_norm >= 0)
        assert np.max(np.abs(ea_norm.sum(axis=1) - 1.0)) <= 1e-12
        config = TrainConfig(epsilon=epsilon, delta=delta, reweight_axis=axis,
                             gcn_dims=[2, 3, 2], d1=2, d3=2, groups=1, group_size=2)
        vocab = LabelVocabulary([f"L{j}" for j in range(c)])
        network = build_network(config, p, synthetic_embeddings(vocab, 2, 0), c, 2)
        assert np.array_equal(network.propagation.matrix, ea_norm)

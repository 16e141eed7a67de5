import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from destinations import assert_same_bits, destinations, separate
from gradcheck import central_diff, max_rel_error
from labelbridge import SyntheticSpec, ToyMlp, generate_synthetic_dataset, to_dataset
from labelbridge.errors import InputError
from labelbridge.training import draw_tensors


def spec(**kw):
    base = dict(num_labels=3, feature_dim=6, n_samples=50, dependency_edges=[],
                base_rates=[0.5, 0.0, 0.5], noise_sigma=0.0, seed=9)
    base.update(kw)
    return SyntheticSpec(**base)


def identity_mlp():
    """A 3 -> 3 -> 3 toy MLP with identity weights and zero biases."""
    arrays = {"backbone.w1": np.eye(3), "backbone.b1": np.zeros(3),
              "backbone.w2": np.eye(3), "backbone.b2": np.zeros(3)}
    return ToyMlp(3, 3, 3, lambda name, shape, bound: arrays[name])


class TestSyntheticGenerator:
    def test_deterministic_per_spec(self):
        a = to_dataset(*generate_synthetic_dataset(spec()))
        b = to_dataset(*generate_synthetic_dataset(spec()))
        assert a.ids == b.ids
        assert np.array_equal(a.labels, b.labels)
        assert np.array_equal(a.features, b.features)

    def test_output_pinned(self):
        # exact output for a fixed spec: any change to the draw order or to
        # the feature sum shows here
        samples, records = generate_synthetic_dataset(SyntheticSpec(
            num_labels=4, feature_dim=3, n_samples=6,
            dependency_edges=[(0, 1, 0.5), (1, 2, 0.7), (3, 0, 0.9)],
            base_rates=[0.5, 0.2, 0.3, 0.4], noise_sigma=0.25, seed=11))
        assert [s.sample_id for s in samples] == [f"s{k:05d}" for k in range(6)]
        assert [s.labels.tolist() for s in samples] == [
            [0, 0, 1, 0], [0, 0, 1, 0], [1, 1, 1, 1], [1, 1, 1, 0], [1, 1, 1, 1],
            [1, 1, 1, 0]]
        assert samples[0].labels.dtype == np.int64
        assert [r.sample_id for r in records] == [s.sample_id for s in samples]
        assert [r.features.tolist() for r in records] == [
            [0.8115459156560961, -0.11020912929044312, 0.7554785974591136],
            [0.437776077851598, -0.5396618091465873, 0.590161726115323],
            [-0.9681758573069925, 1.0496297800074552, 0.9364843461894391],
            [0.06672005633707848, 0.36901315796033674, 1.0716601295825923],
            [-0.9669743577987329, 1.299793096444518, 0.9626564785559519],
            [0.13050161509156308, -0.13480292156611884, 0.883714462992585]]

    def test_to_dataset_keeps_rows_aligned(self):
        samples, records = generate_synthetic_dataset(spec(n_samples=7))
        data = to_dataset(samples, records)
        assert data.ids == [s.sample_id for s in samples]
        assert data.labels.dtype == np.int64 and data.features.dtype == np.float64
        for k, (s, r) in enumerate(zip(samples, records)):
            assert np.array_equal(data.labels[k], s.labels)
            assert np.array_equal(data.features[k], r.features)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 40), st.integers(0, 2**32 - 1), st.data())
    def test_rows_are_the_whole_generations_rows_bit_for_bit(self, n, seed, data):
        """A row subset, in any order, takes each kept sample's labels and
        features from the same draws as the whole dataset; a skipped sample
        still draws, so the stream after it is unchanged."""
        s = spec(n_samples=n, seed=seed, dependency_edges=[(0, 1, 0.6), (2, 1, 0.3)],
                 base_rates=[0.5, 0.2, 0.4], noise_sigma=0.3)
        rows = data.draw(st.lists(st.integers(0, n - 1), unique=True))
        all_samples, all_records = generate_synthetic_dataset(s)
        samples, records = generate_synthetic_dataset(s, np.array(rows, dtype=np.int64))
        assert [x.sample_id for x in samples] == [all_samples[i].sample_id for i in rows]
        assert [x.sample_id for x in records] == [all_records[i].sample_id for i in rows]
        for x, i in zip(samples, rows):
            assert x.labels.dtype == np.int64
            assert np.array_equal(x.labels, all_samples[i].labels)
        for x, i in zip(records, rows):
            assert np.array_equal(x.features.view(np.uint64),
                                  all_records[i].features.view(np.uint64))

    def test_no_rows_give_no_samples(self):
        assert generate_synthetic_dataset(spec(), []) == ([], [])
        data = to_dataset(*generate_synthetic_dataset(spec(), []))
        assert data.labels.dtype == np.int64 and data.features.dtype == np.float64

    @pytest.mark.parametrize("rows", [[50], [-1], [3, 50]])
    def test_rows_outside_the_samples_rejected(self, rows):
        with pytest.raises(InputError, match=r"sample rows must lie in \[0, 50\)"):
            generate_synthetic_dataset(spec(), rows)

    def test_full_strength_edge_forces_target(self):
        mat = to_dataset(*generate_synthetic_dataset(
            spec(dependency_edges=[(0, 1, 1.0)], n_samples=300))).labels
        assert mat[:, 0].sum() > 0
        assert np.all(mat[mat[:, 0] == 1, 1] == 1)

    def test_zero_noise_single_label_is_signature(self):
        samples, records = generate_synthetic_dataset(
            spec(base_rates=[1.0, 0.0, 0.0], n_samples=5))
        mat = to_dataset(samples, records).labels
        assert np.all(mat[:, 0] == 1) and not mat[:, 1:].any()
        sig = records[0].features
        assert np.linalg.norm(sig) == pytest.approx(1.0, abs=1e-12)
        for r in records[1:]:
            assert np.array_equal(r.features, sig)

    def test_empirical_conditional_matches_strength(self):
        mat = to_dataset(*generate_synthetic_dataset(
            spec(dependency_edges=[(0, 1, 0.7)], base_rates=[0.5, 0.0, 0.3],
                 n_samples=10_000))).labels
        on = mat[:, 0] == 1
        assert abs(mat[on, 1].mean() - 0.7) < 0.03

    def test_zero_strength_edges_keep_labels_independent(self):
        mat = to_dataset(*generate_synthetic_dataset(
            spec(dependency_edges=[(0, 1, 0.0), (1, 2, 0.0)],
                 base_rates=[0.4, 0.3, 0.5], n_samples=10_000))).labels
        for i, j, rate in [(0, 1, 0.3), (1, 2, 0.5), (0, 2, 0.5)]:
            on = mat[:, i] == 1
            assert abs(mat[on, j].mean() - rate) < 0.03

    def test_planted_edge_recovered_by_graph(self):
        from labelbridge import binarize, conditional_matrix, count_cooccurrence
        data = to_dataset(*generate_synthetic_dataset(
            spec(dependency_edges=[(0, 2, 0.9)], base_rates=[0.5, 0.3, 0.05],
                 n_samples=3000)))
        a = binarize(conditional_matrix(count_cooccurrence(data.labels, 3)), 0.3)
        assert a[2, 0] == 1  # P(target | source) is high

    def test_spec_validation(self):
        with pytest.raises(InputError):
            generate_synthetic_dataset(spec(dependency_edges=[(0, 0, 0.5)]))
        with pytest.raises(InputError):
            generate_synthetic_dataset(spec(base_rates=[0.5, 1.5, 0.0]))
        with pytest.raises(InputError):
            generate_synthetic_dataset(spec(noise_sigma=-1.0))
        with pytest.raises(InputError, match="seed must be >= 0"):
            generate_synthetic_dataset(spec(seed=-1))

    @pytest.mark.parametrize("sigma", [float("nan"), float("inf")])
    def test_non_finite_noise_sigma_rejected(self, sigma):
        with pytest.raises(InputError, match="noise_sigma must be finite"):
            generate_synthetic_dataset(spec(noise_sigma=sigma))


class TestToyMlp:
    def test_identity_passes_nonnegative_input(self):
        mlp = identity_mlp()
        x = np.array([[0.5, 0.0, 2.0]])
        assert np.array_equal(mlp.forward_batch(x)[0], x)

    def test_zero_input_zero_bias(self):
        mlp = identity_mlp()
        assert not mlp.forward_batch(np.zeros((1, 3)))[0].any()

    def test_finite_difference_gradients(self):
        rng = np.random.Generator(np.random.PCG64(17))
        mlp = ToyMlp(4, 5, 3, draw_tensors(rng))
        x = rng.standard_normal((2, 4))
        upstream = rng.standard_normal((2, 3))

        def loss():
            y, _ = mlp.forward_batch(x)
            return float((y * upstream).sum())

        _, cache = mlp.forward_batch(x)
        grads = destinations(mlp.parameters())
        assert mlp.backward_batch(cache, upstream, grads) is None
        named = mlp.parameters()
        numeric = central_diff(loss, list(named.values()))
        for name, num in zip(named, numeric):
            assert max_rel_error(grads[name], num) < 1e-4, name

    def test_gradients_written_into_destinations(self):
        rng = np.random.Generator(np.random.PCG64(22))
        mlp = ToyMlp(4, 5, 3, draw_tensors(rng))
        _, cache = mlp.forward_batch(rng.standard_normal((2, 4)))
        upstream = rng.standard_normal((2, 3))
        want, out = separate(mlp.parameters()), destinations(mlp.parameters())
        mlp.backward_batch(cache, upstream, want)
        mlp.backward_batch(cache, upstream, out)
        assert_same_bits(out, want)

    def test_zero_upstream_zero_grads(self):
        rng = np.random.Generator(np.random.PCG64(18))
        mlp = ToyMlp(4, 5, 3, draw_tensors(rng))
        _, cache = mlp.forward_batch(np.ones((2, 4)))
        grads = destinations(mlp.parameters())
        mlp.backward_batch(cache, np.zeros((2, 3)), grads)
        assert all(not g.any() for g in grads.values())

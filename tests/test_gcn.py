import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from destinations import assert_same_bits, destinations, separate
from forms import forced_form
from gradcheck import central_diff, max_rel_error
from labelbridge import (GcnStack, conditional_matrix, count_cooccurrence,
                         dims_for_depth, gcn_backward, gcn_forward,
                         graph_from_conditional)
from labelbridge.errors import ShapeError
from labelbridge.gcn import Propagation, compact_pays, leaky_relu, leaky_relu_grad
from labelbridge.training import draw_tensors


def reference_forward(thetas, w, ea, alpha, final_linear=False):
    """Straight-line loop reimplementation used as the oracle."""
    h = w.copy()
    for idx, theta in enumerate(thetas):
        z = np.zeros((h.shape[0], theta.shape[1]))
        for i in range(h.shape[0]):
            for k in range(theta.shape[1]):
                acc = 0.0
                for m in range(h.shape[0]):
                    for d in range(h.shape[1]):
                        acc += ea[i, m] * h[m, d] * theta[d, k]
                z[i, k] = acc
        if final_linear and idx == len(thetas) - 1:
            h = z
        else:
            h = np.where(z > 0, z, alpha * z)
    return h


def make_stack(dims, seed, alpha=0.2, final_linear=False):
    rng = np.random.Generator(np.random.PCG64(seed))
    return GcnStack(dims, draw_tensors(rng), alpha=alpha, final_linear=final_linear)


def fixed_stack(*thetas, alpha=0.2):
    """A stack that holds the given thetas."""
    arrays = {f"gcn.theta{i}": theta for i, theta in enumerate(thetas)}
    dims = [thetas[0].shape[0]] + [theta.shape[1] for theta in thetas]
    return GcnStack(dims, lambda name, shape, bound: arrays[name], alpha=alpha)


def backward(cache, upstream, input_grad=True):
    """gcn_backward into fresh destinations; returns (theta gradients, dW),
    dW all NaN, unwritten, without ``input_grad``."""
    out = destinations({**cache.stack.parameters(), "embeddings.W": cache.hs[0]})
    gcn_backward(cache, upstream, out, input_grad=input_grad)
    return [out[name] for name in cache.stack.parameters()], out["embeddings.W"]


class TestForward:
    def test_identity_propagation_nonnegative(self):
        w = np.array([[0.5, 1.0], [0.0, 2.0], [1.5, 0.25]])
        stack = fixed_stack(np.eye(2))
        lo, _ = gcn_forward(stack, w, Propagation(np.eye(3)))
        assert np.array_equal(lo, w)

    def test_negative_entry_scaled_by_alpha_per_layer(self):
        w = np.array([[1.0, -1.0], [0.5, 0.5]])
        one = fixed_stack(np.eye(2), alpha=0.2)
        lo, _ = gcn_forward(one, w, Propagation(np.eye(2)))
        assert lo[0, 1] == pytest.approx(-0.2)
        two = fixed_stack(np.eye(2), np.eye(2), alpha=0.2)
        lo2, _ = gcn_forward(two, w, Propagation(np.eye(2)))
        assert lo2[0, 1] == pytest.approx(-0.04)

    def test_matches_reference_implementation(self):
        rng = np.random.Generator(np.random.PCG64(12))
        w = rng.standard_normal((3, 4))
        ea = rng.random((3, 3))
        ea /= ea.sum(axis=1, keepdims=True)
        stack = make_stack([4, 5, 2], seed=1)
        lo, _ = gcn_forward(stack, w, Propagation(ea))
        ref = reference_forward(stack.thetas, w, ea, 0.2)
        assert np.allclose(lo, ref, atol=1e-10)

    def test_final_linear_flag(self):
        rng = np.random.Generator(np.random.PCG64(12))
        w = rng.standard_normal((3, 4))
        ea = np.eye(3)
        stack = make_stack([4, 2], seed=1, final_linear=True)
        lo, _ = gcn_forward(stack, w, Propagation(ea))
        ref = reference_forward(stack.thetas, w, ea, 0.2,
                                final_linear=True)
        assert np.allclose(lo, ref, atol=1e-12)

    def test_deterministic_repeat(self):
        rng = np.random.Generator(np.random.PCG64(2))
        w = rng.standard_normal((4, 3))
        ea = np.eye(4)
        stack = make_stack([3, 6, 2], seed=3)
        a, _ = gcn_forward(stack, w, Propagation(ea))
        b, _ = gcn_forward(stack, w, Propagation(ea))
        assert np.array_equal(a, b)

    def test_locality_with_identity_propagation(self):
        rng = np.random.Generator(np.random.PCG64(5))
        w = rng.standard_normal((4, 3))
        stack = make_stack([3, 5, 2], seed=4)
        base, _ = gcn_forward(stack, w, Propagation(np.eye(4)))
        w2 = w.copy()
        w2[2] += 1.0
        changed, _ = gcn_forward(stack, w2, Propagation(np.eye(4)))
        assert np.array_equal(base[[0, 1, 3]], changed[[0, 1, 3]])
        assert not np.array_equal(base[2], changed[2])


class TestBackward:
    @pytest.mark.parametrize("dims", [[3, 4], [3, 5, 4], [3, 5, 5, 4], [3, 5, 5, 5, 4]])
    @pytest.mark.parametrize("alpha", [0.01, 0.2])
    def test_finite_difference_all_depths(self, dims, alpha):
        rng = np.random.Generator(np.random.PCG64(42))
        c = 4
        w = rng.standard_normal((c, dims[0]))
        ea = rng.random((c, c))
        ea /= ea.sum(axis=1, keepdims=True)
        stack = make_stack(dims, seed=7, alpha=alpha)
        upstream = rng.standard_normal((c, dims[-1]))

        def loss():
            lo, _ = gcn_forward(stack, w, Propagation(ea))
            return float((lo * upstream).sum())

        lo, cache = gcn_forward(stack, w, Propagation(ea))
        theta_grads, dw = backward(cache, upstream)
        arrays = stack.thetas + [w]
        numeric = central_diff(loss, arrays)
        for analytic, num in zip(theta_grads + [dw], numeric):
            assert max_rel_error(analytic, num) < 1e-4

    def test_zero_upstream_gives_zero_grads(self):
        stack = make_stack([3, 4, 2], seed=1)
        w = np.ones((3, 3))
        _, cache = gcn_forward(stack, w, Propagation(np.eye(3)))
        theta_grads, dw = backward(cache, np.zeros((3, 2)))
        assert all(not g.any() for g in theta_grads)
        assert not dw.any()

    def test_single_layer_linear_regime_closed_form(self):
        rng = np.random.Generator(np.random.PCG64(8))
        w = rng.random((3, 4)) + 0.1
        ea = rng.random((3, 3))
        ea /= ea.sum(axis=1, keepdims=True)
        theta = rng.random((4, 2)) + 0.1  # positive weights keep pre-activations > 0
        stack = fixed_stack(theta, alpha=0.2)
        _, cache = gcn_forward(stack, w, Propagation(ea))
        upstream = rng.standard_normal((3, 2))
        theta_grads, _ = backward(cache, upstream)
        assert np.allclose(theta_grads[0], (ea @ w).T @ upstream, atol=1e-12)


class TestReuseAndSkip:
    """The backward pass reuses the forward's EA_norm @ H^i and may skip dW;
    every gradient it returns keeps the bits of the recompute-form oracle."""

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 6), st.lists(st.integers(1, 6), min_size=2, max_size=5),
           st.booleans(), st.sampled_from([0.01, 0.2]), st.integers(0, 2**32 - 1))
    def test_matches_recompute_oracle_bit_for_bit(self, c, dims, final_linear, alpha,
                                                  seed):
        rng = np.random.Generator(np.random.PCG64(seed))
        w = rng.standard_normal((c, dims[0]))
        ea = rng.random((c, c))
        ea /= ea.sum(axis=1, keepdims=True)
        stack = make_stack(dims, seed, alpha=alpha, final_linear=final_linear)
        _, cache = gcn_forward(stack, w, Propagation(ea))
        upstream = rng.standard_normal((c, dims[-1]))
        want_thetas, want_dw = oracles.gcn_backward(cache, upstream)
        for input_grad in (True, False):
            thetas, dw = backward(cache, upstream, input_grad=input_grad)
            assert len(thetas) == len(want_thetas)
            for got, want in zip(thetas, want_thetas):
                assert np.array_equal(got, want)
            if input_grad:
                assert np.array_equal(dw, want_dw)
            else:
                assert np.isnan(dw).all()


class TestHelpers:
    def test_dims_for_depth(self):
        base = [300, 1024, 768]
        assert dims_for_depth(base, 2) == [300, 1024, 768]
        assert dims_for_depth(base, 3) == [300, 1024, 1024, 768]
        assert dims_for_depth(base, 4) == [300, 1024, 1024, 1024, 768]

    def test_leaky_relu_at_zero(self):
        assert leaky_relu(np.array([0.0]), 0.2)[0] == 0.0
        assert leaky_relu_grad(np.array([0.0]), 0.2)[0] == 0.2

    @pytest.mark.parametrize("alpha", [1e-300, 0.01, 0.2, 1 / 3, 0.5, 1.0, 1.5, 7.0,
                                       1e300])
    def test_leaky_relu_bits_equal_masked_select(self, alpha):
        tiny = np.finfo(np.float64).smallest_subnormal
        big = np.finfo(np.float64).max
        z = np.array([0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, tiny, -tiny,
                      2.5e-308, -2.5e-308, 1.0, -1.0, big, -big, 3.7, -3.7])
        z = np.concatenate([z, np.random.Generator(np.random.PCG64(0)).standard_normal(64)])
        with np.errstate(over="ignore"):
            want = np.where(z > 0, z, alpha * z)
            got = leaky_relu(z, alpha)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
        want_grad = np.where(z > 0, 1.0, alpha)
        assert np.array_equal(leaky_relu_grad(z, alpha).view(np.uint64),
                              want_grad.view(np.uint64))

    def test_default_dims_supported(self):
        stack = make_stack([300, 1024, 768], seed=0)
        assert stack.dims == [300, 1024, 768]

    @pytest.mark.parametrize("dims", [[], [3]])
    def test_empty_chain_rejected(self, dims):
        with pytest.raises(ShapeError, match="at least one layer"):
            GcnStack(dims, draw_tensors(np.random.Generator(np.random.PCG64(0))))


class TestDestinations:
    """The backward pass writes each gradient into its destination, an
    unaligned view of one flat array, with the bits it writes into separate
    aligned arrays; without ``input_grad`` it leaves dW's unwritten."""

    @pytest.mark.parametrize("input_grad", [True, False])
    @pytest.mark.parametrize("compact", [False, True])
    def test_gradients_written_into_destinations(self, input_grad, compact):
        rng = np.random.Generator(np.random.PCG64(21))
        dims = [4, 6, 3]
        ea = sparse_graph(8, 2)
        stack = make_stack(dims, 21)
        w, upstream = rng.standard_normal((8, dims[0])), rng.standard_normal((8, dims[-1]))
        like = {**stack.parameters(), "embeddings.W": w}
        want, out = separate(like), destinations(like)
        with forced_form(compact):
            _, cache = gcn_forward(stack, w, Propagation(ea))
            for grads in (want, out):
                gcn_backward(cache, upstream, grads, input_grad=input_grad)
        assert np.isnan(out["embeddings.W"]).all() == (not input_grad)
        if not input_grad:
            del want["embeddings.W"], out["embeddings.W"]
        assert_same_bits(out, want)


def sparse_graph(c, seed, epsilon=0.3):
    """EA_norm of rare labels where label j copies label i for c // 4
    planted pairs (i, j), so the retained edges touch only some rows and
    columns."""
    rng = np.random.Generator(np.random.PCG64(seed))
    labels = (rng.random((4 * c, c)) < 0.08).astype(np.int64)
    for _ in range(max(1, c // 4)):
        i, j = rng.choice(c, size=2, replace=False)
        labels[:, j] |= labels[:, i]
    p = conditional_matrix(count_cooccurrence(labels, c))
    return graph_from_conditional(p, epsilon, 0.2)["EA_norm"]


class TestPropagation:
    """EA_norm's products as diagonal plus compact block, against dense."""

    @pytest.mark.parametrize("c, seed", [(8, 0), (12, 1), (64, 2), (256, 7)])
    @pytest.mark.parametrize("compact", [False, True])
    def test_both_forms_match_dense_product(self, c, seed, compact):
        ea = sparse_graph(c, seed)
        prop = Propagation(ea)
        assert 0 < len(prop.rows) < c and 0 < len(prop.cols) <= c
        rng = np.random.Generator(np.random.PCG64(seed))
        h = rng.standard_normal((c, 5))
        with forced_form(compact):
            assert prop.compact(5) is compact
            got, got_t = prop.apply(h), prop.apply_transpose(h)
        np.testing.assert_allclose(got, ea @ h, rtol=0, atol=1e-12)
        np.testing.assert_allclose(got_t, ea.T @ h, rtol=0, atol=1e-12)
        if not compact:
            assert np.array_equal(got, ea @ h) and np.array_equal(got_t, ea.T @ h)

    @pytest.mark.parametrize("dims", [[3, 4], [3, 5, 4], [3, 5, 5, 4]])
    def test_finite_difference_through_compact_form(self, dims):
        rng = np.random.Generator(np.random.PCG64(9))
        c = 10
        ea = sparse_graph(c, seed=3)
        prop = Propagation(ea)
        w = rng.standard_normal((c, dims[0]))
        stack = make_stack(dims, seed=7)
        upstream = rng.standard_normal((c, dims[-1]))
        with forced_form(True):
            def loss():
                lo, _ = gcn_forward(stack, w, prop)
                return float((lo * upstream).sum())

            _, cache = gcn_forward(stack, w, prop)
            theta_grads, dw = backward(cache, upstream)
            numeric = central_diff(loss, stack.thetas + [w])
        for analytic, num in zip(theta_grads + [dw], numeric):
            assert max_rel_error(analytic, num) < 1e-4

    def test_real_rule_picks_compact_at_label_bound_shapes(self):
        # no forced form: the rule alone sends C = 256 through the block
        ea = sparse_graph(256, seed=7)
        prop = Propagation(ea)
        assert prop.compact(64) and prop.compact(128)
        rng = np.random.Generator(np.random.PCG64(1))
        w = rng.standard_normal((256, 64))
        stack = make_stack([64, 128, 32], seed=2)
        lo, cache = gcn_forward(stack, w, prop)
        with forced_form(False):
            dense_lo, dense_cache = gcn_forward(stack, w, Propagation(ea))
            upstream = rng.standard_normal(lo.shape)
            want_thetas, want_dw = backward(dense_cache, upstream)
        np.testing.assert_allclose(lo, dense_lo, rtol=0, atol=1e-12)
        thetas, dw = backward(cache, upstream)
        for got, want in zip(thetas + [dw], want_thetas + [want_dw]):
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("rows", [7, 8, 14])
    @pytest.mark.parametrize("width", [16, 32, 300, 768, 1024])
    def test_rule_keeps_fourteen_labels_dense(self, rows, width):
        # paper-c14 (GCN 300-1024-768) and ingest-tiny (16-32-16) retain
        # edges in 7-10 rows and all 14 columns; no graph of 14 labels pays
        assert not compact_pays(14, rows, 14, width)
        assert not compact_pays(14, 0, 0, width)

    @pytest.mark.parametrize("rows, cols", [(92, 156), (99, 150), (102, 166)])
    @pytest.mark.parametrize("width", [64, 128])
    def test_rule_sends_label_bound_shapes_compact(self, rows, cols, width):
        # labels-c256: GCN 64-128-128 over about 100 x 150-166 blocks
        assert compact_pays(256, rows, cols, width)

    def test_empty_block_is_the_diagonal(self):
        ea = sparse_graph(256, seed=7, epsilon=1.0)
        prop = Propagation(ea)
        assert len(prop.rows) == len(prop.cols) == 0 and prop.compact(64)
        h = np.random.Generator(np.random.PCG64(0)).standard_normal((256, 64))
        np.testing.assert_allclose(prop.apply(h), ea @ h, rtol=0, atol=1e-12)
        np.testing.assert_allclose(prop.apply_transpose(h), ea.T @ h, rtol=0, atol=1e-12)
        np.testing.assert_array_equal(prop.apply(h), np.diag(ea)[:, None] * h)

    def test_full_block_stays_dense(self):
        # epsilon = 0 on labels that all co-occur keeps every edge
        c = 256
        labels = np.ones((3, c), dtype=np.int64)
        labels[0, ::2] = 0
        ea = graph_from_conditional(conditional_matrix(count_cooccurrence(labels, c)),
                                    0.0, 0.2)["EA_norm"]
        prop = Propagation(ea)
        assert len(prop.rows) == len(prop.cols) == c
        h = np.random.Generator(np.random.PCG64(0)).standard_normal((c, 1024))
        assert not prop.compact(1024)
        assert np.array_equal(prop.apply(h), ea @ h)
        assert np.array_equal(prop.apply_transpose(h), ea.T @ h)

    def test_first_layer_product_is_taken_as_given(self):
        rng = np.random.Generator(np.random.PCG64(4))
        w, ea = rng.standard_normal((4, 3)), sparse_graph(4, seed=1)
        stack = make_stack([3, 5, 2], seed=3)
        lo, cache = gcn_forward(stack, w, Propagation(ea))
        again, reused = gcn_forward(stack, w, Propagation(ea), first=cache.ps[0])
        assert reused.ps[0] is cache.ps[0]
        assert np.array_equal(lo, again)

    def test_non_square_matrix_fatal(self):
        with pytest.raises(ShapeError):
            Propagation(np.zeros((3, 4)))

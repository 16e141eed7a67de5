from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from destinations import assert_same_bits, destinations, fusion_gradients, separate
from gradcheck import central_diff, max_rel_error
from oracles import bridge_all, bridge_one, fusion_backward
from labelbridge import (FusionParameters, fusion_backward_batch, fusion_forward_batch,
                         group_sum)
from labelbridge.fusion import image_side_first
from labelbridge.training import draw_tensors


def make_params(d1, d2p, d3, groups, size, seed):
    rng = np.random.Generator(np.random.PCG64(seed))
    return FusionParameters(d1, d2p, d3, groups, size, draw_tensors(rng))


def explicit_bilinear(params, feat, lo_j):
    """Oracle: assemble each group's bilinear matrix from the low-rank
    factors and evaluate m1' S_k m2 directly."""
    m1 = feat @ params.fc1_w + params.fc1_b
    m2 = lo_j @ params.fc2_w + params.fc2_b
    to = np.zeros(params.groups)
    for k in range(params.groups):
        s_k = np.zeros((params.d3, params.d3))
        for t in range(k * params.group_size, (k + 1) * params.group_size):
            s_k += np.outer(params.u_tilde[:, t], params.v_tilde[:, t])
        to[k] = m1 @ s_k @ m2
    return float(to @ params.fc3_w + params.fc3_b[0])


class TestGroupSum:
    def test_definition(self):
        assert group_sum(np.arange(1.0, 7.0), 3, 2).tolist() == [3.0, 7.0, 11.0]

    def test_single_group_is_total_sum(self):
        vec = np.array([2.0, -1.0, 0.5, 4.0])
        assert group_sum(vec, 1, 4).tolist() == [5.5]


class TestBridging:
    def test_matches_explicit_bilinear_form(self):
        rng = np.random.Generator(np.random.PCG64(21))
        for trial in range(20):
            params = make_params(5, 3, 4, 2, 2, seed=trial)
            feat = rng.standard_normal(5)
            lo_j = rng.standard_normal(3)
            got, _ = bridge_one(params, feat, lo_j)
            assert got == pytest.approx(explicit_bilinear(params, feat, lo_j),
                                        abs=1e-10)

    def test_bridge_all_equals_independent_bridge_one(self):
        rng = np.random.Generator(np.random.PCG64(3))
        params = make_params(6, 4, 5, 2, 3, seed=9)
        feat = rng.standard_normal(6)
        lo = rng.standard_normal((3, 4))
        logits, _ = bridge_all(params, feat, lo)
        singles = [bridge_one(params, feat, lo[j])[0] for j in range(3)]
        assert np.allclose(logits, singles, atol=1e-12)

    def test_permuting_rows_permutes_logits(self):
        rng = np.random.Generator(np.random.PCG64(4))
        params = make_params(6, 4, 5, 2, 3, seed=2)
        feat = rng.standard_normal(6)
        lo = rng.standard_normal((4, 4))
        perm = np.array([2, 0, 3, 1])
        base, _ = bridge_all(params, feat, lo)
        permuted, _ = bridge_all(params, feat, lo[perm])
        assert np.allclose(permuted, base[perm], atol=1e-12)

    def test_duplicate_rows_give_equal_logits(self):
        rng = np.random.Generator(np.random.PCG64(5))
        params = make_params(6, 4, 5, 2, 3, seed=2)
        feat = rng.standard_normal(6)
        row = rng.standard_normal(4)
        logits, _ = bridge_all(params, feat, np.stack([row, row, row]))
        assert logits[0] == logits[1] == logits[2]

    def test_d3_need_not_equal_group_width(self):
        params = make_params(4, 3, 5, 2, 3, seed=1)  # D3=5, G*g=6
        feat = np.ones(4)
        lo = np.ones((2, 3))
        logits, _ = bridge_all(params, feat, lo)
        assert logits.shape == (2,)

    def test_affine_in_feature_scale_with_zero_biases(self):
        params = make_params(5, 3, 4, 2, 2, seed=6)
        params.fc1_b[:] = 0.0
        params.fc2_b[:] = 0.0
        rng = np.random.Generator(np.random.PCG64(7))
        feat = rng.standard_normal(5)
        lo = rng.standard_normal((2, 3))
        values = [bridge_all(params, s * feat, lo)[0] for s in (0.0, 1.0, 2.0, 3.0)]
        slope = values[1] - values[0]
        for s, val in zip((0.0, 1.0, 2.0, 3.0), values):
            assert np.allclose(val, values[0] + s * slope, atol=1e-10)


class TestBackward:
    def test_finite_difference_every_block(self):
        rng = np.random.Generator(np.random.PCG64(30))
        params = make_params(5, 3, 4, 2, 2, seed=11)
        feat = rng.standard_normal(5)
        lo = rng.standard_normal((3, 3))
        upstream = rng.standard_normal(3)

        def loss():
            logits, _ = bridge_all(params, feat, lo)
            return float(logits @ upstream)

        _, cache = bridge_all(params, feat, lo)
        grads, d_feat, d_lo = fusion_backward(cache, upstream)
        named = params.parameters()
        arrays = list(named.values()) + [feat, lo]
        numeric = central_diff(loss, arrays)
        analytic_list = [(name, grads[name]) for name in named]
        analytic_list += [("dF", d_feat), ("dLO", d_lo)]
        for (name, analytic), num in zip(analytic_list, numeric):
            assert max_rel_error(analytic, num) < 1e-4, name

    def test_one_hot_upstream_touches_single_lo_row(self):
        rng = np.random.Generator(np.random.PCG64(31))
        params = make_params(5, 3, 4, 2, 2, seed=12)
        feat = rng.standard_normal(5)
        lo = rng.standard_normal((4, 3))
        _, cache = bridge_all(params, feat, lo)
        upstream = np.zeros(4)
        upstream[2] = 1.0
        _, _, d_lo = fusion_backward(cache, upstream)
        assert not d_lo[[0, 1, 3]].any()
        assert d_lo[2].any()

    def test_zero_upstream_zero_grads(self):
        params = make_params(5, 3, 4, 2, 2, seed=13)
        _, cache = bridge_all(params, np.ones(5), np.ones((3, 3)))
        grads, d_feat, d_lo = fusion_backward(cache, np.zeros(3))
        assert all(not g.any() for g in grads.values())
        assert not d_feat.any() and not d_lo.any()

    def test_batched_matches_per_sample_accumulation(self):
        rng = np.random.Generator(np.random.PCG64(32))
        params = make_params(5, 3, 4, 2, 2, seed=14)
        feats = rng.standard_normal((4, 5))
        lo = rng.standard_normal((3, 3))
        upstream = rng.standard_normal((4, 3))
        logits, cache = fusion_forward_batch(params, feats, lo)
        grads, d_feats, d_lo = fusion_gradients(cache, upstream)
        acc = {name: np.zeros_like(g) for name, g in grads.items()}
        acc_lo = np.zeros_like(d_lo)
        for b in range(4):
            _, c1 = bridge_all(params, feats[b], lo)
            g1, df1, dlo1 = fusion_backward(c1, upstream[b])
            for name in acc:
                acc[name] += g1[name]
            acc_lo += dlo1
            assert np.allclose(df1, d_feats[b], atol=1e-12)
        for name in acc:
            assert np.allclose(acc[name], grads[name], atol=1e-12), name
        assert np.allclose(acc_lo, d_lo, atol=1e-12)

    def test_skipping_feature_gradient_keeps_other_bits(self):
        rng = np.random.Generator(np.random.PCG64(33))
        params = make_params(5, 3, 4, 2, 2, seed=17)
        _, cache = fusion_forward_batch(params, rng.standard_normal((4, 5)),
                                        rng.standard_normal((3, 3)))
        upstream = rng.standard_normal((4, 3))
        grads, d_feats, d_lo = fusion_gradients(cache, upstream)
        skipped, none, d_lo_skipped = fusion_gradients(cache, upstream, feats_grad=False)
        assert d_feats.shape == (4, 5) and none is None
        assert np.array_equal(d_lo_skipped, d_lo)
        assert grads.keys() == skipped.keys()
        for name in grads:
            assert np.array_equal(skipped[name], grads[name]), name


dims = st.integers(min_value=1, max_value=5)


def random_case(b, c, d1, d2p, d3, groups, size, seed):
    """Parameters with nonzero biases, features, label embeddings, upstream."""
    params = make_params(d1, d2p, d3, groups, size, seed)
    rng = np.random.Generator(np.random.PCG64(seed + 1))
    for bias in (params.fc1_b, params.fc2_b, params.fc3_b):
        bias[:] = rng.standard_normal(bias.shape)
    feats = rng.standard_normal((b, d1))
    lo = rng.standard_normal((c, d2p))
    return params, feats, lo, rng.standard_normal((b, c))


def assert_logits_match_explicit_bilinear(params, feats, lo):
    logits, _ = fusion_forward_batch(params, feats, lo)
    assert logits.shape == (len(feats), len(lo))
    for i in range(len(feats)):
        for j in range(len(lo)):
            assert logits[i, j] == pytest.approx(
                explicit_bilinear(params, feats[i], lo[j]), abs=1e-10)


def assert_batched_backward_matches_per_sample(params, feats, lo, upstream):
    _, cache = fusion_forward_batch(params, feats, lo)
    grads, d_feats, d_lo = fusion_gradients(cache, upstream)
    acc = {name: np.zeros_like(g) for name, g in grads.items()}
    acc["dLO"] = np.zeros_like(d_lo)
    for i in range(len(feats)):
        g1, df1, dlo1 = fusion_backward(bridge_all(params, feats[i], lo)[1], upstream[i])
        for name in grads:
            acc[name] += g1[name]
        acc["dLO"] += dlo1
        assert np.allclose(df1, d_feats[i], atol=1e-12, rtol=0), "dF"
    for name, batched in {**grads, "dLO": d_lo}.items():
        assert np.allclose(acc[name], batched, atol=1e-12, rtol=0), name


class TestFoldProperties:
    """The folded form against the brute-force bilinear oracle and against
    per-sample accumulation, over random shapes and nonzero biases."""

    @settings(max_examples=60, deadline=None)
    @given(dims, dims, dims, dims, dims, dims, dims, st.integers(0, 2**32 - 1))
    def test_logits_match_explicit_bilinear(self, b, c, d1, d2p, d3, groups, size, seed):
        params, feats, lo, _ = random_case(b, c, d1, d2p, d3, groups, size, seed)
        assert_logits_match_explicit_bilinear(params, feats, lo)

    @settings(max_examples=60, deadline=None)
    @given(dims, dims, dims, dims, dims, dims, dims, st.integers(0, 2**32 - 1))
    def test_batched_backward_matches_per_sample(self, b, c, d1, d2p, d3, groups, size,
                                                 seed):
        assert_batched_backward_matches_per_sample(
            *random_case(b, c, d1, d2p, d3, groups, size, seed))


class TestContractionOrder:
    """Both ends of M1 U diag(w~) V' M2': the label side forms VB = M2 V
    (C x G*g), the image side Q = (UA * w~) V' (B x D3). With D3 = 3 and
    G*g = 4 the rule picks the image side for (B, C) = (2, 9) and the label
    side for (9, 2)."""

    SIDES = [pytest.param(2, 9, "q", id="image-side"),
             pytest.param(9, 2, "vb", id="label-side")]

    @staticmethod
    def case(b, c):
        return random_case(b, c, 5, 4, 3, 2, 2, seed=40)

    @pytest.mark.parametrize("b, c, field", SIDES)
    def test_cache_holds_the_chosen_side(self, b, c, field):
        params, feats, lo, _ = self.case(b, c)
        _, cache = fusion_forward_batch(params, feats, lo)
        other = {"q": "vb", "vb": "q"}[field]
        assert getattr(cache, field) is not None and getattr(cache, other) is None
        assert image_side_first(b, c, params.d3, 4) == (field == "q")

    @pytest.mark.parametrize("b, c, field", SIDES)
    def test_logits_match_explicit_bilinear(self, b, c, field):
        assert_logits_match_explicit_bilinear(*self.case(b, c)[:3])

    @pytest.mark.parametrize("b, c, field", SIDES)
    def test_gradients_written_into_destinations(self, b, c, field):
        params, feats, lo, upstream = self.case(b, c)
        _, cache = fusion_forward_batch(params, feats, lo)
        want, out = separate(params.parameters()), destinations(params.parameters())
        d_feats, d_lo = fusion_backward_batch(cache, upstream, want)
        got_feats, got_lo = fusion_backward_batch(cache, upstream, out)
        assert_same_bits(out, want)
        assert np.array_equal(got_feats, d_feats) and np.array_equal(got_lo, d_lo)

    @pytest.mark.parametrize("b, c, field", SIDES)
    def test_finite_difference_every_block(self, b, c, field):
        params, feats, lo, upstream = self.case(b, c)

        def loss():
            return float((fusion_forward_batch(params, feats, lo)[0] * upstream).sum())

        _, cache = fusion_forward_batch(params, feats, lo)
        grads, d_feats, d_lo = fusion_gradients(cache, upstream)
        named = params.parameters()
        numeric = central_diff(loss, list(named.values()) + [feats, lo])
        analytic = [grads[name] for name in named] + [d_feats, d_lo]
        for name, got, num in zip(list(named) + ["dF", "dLO"], analytic, numeric):
            assert max_rel_error(got, num) < 1e-6, name

    @pytest.mark.parametrize("b, c, field", SIDES)
    def test_batched_backward_matches_per_sample(self, b, c, field):
        assert_batched_backward_matches_per_sample(*self.case(b, c))

    def test_orders_agree_at_label_bound_shapes(self):
        # labels-c256 shapes: B 8, C 256, D3 64, G*g 64*6, D2' 128
        params, feats, lo, upstream = random_case(8, 256, 256, 128, 64, 64, 6, seed=42)
        logits, cache = fusion_forward_batch(params, feats, lo)
        assert cache.q is not None and cache.vb is None
        w_tilde = np.repeat(params.fc3_w, params.group_size)
        vb = cache.m2 @ params.v_tilde
        label_side = (cache.ua * w_tilde) @ vb.T + params.fc3_b[0]
        scale = np.abs(label_side).max()
        assert np.abs(logits - label_side).max() <= 1e-12 * scale
        grads, d_feats, d_lo = fusion_gradients(cache, upstream)
        want, want_feats, want_lo = fusion_gradients(replace(cache, vb=vb, q=None),
                                                     upstream)
        for name, got, ref in [*((n, grads[n], want[n]) for n in want),
                               ("dF", d_feats, want_feats), ("dLO", d_lo, want_lo)]:
            assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max(), name

    @pytest.mark.parametrize("c, width, d3, label_side_from", [
        (14, 384, 384, 14),   # paper-c14
        (14, 16, 16, 14),     # ingest-tiny
        (256, 384, 64, None),  # labels-c256: the image side for every batch
    ])
    def test_rule_at_workload_shapes(self, c, width, d3, label_side_from):
        for b in range(1, 513):
            image = image_side_first(b, c, d3, width)
            assert image == (label_side_from is None or b < label_side_from), b

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from destinations import assert_same_bits, destinations, network_gradients, separate
from forms import forced_form
from gradcheck import central_diff, max_rel_error
from labelbridge import (FusionParameters, GcnStack, LabelVocabulary, ToyMlp,
                         TrainConfig, conditional_matrix, count_cooccurrence,
                         graph_from_conditional, multilabel_loss, multilabel_loss_batch,
                         synthetic_embeddings)
from labelbridge import fusion as fusion_module
from labelbridge import training
from labelbridge.errors import ShapeError, StaleCacheError
from labelbridge.model import Network
from labelbridge.training import Sgd, build_network, draw_tensors


def tiny_setup(seed=0, provider="toy_mlp", raw_dim=6):
    """C=3 network over the micro-dataset graph with small dims everywhere."""
    vocab = LabelVocabulary(["a", "b", "c"])
    mat = np.array([[1, 1, 0], [1, 0, 0], [0, 1, 1], [1, 1, 0]])
    p = conditional_matrix(count_cooccurrence(mat, 3))
    emb = synthetic_embeddings(vocab, 5, seed=seed)
    config = TrainConfig(gcn_dims=[5, 6, 4], d3=4, groups=2, group_size=2,
                         d1=8, toy_hidden=5, provider=provider, seed=seed)
    network = build_network(config, p, emb, vocab.size, raw_dim)
    return network, config


def fused_network(monkeypatch, provider, fine_tune, seed):
    """A tiny network whose parameters are views into an Sgd that fuses
    every weight of 8 or more elements, so a gradient handed over would move
    its parameter and momentum arrays at once."""
    monkeypatch.setattr(training, "_SGD_BLOCK", 8)
    network, config = tiny_setup(seed=seed, provider=provider,
                                 raw_dim=6 if provider == "toy_mlp" else 8)
    network.fine_tune_embeddings = fine_tune
    sgd = Sgd(network.parameters(), config)
    network.set_parameters(sgd.params)
    assert sgd.fused
    return network, sgd


def assert_refused_untouched(network, sgd, cache, d_logits, error):
    """backward_batch raises ``error`` before it hands any gradient over:
    every slot of NaN destinations stays NaN, and the Sgd keeps every
    parameter and momentum bit. Returns the destinations."""
    out = destinations(network.parameters())
    arena, momentum = sgd.arena.view(np.uint64).copy(), sgd.momentum.view(np.uint64).copy()
    for grads in (out, sgd):
        with pytest.raises(error):
            network.backward_batch(cache, d_logits, grads)
    assert all(np.isnan(slot).all() for slot in out.values())
    assert np.array_equal(sgd.arena.view(np.uint64), arena)
    assert np.array_equal(sgd.momentum.view(np.uint64), momentum)
    return out


class TestComposition:
    def test_batch_forward_equals_per_sample(self):
        network, _ = tiny_setup()
        rng = np.random.Generator(np.random.PCG64(1))
        x = rng.standard_normal((5, 6))
        batched, _ = network.forward_batch(x)
        for b in range(5):
            single, _ = network.forward_batch(x[b: b + 1])
            assert np.allclose(single[0], batched[b], atol=1e-12)

    def test_backward_batch_equals_per_sample_sum(self):
        network, _ = tiny_setup()
        rng = np.random.Generator(np.random.PCG64(2))
        x = rng.standard_normal((4, 6))
        upstream = rng.standard_normal((4, 3))
        logits, cache = network.forward_batch(x)
        grads = network_gradients(network, cache, upstream)
        acc = {name: np.zeros_like(g) for name, g in grads.items()}
        for b in range(4):
            _, c1 = network.forward_batch(x[b: b + 1])
            g1 = network_gradients(network, c1, upstream[b: b + 1])
            for name in acc:
                acc[name] += g1[name]
        for name in acc:
            assert np.allclose(acc[name], grads[name], atol=1e-12), name

    def test_end_to_end_gradient_small(self):
        network, _ = tiny_setup(seed=3)
        rng = np.random.Generator(np.random.PCG64(3))
        x = rng.standard_normal((2, 6))
        y = np.array([[1, 0, 1], [0, 1, 0]])

        def loss():
            logits, _ = network.forward_batch(x)
            value, _ = multilabel_loss_batch(logits, y)
            return value

        logits, cache = network.forward_batch(x)
        _, d_logits = multilabel_loss_batch(logits, y)
        grads = network_gradients(network, cache, d_logits)
        named = network.parameters()
        numeric = central_diff(loss, list(named.values()))
        for name, num in zip(named, numeric):
            assert max_rel_error(grads[name], num) < 1e-4, name

    @pytest.mark.parametrize("provider, raw_dim", [("toy_mlp", 6), ("precomputed", 8)])
    def test_fine_tuned_embeddings_gradient(self, provider, raw_dim):
        """With fine_tune_embeddings on, embeddings.W (the GCN's input
        gradient) still matches finite differences."""
        network, _ = tiny_setup(seed=5, provider=provider, raw_dim=raw_dim)
        network.fine_tune_embeddings = True
        rng = np.random.Generator(np.random.PCG64(5))
        x = rng.standard_normal((3, raw_dim))
        y = np.array([[1, 0, 1], [0, 1, 0], [1, 1, 0]])

        def loss():
            logits, _ = network.forward_batch(x)
            return multilabel_loss_batch(logits, y)[0]

        logits, cache = network.forward_batch(x)
        grads = network_gradients(network, cache, multilabel_loss_batch(logits, y)[1])
        assert list(grads) == list(network.parameters())
        named = network.parameters()
        numeric = central_diff(loss, list(named.values()))
        for name, num in zip(named, numeric):
            assert max_rel_error(grads[name], num) < 1e-4, name

    def test_predict_is_one_forward_pass(self):
        network, _ = tiny_setup()
        rng = np.random.Generator(np.random.PCG64(4))
        x = rng.standard_normal((10, 6))
        first = network.predict_logits(x)
        assert np.array_equal(first, network.forward_batch(x)[0])
        assert np.array_equal(first, network.predict_logits(x))

    def test_frozen_first_layer_product_computed_once(self):
        network, _ = tiny_setup()
        x = np.random.Generator(np.random.PCG64(6)).standard_normal((4, 6))
        _, first = network.forward_batch(x)
        _, second = network.forward_batch(x[:2])
        assert second["gcn"].ps[0] is first["gcn"].ps[0]
        assert np.array_equal(first["gcn"].ps[0], network.propagation.matrix @ network.w)

    @pytest.mark.parametrize("refreeze", [False, True])
    def test_first_layer_product_follows_fine_tuned_w(self, refreeze):
        """A product kept while W was frozen is not reused once W trains,
        nor after W is frozen again."""
        network, config = tiny_setup(seed=2)
        rng = np.random.Generator(np.random.PCG64(2))
        x, y = rng.standard_normal((4, 6)), rng.integers(0, 2, size=(4, 3))
        network.forward_batch(x)
        network.fine_tune_embeddings = True
        w_before = network.w.copy()
        logits, cache = network.forward_batch(x)
        grads = network_gradients(network, cache, multilabel_loss_batch(logits, y)[1])
        for name, arr in network.parameters().items():
            oracles.momentum_sgd(arr, grads[name], np.zeros_like(arr), oracles.scheduled_lr(
                config, Network.lr_group(name), 0), config)
        network.note_update()
        assert not np.array_equal(network.w, w_before)
        network.fine_tune_embeddings = not refreeze
        got, cache = network.forward_batch(x)
        fresh = Network(network.stack, network.fusion, network.w.copy(),
                        network.propagation.matrix.copy(), backbone=network.backbone)
        assert np.array_equal(cache["gcn"].ps[0], network.propagation.matrix @ network.w)
        assert np.array_equal(got, fresh.forward_batch(x)[0])

    @pytest.mark.parametrize("provider", ["toy_mlp", "precomputed"])
    @pytest.mark.parametrize("fine_tune", [True, False])
    def test_backward_writes_every_gradient_into_destinations(self, provider,
                                                               fine_tune):
        network, _ = tiny_setup(seed=4, provider=provider,
                                raw_dim=6 if provider == "toy_mlp" else 8)
        network.fine_tune_embeddings = fine_tune
        rng = np.random.Generator(np.random.PCG64(4))
        x, y = rng.standard_normal((4, network.feature_dim)), rng.integers(0, 2, (4, 3))
        logits, cache = network.forward_batch(x)
        d_logits = multilabel_loss_batch(logits, y)[1]
        want, out = separate(network.parameters()), destinations(network.parameters())
        for grads in (want, out):
            network.backward_batch(cache, d_logits, grads)
        assert list(want) == list(network.parameters())
        assert_same_bits(out, want)

    @pytest.mark.parametrize("provider", ["toy_mlp", "precomputed"])
    @pytest.mark.parametrize("fine_tune", [True, False])
    @pytest.mark.parametrize("image_side", [False, True])
    def test_stale_cache_refused_before_any_gradient(self, provider, fine_tune,
                                                      image_side, monkeypatch):
        """After note_update(), backward_batch raises before it hands any
        gradient to ``out``: no destination slot is written, and an Sgd
        whose large weights update as their gradients arrive keeps every
        parameter and momentum bit. A fresh forward pass's cache is taken."""
        monkeypatch.setattr(fusion_module, "image_side_first", lambda *shape: image_side)
        network, sgd = fused_network(monkeypatch, provider, fine_tune, seed=6)
        rng = np.random.Generator(np.random.PCG64(6))
        x, y = rng.standard_normal((4, network.feature_dim)), rng.integers(0, 2, (4, 3))
        logits, cache = network.forward_batch(x)
        assert (cache["fusion"].q is not None) == image_side
        d_logits = multilabel_loss_batch(logits, y)[1]
        network.note_update()
        out = assert_refused_untouched(network, sgd, cache, d_logits, StaleCacheError)
        logits, cache = network.forward_batch(x)
        network.backward_batch(cache, multilabel_loss_batch(logits, y)[1], out)
        assert not any(np.isnan(slot).any() for slot in out.values())

    @pytest.mark.parametrize("provider", ["toy_mlp", "precomputed"])
    @pytest.mark.parametrize("shape", [lambda d: (4, d + 1), lambda d: (4, d - 1),
                                       lambda d: (d,), lambda d: (2, 4, d)],
                             ids=["wider", "narrower", "1-D", "3-D"])
    def test_features_of_another_shape_refused(self, provider, shape):
        network, _ = tiny_setup(provider=provider,
                                raw_dim=6 if provider == "toy_mlp" else 8)
        x = np.ones(shape(network.feature_dim))
        with pytest.raises(ShapeError, match=f"expected \\(B, {network.feature_dim}\\)"):
            network.forward_batch(x)

    @pytest.mark.parametrize("provider", ["toy_mlp", "precomputed"])
    @pytest.mark.parametrize("shape", [(1, 3), (4, 1), (4, 3, 1), (12,)],
                             ids=["one-row", "one-column", "3-D", "1-D"])
    def test_logit_gradient_of_another_shape_refused_before_any_gradient(
            self, provider, shape, monkeypatch):
        """A B x C batch's cache takes only a B x C logit gradient, even
        one that broadcasts against it or holds its B * C values."""
        network, sgd = fused_network(monkeypatch, provider, True, seed=7)
        rng = np.random.Generator(np.random.PCG64(7))
        _, cache = network.forward_batch(rng.standard_normal((4, network.feature_dim)))
        assert_refused_untouched(network, sgd, cache, rng.standard_normal(shape), ShapeError)

    def test_fine_tune_embeddings_adds_parameter(self):
        network, _ = tiny_setup()
        assert "embeddings.W" not in network.parameters()
        network.fine_tune_embeddings = True
        assert "embeddings.W" in network.parameters()

    def test_lr_groups(self):
        assert Network.lr_group("gcn.theta0") == "lce"
        assert Network.lr_group("embeddings.W") == "lce"
        assert Network.lr_group("fusion.fc1_w") == "main"
        assert Network.lr_group("backbone.w1") == "main"

    def test_dimension_validation(self):
        network, config = tiny_setup()
        with pytest.raises(ShapeError):
            Network(network.stack, network.fusion, network.w[:, :],
                    np.eye(4), backbone=network.backbone)

    def test_precomputed_requires_matching_d1(self):
        with pytest.raises(ShapeError):
            tiny_setup(provider="precomputed", raw_dim=6)
        network, _ = tiny_setup(provider="precomputed", raw_dim=8)
        assert network.backbone is None


dims = st.integers(1, 5)


@st.composite
def random_networks(draw):
    """A network of random shape (B, C, D1, GCN dims, D3, G, g), with or
    without the toy MLP and fine-tuned embeddings, every parameter (biases
    too) perturbed off its init; a batch of raw inputs, 0/1 labels, and
    whether to force EA_norm's products into the compact form."""
    b, c, d1, d3, groups, size = (draw(dims) for _ in range(6))
    c += 1
    gcn_dims = draw(st.lists(dims, min_size=2, max_size=4))
    toy_mlp, fine_tune = draw(st.booleans()), draw(st.booleans())
    rng = np.random.Generator(np.random.PCG64(draw(st.integers(0, 2**32 - 1))))
    labels = rng.integers(0, 2, size=(max(b, 3), c))
    ea_norm = graph_from_conditional(conditional_matrix(count_cooccurrence(labels, c)),
                                     0.3, 0.2)["EA_norm"]
    stack = GcnStack(gcn_dims, draw_tensors(rng), final_linear=draw(st.booleans()))
    fusion = FusionParameters(d1, gcn_dims[-1], d3, groups, size, draw_tensors(rng))
    raw_dim, backbone = d1, None
    if toy_mlp:
        raw_dim = draw(dims)
        backbone = ToyMlp(raw_dim, draw(dims), d1, draw_tensors(rng))
    network = Network(stack, fusion, rng.standard_normal((c, gcn_dims[0])), ea_norm,
                      backbone=backbone, fine_tune_embeddings=fine_tune)
    for arr in network.parameters().values():
        arr += 0.1 * rng.standard_normal(arr.shape)
    network.note_update()
    return network, rng.standard_normal((b, raw_dim)), labels[:b], draw(st.booleans())


class TestBatchProperties:
    """Batched passes against per-sample ones over random shapes: one batch
    may contract GroupSum from the other side than a single row does, so
    results agree to rounding, not bit for bit. Each case runs with every
    EA_norm product in the form it draws, dense or compact."""

    @settings(max_examples=60, deadline=None)
    @given(random_networks())
    def test_forward_batch_equals_per_row(self, case):
        network, x, _, compact = case
        with forced_form(compact):
            batched, _ = network.forward_batch(x)
            rows = np.concatenate([network.forward_batch(x[i: i + 1])[0]
                                   for i in range(len(x))])
        np.testing.assert_allclose(batched, rows, rtol=0, atol=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(random_networks())
    def test_backward_batch_equals_per_sample_sum(self, case):
        network, x, labels, compact = case
        with forced_form(compact):
            logits, cache = network.forward_batch(x)
            _, upstream = multilabel_loss_batch(logits, labels)
            grads = network_gradients(network, cache, upstream)
            assert list(grads) == list(network.parameters())
            for i in range(len(x)):
                _, one = network.forward_batch(x[i: i + 1])
                one_grads = network_gradients(network, one, upstream[i: i + 1])
                for name, g in one_grads.items():
                    grads[name] = grads[name] - g
        for name, rest in grads.items():
            np.testing.assert_allclose(rest, 0.0, rtol=0, atol=1e-12, err_msg=name)

    @settings(max_examples=60, deadline=None)
    @given(random_networks())
    def test_loss_batch_equals_mean_of_per_sample_losses(self, case):
        network, x, labels, compact = case
        with forced_form(compact):
            logits = network.predict_logits(x)
        loss, grad = multilabel_loss_batch(logits, labels)
        per_sample = [multilabel_loss(logits[i], labels[i]) for i in range(len(x))]
        assert loss == pytest.approx(np.mean([l for l, _ in per_sample]), rel=0, abs=1e-12)
        np.testing.assert_allclose(grad * len(x), [g for _, g in per_sample],
                                   rtol=0, atol=1e-12)

import copy
import json
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import oracles
from destinations import destinations, network_gradients
from gradcheck import central_diff
from labelbridge import (Checkpoint, DataBundle, Dataset, LabelVocabulary, Network,
                         Run, Sgd, SyntheticSpec, TrainConfig,
                         build_correlation_graph, conditional_matrix,
                         count_cooccurrence, generate_synthetic_dataset,
                         graph_from_conditional, load_checkpoint, multilabel_loss,
                         multilabel_loss_batch, network_from_checkpoint,
                         save_checkpoint, sgd_step,
                         split_dataset, synthetic_embeddings, to_dataset, train,
                         training)
from labelbridge.errors import InputError, NumericalError, ShapeError
from labelbridge.fusion import fusion_backward_batch, image_side_first
from labelbridge.gcn import gcn_backward, leaky_relu_grad
from labelbridge.metrics import sigmoid
from labelbridge.training import _SGD_BLOCK, _first_non_finite, build_network


# logits where the exp, log1p and softplus forms each change regime: signed
# zeros, subnormals, 36 (1 + exp(-x) rounds to 1 from about 37 on), 710
# (exp(710) overflows), 745 (exp(-745) is the smallest subnormal, exp(-746)
# is 0), the largest floats, infinities and NaN
EDGE_LOGITS = [0.0, -0.0, 5e-324, -5e-324, 2.2e-308, -2.2e-308, 36.0, -36.0, 710.0,
               -710.0, 745.0, -745.0, 1e308, -1e308, np.inf, -np.inf, np.nan]


@st.composite
def logit_batches(draw):
    """(B x C logits mixing EDGE_LOGITS with any floats, 0/1 labels as int or
    float)."""
    shape = (draw(st.integers(1, 4)), draw(st.integers(1, 6)))
    logits = draw(arrays(np.float64, shape, elements=st.one_of(
        st.sampled_from(EDGE_LOGITS), st.floats())))
    labels = draw(arrays(np.int64, shape, elements=st.integers(0, 1)))
    return logits, labels.astype(np.float64) if draw(st.booleans()) else labels


def assert_same_bits_nan_by_position(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.dtype == want.dtype == np.float64 and got.shape == want.shape
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan)
    assert np.array_equal(got[~nan].view(np.uint64), want[~nan].view(np.uint64))


class TestLoss:
    @settings(max_examples=400, deadline=None)
    @given(logit_batches())
    def test_one_exp_forms_match_the_two_exp_oracles_bit_for_bit(self, batch):
        logits, labels = batch
        with np.errstate(all="ignore"):
            loss, grad = multilabel_loss_batch(logits, labels)
            want_loss, want_grad = oracles.multilabel_loss_batch(logits, labels)
            row = multilabel_loss(logits[0], labels[0])
            want_row = oracles.multilabel_loss(logits[0], labels[0])
        assert type(loss) is float and type(row[0]) is float
        assert_same_bits_nan_by_position(loss, want_loss)
        assert_same_bits_nan_by_position(grad, want_grad)
        for got, want in zip(row, want_row):
            assert_same_bits_nan_by_position(got, want)
        assert_same_bits_nan_by_position(sigmoid(logits), oracles.sigmoid(logits))
        for alpha in (0.2, 1.5):
            assert_same_bits_nan_by_position(leaky_relu_grad(logits, alpha),
                                             oracles.leaky_relu_grad(logits, alpha))
        # so Run.epoch still stops at the batch that holds a non-finite logit
        if not np.isfinite(logits).all():
            assert not math.isfinite(loss)

    def test_zero_logits_give_ln2_for_any_labels(self):
        for labels in ([1, 0, 1], [0, 0, 0], [1, 1, 1]):
            loss, _ = multilabel_loss(np.zeros(len(labels)), np.array(labels))
            assert loss == pytest.approx(np.log(2.0), abs=1e-12)

    def test_closed_form_softplus_value(self):
        loss, _ = multilabel_loss(np.array([10.0, -10.0]), np.array([1, 0]))
        assert loss == pytest.approx(np.log1p(np.exp(-10.0)), abs=1e-18)

    def test_gradient_identity_exact(self):
        rng = np.random.Generator(np.random.PCG64(0))
        o = rng.standard_normal(6)
        l = rng.integers(0, 2, size=6)
        _, grad = multilabel_loss(o, l)
        assert np.array_equal(grad, (sigmoid(o) - l) / 6.0)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.Generator(np.random.PCG64(1))
        o = rng.standard_normal(5)
        l = rng.integers(0, 2, size=5)
        _, grad = multilabel_loss(o, l)
        numeric = central_diff(lambda: multilabel_loss(o, l)[0], [o])[0]
        assert np.max(np.abs(grad - numeric)) < 1e-6

    def test_stable_at_extreme_logits(self):
        loss, grad = multilabel_loss(np.array([1e4, -1e4]), np.array([0, 1]))
        assert np.isfinite(loss) and np.all(np.isfinite(grad))
        assert loss == pytest.approx(1e4, rel=1e-12)

    def test_batch_mean_and_scaled_gradient(self):
        o = np.array([[0.0, 0.0], [10.0, -10.0]])
        l = np.array([[1, 0], [1, 0]])
        loss, grad = multilabel_loss_batch(o, l)
        expected = (np.log(2.0) + np.log1p(np.exp(-10.0))) / 2.0
        assert loss == pytest.approx(expected, abs=1e-15)
        _, row_grad = multilabel_loss(o[0], l[0])
        assert np.allclose(grad[0], row_grad / 2.0, atol=1e-15)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            multilabel_loss(np.zeros(3), np.zeros(4))

    @pytest.mark.parametrize("shape", [(3,), (2, 2, 3)])
    def test_batch_takes_b_by_c_logits(self, shape):
        with pytest.raises(ShapeError, match="B x C"):
            multilabel_loss_batch(np.zeros(shape), np.zeros(shape))


def address(arr: np.ndarray) -> int:
    return arr.__array_interface__["data"][0]


def sgd_over(params, **kw):
    """An ``Sgd`` over ``params`` under a config of the given fields."""
    defaults = dict(momentum=0.9, weight_decay=5e-5, lr_lce=0.01, lr_main=0.001,
                    decay_factor=0.1, decay_every=10)
    defaults.update(kw)
    return Sgd(params, TrainConfig(**defaults))


def same_bits(got: np.ndarray, want: np.ndarray) -> bool:
    return np.array_equal(np.ascontiguousarray(got).view(np.uint64),
                          np.ascontiguousarray(want).view(np.uint64))


class TestSgd:
    def test_plain_gradient_descent(self):
        sgd = sgd_over({"p": np.array([1.0])}, momentum=0.0, weight_decay=0.0, lr_main=0.5)
        sgd["p"][...] = 0.2
        sgd_step(sgd)
        assert sgd.params["p"][0] == pytest.approx(0.9, abs=1e-15)

    def test_zero_gradient_zero_decay_is_noop(self):
        sgd = sgd_over({"p": np.array([1.5])}, weight_decay=0.0)
        sgd_step(sgd)
        assert sgd.params["p"][0] == 1.5

    def test_momentum_recurrence(self):
        sgd = sgd_over({"p": np.array([0.0])}, momentum=0.9, weight_decay=0.0, lr_main=0.1)
        sgd["p"][...] = 1.0
        sgd_step(sgd)
        assert sgd.params["p"][0] == pytest.approx(-0.1, abs=1e-15)
        sgd_step(sgd)
        assert sgd.params["p"][0] == pytest.approx(-0.29, abs=1e-15)  # -0.1 + -0.19

    def test_weight_decay_shrinks_norm_monotonically(self):
        sgd = sgd_over({"p": np.array([2.0, -3.0])}, momentum=0.0, weight_decay=0.01,
                       lr_main=0.1)
        norms = [np.linalg.norm(sgd.params["p"])]
        for _ in range(5):
            sgd_step(sgd)
            norms.append(np.linalg.norm(sgd.params["p"]))
        assert all(b < a for a, b in zip(norms, norms[1:]))

    def test_lr_schedule_two_decays_at_epoch_25(self):
        sgd = sgd_over({"p": np.zeros(1)})
        assert sgd.lr("lce") == 0.01
        sgd.epoch = 9
        assert sgd.lr("lce") == 0.01
        sgd.epoch = 10
        assert sgd.lr("lce") == pytest.approx(0.001)
        sgd.epoch = 25
        assert sgd.lr("lce") == pytest.approx(0.01 * 0.01)
        assert sgd.lr("main") == pytest.approx(0.001 * 0.01)

    def test_bad_gradient_leaves_every_parameter_unchanged(self):
        """A gradient is checked as it is handed over: a product of the
        wrong shape raises, and no slot, parameter or buffer changes."""
        sgd = sgd_over({"a": np.array([1.0, 2.0, 3.0]), "b": np.ones((2, 3))}, lr_main=0.5)
        sgd["a"][...] = 1.0
        with pytest.raises(ValueError):
            sgd.product("b", np.ones((4, 3)), np.ones((4, 2)))
        assert not sgd["b"].any()
        assert np.array_equal(sgd.params["a"], [1.0, 2.0, 3.0])
        assert np.array_equal(sgd.params["b"], np.ones((2, 3)))
        assert not sgd.momentum.any()

    def test_slots_laid_out_lce_first_params_in_given_order(self):
        """A main tensor given before an lce one keeps its place in
        ``params`` but follows the lce slots in the arrays, and a fused
        weight follows every slot."""
        big = np.ones((2, _SGD_BLOCK // 2))
        sgd = sgd_over({"fusion.b": np.ones(3), "fusion.w": big, "gcn.b": np.ones(2)})
        assert list(sgd.params) == ["fusion.b", "fusion.w", "gcn.b"]
        assert list(sgd) == ["gcn.b", "fusion.b"] and list(sgd.fused) == ["fusion.w"]
        assert [address(sgd.params[n]) - address(sgd.arena)
                for n in ("gcn.b", "fusion.b", "fusion.w")] == [0, 16, 40]
        assert [(group, param.size) for group, param, _, _ in sgd.segments] == [
            ("lce", 2), ("main", 3)]

    def test_blocked_update_bit_identical_to_whole_array(self):
        """Arrays over one block, one per lr group and across an lr decay,
        end bit-identical to the update applied to whole arrays at once."""
        rng = np.random.default_rng(3)
        big = 2 * _SGD_BLOCK + 64  # two blocks and a 64-element tail
        # the main group's tail also holds a 5-element bias
        shapes = {"gcn.w": (big,), "fusion.w": (big + 5,)}
        params = {k: rng.standard_normal(s) for k, s in shapes.items()}
        steps = [(epoch, {k: rng.standard_normal(s) for k, s in shapes.items()})
                 for epoch in (1, 1, 2)]
        sgd = sgd_over(params, decay_every=2)
        bufs = {k: np.zeros(s) for k, s in shapes.items()}
        for epoch, grads in steps:
            sgd.epoch = epoch
            for k, grad in grads.items():
                sgd[k][...] = grad
                oracles.momentum_sgd(params[k], grad, bufs[k], oracles.scheduled_lr(
                    sgd.config, Network.lr_group(k), epoch), sgd.config)
            sgd_step(sgd)
        for (group, param, _, buf), k in zip(sgd.segments, shapes):
            assert same_bits(param, params[k]) and same_bits(buf, bufs[k]), group

    def test_non_contiguous_parameter_updated_in_place(self):
        """A strided tensor of over a block is copied into its contiguous
        view, which each step updates in place; the given storage stays."""
        rng = np.random.default_rng(4)
        storage = rng.standard_normal(2 * (3 * _SGD_BLOCK + 1))
        before = storage.copy()
        param = storage[::2]
        assert not param.flags.c_contiguous and param.size > _SGD_BLOCK
        grad = rng.standard_normal(param.shape)
        sgd = sgd_over({"w": param})
        view = sgd.params["w"]
        assert view.base is sgd.arena and view.flags.c_contiguous
        ref, ref_buf = param.copy(), np.zeros(param.shape)
        for _ in range(2):
            sgd["w"][...] = grad
            sgd_step(sgd)
            oracles.momentum_sgd(ref, grad, ref_buf, 0.001, sgd.config)
        assert sgd.params["w"] is view and same_bits(view, ref)
        assert same_bits(storage, before)

    @staticmethod
    def peak_of_step_on_four_block_tensors(seed):
        rng = np.random.default_rng(seed)
        shape = (4 * _SGD_BLOCK,)
        sgd = sgd_over({"a": rng.standard_normal(shape), "b": rng.standard_normal(shape)})
        for slot in sgd.values():
            slot[...] = rng.standard_normal(shape)
        tracemalloc.start()
        try:
            sgd_step(sgd)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_update_allocates_under_three_blocks(self):
        """Temporaries are block-sized: a step on 4-block tensors never holds
        a full-size temporary (the whole-array update peaks at 8 blocks)."""
        assert self.peak_of_step_on_four_block_tensors(5) < 3 * _SGD_BLOCK * 8

    def test_update_allocates_under_one_block(self):
        """Every intermediate goes into the optimizer's scratch array, so a
        step on 4-block tensors allocates less than one block."""
        assert self.peak_of_step_on_four_block_tensors(6) < _SGD_BLOCK * 8


def training_setup(n_samples=60, epochs=3, seed=5, noise=0.4, lr_main=0.001,
                   lr_lce=0.01, provider="precomputed", batch_size=8):
    c, d1 = 4, 8
    spec = SyntheticSpec(num_labels=c, feature_dim=d1, n_samples=n_samples,
                         dependency_edges=[(0, 1, 0.8)],
                         base_rates=[0.4, 0.1, 0.3, 0.3],
                         noise_sigma=noise, seed=seed)
    data = to_dataset(*generate_synthetic_dataset(spec))
    vocab = LabelVocabulary([f"L{j}" for j in range(c)])
    train_rows, val_rows, _ = split_dataset(len(data), (0.7, 0.1, 0.2), seed)
    p = conditional_matrix(count_cooccurrence(data.labels[train_rows], c))
    config = TrainConfig(gcn_dims=[6, 8, 6], d3=8, groups=2, group_size=4, d1=d1,
                         epochs=epochs, batch_size=batch_size, seed=seed,
                         lr_main=lr_main, lr_lce=lr_lce, provider=provider,
                         toy_hidden=6)
    emb = synthetic_embeddings(vocab, 6, seed)
    bundle = DataBundle(vocab=vocab, train_samples=data.take(train_rows),
                        val_samples=data.take(val_rows))
    return config, bundle, p, emb


# gcn.theta1 is then 256 x 128, exactly one block, and the only fused weight
FUSED_GCN_DIMS = [6, 256, 128]


class TestParameterArena:
    """A run's ``Sgd`` keeps its parameters and momentum buffers in one flat
    array each, the gradients of the tensors it does not fuse in a third,
    and updates those as one array per rate group."""

    @pytest.mark.parametrize("provider, fine_tune, fused", [
        pytest.param(provider, fine_tune, fused,
                     id=f"{provider}-{fine_tune}" + ("-fused" if fused else ""))
        for fused in (False, True) for provider in ("toy_mlp", "precomputed")
        for fine_tune in (False, True)])
    def test_every_tensor_is_a_view_of_one_array(self, provider, fine_tune, fused):
        config, bundle, p, emb = training_setup(provider=provider)
        if fused:
            config = replace(config, gcn_dims=FUSED_GCN_DIMS)
        run = Run(replace(config, fine_tune_embeddings=fine_tune), bundle, p, emb)
        sgd = run.sgd
        assert run.arena is sgd.arena and run.params is sgd.params
        names = list(run.network.parameters())
        assert ("embeddings.W" in names) is fine_tune
        assert list(run.params) == names
        groups = [Network.lr_group(name) for name in names]
        lce = groups.count("lce")
        assert groups == ["lce"] * lce + ["main"] * (len(names) - lce)
        fused_names = ["gcn.theta1"] if fused else []
        assert list(sgd.fused) == fused_names
        slots = [name for name in names if name not in fused_names]
        assert list(sgd) == slots
        grads = sgd.segments[0][2].base
        # the slot tensors come first, in order, then the fused weights
        for arena, views in ((run.arena, run.params), (grads, sgd)):
            offset = 0
            for name in slots + fused_names if arena is run.arena else slots:
                view = views[name]
                assert view.base is arena and view.flags.c_contiguous, name
                assert address(view) == address(arena) + 8 * offset, name
                offset += view.size
            assert offset == arena.size
        for name, (param, momentum) in sgd.fused.items():
            assert param is run.params[name]
            assert momentum.base is sgd.momentum and momentum.shape == param.shape
            assert (address(momentum) - address(sgd.momentum)
                    == address(param) - address(run.arena))
        lce_size = sum(run.params[name].size for name in slots
                       if Network.lr_group(name) == "lce")
        assert [group for group, *_ in sgd.segments] == ["lce", "main"]
        for k, arena in enumerate((run.arena, grads, sgd.momentum), start=1):
            lce_segment, main_segment = (segment[k] for segment in sgd.segments)
            assert lce_segment.base is arena and main_segment.base is arena
            assert address(lce_segment) == address(arena)
            assert address(main_segment) == address(arena) + 8 * lce_size
            assert (lce_segment.size, main_segment.size) == (
                lce_size, grads.size - lce_size)
        # the modules hold the parameter views themselves
        for name, arr in run.network.parameters().items():
            assert arr is run.params[name], name
        assert (run.network.w is run.params.get("embeddings.W")) is fine_tune

    @pytest.mark.parametrize("hidden, width, fused", [(256, 128, True), (217, 151, False)],
                             ids=["2^15", "2^15-1"])
    def test_a_weight_is_fused_from_one_block(self, hidden, width, fused):
        config, bundle, p, emb = training_setup()
        run = Run(replace(config, gcn_dims=[6, hidden, width]), bundle, p, emb)
        assert run.params["gcn.theta1"].size == (1 << 15) - (not fused)
        assert list(run.sgd.fused) == (["gcn.theta1"] if fused else [])
        assert ("gcn.theta1" in run.sgd) is not fused

    @pytest.mark.parametrize("fine_tune, fused", [
        pytest.param(fine_tune, fused, id=f"{fine_tune}" + ("-fused" if fused else ""))
        for fused in (False, True) for fine_tune in (False, True)])
    def test_two_epochs_match_a_per_tensor_update(self, fine_tune, fused):
        """The run's epochs, across an lr decay, end bit for bit where a
        per-tensor update of a deep copy of the same network ends, with
        gcn.theta1 fused or not."""
        config, bundle, p, emb = training_setup(provider="toy_mlp", lr_main=0.05)
        config = replace(config, fine_tune_embeddings=fine_tune, decay_every=1)
        if fused:
            config = replace(config, gcn_dims=FUSED_GCN_DIMS)
        run = Run(config, bundle, p, emb)
        network = copy.deepcopy(run.network)
        params = network.parameters()
        assert not any(np.shares_memory(arr, run.arena) for arr in params.values())
        bufs = {name: np.zeros_like(arr) for name, arr in params.items()}
        _, shuffle_seq = np.random.SeedSequence(config.seed).spawn(2)
        shuffle = np.random.Generator(np.random.PCG64(shuffle_seq))
        x, y = bundle.train_samples.features, bundle.train_samples.labels
        for epoch in range(2):
            run.epoch()
            order = shuffle.permutation(len(x))
            for start in range(0, len(x), config.batch_size):
                idx = order[start:start + config.batch_size]
                logits, cache = network.forward_batch(x[idx])
                grads = network_gradients(
                    network, cache, multilabel_loss_batch(logits, y[idx])[1])
                for name, param in params.items():
                    lr = (config.lr_lce if Network.lr_group(name) == "lce"
                          else config.lr_main) * 0.1 ** epoch
                    bufs[name] *= config.momentum
                    bufs[name] += grads[name] + config.weight_decay * param
                    param -= lr * bufs[name]
                network.note_update()
        assert ("gcn.theta1" in run.sgd.fused) is fused
        # each buffer sits in the momentum array where its parameter sits in
        # the parameter array
        layout = sorted(params, key=lambda name: address(run.params[name]))
        momentum = np.concatenate([bufs[name].ravel() for name in layout])
        assert momentum.tobytes() == run.sgd.momentum.tobytes()
        for name, arr in params.items():
            assert arr.tobytes() == run.params[name].tobytes(), name

    def test_backward_into_destinations_allocates_no_weight_gradient(self):
        """At shapes where gcn.theta1's gradient is 4 blocks, a backward pass
        into destination arrays allocates less than that gradient's bytes."""
        config = TrainConfig(gcn_dims=[5, 1024, 4 * _SGD_BLOCK // 1024], d3=4, groups=2,
                             group_size=2, d1=8, toy_hidden=5, provider="toy_mlp",
                             fine_tune_embeddings=True)
        vocab = LabelVocabulary(["a", "b", "c"])
        network = build_network(config, np.eye(3), synthetic_embeddings(vocab, 5, 0),
                                vocab.size, 6)
        rng = np.random.Generator(np.random.PCG64(9))
        logits, cache = network.forward_batch(rng.standard_normal((4, 6)))
        d_logits = multilabel_loss_batch(logits, rng.integers(0, 2, (4, 3)))[1]
        out = destinations(network.parameters())
        gradient_bytes = out["gcn.theta1"].nbytes
        assert gradient_bytes >= 4 * _SGD_BLOCK * 8
        tracemalloc.start()
        try:
            network.backward_batch(cache, d_logits, out)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < gradient_bytes

    def test_result_before_any_epoch_raises_and_keeps_the_arena(self):
        """Before any epoch there is no best epoch: result() raises rather
        than copy the initial draw, which ``best_params`` then holds, over
        the live parameters and return a checkpoint without an epoch."""
        config, bundle, p, emb = training_setup()
        run = Run(config, bundle, p, emb)
        before = run.arena.tobytes()
        with pytest.raises(RuntimeError, match="no epoch"):
            run.result()
        assert run.arena.tobytes() == before
        run.epoch()
        assert run.result().epoch == 0


    @pytest.mark.parametrize("provider, fine_tune", [
        (provider, fine_tune) for provider in ("toy_mlp", "precomputed")
        for fine_tune in (False, True)])
    def test_best_store_is_the_draw_apart_from_the_arena(self, provider, fine_tune):
        """Before the first epoch, ``best_params`` holds each tensor as
        ``build_network`` draws it, by name and in order, in arrays that
        share no memory with the parameter array."""
        config, bundle, p, emb = training_setup(provider=provider)
        config = replace(config, fine_tune_embeddings=fine_tune)
        run = Run(config, bundle, p, emb)
        drawn = build_network(config, p, emb, bundle.vocab.size,
                              bundle.train_samples.features.shape[1]).parameters()
        assert list(run.best_params) == list(drawn) == list(run.params)
        for name, arr in drawn.items():
            best = run.best_params[name]
            assert best.shape == arr.shape, name
            assert np.array_equal(best.view(np.uint64), arr.view(np.uint64)), name
            assert not np.shares_memory(best, run.arena), name
            assert not np.shares_memory(best, run.sgd.momentum), name

    @pytest.mark.parametrize("provider, fine_tune", [
        ("precomputed", False), ("toy_mlp", True)])
    def test_result_is_the_best_epoch_bit_for_bit(self, provider, fine_tune):
        """When the best epoch is neither the first nor the last, the store
        holds the best epoch so far after every epoch, and result() returns
        and restores the best epoch's tensors bit for bit."""
        # at this rate the validation AUC rises, dips and ties its best
        config, bundle, p, emb = training_setup(epochs=5, lr_main=0.2, provider=provider)
        run = Run(replace(config, fine_tune_embeddings=fine_tune), bundle, p, emb)
        snapshots = []
        for _ in range(config.epochs):
            run.epoch()
            snapshots.append({name: view.copy() for name, view in run.params.items()})
            for name, arr in snapshots[run.best_epoch].items():
                assert run.best_params[name].tobytes() == arr.tobytes(), name
        assert 0 < run.best_epoch < config.epochs - 1
        result = run.result()
        assert result.epoch == run.best_epoch
        for name, arr in snapshots[run.best_epoch].items():
            assert result.tensors[name].tobytes() == arr.tobytes(), name
            assert run.params[name].tobytes() == arr.tobytes(), name

# (name, rows, cols, K) for a.T @ b with a K x rows and b K x cols: the six
# paper-c14 weights at the reduction length of their product there (C = 14
# labels, B = 32 rows), then 1,000 rows that the 327-row blocks do not
# divide, exactly one block, one element short of a block (which has a
# gradient slot instead), a one-row tail after 128-row blocks, and rows wider than a block, two of them and three (a one-row
# tail again)
FUSED_CASES = [
    ("gcn.theta0", 300, 1024, 14), ("gcn.theta1", 1024, 768, 14),
    ("fusion.fc1_w", 768, 384, 32), ("fusion.fc2_w", 768, 384, 14),
    ("fusion.u_tilde", 384, 384, 32), ("fusion.v_tilde", 384, 384, 14),
    ("fusion.fc1_w", 1000, 100, 7), ("gcn.theta0", 128, 256, 5),
    ("fusion.u_tilde", 217, 151, 5), ("gcn.theta1", 257, 256, 5),
    ("fusion.v_tilde", 2, 40000, 3), ("fusion.v_tilde", 3, 40000, 3),
]


class TestFusedUpdate:
    """A weight's gradient a.T @ b applied block by block as its SGD update
    ends bit for bit where writing the whole gradient, then updating the
    whole tensor, ends."""

    @pytest.mark.parametrize("name, rows, cols, k", FUSED_CASES,
                             ids=[f"{n}-{r}x{c}-K{k}" for n, r, c, k in FUSED_CASES])
    def test_same_bits_as_whole_gradient_then_sgd_step(self, name, rows, cols, k):
        rng = np.random.default_rng(rows * cols + k)
        param = rng.standard_normal((rows, cols))
        sgd = sgd_over({name: param}, decay_every=2)
        assert (name in sgd.fused) is (param.size >= _SGD_BLOCK)
        buf = np.zeros_like(param)
        for epoch in (1, 1, 2):  # the last step after an lr decay
            a, b = rng.standard_normal((k, rows)), rng.standard_normal((k, cols))
            sgd.epoch = epoch
            sgd.product(name, a, b)
            sgd_step(sgd)
            oracles.momentum_sgd(param, a.T @ b, buf, oracles.scheduled_lr(
                sgd.config, Network.lr_group(name), epoch), sgd.config)
        assert same_bits(sgd.params[name], param)
        assert same_bits(sgd.momentum, buf.reshape(-1))

    @pytest.mark.parametrize("labels, batch", [(3, 8), (40, 2)],
                             ids=["label-side", "image-side"])
    def test_backward_outputs_same_bits_under_a_fusing_out(self, labels, batch):
        """dFeats, dLO, a fine-tuned dW and every slot come out bit for bit
        the same whether each weight's gradient is written whole or fused
        into its update, so no backward pass reads a weight after handing
        over its gradient; each fused weight and its momentum end where
        "whole gradient, then update" puts them. Every weight fills a
        block, and both forms of the v_tilde gradient are taken."""
        config = TrainConfig(gcn_dims=[256, 256, 128], d1=128, d3=256, groups=32,
                             group_size=8, toy_hidden=256, provider="toy_mlp",
                             fine_tune_embeddings=True)
        vocab = LabelVocabulary([f"L{j}" for j in range(labels)])
        network = build_network(config, np.full((labels, labels), 0.5),
                                synthetic_embeddings(vocab, 256, 0), labels, 128)
        twin = copy.deepcopy(network)
        params, twin_params = network.parameters(), twin.parameters()
        fused = [name for name, arr in params.items()
                 if arr.ndim == 2 and name != "embeddings.W"]
        assert len(fused) == 8 and all(params[name].size >= _SGD_BLOCK for name in fused)
        whole = destinations(params)
        fusing = Sgd(twin_params, config)
        assert list(fusing.fused) == fused
        # the twin reads and updates the optimizer's views, and a slot left
        # unwritten shows as NaN
        twin.set_parameters(fusing.params)
        for slot in fusing.values():
            slot[...] = np.nan
        rng = np.random.default_rng(labels)
        x, y = rng.standard_normal((batch, 128)), rng.integers(0, 2, (batch, labels))
        inputs = []
        for net, out in ((network, whole), (twin, fusing)):
            logits, cache = net.forward_batch(x)
            d_feats, d_lo = fusion_backward_batch(
                cache["fusion"], multilabel_loss_batch(logits, y)[1], out)
            gcn_backward(cache["gcn"], d_lo, out)
            net.backbone.backward_batch(cache["backbone"], d_feats, out)
            inputs.append((d_feats, d_lo))
        assert image_side_first(batch, labels, config.d3,
                                config.groups * config.group_size) is (labels > batch)
        for want, got in zip(*inputs):
            assert same_bits(got, want)
        assert list(fusing) == [name for name in whole if name not in fused]
        for name, slot in fusing.items():
            assert not np.isnan(slot).any() and same_bits(slot, whole[name]), name
        for name in fused:
            buf = np.zeros_like(params[name])
            oracles.momentum_sgd(params[name], whole[name], buf, oracles.scheduled_lr(
                config, Network.lr_group(name), 0), config)
            assert same_bits(fusing.params[name], params[name]), name
            assert same_bits(fusing.fused[name][1], buf), name

    def test_epoch_allocates_less_than_a_fused_weight(self):
        """A run with a 2^16-element weight has no gradient slot for it, and
        after the first epoch a training epoch's allocations peak below the
        weight's bytes: its gradient is never written out whole."""
        config, bundle, p, emb = training_setup()
        run = Run(replace(config, gcn_dims=[6, 256, 256]), bundle, p, emb)
        weight = run.params["gcn.theta1"]
        assert weight.size == 1 << 16
        assert "gcn.theta1" in run.sgd.fused and "gcn.theta1" not in run.sgd
        assert sum(slot.nbytes for slot in run.sgd.values()) < weight.nbytes
        run.epoch()
        tracemalloc.start()
        try:
            run.epoch()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < weight.nbytes


class TestTrainLoop:
    def test_smoke_one_epoch(self):
        config, bundle, p, emb = training_setup(n_samples=8, epochs=1)
        result = train(config, bundle, p, emb)
        assert len(result.history) == 1
        assert np.isfinite(result.history[0]["train_loss"])

    def test_same_seed_identical_parameters(self):
        config, bundle, p, emb = training_setup(epochs=2)
        a = train(config, bundle, p, emb)
        config2, bundle2, p2, emb2 = training_setup(epochs=2)
        b = train(config2, bundle2, p2, emb2)
        for name, arr in a.network.parameters().items():
            assert np.array_equal(arr, b.network.parameters()[name]), name

    def test_loss_decreases_on_learnable_problem(self):
        config, bundle, p, emb = training_setup(n_samples=120, epochs=5,
                                                    noise=0.2, lr_main=0.01)
        result = train(config, bundle, p, emb)
        losses = [row["train_loss"] for row in result.history]
        assert all(b < a for a, b in zip(losses, losses[1:])), losses

    def test_nan_loss_aborts_with_diagnostic(self):
        config, bundle, p, emb = training_setup(epochs=4, lr_main=1e18,
                                                    lr_lce=1e18)
        with np.errstate(all="ignore"), pytest.raises(NumericalError, match="epoch"):
            train(config, bundle, p, emb)

    def test_nan_loss_names_first_non_finite_tensor(self):
        logits = np.zeros((2, 3))
        params = {"gcn.theta0": np.ones((2, 2)), "fusion.fc1_w": np.array([1.0, np.inf]),
                  "fusion.fc1_b": np.array([np.nan])}
        assert _first_non_finite(logits, params) == "first non-finite tensor: fusion.fc1_w"
        logits[1, 2] = np.nan
        assert _first_non_finite(logits, params) == "first non-finite tensor: logits"
        assert (_first_non_finite(np.zeros(3), {"gcn.theta0": np.ones(2)})
                == "logits and parameters are finite")

    def test_fine_tuning_leaves_the_callers_embeddings_alone(self, tmp_path):
        config, bundle, p, emb = training_setup(epochs=2)
        config = replace(config, fine_tune_embeddings=True)
        before = emb.copy()
        paths = [tmp_path / "a.bin", tmp_path / "b.bin"]
        for path in paths:
            result = train(config, bundle, p, emb)
            save_checkpoint(path, result)
        assert not np.array_equal(result.tensors["embeddings.W"], before)
        assert np.array_equal(emb, before)
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_toy_backbone_trains(self):
        config, bundle, p, emb = training_setup(n_samples=20, epochs=1,
                                                    provider="toy_mlp")
        result = train(config, bundle, p, emb)
        assert "backbone.w1" in result.network.parameters()


def row_id_bundle(n: int, n_val: int) -> DataBundle:
    """n train rows whose first feature is the row's index, and n_val
    validation rows whose first feature is -1 - index, over 3 labels."""
    rng = np.random.Generator(np.random.PCG64(n))
    features = rng.standard_normal((n + n_val, 4))
    features[:, 0] = np.r_[np.arange(n), -1 - np.arange(n_val)]
    rows = Dataset([f"s{i}" for i in range(n + n_val)],
                   rng.integers(0, 2, size=(n + n_val, 3)), features)
    return DataBundle(vocab=LabelVocabulary(["a", "b", "c"]),
                      train_samples=rows.take(np.arange(n)),
                      val_samples=rows.take(np.arange(n, n + n_val)))


class TestRun:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 40).flatmap(lambda n: st.tuples(st.just(n),
                                                          st.integers(1, n + 3))))
    def test_epoch_feeds_each_train_row_once_in_batches(self, n_and_batch_size):
        n, batch_size = n_and_batch_size
        bundle = row_id_bundle(n, n_val=3)
        config = TrainConfig(gcn_dims=[2, 3, 2], d1=4, d3=2, groups=1, group_size=2,
                             batch_size=batch_size, epochs=1, seed=n)
        fed, losses = [], []
        forward, loss_batch = Network.forward_batch, training.multilabel_loss_batch

        def record_forward(network, x):
            fed.append(x[:, 0].copy())
            return forward(network, x)

        def record_loss(logits, labels):
            loss, grad = loss_batch(logits, labels)
            losses.append((labels.copy(), loss))
            return loss, grad

        run = Run(config, bundle, np.eye(3), synthetic_embeddings(bundle.vocab, 2, 0))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(Network, "forward_batch", record_forward)
            mp.setattr(training, "multilabel_loss_batch", record_loss)
            run.epoch()
        ids = np.concatenate(fed)
        assert np.array_equal(np.sort(ids[ids >= 0]), np.arange(n))
        sizes = [len(labels) for labels, _ in losses]
        assert sizes == [batch_size] * (n // batch_size) + (
            [n % batch_size] if n % batch_size else [])
        train_labels = bundle.train_samples.labels
        for batch, (labels, _) in zip(fed, losses):
            assert np.array_equal(labels, train_labels[batch.astype(int)])
        weighted = sum(len(labels) * loss for labels, loss in losses) / n
        assert run.history[-1]["train_loss"] == pytest.approx(weighted, rel=1e-12)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("column", [0, 1, 2])
    def test_non_finite_logit_stops_the_epoch_at_its_batch(self, bad, column):
        bundle = row_id_bundle(10, n_val=3)
        config = TrainConfig(gcn_dims=[2, 3, 2], d1=4, d3=2, groups=1, group_size=2,
                             batch_size=3, epochs=1, seed=1)
        run = Run(config, bundle, np.eye(3), synthetic_embeddings(bundle.vocab, 2, 0))
        forward, batches = Network.forward_batch, []

        def poison_third_batch(network, x):
            logits, cache = forward(network, x)
            batches.append(x)
            if len(batches) == 3:
                logits[-1, column] = bad
            return logits, cache

        with pytest.MonkeyPatch.context() as mp, pytest.raises(NumericalError) as info:
            mp.setattr(Network, "forward_batch", poison_third_batch)
            run.epoch()
        assert len(batches) == 3
        assert str(info.value) == ("non-finite loss at epoch 0, batch 2; first non-finite "
                                   "tensor: logits (lr_lce=0.01, lr_main=0.001)")

    def test_empty_train_split_rejected(self):
        bundle = row_id_bundle(0, n_val=3)
        config = TrainConfig(gcn_dims=[2, 3, 2], d1=4, d3=2, groups=1, group_size=2)
        emb = synthetic_embeddings(bundle.vocab, 2, 0)
        with pytest.raises(InputError, match="^the train split is empty$"):
            Run(config, bundle, np.eye(3), emb)
        with pytest.raises(InputError, match="^the train split is empty$"):
            train(config, bundle, np.eye(3), emb)

    @pytest.mark.parametrize("with_val", [True, False],
                             ids=["validation", "no-validation"])
    def test_run_by_hand_matches_train(self, tmp_path, with_val):
        # at this rate the validation AUC rises, dips and ties its best
        config, bundle, p, emb = training_setup(epochs=5, lr_main=0.2)
        if not with_val:
            bundle = replace(bundle, val_samples=bundle.val_samples.take([]))
        run = Run(config, bundle, p, emb)
        for k in range(config.epochs):
            run.epoch()
            assert len(run.history) == k + 1
            aucs = [row["val_mean_auc"] for row in run.history]
            if with_val:
                assert None not in aucs
                expected = (aucs.index(max(aucs)), max(aucs))   # first strictly best
            else:
                expected = (k, None)                            # the latest epoch
            assert (run.best_epoch, run.best_val_auc) == expected
        if with_val:
            assert run.best_epoch < config.epochs - 1
        save_checkpoint(tmp_path / "run.bin", run.result())
        trained = train(config, bundle, p, emb)
        save_checkpoint(tmp_path / "train.bin", trained)
        assert (tmp_path / "run.bin").read_bytes() == (tmp_path / "train.bin").read_bytes()
        assert run.history == trained.history


# header edits: None drops the key, any other value replaces it
_BAD_HEADER_KEYS = {
    "no-tensors": ("tensors", None), "no-labels": ("labels", None),
    "no-config": ("config", None), "no-epoch": ("epoch", None),
    "no-best-val-auc": ("best_val_auc", None),
    "tensors-not-list": ("tensors", {"a": 1}),
    "tensor-without-shape": ("tensors", [{"name": "x"}]),
    "int-labels": ("labels", [1, 2]), "string-epoch": ("epoch", "3"),
    "string-auc": ("best_val_auc", "high"),
    "string-config-epochs": ("config", {"epochs": "5"}),
}


class TestInitialParameters:
    @pytest.mark.parametrize("provider, gcn_dims, alpha", [
        ("precomputed", [5, 7, 6], 0.2),
        ("toy_mlp", [5, 7, 6], 0.35),
        ("precomputed", [5, 7, 8, 6], 0.2),
    ], ids=["precomputed", "toy_mlp", "three-layer-gcn"])
    def test_draws_match_the_documented_order_and_bounds(self, provider, gcn_dims,
                                                         alpha):
        config = TrainConfig(gcn_dims=gcn_dims, d1=9, d3=4, groups=3, group_size=2,
                             toy_hidden=5, leaky_alpha=alpha, provider=provider,
                             seed=11)
        raw_dim = 13 if provider == "toy_mlp" else 9
        w = np.random.Generator(np.random.PCG64(3)).standard_normal((4, 5))
        got = build_network(config, np.eye(4), w, 4, raw_dim).parameters()
        expected = oracles.initial_parameters(config, raw_dim)
        assert list(got) == list(expected)
        for name, arr in expected.items():
            assert got[name].shape == arr.shape and np.array_equal(got[name], arr), name


class TestCheckpoint:
    @pytest.mark.parametrize("provider, fine_tune", [("precomputed", False),
                                                     ("toy_mlp", False),
                                                     ("precomputed", True)],
                             ids=["plain", "toy_mlp", "fine-tuned"])
    def test_round_trip_forward_bit_identical(self, tmp_path, provider, fine_tune):
        config, bundle, p, emb = training_setup(epochs=2, provider=provider)
        config = replace(config, fine_tune_embeddings=fine_tune)
        result = train(config, bundle, p, emb)
        path = tmp_path / "ckpt.bin"
        save_checkpoint(path, result)
        ckpt = load_checkpoint(path)
        network = network_from_checkpoint(ckpt)
        rng = np.random.Generator(np.random.PCG64(8))
        x = rng.standard_normal((6, 8))
        assert np.array_equal(network.predict_logits(x),
                              result.network.predict_logits(x))

    @pytest.mark.parametrize("provider, fine_tune", [("precomputed", False),
                                                     ("toy_mlp", False),
                                                     ("precomputed", True)],
                             ids=["plain", "toy_mlp", "fine-tuned"])
    def test_saving_a_loaded_checkpoint_writes_the_same_bytes(self, tmp_path, provider,
                                                             fine_tune):
        config, bundle, p, emb = training_setup(epochs=2, provider=provider)
        config = replace(config, fine_tune_embeddings=fine_tune)
        p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
        save_checkpoint(p1, train(config, bundle, p, emb))
        save_checkpoint(p2, load_checkpoint(p1))
        assert p1.read_bytes() == p2.read_bytes()

    def test_save_is_deterministic(self, tmp_path):
        config, bundle, p, emb = training_setup(epochs=1)
        result = train(config, bundle, p, emb)
        p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
        save_checkpoint(p1, result)
        save_checkpoint(p2, result)
        assert p1.read_bytes() == p2.read_bytes()

    def test_failed_save_keeps_previous_checkpoint(self, tmp_path, monkeypatch):
        config, bundle, p, emb = training_setup(epochs=1)
        result = train(config, bundle, p, emb)
        path = tmp_path / "checkpoint.bin"
        save_checkpoint(path, result)
        before = path.read_bytes()

        def disk_full(*args, **kwargs):
            raise OSError("disk full")

        # the header is written; the first tensor payload fails
        monkeypatch.setattr(np, "ascontiguousarray", disk_full)
        with pytest.raises(OSError, match="disk full"):
            save_checkpoint(path, result)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["checkpoint.bin"]

    def test_truncated_payload_fatal(self, tmp_path):
        config, bundle, p, emb = training_setup(epochs=1)
        result = train(config, bundle, p, emb)
        path = tmp_path / "ckpt.bin"
        save_checkpoint(path, result)
        data = path.read_bytes()
        path.write_bytes(data[:-16])
        with pytest.raises(InputError, match="truncated|mismatch"):
            load_checkpoint(path)

    def test_corrupt_header_fatal(self, tmp_path):
        path = tmp_path / "ckpt.bin"
        path.write_bytes(b"{not json\n\x00\x01")
        with pytest.raises(InputError, match="corrupt"):
            load_checkpoint(path)

    @pytest.mark.parametrize("key, value", list(_BAD_HEADER_KEYS.values()),
                             ids=list(_BAD_HEADER_KEYS))
    def test_malformed_header_key_fatal(self, tmp_path, key, value):
        config, bundle, p, emb = training_setup(epochs=1)
        path = tmp_path / "ckpt.bin"
        save_checkpoint(path, train(config, bundle, p, emb))
        line, _, payload = path.read_bytes().partition(b"\n")
        header = json.loads(line)
        if value is None:
            del header[key]
        else:
            header[key] = value
        path.write_bytes(json.dumps(header).encode() + b"\n" + payload)
        with pytest.raises(InputError):
            load_checkpoint(path)

    @pytest.mark.parametrize("edit", ["appended", "renamed"])
    def test_repeated_tensor_name_fatal(self, tmp_path, edit):
        # the repeat is the fault to name: a later entry must not win, and a
        # theta1 renamed theta0 is not a shape fault of theta0
        config, bundle, p, emb = training_setup(epochs=1)
        path = tmp_path / "ckpt.bin"
        save_checkpoint(path, train(config, bundle, p, emb))
        line, _, payload = path.read_bytes().partition(b"\n")
        header = json.loads(line)
        if edit == "appended":
            repeated = "fusion.fc3_b"
            header["tensors"].append({"name": repeated, "shape": [1]})
            payload += np.array([5.0], dtype="<f8").tobytes()
        else:
            repeated = "gcn.theta0"
            entry = next(e for e in header["tensors"] if e["name"] == "gcn.theta1")
            entry["name"] = repeated
        path.write_bytes(json.dumps(header).encode() + b"\n" + payload)
        with pytest.raises(InputError, match=f"names tensor '{repeated}' twice"):
            load_checkpoint(path)

    def test_header_has_no_backbone_flag(self, tmp_path):
        # whether there is a backbone follows from the echoed config's provider
        config, bundle, p, emb = training_setup(epochs=1, provider="toy_mlp")
        path = tmp_path / "ckpt.bin"
        save_checkpoint(path, train(config, bundle, p, emb))
        header = json.loads(path.read_bytes().partition(b"\n")[0])
        assert "has_backbone" not in header

    @pytest.mark.parametrize("flag", [True, False])
    def test_older_header_with_backbone_flag_loads(self, tmp_path, flag):
        # older headers carry has_backbone before tensors; the reader ignores it
        config, bundle, p, emb = training_setup(epochs=1)
        result = train(config, bundle, p, emb)
        path = tmp_path / "ckpt.bin"
        save_checkpoint(path, result)
        line, _, payload = path.read_bytes().partition(b"\n")
        header = json.loads(line)
        tensors = header.pop("tensors")
        header.update(has_backbone=flag, tensors=tensors)
        path.write_bytes(json.dumps(header).encode() + b"\n" + payload)
        x = np.random.Generator(np.random.PCG64(8)).standard_normal((6, 8))
        network = network_from_checkpoint(load_checkpoint(path))
        assert np.array_equal(network.predict_logits(x), result.network.predict_logits(x))

    def test_load_holds_the_payload_once(self, tmp_path):
        # paper shapes: the tensors are views into one buffer, not copies
        vocab = LabelVocabulary([f"P{j:02d}" for j in range(14)])
        config = TrainConfig()
        p = np.eye(14)
        w = synthetic_embeddings(vocab, 300, 0)
        network = build_network(config, p, w, vocab.size, 768)
        path = tmp_path / "ckpt.bin"
        save_checkpoint(path, Checkpoint(labels=vocab.labels, config=config, epoch=0,
                                         best_val_auc=None,
                                         tensors={"embeddings.W": w, "graph.P": p,
                                                  **network.parameters()}))
        payload = len(path.read_bytes().partition(b"\n")[2])
        tracemalloc.start()
        try:
            ckpt = load_checkpoint(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.25 * payload
        assert ckpt.tensors["gcn.theta0"].flags.writeable

    def test_checkpoint_holds_no_optimizer_state(self, tmp_path):
        config, bundle, p, emb = training_setup(epochs=1)
        path = tmp_path / "ckpt.bin"
        save_checkpoint(path, train(config, bundle, p, emb))
        header = json.loads(path.read_bytes().partition(b"\n")[0])
        names = [entry["name"] for entry in header["tensors"]]
        assert "fusion.fc3_w" in names
        assert not [n for n in names if n.startswith("opt.")]

    def test_checkpoint_holds_embeddings_p_and_parameters(self, tmp_path):
        config, bundle, p, emb = training_setup(epochs=1)
        result = train(config, bundle, p, emb)
        path = tmp_path / "ckpt.bin"
        save_checkpoint(path, result)
        header = json.loads(path.read_bytes().partition(b"\n")[0])
        assert [entry["name"] for entry in header["tensors"]] == \
            ["embeddings.W", "graph.P", *result.network.parameters()]

    @pytest.mark.parametrize("axis", ["row", "col"])
    def test_ea_norm_rebuilt_bit_identical(self, tmp_path, axis):
        config, bundle, _, emb = training_setup(epochs=1)
        config = replace(config, reweight_axis=axis, epsilon=0.1, delta=0.35,
                         graph_include_val=True)
        labels = np.concatenate([bundle.train_samples.labels, bundle.val_samples.labels])
        graph = build_correlation_graph(count_cooccurrence(labels, bundle.vocab.size),
                                        0.1, 0.35, reweight_axis=axis)
        path = tmp_path / "ckpt.bin"
        save_checkpoint(path, train(config, bundle, graph["P"], emb))
        network = network_from_checkpoint(load_checkpoint(path))
        assert np.array_equal(network.propagation.matrix, graph["EA_norm"])

    def test_reload_exact_for_thresholds_beyond_twelve_digits(self, tmp_path):
        # P[2, 3] is exactly epsilon = 1/3, so the edge is dropped; rounded to
        # 12 digits epsilon falls below it and the edge would appear on reload
        config, bundle, p, emb = training_setup(epochs=1)
        epsilon, delta, alpha = 1.0 / 3.0, 0.2000000000001234, 1.0 / 7.0
        p = p.copy()
        p[2, 3] = 1.0 / 3.0
        graph = graph_from_conditional(p, epsilon, delta)
        rounded = graph_from_conditional(p, float("%.12g" % epsilon),
                                         float("%.12g" % delta))
        assert not np.array_equal(rounded["EA_norm"], graph["EA_norm"])
        config = replace(config, epsilon=epsilon, delta=delta, leaky_alpha=alpha)
        result = train(config, bundle, p, emb)
        path = tmp_path / "ckpt.bin"
        save_checkpoint(path, result)
        ckpt = load_checkpoint(path)
        assert (ckpt.config.epsilon, ckpt.config.delta, ckpt.config.leaky_alpha) == \
            (epsilon, delta, alpha)
        network = network_from_checkpoint(ckpt)
        assert np.array_equal(network.propagation.matrix, graph["EA_norm"])
        x = np.random.Generator(np.random.PCG64(8)).standard_normal((6, 8))
        assert np.array_equal(network.predict_logits(x),
                              result.network.predict_logits(x))

    @pytest.mark.parametrize("epsilon, delta, axis", [(0.3, 0.1, "row"),
                                                      (0.3, 0.2, "col"),
                                                      (0.05, 0.2, "row")])
    def test_trained_ea_norm_is_the_reloaded_one(self, tmp_path, epsilon, delta, axis):
        # train and the checkpoint reader both derive EA_norm from P and the
        # config, so a network trained under any thresholds reloads as itself
        config, bundle, p, emb = training_setup(epochs=1)
        config = replace(config, epsilon=epsilon, delta=delta, reweight_axis=axis)
        result = train(config, bundle, p, emb)
        path = tmp_path / "ckpt.bin"
        save_checkpoint(path, result)
        network = network_from_checkpoint(load_checkpoint(path))
        assert np.array_equal(network.propagation.matrix, result.network.propagation.matrix)

    @pytest.mark.parametrize("stored", ["true", "garbage"])
    def test_checkpoint_with_derived_graph_tensors_still_loads(self, tmp_path, stored):
        # earlier checkpoints hold graph.A, graph.EA and graph.EA_norm after
        # graph.P, and the oldest also opt.* buffers; the reader skips them
        # and rebuilds EA_norm from P, so even a garbage EA_norm is not read
        config, bundle, p, emb = training_setup(epochs=2)
        result = train(config, bundle, p, emb)
        graph = graph_from_conditional(p, config.epsilon, config.delta)
        path = tmp_path / "ckpt.bin"
        save_checkpoint(path, result)
        line, _, payload = path.read_bytes().partition(b"\n")
        header = json.loads(line)
        rng = np.random.Generator(np.random.PCG64(3))
        derived = {"graph.A": graph["A"].astype(np.float64), "graph.EA": graph["EA"],
                   "graph.EA_norm": graph["EA_norm"]}
        if stored == "garbage":
            derived = {name: rng.standard_normal(arr.shape)
                       for name, arr in derived.items()}
        after_p = 8 * (graph["P"].size + result.network.w.size)
        header["tensors"][2:2] = [{"name": name, "shape": list(arr.shape)}
                                  for name, arr in derived.items()]
        payload = (payload[:after_p] + b"".join(arr.astype("<f8").tobytes()
                                                for arr in derived.values())
                   + payload[after_p:])
        for name, arr in result.network.parameters().items():
            header["tensors"].append({"name": f"opt.{name}", "shape": list(arr.shape)})
            payload += rng.standard_normal(arr.shape).astype("<f8").tobytes()
        path.write_bytes(json.dumps(header).encode() + b"\n" + payload)
        ckpt = load_checkpoint(path)
        assert np.array_equal(ckpt.tensors["graph.EA_norm"], derived["graph.EA_norm"])
        x = np.random.Generator(np.random.PCG64(8)).standard_normal((6, 8))
        assert np.array_equal(network_from_checkpoint(ckpt).predict_logits(x),
                              result.network.predict_logits(x))

    def test_checkpoint_with_optimizer_buffers_still_loads(self, tmp_path):
        # earlier checkpoints append one opt.<name> momentum buffer per parameter
        config, bundle, p, emb = training_setup(epochs=2)
        result = train(config, bundle, p, emb)
        path = tmp_path / "ckpt.bin"
        save_checkpoint(path, result)
        line, _, payload = path.read_bytes().partition(b"\n")
        header = json.loads(line)
        rng = np.random.Generator(np.random.PCG64(3))
        for name, arr in result.network.parameters().items():
            header["tensors"].append({"name": f"opt.{name}", "shape": list(arr.shape)})
            payload += rng.standard_normal(arr.shape).astype("<f8").tobytes()
        path.write_bytes(json.dumps(header).encode() + b"\n" + payload)
        ckpt = load_checkpoint(path)
        assert any(n.startswith("opt.") for n in ckpt.tensors)
        x = np.random.Generator(np.random.PCG64(8)).standard_normal((6, 8))
        assert np.array_equal(network_from_checkpoint(ckpt).predict_logits(x),
                              result.network.predict_logits(x))

    def test_wrong_format_fatal(self, tmp_path):
        path = tmp_path / "ckpt.bin"
        path.write_bytes(b'{"format":"other","version":1,"tensors":[]}\n')
        with pytest.raises(InputError, match="not a checkpoint"):
            load_checkpoint(path)

    def test_version_mismatch_fatal(self, tmp_path):
        config, bundle, p, emb = training_setup(epochs=1)
        result = train(config, bundle, p, emb)
        path = tmp_path / "ckpt.bin"
        save_checkpoint(path, result)
        header, _, payload = path.read_bytes().partition(b"\n")
        path.write_bytes(header.replace(b'"version":1', b'"version":99') + b"\n" + payload)
        with pytest.raises(InputError, match="version"):
            load_checkpoint(path)

    def test_label_count_mismatch_names_problem(self, tmp_path):
        config, bundle, p, emb = training_setup(epochs=1)
        result = train(config, bundle, p, emb)
        path = tmp_path / "ckpt.bin"
        save_checkpoint(path, result)
        ckpt = load_checkpoint(path)
        ckpt.labels.append("extra")
        with pytest.raises(ShapeError, match="labels"):
            network_from_checkpoint(ckpt)


class TestDefaultScale:
    def test_default_dimensions_train_one_step(self):
        """The documented full-scale configuration (C=14, 768-d features,
        GCN 300->1024->768, D3=384, G=64, g=6) runs forward and backward."""
        c = 14
        spec = SyntheticSpec(num_labels=c, feature_dim=768, n_samples=12,
                             dependency_edges=[(0, 1, 0.8)],
                             base_rates=[0.3] * c, noise_sigma=0.5, seed=1)
        data = to_dataset(*generate_synthetic_dataset(spec))
        vocab = LabelVocabulary([f"P{j:02d}" for j in range(c)])
        train_rows, val_rows, _ = split_dataset(len(data), (0.7, 0.1, 0.2), 1)
        p = conditional_matrix(count_cooccurrence(data.labels[train_rows], c))
        config = TrainConfig(epochs=1, batch_size=8, seed=1)
        emb = synthetic_embeddings(vocab, 300, 1)
        bundle = DataBundle(vocab=vocab, train_samples=data.take(train_rows),
                            val_samples=data.take(val_rows))
        result = train(config, bundle, p, emb)
        assert np.isfinite(result.history[0]["train_loss"])
        shapes = {name: arr.shape for name, arr in result.network.parameters().items()}
        assert shapes["gcn.theta0"] == (300, 1024)
        assert shapes["gcn.theta1"] == (1024, 768)
        assert shapes["fusion.u_tilde"] == (384, 384)
        assert shapes["fusion.fc3_w"] == (64,)


class TestTrainConfig:
    def test_defaults_match_documented_values(self):
        config = TrainConfig()
        assert (config.epsilon, config.delta) == (0.3, 0.2)
        assert (config.groups, config.group_size, config.d3) == (64, 6, 384)
        assert config.gcn_dims == [300, 1024, 768]
        assert config.d1 == 768
        assert (config.lr_lce, config.lr_main) == (0.01, 0.001)
        assert (config.momentum, config.weight_decay) == (0.9, 5e-5)
        assert (config.decay_every, config.decay_factor) == (10, 0.1)
        assert (config.epochs, config.batch_size) == (30, 32)

    def test_key_mapping_for_G_and_g(self):
        config = TrainConfig.from_dict({"G": 8, "g": 3})
        assert config.groups == 8 and config.group_size == 3
        echo = config.to_dict()
        assert echo["G"] == 8 and echo["g"] == 3

    def test_unknown_key_rejected(self):
        with pytest.raises(InputError, match="unknown config key"):
            TrainConfig.from_dict({"epsilonn": 0.3})

    def test_range_validation(self):
        with pytest.raises(InputError):
            TrainConfig.from_dict({"epsilon": 1.5})
        with pytest.raises(InputError):
            TrainConfig.from_dict({"delta": 1.0})
        with pytest.raises(InputError):
            TrainConfig.from_dict({"ratios": [0.5, 0.5, 0.5]})
        with pytest.raises(InputError, match="seed must be >= 0"):
            TrainConfig.from_dict({"seed": -1})

    @pytest.mark.parametrize("key, value", [("uncertain_policy", "maybe"),
                                            ("provider", "resnet"),
                                            ("dataset_format", "xml"),
                                            ("reweight_axis", "diagonal")])
    def test_unknown_choice_rejected(self, key, value):
        with pytest.raises(InputError, match=f"{key} must be one of"):
            TrainConfig.from_dict({key: value})

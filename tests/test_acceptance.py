"""Acceptance suite: one test per release criterion, each printing a
pass/fail line. Oracles here are deliberately independent, straight-line
reimplementations of the documented semantics.

Criterion 7's expected values were produced by the paired baseline-vs-model
run in this file (fixed seeds, this configuration) and then frozen; the
tolerances on the frozen numbers absorb BLAS-level platform drift while the
window and margin assertions carry the actual requirement.
"""

import contextlib
import json
import time

import numpy as np
import pytest

from destinations import network_gradients
from gradcheck import central_diff, max_rel_error
from oracles import bridge_one, roc_points, trapezoid_area
from labelbridge import (DataBundle, LabelVocabulary, SyntheticSpec,
                         TrainConfig, auc_score, binarize, conditional_matrix,
                         count_cooccurrence, generate_synthetic_dataset,
                         multilabel_loss, multilabel_loss_batch, overall_prf,
                         reweight, split_dataset, synthetic_embeddings,
                         to_dataset, train)
from labelbridge.cli import main as cli_main
from labelbridge.metrics import mean_val_auc, sigmoid
from labelbridge.training import Sgd, build_network, draw_tensors, sgd_step


@contextlib.contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"[FAIL] criterion {number}: {description}")
        raise
    print(f"[PASS] criterion {number}: {description}")


# ---------------------------------------------------------------- oracles

def brute_counts(mat):
    n, c = mat.shape
    single = np.zeros(c, dtype=np.int64)
    pair = np.zeros((c, c), dtype=np.int64)
    for s in range(n):
        for i in range(c):
            if mat[s, i]:
                single[i] += 1
                for j in range(c):
                    if mat[s, j]:
                        pair[i, j] += 1
    return single, pair


def brute_conditional(single, pair):
    c = len(single)
    p = np.zeros((c, c))
    for i in range(c):
        for j in range(c):
            if single[j] > 0:
                p[i, j] = pair[i, j] / single[j]
    return p


def brute_binarize(p, eps):
    c = p.shape[0]
    a = np.zeros((c, c), dtype=np.int64)
    for i in range(c):
        for j in range(c):
            if i == j:
                a[i, j] = 1 if p[i, i] > 0 else 0
            else:
                a[i, j] = 0 if p[i, j] <= eps else 1
    return a


def brute_reweight(a, delta):
    c = a.shape[0]
    ea = np.zeros((c, c))
    for i in range(c):
        k = sum(a[i, j] for j in range(c) if j != i)
        for j in range(c):
            if i == j:
                ea[i, j] = 1.0 - delta
            elif k > 0:
                ea[i, j] = delta * a[i, j] / k
    return ea


def brute_auc(scores, labels):
    pos = [s for s, l in zip(scores, labels) if l == 1]
    neg = [s for s, l in zip(scores, labels) if l == 0]
    if not pos or not neg:
        return None
    wins = sum(1.0 if p > q else 0.5 if p == q else 0.0 for p in pos for q in neg)
    return wins / (len(pos) * len(neg))


def explicit_bilinear(params, feat, lo_j):
    m1 = feat @ params.fc1_w + params.fc1_b
    m2 = lo_j @ params.fc2_w + params.fc2_b
    to = np.zeros(params.groups)
    for k in range(params.groups):
        s_k = np.zeros((params.d3, params.d3))
        for t in range(k * params.group_size, (k + 1) * params.group_size):
            s_k += np.outer(params.u_tilde[:, t], params.v_tilde[:, t])
        to[k] = m1 @ s_k @ m2
    return float(to @ params.fc3_w + params.fc3_b[0])


# ------------------------------------------------------------- criteria


def test_criterion_1_graph_oracle_equivalence():
    with criterion(1, "graph pipeline matches brute force on 200 random instances"):
        rng = np.random.Generator(np.random.PCG64(1001))
        start = time.time()
        for _ in range(200):
            n = int(rng.integers(1, 101))
            c = int(rng.integers(2, 11))
            mat = rng.integers(0, 2, size=(n, c))
            counts = count_cooccurrence(mat, c)
            single, pair = brute_counts(mat)
            assert np.array_equal(np.diag(counts), single)
            assert np.array_equal(counts, pair)
            p = conditional_matrix(counts)
            assert np.max(np.abs(p - brute_conditional(single, pair))) <= 1e-12
            eps = float(rng.uniform(0.0, 1.0))
            a = binarize(p, eps)
            assert np.array_equal(a, brute_binarize(p, eps))
            delta = float(rng.uniform(0.0, 0.9))
            ea = reweight(a, delta)
            assert np.max(np.abs(ea - brute_reweight(a, delta))) <= 1e-12
        assert time.time() - start < 5.0


def test_criterion_2_reweight_structure():
    with criterion(2, "reweighted rows carry diagonal 1-delta and off-diagonal "
                      "mass delta"):
        rng = np.random.Generator(np.random.PCG64(1002))
        for delta in np.arange(0.1, 0.95, 0.1):
            delta = round(float(delta), 10)
            for _ in range(20):
                c = int(rng.integers(2, 12))
                a = rng.integers(0, 2, size=(c, c))
                np.fill_diagonal(a, 1)
                ea = reweight(a, delta)
                for i in range(c):
                    off_degree = a[i].sum() - a[i, i]
                    assert ea[i, i] == pytest.approx(1.0 - delta, abs=1e-12)
                    off_sum = ea[i].sum() - ea[i, i]
                    if off_degree >= 1:
                        assert off_sum == pytest.approx(delta, abs=1e-9)
                    else:
                        assert off_sum == 0.0


def test_criterion_3_bilinear_decomposition():
    with criterion(3, "GroupSum bridging equals the explicit bilinear form on "
                      "100 random instances"):
        from labelbridge import FusionParameters
        rng = np.random.Generator(np.random.PCG64(1003))
        start = time.time()
        for trial in range(100):
            d1 = int(rng.integers(1, 7))
            d2p = int(rng.integers(1, 7))
            d3 = int(rng.integers(1, 9))
            groups = int(rng.integers(1, 5))
            size = int(rng.integers(1, 8 // groups + 1))
            init_rng = np.random.Generator(np.random.PCG64(trial))
            params = FusionParameters(d1, d2p, d3, groups, size, draw_tensors(init_rng))
            feat = rng.standard_normal(d1)
            lo_j = rng.standard_normal(d2p)
            got, _ = bridge_one(params, feat, lo_j)
            assert abs(got - explicit_bilinear(params, feat, lo_j)) <= 1e-10
        assert time.time() - start < 5.0


def tiny_end_to_end(seed=2):
    vocab = LabelVocabulary(["a", "b", "c"])
    mat = np.array([[1, 1, 0], [1, 0, 0], [0, 1, 1], [1, 1, 0]])
    p = conditional_matrix(count_cooccurrence(mat, 3))
    emb = synthetic_embeddings(vocab, 5, seed=seed)
    config = TrainConfig(gcn_dims=[5, 6, 4], d3=4, groups=2, group_size=2,
                         d1=8, toy_hidden=5, provider="toy_mlp", seed=seed)
    network = build_network(config, p, emb, vocab.size, 6)
    rng = np.random.Generator(np.random.PCG64(seed + 1000))
    x = rng.standard_normal((4, 6))
    y = rng.integers(0, 2, size=(4, 3))
    return network, x, y


def test_criterion_4_end_to_end_gradient_check():
    with criterion(4, "every trainable parameter of the tiny model matches "
                      "central differences"):
        start = time.time()
        network, x, y = tiny_end_to_end()
        # keep finite differences clear of LeakyReLU kinks
        _, cache = network.forward_batch(x)
        min_pre = min(float(np.abs(z).min()) for z in cache["gcn"].zs)
        min_pre = min(min_pre, float(np.abs(cache["backbone"]["z"]).min()))
        assert min_pre > 1e-3

        def loss():
            logits, _ = network.forward_batch(x)
            value, _ = multilabel_loss_batch(logits, y)
            return value

        logits, cache = network.forward_batch(x)
        _, d_logits = multilabel_loss_batch(logits, y)
        grads = network_gradients(network, cache, d_logits)
        named = network.parameters()
        expected_blocks = {"gcn.theta0", "gcn.theta1", "fusion.fc1_w", "fusion.fc1_b",
                           "fusion.fc2_w", "fusion.fc2_b", "fusion.u_tilde",
                           "fusion.v_tilde", "fusion.fc3_w", "fusion.fc3_b",
                           "backbone.w1", "backbone.b1", "backbone.w2", "backbone.b2"}
        assert set(named) == expected_blocks
        numeric = central_diff(loss, list(named.values()), step=1e-5)
        for name, num in zip(named, numeric):
            assert max_rel_error(grads[name], num) < 1e-4, name
        assert time.time() - start < 60.0


def test_criterion_5_loss_exactness():
    with criterion(5, "loss at zero logits is ln 2 and the analytic gradient is "
                      "exact"):
        rng = np.random.Generator(np.random.PCG64(1005))
        for c in (1, 2, 5, 14):
            for _ in range(10):
                labels = rng.integers(0, 2, size=c)
                loss, _ = multilabel_loss(np.zeros(c), labels)
                assert abs(loss - np.log(2.0)) <= 1e-12
        for _ in range(50):
            c = int(rng.integers(1, 12))
            o = rng.standard_normal(c) * 3.0
            l = rng.integers(0, 2, size=c)
            _, grad = multilabel_loss(o, l)
            assert np.array_equal(grad, (sigmoid(o) - l) / c)
            numeric = central_diff(lambda: multilabel_loss(o, l)[0], [o])[0]
            assert np.max(np.abs(grad - numeric)) < 1e-6


def test_criterion_6_metric_oracles():
    with criterion(6, "AUC equals brute-force pair counting and the ROC "
                      "trapezoid area"):
        rng = np.random.Generator(np.random.PCG64(1006))
        for _ in range(500):
            n = int(rng.integers(1, 51))
            scores = rng.choice([0.05, 0.2, 0.5, 0.7, 0.9], size=n)
            labels = rng.integers(0, 2, size=n)
            expected = brute_auc(scores.tolist(), labels.tolist())
            got = auc_score(scores, labels)
            if expected is None:
                assert got is None
            else:
                assert got == pytest.approx(expected, abs=1e-12)
                assert trapezoid_area(roc_points(scores, labels)) == pytest.approx(
                    got, abs=1e-10)
        result = overall_prf(np.array([[1, 1], [0, 1]]), np.array([[1, 0], [1, 1]]))
        assert result["op"] == pytest.approx(2 / 3, abs=1e-15)
        assert result["or"] == pytest.approx(2 / 3, abs=1e-15)
        assert result["of1"] == pytest.approx(2 / 3, abs=1e-15)
        assert result["confusion_totals"] == {"n_correct": 2, "n_pred": 3, "n_gold": 3}


# --------------------------------------------- criterion 7: planted structure

EXPERIMENT_SEED = 101
PLANTED_EDGES = [(0, 1, 0.8), (0, 2, 0.8), (2, 3, 0.8), (3, 4, 0.8),
                 (5, 6, 0.8), (6, 7, 0.8)]
BASE_RATES = [0.35, 0.08, 0.10, 0.08, 0.06, 0.35, 0.08, 0.06]
NOISE_SIGMA = 0.3
# frozen from the pinning run of this file (see module docstring)
FROZEN_BASELINE_AUC = 0.734885
FROZEN_MODEL_AUC = 0.951491
MARGIN_FLOOR = 0.10


def experiment_config(seed):
    return TrainConfig(gcn_dims=[16, 32, 24], d3=32, groups=8, group_size=4, d1=24,
                       epochs=40, batch_size=32, seed=seed, lr_lce=0.01,
                       lr_main=0.001, decay_every=10)


def planted_dataset(seed):
    spec = SyntheticSpec(num_labels=8, feature_dim=24, n_samples=2000,
                         dependency_edges=PLANTED_EDGES, base_rates=BASE_RATES,
                         noise_sigma=NOISE_SIGMA, seed=seed)
    vocab = LabelVocabulary([f"L{j}" for j in range(8)])
    return vocab, to_dataset(*generate_synthetic_dataset(spec))


def train_linear_baseline(x_tr, y_tr, x_va, y_va, config, seed):
    """Independent per-label logistic heads under the identical optimizer
    budget; best-validation selection mirrors the full model's protocol."""
    rng = np.random.Generator(np.random.PCG64(seed))
    d1, c = x_tr.shape[1], y_tr.shape[1]
    bound = 1.0 / np.sqrt(d1)
    # w and b train as the model's run trains its tensors: through an Sgd
    # that holds them and their gradient slots
    sgd = Sgd({"w": rng.uniform(-bound, bound, size=(d1, c)),
               "b": rng.uniform(-bound, bound, size=c)}, config)
    w, b = sgd.params["w"], sgd.params["b"]
    shuffle = np.random.Generator(np.random.PCG64(seed + 1))
    best = None
    for epoch in range(config.epochs):
        sgd.epoch = epoch
        order = shuffle.permutation(len(x_tr))
        for start in range(0, len(x_tr), config.batch_size):
            idx = order[start: start + config.batch_size]
            logits = x_tr[idx] @ w + b
            _, d = multilabel_loss_batch(logits, y_tr[idx])
            sgd.product("w", x_tr[idx], d)
            d.sum(axis=0, out=sgd["b"])
            sgd_step(sgd)
        val = mean_val_auc(x_va @ w + b, y_va)
        if best is None or (val is not None and val > best[0]):
            best = (val, w.copy(), b.copy())
    return best[1], best[2]


def run_planted_experiment(seed):
    vocab, data = planted_dataset(seed)
    train_s, val_s, test_s = (data.take(rows) for rows in
                              split_dataset(len(data), (0.7, 0.1, 0.2), seed))
    x_tr, y_tr = train_s.features, train_s.labels
    x_va, y_va = val_s.features, val_s.labels
    x_te, y_te = test_s.features, test_s.labels
    config = experiment_config(seed)

    w, b = train_linear_baseline(x_tr, y_tr, x_va, y_va, config, seed)
    baseline_auc = mean_val_auc(x_te @ w + b, y_te)

    p = conditional_matrix(count_cooccurrence(y_tr, 8))
    emb = synthetic_embeddings(vocab, 16, seed)
    bundle = DataBundle(vocab=vocab, train_samples=train_s, val_samples=val_s)
    result = train(config, bundle, p, emb)
    model_auc = mean_val_auc(result.network.predict_logits(x_te), y_te)
    return baseline_auc, model_auc


def test_criterion_7_planted_structure_experiment():
    with criterion(7, "full model beats the per-label linear baseline on "
                      "planted-structure data"):
        start = time.time()
        baseline_auc, model_auc = run_planted_experiment(EXPERIMENT_SEED)
        print(f"  baseline mean AUC {baseline_auc:.6f}, "
              f"model mean AUC {model_auc:.6f}, "
              f"margin {model_auc - baseline_auc:+.6f}")
        assert 0.70 < baseline_auc < 0.90
        assert model_auc > baseline_auc + MARGIN_FLOOR
        assert baseline_auc == pytest.approx(FROZEN_BASELINE_AUC, abs=5e-3)
        assert model_auc == pytest.approx(FROZEN_MODEL_AUC, abs=5e-3)
        assert time.time() - start < 600.0


# ------------------------------------------------- criterion 8: sweep shapes

def sweep_config_file(tmp_path):
    config = {
        "provider": "synthetic",
        "synth": {"num_labels": 8, "feature_dim": 24, "n_samples": 600,
                  "edges": [list(e) for e in PLANTED_EDGES],
                  "base_rates": BASE_RATES, "noise_sigma": NOISE_SIGMA,
                  "seed": EXPERIMENT_SEED},
        "gcn_dims": [16, 32, 24], "d3": 32, "G": 8, "g": 4, "d1": 24,
        "epochs": 8, "batch_size": 32, "seed": EXPERIMENT_SEED,
    }
    path = tmp_path / "sweep_config.json"
    path.write_text(json.dumps(config))
    return path


def test_criterion_8_sweep_shapes(tmp_path):
    with criterion(8, "sweep harness flags epsilon=0 and reports the GCN depth "
                      "trend"):
        config = sweep_config_file(tmp_path)
        eps_out = tmp_path / "eps.csv"
        assert cli_main(["sweep", "--config", str(config), "--axis", "epsilon",
                         "--values", "0.0,0.3", "--out", str(eps_out)]) == 0
        rows = [line.split(",") for line in eps_out.read_text().splitlines()[1:]]
        by_value = {r[0]: r for r in rows}
        assert by_value["0.0"][2] == "non_convergent" and by_value["0.0"][1] == ""
        assert by_value["0.3"][2] == "ok" and float(by_value["0.3"][1]) > 0.5

        depth_out = tmp_path / "depth.csv"
        assert cli_main(["sweep", "--config", str(config), "--axis", "gcn_depth",
                         "--values", "2,4", "--out", str(depth_out)]) == 0
        rows = [line.split(",") for line in depth_out.read_text().splitlines()[1:]]
        by_depth = {r[0]: float(r[1]) for r in rows if r[2] == "ok"}
        assert set(by_depth) == {"2", "4"}
        trend_holds = by_depth["4"] <= by_depth["2"]
        print(f"  depth-2 mean AUC {by_depth['2']:.4f}, depth-4 {by_depth['4']:.4f}; "
              f"over-smoothing trend "
              f"{'holds' if trend_holds else 'NOT observed (expected-direction only)'}")


# ----------------------------------------------- criterion 9: determinism

def test_criterion_9_pipeline_determinism(tmp_path):
    with criterion(9, "the full CLI pipeline is byte-identical across reruns"):
        # synth twice into separate dirs: the generated dataset must repeat
        data_dirs = []
        for tag in ("data1", "data2"):
            data = tmp_path / tag
            assert cli_main(["synth", "--out-dir", str(data), "--num-labels", "4",
                             "--feature-dim", "8", "--n-samples", "60",
                             "--edges", "0:1:0.8", "--base-rates", "0.4,0.1,0.3,0.3",
                             "--noise-sigma", "0.4", "--seed", "3"]) == 0
            data_dirs.append(data)
        for name in ("labels.csv", "features.txt"):
            assert (data_dirs[0] / name).read_bytes() == (data_dirs[1] / name).read_bytes()

        # identical config (same input paths) through graph/train/eval twice
        data = data_dirs[0]
        outputs = []
        for tag in ("one", "two"):
            base = tmp_path / tag
            graph = base / "graph.json"
            base.mkdir()
            assert cli_main(["build-graph", "--labels-path", str(data / "labels.csv"),
                             "--labels", "L00,L01,L02,L03", "--out", str(graph)]) == 0
            run_dir = base / "run"
            assert cli_main(["train", "--labels-path", str(data / "labels.csv"),
                             "--features-path", str(data / "features.txt"),
                             "--labels", "L00,L01,L02,L03", "--d1", "8",
                             "--gcn-dims", "6,8,6", "--d3", "8", "--num-groups", "2",
                             "--group-size", "4", "--epochs", "3", "--batch-size", "8",
                             "--seed", "3", "--out-dir", str(run_dir)]) == 0
            eval_dir = base / "eval"
            assert cli_main(["eval", "--checkpoint", str(run_dir / "checkpoint.bin"),
                             "--out-dir", str(eval_dir), "--top-k", "2"]) == 0
            outputs.append({
                "graph": graph.read_bytes(),
                "checkpoint": (run_dir / "checkpoint.bin").read_bytes(),
                "history": (run_dir / "metrics.csv").read_bytes(),
                "metrics": (eval_dir / "metrics.json").read_bytes(),
                "roc": (eval_dir / "roc.csv").read_bytes(),
                "topk": (eval_dir / "topk.csv").read_bytes(),
            })
        for key in outputs[0]:
            assert outputs[0][key] == outputs[1][key], key

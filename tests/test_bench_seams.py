"""The contracts the benchmark under ``perfbench/`` reads from the program.

The benchmark wraps functions at the names its tracer lists, unpacks the
synthetic generator's output, counts the rows ``load_features`` returns and
the training rows of the bundle handed to ``train``. A refactor that breaks
one of these fails here, not only in a benchmark run.
"""

import json
import os
import sys

import numpy as np
import pytest

from labelbridge import cli, fusion, gcn, model, training
from labelbridge.backbone import SyntheticSpec, ToyMlp, generate_synthetic_dataset
from labelbridge.data import split_dataset
from labelbridge.model import Network

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                os.pardir, "perfbench"))

import measure  # noqa: E402
import tracer  # noqa: E402

N = 40
LABELS = "L00,L01,L02,L03"
DIMS = ["--d1", 8, "--gcn-dims", "6,8,6", "--d3", 8, "--num-groups", 2,
        "--group-size", 4, "--epochs", 1, "--batch-size", 8]


def run(*argv):
    return cli.main([str(a) for a in argv])


@pytest.fixture
def data(tmp_path):
    """A synth dataset, a columnar copy of its labels and word vectors."""
    out = tmp_path / "data"
    assert run("synth", "--out-dir", out, "--num-labels", 4, "--feature-dim", 8,
               "--n-samples", N, "--seed", 3) == 0
    rows = [line.split(",") for line in (out / "labels.csv").read_text().splitlines()]
    names = LABELS.split(",")
    (out / "labels_columnar.csv").write_text("id," + LABELS + "\n" + "".join(
        sid + "," + ",".join("1" if n in field.split("|") else "0" for n in names) + "\n"
        for sid, field in rows))
    rng = np.random.Generator(np.random.PCG64(0))
    (out / "vectors.txt").write_text("".join(
        w + " " + " ".join(repr(v) for v in rng.uniform(-1, 1, 6).tolist()) + "\n"
        for w in ("l00", "l01", "l02", "l03")))
    return out


def file_flags(data, labels="labels.csv"):
    return ["--labels", LABELS, "--labels-path", data / labels,
            "--features-path", data / "features.txt", *DIMS]


def test_every_traced_name_resolves():
    for _, owner, attr in tracer.SPANS + tracer.COUNTERS:
        assert callable(getattr(owner, attr)), (owner, attr)


def test_generator_returns_samples_and_records():
    samples, records = generate_synthetic_dataset(SyntheticSpec(
        num_labels=3, feature_dim=5, n_samples=7, seed=2))
    assert [s.sample_id for s in samples] == [r.sample_id for r in records]
    assert np.stack([s.labels for s in samples]).shape == (7, 3)
    assert np.stack([r.features for r in records]).shape == (7, 5)


def test_load_features_length_is_the_row_count(data):
    ids = [line.split(",")[0] for line in (data / "labels.csv").read_text().splitlines()]
    with open(data / "features.txt", encoding="utf-8") as fh:
        assert len(cli.load_features(fh, ids)) == N


def test_train_and_eval_each_convert_their_own_rows(data, tmp_path, monkeypatch):
    """One load per command: train converts the train and validation rows,
    eval the test rows, and together they convert every labelled row once."""
    ids = [line.split(",")[0] for line in (data / "labels.csv").read_text().splitlines()]
    calls = []
    real = cli.load_features

    def recording(stream, label_ids, rows=None):
        result = real(stream, label_ids, rows)
        calls.append(([label_ids[k] for k in rows], len(result)))
        return result

    monkeypatch.setattr(cli, "load_features", recording)
    run_dir = tmp_path / "run"
    assert run("train", *file_flags(data), "--out-dir", run_dir) == 0
    assert run("eval", "--checkpoint", run_dir / "checkpoint.bin",
               "--out-dir", tmp_path / "eval") == 0
    train, val, test = split_dataset(N, [0.7, 0.1, 0.2], 0)
    (fit_ids, fit_rows), (test_ids, test_rows) = calls
    assert [fit_rows, test_rows] == [len(train) + len(val), len(test)]
    assert fit_rows + test_rows == N and sorted(fit_ids + test_ids) == sorted(ids)


def test_train_clock_sees_the_train_split(data, tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "train", cli.train)   # undone after the test
    marks = {}
    measure._install_train_clock(marks)
    assert run("train", *file_flags(data), "--out-dir", tmp_path / "run") == 0
    n_train = len(split_dataset(N, [0.7, 0.1, 0.2], 0)[0])
    assert marks["n_train"] == n_train and marks["enter"] < marks["exit"]


def test_train_steps_through_the_module_sgd_step_once_per_step(data, tmp_path,
                                                               monkeypatch):
    """The tracer's ``training.sgd_step.ms_per_call`` is busy time over
    calls, so it reads one update per optimizer step only if each backward
    pass is followed by exactly one call through ``training.sgd_step``."""
    calls = {"sgd_step": 0, "backward": 0}

    def counting(name, real):
        def wrapped(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(training, "sgd_step", counting("sgd_step", training.sgd_step))
    monkeypatch.setattr(Network, "backward_batch",
                        counting("backward", Network.backward_batch))
    assert run("train", *file_flags(data), "--epochs", 2,
               "--out-dir", tmp_path / "run") == 0
    n_train = len(split_dataset(N, [0.7, 0.1, 0.2], 0)[0])
    assert calls["sgd_step"] == calls["backward"] == 2 * -(-n_train // 8)


def test_cli_calls_every_span_through_the_traced_names(data, tmp_path, monkeypatch):
    for _, owner, attr in tracer.SPANS + tracer.COUNTERS:
        monkeypatch.setattr(owner, attr, getattr(owner, attr))   # undone after the test
    trace = tracer.Tracer("seams")
    trace.install()
    run_dir = tmp_path / "run"
    synthetic = tmp_path / "synthetic.json"
    synthetic.write_text(json.dumps({
        "provider": "toy_mlp", "labels": LABELS.split(","),
        "synth": {"num_labels": 4, "feature_dim": 5, "n_samples": N, "seed": 1}}))
    commands = [
        ["build-graph", "--labels", LABELS, "--labels-path", data / "labels.csv",
         "--out", tmp_path / "graph.json"],
        ["train", *file_flags(data), "--embeddings", data / "vectors.txt",
         "--out-dir", run_dir],
        ["eval", "--checkpoint", run_dir / "checkpoint.bin", "--out-dir",
         tmp_path / "eval", "--top-k", 2],
        ["train", *file_flags(data, "labels_columnar.csv"), "--dataset-format",
         "columnar", "--out-dir", tmp_path / "columnar"],
        ["train", "--config", synthetic, *DIMS, "--out-dir", tmp_path / "toy"],
    ]
    for argv in commands:
        assert trace.command(cli.main, [str(a) for a in argv]) == 0
    recorded = {span[tracer.NAME] for span in trace.spans}
    assert recorded >= {name for name, _, _ in tracer.SPANS}
    rows = [span[tracer.EXTRA] for span in trace.spans
            if span[tracer.NAME] == tracer.ROWS_SPAN]
    train, val, test = split_dataset(N, [0.7, 0.1, 0.2], 0)
    assert rows == [len(train) + len(val), len(test), len(train) + len(val)]
    trace.repeat = 1   # flushes the counters
    assert trace.counts[(0, "jsonio.format_float")] > 0


@pytest.mark.parametrize("provider", ["precomputed", "synthetic", "toy_mlp"])
def test_every_layer_backward_runs_inside_network_backward(data, tmp_path, monkeypatch,
                                                          provider):
    """Only ``Network`` checks what enters a pass: the features' shape in
    ``forward_batch``, the logit gradient's shape and the cache's freshness
    in ``backward_batch``. So ``train`` and ``eval`` must call each layer's
    forward pass through ``Network.forward_batch`` and each backward pass
    through ``Network.backward_batch``."""
    depth, inside = {}, {}

    def outer(method, real):
        depth[method] = 0

        def wrapped(*args, **kwargs):
            depth[method] += 1
            try:
                return real(*args, **kwargs)
            finally:
                depth[method] -= 1
        return wrapped

    def layer(method, name, real):
        def wrapped(*args, **kwargs):
            inside.setdefault(name, set()).add(depth[method] > 0)
            return real(*args, **kwargs)
        return wrapped

    # at the names each Network method calls and where each is defined
    passes = {
        "forward_batch": [(model, "gcn_forward"), (gcn, "gcn_forward"),
                          (model, "fusion_forward_batch"), (fusion, "fusion_forward_batch"),
                          (ToyMlp, "forward_batch")],
        "backward_batch": [(model, "gcn_backward"), (gcn, "gcn_backward"),
                           (model, "fusion_backward_batch"),
                           (fusion, "fusion_backward_batch"), (ToyMlp, "backward_batch")],
    }
    for method, layers in passes.items():
        monkeypatch.setattr(Network, method, outer(method, getattr(Network, method)))
        for owner, attr in layers:
            monkeypatch.setattr(owner, attr, layer(method, attr, getattr(owner, attr)))
    if provider == "precomputed":
        argv = file_flags(data)
    else:
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "provider": provider, "labels": LABELS.split(","),
            "synth": {"num_labels": 4, "feature_dim": 8 if provider == "synthetic" else 5,
                      "n_samples": N, "seed": 1}}))
        argv = ["--config", config, *DIMS]
    forward = {"gcn_forward", "fusion_forward_batch"}
    backward = {"gcn_backward", "fusion_backward_batch"}
    if provider == "toy_mlp":
        forward.add("forward_batch")
        backward.add("backward_batch")
    assert run("train", *argv, "--epochs", 2, "--out-dir", tmp_path / "run") == 0
    assert inside == {name: {True} for name in forward | backward}
    inside.clear()
    assert run("eval", "--checkpoint", tmp_path / "run" / "checkpoint.bin",
               "--out-dir", tmp_path / "eval") == 0
    assert inside == {name: {True} for name in forward}

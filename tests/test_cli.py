import contextlib
import io
import json
import re
import warnings
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from labelbridge import Dataset, LabelVocabulary, cli, gcn, split_dataset, training
from labelbridge.backbone import SyntheticSpec
from labelbridge.cli import _default_text, _flags, main
from labelbridge.data import _exact_id_rows
from labelbridge.errors import NumericalError

MICRO_CSV = "img1,a|b\nimg2,a\nimg3,b|c\nimg4,a|b\n"


@pytest.fixture
def synth_config(tmp_path):
    config = {
        "provider": "synthetic",
        "synth": {"num_labels": 4, "feature_dim": 8, "n_samples": 80,
                  "edges": [[0, 1, 0.8]], "base_rates": [0.4, 0.1, 0.3, 0.3],
                  "noise_sigma": 0.4, "seed": 7},
        "gcn_dims": [6, 8, 6], "d3": 8, "G": 2, "g": 4, "d1": 8,
        "epochs": 2, "batch_size": 8, "seed": 7,
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    return path


def run(*argv):
    return main([str(a) for a in argv])


def vectors_missing_one_word(tmp_path):
    """6-d word vectors for l00..l02; l03 is missing and needs a fallback."""
    path = tmp_path / "vectors.txt"
    rng = np.random.Generator(np.random.PCG64(0))
    lines = []
    for word in ("l00", "l01", "l02"):
        values = " ".join(repr(float(v)) for v in rng.uniform(-1, 1, 6))
        lines.append(f"{word} {values}")
    path.write_text("\n".join(lines) + "\n")
    return path


class TestBuildGraph:
    def test_micro_dataset_json_values(self, tmp_path, capsys):
        labels = tmp_path / "labels.csv"
        labels.write_text(MICRO_CSV)
        out = tmp_path / "graph.json"
        assert run("build-graph", "--labels-path", labels, "--labels", "a,b,c",
                   "--out", out) == 0
        text = out.read_text()
        assert "0.666666666667" in text
        doc = json.loads(text)
        assert list(doc) == ["labels", "T", "T_pair", "P", "A", "EA", "EA_norm",
                             "epsilon", "delta", "config_echo"]
        assert doc["T"] == [3, 3, 1]
        assert doc["P"][0][1] == pytest.approx(2 / 3, abs=1e-12)
        assert doc["A"] == [[1, 1, 0], [1, 1, 1], [0, 1, 1]]
        assert doc["EA"][1] == pytest.approx([0.1, 0.8, 0.1], abs=1e-12)
        assert doc["config_echo"]["epsilon"] == 0.3

    def test_epsilon_one_keeps_only_diagonal(self, tmp_path):
        labels = tmp_path / "labels.csv"
        labels.write_text(MICRO_CSV)
        out = tmp_path / "graph.json"
        assert run("build-graph", "--labels-path", labels, "--labels", "a,b,c",
                   "--epsilon", "1.0", "--out", out) == 0
        doc = json.loads(out.read_text())
        assert doc["A"] == np.eye(3, dtype=int).tolist()

    def test_missing_file_exits_2(self, tmp_path):
        assert run("build-graph", "--labels-path", tmp_path / "nope.csv",
                   "--labels", "a,b,c", "--out", tmp_path / "g.json") == 2

    def test_out_under_a_new_directory(self, tmp_path, capsys):
        labels = tmp_path / "labels.csv"
        labels.write_text(MICRO_CSV)
        out = tmp_path / "new" / "dir" / "graph.json"
        assert run("build-graph", "--labels-path", labels, "--labels", "a,b,c",
                   "--out", out) == 0
        assert json.loads(out.read_text())["T"] == [3, 3, 1]
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("argv", [
        ["--labels-path", "nope.csv"],
        ["--labels-path", "nope.csv", "--labels", "a,b,c"],
        ["--labels", "a,b,c"],
        ["--labels-path", "bad.csv", "--labels", "a,b,c"],
    ], ids=["no-vocabulary", "missing-file", "no-labels-path", "unknown-label"])
    def test_input_error_leaves_no_directory(self, tmp_path, monkeypatch, argv):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "bad.csv").write_text("img1,a|z\n")
        assert run("build-graph", *argv, "--out", "new/dir/g.json") == 2
        assert not (tmp_path / "new").exists()

    def test_reweight_axis_flag(self, tmp_path):
        labels = tmp_path / "labels.csv"
        labels.write_text(MICRO_CSV)
        out_row = tmp_path / "row.json"
        out_col = tmp_path / "col.json"
        assert run("build-graph", "--labels-path", labels, "--labels", "a,b,c",
                   "--out", out_row) == 0
        assert run("build-graph", "--labels-path", labels, "--labels", "a,b,c",
                   "--reweight-axis", "col", "--out", out_col) == 0
        assert json.loads(out_row.read_text())["EA"] != \
            json.loads(out_col.read_text())["EA"]


class TestPipeline:
    def test_synth_build_train_eval_exits_zero(self, tmp_path):
        data_dir = tmp_path / "data"
        assert run("synth", "--out-dir", data_dir, "--num-labels", 4,
                   "--feature-dim", 8, "--n-samples", 60, "--edges", "0:1:0.8",
                   "--base-rates", "0.4,0.1,0.3,0.3", "--noise-sigma", "0.4",
                   "--seed", 3) == 0
        assert (data_dir / "labels.csv").exists()
        assert (data_dir / "features.txt").exists()
        assert (data_dir / "synth_spec.json").exists()

        graph_out = tmp_path / "graph.json"
        assert run("build-graph", "--labels-path", data_dir / "labels.csv",
                   "--labels", "L00,L01,L02,L03", "--out", graph_out) == 0

        run_dir = tmp_path / "run"
        assert run("train", "--labels-path", data_dir / "labels.csv",
                   "--features-path", data_dir / "features.txt",
                   "--labels", "L00,L01,L02,L03", "--d1", 8,
                   "--gcn-dims", "6,8,6", "--d3", 8, "--num-groups", 2,
                   "--group-size", 4, "--epochs", 2, "--batch-size", 8,
                   "--seed", 3, "--out-dir", run_dir) == 0
        assert (run_dir / "checkpoint.bin").exists()
        metrics = (run_dir / "metrics.csv").read_text().splitlines()
        assert metrics[0] == "epoch,train_loss,val_mean_auc"
        assert len(metrics) == 3

        eval_dir = tmp_path / "eval"
        assert run("eval", "--checkpoint", run_dir / "checkpoint.bin",
                   "--out-dir", eval_dir, "--top-k", 2) == 0
        doc = json.loads((eval_dir / "metrics.json").read_text())
        assert set(doc["per_label_auc"]) == {"L00", "L01", "L02", "L03"}
        assert (eval_dir / "roc.csv").read_text().startswith("label,threshold,fpr,tpr")
        topk = (eval_dir / "topk.csv").read_text().splitlines()
        assert topk[0] == "sample_id,rank,label,score"

    def test_config_file_driven_train_and_eval(self, tmp_path, synth_config):
        run_dir = tmp_path / "run"
        assert run("train", "--config", synth_config, "--out-dir", run_dir) == 0
        eval_dir = tmp_path / "eval"
        assert run("eval", "--checkpoint", run_dir / "checkpoint.bin",
                   "--out-dir", eval_dir) == 0
        doc = json.loads((eval_dir / "metrics.json").read_text())
        assert doc["config_echo"]["epochs"] == 2

    def test_flag_overrides_config(self, tmp_path, synth_config):
        run_dir = tmp_path / "run"
        assert run("train", "--config", synth_config, "--epochs", 1,
                   "--out-dir", run_dir) == 0
        history = (run_dir / "metrics.csv").read_text().splitlines()
        assert len(history) == 2
        echo = json.loads((run_dir / "config.json").read_text())
        assert echo["epochs"] == 1

    def test_train_twice_is_byte_identical(self, tmp_path, synth_config):
        a, b = tmp_path / "a", tmp_path / "b"
        assert run("train", "--config", synth_config, "--out-dir", a) == 0
        assert run("train", "--config", synth_config, "--out-dir", b) == 0
        assert (a / "checkpoint.bin").read_bytes() == (b / "checkpoint.bin").read_bytes()
        assert (a / "metrics.csv").read_bytes() == (b / "metrics.csv").read_bytes()

    def test_eval_mismatched_vocab_exits_3(self, tmp_path, synth_config):
        run_dir = tmp_path / "run"
        assert run("train", "--config", synth_config, "--out-dir", run_dir) == 0
        assert run("eval", "--checkpoint", run_dir / "checkpoint.bin",
                   "--labels", "X00,X01,X02,X03",
                   "--out-dir", tmp_path / "eval") == 3

    @pytest.mark.parametrize("labels, code", [(",", 3), (" L00, L01,,L02 ,L03,", 0)],
                             ids=["empty", "spaced"])
    def test_eval_vocab_is_parsed_like_train(self, tmp_path, synth_config, labels, code):
        run_dir = tmp_path / "run"
        assert run("train", "--config", synth_config, "--out-dir", run_dir) == 0
        assert run("eval", "--checkpoint", run_dir / "checkpoint.bin",
                   "--labels", labels, "--out-dir", tmp_path / "eval") == code

    def test_report_reproduces_eval_mean_auc(self, tmp_path, synth_config):
        run_dir = tmp_path / "run"
        assert run("train", "--config", synth_config, "--out-dir", run_dir) == 0
        eval_dir, report_dir = tmp_path / "eval", tmp_path / "report"
        assert run("eval", "--checkpoint", run_dir / "checkpoint.bin",
                   "--out-dir", eval_dir) == 0
        assert run("report", "--checkpoint", run_dir / "checkpoint.bin",
                   "--out-dir", report_dir) == 0
        eval_doc = json.loads((eval_dir / "metrics.json").read_text())
        report_doc = json.loads((report_dir / "metrics.json").read_text())
        assert report_doc["mean_auc"] == eval_doc["mean_auc"]
        cooc = (report_dir / "cooccurrence.csv").read_text().splitlines()
        assert cooc[0] == "label,L00,L01,L02,L03"
        assert (report_dir / "topk.csv").exists()

    def test_metrics_json_key_order(self, tmp_path, synth_config):
        run_dir, eval_dir = tmp_path / "run", tmp_path / "eval"
        assert run("train", "--config", synth_config, "--out-dir", run_dir) == 0
        assert run("eval", "--checkpoint", run_dir / "checkpoint.bin",
                   "--out-dir", eval_dir) == 0
        doc = json.loads((eval_dir / "metrics.json").read_text())
        assert list(doc) == ["per_label_auc", "mean_auc", "op", "or", "of1",
                             "confusion_totals", "undefined_labels", "prf_flags",
                             "n_test_samples", "config_echo"]

    def test_train_nan_exits_4(self, tmp_path, synth_config):
        with np.errstate(all="ignore"):
            code = run("train", "--config", synth_config, "--lr-main", "1e18",
                       "--lr-lce", "1e18", "--epochs", 4,
                       "--out-dir", tmp_path / "run")
        assert code == 4

    def test_diverging_train_prints_one_line(self, tmp_path, synth_config, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run("train", "--config", synth_config, "--lr-main", "1e18",
                       "--lr-lce", "1e18", "--epochs", 4,
                       "--out-dir", tmp_path / "run")
        assert code == 4
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "non-finite loss" in err, err

    def test_last_step_overflow_exits_4_without_checkpoint(self, tmp_path, capsys):
        """One SGD step at lr 1e300 leaves the loss check behind it; the
        validation logits overflow, and train fails before any output."""
        _, flags = synth_files(tmp_path)
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run("train", *flags, "--batch-size", 64, "--lr-main", "1e300",
                       "--lr-lce", "1e300", "--out-dir", tmp_path / "run")
        assert code == 4
        err = capsys.readouterr().err
        assert err.count("\n") == 1, err
        assert "non-finite validation logits at epoch 0; first non-finite tensor" in err
        assert not (tmp_path / "run" / "checkpoint.bin").exists()

    @pytest.mark.parametrize("command", ["eval", "report"])
    def test_overflowing_checkpoint_exits_4_before_any_output(self, tmp_path, synth_config,
                                                              capsys, command):
        run_dir, out = tmp_path / "run", tmp_path / "out"
        assert run("train", "--config", synth_config, "--out-dir", run_dir) == 0
        path = run_dir / "checkpoint.bin"
        # one weight scaled by 1e300 leaves the logits near 1e300, still
        # finite; the image side and the label side together overflow them
        for name in ("fusion.fc1_w", "fusion.fc2_w"):
            write_checkpoint(path, *scale(name, 1e300)(*checkpoint_parts(path)))
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run(command, "--checkpoint", path, "--out-dir", out, "--top-k", 2)
        assert code == 4
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "logits are non-finite" in err, err
        assert not out.exists()

    def test_diverging_compact_run_names_the_tensor(self, tmp_path, capsys, monkeypatch):
        """At 128 labels the GCN propagates through EA_norm's compact block,
        which skips the 0 * inf products of the dense form; a diverging run
        still exits 4 with one line naming the step and the tensor."""
        c = 128
        config = {
            "provider": "synthetic",
            "synth": {"num_labels": c, "feature_dim": 8, "n_samples": 400,
                      "edges": [[j, j + 1, 0.8] for j in range(0, 40, 4)],
                      "base_rates": [0.05] * c, "noise_sigma": 0.4, "seed": 3},
            "gcn_dims": [96, 96, 16], "d3": 8, "G": 2, "g": 4, "d1": 8,
            "epochs": 4, "batch_size": 8, "seed": 3,
        }
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        forms = []
        real = gcn.compact_pays
        monkeypatch.setattr(gcn, "compact_pays",
                            lambda *shape: forms.append(real(*shape)) or forms[-1])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run("train", "--config", path, "--lr-main", "1e18", "--lr-lce", "1e18",
                       "--out-dir", tmp_path / "run")
        assert code == 4
        assert forms and all(forms)
        err = capsys.readouterr().err
        assert err.count("\n") == 1, err
        assert re.search(r"non-finite loss at epoch \d+, batch \d+; first non-finite "
                         r"tensor: (logits|gcn\.theta\d|fusion\.\w+) \(", err), err

    def test_word_vector_embeddings_with_fallback(self, tmp_path, synth_config):
        glove = vectors_missing_one_word(tmp_path)
        run_dir = tmp_path / "run"
        assert run("train", "--config", synth_config, "--embeddings", glove,
                   "--out-dir", run_dir) == 2  # fallback disabled: missing word
        assert run("train", "--config", synth_config, "--embeddings", glove,
                   "--oov-fallback", "--out-dir", run_dir) == 0

    # shown as a plain run shows it, not raised as the suite's filter would
    @pytest.mark.filterwarnings("default:duplicate word:UserWarning")
    def test_repeated_word_warns_in_one_stderr_line(self, tmp_path, synth_config, capsys):
        """A word-vector file that repeats a word, l00 then L00, trains and
        says so in one stderr line, worded like the CLI's own warnings."""
        glove = vectors_missing_one_word(tmp_path)
        with open(glove, "a", encoding="utf-8") as fh:
            fh.write("L00 " + " ".join(["0.5"] * 6) + "\n")
        assert run("train", "--config", synth_config, "--embeddings", glove,
                   "--oov-fallback", "--out-dir", tmp_path / "run") == 0
        assert capsys.readouterr().err == (
            "warning: duplicate word 'l00'; keeping the last occurrence\n")

    def test_columnar_dataset_end_to_end(self, tmp_path):
        rng = np.random.Generator(np.random.PCG64(5))
        labels = tmp_path / "labels.csv"
        rows = ["id,a,b,c"]
        cells = rng.choice(["1", "0", "-1", ""], size=(30, 3), p=[0.4, 0.3, 0.15, 0.15])
        rows += [f"r{i}," + ",".join(cells[i]) for i in range(30)]
        labels.write_text("\n".join(rows) + "\n")
        features = tmp_path / "features.txt"
        lines = ["#dim=6"]
        for i in range(30):
            values = " ".join(repr(float(v)) for v in rng.standard_normal(6))
            lines.append(f"r{i} {values}")
        features.write_text("\n".join(lines) + "\n")
        run_dir = tmp_path / "run"
        assert run("train", "--labels-path", labels, "--features-path", features,
                   "--labels", "a,b,c", "--dataset-format", "columnar",
                   "--uncertain-policy", "as_negative", "--d1", 6,
                   "--gcn-dims", "4,6,4", "--d3", 4, "--num-groups", 2,
                   "--group-size", 2, "--epochs", 1, "--batch-size", 8,
                   "--seed", 5, "--out-dir", run_dir) == 0
        echo = json.loads((run_dir / "config.json").read_text())
        assert echo["uncertain_policy"] == "as_negative"

    def test_graph_include_val_changes_model(self, tmp_path, synth_config):
        a, b = tmp_path / "a", tmp_path / "b"
        assert run("train", "--config", synth_config, "--out-dir", a) == 0
        assert run("train", "--config", synth_config, "--graph-include-val",
                   "--out-dir", b) == 0
        assert (a / "checkpoint.bin").read_bytes() != (b / "checkpoint.bin").read_bytes()

    def test_synthetic_embeddings_flag_overrides_config(self, tmp_path, synth_config):
        config = json.loads(synth_config.read_text())
        config["embeddings_path"] = str(tmp_path / "does_not_exist.txt")
        path = tmp_path / "config2.json"
        path.write_text(json.dumps(config))
        run_dir = tmp_path / "run"
        assert run("train", "--config", path, "--synthetic-embeddings",
                   "--out-dir", run_dir) == 0


@pytest.fixture
def tiny_synth_config(tmp_path):
    config = {
        "provider": "synthetic",
        "synth": {"num_labels": 4, "feature_dim": 8, "n_samples": 40,
                  "edges": [[0, 1, 0.8]], "base_rates": [0.4, 0.1, 0.3, 0.3],
                  "noise_sigma": 0.4, "seed": 11},
        "gcn_dims": [6, 8, 6], "d3": 8, "G": 2, "g": 4, "d1": 8,
        "epochs": 1, "batch_size": 8, "seed": 11,
    }
    path = tmp_path / "tiny_config.json"
    path.write_text(json.dumps(config))
    return path


class TestSweep:
    def test_epsilon_sweep_flags_zero(self, tmp_path, synth_config, capsys):
        out = tmp_path / "sweep.csv"
        assert run("sweep", "--config", synth_config, "--axis", "epsilon",
                   "--values", "0.0,0.3,0.3,0.6", "--out", out) == 0
        err = capsys.readouterr().err
        assert "duplicate sweep value" in err
        lines = out.read_text().splitlines()
        assert lines[0] == "value,mean_auc,status"
        rows = {line.split(",")[0]: line.split(",") for line in lines[1:]}
        assert rows["0.0"][2] == "non_convergent" and rows["0.0"][1] == ""
        assert rows["0.3"][2] == "ok" and rows["0.3"][1] != ""
        assert len(lines) == 4  # header + 3 deduplicated rows
        assert (tmp_path / "sweep.csv.config.json").exists()

    def test_non_finite_test_logits_mark_the_point_diverged(self, tmp_path):
        """Without a validation split train checks its last batch's logits
        after each epoch, so the overflow stops the point; it is diverged,
        not scored."""
        out = tmp_path / "sweep.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run("sweep", "--config", empty_val_config(tmp_path, 1),
                       "--batch-size", 64, "--lr-main", "1e300", "--lr-lce", "1e300",
                       "--axis", "delta", "--values", "0.2", "--out", out) == 0
        assert out.read_text().splitlines()[1:] == ["0.2,,diverged"]

    def test_dataset_assembled_and_split_once(self, tmp_path, synth_config, monkeypatch):
        calls = []
        for name in ("assemble_dataset", "split_dataset"):
            real = getattr(cli, name)
            monkeypatch.setattr(cli, name, lambda *a, real=real, name=name:
                                calls.append(name) or real(*a))
        assert run("sweep", "--config", synth_config, "--axis", "delta",
                   "--values", "0.1,0.2,0.3", "--out", tmp_path / "s.csv") == 0
        assert calls == ["assemble_dataset", "split_dataset"]

    @pytest.mark.parametrize("fine_tune", [False, True])
    def test_word_vectors_loaded_once(self, tmp_path, synth_config, monkeypatch,
                                      fine_tune):
        """One load serves every point, and each point's row is the one a
        sweep of that point alone writes, also when W is fine-tuned in place."""
        extra = ["--embeddings", vectors_missing_one_word(tmp_path), "--oov-fallback"]
        if fine_tune:
            extra.append("--fine-tune-embeddings")
        calls = []
        real = cli.load_word_vectors
        monkeypatch.setattr(cli, "load_word_vectors",
                            lambda fh: calls.append(fh) or real(fh))
        out = tmp_path / "sweep.csv"
        assert run("sweep", "--config", synth_config, "--axis", "delta",
                   "--values", "0.1,0.2,0.3", "--out", out, *extra) == 0
        assert len(calls) == 1
        alone = []
        for value in ("0.1", "0.2", "0.3"):
            one = tmp_path / f"sweep-{value}.csv"
            assert run("sweep", "--config", synth_config, "--axis", "delta",
                       "--values", value, "--out", one, *extra) == 0
            alone.append(one.read_text().splitlines()[1])
        assert out.read_text().splitlines()[1:] == alone

    def test_gcn_depth_sweep(self, tmp_path, synth_config):
        out = tmp_path / "depth.csv"
        assert run("sweep", "--config", synth_config, "--axis", "gcn_depth",
                   "--values", "2,3", "--out", out) == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 3
        assert all(line.endswith("ok") for line in lines[1:])

    def test_groupsum_sweep_requires_constant_product(self, tmp_path, synth_config):
        assert run("sweep", "--config", synth_config, "--axis", "groupsum",
                   "--values", "2x4,4x4", "--out", tmp_path / "g.csv") == 2

    def test_groupsum_sweep_runs(self, tmp_path, synth_config):
        out = tmp_path / "g.csv"
        assert run("sweep", "--config", synth_config, "--axis", "groupsum",
                   "--values", "2x4,4x2,8x1", "--out", out) == 0
        assert len(out.read_text().splitlines()) == 4

    def test_invalid_value_fatal_before_training(self, tmp_path, synth_config):
        assert run("sweep", "--config", synth_config, "--axis", "epsilon",
                   "--values", "0.3,1.5", "--out", tmp_path / "s.csv") == 2
        assert not (tmp_path / "s.csv").exists()

    def test_invalid_depth_fatal(self, tmp_path, synth_config):
        assert run("sweep", "--config", synth_config, "--axis", "gcn_depth",
                   "--values", "5", "--out", tmp_path / "s.csv") == 2

    def test_out_under_a_new_directory(self, tmp_path, tiny_synth_config, capsys):
        out = tmp_path / "nodir" / "s.csv"
        assert run("sweep", "--config", tiny_synth_config, "--axis", "delta",
                   "--values", "0.2", "--out", out) == 0
        assert out.read_text().splitlines()[0] == "value,mean_auc,status"
        assert (tmp_path / "nodir" / "s.csv.config.json").exists()
        assert capsys.readouterr().err == ""

    def test_epsilon_ablation_protocol_yields_ten_rows(self, tmp_path,
                                                       tiny_synth_config):
        out = tmp_path / "eps10.csv"
        values = ",".join(f"{v/10:.1f}" for v in range(1, 11))
        assert run("sweep", "--config", tiny_synth_config, "--axis", "epsilon",
                   "--values", values, "--out", out) == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 11  # header + one row per epsilon
        assert all(line.endswith("ok") for line in lines[1:])

    def test_delta_sweep_accepts_zero(self, tmp_path, tiny_synth_config):
        out = tmp_path / "delta.csv"
        assert run("sweep", "--config", tiny_synth_config, "--axis", "delta",
                   "--values", "0.0,0.2,0.9", "--out", out) == 0
        assert len(out.read_text().splitlines()) == 4

    @pytest.mark.parametrize("axis, values, kept", [
        ("delta", "0.5,0.50,.5,0.2", ["0.5", "0.2"]),
        ("groupsum", "2x2,02x2,2x02,4x1", ["2x2", "4x1"]),
    ])
    def test_values_spelled_apart_train_once(self, tmp_path, tiny_synth_config, capsys,
                                             monkeypatch, axis, values, kept):
        """Tokens that name one point train it once, under the first spelling,
        and each later spelling is reported as a duplicate."""
        calls, real = [], cli.train
        monkeypatch.setattr(cli, "train", lambda *a: calls.append(a) or real(*a))
        out = tmp_path / "s.csv"
        assert run("sweep", "--config", tiny_synth_config, "--axis", axis,
                   "--values", values, "--out", out) == 0
        assert len(calls) == len(kept)
        assert [line.split(",")[0] for line in out.read_text().splitlines()[1:]] == kept
        assert capsys.readouterr().err.count("duplicate sweep value") == 2

    def test_delta_one_rejected(self, tmp_path, tiny_synth_config):
        assert run("sweep", "--config", tiny_synth_config, "--axis", "delta",
                   "--values", "0.2,1.0", "--out", tmp_path / "d.csv") == 2

    @pytest.mark.parametrize("axis, values", [("epsilon", "0.3,nan"), ("delta", "nan"),
                                              ("groupsum", "2x4,0x8"),
                                              ("groupsum", "2x4x1")])
    def test_value_failing_validation_fatal_before_training(
            self, tmp_path, tiny_synth_config, capsys, monkeypatch, axis, values):
        calls = []
        monkeypatch.setattr(cli, "train", lambda *a, **k: calls.append(a))
        out = tmp_path / "s.csv"
        assert run("sweep", "--config", tiny_synth_config, "--axis", axis,
                   "--values", values, "--out", out) == 2
        assert calls == [] and not out.exists()
        assert capsys.readouterr().err.count("\n") == 1


class TestConfigEcho:
    @pytest.mark.parametrize("oov", [False, True],
                             ids=["synthetic-embeddings", "oov-fallback"])
    def test_echoed_config_retrains_identically(self, tmp_path, synth_config, oov):
        flags = ["--embeddings", vectors_missing_one_word(tmp_path),
                 "--oov-fallback"] if oov else []
        first = tmp_path / "first"
        assert run("train", "--config", synth_config, *flags, "--out-dir", first) == 0
        second = tmp_path / "second"
        assert run("train", "--config", first / "config.json",
                   "--out-dir", second) == 0
        assert (first / "checkpoint.bin").read_bytes() == \
            (second / "checkpoint.bin").read_bytes()

    def test_empty_validation_split_tolerated(self, tmp_path):
        run_dir = tmp_path / "run"
        assert run("train", "--config", empty_val_config(tmp_path, epochs=2),
                   "--out-dir", run_dir) == 0
        history = (run_dir / "metrics.csv").read_text().splitlines()
        assert all(line.endswith(",") for line in history[1:])  # no val AUC

    def test_empty_validation_split_keeps_last_epoch(self, tmp_path, monkeypatch):
        real_epoch, snapshots = training.Run.epoch, []

        def recording_epoch(run):
            real_epoch(run)
            snapshots.append({name: arr.copy() for name, arr in run.params.items()})

        monkeypatch.setattr(training.Run, "epoch", recording_epoch)
        epochs = 3
        run_dir = tmp_path / "run"
        assert run("train", "--config", empty_val_config(tmp_path, epochs),
                   "--out-dir", run_dir) == 0
        ckpt = training.load_checkpoint(run_dir / "checkpoint.bin")
        assert ckpt.epoch == epochs - 1 and len(snapshots) == epochs
        # the parameters follow graph.P, in the run's order
        names = list(ckpt.tensors)
        assert names[names.index("graph.P") + 1:] == list(snapshots[-1])
        for name, final in snapshots[-1].items():
            assert np.array_equal(ckpt.tensors[name], final), name
        assert any(not np.array_equal(snapshots[0][name], final)
                   for name, final in snapshots[-1].items())

    def test_empty_validation_split_divergence_exits_4(self, tmp_path, capsys):
        """Without a validation split the last step of an epoch is still
        checked: a run that overflows there saves nothing."""
        run_dir = tmp_path / "run"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run("train", "--config", empty_val_config(tmp_path, 1),
                       "--batch-size", 64, "--lr-main", "1e300", "--lr-lce", "1e300",
                       "--out-dir", run_dir) == 4
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "last-batch logits at epoch 0" in err
        assert not (run_dir / "checkpoint.bin").exists()

    def test_eval_on_empty_test_split_exits_2(self, tmp_path, capsys):
        path = empty_val_config(tmp_path, epochs=1)
        config = json.loads(path.read_text())
        config["ratios"] = [0.8, 0.15, 0.05]  # 4 samples: 3 train, 1 val, 0 test
        path.write_text(json.dumps(config))
        run_dir = tmp_path / "run"
        assert run("train", "--config", path, "--out-dir", run_dir) == 0
        capsys.readouterr()
        assert run("eval", "--checkpoint", run_dir / "checkpoint.bin",
                   "--out-dir", tmp_path / "eval") == 2
        assert capsys.readouterr().err == "error: the test split is empty\n"
        assert run("sweep", "--config", path, "--axis", "delta", "--values", "0.1",
                   "--out", tmp_path / "sweep.csv") == 2
        assert capsys.readouterr().err == "error: the test split is empty\n"

    @pytest.mark.parametrize("graph_include_val", [False, True])
    def test_empty_train_split_exits_2(self, tmp_path, capsys, graph_include_val):
        path = empty_val_config(tmp_path, epochs=1)
        config = json.loads(path.read_text())
        config["ratios"] = [0.05, 0.8, 0.15]  # 4 samples: 0 train, 3 val, 1 test
        config["graph_include_val"] = graph_include_val
        path.write_text(json.dumps(config))
        run_dir = tmp_path / "run"
        assert run("train", "--config", path, "--out-dir", run_dir) == 2
        assert capsys.readouterr().err == "error: the train split is empty\n"
        assert not (run_dir / "checkpoint.bin").exists()
        assert run("sweep", "--config", path, "--axis", "delta", "--values", "0.1",
                   "--out", tmp_path / "sweep.csv") == 2
        assert capsys.readouterr().err == "error: the train split is empty\n"
        assert not (tmp_path / "sweep.csv").exists()

    @pytest.mark.parametrize("bad", [{"gcn_dims": 5}, {"ratios": "abc"}, {"epochs": "5"},
                                     {"synth": {"num_labels": "x"}},
                                     {"synth": {"edges": [[0, 1]]}},
                                     {"synth": {"n_sample": 80}}, {"groups": 3}],
                             ids=["int-gcn-dims", "string-ratios", "string-epochs",
                                  "string-synth-num-labels", "short-synth-edge",
                                  "unknown-synth-key", "groups-beside-G"])
    def test_wrong_config_value_type_exits_2(self, tmp_path, synth_config, bad, capsys):
        config = json.loads(synth_config.read_text())
        config.update(bad)
        synth_config.write_text(json.dumps(config))
        assert run("train", "--config", synth_config,
                   "--out-dir", tmp_path / "run") == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and next(iter(bad)) in err

    @pytest.mark.parametrize("key", ["G", "groups"])
    def test_flag_beats_either_config_key(self, tmp_path, synth_config, key):
        config = json.loads(synth_config.read_text())
        config[key] = config.pop("G")
        synth_config.write_text(json.dumps(config))
        run_dir = tmp_path / "run"
        assert run("train", "--config", synth_config, "--num-groups", 1,
                   "--out-dir", run_dir) == 0
        assert json.loads((run_dir / "config.json").read_text())["G"] == 1

    @pytest.mark.parametrize("key", ["edges", "dependency_edges"])
    def test_edges_flag_beats_either_synth_key(self, tmp_path, key):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"synth": {key: [[0, 1, 0.5]]}}))
        out = tmp_path / "data"
        assert run("synth", "--config", config, "--num-labels", 4, "--feature-dim", 4,
                   "--n-samples", 10, "--edges", "1:2:0.25", "--out-dir", out) == 0
        spec = json.loads((out / "synth_spec.json").read_text())
        assert spec["edges"] == [[1, 2, 0.25]]
        assert spec["config_echo"]["synth"]["edges"] == [[1, 2, 0.25]]

    def test_synth_echo_is_the_resolved_spec(self, tmp_path):
        """Two spellings of one spec write the same synth_spec.json."""
        written = []
        for block, flag in [({"edges": [[0, 1, 0.5]], "n_samples": 10},
                             ["--noise-sigma", 0.2]),
                            ({"dependency_edges": [[0, 1, 0.5]], "noise_sigma": 0.2},
                             ["--n-samples", 10])]:
            config = tmp_path / "config.json"
            config.write_text(json.dumps({"synth": block}))
            out = tmp_path / f"data{len(written)}"
            assert run("synth", "--config", config, "--num-labels", 4,
                       "--feature-dim", 4, *flag, "--out-dir", out) == 0
            written.append((out / "synth_spec.json").read_bytes())
        assert written[0] == written[1]
        assert list(json.loads(written[0])["config_echo"]["synth"]) == [
            "num_labels", "feature_dim", "n_samples", "edges", "base_rates",
            "noise_sigma", "seed"]


def empty_val_config(tmp_path, epochs):
    """4 samples under 0.7/0.1/0.2 leave the validation split empty."""
    config = {
        "provider": "synthetic",
        "synth": {"num_labels": 4, "feature_dim": 8, "n_samples": 4,
                  "base_rates": [0.5, 0.5, 0.5, 0.5], "seed": 2},
        "gcn_dims": [6, 8, 6], "d3": 8, "G": 2, "g": 4, "d1": 8,
        "epochs": epochs, "batch_size": 2, "seed": 2,
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    return path


class TestAtomicWrites:
    def test_failed_history_write_keeps_previous_file(self, tmp_path, monkeypatch):
        path = tmp_path / "metrics.csv"
        history = [{"epoch": 0, "train_loss": 0.5, "val_mean_auc": None}]
        cli._write_history_csv(path, history)
        before = path.read_bytes()

        def broken(x):
            raise OSError("disk full")

        monkeypatch.setattr(cli, "format_float", broken)  # fails after the header
        with pytest.raises(OSError, match="disk full"):
            cli._write_history_csv(path, history * 2)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["metrics.csv"]


    def test_failed_roc_write_keeps_previous_file(self, tmp_path, monkeypatch):
        vocab = LabelVocabulary(["a", "b", "c"])
        truths = np.array([[1, 0, 1], [0, 1, 0], [1, 1, 0], [0, 0, 1]])
        logits = np.linspace(-1.0, 1.0, 12).reshape(4, 3)
        test = Dataset([f"s{i}" for i in range(4)], truths, np.zeros((4, 1)))
        config = training.TrainConfig()
        cli._write_eval_files(tmp_path, config, vocab, test, logits, None)
        before = (tmp_path / "roc.csv").read_bytes()
        real, calls = cli.output_floats, []

        def fails_on_second_label(values):
            calls.append(values)
            if len(calls) > 1:
                raise OSError("disk full")
            return real(values)

        monkeypatch.setattr(cli, "output_floats", fails_on_second_label)
        with pytest.raises(OSError, match="disk full"):
            cli._write_eval_files(tmp_path, config, vocab, test, -logits, None)
        assert (tmp_path / "roc.csv").read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["metrics.json", "roc.csv"]


def test_roc_rows_print_the_sentinel_row_as_inf():
    curve = np.array([[np.inf, 0.0, 0.0], [-0.0, 0.5, 1.0], [-1.5, 1.0, 1.0]])
    assert cli._roc_rows("a", curve) == ["a,inf,0,0\n", "a,0,0.5,1\n", "a,-1.5,1,1\n"]
    with pytest.raises(NumericalError, match="non-finite value nan"):
        cli._roc_rows("a", np.array([[np.inf, 0.0, 0.0], [np.nan, 1.0, 1.0]]))


def synth_files(tmp_path, n_samples=40):
    """labels.csv and features.txt of a small synthetic dataset, with the
    train flags that read them."""
    data_dir = tmp_path / "data"
    assert run("synth", "--out-dir", data_dir, "--num-labels", 4, "--feature-dim", 8,
               "--n-samples", n_samples, "--seed", 3) == 0
    flags = ["--labels-path", data_dir / "labels.csv",
             "--features-path", data_dir / "features.txt",
             "--labels", "L00,L01,L02,L03", "--d1", 8, "--gcn-dims", "6,8,6",
             "--d3", 8, "--num-groups", 2, "--group-size", 4, "--epochs", 1,
             "--batch-size", 8]
    return data_dir, flags


def _test_split_ids(n):
    """Ids of the default test split of a synth dataset of n samples, in
    label-file order."""
    return [f"s{k:05d}" for k in sorted(split_dataset(n, [0.7, 0.1, 0.2], 0)[2])]


def _features_without(data_dir, tmp_path, ids):
    """A copy of the synth feature file with ``ids`` dropped and the other
    rows in reverse order, so file order is not label order."""
    header, *rows = (data_dir / "features.txt").read_text().splitlines(keepends=True)
    path = tmp_path / "features_dropped.txt"
    path.write_text(header + "".join(r for r in rows[::-1] if r.split()[0] not in ids))
    return path


def _edit_feature_row(data_dir, sample_id, edit):
    """Rewrite the feature line of ``sample_id`` as ``edit(line)`` (bytes to
    bytes; an empty result drops it); returns its line number."""
    path = data_dir / "features.txt"
    lines = path.read_bytes().splitlines(keepends=True)
    k = next(k for k, line in enumerate(lines) if line.split()[0] == sample_id.encode())
    lines[k] = edit(lines[k])
    path.write_bytes(b"".join(lines))
    return k + 1


def _fit_split_ids(n):
    """Ids of the default train and validation splits, which train converts."""
    test_ids = set(_test_split_ids(n))
    return [f"s{k:05d}" for k in range(n) if f"s{k:05d}" not in test_ids]


class TestRowsEachCommandConverts:
    """train converts the feature values of the train and validation rows,
    eval and report those of the test rows; the checks that need no value
    (the header, id-only lines, repeated and missing ids, undecodable bytes)
    cover every line for both."""

    def train_then_eval(self, tmp_path, capsys, sample_id, edit):
        """Train a checkpoint on clean synth files, rewrite the feature line
        of ``sample_id`` with ``edit``, then train again and eval the
        checkpoint: the line's number and each command's (exit code, stderr)."""
        _, flags = synth_files(tmp_path)
        clean = tmp_path / "clean"
        assert run("train", *flags, "--out-dir", clean) == 0
        line_no = _edit_feature_row(tmp_path / "data", sample_id, edit)
        capsys.readouterr()
        train_code = run("train", *flags, "--out-dir", tmp_path / "run")
        train_err = capsys.readouterr().err
        eval_code = run("eval", "--checkpoint", clean / "checkpoint.bin",
                        "--out-dir", tmp_path / "eval")
        return line_no, (train_code, train_err), (eval_code, capsys.readouterr().err)

    @pytest.mark.parametrize("split", ["train", "test"])
    def test_non_finite_value_stops_the_command_that_converts_its_row(
            self, tmp_path, capsys, split):
        sample_id = (_fit_split_ids if split == "train" else _test_split_ids)(40)[0]
        line_no, train, evaluation = self.train_then_eval(
            tmp_path, capsys, sample_id, lambda line: line.rsplit(b" ", 1)[0] + b" inf\n")
        failed = (2, f"error: line {line_no}: non-finite value for {sample_id!r}\n")
        if split == "train":
            assert train == failed and evaluation[0] == 0
        else:
            assert train == (0, "") and evaluation == failed
        assert (tmp_path / "run" / "checkpoint.bin").exists() == (split == "test")

    @pytest.mark.parametrize("command", ["train", "eval"])
    @pytest.mark.parametrize("fault", ["id-only", "repeated-id", "missing-id", "non-utf8"])
    def test_whole_file_checks_cover_rows_the_command_skips(self, tmp_path, capsys,
                                                            command, fault):
        # a row whose values the command does not convert
        sample_id = (_test_split_ids if command == "train" else _fit_split_ids)(40)[0]
        edit = {"id-only": lambda line: sample_id.encode() + b"\n",
                "repeated-id": lambda line: line + line,
                "missing-id": lambda line: b"",
                "non-utf8": lambda line: line.replace(b" ", b" \xff", 1)}[fault]
        line_no, train, evaluation = self.train_then_eval(tmp_path, capsys, sample_id, edit)
        message = {
            "id-only": f"line {line_no}: id {sample_id!r} has no values",
            "repeated-id": f"duplicate sample id {sample_id!r} in feature file",
            "missing-id": f"unknown sample id {sample_id!r}",
            "non-utf8": f"{tmp_path / 'data' / 'features.txt'}: not UTF-8 text "
                        "(invalid start byte)",
        }[fault]
        assert train == evaluation == (2, f"error: {message}\n")

    def test_empty_test_split_of_a_feature_file_exits_2(self, tmp_path, capsys):
        _, flags = synth_files(tmp_path, n_samples=4)
        run_dir = tmp_path / "run"
        # 4 samples: 3 train, 1 val, 0 test
        assert run("train", *flags, "--ratios", "0.8,0.15,0.05", "--out-dir", run_dir) == 0
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run("eval", "--checkpoint", run_dir / "checkpoint.bin",
                       "--out-dir", tmp_path / "eval") == 2
        assert capsys.readouterr().err == "error: the test split is empty\n"
        assert not (tmp_path / "eval").exists()


class TestExitCodes:
    """Malformed inputs exit 2 with one line on stderr, never a traceback."""

    @pytest.mark.parametrize("k", [-1, 0])
    def test_top_k_below_one_exits_2(self, tmp_path, synth_config, capsys, k):
        run_dir, eval_dir = tmp_path / "run", tmp_path / "eval"
        assert run("train", "--config", synth_config, "--out-dir", run_dir) == 0
        capsys.readouterr()
        assert run("eval", "--checkpoint", run_dir / "checkpoint.bin",
                   "--out-dir", eval_dir, "--top-k", k) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "k must be >= 1" in err
        assert not (eval_dir / "topk.csv").exists()

    @pytest.mark.parametrize("name", ["labels.csv", "features.txt"])
    def test_non_utf8_input_exits_2(self, tmp_path, capsys, name):
        data_dir, flags = synth_files(tmp_path)
        with open(data_dir / name, "ab") as fh:
            fh.write(b"\xff")
        capsys.readouterr()
        assert run("train", *flags, "--out-dir", tmp_path / "run") == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and str(data_dir / name) in err

    def test_config_directory_exits_2(self, tmp_path, capsys):
        assert run("train", "--config", tmp_path, "--out-dir", tmp_path / "run") == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and str(tmp_path) in err

    def test_out_dir_naming_a_file_exits_2(self, tmp_path, synth_config, capsys):
        out = tmp_path / "taken"
        out.write_text("")
        assert run("train", "--config", synth_config, "--out-dir", out) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and str(out) in err

    def test_out_dir_naming_a_file_fails_before_training(self, tmp_path, synth_config,
                                                         capsys, monkeypatch):
        calls = []
        monkeypatch.setattr(cli, "train", lambda *a, **k: calls.append(a))
        out = tmp_path / "taken"
        out.write_text("")
        assert run("train", "--config", synth_config, "--out-dir", out) == 2
        assert calls == []
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and str(out) in err

    def test_train_missing_feature_row_fails_before_training(self, tmp_path, capsys,
                                                             monkeypatch):
        # both dropped ids fall in the test split, which training never reads
        data_dir, flags = synth_files(tmp_path)
        first, second = _test_split_ids(40)[:2]
        flags[3] = _features_without(data_dir, tmp_path, {first, second})
        calls = []
        monkeypatch.setattr(cli, "train", lambda *a, **k: calls.append(a))
        capsys.readouterr()
        assert run("train", *flags, "--out-dir", tmp_path / "run") == 2
        assert calls == []
        assert not (tmp_path / "run" / "checkpoint.bin").exists()
        assert capsys.readouterr().err == f"error: unknown sample id {first!r}\n"

    def test_eval_missing_feature_row_exits_2(self, tmp_path, capsys):
        # a train-split id: eval reads the test split only, but joins every row
        data_dir, flags = synth_files(tmp_path)
        assert run("train", *flags, "--out-dir", tmp_path / "run") == 0
        train_id = next(f"s{k:05d}" for k in range(40)
                        if f"s{k:05d}" not in _test_split_ids(40))
        features = _features_without(data_dir, tmp_path, {train_id})
        capsys.readouterr()
        assert run("eval", "--checkpoint", tmp_path / "run" / "checkpoint.bin",
                   "--features-path", features, "--out-dir", tmp_path / "eval") == 2
        assert capsys.readouterr().err == f"error: unknown sample id {train_id!r}\n"
        assert not (tmp_path / "eval").exists()

    def test_feature_file_without_rows_exits_2(self, tmp_path, capsys):
        data_dir, flags = synth_files(tmp_path)
        (data_dir / "features.txt").write_text("#dim=8\n")
        capsys.readouterr()
        assert run("train", *flags, "--out-dir", tmp_path / "run") == 2
        assert capsys.readouterr().err == "error: feature file has no sample rows\n"

    @pytest.mark.parametrize("extra", [[], ["--oov-fallback"]], ids=["strict", "fallback"])
    def test_label_without_words_exits_2(self, tmp_path, synth_config, capsys, extra):
        # "_" tokenizes to no words, so no word vector can embed it
        assert run("train", "--config", synth_config, "--labels", "_,l01,l02,l03",
                   "--embeddings", vectors_missing_one_word(tmp_path), *extra,
                   "--out-dir", tmp_path / "run") == 2
        assert capsys.readouterr().err == "error: label '_' has no words to embed\n"
        assert not (tmp_path / "run" / "checkpoint.bin").exists()

    @pytest.mark.parametrize("edges", ["a:b:0.5", "0:1:x", "0:1"])
    def test_bad_edge_number_exits_2(self, tmp_path, capsys, edges):
        out = tmp_path / "data"
        assert run("synth", "--out-dir", out, "--num-labels", 4, "--edges", edges) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and repr(edges) in err
        assert not out.exists()

    @pytest.mark.parametrize("token", ["", " ", "a|b"])
    def test_bad_no_finding_token_exits_2(self, tmp_path, capsys, token):
        out = tmp_path / "data"
        assert run("synth", "--out-dir", out, "--num-labels", 4,
                   "--no-finding-token", token) == 2
        err = capsys.readouterr().err
        assert err == ("error: no_finding_token must be non-blank without '|', "
                       f"got {token!r}\n")
        assert not out.exists()

    @pytest.mark.parametrize("flags, bad", [
        (["--labels", "a|b,c"], "a|b"),
        (["--vocab-file", "a\nb,c\nd\n"], "b,c"),
        (["--vocab-file", 'a\nb"c\n'], 'b"c'),
        (["--config", json.dumps({"labels": ["a\nb", "c"]})], "a\nb"),
        (["--num-labels", 4, "--no-finding-token", "none,found"], "none,found"),
    ], ids=["pipe", "comma", "quote", "line-break", "no-finding-token"])
    def test_unwritable_name_exits_2(self, tmp_path, capsys, flags, bad):
        if flags[0] in ("--vocab-file", "--config"):
            (tmp_path / "input").write_text(flags[1])
            flags = [flags[0], tmp_path / "input"]
        out = tmp_path / "data"
        assert run("synth", "--out-dir", out, "--n-samples", 20, *flags) == 2
        err = capsys.readouterr().err
        assert err == (f"error: cannot write {bad!r} to a pipe label file: it holds "
                       "'|', ',', '\"' or a line break\n")
        assert not out.exists()

    @pytest.mark.parametrize("sigma", ["nan", "inf"])
    def test_non_finite_noise_sigma_exits_2(self, tmp_path, capsys, sigma):
        out = tmp_path / "data"
        assert run("synth", "--out-dir", out, "--num-labels", 4, "--feature-dim", 4,
                   "--n-samples", 20, "--noise-sigma", sigma) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "noise_sigma must be finite" in err
        assert not (out / "features.txt").exists()

    @pytest.mark.parametrize("command", ["train", "synth"])
    def test_negative_seed_exits_2(self, tmp_path, synth_config, capsys, command):
        out = tmp_path / "out"
        assert run(command, "--config", synth_config, "--seed", -1,
                   "--out-dir", out) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "seed must be >= 0" in err
        assert not out.exists()

    @pytest.mark.parametrize("flag, value", [("--lr-lce", "nan"), ("--weight-decay", "nan"),
                                             ("--leaky-alpha", "inf"),
                                             ("--ratios", "0.7,nan,0.3")])
    def test_non_finite_float_exits_2(self, tmp_path, synth_config, capsys, flag, value):
        assert run("train", "--config", synth_config, flag, value,
                   "--out-dir", tmp_path / "run") == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "must be finite" in err


def checkpoint_parts(path):
    """A checkpoint's header and its (tensor entry, payload bytes) pairs."""
    line, _, payload = path.read_bytes().partition(b"\n")
    header = json.loads(line)
    parts, offset = [], 0
    for entry in header["tensors"]:
        nbytes = 8 * int(np.prod(entry["shape"]))
        parts.append((entry, payload[offset: offset + nbytes]))
        offset += nbytes
    return header, parts


def write_checkpoint(path, header, parts, payload_cut=None):
    header = dict(header, tensors=[entry for entry, _ in parts])
    payload = b"".join(data for _, data in parts)[:payload_cut]
    path.write_bytes(json.dumps(header).encode() + b"\n" + payload)


def drop(name):
    return lambda header, parts: (header, [p for p in parts if p[0]["name"] != name])


def rename(old, new):
    return lambda header, parts: (header, [(dict(e, name=new) if e["name"] == old else e, d)
                                           for e, d in parts])


def scale(name, factor):
    return lambda header, parts: (header, [
        (e, (np.frombuffer(d, "<f8") * factor).tobytes() if e["name"] == name else d)
        for e, d in parts])


def set_shape(name, shape):
    """Give a tensor a new shape, its payload cut to the new size."""
    size = 8 * int(np.prod(shape))
    return lambda header, parts: (header, [(dict(e, shape=shape), d[:size])
                                           if e["name"] == name else (e, d)
                                           for e, d in parts])


def set_config(key, value):
    return lambda header, parts: (dict(header, config=dict(header["config"],
                                                           **{key: value})), parts)


class TestMalformedCheckpoint:
    """A checkpoint with a tensor missing, misnamed or misshapen, or whose
    config disagrees with its tensors, exits 2 or 3 with one line naming
    the problem."""

    @pytest.mark.parametrize("command, edit, code, needle", [
        ("eval", drop("fusion.fc3_b"), 2, "'fusion.fc3_b'"),
        ("eval", drop("embeddings.W"), 2, "'embeddings.W'"),
        ("eval", rename("gcn.theta1", "gcn.thetaX"), 2, "'gcn.theta1'"),
        ("eval", set_shape("fusion.fc3_b", []), 3, "fusion.fc3_b"),
        ("report", drop("graph.P"), 2, "'graph.P'"),
        ("eval", set_config("gcn_dims", [6, 99, 6]), 3, "'gcn.theta0'"),
        ("eval", set_config("d3", 77), 3, "'fusion.fc1_w'"),
        ("eval", set_shape("graph.P", [4, 3]), 3, "graph.P"),
        ("eval", set_shape("gcn.theta0", [2**32, 2**32]), 2, "truncated"),
        ("eval", set_config("no_finding_token", ""), 2, "no_finding_token"),
    ], ids=["no-fc3_b", "no-embeddings", "renamed-theta", "scalar-fc3_b",
            "report-no-P", "config-gcn-hidden-width", "config-d3", "oblong-P",
            "overflowing-shape", "config-blank-no-finding-token"])
    def test_exits_with_one_line(self, tmp_path, synth_config, capsys,
                                 command, edit, code, needle):
        run_dir = tmp_path / "run"
        assert run("train", "--config", synth_config, "--out-dir", run_dir) == 0
        path = run_dir / "checkpoint.bin"
        write_checkpoint(path, *edit(*checkpoint_parts(path)))
        capsys.readouterr()
        assert run(command, "--checkpoint", path, "--out-dir", tmp_path / "out") == code
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and needle in err


@pytest.fixture(scope="module")
def fuzz_checkpoints(tmp_path_factory):
    """Trained checkpoints, without and with a toy MLP backbone, whose 2-d
    tensors are all non-square except graph.P."""
    root = tmp_path_factory.mktemp("fuzz")
    config = {
        "provider": "synthetic",
        "synth": {"num_labels": 4, "n_samples": 40, "edges": [[0, 1, 0.8]],
                  "noise_sigma": 0.4, "seed": 5},
        "gcn_dims": [6, 7, 5], "d3": 3, "G": 2, "g": 4, "d1": 9, "toy_hidden": 10,
        "epochs": 1, "batch_size": 8, "seed": 5,
    }
    checkpoints = []
    for provider, raw_dim in (("synthetic", 9), ("toy_mlp", 8)):
        path = root / f"{provider}.json"
        synth = dict(config["synth"], feature_dim=raw_dim)
        path.write_text(json.dumps(dict(config, provider=provider, synth=synth)))
        run_dir = root / provider
        with contextlib.redirect_stdout(io.StringIO()):
            assert run("train", "--config", path, "--out-dir", run_dir) == 0
        checkpoints.append(checkpoint_parts(run_dir / "checkpoint.bin"))
    return root, checkpoints


@settings(max_examples=60, deadline=None)
@given(which=st.integers(0, 1),
       edit=st.sampled_from(["drop", "rename", "swap", "truncate"]),
       pick=st.integers(0, 10**6), new_name=st.text(max_size=12))
def test_fuzzed_checkpoint_header_exits_2_or_3(fuzz_checkpoints, which, edit, pick,
                                                new_name):
    root, checkpoints = fuzz_checkpoints
    header, parts = checkpoints[which]
    names = [entry["name"] for entry, _ in parts]
    cut = None
    if edit == "drop":
        header, parts = drop(names[pick % len(names)])(header, parts)
    elif edit == "rename":
        old = names[pick % len(names)]
        new_name = new_name if new_name != old else old + "x"
        header, parts = rename(old, new_name)(header, parts)
    elif edit == "swap":
        oblong = [e for e, _ in parts if len(e["shape"]) == 2
                  and e["shape"][0] != e["shape"][1]]
        entry = oblong[pick % len(oblong)]
        header, parts = set_shape(entry["name"], entry["shape"][::-1])(header, parts)
    else:
        cut = pick % sum(len(data) for _, data in parts)
    path = root / "fuzzed.bin"
    write_checkpoint(path, header, parts, payload_cut=cut)
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main(["eval", "--checkpoint", str(path), "--out-dir", str(root / "eval")])
    assert code in (2, 3)
    assert err.getvalue().count("\n") == 1


def eval_quietly(checkpoint, out_dir):
    """`eval` of a checkpoint; returns its exit code and stderr."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main(["eval", "--checkpoint", str(checkpoint), "--out-dir", str(out_dir)])
    return code, err.getvalue()


_TOY_TENSORS = ["embeddings.W", "graph.P", "gcn.theta0", "gcn.theta1",
                "fusion.fc1_w", "fusion.fc1_b", "fusion.fc2_w", "fusion.fc2_b",
                "fusion.u_tilde", "fusion.v_tilde", "fusion.fc3_w", "fusion.fc3_b",
                "backbone.w1", "backbone.b1", "backbone.w2", "backbone.b2"]


def same_size_reshape(shape):
    """Another shape of the same size: a leading 1 on a 1-d shape, a 2-d
    shape reversed, or flattened when it is square."""
    if len(shape) == 1:
        return [1] + shape
    return shape[::-1] if shape[0] != shape[1] else [shape[0] * shape[1]]


@pytest.mark.parametrize("name, reshape", [
    *((name, same_size_reshape) for name in _TOY_TENSORS),
    ("backbone.w1", lambda shape: []),
    ("backbone.w1", lambda shape: [shape[0] * shape[1]]),
    ("backbone.w1", lambda shape: [0, shape[1]]),
], ids=_TOY_TENSORS + ["backbone.w1-0d", "backbone.w1-1d", "backbone.w1-empty"])
def test_each_tensor_of_another_shape_exits_3_naming_it(fuzz_checkpoints, tmp_path,
                                                         name, reshape):
    root, checkpoints = fuzz_checkpoints
    header, parts = checkpoints[1]
    assert [entry["name"] for entry, _ in parts] == _TOY_TENSORS
    shape = next(entry["shape"] for entry, _ in parts if entry["name"] == name)
    path = tmp_path / "reshaped.bin"
    write_checkpoint(path, *set_shape(name, reshape(shape))(header, parts))
    code, err = eval_quietly(path, tmp_path / "eval")
    assert code == 3 and err.count("\n") == 1 and name in err


def test_toy_checkpoint_without_w1_exits_2(fuzz_checkpoints, tmp_path):
    root, checkpoints = fuzz_checkpoints
    path = tmp_path / "no-w1.bin"
    write_checkpoint(path, *drop("backbone.w1")(*checkpoints[1]))
    code, err = eval_quietly(path, tmp_path / "eval")
    assert code == 2 and err.count("\n") == 1 and "'backbone.w1'" in err


@pytest.fixture(scope="module")
def train_inputs(tmp_path_factory):
    """The label, feature, word-vector and config files of a tiny file-based
    train, as bytes, and the directory the mutated copies go to."""
    root = tmp_path_factory.mktemp("train_fuzz")
    with contextlib.redirect_stdout(io.StringIO()):
        assert run("synth", "--out-dir", root, "--num-labels", 4, "--feature-dim", 4,
                   "--n-samples", 24, "--seed", 3) == 0
    rng = np.random.Generator(np.random.PCG64(1))
    vectors = "".join(f"l0{j} " + " ".join(repr(float(v)) for v in rng.uniform(-1, 1, 3))
                      + "\n" for j in range(4))
    case = root / "case"
    case.mkdir()
    config = {
        "labels": ["L00", "L01", "L02", "L03"],
        "labels_path": str(case / "labels.csv"),
        "features_path": str(case / "features.txt"),
        "embeddings_path": str(case / "vectors.txt"),
        "gcn_dims": [3, 4, 3], "d3": 4, "G": 2, "g": 2, "d1": 4,
        "epochs": 1, "batch_size": 8, "seed": 3,
    }
    files = {"labels.csv": (root / "labels.csv").read_bytes(),
             "features.txt": (root / "features.txt").read_bytes(),
             "vectors.txt": vectors.encode(),
             "config.json": json.dumps(config).encode()}
    return case, files


@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from(["labels.csv", "features.txt", "vectors.txt", "config.json"]),
       edits=st.lists(st.tuples(st.sampled_from(["replace", "insert", "delete"]),
                                st.integers(0, 10**6), st.binary(min_size=1, max_size=3)),
                      min_size=1, max_size=3))
def test_fuzzed_train_inputs_exit_without_traceback(train_inputs, name, edits):
    case, files = train_inputs
    data = bytearray(files[name])
    for kind, pos, chunk in edits:
        pos %= len(data) + 1
        if kind == "insert":
            data[pos:pos] = chunk
        elif kind == "replace":
            data[pos:pos + len(chunk)] = chunk
        else:
            del data[pos:pos + len(chunk)]
    for file_name, original in files.items():
        (case / file_name).write_bytes(bytes(data) if file_name == name else original)
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main(["train", "--config", str(case / "config.json"),
                     "--out-dir", str(case / "run")])
    # 4 is a run that diverges: deleting one "." turns -0.29 into -2.9e15
    assert code in (0, 2, 3, 4)
    if code:
        assert err.getvalue().count("\n") == 1


class TestByteOrderMark:
    """A text input that starts with a UTF-8 byte-order mark, as editors and
    spreadsheet exports write, trains to the same bytes as without one."""

    @pytest.fixture(scope="class")
    def inputs(self, tmp_path_factory):
        """Every kind of text input of one file-based train, as bytes."""
        root = tmp_path_factory.mktemp("bom")
        with contextlib.redirect_stdout(io.StringIO()):
            assert run("synth", "--out-dir", root, "--num-labels", 4, "--feature-dim", 4,
                       "--n-samples", 24, "--seed", 3) == 0
        pipe = (root / "labels.csv").read_text()
        columnar = "id,L00,L01,L02,L03\n"
        for line in pipe.splitlines():
            sample_id, names = line.split(",")
            columnar += ",".join([sample_id] + [str(int(f"L0{j}" in names.split("|")))
                                                for j in range(4)]) + "\n"
        features = (root / "features.txt").read_text()
        # numpy does not read 1_0, so the file goes to the exact parser
        exact = re.sub(r"(?m)^(s\d+) \S+", r"\1 1_0", features)
        rng = np.random.Generator(np.random.PCG64(1))
        vectors = "".join(f"l0{j} " + " ".join(repr(float(v)) for v in rng.uniform(-1, 1, 3))
                          + "\n" for j in range(4))
        case = root / "case"
        case.mkdir()
        config = {"labels_path": str(case / "labels.csv"),
                  "features_path": str(case / "features.txt"),
                  "embeddings_path": str(case / "vectors.txt"),
                  "gcn_dims": [3, 4, 3], "d3": 4, "G": 2, "g": 2, "d1": 4,
                  "epochs": 1, "batch_size": 8, "seed": 3}
        files = {"labels.csv": pipe, "columnar.csv": columnar, "features.txt": features,
                 "exact.txt": exact, "vectors.txt": vectors,
                 "vocab.txt": "L00\nL01\nL02\nL03\n", "config.json": json.dumps(config)}
        return case, {name: text.encode() for name, text in files.items()}

    def train(self, case, files, marked, flags, out_dir):
        """Exit code and output files of a train over ``files``, with a
        byte-order mark before the one named ``marked``, if any."""
        for name, data in files.items():
            (case / name).write_bytes(b"\xef\xbb\xbf" + data if name == marked else data)
        with contextlib.redirect_stdout(io.StringIO()):
            code = run("train", "--config", case / "config.json", "--vocab-file",
                       case / "vocab.txt", *flags, "--out-dir", out_dir)
        return code, {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}

    @pytest.mark.parametrize("marked, flags", [
        ("labels.csv", []),
        ("columnar.csv", ["--dataset-format", "columnar", "--labels-path", "columnar.csv"]),
        ("features.txt", []),
        ("exact.txt", ["--features-path", "exact.txt"]),
        ("vectors.txt", []),
        ("vocab.txt", []),
        ("config.json", []),
    ], ids=["pipe-labels", "columnar-labels", "features", "features-exact-parser",
            "word-vectors", "vocab", "config"])
    def test_trains_the_same_bytes(self, inputs, tmp_path, monkeypatch, marked, flags):
        case, files = inputs
        flags = [case / f if f.endswith((".csv", ".txt")) else f for f in flags]
        exact_calls = []
        monkeypatch.setattr("labelbridge.data._exact_id_rows",
                            lambda *a, **k: exact_calls.append(1) or _exact_id_rows(*a, **k))
        code, plain = self.train(case, files, None, flags, tmp_path / "plain")
        assert code == 0 and "checkpoint.bin" in plain
        assert self.train(case, files, marked, flags, tmp_path / "marked") == (0, plain)
        # the 1_0 file reaches the exact parser with and without the mark
        assert len(exact_calls) == (2 if marked == "exact.txt" else 0)


class TestHelp:
    def test_help_lists_defaults(self, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "200")  # one line per help text
        with pytest.raises(SystemExit) as exc:
            main(["train", "--help"])
        assert exc.value.code == 0
        text = capsys.readouterr().out
        for needle in ("0.3", "0.2", "64", "384", "0.01", "0.001", "5e-5"):
            assert needle in text
        flagged = [f for f in fields(training.TrainConfig) if "help" in f.metadata]
        unflagged = {f.name for f in fields(training.TrainConfig)} - {f.name for f in flagged}
        # labels come from --labels/--vocab-file; synth from the synth command
        assert unflagged == {"labels", "synth"}
        for f in flagged:
            for flag in _flags(f):
                assert flag in text, flag
            assert f.metadata["help"] + _default_text(f) + "\n" in text, f.name

        with pytest.raises(SystemExit):
            main(["synth", "--help"])
        text = capsys.readouterr().out
        for flag, line in [("--num-labels", "number of labels (default: 8)"),
                           ("--feature-dim", "feature dimension (default: d1)"),
                           ("--n-samples", "samples to generate (default: 1000)"),
                           ("--noise-sigma", "feature noise scale (default: 0.0)"),
                           ("--edges", "dependency edges i:j:strength, comma separated"),
                           ("--base-rates", "comma-separated per-label base rates")]:
            assert re.search(rf"\n  {flag} \S+\s+{re.escape(line)}\n", text), flag
        # the spec's seed comes from the run's --seed
        assert {f.name for f in fields(SyntheticSpec) if "help" not in f.metadata} == {"seed"}

    @pytest.mark.parametrize("command, options", [
        ("synth", {"--config", "--d1", "--seed", "--no-finding-token", "--labels",
                   "--vocab-file", "--out-dir", "--num-labels", "--feature-dim",
                   "--n-samples", "--edges", "--base-rates", "--noise-sigma"}),
        ("build-graph", {"--config", "--epsilon", "--delta", "--uncertain-policy",
                         "--dataset-format", "--pipe-header", "--no-finding-token",
                         "--reweight-axis", "--labels-path", "--labels", "--vocab-file",
                         "--out"}),
    ], ids=["synth", "build-graph"])
    def test_command_lists_only_the_flags_it_reads(self, capsys, monkeypatch, command,
                                                   options):
        monkeypatch.setenv("COLUMNS", "200")
        with pytest.raises(SystemExit):
            main([command, "--help"])
        listed = re.findall(r"^  (--?[\w-]+)", capsys.readouterr().out, re.M)
        assert sorted(listed) == sorted(["-h", *options])

    @pytest.mark.parametrize("argv", [
        ["synth", "--num-labels", "4", "--epochs", "5"],
        ["build-graph", "--labels", "a,b,c", "--labels-path", "l.csv",
         "--ratios", "0.5,0.25,0.25"],
        ["build-graph", "--labels", "a,b,c", "--labels-path", "l.csv",
         "--synthetic-embeddings"],
    ], ids=["synth-epochs", "build-graph-ratios", "build-graph-synthetic-embeddings"])
    def test_flag_the_command_ignores_exits_2(self, tmp_path, capsys, argv):
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--out-dir" if argv[0] == "synth" else "--out", str(out)])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
        assert not out.exists()

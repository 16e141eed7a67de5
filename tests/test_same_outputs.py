"""``tools/same_outputs.py``, which every change that keeps outputs
byte-identical rests on: ``compare`` must count and name each output that
differs, and only those, and the columnar runs and the runs on label names
that hold "%" must read the same labels as the pipe runs."""

import os
import sys

import numpy as np
import pytest

from labelbridge import (LabelVocabulary, UncertainPolicy, parse_columnar_labels,
                         parse_pipe_labels)

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                os.pardir, "tools"))
sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                os.pardir, "perfbench"))

from same_outputs import (COLUMNAR_WORKLOADS, PERCENT_SUFFIXES, compare, main,  # noqa: E402
                          workload_commands)
from workloads import WORKLOADS, generate, smoke_version  # noqa: E402


@pytest.mark.parametrize("parent, change, line", [
    (b"abcdef", b"abcdef", None),
    (b"", b"", None),
    (b"abcdef", b"abcXef", "DIFF w run/out: first differs at byte 3 of 6"),
    (b"abcdef", b"Xbcdef", "DIFF w run/out: first differs at byte 0 of 6"),
    (b"abcdef", b"abcdeX", "DIFF w run/out: first differs at byte 5 of 6"),
    (b"abcdef", b"abcde", "DIFF w run/out: 6 bytes vs 5"),
    (b"abc", b"abcdef", "DIFF w run/out: 3 bytes vs 6"),
    (None, b"abc", "DIFF w run/out: missing from the parent"),
    (b"abc", None, "DIFF w run/out: missing from the change"),
    (None, None, None),
], ids=["equal", "both-empty", "byte-3", "byte-0", "last-byte", "shorter", "longer",
        "missing-from-parent", "missing-from-change", "missing-from-both"])
def test_compare_counts_and_names_each_difference(capsys, parent, change, line):
    assert compare("w", {"run/out": parent}, {"run/out": change}) == (line is not None)
    assert capsys.readouterr().out == ("" if line is None else line + "\n")


def test_compare_reports_every_key_that_differs(capsys):
    parent = {"a/exit": b"0", "a/stdout": b"x", "b/metrics.json": b"{}",
              "c/roc.csv": b"1,2"}
    change = {"a/exit": b"0", "a/stdout": b"y", "b/metrics.json": b"{}",
              "c/roc.csv": None}
    assert compare("w", parent, change) == 2
    assert capsys.readouterr().out.splitlines() == [
        "DIFF w a/stdout: first differs at byte 0 of 1",
        "DIFF w c/roc.csv: missing from the change"]


@pytest.mark.parametrize("args", [
    ["src"], ["a", "b", "--threads", "2"], ["src", "--threads", "1"],
    ["src", "--threads", str((os.cpu_count() or 1) + 1)], ["a", "b", "--pin"],
    ["src", "--threads", "2", "--pin"],
], ids=["no-second-tree", "both-modes", "one-thread", "more-threads-than-cpus",
        "pin-and-second-tree", "pin-and-threads"])
def test_bad_arguments_exit_2_before_any_run(capsys, args):
    """One tree and a thread count from 2 to ``os.cpu_count()``, two
    trees, or one tree and --pin; anything else stops before a command
    runs."""
    with pytest.raises(SystemExit) as exc:
        main(args)
    assert exc.value.code == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("name", COLUMNAR_WORKLOADS)
def test_columnar_runs_read_the_pipe_runs_labels(tmp_path, name):
    inputs = generate(smoke_version(WORKLOADS[name]), 5, str(tmp_path / "inputs"))
    commands = workload_commands(name, inputs, str(tmp_path / "out"))
    copies = set()
    for run in ("build-graph-columnar", "train-columnar"):
        argv = commands[run]
        assert argv[argv.index("--dataset-format") + 1] == "columnar"
        copies.add(argv[argv.index("--labels-path") + 1])
    (copy,) = copies
    vocab = LabelVocabulary(inputs.config["labels"])
    with open(inputs.config["labels_path"], encoding="utf-8") as fh:
        want_ids, want = parse_pipe_labels(fh, vocab)
    with open(copy, encoding="utf-8") as fh:
        assert fh.readline() == ",".join(["Path", *vocab.labels]) + "\n"
        fh.seek(0)
        ids, got = parse_columnar_labels(fh, vocab, UncertainPolicy.AS_NEGATIVE)
    assert ids == want_ids and np.array_equal(got, want) and want.any()


@pytest.mark.parametrize("name", COLUMNAR_WORKLOADS)
def test_percent_runs_read_the_pipe_runs_labels(tmp_path, name):
    """The "%" copy renames each label, cycling through PERCENT_SUFFIXES,
    and keeps every row's labels; its eval scores that train's checkpoint."""
    inputs = generate(smoke_version(WORKLOADS[name]), 5, str(tmp_path / "inputs"))
    out = str(tmp_path / "out")
    commands = workload_commands(name, inputs, out)
    train = commands["train-percent"]
    copy, vocab_file = (train[train.index(flag) + 1]
                        for flag in ("--labels-path", "--vocab-file"))
    assert commands["eval-percent"][:3] == [
        "eval", "--checkpoint", os.path.join(out, "train-percent", "checkpoint.bin")]
    with open(vocab_file, encoding="utf-8") as fh:
        names = fh.read().splitlines()
    assert names == [label + PERCENT_SUFFIXES[k % len(PERCENT_SUFFIXES)]
                     for k, label in enumerate(inputs.config["labels"])]
    with open(inputs.config["labels_path"], encoding="utf-8") as fh:
        want_ids, want = parse_pipe_labels(fh, LabelVocabulary(inputs.config["labels"]))
    with open(copy, encoding="utf-8") as fh:
        ids, got = parse_pipe_labels(fh, LabelVocabulary(names))
    assert ids == want_ids and np.array_equal(got, want) and want.any()

"""``tools/same_outputs.py``'s ``compare``, which every change that keeps
outputs byte-identical rests on: it must count and name each output that
differs, and only those."""

import os
import sys

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                os.pardir, "tools"))

from same_outputs import compare, main  # noqa: E402


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
    ["src", "--threads", str((os.cpu_count() or 1) + 1)],
], ids=["no-second-tree", "both-modes", "one-thread", "more-threads-than-cpus"])
def test_bad_arguments_exit_2_before_any_run(capsys, args):
    """One tree and a thread count from 2 to ``os.cpu_count()``, or two
    trees; anything else stops before a command runs."""
    with pytest.raises(SystemExit) as exc:
        main(args)
    assert exc.value.code == 2
    assert "error:" in capsys.readouterr().err

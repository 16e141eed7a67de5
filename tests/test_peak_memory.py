"""``tools/peak_memory.py``: each command's own peak resident set, read in
the process that ran it."""

import json
import os
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "tools"))

from peak_memory import STATUS, main  # noqa: E402


@pytest.mark.skipif(not os.path.exists(STATUS), reason=f"no {STATUS} on this system")
def test_train_and_eval_each_report_their_peak(capsys):
    assert main([os.path.join(ROOT, "src"), "--workload", "ingest-tiny", "--seed", "5",
                 "--smoke"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in lines[:2]] == [
        "ingest-tiny (seed 5) train", "ingest-tiny (seed 5) eval"]
    assert all(line.endswith("MB, exit 0") for line in lines[:2])
    result = json.loads(lines[-1])
    assert (result["workload"], result["seed"]) == ("ingest-tiny", 5)
    # a Python process that imports numpy holds more than 10 MB
    assert list(result["peak_mb"]) == ["train", "eval"]
    assert all(10 < mb < 1000 for mb in result["peak_mb"].values())


@pytest.mark.skipif(not os.path.exists(STATUS), reason=f"no {STATUS} on this system")
def test_a_failing_command_still_reports_and_exits_1(tmp_path, capsys):
    """A command that exits non-zero still has its peak read, and the
    tool exits 1."""
    (tmp_path / "labelbridge").mkdir()
    (tmp_path / "labelbridge" / "cli.py").write_text(
        "def main(argv):\n    raise SystemExit(3)\n", encoding="utf-8")
    assert main([str(tmp_path), "--workload", "ingest-tiny", "--seed", "5", "--smoke"]) == 1
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert all(mb > 0 for mb in result["peak_mb"].values())


def test_a_tree_without_the_package_exits_2(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main([str(tmp_path), "--workload", "ingest-tiny", "--seed", "5"])
    assert exc.value.code == 2
    assert "holds no labelbridge package" in capsys.readouterr().err

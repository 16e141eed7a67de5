"""The benchmark's own tests: `python3 -m pytest perfbench` from the repository root.

They run every workload at toy size and check that a corrupted output is
counted as a failed operation by the independent checks.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
import tracer  # noqa: E402


@pytest.fixture
def work(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "WORK", str(tmp_path / "runs"))
    return tmp_path


def _last_json(text: str) -> dict:
    return json.loads(text.strip().splitlines()[-1])


def test_smoke_every_workload_untraced(work, capsys):
    assert run.main(["--workload", "all", "--seed", "5", "--seconds", "1", "--smoke"]) == 0
    summary = _last_json(capsys.readouterr().out)
    assert summary["correct"] is True
    assert summary["failed"] == 0
    assert summary["attempted"] == 3 * 4      # 3 workloads x 2 rounds x train + eval
    for name in ("paper-c14", "labels-c256", "ingest-tiny"):
        for metric, unit in run.END_TO_END_UNITS.items():
            entry = summary["metrics"][f"{name}.{metric}"]
            assert entry["unit"] == unit and entry["value"] > 0


def test_smoke_every_workload_traced(work, capsys):
    assert run.main(["--workload", "all", "--seed", "6", "--seconds", "1", "--smoke",
                     "--trace", "1"]) == 0
    out = capsys.readouterr().out
    summary = _last_json(out)
    assert summary["correct"] is True
    assert summary["failed"] == 0
    names = set(tracer.layer_metrics({"spans": [], "counts": []}, [1]))
    assert len(names) == 25
    for workload in ("paper-c14", "labels-c256", "ingest-tiny"):
        assert {m for m in summary["metrics"] if m.startswith(workload + ".")} == \
            {f"{workload}.{m}" for m in names}
        assert f"# {workload} tracing overhead pipeline_s" in out
    assert summary["metrics"]["labels-c256.gcn.forward.calls"]["value"] > 0
    assert summary["metrics"]["ingest-tiny.jsonio.format_float.calls"]["value"] > 0


def _change_one_auc(eval_dir: str) -> None:
    path = os.path.join(eval_dir, "metrics.json")
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    label = next(l for l, a in doc["per_label_auc"].items() if a is not None)
    doc["per_label_auc"][label] = 1.0 - doc["per_label_auc"][label] / 2
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


def _drop_one_roc_row(eval_dir: str) -> None:
    path = os.path.join(eval_dir, "roc.csv")
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.readlines()
    del lines[3]
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(lines)


@pytest.mark.parametrize("tamper, reason", [(_change_one_auc, "per_label_auc["),
                                            (_drop_one_roc_row, "roc.csv")])
def test_corrupted_eval_output_is_a_failed_operation(work, capsys, tamper, reason):
    result = run.run_workload("ingest-tiny", seed=7, seconds=1, trace=False, smoke=True,
                              tamper=tamper)
    assert result["attempted"] == 4
    assert result["failed"] == 2              # both eval operations, neither train
    assert reason in capsys.readouterr().err


def test_without_the_program_sources_it_exits_nonzero(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "paper-c14",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""

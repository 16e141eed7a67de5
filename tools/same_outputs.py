"""Check that two source trees write byte-identical outputs, or that one
tree does at one BLAS thread and at several.

    python3 tools/same_outputs.py <parent-src> <change-src> [--seed N]
    python3 tools/same_outputs.py <src> --threads N [--seed N]
    python3 tools/same_outputs.py <src> --pin

Each tree argument is a directory that holds the `labelbridge` package (a
checkout's `src`). For every benchmark workload the inputs are made once
with `perfbench/workloads.generate` at the given seed. Then each tree in
turn runs `train`, `eval --top-k 3`, `report` and `sweep --axis delta`
(the other caller of `train`, which turns a diverged point into a row)
with that tree on PYTHONPATH, one BLAS thread, and the same input and
output paths, so the echoed paths match too. With `--threads N` the one
tree runs every command at one BLAS thread and then at N, which may not
exceed `os.cpu_count()`. On a workload with a label
file it also runs `build-graph`. On `paper-c14` and `labels-c256` it also
runs `train` with `--fine-tune-embeddings --gcn-final-linear`, which no
benchmark config sets, and `eval` on that checkpoint: `labels-c256` takes
the compact GCN product (dW included) and the image-side fusion, which
`paper-c14` never reaches. On `ingest-tiny` it also runs `build-graph`
and `train` over a columnar copy of the label file (header `Path,<labels>`,
0/1 cells), and `train` and `eval --top-k 3` over a copy whose label names
hold `%` (`roc.csv` formats each label's rows through a `%` template, so
an unescaped `%` in a name shows there). Each tree also runs `synth` once with
every synth flag over a config whose `synth` block some of the flags
override. The files each command writes, its stdout and its exit code are
compared byte for byte.
Every difference is printed, and the exit status is 1 if there is any.

With `--pin` the one tree runs the same commands over the smoke size of
every workload (`perfbench/workloads.smoke_version`) and synth at the seed,
at one BLAS thread, from a temp dir with relative paths, so no output
echoes where it ran. It writes one SHA-256 per output, with numpy's and
its BLAS's versions, to tests/golden_outputs.json, which tier-1 checks
(tests/test_golden_outputs.py). Re-pin only on purpose: a change that
alters outputs, or a new numpy or BLAS.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import numpy as np  # noqa: E402
from workloads import WORKLOADS, generate, smoke_version  # noqa: E402

# the pinned digests of every smoke output
GOLDEN = os.path.join(ROOT, "tests", "golden_outputs.json")


def thread_env(threads: int) -> dict:
    return {name: str(threads)
            for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}


# command -> the files it writes into its --out-dir
OUTPUTS = {
    "train": ["checkpoint.bin", "metrics.csv", "config.json"],
    "eval": ["metrics.json", "roc.csv", "topk.csv"],
    "report": ["metrics.json", "roc.csv", "topk.csv", "cooccurrence.csv"],
    "synth": ["labels.csv", "features.txt", "synth_spec.json"],
    "build-graph": ["graph.json"],
    "sweep": ["sweep.csv", "sweep.csv.config.json"],
}
# commands that take the path of their first output as --out, not --out-dir
OUT_FILE = ("build-graph", "sweep")
# the workloads that also train with the word embeddings fine-tuned
FINE_TUNE_WORKLOADS = ("paper-c14", "labels-c256")
# the workloads that also build a graph and train from a columnar label file,
# and train and evaluate on label names that hold "%"
COLUMNAR_WORKLOADS = ("ingest-tiny",)
# appended to the k-th label name, cycling, in the "%" copy of the label file
PERCENT_SUFFIXES = ["%", "%s", "%%", "%d%%", "%(x)s"]
# Every synth flag, with empty and padded --edges items. The config's synth
# block sets "n_samples" and 6 "base_rates", which the flags override; every
# flag's value shows in the echoed block, which is the resolved spec.
SYNTH_FLAGS = ["--num-labels", "5", "--feature-dim", "7", "--n-samples", "300",
               "--edges", " 0:1:0.8,,2:3:0.6 ,4:0:1, ",
               "--base-rates", "0.2,0.3,0.1,0.4,0.25", "--noise-sigma", "0.3"]


def workload_commands(name: str, inputs, out: str) -> dict:
    """{run name: arguments}: train, eval --top-k 3, report and a two-point
    delta sweep on generated workload inputs, build-graph if they include a
    label file, a fine-tuned train and its eval on FINE_TUNE_WORKLOADS, and
    build-graph and train from a columnar copy of the labels, and train
    and eval --top-k 3 on a copy whose label names hold "%", on
    COLUMNAR_WORKLOADS."""
    checkpoint = os.path.join(out, "train", "checkpoint.bin")
    commands = {
        "train": ["train", "--config", inputs.config_path],
        "eval": ["eval", "--checkpoint", checkpoint, "--top-k", "3"],
        "report": ["report", "--checkpoint", checkpoint],
        "sweep": ["sweep", "--config", inputs.config_path, "--axis", "delta",
                  "--values", "0.1,0.3"],
    }
    if "labels_path" in inputs.config:
        commands["build-graph"] = ["build-graph", "--config", inputs.config_path]
    if name in FINE_TUNE_WORKLOADS:
        commands["train-fine-tune"] = ["train", "--config", inputs.config_path,
                                       "--fine-tune-embeddings", "--gcn-final-linear"]
        commands["eval-fine-tune"] = [
            "eval", "--checkpoint", os.path.join(out, "train-fine-tune", "checkpoint.bin")]
    if name in COLUMNAR_WORKLOADS:
        columnar = ["--dataset-format", "columnar", "--labels-path", columnar_copy(inputs)]
        commands["build-graph-columnar"] = ["build-graph", "--config", inputs.config_path,
                                            *columnar]
        commands["train-columnar"] = ["train", "--config", inputs.config_path, *columnar]
        labels_path, vocab_path = percent_copy(inputs)
        commands["train-percent"] = ["train", "--config", inputs.config_path,
                                     "--labels-path", labels_path, "--vocab-file", vocab_path]
        commands["eval-percent"] = [
            "eval", "--checkpoint", os.path.join(out, "train-percent", "checkpoint.bin"),
            "--top-k", "3"]
    return commands


def percent_copy(inputs) -> tuple[str, str]:
    """Write the workload's pipe label file again beside it, with
    PERCENT_SUFFIXES appended to the label names, and the renamed names to a
    vocabulary file. Returns both paths."""
    labels = inputs.config["labels"]
    renamed = {label: label + PERCENT_SUFFIXES[k % len(PERCENT_SUFFIXES)]
               for k, label in enumerate(labels)}
    folder = os.path.dirname(inputs.config["labels_path"])
    path = os.path.join(folder, "labels_percent.csv")
    vocab_path = os.path.join(folder, "labels_percent.txt")
    with open(inputs.config["labels_path"], encoding="utf-8") as src, \
            open(path, "w", encoding="utf-8") as dst:
        for line in src:
            sample_id, field = line.rstrip("\n").split(",")
            names = [renamed.get(name, name) for name in field.split("|")]
            dst.write(f"{sample_id},{'|'.join(names)}\n")
    with open(vocab_path, "w", encoding="utf-8") as fh:
        fh.write("".join(name + "\n" for name in renamed.values()))
    return path, vocab_path


def columnar_copy(inputs) -> str:
    """Write the workload's pipe label file again in columnar format, beside
    it: header ``Path,<labels>``, then one 0/1 cell per label on each row.
    Returns the copy's path."""
    labels = inputs.config["labels"]
    path = os.path.join(os.path.dirname(inputs.config["labels_path"]), "labels_columnar.csv")
    with open(inputs.config["labels_path"], encoding="utf-8") as src, \
            open(path, "w", encoding="utf-8") as dst:
        dst.write(",".join(["Path", *labels]) + "\n")
        for line in src:
            sample_id, field = line.rstrip("\n").split(",")
            names = field.split("|")
            dst.write(",".join([sample_id] + ["1" if label in names else "0"
                                              for label in labels]) + "\n")
    return path


def synth_commands(seed: int, inputs: str) -> dict:
    """synth with every flag over a config file written into ``inputs``."""
    os.makedirs(inputs, exist_ok=True)
    config_path = os.path.join(inputs, "config.json")
    with open(config_path, "w", encoding="utf-8") as fh:
        json.dump({"labels": ["A", "B", "C", "D", "E"], "seed": seed,
                   "synth": {"n_samples": 50, "base_rates": [0.5] * 6}}, fh)
    return {"synth": ["synth", "--config", config_path, *SYNTH_FLAGS]}


def commands(name: str, seed: int, inputs: str, out: str, smoke: bool = False) -> dict:
    """{run name: arguments} for the workload ``name``, at its smoke size
    if ``smoke``, with its inputs made under ``inputs`` at ``seed``; or for
    "synth"."""
    if name == "synth":
        return synth_commands(seed, inputs)
    workload = smoke_version(WORKLOADS[name]) if smoke else WORKLOADS[name]
    return workload_commands(name, generate(workload, seed, inputs), out)


def run_tree(src: str, argv: dict, out: str, threads: int = 1) -> dict:
    """Run each command of ``argv`` ({run name: arguments, the first of
    which is the command}) with ``src`` on PYTHONPATH and ``threads`` BLAS
    threads, writing under ``out/<run name>``; returns
    {"<run name>/<file, stdout or exit>": bytes}."""
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src), **thread_env(threads))
    got = {}
    for run, args in argv.items():
        command, out_dir = args[0], os.path.join(out, run)
        out_args = (["--out", os.path.join(out_dir, OUTPUTS[command][0])]
                    if command in OUT_FILE else ["--out-dir", out_dir])
        proc = subprocess.run([sys.executable, "-m", "labelbridge.cli", *args, *out_args],
                              env=env, capture_output=True)
        got[f"{run}/exit"] = str(proc.returncode).encode()
        got[f"{run}/stdout"] = proc.stdout
        if proc.returncode != 0:
            sys.stderr.write(f"{src}: {run} exited {proc.returncode}: "
                             f"{proc.stderr.decode(errors='replace')}")
        for name in OUTPUTS[command]:
            got[f"{run}/{name}"] = read_bytes(os.path.join(out_dir, name))
    return got


def read_bytes(path: str) -> bytes | None:
    """The file's bytes, or None if there is no file."""
    if not os.path.exists(path):
        return None
    with open(path, "rb") as fh:
        return fh.read()


def compare(workload: str, parent: dict, change: dict,
            sides: tuple[str, str] = ("parent", "change")) -> int:
    """Print each output that differs, by its bytes or, as a str, by its
    SHA-256; returns how many do. A key that one side lacks is missing from
    that side, named by ``sides``."""
    differ = 0
    for key in {**parent, **change}:
        a, b = parent.get(key), change.get(key)
        if a == b:
            continue
        differ += 1
        if a is None or b is None:
            detail = f"missing from the {sides[a is not None]}"
        elif isinstance(a, str):
            detail = "SHA-256 differs"
        elif len(a) != len(b):
            detail = f"{len(a)} bytes vs {len(b)}"
        else:
            first = next(i for i, (x, y) in enumerate(zip(a, b)) if x != y)
            detail = f"first differs at byte {first} of {len(a)}"
        print(f"DIFF {workload} {key}: {detail}")
    return differ


def blas_versions() -> dict:
    """numpy's version and that of the BLAS it was built with: with one
    BLAS thread, these decide the outputs' bits."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__, "blas": f"{blas['name']} {blas['version']}"}


def smoke_digests(src: str, seed: int) -> dict:
    """{workload or "synth": {output: SHA-256 hex digest, or None where no
    file was written}} for ``src``'s runs over the smoke size of every
    workload at ``seed``, at one BLAS thread, from a temp dir with relative
    paths."""
    src, cwd, digests = os.path.abspath(src), os.getcwd(), {}
    with tempfile.TemporaryDirectory(prefix="golden_outputs_") as work:
        os.chdir(work)
        try:
            for name in [*WORKLOADS, "synth"]:
                out = os.path.join(name, "out")
                argv = commands(name, seed, os.path.join(name, "inputs"), out, smoke=True)
                digests[name] = {key: None if got is None else hashlib.sha256(got).hexdigest()
                                 for key, got in run_tree(src, argv, out).items()}
        finally:
            os.chdir(cwd)
    return digests


def version_mismatch(pinned: dict) -> str | None:
    """Why digests pinned under other numpy or BLAS versions cannot be
    checked here, naming both; None when the versions match."""
    here = blas_versions()
    if all(pinned.get(key) == value for key, value in here.items()):
        return None
    return (f"outputs pinned under numpy {pinned.get('numpy')} with {pinned.get('blas')}, "
            f"but this is numpy {here['numpy']} with {here['blas']}; re-pin on purpose "
            f"with tools/same_outputs.py src --pin")


def pin(src: str, seed: int) -> None:
    """Write ``src``'s smoke digests at ``seed``, and the versions they hold
    for, to GOLDEN."""
    golden = {"seed": seed, **blas_versions(), "outputs": smoke_digests(src, seed)}
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(golden, fh, indent=1)
        fh.write("\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent_src")
    parser.add_argument("change_src", nargs="?")
    parser.add_argument("--threads", type=int,
                        help="compare parent_src with itself at 1 and at this many BLAS "
                             "threads, instead of with change_src")
    parser.add_argument("--pin", action="store_true",
                        help="write parent_src's smoke digests to tests/golden_outputs.json")
    parser.add_argument("--seed", type=int, default=5)
    args = parser.parse_args(argv)
    if [args.change_src is not None, args.threads is not None, args.pin].count(True) != 1:
        parser.error("give one of change_src, --threads and --pin")
    if args.threads is not None and not 2 <= args.threads <= (os.cpu_count() or 1):
        parser.error(f"--threads must be from 2 to os.cpu_count() = {os.cpu_count()}")
    sides = ([(args.parent_src, 1)] if args.pin else
             [(args.parent_src, 1), (args.change_src, 1)] if args.threads is None
             else [(args.parent_src, 1), (args.parent_src, args.threads)])
    for src, _ in sides:
        if not os.path.isfile(os.path.join(src, "labelbridge", "cli.py")):
            parser.error(f"{src} holds no labelbridge package")
    if args.pin:
        pin(args.parent_src, args.seed)
        print(f"pinned {GOLDEN}")
        return 0
    total = 0
    with tempfile.TemporaryDirectory(prefix="same_outputs_") as work:
        for name in [*WORKLOADS, "synth"]:
            inputs = os.path.join(work, name, "inputs")
            out = os.path.join(work, name, "out")
            argv = commands(name, args.seed, inputs, out)
            runs = []
            for src, threads in sides:
                runs.append(run_tree(src, argv, out, threads))
                shutil.rmtree(out, ignore_errors=True)
            differ = compare(name, *runs)
            print(f"{name} (seed {args.seed}): {len(runs[0])} outputs compared, "
                  f"{differ} differ")
            total += differ
    print("no differences" if total == 0 else f"{total} outputs differ")
    return 1 if total else 0


if __name__ == "__main__":
    sys.exit(main())

"""Check that two source trees write byte-identical outputs, or that one
tree does at one BLAS thread and at several.

    python3 tools/same_outputs.py <parent-src> <change-src> [--seed N]
    python3 tools/same_outputs.py <src> --threads N [--seed N]

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
`paper-c14` never reaches. Each tree also runs `synth` once with
every synth flag over a config whose `synth` block some of the flags
override. The files each command writes, its stdout and its exit code are
compared byte for byte.
Every difference is printed, and the exit status is 1 if there is any.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

from workloads import WORKLOADS, generate  # noqa: E402



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
# Every synth flag, with empty and padded --edges items. The config's synth
# block sets "n_samples" and 6 "base_rates", which the flags override; every
# flag's value shows in the echoed block, which is the resolved spec.
SYNTH_FLAGS = ["--num-labels", "5", "--feature-dim", "7", "--n-samples", "300",
               "--edges", " 0:1:0.8,,2:3:0.6 ,4:0:1, ",
               "--base-rates", "0.2,0.3,0.1,0.4,0.25", "--noise-sigma", "0.3"]


def workload_commands(name: str, inputs, out: str) -> dict:
    """{run name: arguments}: train, eval --top-k 3, report and a two-point
    delta sweep on generated workload inputs, build-graph if they include a
    label file, and a fine-tuned train and its eval on FINE_TUNE_WORKLOADS."""
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
    return commands


def synth_commands(seed: int, inputs: str) -> dict:
    """synth with every flag over a config file written into ``inputs``."""
    os.makedirs(inputs, exist_ok=True)
    config_path = os.path.join(inputs, "config.json")
    with open(config_path, "w", encoding="utf-8") as fh:
        json.dump({"labels": ["A", "B", "C", "D", "E"], "seed": seed,
                   "synth": {"n_samples": 50, "base_rates": [0.5] * 6}}, fh)
    return {"synth": ["synth", "--config", config_path, *SYNTH_FLAGS]}


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
            path = os.path.join(out_dir, name)
            got[f"{run}/{name}"] = (open(path, "rb").read() if os.path.exists(path)
                                    else None)
    return got


def compare(workload: str, parent: dict, change: dict) -> int:
    """Print each output that differs; returns how many do."""
    differ = 0
    for key in parent:
        a, b = parent[key], change[key]
        if a == b:
            continue
        differ += 1
        if a is None or b is None:
            detail = f"missing from the {'parent' if a is None else 'change'}"
        elif len(a) != len(b):
            detail = f"{len(a)} bytes vs {len(b)}"
        else:
            first = next(i for i, (x, y) in enumerate(zip(a, b)) if x != y)
            detail = f"first differs at byte {first} of {len(a)}"
        print(f"DIFF {workload} {key}: {detail}")
    return differ


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent_src")
    parser.add_argument("change_src", nargs="?")
    parser.add_argument("--threads", type=int,
                        help="compare parent_src with itself at 1 and at this many BLAS "
                             "threads, instead of with change_src")
    parser.add_argument("--seed", type=int, default=5)
    args = parser.parse_args(argv)
    if (args.change_src is None) == (args.threads is None):
        parser.error("give either change_src or --threads")
    if args.threads is not None and not 2 <= args.threads <= (os.cpu_count() or 1):
        parser.error(f"--threads must be from 2 to os.cpu_count() = {os.cpu_count()}")
    sides = ([(args.parent_src, 1), (args.change_src, 1)] if args.threads is None
             else [(args.parent_src, 1), (args.parent_src, args.threads)])
    for src, _ in sides:
        if not os.path.isfile(os.path.join(src, "labelbridge", "cli.py")):
            parser.error(f"{src} holds no labelbridge package")
    total = 0
    with tempfile.TemporaryDirectory(prefix="same_outputs_") as work:
        for name in [*WORKLOADS, "synth"]:
            inputs = os.path.join(work, name, "inputs")
            out = os.path.join(work, name, "out")
            argv = (synth_commands(args.seed, inputs) if name == "synth" else
                    workload_commands(name, generate(WORKLOADS[name], args.seed, inputs),
                                      out))
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

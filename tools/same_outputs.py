"""Check that two source trees write byte-identical outputs.

    python3 tools/same_outputs.py <parent-src> <change-src> [--seed N]

Each argument is a directory that holds the `labelbridge` package (a
checkout's `src`). For every benchmark workload the inputs are made once
with `perfbench/workloads.generate` at the given seed. Then each tree in
turn runs `train`, `eval --top-k 3` and `report` with that tree on
PYTHONPATH, one BLAS thread, and the same input and output paths, so the
echoed paths match too. The files each command writes and its stdout are
compared byte for byte. Every difference is printed, and the exit status
is 1 if there is any.
"""

import argparse
import os
import shutil
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

from workloads import WORKLOADS, generate  # noqa: E402

THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
# command -> the files it writes into its --out-dir
OUTPUTS = {
    "train": ["checkpoint.bin", "metrics.csv", "config.json"],
    "eval": ["metrics.json", "roc.csv", "topk.csv"],
    "report": ["metrics.json", "roc.csv", "topk.csv", "cooccurrence.csv"],
}


def run_tree(src: str, config_path: str, out: str) -> dict:
    """Run the three commands with ``src`` on PYTHONPATH, writing under
    ``out``; returns {"<command>/<file or stdout>": bytes}."""
    checkpoint = os.path.join(out, "train", "checkpoint.bin")
    argv = {
        "train": ["train", "--config", config_path],
        "eval": ["eval", "--checkpoint", checkpoint, "--top-k", "3"],
        "report": ["report", "--checkpoint", checkpoint],
    }
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src), **THREAD_ENV)
    got = {}
    for command, args in argv.items():
        out_dir = os.path.join(out, command)
        proc = subprocess.run([sys.executable, "-m", "labelbridge.cli", *args,
                               "--out-dir", out_dir], env=env, capture_output=True)
        got[f"{command}/exit"] = str(proc.returncode).encode()
        got[f"{command}/stdout"] = proc.stdout
        if proc.returncode != 0:
            sys.stderr.write(f"{src}: {command} exited {proc.returncode}: "
                             f"{proc.stderr.decode(errors='replace')}")
        for name in OUTPUTS[command]:
            path = os.path.join(out_dir, name)
            got[f"{command}/{name}"] = (open(path, "rb").read() if os.path.exists(path)
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
    parser.add_argument("change_src")
    parser.add_argument("--seed", type=int, default=5)
    args = parser.parse_args(argv)
    for src in (args.parent_src, args.change_src):
        if not os.path.isfile(os.path.join(src, "labelbridge", "cli.py")):
            parser.error(f"{src} holds no labelbridge package")
    total = 0
    with tempfile.TemporaryDirectory(prefix="same_outputs_") as work:
        for name, workload in WORKLOADS.items():
            inputs = generate(workload, args.seed, os.path.join(work, name, "inputs"))
            out = os.path.join(work, name, "out")
            runs = []
            for src in (args.parent_src, args.change_src):
                runs.append(run_tree(src, inputs.config_path, out))
                shutil.rmtree(out)
            differ = compare(name, *runs)
            print(f"{name} (seed {args.seed}): {len(runs[0])} outputs compared, "
                  f"{differ} differ")
            total += differ
    print("no differences" if total == 0 else f"{total} outputs differ")
    return 1 if total else 0


if __name__ == "__main__":
    sys.exit(main())

"""Peak memory of one `train` and one `eval`, each in a process of its own.

    python3 tools/peak_memory.py <src> --workload paper-c14 --seed 61 [--smoke]

``src`` is a directory that holds the `labelbridge` package (a checkout's
`src`). The workload's inputs are made once with `perfbench/workloads.generate`
at the seed, in a temp dir. Then `train`, and `eval --top-k K` on its
checkpoint, run as `perfbench/run.py` runs them, each in a fresh Python
process with ``src`` on PYTHONPATH and one BLAS thread. Each process reads
its own `VmHWM` (peak resident set) from /proc/self/status as it exits, so
a command's peak is its own: not that of `perfbench/run.py`, whose imports
set the floor of its `peak_rss_mb`, nor an earlier command's. MB are 10^6
bytes, as in `peak_rss_mb`. One line per command, then one JSON object:
{"workload", "seed", "peak_mb": {"train", "eval"}}. The exit status is 1
if a command fails.
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

from same_outputs import thread_env  # noqa: E402
from workloads import WORKLOADS, generate, smoke_version  # noqa: E402

STATUS = "/proc/self/status"
# run in the measured process: the command, then, however it ends, its
# VmHWM (kB) into the file argv[1]
CHILD = """
import sys
from labelbridge.cli import main
try:
    sys.exit(main(sys.argv[2:]))
finally:
    with open("/proc/self/status", encoding="ascii") as fh:
        kb = next(line.split()[1] for line in fh if line.startswith("VmHWM:"))
    with open(sys.argv[1], "w", encoding="ascii") as fh:
        fh.write(kb)
"""


def peak_mb(src: str, argv: list, work: str) -> tuple[int, float]:
    """(exit code, VmHWM in MB) of one command run by ``src`` in a fresh
    process at one BLAS thread."""
    hwm_path = os.path.join(work, f"{argv[0]}.vmhwm")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src), **thread_env(1))
    proc = subprocess.run([sys.executable, "-c", CHILD, hwm_path, *argv], env=env,
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
    if proc.returncode != 0:
        sys.stderr.write(f"{argv[0]} exited {proc.returncode}: "
                         f"{proc.stderr.decode(errors='replace')}")
    with open(hwm_path, encoding="ascii") as fh:
        return proc.returncode, int(fh.read()) * 1024 / 1e6


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("src")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--smoke", action="store_true",
                        help="the workload at its toy size, as perfbench's own tests run it")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(args.src, "labelbridge", "cli.py")):
        parser.error(f"{args.src} holds no labelbridge package")
    if not os.path.exists(STATUS):
        parser.error(f"{STATUS} is missing, so there is no VmHWM to read")
    workload = WORKLOADS[args.workload]
    if args.smoke:
        workload = smoke_version(workload)
    peaks, failed = {}, False
    with tempfile.TemporaryDirectory(prefix="peak_memory_") as work:
        inputs = generate(workload, args.seed, os.path.join(work, "inputs"))
        train_dir, eval_dir = os.path.join(work, "train"), os.path.join(work, "eval")
        commands = {
            "train": ["train", "--config", inputs.config_path, "--out-dir", train_dir],
            "eval": ["eval", "--checkpoint", os.path.join(train_dir, "checkpoint.bin"),
                     "--out-dir", eval_dir, "--top-k", str(workload.top_k)],
        }
        for command, command_argv in commands.items():
            code, peaks[command] = peak_mb(args.src, command_argv, work)
            failed |= code != 0
            print(f"{args.workload} (seed {args.seed}) {command}: VmHWM "
                  f"{peaks[command]:.2f} MB, exit {code}")
    print(json.dumps({"workload": args.workload, "seed": args.seed, "peak_mb": peaks}))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

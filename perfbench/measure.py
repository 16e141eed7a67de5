"""The measured process: repeats of `labelbridge train` then `labelbridge eval`.

Run as `python3 measure.py <job.json>` in a fresh process with
OPENBLAS_NUM_THREADS=1 and OMP_NUM_THREADS=1, and with the program's `src`
directory on PYTHONPATH. Each command runs in-process through
`labelbridge.cli.main`. Round 0 is an untimed warm-up; rounds continue while
another one fits in the job's time budget, and at least `min_rounds` run.

`labelbridge.cli.train` is wrapped to take two timestamps, on entry to and
exit from `train()`, which split the train command into set-up and training.
With tracing on, the tracer's spans are installed first.

Writes the job's result file: per operation its exit code, wall time and
output hashes, and the process's peak resident set.
"""

import hashlib
import json
import os
import resource
import sys
import time
import traceback

import labelbridge.cli


def sha256_file(path: str) -> str | None:
    if not os.path.exists(path):
        return None
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def _install_train_clock(marks: dict) -> None:
    inner = labelbridge.cli.train

    def timed_train(config, bundle, *args):
        marks["enter"] = time.perf_counter()
        marks["n_train"] = len(bundle.train_samples)
        marks["epochs"] = config.epochs
        try:
            return inner(config, bundle, *args)
        finally:
            marks["exit"] = time.perf_counter()
    labelbridge.cli.train = timed_train


def run(job: dict) -> dict:
    tracer = None
    if job["trace"]:
        from tracer import Tracer
        tracer = Tracer(job["workload"])
        tracer.install()
    marks: dict = {}
    _install_train_clock(marks)

    deadline = time.perf_counter() + job["seconds"]
    ops = []
    rounds = 0
    while True:
        start = time.perf_counter()
        if tracer is not None:
            tracer.repeat = rounds
        for cmd in ("train", "eval"):
            marks.clear()
            op = {"round": rounds, "cmd": cmd, "code": None, "error": None}
            t0 = time.perf_counter()
            try:
                if tracer is None:
                    op["code"] = labelbridge.cli.main(job["argv"][cmd])
                else:
                    op["code"] = tracer.command(labelbridge.cli.main, job["argv"][cmd])
            except SystemExit as exc:
                op["code"] = exc.code if isinstance(exc.code, int) else 2
            except Exception:  # an uncaught program fault fails this operation only
                op["code"] = -1
                op["error"] = traceback.format_exc(limit=-3)
            t1 = time.perf_counter()
            op["wall_s"] = t1 - t0
            if cmd == "train" and "exit" in marks:
                op["setup_s"] = marks["enter"] - t0
                op["train_s"] = marks["exit"] - marks["enter"]
                op["samples"] = marks["n_train"] * marks["epochs"]
            op["hashes"] = {name: sha256_file(os.path.join(job["out_dirs"][cmd], name))
                            for name in job["outputs"][cmd]}
            ops.append(op)
        rounds += 1
        took = time.perf_counter() - start
        if rounds >= job["max_rounds"]:
            break
        if rounds >= job["min_rounds"] and time.perf_counter() + took > deadline:
            break
    if tracer is not None:
        tracer.write(job["trace_path"])
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {"ops": ops, "rounds": rounds, "peak_rss_mb": peak_kb * 1024 / 1e6}


def main(job_path: str) -> int:
    with open(job_path, "r", encoding="utf-8") as fh:
        job = json.load(fh)
    result = run(job)
    with open(job["result_path"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))

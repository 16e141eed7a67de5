"""Benchmark of labelbridge's train -> eval pipeline.

    python3 perfbench/run.py --workload paper-c14 --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

Run from the repository root. For each workload it generates the inputs from
the seed, starts one fresh measured process (perfbench/measure.py, pinned to
one BLAS/OpenMP thread) that repeats `labelbridge train` and `labelbridge
eval` back to back for `--seconds`, then checks the outputs apart from the
program (perfbench/checks.py) and prints the end-to-end metrics. With
`--trace 1` the time is split between an untraced and a traced process; the
per-layer metrics come from the traced one, and both processes' outputs must
be byte-identical. The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_runs")
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(THREAD_ENV)
sys.path.insert(0, SRC)

END_TO_END_UNITS = {
    "setup_s": "s", "train_samples_per_s": "samples/s", "eval_s": "s",
    "pipeline_s": "s", "peak_rss_mb": "MB", "checkpoint_mb": "MB",
    "test_mean_auc": "auc",
}
# Share of the time budget given to the untraced process in a traced run.
UNTRACED_SHARE = 0.4


def measure(job: dict, tag: str) -> dict:
    """Run one fresh measured process and return its result."""
    job_path = os.path.join(job["work"], f"{tag}.job.json")
    with open(job_path, "w", encoding="utf-8") as fh:
        json.dump(job, fh)
    env = dict(os.environ, PYTHONPATH=SRC + os.pathsep + HERE, **THREAD_ENV)
    with open(os.path.join(job["work"], f"{tag}.log"), "w", encoding="utf-8") as log:
        proc = subprocess.run([sys.executable, os.path.join(HERE, "measure.py"), job_path],
                              env=env, stdout=log, stderr=subprocess.STDOUT,
                              timeout=job["seconds"] + 60)
    if proc.returncode != 0:
        raise RuntimeError(f"measured process exited with {proc.returncode}; "
                           f"see {job['work']}/{tag}.log")
    with open(job["result_path"], "r", encoding="utf-8") as fh:
        return json.load(fh)


def make_job(workload, inputs, work: str, tag: str, seconds: float, smoke: bool,
             trace: bool) -> dict:
    from checks import EVAL_OUTPUTS, TRAIN_OUTPUTS
    out = {cmd: os.path.join(work, tag, cmd) for cmd in ("train", "eval")}
    return {
        "workload": workload.name, "work": work, "seconds": seconds, "trace": trace,
        "result_path": os.path.join(work, f"{tag}.result.json"),
        "trace_path": os.path.join(work, f"{tag}.spans.json"),
        "min_rounds": 2, "max_rounds": 2 if smoke else 1000,
        "out_dirs": out,
        "outputs": {"train": TRAIN_OUTPUTS, "eval": EVAL_OUTPUTS},
        "argv": {
            "train": ["train", "--config", inputs.config_path, "--out-dir", out["train"]],
            "eval": ["eval", "--checkpoint", os.path.join(out["train"], "checkpoint.bin"),
                     "--out-dir", out["eval"], "--top-k", str(workload.top_k)],
        },
    }


def verify(job: dict, workload, inputs, result: dict) -> tuple[int, float | None]:
    """Count the failed operations of one measured process.

    The last round's files are checked in full; every operation must have
    exited 0 and written files byte-identical to those checked files.
    Returns (failed, verified test mean AUC).
    """
    import checks
    from measure import sha256_file
    dirs = job["out_dirs"]
    problems, mean_auc = {}, None
    for cmd in ("train", "eval"):
        try:
            if cmd == "train":
                problems[cmd] = checks.check_train(dirs["train"], workload.epochs)
            else:
                problems[cmd], mean_auc = checks.check_eval(
                    dirs["train"], dirs["eval"], inputs.config, workload.top_k,
                    workload.auc_floor)
        except Exception as exc:  # malformed outputs fail the check, not the benchmark
            problems[cmd] = [f"check raised {exc!r}"]
    reference = {cmd: {name: sha256_file(os.path.join(dirs[cmd], name))
                       for name in job["outputs"][cmd]} for cmd in dirs}
    failed = 0
    for op in result["ops"]:
        why = []
        if op["code"] != 0:
            why.append(f"exit code {op['code']} {op['error'] or ''}".strip())
        elif problems[op["cmd"]]:
            why += problems[op["cmd"]]
        elif op["hashes"] != reference[op["cmd"]]:
            why.append("outputs differ from the checked outputs")
        op["problems"] = why
        failed += bool(why)
    for op in result["ops"]:
        if op["problems"]:
            print(f"# failed: {workload.name} round {op['round']} {op['cmd']}: "
                  f"{op['problems'][0]}", file=sys.stderr)
    return failed, mean_auc


def end_to_end(result: dict, job: dict, mean_auc: float | None) -> dict:
    """Medians over the timed rounds (all but the warm-up) whose two operations passed."""
    by_round: dict[int, dict] = {}
    for op in result["ops"]:
        by_round.setdefault(op["round"], {})[op["cmd"]] = op
    timed = [r for n, r in sorted(by_round.items())
             if n > 0 and all(not r[c]["problems"] for c in ("train", "eval"))]
    if not timed:
        return {}
    med = statistics.median
    ckpt = os.path.join(job["out_dirs"]["train"], "checkpoint.bin")
    values = {
        "setup_s": med(r["train"]["setup_s"] for r in timed),
        "train_samples_per_s": med(r["train"]["samples"] / r["train"]["train_s"]
                                   for r in timed),
        "eval_s": med(r["eval"]["wall_s"] for r in timed),
        "pipeline_s": med(r["train"]["wall_s"] + r["eval"]["wall_s"] for r in timed),
        "peak_rss_mb": result["peak_rss_mb"],
        "checkpoint_mb": os.path.getsize(ckpt) / 1e6,
        "test_mean_auc": mean_auc,
    }
    values["rounds"] = len(timed)
    return values


def run_workload(name: str, seed: int, seconds: float, trace: bool, smoke: bool = False,
                 tamper=None) -> dict:
    """Measure and check one workload; returns the result object to print.

    `tamper`, if given, is called with the eval output directory before the
    checks run (the benchmark's tests use it to corrupt an output).
    """
    import workloads
    workload = workloads.WORKLOADS[name]
    if smoke:
        workload = workloads.smoke_version(workload)
    work = os.path.join(WORK, name)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    inputs = workloads.generate(workload, seed, os.path.join(work, "inputs"))

    tags = [("untraced", seconds * (UNTRACED_SHARE if trace else 1.0), False)]
    if trace:
        tags.append(("traced", seconds * (1 - UNTRACED_SHARE), True))
    runs = {}
    for tag, budget, traced in tags:
        job = make_job(workload, inputs, work, tag, budget, smoke, traced)
        result = measure(job, tag)
        if tamper is not None:
            tamper(job["out_dirs"]["eval"])
        failed, mean_auc = verify(job, workload, inputs, result)
        runs[tag] = (job, result, failed, end_to_end(result, job, mean_auc))

    attempted = sum(len(r[1]["ops"]) for r in runs.values())
    failed = sum(r[2] for r in runs.values())
    job, result, _, e2e = runs["untraced"]
    correct = bool(e2e) and e2e["test_mean_auc"] is not None
    for tag, (_, res, _, values) in runs.items():
        shown = "  ".join(f"{k}={values[k]:.6g} {END_TO_END_UNITS[k]}"
                          for k in END_TO_END_UNITS if values.get(k) is not None)
        print(f"# {name} seed {seed} {tag}: {values.get('rounds', 0)} timed rounds  {shown}")
    if not trace:
        metrics = {k: {"value": e2e[k], "unit": u} for k, u in END_TO_END_UNITS.items()} \
            if correct else {}
        return {"correct": correct, "attempted": attempted, "failed": failed,
                "metrics": metrics}

    import tracer
    tjob, tresult, _, traced_e2e = runs["traced"]
    with open(tjob["trace_path"], "r", encoding="utf-8") as fh:
        trace_doc = json.load(fh)
    timed = list(range(1, tresult["rounds"]))
    correct = correct and bool(traced_e2e)
    for a, b in zip(result["ops"][-2:], tresult["ops"][-2:]):
        if a["hashes"] != b["hashes"]:
            print(f"# {name}: traced {a['cmd']} outputs differ from untraced ones",
                  file=sys.stderr)
            correct = False
    for self_sum, op in zip(tracer.command_self_sums(trace_doc), tresult["ops"]):
        if self_sum > op["wall_s"]:
            print(f"# {name}: round {op['round']} {op['cmd']}: layer self times "
                  f"{self_sum:.6f} s exceed the command's wall time {op['wall_s']:.6f} s",
                  file=sys.stderr)
            correct = False
    if correct:
        for key in ("setup_s", "eval_s", "pipeline_s"):
            print(f"# {name} tracing overhead {key}: {e2e[key]:.4f} -> "
                  f"{traced_e2e[key]:.4f} s ({100 * (traced_e2e[key] / e2e[key] - 1):+.1f}%)")
    metrics = {k: {"value": v, "unit": u}
               for k, (v, u) in tracer.layer_metrics(trace_doc, timed).items()} \
        if correct and timed else {}
    return {"correct": correct and bool(metrics), "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        help="workload name, or 'all' to run every workload in turn")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run the workloads at toy size, one timed round each")
    args = parser.parse_args(argv)

    if not os.path.exists(os.path.join(SRC, "labelbridge", "cli.py")):
        print(f"error: the labelbridge sources are not under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, HERE)
    import workloads
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    if any(n not in workloads.WORKLOADS for n in names):
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)} or all", file=sys.stderr)
        return 2
    start = time.perf_counter()
    results = {n: run_workload(n, args.seed, args.seconds, bool(args.trace), args.smoke)
               for n in names}
    if len(names) == 1:
        summary = results[names[0]]
    else:
        for n, res in results.items():
            print(f"# {n}: " + json.dumps(res))
        summary = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": v for n, r in results.items()
                        for k, v in r["metrics"].items()},
        }
    print(f"# wall {time.perf_counter() - start:.1f} s", file=sys.stderr)
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""swekit benchmark: time the job a user runs, one fresh process per repetition.

    python3 perfbench/run.py --workload <name|all> --seed <n> \
        --seconds <s> --trace <0|1>

Run from anywhere; the package is taken from `src/` beside this
directory. For one workload it generates the inputs from the seed (no
timer running), then starts repetitions of perfbench/job.py, each in
its own interpreter, until the time budget is spent. Every repetition
passes the correctness gate or counts as failed. It prints each metric
by name with its median, quartiles, sample count and unit, a detail
line, and as its last line one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones, from untraced
repetitions. With --trace 1 untraced and traced repetitions alternate
and the metrics are the per-layer ones, medians over the traced
repetitions. Exit code 0 means every repetition passed, 1 that one
failed, 2 that the package or its inputs could not be found.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

from tracer import LAYER_UNITS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
JOB = os.path.join(HERE, "job.py")

# End-to-end metrics: (name, unit), medians over untraced repetitions.
END_TO_END = (
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("sim_s", "s"),
    ("output_s", "s"),
    ("mcell_steps_per_s", "Mcell-steps/s"),
    ("peak_rss_mb", "MiB"),
)
MIN_REPS = 3
REP_TIMEOUT_S = 150


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    env.update(PYTHONHASHSEED="0", OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    return env


def run_rep(in_dir, out_dir, traced):
    """One repetition in a fresh interpreter; returns its record."""
    cmd = [sys.executable, JOB, in_dir, out_dir] + (["--trace"] if traced
                                                    else [])
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              env=child_env(), timeout=REP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"traced": traced,
                "failure": [f"timed out after {REP_TIMEOUT_S} s"]}
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    try:
        record = json.loads(lines[-1])
    except (IndexError, ValueError):
        tail = proc.stderr.strip().splitlines()[-3:]
        return {"traced": traced,
                "failure": [f"exit {proc.returncode}: " + " | ".join(tail)]}
    if proc.returncode != 0 and not record.get("failure"):
        record["failure"] = [f"exit {proc.returncode}"]
    return record


def measure(in_dir, run_dir, seconds, trace):
    """Repetitions until the budget is spent; the list of records."""
    deadline = time.monotonic() + seconds
    min_reps = 2 * MIN_REPS if trace else MIN_REPS
    records = []
    longest = 0.0
    while len(records) < min_reps or time.monotonic() + longest <= deadline:
        traced = trace and len(records) % 2 == 1
        start = time.monotonic()
        records.append(run_rep(in_dir, os.path.join(run_dir, "out"), traced))
        longest = max(longest, time.monotonic() - start)
    return records


def summarise(name, seed, records, trace, inputs_sha):
    """Print the report for one workload; return the result object."""
    good = [r for r in records if not r["failure"]]
    failed = len(records) - len(good)
    plain = [r for r in good if not r["traced"]]
    traced = [r for r in good if r["traced"]]
    problems = [f for r in records for f in r["failure"]]
    steps = sorted({r["steps"] for r in good})
    hashes = sorted({r["final_sha256"] for r in good})
    if len(steps) > 1 or len(hashes) > 1:
        problems.append("repetitions of one seed disagree on steps or the "
                        "final state")
    if not plain or (trace and not traced):
        problems.append("no passing repetition to measure")

    rows = []
    if trace:
        names = sorted(traced[0]["layers"]) if traced else []
        for metric in names:
            rows.append((metric, [r["layers"][metric] for r in traced],
                         LAYER_UNITS[metric]))
        if traced and plain:
            untraced = statistics.median(r["sim_s"] for r in plain)
            overhead = [100.0 * (r["sim_s"] / untraced - 1.0) for r in traced]
            rows.append(("trace.overhead_pct", overhead, "%"))
    else:
        for metric, unit in END_TO_END:
            rows.append((metric, [r[metric] for r in plain], unit))

    print(f"workload {name}  seed {seed}  repetitions {len(records)} "
          f"({len(plain)} untraced, {len(traced)} traced passing)  "
          f"fail_rate {failed / len(records):.3g}")
    metrics = {}
    for metric, values, unit in rows:
        if not values:
            continue
        q1, med, q3 = quartiles(values)
        metrics[metric] = {"value": med, "unit": unit}
        print(f"  {metric:38s} {med:14.6g} {unit:14s} "
              f"q1 {q1:.6g}  q3 {q3:.6g}  n {len(values)}")
    errors = sorted({r["err_l1_h"] for r in good if "err_l1_h" in r})
    for problem in problems:
        print(f"  FAIL {problem}")
    detail = {
        "workload": name, "seed": seed, "inputs_sha256": inputs_sha,
        "steps": steps, "final_sha256": hashes,
        "err_l1_h_m": errors, "fail_rate": failed / len(records),
        "minor_faults_per_step": [r["minor_faults_per_step"] for r in good],
    }
    print("detail " + json.dumps(detail))
    return {"correct": not problems, "attempted": len(records),
            "failed": failed, "metrics": metrics}


def run_workload(name, seed, seconds, trace):
    import workloads

    run_dir = os.path.join(WORK, f"{name}-{seed}-{os.getpid()}")
    shutil.rmtree(run_dir, ignore_errors=True)
    try:
        in_dir = os.path.join(run_dir, "inputs")
        workloads.generate(name, seed, in_dir)
        inputs_sha = workloads.inputs_sha256(in_dir)
        records = measure(in_dir, run_dir, seconds, trace)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    return summarise(name, seed, records, trace, inputs_sha)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("channel_1d", "bowl_2d", "plot_rain_2d",
                                 "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "swekit", "__init__.py")):
        print(f"perfbench: no swekit package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import workloads

    names = workloads.WORKLOADS if args.workload == "all" \
        else (args.workload,)
    results = [run_workload(name, args.seed, args.seconds, bool(args.trace))
               for name in names]
    for result in results:
        print(json.dumps(result))
    return 0 if all(r["correct"] and not r["failed"] for r in results) else 1


if __name__ == "__main__":
    # On SIGTERM, unwind so subprocess.run kills and reaps the current job.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    sys.exit(main())

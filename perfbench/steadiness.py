"""Steadiness report: is the benchmark repeatable enough to judge a change?

    python3 perfbench/steadiness.py [--workloads W ...] [--seeds 10]
                                    [--first-seed 1] [--seconds S]

Runs perfbench/run.py once per seed and workload with tracing off, as
the acceptance check does, and prints for every end-to-end metric the
median, quartiles and spread (q3 - q1) / median of the per-run
medians, against the metric's bound in BENCHMARK.json. A spread within
a third of the bound is steady. It also checks that inputs depend only
on the seed: one seed generates byte-identical files twice, runs with
the same inputs agree on steps and final-state hash, and plot_rain_2d
seeds give distinct DEMs of one shape. Exit code 0 means every check
passed and every spread is within its bound.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".perfbench_work")


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


def one_run(workload, seed, seconds):
    """(result, detail) of one run.py invocation."""
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "0"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=180)
    lines = proc.stdout.strip().splitlines()
    detail = next((json.loads(ln[len("detail "):]) for ln in lines
                   if ln.startswith("detail ")), {})
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = {"correct": False, "attempted": 0, "failed": 1,
                  "metrics": {}, "error": proc.stderr.strip()[-400:]}
    return result, detail


def input_checks(seed):
    """Inputs depend only on the seed; plot DEMs differ by seed only."""
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import workloads

    problems = []
    base = os.path.join(WORK, f"steadiness-{os.getpid()}")
    try:
        for name in workloads.WORKLOADS:
            shas = []
            for copy in ("a", "b"):
                directory = os.path.join(base, f"{name}-{copy}")
                workloads.generate(name, seed, directory)
                shas.append(workloads.inputs_sha256(directory))
            if shas[0] != shas[1]:
                problems.append(f"{name}: seed {seed} gave different inputs")
    finally:
        shutil.rmtree(base, ignore_errors=True)
    dem_a = workloads.plot_dem(seed, 128)
    dem_b = workloads.plot_dem(seed + 1, 128)
    if dem_a.shape != dem_b.shape or (dem_a == dem_b).all():
        problems.append("plot_rain_2d: seeds do not give distinct DEMs of "
                        "one shape")
    return problems


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3, (q3 - q1) / med


def main(argv=None):
    bench = load_benchmark()
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", choices=names,
                        default=names)
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        default=bench["run_seconds"])
    args = parser.parse_args(argv)

    problems = input_checks(args.first_seed)
    seeds = range(args.first_seed, args.first_seed + args.seeds)
    report = {}
    for workload in args.workloads:
        runs = []
        for seed in seeds:
            result, detail = one_run(workload, seed, args.seconds)
            runs.append((result, detail))
            if not result["correct"] or result["failed"]:
                problems.append(f"{workload} seed {seed}: run failed "
                                f"{result.get('error', '')}")
        by_inputs = {}
        for _, detail in runs:
            key = detail.get("inputs_sha256")
            seen = (tuple(detail.get("steps", ())),
                    tuple(detail.get("final_sha256", ())))
            if by_inputs.setdefault(key, seen) != seen:
                problems.append(f"{workload}: runs with identical inputs "
                                "disagree on steps or final state")
        print(f"{workload}: {len(runs)} runs, "
              f"{len(by_inputs)} distinct input sets")
        report[workload] = {}
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            values = [r["metrics"][name]["value"] for r, _ in runs
                      if name in r["metrics"]]
            if len(values) < 2:
                problems.append(f"{workload} {name}: fewer than 2 values")
                continue
            q1, med, q3, rel = spread(values)
            verdict = "steady" if rel < bound / 3 else (
                "within bound" if rel <= bound else "TOO WIDE")
            if rel > bound:
                problems.append(f"{workload} {name}: spread {rel:.3f} > "
                                f"bound {bound}")
            report[workload][name] = {"median": med, "q1": q1, "q3": q3,
                                      "spread": rel, "bound": bound,
                                      "runs": values}
            print(f"  {name:20s} median {med:12.6g} {metric['unit']:14s} "
                  f"q1 {q1:.6g}  q3 {q3:.6g}  spread {rel:.4f}  "
                  f"bound {bound}  {verdict}")
            print("    runs " + " ".join(f"{v:.4g}" for v in values))
    for problem in problems:
        print(f"FAIL {problem}")
    print(json.dumps({"ok": not problems, "spreads": report}))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())

"""Tests of the benchmark itself, at the tiny size so they run fast.

    python -m pytest perfbench/tests -q
"""

import inspect
import json
import os
import re
import shutil
import subprocess
import sys
from types import SimpleNamespace

import numpy as np
import pytest

BENCH_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH_DIR)
sys.path[:0] = [BENCH_DIR, os.path.join(ROOT, "src")]

import job  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    base = tmp_path_factory.mktemp("inputs")
    dirs = {}
    for name in workloads.WORKLOADS:
        dirs[name] = str(base / name)
        workloads.generate(name, 7, dirs[name], size="tiny")
    return dirs


def test_names_use_only_allowed_characters():
    bench = load_benchmark()
    declared = [w["name"] for w in bench["workloads"]]
    declared += [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
    assert len(set(declared)) == len(declared)
    names = declared + list(workloads.WORKLOADS) + list(tracer.LAYER_UNITS)
    names += [name for name, _ in run.END_TO_END]
    assert [n for n in names if not NAME.match(n)] == []


def test_benchmark_json_matches_the_code():
    bench = load_benchmark()
    assert [w["name"] for w in bench["workloads"]] \
        == list(workloads.BENCHMARKED)
    assert all(workloads.WHY[w["name"]] == w["why"]
               for w in bench["workloads"])
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] \
        == list(run.END_TO_END)
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} \
        == tracer.LAYER_UNITS
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_each_workload_passes_its_gate(inputs, name, tmp_path):
    record = job.run_job(inputs[name], str(tmp_path / "out"))
    assert record["failure"] == []
    assert record["steps"] > 0
    assert record["sim_s"] > 0.0
    assert len(record["final_sha256"]) == 64
    assert ("err_l1_h" in record) == (name != "plot_rain_2d")


def test_gate_limits_are_the_solvers_own():
    from swekit import timeloop, validate

    assert "rel > 1e-8" in inspect.getsource(timeloop.run_simulation)
    thacker = inspect.getsource(validate._check_thacker)
    assert '"vol_drift"], 1e-10' in thacker
    assert "1.2 * params.h0" in thacker
    assert workloads.RESIDUAL_REL_LIMIT == 1e-8
    assert workloads.THACKER_DRIFT_LIMIT == 1e-10
    assert workloads.THACKER_HMAX_FACTOR == 1.2


def test_gate_rejects_a_bad_run():
    row = SimpleNamespace(residual_rel=2e-8)
    bad = SimpleNamespace(h=np.array([0.1, -1e-3]))
    result = SimpleNamespace(mass_balance=[row], snapshots=[(1.0, bad)])
    monitor = SimpleNamespace(drift=1e-9, h_max=0.5)
    spec = {"residual_rel_limit": 1e-8, "drift_limit": 1e-10,
            "h_max_limit": 0.12}
    reasons = job.gate(spec, result, monitor)
    assert len(reasons) == 4


def _bound_attributes():
    from swekit import config, fileio, timeloop

    modules = {"config": config, "fileio": fileio, "timeloop": timeloop}
    names = [(timeloop, n) for n in tracer.TIMELOOP_NAMES]
    names += [(config, n) for n in tracer.CONFIG_NAMES]
    names += [(modules[m], n) for m, n in tracer.JOB_NAMES]
    return {(obj.__name__, n): getattr(obj, n) for obj, n in names}, \
        dict(timeloop.FLUX_FUNCTIONS)


def test_traced_run_restores_everything(inputs, tmp_path):
    before = _bound_attributes()
    record = job.run_job(inputs["plot_rain_2d"], str(tmp_path / "out"),
                         traced=True)
    assert record["failure"] == []
    after = _bound_attributes()
    assert all(after[0][k] is v for k, v in before[0].items())
    assert all(after[1][k] is v for k, v in before[1].items())
    assert after[1].keys() == before[1].keys()

    t = tracer.Tracer()
    with pytest.raises(RuntimeError):
        with t.installed():
            raise RuntimeError("stop")
    after = _bound_attributes()
    assert all(after[0][k] is v for k, v in before[0].items())
    assert all(after[1][k] is v for k, v in before[1].items())


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_self_times_add_up_to_the_traced_sim(inputs, name, tmp_path):
    record = job.run_job(inputs[name], str(tmp_path / "out"), traced=True)
    spans = record["spans"]
    sim_calls, sim_total, sim_self = spans[tracer.SIM_SPAN]
    assert sim_calls == 1
    inner = sum(self_time for span, (_, _, self_time) in spans.items()
                if span.split(".")[0] in tracer.SIM_LAYERS
                and span != tracer.SIM_SPAN)
    assert inner + sim_self == pytest.approx(sim_total, rel=1e-9)
    assert record["sim_s"] == sim_total
    layers = record["layers"]
    shares = sum(layers[f"{layer}.share"] for layer in tracer.SIM_LAYERS)
    assert shares == pytest.approx(1.0, rel=1e-9)
    assert set(layers) == set(tracer.LAYER_UNITS) - {"trace.overhead_pct"}
    assert layers["timeloop.steps"] == record["steps"]
    assert layers["timeloop.calls_per_step"] == pytest.approx(2.0)


def test_inputs_depend_only_on_the_seed(tmp_path):
    shas = {}
    for label, seed in (("a", 3), ("b", 3), ("c", 4)):
        directory = str(tmp_path / label)
        workloads.generate("plot_rain_2d", seed, directory, size="tiny")
        shas[label] = workloads.inputs_sha256(directory)
    assert shas["a"] == shas["b"] != shas["c"]
    dem_3, dem_4 = workloads.plot_dem(3, 16), workloads.plot_dem(4, 16)
    assert dem_3.shape == dem_4.shape == (16, 16)
    assert not np.array_equal(dem_3, dem_4)


def test_run_prints_every_metric_and_the_result_last(capsys, monkeypatch):
    monkeypatch.setitem(workloads.SIZES, "full", workloads.SIZES["tiny"])
    assert run.main(["--workload", "bowl_2d", "--seed", "1", "--seconds",
                     "0", "--trace", "1"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == 2 * run.MIN_REPS
    assert set(result["metrics"]) == set(tracer.LAYER_UNITS)
    for metric, entry in result["metrics"].items():
        assert entry["unit"] == tracer.LAYER_UNITS[metric]


def test_fails_without_the_package(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "channel_1d",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"})
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout

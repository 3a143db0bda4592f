"""One repetition of a workload: the job a user runs, in a fresh process.

    python3 perfbench/job.py <input dir> <output dir> [--trace]

Times `import swekit` plus `parse_parameter_file` (setup), then
`run_simulation` (sim), then one profile per snapshot plus the mass
report (output), the way `swekit run` writes them. It then applies the
correctness gate and prints one JSON line. The input directory comes
from workloads.generate; the caller makes sure `swekit` is importable.
Exit code 0 means the gate passed, 1 that it failed.
"""

import json
import os
import resource
import sys
import time
from contextlib import nullcontext

# numpy and swekit are imported inside the timed set-up, never up here.


class BowlMonitor:
    """validate's Thacker gate: relative volume drift and peak depth
    over every step (h summed as there, since the cells are equal)."""

    def __init__(self, h0):
        self.vol0 = float(h0.sum())
        self.drift = 0.0
        self.h_max = float(h0.max())

    def __call__(self, t, state, dt):
        vol = float(state.h.sum())
        self.drift = max(self.drift, abs(vol - self.vol0) / self.vol0)
        self.h_max = max(self.h_max, float(state.h.max()))


def write_outputs(config, result, out_dir, params_path):
    """Every snapshot, t = 0 included, then the mass report, with the
    calls `swekit run` makes."""
    from swekit import fileio

    with open(params_path, "r", encoding="utf-8") as stream:
        cfg_hash = fileio.config_hash(stream.read())
    grid = config.grid
    x = grid.cell_centers_x()
    g = config.scheme.g
    for index, (t, state) in enumerate(result.snapshots):
        path = os.path.join(out_dir, f"state_{index:03d}.txt")
        if grid.is_1d:
            fileio.write_profile_1d(path, x, config.topography, state.h,
                                    state.q, t, g, name=config.name,
                                    cfg_hash=cfg_hash)
        else:
            fileio.write_profile_2d(path, x, grid.cell_centers_y(),
                                    config.topography, state.h, state.qx,
                                    state.qy, t, g, name=config.name,
                                    cfg_hash=cfg_hash)
    fileio.write_mass_report(os.path.join(out_dir, "mass_balance.txt"),
                             result.mass_balance, name=config.name,
                             cfg_hash=cfg_hash)


def state_sha256(state):
    import hashlib

    import numpy as np

    digest = hashlib.sha256()
    for name in ("h", "q", "qx", "qy"):
        if hasattr(state, name):
            digest.update(np.ascontiguousarray(getattr(state, name)).tobytes())
    return digest.hexdigest()


def gate(spec, result, monitor):
    """Reasons this run fails the correctness gate (empty: it passes)."""
    import numpy as np

    reasons = []
    residual = result.mass_balance[-1].residual_rel
    if not residual <= spec["residual_rel_limit"]:
        reasons.append(f"mass residual_rel {residual:.3e} > "
                       f"{spec['residual_rel_limit']:.0e}")
    for t, state in result.snapshots:
        if not np.all(np.isfinite(state.h)):
            reasons.append(f"non-finite depth at t = {t:.9g}")
        elif np.min(state.h) < 0.0:
            reasons.append(f"negative depth at t = {t:.9g}")
    if monitor is not None:
        if not monitor.drift <= spec["drift_limit"]:
            reasons.append(f"volume drift {monitor.drift:.3e} > "
                           f"{spec['drift_limit']:.0e}")
        if not monitor.h_max <= spec["h_max_limit"]:
            reasons.append(f"h_max {monitor.h_max:.6g} > "
                           f"{spec['h_max_limit']:.6g}")
    return reasons


def run_job(in_dir, out_dir, traced=False):
    """Run one repetition in this process; return its record."""
    with open(os.path.join(in_dir, "workload.json"), encoding="utf-8") as f:
        spec = json.load(f)
    params_path = os.path.join(in_dir, spec["params"])
    tracer = None
    if traced:
        from tracer import Tracer
        tracer = Tracer()

    t_start = time.perf_counter()
    import swekit  # noqa: F401  (the import is part of set-up)
    from swekit import config as swe_config
    from swekit import timeloop
    record = {"traced": traced}
    with tracer.installed() if tracer else nullcontext():
        config = swe_config.parse_parameter_file(params_path)
        monitor = BowlMonitor(config.initial_state.h) \
            if "drift_limit" in spec else None
        t_sim = time.perf_counter()
        faults0 = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        try:
            result = timeloop.run_simulation(config, on_step=monitor)
        except timeloop.NumericalFault as fault:
            record["failure"] = [f"numerical fault: {fault}"]
            return record
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults0
        t_out = time.perf_counter()
        os.makedirs(out_dir, exist_ok=True)
        write_outputs(config, result, out_dir, params_path)
        t_end = time.perf_counter()
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    grid = config.grid
    steps = result.steps
    sim_s = tracer.sim_seconds() if tracer else t_out - t_sim
    record.update({
        "setup_s": t_sim - t_start,
        "sim_s": sim_s,
        "output_s": t_end - t_out,
        "wall_s": t_end - t_start,
        "steps": steps,
        "cells": grid.nx * grid.ny,
        "mcell_steps_per_s": grid.nx * grid.ny * steps / sim_s / 1e6,
        "peak_rss_mb": peak_kib / 1024.0,
        "minor_faults_per_step": faults / steps,
        "final_sha256": state_sha256(result.final_state),
        "failure": gate(spec, result, monitor),
    })
    if "reference" in spec:
        import numpy as np
        h_ref = np.load(os.path.join(in_dir, spec["reference"]))
        record["err_l1_h"] = float(np.mean(np.abs(result.final_state.h
                                                  - h_ref)))
    if tracer:
        record["layers"] = tracer.metrics(steps, faults)
        record["spans"] = {name: [s.calls, s.total, s.self_time]
                           for name, s in tracer.spans.items()}
    return record


def main(argv):
    if len(argv) not in (3, 4) or (len(argv) == 4 and argv[3] != "--trace"):
        print(__doc__, file=sys.stderr)
        return 2
    record = run_job(argv[1], argv[2], traced=len(argv) == 4)
    print(json.dumps(record))
    return 1 if record["failure"] else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))

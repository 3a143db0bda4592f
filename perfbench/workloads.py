"""Input generation for the benchmark workloads.

Each generator writes a parameter file and its data files into a fresh
directory, plus `workload.json` (what the measured job needs: the
parameter file, the correctness limits, the reference depth file) and,
where an exact solution exists, `reference.npy`. Every byte depends only
on the workload name, the seed and the size, so the same seed gives
byte-identical files.

This module imports swekit, so it runs in the orchestrating process,
never in the process that is measured.
"""

import hashlib
import json
import os

import numpy as np

from swekit.analytic import (
    ThackerParams,
    thacker_bowl,
    thacker_depth,
    thacker_velocity,
)
from swekit.cases import macdonald_shock_case
from swekit.fileio import DemGrid, format_float, write_dem, write_profile_2d

# Correctness limits, mirrored from the solver and never loosened:
# run_simulation warns above this relative mass-ledger residual, and
# validate's Thacker check allows this volume drift and peak depth.
RESIDUAL_REL_LIMIT = 1e-8
THACKER_DRIFT_LIMIT = 1e-10
THACKER_HMAX_FACTOR = 1.2

WORKLOADS = ("channel_1d", "bowl_2d", "plot_rain_2d")
# The workloads BENCHMARK.json lists. bowl_2d runs by hand only: the
# machine's speed drifts over about 90 s, runs must last 60 s to average
# that out, and the run budget fits 60 s runs for two workloads.
BENCHMARKED = ("channel_1d", "plot_rain_2d")

WHY = {
    "channel_1d": "500-cell 1D shock channel: tiny arrays, so per-call numpy "
                  "dispatch and Python stage logic dominate the step",
    "bowl_2d": "200x200 Thacker bowl: arrays beyond L2 and the mmap threshold, "
               "so arithmetic, the strided y sweep and page faults dominate",
    "plot_rain_2d": "128x128 seeded hillslope with rain, two-layer Green-Ampt "
                    "and Manning: the only workload where sources and "
                    "snapshot writes carry load",
}

# Per size: channel simulated span [s]; bowl cells per side and span
# [s]; plot cells per side, span [s] and snapshot interval [s].
SIZES = {
    "full": {"channel_time": 20.0, "bowl_cells": 200, "bowl_time": 0.12,
             "plot_cells": 128, "plot_time": 6.0, "plot_every": 0.5},
    "tiny": {"channel_time": 0.5, "bowl_cells": 24, "bowl_time": 0.05,
             "plot_cells": 16, "plot_time": 1.0, "plot_every": 0.5},
}


def _centers(length, cells):
    return (np.arange(cells) + 0.5) * (length / cells)


def _spec(directory, params_path, **extra):
    spec = {"params": os.path.basename(params_path),
            "residual_rel_limit": RESIDUAL_REL_LIMIT}
    spec.update(extra)
    with open(os.path.join(directory, "workload.json"), "w",
              encoding="utf-8") as stream:
        json.dump(spec, stream, indent=1, sort_keys=True)
        stream.write("\n")


def _channel_1d(directory, seed, size):
    """The built-in MacDonald shock channel, cut to a fixed span."""
    del seed  # the built-in case has no random input
    case = macdonald_shock_case()
    params_path = case.write_inputs(directory)
    final_time = SIZES[size]["channel_time"]
    lines = [f"final_time = {format_float(final_time)}"
             if line.startswith("final_time") else line
             for line in case.parameter_text.splitlines()]
    with open(params_path, "w", encoding="utf-8") as stream:
        stream.write("\n".join(lines) + "\n")
    profile = case.extras["profile"]
    x = _centers(profile.length, 500)
    np.save(os.path.join(directory, "reference.npy"), profile.h(x))
    _spec(directory, params_path, reference="reference.npy")


def _bowl_2d(directory, seed, size):
    """Thacker's rotating planar surface in a paraboloid bowl."""
    del seed  # the analytic initial state has no random input
    params = ThackerParams()
    length, cells = 4.0, SIZES[size]["bowl_cells"]
    final_time = SIZES[size]["bowl_time"]
    x = _centers(length, cells)
    xx, yy = np.meshgrid(x, x)
    z = thacker_bowl(params, xx, yy)
    h = thacker_depth(params, xx, yy, 0.0)
    u, v = thacker_velocity(params, 0.0)
    write_dem(os.path.join(directory, "bowl.dem"),
              DemGrid.from_south_up(z, cellsize=length / cells))
    write_profile_2d(os.path.join(directory, "bowl.init"), x, x, z, h, h * u,
                     h * v, time=0.0, g=params.g)
    text = (
        "name = bowl_2d\n"
        f"length = {format_float(length)}\n"
        f"cells = {cells}\n"
        f"width = {format_float(length)}\n"
        f"cells_y = {cells}\n"
        f"final_time = {format_float(final_time)}\n"
        "topography = file:bowl.dem\n"
        "initial_state = file:bowl.init\n"
        "boundary_left = wall\n"
        "boundary_right = wall\n"
        "boundary_bottom = wall\n"
        "boundary_top = wall\n"
    )
    params_path = os.path.join(directory, "bowl_2d.params")
    with open(params_path, "w", encoding="utf-8") as stream:
        stream.write(text)
    np.save(os.path.join(directory, "reference.npy"),
            thacker_depth(params, xx, yy, final_time))
    _spec(directory, params_path, reference="reference.npy",
          drift_limit=THACKER_DRIFT_LIMIT,
          h_max_limit=THACKER_HMAX_FACTOR * params.h0)


def plot_dem(seed, cells, length=64.0):
    """Tilted plane falling towards +x plus eight seeded Gaussian bumps."""
    rng = np.random.default_rng(seed)
    x = _centers(length, cells)
    xx, yy = np.meshgrid(x, x)
    z = 0.05 * (length - xx)
    for _ in range(8):
        cx, cy = rng.uniform(0.0, length, 2)
        height = rng.uniform(0.05, 0.2)
        width = rng.uniform(2.0, 6.0) * length / 64.0
        z += height * np.exp(-((xx - cx) ** 2 + (yy - cy) ** 2)
                             / (2.0 * width * width))
    return z


def _plot_rain_2d(directory, seed, size):
    """Dry hillslope plot under a rain burst that stops half-way."""
    sz = SIZES[size]
    length, cells = 64.0, sz["plot_cells"]
    final_time, every = sz["plot_time"], sz["plot_every"]
    z = plot_dem(seed, cells, length)
    write_dem(os.path.join(directory, "plot.dem"),
              DemGrid.from_south_up(z, cellsize=length / cells))
    count = int(round(final_time / every))
    outputs = ", ".join(format_float(k * every) for k in range(1, count))
    text = (
        "name = plot_rain_2d\n"
        f"length = {format_float(length)}\n"
        f"cells = {cells}\n"
        f"width = {format_float(length)}\n"
        f"cells_y = {cells}\n"
        f"final_time = {format_float(final_time)}\n"
        f"output_times = {outputs}\n"
        "friction = manning\n"
        "friction_coefficient = 0.03\n"
        f"rain = 0:5e-3, {format_float(0.5 * final_time)}:0\n"
        "infiltration_ks = 2e-4\n"
        "infiltration_kc = 5e-5\n"
        "infiltration_zc = 0.002\n"
        "infiltration_hf = 0.1\n"
        "infiltration_dtheta = 0.3\n"
        "topography = file:plot.dem\n"
        "initial_state = dry\n"
        "boundary_left = wall\n"
        "boundary_right = neumann\n"
        "boundary_bottom = wall\n"
        "boundary_top = wall\n"
    )
    params_path = os.path.join(directory, "plot_rain_2d.params")
    with open(params_path, "w", encoding="utf-8") as stream:
        stream.write(text)
    _spec(directory, params_path)


_GENERATORS = {
    "channel_1d": _channel_1d,
    "bowl_2d": _bowl_2d,
    "plot_rain_2d": _plot_rain_2d,
}


def generate(name, seed, directory, size="full"):
    """Write the inputs of workload `name` into the empty `directory`."""
    os.makedirs(directory, exist_ok=True)
    _GENERATORS[name](directory, seed, size)


def inputs_sha256(directory):
    """One SHA-256 over every generated file, by name, in name order."""
    digest = hashlib.sha256()
    for filename in sorted(os.listdir(directory)):
        digest.update(filename.encode("utf-8") + b"\0")
        with open(os.path.join(directory, filename), "rb") as stream:
            digest.update(stream.read())
    return digest.hexdigest()


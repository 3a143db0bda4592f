"""Span tracer for one traced repetition.

The solver binds its helpers with `from ... import`, so each span is
installed on the name the caller looks up: the helpers bound in
`swekit.timeloop`, the entries of `FLUX_FUNCTIONS`, the DEM and profile
readers bound in `swekit.config`, and the module attributes the job
calls (`config.parse_parameter_file`, `timeloop.run_simulation`, the
`fileio` writers). A span's self time is its duration minus the
durations of the spans it directly encloses, so the self times of the
spans under `run_simulation` plus its own self time add up to its
duration exactly.

Span names are `<defining module>.<function>`; the module is the layer.
"""

import functools
import os
import time
from contextlib import contextmanager

# Helpers that swekit.timeloop imports by name, wrapped where it looks
# them up.
TIMELOOP_NAMES = (
    "heun_step", "euler_step", "compute_dt", "fill_ghosts_1d",
    "fill_ghosts_2d", "muscl_slopes", "velocity", "transverse_component",
    "friction_semi_implicit", "friction_semi_implicit_2d",
    "infiltration_step", "rain_rate", "total_volume",
)
CONFIG_NAMES = ("read_dem", "read_profile")
JOB_NAMES = (
    ("config", "parse_parameter_file"),
    ("timeloop", "run_simulation"),
    ("fileio", "write_profile_1d"),
    ("fileio", "write_profile_2d"),
    ("fileio", "write_mass_report"),
)

SIM_SPAN = "timeloop.run_simulation"
# Layers whose spans run inside run_simulation, in report order.
SIM_LAYERS = ("timeloop", "boundary", "reconstruction", "core", "fluxes",
              "sources")

# Which positional argument holds the array whose size a span reports
# as its element count (faces, values or cells).
_SIZE_ARG = {
    "fluxes.hll_flux": 0,
    "fluxes.rusanov_flux": 0,
    "reconstruction.muscl_slopes": 0,
    "fileio.write_profile_1d": 3,
    "fileio.write_profile_2d": 4,
}
# Every per-layer metric and its unit; metrics() reports all but the
# last, which run.py derives from traced and untraced repetitions.
LAYER_UNITS = {
    "timeloop.steps": "count",
    "timeloop.us_per_step": "us",
    "timeloop.stage_self_us_per_step": "us",
    "timeloop.driver_self_us_per_step": "us",
    "timeloop.compute_dt_us_per_call": "us",
    "timeloop.minor_faults_per_step": "count",
    "fluxes.riemann_us_per_call": "us",
    "fluxes.riemann_ns_per_face": "ns",
    "reconstruction.muscl_us_per_call": "us",
    "reconstruction.muscl_ns_per_value": "ns",
    "core.velocity_us_per_call": "us",
    "boundary.fill_ghosts_us_per_call": "us",
    "sources.rain_rate_us_per_call": "us",
    "fileio.write_ns_per_cell": "ns",
    "fileio.bytes_written": "bytes",
    "fileio.read_s": "s",
    "config.parse_self_s": "s",
    **{f"{layer}.calls_per_step": "count" for layer in SIM_LAYERS},
    **{f"{layer}.share": "fraction" for layer in SIM_LAYERS},
    "trace.overhead_pct": "%",
}
_WRITERS = ("fileio.write_profile_1d", "fileio.write_profile_2d",
            "fileio.write_mass_report")
_FILL_GHOSTS = ("boundary.fill_ghosts_1d", "boundary.fill_ghosts_2d")


class SpanStats:
    __slots__ = ("calls", "total", "self_time", "elements")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0
        self.elements = 0


def span_name(fn):
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"


class Tracer:
    """Wraps swekit entry points while installed; restores them after."""

    def __init__(self):
        self.spans = {}
        self.bytes_written = 0
        self._stack = []

    def wrap(self, fn):
        name = span_name(fn)
        stats = self.spans.setdefault(name, SpanStats())
        size_arg = _SIZE_ARG.get(name)
        is_writer = name in _WRITERS
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            children = [0.0]
            stack.append(children)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                stats.calls += 1
                stats.total += elapsed
                stats.self_time += elapsed - children[0]
                if stack:
                    stack[-1][0] += elapsed
                if size_arg is not None and len(args) > size_arg:
                    stats.elements += _size(args[size_arg])
                if is_writer and isinstance(args[0], (str, os.PathLike)):
                    self.bytes_written += os.path.getsize(args[0])

        return traced

    @contextmanager
    def installed(self):
        """Install every span; the originals come back even on error."""
        from swekit import config, fileio, timeloop

        targets = [(timeloop, name) for name in TIMELOOP_NAMES]
        targets += [(config, name) for name in CONFIG_NAMES]
        modules = {"config": config, "fileio": fileio, "timeloop": timeloop}
        targets += [(modules[mod], name) for mod, name in JOB_NAMES]
        saved_attrs = [(obj, name, getattr(obj, name)) for obj, name in targets]
        fluxes = timeloop.FLUX_FUNCTIONS
        saved_fluxes = dict(fluxes)
        try:
            for obj, name, fn in saved_attrs:
                setattr(obj, name, self.wrap(fn))
            for key, fn in saved_fluxes.items():
                fluxes[key] = self.wrap(fn)
            yield self
        finally:
            for obj, name, fn in saved_attrs:
                setattr(obj, name, fn)
            fluxes.update(saved_fluxes)

    # ------------------------------------------------------------ report

    def _get(self, name):
        return self.spans.get(name) or SpanStats()

    def _sum(self, names, field):
        return sum(getattr(self._get(n), field) for n in names)

    def layer_self(self, layer):
        """Self time of every span of `layer` that runs in the sim."""
        return sum(s.self_time for n, s in self.spans.items()
                   if n.split(".", 1)[0] == layer and n != SIM_SPAN)

    def sim_seconds(self):
        return self._get(SIM_SPAN).total

    def metrics(self, steps, minor_faults):
        """Per-layer metrics of this traced repetition, by name."""
        sim = self.sim_seconds()
        driver = self._get(SIM_SPAN).self_time
        us = 1e6

        def per_call(names):
            calls = self._sum(names, "calls")
            return us * self._sum(names, "self_time") / calls if calls else 0.0

        def per_element(names, scale):
            count = self._sum(names, "elements")
            return scale * self._sum(names, "self_time") / count \
                if count else 0.0

        stages = ("timeloop.heun_step", "timeloop.euler_step")
        riemann = ("fluxes.hll_flux", "fluxes.rusanov_flux")
        muscl = ("reconstruction.muscl_slopes",)
        profiles = ("fileio.write_profile_1d", "fileio.write_profile_2d")
        out = {
            "timeloop.steps": steps,
            "timeloop.us_per_step": us * sim / steps,
            "timeloop.stage_self_us_per_step":
                us * self._sum(stages, "self_time") / steps,
            "timeloop.driver_self_us_per_step": us * driver / steps,
            "timeloop.compute_dt_us_per_call":
                per_call(("timeloop.compute_dt",)),
            "timeloop.minor_faults_per_step": minor_faults / steps,
            "fluxes.riemann_us_per_call": per_call(riemann),
            "fluxes.riemann_ns_per_face": per_element(riemann, 1e9),
            "reconstruction.muscl_us_per_call": per_call(muscl),
            "reconstruction.muscl_ns_per_value": per_element(muscl, 1e9),
            "core.velocity_us_per_call": per_call(("core.velocity",)),
            "boundary.fill_ghosts_us_per_call": per_call(_FILL_GHOSTS),
            "sources.rain_rate_us_per_call": per_call(("sources.rain_rate",)),
            "fileio.write_ns_per_cell": per_element(profiles, 1e9),
            "fileio.bytes_written": self.bytes_written,
            "fileio.read_s": self._sum(("fileio.read_dem",
                                        "fileio.read_profile"), "total"),
            "config.parse_self_s":
                self._get("config.parse_parameter_file").self_time,
        }
        for layer in SIM_LAYERS:
            calls = sum(s.calls for n, s in self.spans.items()
                        if n.split(".", 1)[0] == layer and n != SIM_SPAN)
            out[f"{layer}.calls_per_step"] = calls / steps
            own = self.layer_self(layer)
            if layer == "timeloop":
                own += driver
            out[f"{layer}.share"] = own / sim
        return out


def _size(value):
    size = getattr(value, "size", None)
    return int(size) if size is not None else 1

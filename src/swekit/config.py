"""Parameter-file parsing: `key = value` lines into a SimulationConfig.

Unknown keys are rejected and every problem is reported with its line
number, the offending key, and a reason; as many problems as possible
are collected before raising.
"""

import math
import os

import numpy as np

from .boundary import BC_KINDS, BoundaryCondition, BoundarySet
from .core import FIELD_NAMES, G_DEFAULT, H_EPS, Grid, State
from .fileio import read_dem, read_profile
from .sources import (
    FRICTION_ALIASES,
    FRICTION_LAWS,
    GreenAmptParams,
    Hyetograph,
    resolve_friction,
)
from .timeloop import SchemeConfig, SimulationConfig


class ConfigError(ValueError):
    """One or more parameter problems; .errors lists (line, key, reason)."""

    def __init__(self, errors):
        self.errors = list(errors)
        lines = [f"line {ln}: {key}: {reason}" if ln else f"{key}: {reason}"
                 for ln, key, reason in self.errors]
        super().__init__("invalid parameters:\n  " + "\n  ".join(lines))


KNOWN_KEYS = (
    "name", "length", "width", "cells", "cells_y", "origin_x", "origin_y",
    "final_time", "output_times", "order", "flux", "cfl", "fixed_dt", "g",
    "h_eps", "friction", "friction_coefficient", "rain",
    "infiltration_ks", "infiltration_kc", "infiltration_zc",
    "infiltration_hf", "infiltration_dtheta", "infiltration_imax",
    "boundary_left", "boundary_right", "boundary_bottom", "boundary_top",
    "topography", "initial_state", "output_dir",
)

_MISSING = object()


def _finite_float(text):
    """float(text), refusing inf and nan: no parameter can use them."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"must be a finite number, got {text.strip()!r}")
    return value


def _split_lines(text):
    """-> dict key -> (line number, raw value); duplicate keys rejected."""
    entries = {}
    errors = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.partition("#")[0].strip()
        if not line:
            continue
        if "=" not in line:
            errors.append((lineno, line.split()[0],
                           "expected 'key = value'"))
            continue
        key, _, value = line.partition("=")
        key = key.strip().lower()
        value = value.strip()
        if key not in KNOWN_KEYS:
            errors.append((lineno, key, "unknown key"))
            continue
        if key in entries:
            errors.append((lineno, key,
                           f"duplicate (first set on line {entries[key][0]})"))
            continue
        if not value:
            errors.append((lineno, key, "empty value"))
            continue
        entries[key] = (lineno, value)
    return entries, errors


class _Reader:
    def __init__(self, entries, errors):
        self.entries = entries
        self.errors = errors

    def error(self, key, reason):
        line = self.entries[key][0] if key in self.entries else 0
        self.errors.append((line, key, reason))

    def raw(self, key, default=_MISSING):
        if key in self.entries:
            return self.entries[key][1]
        return default

    def take(self, key, convert, default=_MISSING, require=None):
        if key not in self.entries:
            if default is _MISSING:
                self.errors.append((0, key, "required key is missing"))
                return None
            return default
        value = self.entries[key][1]
        try:
            result = convert(value)
        except ValueError as exc:
            self.error(key, str(exc))
            return None
        if require is not None:
            reason = require(result)
            if reason:
                self.error(key, reason)
                return None
        return result

    def floatval(self, key, default=_MISSING, positive=False,
                 nonnegative=False):
        def check(v):
            if positive and not v > 0.0:
                return f"must be positive, got {v}"
            if nonnegative and v < 0.0:
                return f"must be nonnegative, got {v}"
            return None
        return self.take(key, _finite_float, default, check)

    def intval(self, key, default=_MISSING, positive=False):
        def check(v):
            if positive and v <= 0:
                return f"must be a positive integer, got {v}"
            return None
        return self.take(key, int, default, check)


def _parse_float_list(value):
    return tuple(_finite_float(part) for part in value.split(",")
                 if part.strip())


def _parse_rain(value):
    times = []
    rates = []
    for part in value.split(","):
        part = part.strip()
        if not part:
            continue
        pieces = part.split(":")
        if len(pieces) != 2:
            raise ValueError(f"rain entry {part!r} is not 'time:intensity'")
        times.append(_finite_float(pieces[0]))
        rates.append(_finite_float(pieces[1]))
    if not times:
        raise ValueError("no rain entries")
    return Hyetograph(tuple(times), tuple(rates))


def _parse_boundary(value):
    pieces = [p.strip() for p in value.split(":")]
    kind = pieces[0]
    args = [_finite_float(p) for p in pieces[1:]]
    if kind in ("wall", "neumann", "periodic"):
        if args:
            raise ValueError(f"{kind} takes no values")
        return BoundaryCondition(kind)
    if kind == "imposed_depth":
        if len(args) != 1:
            raise ValueError("imposed_depth needs exactly one value (depth)")
        return BoundaryCondition(kind, depth=args[0])
    if kind == "imposed_discharge":
        if len(args) != 1:
            raise ValueError(
                "imposed_discharge needs exactly one value (discharge)")
        return BoundaryCondition(kind, discharge=args[0])
    if kind == "imposed_both":
        if len(args) != 2:
            raise ValueError("imposed_both needs two values (depth:discharge)")
        return BoundaryCondition(kind, depth=args[0], discharge=args[1])
    raise ValueError(f"unknown boundary kind {kind!r}; choose from {BC_KINDS}")


def _resolve_path(value, base_dir):
    path = value
    if base_dir and not os.path.isabs(path):
        path = os.path.join(base_dir, path)
    return path


def _load_topography(spec, grid, base_dir):
    kind, _, arg = spec.partition(":")
    kind = kind.strip()
    if kind == "flat":
        return np.zeros(grid.shape)
    if kind == "constant":
        return np.full(grid.shape, _finite_float(arg))
    if kind == "file":
        path = _resolve_path(arg.strip(), base_dir)
        try:
            dem = read_dem(path)
        except OSError as exc:
            raise ValueError(f"cannot read DEM: {exc}") from None
        if (dem.nrows, dem.ncols) != (grid.ny, grid.nx):
            raise ValueError(
                f"DEM is {dem.nrows}x{dem.ncols}, grid needs "
                f"{grid.ny}x{grid.nx}")
        if abs(dem.cellsize - grid.dx) > 1e-9 * grid.dx:
            raise ValueError(
                f"DEM cellsize {dem.cellsize} does not match dx {grid.dx}")
        if not grid.is_1d and abs(grid.dy - grid.dx) > 1e-9 * grid.dx:
            raise ValueError("DEM topography needs square cells (dx = dy)")
        corner = (grid.x0,) if grid.is_1d else (grid.x0, grid.y0)
        if any(abs(d - g) > 1e-9 * grid.dx for d, g in zip(dem.origin, corner)):
            raise ValueError(
                f"DEM origin {dem.origin} does not match the grid origin "
                f"{corner} (origin_x/origin_y)")
        return dem.elevations_south_up().reshape(grid.shape)
    raise ValueError(
        f"unknown topography source {kind!r}; use flat, constant:<z> or "
        "file:<dem>")


def _load_initial_state(spec, grid, topography, base_dir):
    kind, _, arg = spec.partition(":")
    kind = kind.strip()
    names = FIELD_NAMES[len(grid.shape) + 1]
    fields = np.zeros((len(names),) + grid.shape)
    if kind == "dry":
        return State(fields)
    if kind == "lake":
        fields[0] = np.maximum(_finite_float(arg) - topography, 0.0)
        return State(fields)
    if kind == "constant":
        parts = [_finite_float(p) for p in arg.split(":")] if arg else []
        if len(parts) not in (1, len(names)):
            raise ValueError("constant initial state needs "
                             f"h[:{':'.join(names[1:])}]")
        fields[:len(parts)] = np.reshape(parts, (-1,) + (1,) * len(grid.shape))
        return State(fields)
    if kind == "file":
        path = _resolve_path(arg.strip(), base_dir)
        try:
            table = read_profile(path)
        except OSError as exc:
            raise ValueError(f"cannot read initial state: {exc}") from None
        if any(c not in table for c in names):
            raise ValueError(f"initial-state file needs {', '.join(names[:-1])} "
                             f"and {names[-1]} columns")
        count = grid.nx * grid.ny
        if table["h"].size != count:
            raise ValueError(
                f"initial-state file has {table['h'].size} rows, grid has "
                f"{count} cells")
        # Rows run x fastest, southernmost row first (as the writers
        # lay them out); coordinate columns, where given, must say so.
        centers = np.meshgrid(grid.cell_centers_x(), grid.cell_centers_y())
        for axis, center, d in zip("xy", centers, grid.spacings):
            if axis in table and np.any(np.abs(table[axis] - center.ravel())
                                        > 1e-9 * d):
                raise ValueError(f"initial-state file's {axis} column does "
                                 "not match the grid's cell centers")
        for field, c in zip(fields, names):
            field[...] = table[c].reshape(grid.shape)
        return State(fields)
    raise ValueError(
        f"unknown initial state {kind!r}; use dry, lake:<level>, "
        "constant:<h[:q...]> or file:<profile>")


def parse_parameters(text, base_dir=None):
    """Parse a parameter text into a fully validated SimulationConfig."""
    entries, errors = _split_lines(text)
    r = _Reader(entries, errors)

    name = r.take("name", str, default="run")
    output_dir = r.take("output_dir", str, default=None)
    if output_dir and base_dir and not os.path.isabs(output_dir):
        output_dir = os.path.join(base_dir, output_dir)
    length = r.floatval("length", positive=True)
    cells = r.intval("cells", positive=True)
    width = r.floatval("width", default=None, positive=True)
    cells_y = r.intval("cells_y", default=None, positive=True)
    origin_x = r.floatval("origin_x", default=0.0)
    origin_y = r.floatval("origin_y", default=0.0)
    final_time = r.floatval("final_time", nonnegative=True)
    output_times = r.take("output_times", _parse_float_list, default=())

    order = r.intval("order", default=2)
    if order not in (None, 1, 2):
        r.error("order", f"must be 1 or 2, got {order}")
        order = None
    flux = r.take("flux", str, default="hll",
                  require=lambda v: None if v in ("hll", "rusanov")
                  else f"unknown flux {v!r}; choose hll or rusanov")
    cfl = r.floatval("cfl", default=None, positive=True)
    fixed_dt = r.floatval("fixed_dt", default=None, positive=True)
    g = r.floatval("g", default=G_DEFAULT, positive=True)
    h_eps = r.floatval("h_eps", default=H_EPS, positive=True)

    law = r.take("friction", str, default="none",
                 require=lambda v: None if v in FRICTION_LAWS + FRICTION_ALIASES
                 else f"unknown friction law {v!r}; choose one of "
                 f"{FRICTION_LAWS + FRICTION_ALIASES}")
    coefficient = r.floatval("friction_coefficient", default=0.0,
                             nonnegative=True)
    rain = r.take("rain", _parse_rain, default=None)

    ks = r.floatval("infiltration_ks", default=None, nonnegative=True)
    ga_extras = {
        "kc": r.floatval("infiltration_kc", default=0.0, nonnegative=True),
        "zc": r.floatval("infiltration_zc", default=0.0, nonnegative=True),
        "hf": r.floatval("infiltration_hf", default=0.0, nonnegative=True),
        "dtheta": r.floatval("infiltration_dtheta", default=1.0,
                             positive=True),
        "imax": r.floatval("infiltration_imax", default=None, positive=True),
    }
    if ks is None:
        for key in ga_extras:
            if f"infiltration_{key}" in entries:
                r.error(f"infiltration_{key}",
                        "requires infiltration_ks to be set")

    bcs = {}
    for side in ("left", "right", "bottom", "top"):
        bcs[side] = r.take(f"boundary_{side}", _parse_boundary,
                           default=BoundaryCondition("wall"))
    two_d = cells_y is not None or width is not None
    if two_d and (cells_y is None or width is None):
        r.error("width" if width is None else "cells_y",
                "2D runs need both width and cells_y")
    elif two_d and cells_y == 1:
        r.error("cells_y", "a 2D run needs at least 2 rows; for a 1D run "
                "leave out width, cells_y and boundary_bottom/top")
    if not two_d:
        for side in ("bottom", "top"):
            if f"boundary_{side}" in entries:
                r.error(f"boundary_{side}", "only valid for 2D runs (set "
                        "width and cells_y)")

    if errors or None in (length, cells, final_time):
        raise ConfigError(errors)

    if two_d:
        grid = Grid(nx=cells, ny=cells_y, dx=length / cells,
                    dy=width / cells_y, x0=origin_x, y0=origin_y)
    else:
        grid = Grid(nx=cells, dx=length / cells, x0=origin_x)

    topo_spec = r.raw("topography", "flat")
    try:
        topography = _load_topography(topo_spec, grid, base_dir)
    except ValueError as exc:
        r.error("topography", str(exc))
        raise ConfigError(errors)

    init_spec = r.raw("initial_state", "dry")
    try:
        state = _load_initial_state(init_spec, grid, topography, base_dir)
    except ValueError as exc:
        r.error("initial_state", str(exc))
        raise ConfigError(errors)

    try:
        friction = resolve_friction(law, coefficient, g)
    except ValueError as exc:
        r.error("friction", str(exc))
        raise ConfigError(errors)

    infiltration = None
    if ks is not None:
        try:
            infiltration = GreenAmptParams(ks=ks, **ga_extras)
        except ValueError as exc:
            # Each message names the parameter at fault; a crust without
            # kc names kc.
            message = str(exc)
            name = next((name for name in ga_extras if name in message),
                        "ks")
            r.error(f"infiltration_{name}", message)
            raise ConfigError(errors)

    try:
        scheme = SchemeConfig(order=order, flux_name=flux, cfl=cfl,
                              fixed_dt=fixed_dt, g=g, h_eps=h_eps)
        return SimulationConfig(
            grid=grid, topography=topography, initial_state=state,
            final_time=final_time, scheme=scheme,
            boundaries=BoundarySet(**bcs), friction=friction, rain=rain,
            infiltration=infiltration, output_times=tuple(output_times),
            name=name, output_dir=output_dir)
    except ValueError as exc:
        message = str(exc)
        key = "parameters"
        for fragment, owner in (("output times", "output_times"),
                                ("left/right", "boundary_left"),
                                ("bottom/top", "boundary_bottom"),
                                ("cfl", "cfl"),
                                ("fixed_dt", "fixed_dt"),
                                ("initial depth", "initial_state")):
            if fragment in message:
                key = owner
                break
        r.error(key, message)
        raise ConfigError(errors)


def parse_parameter_file(path):
    """Read and parse a parameter file; paths resolve next to it."""
    with open(path, "r", encoding="utf-8") as stream:
        text = stream.read()
    return parse_parameters(text, base_dir=os.path.dirname(os.path.abspath(path)))

"""Time integration of the well-balanced finite-volume scheme.

One explicit stage = convective update (reconstruction, hydrostatic
interface states, fluxes with their pressure corrections, centered
topography term), then rain, then infiltration, then semi-implicit
friction. Euler takes one stage per step; Heun averages two. The time
step follows a CFL condition evaluated on the pre-step state, with one
shared dt for both Heun stages, and is clipped so the run lands exactly
on requested output times, rain changes, and the final time. That dt
bounds the Courant number of the first stage only: the second Heun
stage can start from faster water (a thin layer accelerating down a
steep bed), and a step that then leaves a negative depth or a
non-finite value is taken again with half the dt, at most
MAX_STEP_HALVINGS times. A fixed_dt step is never retried.

How a step runs. A State holds the conserved variables stacked in one
array, (h, q) in 1D and (h, qx, qy) in 2D, so the update, the Heun
average, the validity check and the change rate are one call each over
the stack, and 1D and 2D run the same step code. Only the ghost fill
(fill_ghosts_1d or fill_ghosts_2d) and friction (one discharge or two)
are chosen by the dimension. run_simulation creates one _Workspace
per run and every step writes into it:

* ext: the fields and bed, each with a two-cell ghost frame;
* full: a grid-shaped Scratch whose floats hold the flux divergence phi
  during a stage, and serve infiltration, friction, the validity check
  and compute_dt otherwise;
* stage: the first Heun stage;
* the sweep kernel's scratch.

The convective update is one sweep kernel with two implementations of
one contract (_Sweep.run): it serves 1D as a single row and each 2D
direction as a block of rows, and returns per row the carried and the
normal flux divergence and the mass flux through the two end faces.

* The compiled kernel, _sweep.c, runs wherever a C compiler is found.
  It is built on first use with `gcc -O3 -fno-math-errno
  -fno-trapping-math -ffp-contract=off -fPIC -shared` (or `cc`). -O3
  vectorizes its row passes with baseline SSE2; -fno-math-errno lets
  sqrt inline and -fno-trapping-math lets the comparisons that feed its
  selects be if-converted, and neither changes a computed value. It is
  never built with contraction, -ffast-math or -march=native, which
  would change the bits. The library goes into $XDG_CACHE_HOME/swekit,
  else ~/.cache/swekit, else a private directory under the system's
  temporary directory. The cache key hashes the source, the flags and
  the compiler executable; a library whose SHA-256 does not match the
  one stored beside it is rebuilt. It is loaded with ctypes, and one
  foreign call per direction sweeps every row through element strides:
  the y sweep reads the transposed frame as it is and adds into phi a
  tile of rows at a time. A block needs O(n) scratch.
* The numpy kernel (_Sweep) runs when no compiler is found or the build
  fails, after one warning. A block stacks the variables (h, u_n[, u_t],
  h+z) on one axis and the two interface sides (minus, plus) on
  another, so each formula is one ufunc call that writes with out= into
  a pool; the y sweep copies the transposed frame into contiguous
  rows. A direction's rows are split evenly into blocks of at most
  SWEEP_CELLS cells, so the pool stays under 4 MiB whatever the grid.
  Each formula exists once, in core, reconstruction, fluxes and
  sources, and this kernel calls those functions.

Nothing selects the kernel but the build: RunResult.sweep_kernel names
the one that ran, and run_simulation logs it at INFO. The two kernels
give the same bits: the C code keeps the floating-point operation order
of every numpy formula, and follows numpy's min/max (NaN propagates, a
tie returns the second operand); tests/test_timeloop.py pairs them on
random states. The numpy kernel is in turn bitwise identical to the
allocating operator it replaced, which the tests keep as the reference.
A step returns a State over a new array: no view of the workspace
reaches a State the caller sees.
"""

import collections
import contextlib
import ctypes
import functools
import hashlib
import logging
import math
import os
import pathlib
import shutil
import tempfile
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .boundary import (
    SIDES,
    BoundarySet,
    check_periodic_pairing,
    fill_ghosts_1d,
    fill_ghosts_2d,
)
from .core import (
    G_DEFAULT,
    H_EPS,
    Grid,
    Scratch,
    State,
    total_volume,
    velocity,
)
from .fluxes import (
    FLUX_FUNCTIONS,
    SIDES_FLAGS,
    SIDES_FLOATS,
    transverse_component,
)
from .reconstruction import (
    centered_correction,
    hydrostatic_sides,
    interface_pressure_correction,
    muscl_slopes,
)
from .sources import (
    INFILTRATION_FLAGS,
    INFILTRATION_FLOATS,
    FrictionParams,
    GreenAmptParams,
    GreenAmptState,
    Hyetograph,
    friction_semi_implicit,
    friction_semi_implicit_2d,
    infiltration_step,
    rain_rate,
)

LOG = logging.getLogger(__name__)

# Largest stable CFL number per (dimensions, order).
CFL_MAX = {(1, 1): 1.0, (1, 2): 0.5, (2, 1): 0.5, (2, 2): 0.25}

# Depths this far below zero are attributed to roundoff and clamped;
# anything worse aborts the run.
NEGATIVE_DEPTH_TOL = 1e-10

_TIME_ATOL = 1e-12

# A CFL step whose result fails the validity check is retried with half
# the dt at most this many times; then its fault is raised.
MAX_STEP_HALVINGS = 10


class NumericalFault(RuntimeError):
    """Non-finite or impossible state produced by a time step."""

    def __init__(self, time, index, message):
        super().__init__(f"{message} at cell {index} (t = {time:.9g} s)")
        self.time = time
        self.index = index


@dataclass(frozen=True)
class SchemeConfig:
    """Discretization choices.

    order: 1 (piecewise-constant) or 2 (MUSCL + Heun), jointly in space
    and time. cfl = None picks the largest stable number for the
    dimension/order pair; fixed_dt overrides the CFL step entirely.
    """

    order: int = 2
    flux_name: str = "hll"
    cfl: Optional[float] = None
    fixed_dt: Optional[float] = None
    g: float = G_DEFAULT
    h_eps: float = H_EPS

    def __post_init__(self):
        if self.order not in (1, 2):
            raise ValueError(f"order must be 1 or 2, got {self.order}")
        if self.flux_name not in FLUX_FUNCTIONS:
            raise ValueError(
                f"unknown flux {self.flux_name!r}; choose from {sorted(FLUX_FUNCTIONS)}")
        if self.fixed_dt is not None and not self.fixed_dt > 0.0:
            raise ValueError("fixed_dt must be positive")
        if not self.g > 0.0:
            raise ValueError("g must be positive")

    def cfl_for(self, ndim):
        cmax = CFL_MAX[(ndim, self.order)]
        if self.cfl is None:
            return cmax
        if not 0.0 < self.cfl <= cmax:
            raise ValueError(
                f"cfl must lie in (0, {cmax}] for order {self.order} in {ndim}D, "
                f"got {self.cfl}")
        return self.cfl


@dataclass
class StageDiag:
    """Volumes moved during one stage (1D: per meter of width)."""

    rain_vol: float = 0.0
    infil_vol: float = 0.0
    boundary_in_vol: float = 0.0
    boundary_out_vol: float = 0.0


def _combine_heun_diags(d1, d2):
    return StageDiag(
        0.5 * (d1.rain_vol + d2.rain_vol),
        0.5 * (d1.infil_vol + d2.infil_vol),
        0.5 * (d1.boundary_in_vol + d2.boundary_in_vol),
        0.5 * (d1.boundary_out_vol + d2.boundary_out_vol),
    )


# ------------------------------------------------------------------ dt


def _largest(values):
    """Largest value along a side; a side of one cell (1D) is a scalar."""
    return float(values.max()) if values.ndim else float(values)


def _bc_speed(fields, bcs, g, h_eps):
    """Largest wave speed |u| + sqrt(g h) of the imposed boundary states.

    Imposed inflows can be faster than anything inside the domain
    (e.g. discharge onto a dry bed), so they join the CFL supremum. 0.0
    without an imposed state.
    """
    speeds = []
    for k, sides in enumerate(SIDES[:fields.ndim - 1]):
        for side, end in zip(sides, (0, -1)):
            bc = getattr(bcs, side)
            if bc.kind not in ("imposed_depth", "imposed_discharge",
                               "imposed_both"):
                continue
            # The cells along the side: x sides are columns, y sides rows.
            cells = fields[..., end] if k == 0 else fields[:, end]
            h_b = bc.depth if bc.depth is not None else _largest(cells[0])
            q_b = bc.discharge if bc.discharge is not None \
                else _largest(abs(cells[1 + k]))
            if h_b > h_eps:
                speeds.append(abs(q_b) / h_b + np.sqrt(g * h_b))
    return max(speeds, default=0.0)


def compute_dt(state, grid, scheme, bcs=None, work=None):
    """CFL time step from the current state: C * min(d, d / sup(|u|+c)).

    The supremum runs over wet cells (per direction in 2D) and over any
    imposed boundary states; a fully dry domain falls back to C * d.
    work, if given, is a Scratch of the grid shape with one float per
    discharge plus one, and one flag.
    """
    spacings = grid.spacings
    cfl = scheme.cfl_for(len(spacings))
    eps = scheme.h_eps
    fields = state.fields
    h, discharges = fields[0], fields[1:]
    if work is None:
        work = Scratch.empty(h.shape, len(fields), 1)

    wet = np.greater(h, eps, out=work.flags[0])
    celerity = np.multiply(h, scheme.g, out=work.floats[0])
    np.sqrt(celerity, out=celerity, where=wet)
    boost = 0.0 if bcs is None else _bc_speed(fields, bcs, scheme.g, eps)
    dt = min(spacings)
    # Per direction: its spacing over the supremum of its |u| + c (one
    # field at a time: on grid-shaped arrays numpy takes its fast path).
    for d, q, speed in zip(spacings, discharges, work.floats[1:]):
        np.abs(q, out=speed)
        np.divide(speed, h, out=speed, where=wet)
        np.add(speed, celerity, out=speed)
        sup = max(float(speed.max(where=wet, initial=0.0)), boost)
        if sup > 0.0:
            dt = min(dt, d / sup)
    return cfl * dt


# ------------------------------------------------- convective operator

# Cells (ghosts included) one sweep block holds at most, unless a single
# row is longer. A direction's rows are split evenly into blocks under
# this budget, which bounds the pool at about 230 bytes per cell (3.6 MiB)
# whatever the grid size. Fewer, larger blocks cost fewer numpy calls.
SWEEP_CELLS = 16384


def _face_sides(traces):
    """(2, nv, C-1) view of per-cell traces (2, nv, C) as face sides.

    Face k lies between cells k and k+1 of the flattened block: its
    minus side is the high trace of cell k (traces[0]) and its plus
    side the low trace of cell k+1 (traces[1]). The two sides cover
    disjoint elements, so the view can be written.
    """
    minus = traces[0, :, :-1]
    return np.lib.stride_tricks.as_strided(
        minus, shape=(2,) + minus.shape,
        strides=(traces.strides[0] + traces.strides[-1],) + minus.strides)


def _carve(flat, *shapes):
    """Consecutive views of the given shapes from the start of flat."""
    views, start = [], 0
    for shape in shapes:
        size = math.prod(shape)
        views.append(flat[start:start + size].reshape(shape))
        start += size
    return views


class _Sweep:
    """The sweep kernel for one block shape: `rows` rows of n cells.

    A row is a 1D problem along the sweep direction with two ghost
    cells per end. The block's rows are laid end to end, so every
    formula runs over one contiguous stretch of C = rows * (n+4) cells
    (or the C-1 faces between them); the few values that straddle two
    rows are never read back. The variables (h, u_n[, u_t], h+z) are
    stacked on one axis and the face sides (minus, plus) on another, so
    each formula is one ufunc call per block. Every buffer is a view
    into the run's pool: `keep` holds the traces, which live through
    the whole block; `cells` is shared by the cell phase (gather,
    slopes) and the face phase (hydrostatic states, fluxes), whose
    lives do not overlap.
    """

    @staticmethod
    def sizes(rows, n, nq):
        """Floats of keep, floats of cells, and flags, for this shape."""
        nv, c = nq + 2, rows * (n + 4)
        keep = 2 * nv * c
        cell_phase = 4 * nv * c
        face_phase = (6 + (nq + 1) + 3 + SIDES_FLOATS) * c
        flags = max(1 + nv, SIDES_FLAGS + 1) * c
        return keep, max(cell_phase, face_phase), flags

    def __init__(self, pool, rows, n, nq, d, scheme):
        nv, e = nq + 2, n + 4
        c = rows * e
        keep, cells, flags = pool
        self.d = d
        self.g = scheme.g
        self.h_eps = scheme.h_eps
        self.second_order = scheme.order == 2
        self.flux = scheme.flux_name
        # (+d/2, -d/2): the slope step from a cell to its high/low face.
        self.half_step = np.array([0.5 * d, -0.5 * d]).reshape(2, 1, 1)

        (self.traces,) = _carve(keep, (2, nv, c))
        self.values, self.slopes, slope_floats = _carve(
            cells, (nv, c), (nv, c), (2, nv * c))
        self.wet, slope_flags = _carve(flags, (rows, e), (1, nv * c))
        self.slope_work = Scratch(slope_floats, slope_flags)

        (states, cell_fluxes, self.z_face, self.centered, self.spare,
         flux_floats) = _carve(cells, (2, 3, c), (nq + 1, c), (c,), (c,),
                               (c,), (SIDES_FLOATS, c))
        flux_flags, upwind = _carve(flags, (SIDES_FLAGS, c), (c,))
        # Face arrays hold C values of which the first C-1 are faces.
        states, fluxes = states[..., :-1], cell_fluxes[..., :-1]
        self.flux_work = Scratch(flux_floats[:, :-1], flux_flags[:, :-1])

        # Views each call of run() uses, made once here.
        by_row = self.values.reshape(nv, rows, e)
        self.gather = by_row[0], by_row[1:-1], by_row[-1]
        traces, faces = self.traces, _face_sides(self.traces)
        self.bed = traces[:, -1], traces[:, 0]
        face_h = faces[:, 0]
        self.hydrostatic = (face_h, faces[:, -1], faces[:, 1], states[:, :2],
                            self.z_face[:-1])
        # A cell's own traces: low at its left face, high at its right.
        self.cell_traces = (traces[1, 0], traces[0, 0], traces[1, -1],
                            traces[0, -1])
        self.pressure = face_h, states[:, 0], self.flux_work.floats[:2]
        self.riemann = states, fluxes[:2]
        self.transverse = (fluxes[0], faces[0, 1], faces[1, 1], faces[0, 2],
                           faces[1, 2], "x", fluxes[2], upwind[:-1]) \
            if nq == 2 else None
        # Cell j lies between faces j-1 and j: differences of the mass
        # (and transverse) flux, and of the normal-momentum flux plus the
        # minus-side correction at face j less the plus-side one at j-1.
        carried = cell_fluxes[::2]
        diff = flux_floats[:nq]
        self.carried = carried[:, 1:-1], carried[:, :-2], diff[:, 1:-1]
        self.carried_inner = diff.reshape(nq, rows, e)[:, :, 2:-2]
        minus, plus = self.spare, self.z_face
        self.normal = (fluxes[1], face_h[0], minus[:-1], face_h[1], plus[:-1],
                       minus[1:-1], plus[:-2], self.centered[1:-1])
        self.normal_inner = minus.reshape(rows, e)[:, 2:-2]
        self.wall_faces = cell_fluxes[0].reshape(rows, e)[:, 1:n + 2:n].T

    def run(self, h, q, z, carried_div, normal_div, faces):
        """Flux divergence of one block of ghost-filled rows.

        h and z are (rows, n+4), q is (nq, rows, n+4) with the normal
        discharge first. Writes (f[1:] - f[:-1]) / d of the mass (and
        transverse) flux into carried_div, the normal-momentum
        divergence with its topography terms into normal_div, and the
        mass flux through the two end faces of each row into faces
        (2, rows).
        """
        g, d = self.g, self.d
        depth, speeds, last = self.gather
        np.copyto(depth, h)
        velocity(h, q, self.h_eps, out=speeds, wet=self.wet)
        if self.second_order:
            np.add(h, z, out=last)
            muscl_slopes(self.values, d, out=self.slopes, work=self.slope_work)
            np.multiply(self.slopes, self.half_step, out=self.traces)
            np.add(self.traces, self.values, out=self.traces)
            # Free-surface traces minus depth traces give the bed traces.
            surface, depth_traces = self.bed
            np.subtract(surface, depth_traces, out=surface)
        else:
            np.copyto(last, z)
            np.copyto(self.traces, self.values)

        hydrostatic_sides(*self.hydrostatic)
        centered_correction(*self.cell_traces, g, out=self.centered,
                            work=self.spare)
        face_h, face_states, work = self.pressure
        interface_pressure_correction(face_h, face_states, g, out=face_h,
                                      work=work)
        states, fluxes = self.riemann
        FLUX_FUNCTIONS[self.flux](states, g, fluxes, self.flux_work)
        if self.transverse is not None:
            # Transverse momentum rides on the mass flux, upwinded by the
            # normal velocities (same rule for both sweep directions).
            transverse_component(*self.transverse)

        after, before, diff = self.carried
        np.subtract(after, before, out=diff)
        np.divide(self.carried_inner, d, out=carried_div)
        flux, corr_minus, minus, corr_plus, plus, minus_in, plus_prev, \
            centered = self.normal
        np.add(flux, corr_minus, out=minus)
        np.add(flux, corr_plus, out=plus)
        np.subtract(minus_in, plus_prev, out=minus_in)
        np.subtract(minus_in, centered, out=minus_in)
        np.divide(self.normal_inner, d, out=normal_div)
        np.copyto(faces, self.wall_faces)


def _blocks(rows, cells_per_row):
    """Balanced (start, stop) row ranges under the SWEEP_CELLS budget."""
    count = -(-rows // max(1, SWEEP_CELLS // cells_per_row))
    size = -(-rows // count)
    return [(start, min(start + size, rows)) for start in range(0, rows, size)]


# ------------------------------------------------ compiled sweep kernel
# _sweep.c implements _Sweep.run row by row, bit for bit. It is built on
# first use into a per-user cache and loaded with ctypes; without a
# working C compiler the numpy kernel runs instead.

_SWEEP_SOURCE = pathlib.Path(__file__).with_name("_sweep.c")
# -fno-math-errno lets sqrt inline and -fno-trapping-math lets the
# comparisons that feed selects be if-converted, so the loops vectorize
# with baseline SSE2; neither changes a computed value. No contraction,
# no -ffast-math, no -march=native: each would change results' bits.
_SWEEP_FLAGS = ("-O3", "-fno-math-errno", "-fno-trapping-math",
                "-ffp-contract=off", "-fPIC", "-shared")


# The kernel's array operands and their axes, in struct sweep's order.
_SWEEP_OPERANDS = (("h", "row", "cell"), ("q", "var", "row", "cell"),
                   ("z", "row", "cell"), ("carried", "var", "row", "cell"),
                   ("normal", "row", "cell"), ("faces", "side", "row"))


class _SweepBlock(ctypes.Structure):
    """struct sweep of _sweep.c: one block of rows, strides in elements."""

    _fields_ = (
        [(name, ctypes.c_ssize_t) for name in
         ("rows", "n", "nq", "second_order", "rusanov", "accumulate")]
        + [(name, ctypes.c_double) for name in
           ("d", "g", "h_eps", "face_h_eps")]
        + [field for name, *axes in _SWEEP_OPERANDS
           for field in [(name, ctypes.c_void_p)]
           + [(f"{name}_{axis}", ctypes.c_ssize_t) for axis in axes]]
        + [("work", ctypes.c_void_p)])


def _cache_dir():
    """$XDG_CACHE_HOME/swekit or ~/.cache/swekit; else a private
    directory under the system's temporary directory."""
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(
        os.path.expanduser("~"), ".cache")
    directory = os.path.join(base, "swekit")
    try:
        os.makedirs(directory, exist_ok=True)
        if os.access(directory, os.W_OK):
            return directory
    except OSError:
        pass
    # A shared directory: only a library this user built may be loaded.
    directory = os.path.join(tempfile.gettempdir(), f"swekit-{os.getuid()}")
    os.makedirs(directory, mode=0o700, exist_ok=True)
    if os.stat(directory).st_uid != os.getuid():
        raise OSError(f"{directory} belongs to another user")
    return directory


def _digest(path):
    with open(path, "rb") as stream:
        return hashlib.sha256(stream.read()).hexdigest()


def _compile(compiler, target):
    """Build the kernel into target; OSError if the compiler fails."""
    # Imported here: a run that finds the library cached needs neither
    # the module nor a process.
    import subprocess

    try:
        subprocess.run([compiler, *_SWEEP_FLAGS, "-o", target,
                        str(_SWEEP_SOURCE)], check=True, capture_output=True,
                       timeout=300)
    except subprocess.SubprocessError as exc:
        raise OSError(f"{compiler} failed: {exc}") from exc


def _library_path():
    """Path of the built kernel, building it first if the cache has none.

    The cache key hashes the source, the flags and the compiler: its
    resolved path, size and modification time, which change with its
    version and cost no process to read. The library is compiled to a
    temporary file and moved into place, and its SHA-256 is stored
    beside it: a library whose bytes do not match (a truncated file,
    say) is rebuilt, not loaded.
    """
    compiler = shutil.which("gcc") or shutil.which("cc")
    if compiler is None:
        raise OSError("no C compiler on PATH")
    executable = os.path.realpath(compiler)
    info = os.stat(executable)
    identity = f"{executable} {info.st_size} {info.st_mtime_ns}"
    key = hashlib.sha256(b"\0".join(
        (_SWEEP_SOURCE.read_bytes(), identity.encode(),
         " ".join(_SWEEP_FLAGS).encode()))).hexdigest()[:32]
    directory = _cache_dir()
    path = os.path.join(directory, f"sweep-{key}.so")
    digest_path = path + ".sha256"
    try:
        with open(digest_path, encoding="ascii") as stream:
            if stream.read() == _digest(path):
                return path
    except FileNotFoundError:
        pass
    temporary = []
    try:
        for suffix in (".so", ".sha256"):
            fd, name = tempfile.mkstemp(suffix=suffix, dir=directory)
            os.close(fd)
            temporary.append(name)
        built, digest = temporary
        _compile(compiler, built)
        with open(digest, "w", encoding="ascii") as stream:
            stream.write(_digest(built))
        os.replace(built, path)
        os.replace(digest, digest_path)
    finally:
        for name in temporary:
            with contextlib.suppress(FileNotFoundError):
                os.remove(name)
    return path


@functools.cache
def _sweep_kernel():
    """(sweep, work size) functions of the compiled kernel, or None.

    Built and loaded once per process. None, after one warning, when no
    C compiler is found or the build fails: the numpy kernel runs.
    """
    try:
        library = ctypes.CDLL(_library_path())
    except OSError as exc:
        LOG.warning("compiled sweep kernel unavailable, running the numpy "
                    "kernel: %s", exc)
        return None
    sweep, work = library.swekit_sweep, library.swekit_sweep_work
    sweep.argtypes, sweep.restype = [ctypes.POINTER(_SweepBlock)], None
    work.argtypes = [ctypes.c_ssize_t, ctypes.c_ssize_t]
    work.restype = ctypes.c_ssize_t
    return sweep, work


def _operand(array, shape):
    """Address and element strides of a float64 view, for a _SweepBlock."""
    if array.dtype != np.float64 or array.shape != shape \
            or any(s % array.itemsize for s in array.strides):
        raise ValueError(f"the sweep kernel needs a float64 view of shape "
                         f"{shape}, got {array.dtype} {array.shape}")
    return (array.ctypes.data,
            *(s // array.itemsize for s in array.strides))


def _compiled_block(rows, n, nq, d, scheme, h, q, z, carried, normal, faces,
                    work, accumulate):
    """The _SweepBlock of one call: the arguments of _Sweep.run, plus
    work and whether to add into the outputs instead of storing."""
    row, inner = (rows, n + 4), (rows, n)
    values = (rows, n, nq, scheme.order == 2, scheme.flux_name == "rusanov",
              accumulate, d, scheme.g, scheme.h_eps, H_EPS,
              *_operand(h, row), *_operand(q, (nq, *row)), *_operand(z, row),
              *_operand(carried, (nq, *inner)), *_operand(normal, inner),
              *_operand(faces, (2, rows)), work.ctypes.data)
    return ctypes.pointer(_SweepBlock(*values))


def _positive_sum(values):
    """Sum of max(v, 0) over a side's faces. A side of one face comes as
    a float, on which this is ten times cheaper than on an array."""
    if isinstance(values, float):
        return max(values, 0.0)
    return np.maximum(values, 0.0).sum()


class _Workspace:
    """Every buffer a run's steps write, allocated once per run.

    ext holds the state and bed with a two-cell ghost frame; full is a
    grid-shaped Scratch whose first floats are the flux divergence phi
    during a stage, and whose floats and flags are scratch for
    infiltration (if `infiltration`), friction, the validity check and
    the time step otherwise; stage receives the first Heun stage. kernel
    names the sweep kernel that runs: "c" (one block per direction) or
    "numpy" (blocks over one pool).
    """

    def __init__(self, grid, z, scheme, bcs, infiltration=False):
        nx, ny = grid.nx, grid.ny
        self.two_d = not grid.is_1d
        nq = len(grid.shape)
        self.shape = (nq + 1,) + grid.shape
        floats, flags = nq + 1, 1
        if infiltration:
            floats = max(floats, INFILTRATION_FLOATS)
            flags = max(flags, INFILTRATION_FLAGS)
        self.full = Scratch.empty(grid.shape, floats, flags)
        self.phi = self.full.floats[:nq + 1]
        self.stage = np.empty(self.shape)

        # The fields and the bed, each with a two-cell ghost frame.
        self.ext = ext = np.empty((nq + 2,) + tuple(n + 4 for n in grid.shape))
        self.interior = ext[(slice(None),) + (slice(2, -2),) * nq]
        self.interior[-1] = z
        self.fill_args = (*ext, *grid.shape[::-1], bcs, scheme.g)

        # (rows, n, d) per direction and its blocks. A face's width is
        # the product of the other directions' spacings: 1 in 1D, where
        # volumes are per meter of width.
        spacings = grid.spacings
        self.cell_area = math.prod(spacings)
        self.widths = [math.prod(spacings[:k] + spacings[k + 1:])
                       for k in range(nq)]
        self.directions = directions = ((ny, nx, grid.dx),
                                        (nx, ny, grid.dy))[:nq]
        self.faces = np.empty((nq, 2, max(rows for rows, _, _ in directions)))
        # The x sweeps run on the interior rows of the frame (the one row
        # of a 1D frame), the y sweeps on its transposed interior columns.
        phi = self.phi.reshape(nq + 1, ny, nx)
        x_rows = ext[:, 2:-2] if self.two_d else ext[:, None]
        compiled = _sweep_kernel()
        self.kernel = "numpy" if compiled is None else "c"
        if compiled is None:
            self.blocks = self._numpy_blocks(phi, x_rows, nq, scheme)
            return
        sweep, work_size = compiled
        # Element strides let the kernel read the transposed views as
        # they are and add the y sweep straight into phi.
        self.sweep_work = work = np.empty(
            max(work_size(n, nq) for _, n, _ in directions))
        operands = [(x_rows[0], x_rows[1:-1], x_rows[-1], phi[::2], phi[1],
                     self.faces[0, :, :ny], work, False)]
        if self.two_d:
            operands.append((ext[0, :, 2:-2].T,
                             ext[2:0:-1, :, 2:-2].transpose(0, 2, 1),
                             ext[3, :, 2:-2].T, phi[:2].transpose(0, 2, 1),
                             phi[2].T, self.faces[1, :, :nx], work, True))
        self.blocks = [
            (sweep, (_compiled_block(rows, n, nq, d, scheme, *args),), None)
            for (rows, n, d), args in zip(directions, operands)]

    def _numpy_blocks(self, phi, x_rows, nq, scheme):
        """(run, arguments, post) of every block of the numpy kernel.

        The sweep blocks of both directions share one pool. x sweeps
        write phi directly; y sweeps write a block buffer that post then
        adds, transposed, into phi.
        """
        ext, directions, (ny, nx) = self.ext, self.directions, phi.shape[1:]
        spans = [_blocks(rows, n + 4) for rows, n, _ in directions]
        shapes = {(stop - start, n) for (rows, n, _), blocks in
                  zip(directions, spans) for start, stop in blocks}
        need = [max(_Sweep.sizes(r, n, nq)[i] for r, n in shapes)
                for i in range(3)]
        self.pool = pool = (np.empty(need[0]), np.empty(need[1]),
                            np.empty(need[2], dtype=bool))
        sweeps = {}

        def sweep(rows, n, d):
            if (rows, n, d) not in sweeps:
                sweeps[rows, n, d] = _Sweep(pool, rows, n, nq, d, scheme)
            return sweeps[rows, n, d].run

        blocks = []
        for start, stop in spans[0]:
            rows = x_rows[:, start:stop]
            block = phi[:, start:stop]
            blocks.append((sweep(stop - start, nx, directions[0][2]),
                           (rows[0], rows[1:-1], rows[-1], block[::2],
                            block[1], self.faces[0, :, start:stop]),
                           None))
        if not self.two_d:
            return blocks
        y_rows = spans[1][0][1]
        self.y_div = y_div = np.empty((3, y_rows, ny))
        for start, stop in spans[1]:
            cols = slice(2 + start, 2 + stop)
            div = y_div[:, :stop - start]
            blocks.append((sweep(stop - start, ny, directions[1][2]),
                           (ext[0, :, cols].T,
                            ext[2:0:-1, :, cols].transpose(0, 2, 1),
                            ext[3, :, cols].T, div[:2], div[2],
                            self.faces[1, :, start:stop]),
                           (phi[:, :, start:stop], div.transpose(0, 2, 1))))
        return blocks

    def divergence(self, fields, warnings):
        """Flux divergence phi of the stacked fields into self.phi."""
        np.copyto(self.interior[:-1], fields)
        fill = fill_ghosts_2d if self.two_d else fill_ghosts_1d
        fill(*self.fill_args, warnings)
        for run, args, post in self.blocks:
            run(*args)
            if post is not None:
                np.add(post[0], post[1], out=post[0])
        return self.phi

    def boundary_volumes(self):
        """Volume rates into and out of the domain through its sides.

        Each direction's low and high side faces, times their width (1 in
        1D), summed over the directions.
        """
        into = outof = 0.0
        for (rows, _, _), faces, width in zip(self.directions, self.faces,
                                              self.widths):
            low, high = faces[:, 0].tolist() if rows == 1 else faces[:, :rows]
            into += (_positive_sum(low) + _positive_sum(-high)) * width
            outof += (_positive_sum(-low) + _positive_sum(high)) * width
        return float(into), float(outof)


def spatial_operator_phi(state, z, grid, scheme, bcs, t=0.0, rain=None):
    """Full per-cell increment, sign convention W* = W - dt * phi.

    Includes the convective terms, topography corrections, and rain
    (which enters the mass component negatively: it adds water). On a
    lake at rest the momentum components vanish and the mass component
    is exactly -rain_rate(t).
    """
    r = rain_rate(t, rain)
    work = _Workspace(grid, np.asarray(z, dtype=float), scheme, bcs)
    phi = work.divergence(state.fields, [])
    return (phi[0] - r,) + tuple(p.copy() for p in phi[1:])


# ------------------------------------------------------------- stages


class _WarningCounter(collections.Counter):
    """Regime-mismatch messages with how often each was raised.

    Boundary code reports through append(); a mismatch that lasts the
    whole run keeps one entry, not one per stage.
    """

    def append(self, message):
        self[message] += 1


@dataclass
class _RunContext:
    grid: Grid
    z: np.ndarray
    scheme: SchemeConfig
    bcs: BoundarySet
    friction: FrictionParams
    rain: Optional[Hyetograph]
    warnings: _WarningCounter
    work: _Workspace


def _enforce_validity(fields, t, scheme, dry):
    """Dry convention, roundoff clamping, and the NaN/Inf guard.

    fields stacks (h, discharges...) on its first axis; dry is a bool
    buffer of h's shape.
    """
    h = fields[0]
    h_min = h.min()
    if h_min < 0.0:
        if h_min < -NEGATIVE_DEPTH_TOL:
            idx = np.unravel_index(int(np.argmin(h)), h.shape)
            raise NumericalFault(t, idx, f"negative depth {h_min:.3e}")
        np.maximum(h, 0.0, out=h)
    np.less_equal(h, scheme.h_eps, out=dry)
    if dry.any():
        np.copyto(fields[1:], 0.0, where=dry)
    # A finite sum certifies every entry finite (values are O(1), far
    # from overflow); the detailed scan only runs on the failure path.
    if not np.isfinite(np.add.reduce(fields, axis=None)):
        bad = ~np.isfinite(fields).all(axis=0)
        where = np.argmax(bad) if bad.any() else np.argmax(np.abs(h))
        idx = np.unravel_index(int(where), h.shape)
        raise NumericalFault(t, idx, "non-finite state")


def _stage(state, ga, t_source, dt, ctx, out):
    """One explicit stage from state into out, shaped (fields,) + grid."""
    grid, work, scheme = ctx.grid, ctx.work, ctx.scheme
    fields = state.fields
    phi = work.divergence(fields, ctx.warnings)
    np.multiply(phi, dt, out=phi)
    np.subtract(fields, phi, out=out)
    h_new = out[0]

    r = rain_rate(t_source, ctx.rain)
    rain_vol = 0.0
    if r > 0.0:
        h_new += r * dt
        rain_vol = r * dt * grid.nx * grid.ny * work.cell_area
    infil_vol = 0.0
    if ga is not None:
        dv, ga = infiltration_step(ga, h_new, dt, work.full)
        h_new -= dv
        infil_vol = float(dv.sum()) * work.cell_area
    if ctx.friction.law != "none":
        if work.two_d:
            friction_semi_implicit_2d(
                out[1], out[2], fields[1], fields[2], fields[0], h_new,
                ctx.friction, dt, scheme.g, scheme.h_eps,
                out=(out[1], out[2]), work=work.full)
        else:
            friction_semi_implicit(out[1], fields[1], fields[0], h_new,
                                   ctx.friction, dt, scheme.g, scheme.h_eps,
                                   out=out[1], work=work.full)
    _enforce_validity(out, t_source, scheme, work.full.flags[0])

    vol_in, vol_out = work.boundary_volumes()
    diag = StageDiag(rain_vol, infil_vol, vol_in * dt, vol_out * dt)
    return State(out), ga, diag


def euler_step(state, ga, t, dt, ctx):
    """One first-order step: a single stage with sources at time t."""
    return _stage(state, ga, t, dt, ctx, np.empty(ctx.work.shape))


def heun_step(state, ga, t, dt, ctx):
    """One second-order step: average of the state and a two-stage chain.

    Both stages draw the rain rate at the step's start time: the driver
    lands exactly on hyetograph changes, so the rate is constant over
    [t, t+dt) and this reproduces the hyetograph integral exactly. The
    first stage lives in the workspace; the returned state is new.
    """
    s1, ga1, d1 = _stage(state, ga, t, dt, ctx, ctx.work.stage)
    new = np.empty(ctx.work.shape)
    new_state, ga2, d2 = _stage(s1, ga1, t, dt, ctx, new)
    np.add(state.fields, new, out=new)
    np.multiply(new, 0.5, out=new)
    if ga is not None:
        # ga2.v_inf is this step's own new array: average into it.
        v_inf = np.add(ga.v_inf, ga2.v_inf, out=ga2.v_inf)
        ga = GreenAmptState(ga.params, np.multiply(0.5, v_inf, out=v_inf))
    _enforce_validity(new, t + dt, ctx.scheme, ctx.work.full.flags[0])
    return new_state, ga, _combine_heun_diags(d1, d2)


def _advance(step, state, ga, t, dt, ctx, retry):
    """step(state, ga, t, dt, ctx), halving dt after a NumericalFault.

    Returns the step's (state, ga, diag), the dt it took and how often
    that dt was halved. Without retry a fault is raised at once. A
    failed attempt changes nothing its retry reads.
    """
    halvings = 0
    while True:
        try:
            return (*step(state, ga, t, dt, ctx), dt, halvings)
        except NumericalFault as fault:
            if not retry or halvings == MAX_STEP_HALVINGS:
                raise
            LOG.info("%s; taking the step again with dt = %.6g", fault,
                     0.5 * dt)
        dt *= 0.5
        halvings += 1


# ---------------------------------------------------------- simulation


@dataclass(frozen=True)
class SimulationConfig:
    """Everything run_simulation needs, already in solver units."""

    grid: Grid
    topography: np.ndarray
    initial_state: object
    final_time: float
    scheme: SchemeConfig = SchemeConfig()
    boundaries: BoundarySet = BoundarySet()
    friction: FrictionParams = FrictionParams()
    rain: Optional[Hyetograph] = None
    infiltration: Optional[GreenAmptParams] = None
    output_times: tuple = ()
    name: str = "run"
    output_dir: Optional[str] = None

    def __post_init__(self):
        shape = self.grid.shape
        if np.shape(self.topography) != shape:
            raise ValueError(
                f"topography shape {np.shape(self.topography)} does not match "
                f"the grid {shape}")
        if np.shape(self.initial_state.fields) != (len(shape) + 1,) + shape:
            raise ValueError("initial state shape does not match the grid")
        if np.min(self.initial_state.h) < 0.0:
            raise ValueError("initial depths must be nonnegative")
        if not self.final_time >= 0.0:
            raise ValueError("final_time must be nonnegative")
        check_periodic_pairing(self.boundaries, not self.grid.is_1d)
        self.scheme.cfl_for(len(shape))  # raises if out of range
        if any(t <= 0.0 or t > self.final_time + _TIME_ATOL
               for t in self.output_times):
            raise ValueError("output times must lie in (0, final_time]")


@dataclass
class MassBalanceRow:
    time: float
    volume: float
    rain: float
    infiltration: float
    boundary_in: float
    boundary_out: float
    residual: float
    residual_rel: float


@dataclass
class RunResult:
    snapshots: list
    mass_balance: list
    steps: int
    final_change_rate: float
    min_depth_seen: float
    warnings: list
    # The sweep kernel that ran: "c" (compiled) or "numpy".
    sweep_kernel: str
    ga_state: Optional[GreenAmptState] = None
    # Steps taken again with a smaller dt after a fault (see _advance).
    retried_steps: int = 0

    @property
    def final_time(self):
        return self.snapshots[-1][0]

    @property
    def final_state(self):
        return self.snapshots[-1][1]


def _landing_times(config):
    times = {float(config.final_time)}
    times.update(float(t) for t in config.output_times)
    if config.rain is not None:
        times.update(t for t in config.rain.change_times()
                     if 0.0 < t < config.final_time)
    return sorted(times)


def run_simulation(config, on_step=None):
    """Advance the configured case to its final time.

    on_step, if given, is called as on_step(t, state, dt) after every
    accepted step. Returns a RunResult with snapshots at t = 0, every
    requested output time, and the final time, plus a mass-balance
    ledger verified at each snapshot.
    """
    grid = config.grid
    state = config.initial_state.copy()
    z = np.asarray(config.topography, dtype=float)
    ga = None
    if config.infiltration is not None:
        ga = GreenAmptState.zeros(config.infiltration, state.h.shape)

    work = _Workspace(grid, z, config.scheme, config.boundaries,
                      infiltration=ga is not None)
    ctx = _RunContext(grid, z, config.scheme, config.boundaries,
                      config.friction, config.rain, _WarningCounter(), work)
    step = euler_step if config.scheme.order == 1 else heun_step
    LOG.info("%s: %s sweep kernel", config.name, work.kernel)

    t = 0.0
    steps = 0
    retried_steps = 0
    cum = StageDiag()
    volume0 = total_volume(state, grid)
    min_depth = float(np.min(state.h))
    change_rate = 0.0

    snapshots = [(0.0, state.copy())]
    output_set = {round(float(tt), 12) for tt in config.output_times}
    output_set.add(round(float(config.final_time), 12))
    mass_rows = [MassBalanceRow(0.0, volume0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)]

    landing = _landing_times(config)
    target_idx = 0
    final_time = float(config.final_time)

    while t < final_time - _TIME_ATOL:
        while target_idx < len(landing) and landing[target_idx] <= t + _TIME_ATOL:
            target_idx += 1
        target = landing[target_idx]
        if config.scheme.fixed_dt is not None:
            dt = config.scheme.fixed_dt
        else:
            dt = compute_dt(state, grid, config.scheme, config.boundaries,
                            work.full)
        if not dt > 0.0:
            raise NumericalFault(t, (0,), f"non-positive time step {dt}")
        hit_target = t + dt >= target - _TIME_ATOL
        if hit_target:
            dt = target - t

        new_state, ga, diag, step_dt, halvings = _advance(
            step, state, ga, t, dt, ctx, config.scheme.fixed_dt is None)
        if halvings:
            retried_steps += 1
            dt, hit_target = step_dt, False
        steps += 1
        cum.rain_vol += diag.rain_vol
        cum.infil_vol += diag.infil_vol
        cum.boundary_in_vol += diag.boundary_in_vol
        cum.boundary_out_vol += diag.boundary_out_vol

        t_new = target if hit_target else t + dt
        if t_new >= final_time - _TIME_ATOL:
            # The last step: its max |new - old| over the fields, over dt,
            # is the run's change rate.
            change = work.full.floats[:len(state.fields)]
            np.subtract(new_state.fields, state.fields, out=change)
            change_rate = float(np.max(np.abs(change, out=change))) / dt
        state, t = new_state, t_new
        min_depth = min(min_depth, float(np.min(state.h)))

        if on_step is not None:
            on_step(t, state, dt)

        if hit_target and round(t, 12) in output_set:
            snapshots.append((t, state.copy()))
            volume = total_volume(state, grid)
            residual = volume - (volume0 + cum.rain_vol - cum.infil_vol
                                 + cum.boundary_in_vol - cum.boundary_out_vol)
            scale = max(abs(volume), abs(volume0), cum.rain_vol,
                        cum.boundary_in_vol, work.cell_area)
            rel = abs(residual) / scale
            if rel > 1e-8:
                LOG.warning("%s: mass-balance residual %.3e (relative %.3e) at t=%g",
                            config.name, residual, rel, t)
            mass_rows.append(MassBalanceRow(
                t, volume, cum.rain_vol, cum.infil_vol,
                cum.boundary_in_vol, cum.boundary_out_vol, residual, rel))

    for msg in sorted(ctx.warnings):
        LOG.warning("%s: %s", config.name, msg)

    return RunResult(snapshots, mass_rows, steps, change_rate, min_depth,
                     sorted(ctx.warnings), work.kernel, ga, retried_steps)

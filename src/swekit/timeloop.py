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
the stack, and 1D and 2D run the same step code. run_simulation creates
one _Workspace per run and every step writes into it:

* ext: the fields and bed, each with a two-cell ghost frame;
* full: a grid-shaped Scratch whose floats hold the flux divergence phi
  during a stage, and serve infiltration, friction, the validity check
  and compute_dt otherwise;
* stage: the first Heun stage;
* the sweep kernel's scratch.

A stage is the ghost fill, the sweep, then its pointwise tail: the
update fields - phi*dt, rain, infiltration, friction and the validity
check. A Heun step then averages its two stages and checks the average,
and run_simulation takes the next dt from the CFL supremum of |u| + c.
A step runs one of two ways, as part of one of two time loops:

* In the compiled loop, wherever a C compiler is found: the step of
  _native.c, driven by _compiled.CompiledStep.run, runs the time loop
  up to each landing time, and returns to Python only where numpy still
  computes or decides, or the caller sees the run (_native.c's step
  section). The bed's ghosts are filled once per run; the step is
  compiled at the vector level of the sweep _sweep_kernel binds, and
  calls that sweep. This is the only compiled code that takes a step.
* In the numpy loop, _numpy_run, through the numpy step helpers:
  heun_step or euler_step runs _stage, which fills the frame with
  fill_ghosts_1d or fill_ghosts_2d, runs the sweep, then _numpy_tail;
  heun_step averages with _numpy_average, and compute_dt calls
  _wave_speed_sups and _bc_speed. The sweep is the one the build bound:
  the numpy kernel where no compiler is found, and the compiled one
  where a step helper is rebound (a profiler's wrapper), which makes
  run_simulation take this loop. This is the compiled loop's reference,
  and calls the functions of boundary and sources.

The convective update is one sweep kernel with two implementations of
one contract (_Sweep.run): it serves 1D as a single row and each 2D
direction as a block of rows, and returns per row the carried and the
normal flux divergence and the mass flux through the two end faces.

* The compiled kernel, the sweep of _native.c, runs wherever a C
  compiler is found; _native builds, caches and loads the library (see
  its docstring for the flags, none of which changes a computed value).
  The library holds one sweep and one step per x86 vector level
  (baseline, avx2), both from the same code and giving the same bits,
  and _sweep_kernel binds the widest this CPU supports. One foreign call
  per direction sweeps every row through element strides: the y sweep
  reads the transposed frame as it is and adds into phi a tile of rows
  at a time. A block needs O(n) scratch.
* The numpy kernel (_Sweep) runs when no compiler is found or the build
  fails, after one warning. A block stacks the variables (h, u_n[, u_t],
  h+z) on one axis and the two interface sides (minus, plus) on
  another, so each formula is one ufunc call that writes with out= into
  a pool; the y sweep copies the transposed frame into contiguous
  rows. A direction's rows are split evenly into blocks of at most
  SWEEP_CELLS cells, so the pool stays under 4 MiB whatever the grid.
  Each formula exists once, in core, reconstruction, fluxes and
  sources, and this kernel calls those functions.

Nothing selects the kernels but the build and the CPU:
RunResult.sweep_kernel names the sweep that ran, and run_simulation logs
it at INFO, with the compiled kernel's vector level and the table writer
that fileio will use. The two implementations give the same bits: the C
code keeps the floating-point operation order of every numpy formula,
and follows numpy's min/max (NaN propagates, a tie returns the second
operand); tests/test_timeloop.py pairs every vector level the CPU
supports with the numpy code on random states and whole steps, with the
same warnings and the same NumericalFault (cell and time). The numpy
kernel is in turn bitwise identical to the allocating operator it
replaced, which the tests keep as the reference. A step returns a
State over a new array: no view of the workspace reaches a State the
caller sees.
"""

import collections
import logging
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import _compiled, _native, fileio
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
RETRY_MESSAGE = "%s; taking the step again with dt = %.6g"


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
    work, if given, is the run's _Workspace: the supremum runs in its
    scratch.
    """
    spacings = grid.spacings
    cfl = scheme.cfl_for(len(spacings))
    fields = state.fields
    sups = _wave_speed_sups(fields, scheme, Scratch.empty(
        fields.shape[1:], len(fields), 1) if work is None else work.full)
    boost = 0.0 if bcs is None else _bc_speed(fields, bcs, scheme.g,
                                              scheme.h_eps)
    dt = min(spacings)
    # Per direction: its spacing over the supremum of its |u| + c.
    for d, sup in zip(spacings, sups):
        sup = max(sup, boost)
        if sup > 0.0:
            dt = min(dt, d / sup)
    return cfl * dt


def _wave_speed_sups(fields, scheme, work):
    """Per direction, the supremum of |u| + sqrt(g h) over the wet cells
    (0.0 without one), as floats. work is a Scratch of the grid shape
    with one float per discharge plus one, and one flag."""
    h = fields[0]
    wet = np.greater(h, scheme.h_eps, out=work.flags[0])
    celerity = np.multiply(h, scheme.g, out=work.floats[0])
    np.sqrt(celerity, out=celerity, where=wet)
    sups = []
    # One field at a time: on grid-shaped arrays numpy takes its fast
    # path.
    for q, speed in zip(fields[1:], work.floats[1:]):
        np.abs(q, out=speed)
        np.divide(speed, h, out=speed, where=wet)
        np.add(speed, celerity, out=speed)
        sups.append(float(speed.max(where=wet, initial=0.0)))
    return sups


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
                           faces[1, 2], fluxes[2], upwind[:-1]) \
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
        FLUX_FUNCTIONS[self.flux](states, g, self.h_eps, fluxes,
                                  self.flux_work)
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
# The sweep of _native.c implements _Sweep.run row by row, bit for bit,
# at each vector level; without a working C compiler the numpy kernel
# runs instead. _compiled holds its binding and the compiled step's.


def _sweep_kernel(level=None):
    """(sweep, work size, level) of the compiled kernel at a vector level
    this CPU supports, by default the widest; None where the library
    could not be built: the numpy kernel runs."""
    library = _native.library()
    if library is None:
        return None
    level = level or _native.sweep_levels()[-1]
    return (getattr(library, f"swekit_sweep_{level}"),
            library.swekit_sweep_work, level)


def sweep_kernel_name():
    """The sweep kernel this process runs: "c" or "numpy"."""
    return "numpy" if _sweep_kernel() is None else "c"


def sweep_level():
    """The vector level of the compiled sweep this process runs, or None
    where the numpy kernel runs."""
    compiled = _sweep_kernel()
    return None if compiled is None else compiled[2]


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
    "numpy" (blocks over one pool); level, the compiled kernel's vector
    level, and compiled, the compiled time loop over these buffers (both
    None for numpy).
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
        self.h_eps = scheme.h_eps

        # (rows, n, d) per direction and its blocks. A face's width is
        # the product of the other directions' spacings: 1 in 1D, where
        # volumes are per meter of width.
        spacings = grid.spacings
        self.cell_area = math.prod(spacings)
        self.widths = [math.prod(spacings[:k] + spacings[k + 1:])
                       for k in range(nq)]
        # A periodic pair of sides is a seam, not a boundary.
        self.periodic = [getattr(bcs, low).kind == "periodic"
                         for low, _ in SIDES[:nq]]
        self.directions = directions = ((ny, nx, grid.dx),
                                        (nx, ny, grid.dy))[:nq]
        self.faces = np.empty((nq, 2, max(rows for rows, _, _ in directions)))
        # The x sweeps run on the interior rows of the frame (the one row
        # of a 1D frame), the y sweeps on its transposed interior columns.
        phi = self.phi.reshape(nq + 1, ny, nx)
        x_rows = ext[:, 2:-2] if self.two_d else ext[:, None]
        compiled = _sweep_kernel()
        self.kernel = "numpy" if compiled is None else "c"
        self.level = self.compiled = None
        if compiled is None:
            self.blocks = self._numpy_blocks(phi, x_rows, nq, scheme)
            return
        sweep, work_size, self.level = compiled
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
            (sweep, (_compiled.sweep_block(rows, n, nq, d, scheme, *args),),
             None)
            for (rows, n, d), args in zip(directions, operands)]
        # The bed's ghosts, once: the compiled step fills the others.
        ext[:-1] = 0.0
        self.fill([])
        self.compiled = _compiled.CompiledStep(
            _native.library(), self.level, self, grid, scheme, bcs,
            infiltration)

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

    def fill(self, warnings):
        """The ghost frame of ext, by fill_ghosts_1d or fill_ghosts_2d."""
        fill = fill_ghosts_2d if self.two_d else fill_ghosts_1d
        fill(*self.fill_args, warnings, self.h_eps)

    def divergence(self, fields, warnings):
        """Flux divergence phi of the stacked fields into self.phi."""
        np.copyto(self.interior[:-1], fields)
        self.fill(warnings)
        for run, args, post in self.blocks:
            run(*args)
            if post is not None:
                np.add(post[0], post[1], out=post[0])
        return self.phi

    def boundary_volumes(self, faces):
        """Volume rates into and out of the domain through its sides.

        faces holds each direction's low and high side faces, as the
        sweeps write them into self.faces. Their flows times their width
        (1 in 1D) are summed over the directions, periodic ones aside.
        """
        into = outof = 0.0
        for (rows, _, _), sides, width, periodic in zip(
                self.directions, faces, self.widths, self.periodic):
            if periodic:
                continue
            low, high = sides[:, 0].tolist() if rows == 1 else sides[:, :rows]
            into += (_positive_sum(low) + _positive_sum(-high)) * width
            outof += (_positive_sum(-low) + _positive_sum(high)) * width
        return float(into), float(outof)


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
    _check_finite(fields, t)


def _check_finite(fields, t):
    """The NaN/Inf guard of _enforce_validity."""
    # A finite sum certifies every entry finite (values are O(1), far
    # from overflow); the detailed scan only runs on the failure path.
    if not np.isfinite(np.add.reduce(fields, axis=None)):
        h = fields[0]
        bad = ~np.isfinite(fields).all(axis=0)
        where = np.argmax(bad) if bad.any() else np.argmax(np.abs(h))
        idx = np.unravel_index(int(where), h.shape)
        raise NumericalFault(t, idx, "non-finite state")


def _numpy_tail(fields, phi, out, ga, dt, r, ctx, t):
    """A stage after the sweep, in numpy: out = fields - phi*dt, rain,
    infiltration, friction and the validity check at time t. Returns the
    new GreenAmptState (or None) and the infiltrated volume."""
    work, scheme = ctx.work, ctx.scheme
    np.multiply(phi, dt, out=phi)
    np.subtract(fields, phi, out=out)
    h_new = out[0]
    if r > 0.0:
        h_new += r * dt
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
    _enforce_validity(out, t, scheme, work.full.flags[0])
    return ga, infil_vol


def _numpy_average(fields, new, ga, ga2, t, ctx):
    """Heun's average of fields and new into new, and of the cumulative
    infiltration into ga2's, then the validity check at time t. Returns
    the averaged GreenAmptState (or None)."""
    np.add(fields, new, out=new)
    np.multiply(new, 0.5, out=new)
    if ga is not None:
        # ga2.v_inf is this step's own new array: average into it.
        v_inf = np.add(ga.v_inf, ga2.v_inf, out=ga2.v_inf)
        ga = GreenAmptState(ga.params, np.multiply(0.5, v_inf, out=v_inf))
    _enforce_validity(new, t, ctx.scheme, ctx.work.full.flags[0])
    return ga


def _stage(state, ga, t_source, dt, ctx, out):
    """One explicit stage from state into out, shaped (fields,) + grid."""
    grid, work = ctx.grid, ctx.work
    fields = state.fields
    phi = work.divergence(fields, ctx.warnings)
    r = rain_rate(t_source, ctx.rain)
    rain_vol = 0.0
    if r > 0.0:
        rain_vol = r * dt * grid.nx * grid.ny * work.cell_area
    ga, infil_vol = _numpy_tail(fields, phi, out, ga, dt, r, ctx, t_source)
    vol_in, vol_out = work.boundary_volumes(work.faces)
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
    work = ctx.work
    s1, ga1, d1 = _stage(state, ga, t, dt, ctx, work.stage)
    new = np.empty(work.shape)
    new_state, ga2, d2 = _stage(s1, ga1, t, dt, ctx, new)
    ga = _numpy_average(state.fields, new, ga, ga2, t + dt, ctx)
    return new_state, ga, _combine_heun_diags(d1, d2)


# The step helpers as this module defines them; see run_simulation.
_STEP_HELPERS = (euler_step, heun_step, compute_dt)


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
            LOG.info(RETRY_MESSAGE, fault, 0.5 * dt)
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


def _numpy_run(state, ga, ctx, landing, final_time, min_depth, on_step,
               land):
    """run_simulation's time loop in numpy, the twin and the reference of
    _compiled.CompiledStep.run, with the same arguments and results; its
    steps are the numpy step helpers, over the workspace's sweep."""
    scheme, work = ctx.scheme, ctx.work
    step = euler_step if scheme.order == 1 else heun_step
    t, steps, retried_steps, change_rate, target_idx = 0.0, 0, 0, 0.0, 0
    cum = StageDiag()
    while t < final_time - _TIME_ATOL:
        while target_idx < len(landing) and landing[target_idx] <= t + _TIME_ATOL:
            target_idx += 1
        target = landing[target_idx]
        if scheme.fixed_dt is not None:
            dt = scheme.fixed_dt
        else:
            dt = compute_dt(state, ctx.grid, scheme, ctx.bcs, work)
        if not dt > 0.0:
            raise NumericalFault(t, (0,), f"non-positive time step {dt}")
        hit_target = t + dt >= target - _TIME_ATOL
        if hit_target:
            dt = target - t

        new_state, ga, diag, step_dt, halvings = _advance(
            step, state, ga, t, dt, ctx, scheme.fixed_dt is None)
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
        if hit_target:
            land(t, state, cum)
    return steps, retried_steps, change_rate, min_depth, ga


def run_simulation(config, on_step=None):
    """Advance the configured case to its final time.

    on_step, if given, is called as on_step(t, state, dt) after every
    accepted step, with the new time and the dt the step took; what it
    changes in state, in place, is the next step's input, dt included.
    Returns a RunResult with snapshots at t = 0, every requested output
    time, and the final time, plus a mass-balance ledger verified at
    each snapshot. The loop runs compiled (_compiled.CompiledStep.run),
    or in numpy (_numpy_run) where the sweep does or a step helper is
    rebound (a profiler's wrapper), with the same bits; the numpy loop
    calls the step helpers every step.
    """
    grid = config.grid
    state = config.initial_state.copy()
    z = np.asarray(config.topography, dtype=float)
    ga = None
    if config.infiltration is not None:
        ga = GreenAmptState.zeros(config.infiltration, state.h.shape)

    work = _Workspace(grid, z, config.scheme, config.boundaries,
                      infiltration=ga is not None)
    ctx = _RunContext(grid, config.scheme, config.boundaries,
                      config.friction, config.rain, _WarningCounter(), work)
    level = f" ({work.level})" if work.level else ""
    LOG.info("%s: %s sweep kernel%s, %s writer", config.name, work.kernel,
             level, fileio.writer_name())

    volume0 = total_volume(state, grid)
    snapshots = [(0.0, state.copy())]
    output_set = {round(float(tt), 12) for tt in config.output_times}
    output_set.add(round(float(config.final_time), 12))
    mass_rows = [MassBalanceRow(0.0, volume0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)]

    def land(t, state, cum):
        """A landing's snapshot and mass row, at an output time t."""
        if round(t, 12) not in output_set:
            return
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

    compiled = work.compiled is not None and \
        (euler_step, heun_step, compute_dt) == _STEP_HELPERS
    run = work.compiled.run if compiled else _numpy_run
    steps, retried_steps, change_rate, min_depth, ga = run(
        state, ga, ctx, _landing_times(config), float(config.final_time),
        float(np.min(state.h)), on_step, land)

    for msg in sorted(ctx.warnings):
        LOG.warning("%s: %s", config.name, msg)

    return RunResult(snapshots, mass_rows, steps, change_rate, min_depth,
                     sorted(ctx.warnings), work.kernel, ga, retried_steps)

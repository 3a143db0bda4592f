"""Boundary conditions via two layers of ghost cells per side.

Kinds:
  wall               mirror depth and topography, negate normal discharge
  neumann            copy the nearest interior cell
  periodic           wrap around (must be set on both opposing sides)
  imposed_depth      prescribe h, copy discharge (subcritical boundary)
  imposed_discharge  prescribe normal discharge, copy h (subcritical)
  imposed_both       prescribe h and discharge (supercritical inflow)

Ghost topography: wall mirrors the bed and periodic wraps it, but the
open kinds (neumann and the imposed family) extrapolate the bed
linearly from the last two interior cells, so a sloping channel
continues smoothly instead of kinking flat at the boundary interface.

The imposed kinds are checked each step against the local flow regime;
on a mismatch the closest legal rule is used instead and a warning is
reported once per run:
  * imposed value(s) at a supercritical outflow        -> neumann
  * single imposed value at a supercritical inflow     -> value kept,
    the missing one copied from the interior
  * imposed_both at a subcritical boundary             -> only the
    discharge is kept for inflow, only the depth for outflow
A dry first interior cell takes its regime from the imposed values.
"""

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import G_DEFAULT, H_EPS

BC_KINDS = ("wall", "neumann", "periodic", "imposed_depth",
            "imposed_discharge", "imposed_both")

NGHOST = 2


@dataclass(frozen=True)
class BoundaryCondition:
    kind: str = "wall"
    depth: Optional[float] = None
    discharge: Optional[float] = None

    def __post_init__(self):
        if self.kind not in BC_KINDS:
            raise ValueError(f"unknown boundary kind {self.kind!r}; choose from {BC_KINDS}")
        if self.kind in ("imposed_depth", "imposed_both"):
            if self.depth is None or self.depth < 0.0:
                raise ValueError(f"{self.kind} needs a nonnegative depth")
        if self.kind in ("imposed_discharge", "imposed_both"):
            if self.discharge is None:
                raise ValueError(f"{self.kind} needs a discharge value")
        if self.kind == "imposed_both" and self.depth == 0.0 \
                and self.discharge != 0.0:
            raise ValueError("imposed_both cannot carry a nonzero discharge "
                             "on zero depth")


@dataclass(frozen=True)
class BoundarySet:
    """Per-side boundary conditions; bottom/top are unused in 1D."""

    left: BoundaryCondition = BoundaryCondition("wall")
    right: BoundaryCondition = BoundaryCondition("wall")
    bottom: BoundaryCondition = BoundaryCondition("wall")
    top: BoundaryCondition = BoundaryCondition("wall")


def check_periodic_pairing(bcs, two_d):
    pairs = [("left", bcs.left, "right", bcs.right)]
    if two_d:
        pairs.append(("bottom", bcs.bottom, "top", bcs.top))
    for name_a, a, name_b, b in pairs:
        if (a.kind == "periodic") != (b.kind == "periodic"):
            raise ValueError(f"periodic boundaries must be paired ({name_a}/{name_b})")


def _froude(h, q, g):
    h = np.asarray(h, dtype=float)
    wet = h > H_EPS
    u = np.where(wet, np.asarray(q, dtype=float) / np.where(wet, h, 1.0), 0.0)
    return np.where(wet, np.abs(u) / np.sqrt(g * np.where(wet, h, 1.0)), 0.0)


def _resolve_imposed(bc, h_int, q_int, inward_sign, g, side, warnings):
    """Effective (depth, discharge) ghost values for one imposed-kind side.

    h_int / q_int are the first interior cell values (arrays along the
    side). Returns (h_ghost, q_ghost) arrays. Appends one warning per
    side on any regime mismatch. inward_sign maps the stored discharge
    to "into the domain" (+1 on the low side, -1 on the high side).
    """
    h_int = np.atleast_1d(np.asarray(h_int, dtype=float))
    q_int = np.atleast_1d(np.asarray(q_int, dtype=float))

    # Regime: interior cell where wet, otherwise the imposed state.
    h_probe = np.where(h_int > H_EPS, h_int,
                       bc.depth if bc.depth is not None else 0.0)
    q_probe = np.where(h_int > H_EPS, q_int,
                       bc.discharge if bc.discharge is not None else 0.0)
    fr = _froude(h_probe, q_probe, g)
    supercritical = fr > 1.0
    inflow = q_probe * inward_sign > 0.0

    h_ghost = h_int.copy()
    q_ghost = q_int.copy()
    mismatch = np.zeros_like(supercritical)

    if bc.kind == "imposed_depth":
        h_ghost = np.where(supercritical & ~inflow, h_int, bc.depth)
        q_ghost = q_int.copy()
        mismatch = supercritical
    elif bc.kind == "imposed_discharge":
        q_ghost = np.where(supercritical & ~inflow, q_int, bc.discharge)
        h_ghost = h_int.copy()
        mismatch = supercritical
    elif bc.kind == "imposed_both":
        imposed_inflow = bc.discharge * inward_sign > 0.0
        if imposed_inflow:
            # legal when supercritical; subcritical keeps the discharge only
            h_ghost = np.where(supercritical, bc.depth, h_int)
            q_ghost = np.full_like(q_int, bc.discharge)
            mismatch = ~supercritical
        else:
            # outward discharge: neumann if supercritical, depth if subcritical
            h_ghost = np.where(supercritical, h_int, bc.depth)
            q_ghost = q_int.copy()
            mismatch = np.ones_like(supercritical)

    if np.any(mismatch):
        warnings.append(
            f"{side} boundary: {bc.kind} does not match the local flow regime; "
            "using the closest legal rule")
    return h_ghost, q_ghost


def _resolve_imposed_scalar(bc, h_int, q_int, inward_sign, g, side, warnings):
    """Scalar twin of _resolve_imposed for the 1D hot path."""
    h_int = float(h_int)
    q_int = float(q_int)
    wet = h_int > H_EPS
    h_probe = h_int if wet else (bc.depth if bc.depth is not None else 0.0)
    q_probe = q_int if wet else (bc.discharge
                                 if bc.discharge is not None else 0.0)
    if h_probe > H_EPS:
        fr = abs(q_probe / h_probe) / math.sqrt(g * h_probe)
    else:
        fr = 0.0
    supercritical = fr > 1.0
    inflow = q_probe * inward_sign > 0.0

    if bc.kind == "imposed_depth":
        h_ghost = h_int if (supercritical and not inflow) else bc.depth
        q_ghost = q_int
        mismatch = supercritical
    elif bc.kind == "imposed_discharge":
        q_ghost = q_int if (supercritical and not inflow) else bc.discharge
        h_ghost = h_int
        mismatch = supercritical
    else:  # imposed_both
        if bc.discharge * inward_sign > 0.0:
            h_ghost = bc.depth if supercritical else h_int
            q_ghost = bc.discharge
            mismatch = not supercritical
        else:
            h_ghost = h_int if supercritical else bc.depth
            q_ghost = q_int
            mismatch = True

    if mismatch:
        warnings.append(
            f"{side} boundary: {bc.kind} does not match the local flow regime; "
            "using the closest legal rule")
    return h_ghost, q_ghost


def _extrapolate_z_1d(z_ext, g0, g1, i0, i1, n):
    """Continue the boundary bed slope into the ghost cells.

    Open (neumann/imposed) sides represent a channel that keeps going,
    so the ghost topography follows the line through the last two
    interior cells instead of flattening out, which would put a kink in
    the bed exactly at the boundary interface.
    """
    if n >= 2:
        slope = z_ext[i0] - z_ext[i1]
        z_ext[g0] = z_ext[i0] + slope
        z_ext[g1] = z_ext[i0] + 2.0 * slope
    else:
        z_ext[g0] = z_ext[g1] = z_ext[i0]


def fill_ghosts_1d(h_ext, q_ext, z_ext, n, bcs, g=G_DEFAULT, warnings=None):
    """Fill the two ghost cells on each side of the extended 1D arrays.

    Interior cells live at ext indices [2, n+2). warnings, if given, is
    a list that collects regime-mismatch messages.
    """
    if warnings is None:
        warnings = []
    # A single cell is its own second neighbor.
    second = 1 if n >= 2 else 0
    for side, bc, g0, g1, i0, i1, inward in (
            ("left", bcs.left, 1, 0, 2, 2 + second, 1.0),
            ("right", bcs.right, n + 2, n + 3, n + 1, n + 1 - second, -1.0)):
        if bc.kind == "wall":
            h_ext[g0] = h_ext[i0]
            h_ext[g1] = h_ext[i1]
            q_ext[g0] = -q_ext[i0]
            q_ext[g1] = -q_ext[i1]
            z_ext[g0] = z_ext[i0]
            z_ext[g1] = z_ext[i1]
        elif bc.kind == "neumann":
            h_ext[g0] = h_ext[g1] = h_ext[i0]
            q_ext[g0] = q_ext[g1] = q_ext[i0]
            _extrapolate_z_1d(z_ext, g0, g1, i0, i1, n)
        elif bc.kind == "periodic":
            continue  # handled jointly below
        else:
            hg, qg = _resolve_imposed_scalar(bc, h_ext[i0], q_ext[i0], inward,
                                             g, side, warnings)
            h_ext[g0] = h_ext[g1] = hg
            q_ext[g0] = q_ext[g1] = qg
            _extrapolate_z_1d(z_ext, g0, g1, i0, i1, n)
    if bcs.left.kind == "periodic":
        # Inner ghosts first, so one cell wraps onto all four.
        for arr in (h_ext, q_ext, z_ext):
            arr[1] = arr[n + 1]
            arr[0] = arr[n]
            arr[n + 2] = arr[2]
            arr[n + 3] = arr[3]
    return warnings


def _extrapolate_z_side(z_ext, sel, g0, g1, i0, i1, count):
    """2D twin of _extrapolate_z_1d for one side's ghost lines."""
    if count >= 2:
        slope = z_ext[sel(i0)] - z_ext[sel(i1)]
        z_ext[sel(g0)] = z_ext[sel(i0)] + slope
        z_ext[sel(g1)] = z_ext[sel(i0)] + 2.0 * slope
    else:
        z_ext[sel(g0)] = z_ext[sel(i0)]
        z_ext[sel(g1)] = z_ext[sel(i0)]


def fill_ghosts_2d(h_ext, qx_ext, qy_ext, z_ext, nx, ny, bcs, g=G_DEFAULT,
                   warnings=None):
    """Fill ghost frames of the extended (ny+4, nx+4) arrays.

    x sides first, then y sides (which also populates the corners from
    the already-filled ghost columns; the sweeps never read corners).
    """
    if warnings is None:
        warnings = []
    interior_rows = slice(2, ny + 2)
    interior_cols = slice(2, nx + 2)

    def fill_side(axis, bc, side, g0, g1, i0, i1, inward):
        if axis == "x":
            sel = lambda idx: (interior_rows, idx)
            q_norm, q_tan = qx_ext, qy_ext
            count = nx
        else:
            sel = lambda idx: (idx, slice(0, nx + 4))
            q_norm, q_tan = qy_ext, qx_ext
            count = ny
        if bc.kind == "wall":
            h_ext[sel(g0)] = h_ext[sel(i0)]
            h_ext[sel(g1)] = h_ext[sel(i1)]
            q_norm[sel(g0)] = -q_norm[sel(i0)]
            q_norm[sel(g1)] = -q_norm[sel(i1)]
            q_tan[sel(g0)] = q_tan[sel(i0)]
            q_tan[sel(g1)] = q_tan[sel(i1)]
            z_ext[sel(g0)] = z_ext[sel(i0)]
            z_ext[sel(g1)] = z_ext[sel(i1)]
        elif bc.kind == "neumann":
            for arr in (h_ext, q_norm, q_tan):
                arr[sel(g0)] = arr[sel(i0)]
                arr[sel(g1)] = arr[sel(i0)]
            _extrapolate_z_side(z_ext, sel, g0, g1, i0, i1, count)
        elif bc.kind == "periodic":
            pass
        else:
            hg, qg = _resolve_imposed(bc, h_ext[sel(i0)], q_norm[sel(i0)],
                                      inward, g, side, warnings)
            h_ext[sel(g0)] = hg
            h_ext[sel(g1)] = hg
            q_norm[sel(g0)] = qg
            q_norm[sel(g1)] = qg
            q_tan[sel(g0)] = q_tan[sel(i0)]
            q_tan[sel(g1)] = q_tan[sel(i0)]
            _extrapolate_z_side(z_ext, sel, g0, g1, i0, i1, count)

    # A single cell is its own second neighbor; inner periodic ghosts
    # are filled first, so one cell wraps onto all four.
    second = 1 if nx >= 2 else 0
    fill_side("x", bcs.left, "left", 1, 0, 2, 2 + second, 1.0)
    fill_side("x", bcs.right, "right", nx + 2, nx + 3, nx + 1,
              nx + 1 - second, -1.0)
    if bcs.left.kind == "periodic":
        for arr in (h_ext, qx_ext, qy_ext, z_ext):
            arr[interior_rows, 1] = arr[interior_rows, nx + 1]
            arr[interior_rows, 0] = arr[interior_rows, nx]
            arr[interior_rows, nx + 2] = arr[interior_rows, 2]
            arr[interior_rows, nx + 3] = arr[interior_rows, 3]

    second = 1 if ny >= 2 else 0
    fill_side("y", bcs.bottom, "bottom", 1, 0, 2, 2 + second, 1.0)
    fill_side("y", bcs.top, "top", ny + 2, ny + 3, ny + 1, ny + 1 - second,
              -1.0)
    if bcs.bottom.kind == "periodic":
        for arr in (h_ext, qx_ext, qy_ext, z_ext):
            arr[1, :] = arr[ny + 1, :]
            arr[0, :] = arr[ny, :]
            arr[ny + 2, :] = arr[2, :]
            arr[ny + 3, :] = arr[3, :]
    return warnings

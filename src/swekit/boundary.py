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
A dry first interior cell (no deeper than the scheme's h_eps) takes its
regime from the imposed values.
"""

import math
from dataclasses import dataclass
from typing import Optional

from .core import G_DEFAULT, H_EPS

BC_KINDS = ("wall", "neumann", "periodic", "imposed_depth",
            "imposed_discharge", "imposed_both")


@dataclass(frozen=True)
class BoundaryCondition:
    kind: str = "wall"
    depth: Optional[float] = None
    discharge: Optional[float] = None

    def __post_init__(self):
        if self.kind not in BC_KINDS:
            raise ValueError(f"unknown boundary kind {self.kind!r}; choose from {BC_KINDS}")
        # The fluxes square an imposed state: one whose square overflows
        # would fault the first step with a non-finite state.
        for name in ("depth", "discharge"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value * value):
                raise ValueError(f"imposed {name} {value!r} is not finite "
                                 "or its square overflows")
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


# Sides per direction, low side first: x, then y.
SIDES = (("left", "right"), ("bottom", "top"))


def check_periodic_pairing(bcs, two_d):
    for low, high in SIDES[:2 if two_d else 1]:
        if (getattr(bcs, low).kind == "periodic") \
                != (getattr(bcs, high).kind == "periodic"):
            raise ValueError(f"periodic boundaries must be paired ({low}/{high})")


def regime_warning(side, bc):
    """The message a regime mismatch on a side reports."""
    return (f"{side} boundary: {bc.kind} does not match the local flow "
            "regime; using the closest legal rule")


def _resolve_imposed(bc, h, q, inward, g, h_eps):
    """The ghost depth and discharge of one cell of an imposed-kind side,
    from the depth h and normal discharge q of the first interior cell
    (Python floats), and whether the condition mismatches the local flow
    regime: (h_ghost, q_ghost, mismatch). inward maps the stored
    discharge to "into the domain" (+1 on the low side, -1 on the high
    side). A cell is dry where its depth is at most h_eps. _native.c's
    resolve() is its twin.
    """
    # Regime: interior cell where wet, otherwise the imposed state.
    wet = h > h_eps
    h_probe = h if wet else (bc.depth if bc.depth is not None else 0.0)
    q_probe = q if wet else (bc.discharge
                             if bc.discharge is not None else 0.0)
    # The Froude number |q/h| / sqrt(g h) above 1, as core.froude_number
    # takes it (0 where dry).
    supercritical = (h_probe > h_eps and abs(q_probe / h_probe)
                     / math.sqrt(g * h_probe) > 1.0)
    # A single imposed value at a supercritical outflow goes neumann.
    neumann = supercritical and not q_probe * inward > 0.0
    if bc.kind == "imposed_depth":
        return (h if neumann else bc.depth), q, supercritical
    if bc.kind == "imposed_discharge":
        return h, (q if neumann else bc.discharge), supercritical
    # imposed_both: an inward discharge is legal when supercritical and
    # keeps only the discharge otherwise; an outward one goes neumann if
    # supercritical and keeps only the depth otherwise.
    if bc.discharge * inward > 0.0:
        h_ghost = bc.depth if supercritical else h
        return h_ghost, bc.discharge, not supercritical
    return (h if supercritical else bc.depth), q, True


def _fill_direction(h, qn, qts, z, n, low, high, sides, g, h_eps, warnings):
    """Fill both ends of one direction with n cells along it.

    a[i] is line i across the direction: ghosts at 0, 1, n+2 and n+3,
    interior lines from 2 to n+1. qn is the normal discharge and qts
    the transverse ones; low and high are the conditions on the sides
    named in `sides`. An imposed-kind side appends one regime warning
    per fill where any of its cells mismatches, as _native.c's
    fill_direction counts it.
    Each side has an inner and an outer ghost (g0, g1) and a nearest and
    a second interior line (i0, i1).
    """
    # A single cell is its own second neighbor.
    second = 1 if n >= 2 else 0
    for side, bc, g0, g1, i0, i1, inward in (
            (sides[0], low, 1, 0, 2, 2 + second, 1.0),
            (sides[1], high, n + 2, n + 3, n + 1, n + 1 - second, -1.0)):
        if bc.kind == "periodic":
            continue  # both sides at once, below
        if bc.kind == "wall":
            for a in (h, z) + qts:
                a[g0] = a[i0]
                a[g1] = a[i1]
            qn[g0] = -qn[i0]
            qn[g1] = -qn[i1]
            continue
        hg, qg = h[i0], qn[i0]
        if bc.kind != "neumann":
            if h.ndim == 1:  # a 1D side: one cell
                hg, qg, mismatch = _resolve_imposed(
                    bc, float(hg), float(qg), inward, g, h_eps)
            else:
                hg, qg, mismatches = zip(*[
                    _resolve_imposed(bc, hc, qc, inward, g, h_eps)
                    for hc, qc in zip(hg.tolist(), qg.tolist())])
                mismatch = any(mismatches)
            if mismatch:
                warnings.append(regime_warning(side, bc))
        h[g0] = h[g1] = hg
        qn[g0] = qn[g1] = qg
        for q in qts:
            q[g0] = q[g1] = q[i0]
        # An open side is a channel that keeps going: the ghost bed
        # follows the line through the last two interior cells instead of
        # flattening out, which would kink the bed at the boundary face.
        if n >= 2:
            slope = z[i0] - z[i1]
            z[g0] = z[i0] + slope
            z[g1] = z[i0] + 2.0 * slope
        else:
            z[g0] = z[g1] = z[i0]
    if low.kind == "periodic":
        # Inner ghosts first, so one cell wraps onto all four.
        for a in (h, z, qn) + qts:
            a[1] = a[n + 1]
            a[0] = a[n]
            a[n + 2] = a[2]
            a[n + 3] = a[3]


def fill_ghosts_1d(h_ext, q_ext, z_ext, n, bcs, g=G_DEFAULT, warnings=None,
                   h_eps=H_EPS):
    """Fill the two ghost cells on each side of the extended 1D arrays.

    Interior cells live at ext indices [2, n+2). warnings, if given, is
    a list that collects regime-mismatch messages; a cell no deeper than
    h_eps is dry to the imposed-boundary resolver.
    """
    if warnings is None:
        warnings = []
    _fill_direction(h_ext, q_ext, (), z_ext, n, bcs.left, bcs.right,
                    SIDES[0], g, h_eps, warnings)
    return warnings


def fill_ghosts_2d(h_ext, qx_ext, qy_ext, z_ext, nx, ny, bcs, g=G_DEFAULT,
                   warnings=None, h_eps=H_EPS):
    """Fill ghost frames of the extended (ny+4, nx+4) arrays.

    x sides first, on the interior rows, then y sides on whole rows
    (which also populates the corners from the already-filled ghost
    columns; the sweeps never read corners). warnings and h_eps as in
    fill_ghosts_1d.
    """
    if warnings is None:
        warnings = []
    rows = slice(2, ny + 2)
    h, qx, qy, z = (a[rows].T for a in (h_ext, qx_ext, qy_ext, z_ext))
    _fill_direction(h, qx, (qy,), z, nx, bcs.left, bcs.right, SIDES[0], g,
                    h_eps, warnings)
    _fill_direction(h_ext, qy_ext, (qx_ext,), z_ext, ny, bcs.bottom, bcs.top,
                    SIDES[1], g, h_eps, warnings)
    return warnings

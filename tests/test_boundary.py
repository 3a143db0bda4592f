"""Ghost-cell filling: mirror/copy/wrap rules and regime fallbacks."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swekit.boundary import (
    BoundaryCondition,
    BoundarySet,
    check_periodic_pairing,
    fill_ghosts_1d,
    fill_ghosts_2d,
)
from swekit.core import G_DEFAULT, H_EPS


def ext_1d(h, q, z):
    """Extended arrays with NaN ghosts so unfilled slots are caught."""
    n = len(h)
    out = []
    for vals in (h, q, z):
        a = np.full(n + 4, np.nan)
        a[2:n + 2] = vals
        out.append(a)
    return out


H = [1.0, 2.0, 3.0, 4.0]
Q = [10.0, 20.0, 30.0, 40.0]
Z = [0.1, 0.2, 0.3, 0.4]


def fill(bcs, h=H, q=Q, z=Z):
    h_ext, q_ext, z_ext = ext_1d(h, q, z)
    warnings = fill_ghosts_1d(h_ext, q_ext, z_ext, len(h), bcs)
    assert not np.isnan(h_ext).any()
    assert not np.isnan(q_ext).any()
    assert not np.isnan(z_ext).any()
    return h_ext, q_ext, z_ext, warnings


def test_wall_mirrors_depth_and_negates_discharge():
    h, q, z, warnings = fill(BoundarySet())
    # nearest ghost mirrors the nearest interior cell, and so on outward
    assert (h[1], q[1], z[1]) == (1.0, -10.0, 0.1)
    assert (h[0], q[0], z[0]) == (2.0, -20.0, 0.2)
    assert (h[6], q[6], z[6]) == (4.0, -40.0, 0.4)
    assert (h[7], q[7], z[7]) == (3.0, -30.0, 0.3)
    assert warnings == []


def test_neumann_copies_state_and_extends_bed_slope():
    bc = BoundaryCondition("neumann")
    h, q, z, warnings = fill(BoundarySet(left=bc, right=bc))
    assert list(h[:2]) == [1.0, 1.0] and list(q[:2]) == [10.0, 10.0]
    # bed continues the line through the two nearest interior cells
    np.testing.assert_allclose(z[:2], [-0.1, 0.0], atol=1e-15)
    assert list(h[6:]) == [4.0, 4.0] and list(q[6:]) == [40.0, 40.0]
    np.testing.assert_allclose(z[6:], [0.5, 0.6], atol=1e-15)
    assert warnings == []


def test_periodic_wraps_both_sides():
    bc = BoundaryCondition("periodic")
    h, q, z, _ = fill(BoundarySet(left=bc, right=bc))
    # left ghosts take the last two interior cells, right ghosts the first two
    assert list(h[:2]) == [3.0, 4.0]
    assert list(h[6:]) == [1.0, 2.0]
    assert list(q[:2]) == [30.0, 40.0]
    assert list(z[6:]) == [0.1, 0.2]


def test_periodic_must_be_paired():
    bcs = BoundarySet(left=BoundaryCondition("periodic"))
    with pytest.raises(ValueError, match="paired"):
        check_periodic_pairing(bcs, two_d=False)
    both = BoundaryCondition("periodic")
    check_periodic_pairing(BoundarySet(left=both, right=both), two_d=False)


def test_imposed_kind_validation():
    with pytest.raises(ValueError, match="depth"):
        BoundaryCondition("imposed_depth")
    with pytest.raises(ValueError, match="discharge"):
        BoundaryCondition("imposed_both", depth=1.0)
    with pytest.raises(ValueError, match="unknown"):
        BoundaryCondition("outflow")
    with pytest.raises(ValueError, match="zero depth"):
        BoundaryCondition("imposed_both", depth=0.0, discharge=1.0)
    assert BoundaryCondition("imposed_both", depth=0.0, discharge=0.0).depth \
        == 0.0


@pytest.mark.parametrize("kind, field, value", [
    ("imposed_depth", "depth", math.nan),
    ("imposed_depth", "depth", math.inf),
    ("imposed_discharge", "discharge", math.inf),
    ("imposed_discharge", "discharge", -math.inf),
    ("imposed_discharge", "discharge", 1e200),
    ("imposed_both", "discharge", 1e155),
])
def test_imposed_values_that_are_not_finite_or_overflow_are_refused(
        kind, field, value):
    # Accepted, each ran into a NumericalFault at t = 0: the fluxes
    # square an imposed state.
    values = {"depth": 1.0, "discharge": 1.0} if kind == "imposed_both" \
        else {}
    values[field] = value
    with pytest.raises(ValueError, match=f"{field} .*overflows"):
        BoundaryCondition(kind, **values)
    # sqrt(DBL_MAX), rounded, still has a finite square.
    values[field] = float(np.sqrt(np.finfo(float).max))
    assert getattr(BoundaryCondition(kind, **values), field) == values[field]


# --- imposed kinds in their legal regime -----------------------------

def test_imposed_depth_subcritical_outflow():
    # u = 0.1, c = 3.13: subcritical outflow through the right side
    bcs = BoundarySet(right=BoundaryCondition("imposed_depth", depth=0.8))
    h, q, _, warnings = fill(bcs, h=[1.0] * 4, q=[0.1] * 4)
    assert list(h[6:]) == [0.8, 0.8]
    assert list(q[6:]) == [0.1, 0.1]
    assert warnings == []


def test_imposed_discharge_subcritical_inflow():
    bcs = BoundarySet(left=BoundaryCondition("imposed_discharge", discharge=0.3))
    h, q, _, warnings = fill(bcs, h=[1.0] * 4, q=[0.1] * 4)
    assert list(q[:2]) == [0.3, 0.3]
    assert list(h[:2]) == [1.0, 1.0]
    assert warnings == []


def test_imposed_both_supercritical_inflow():
    # u = 5, c = 0.99: supercritical inflow on the left takes both values
    bcs = BoundarySet(left=BoundaryCondition("imposed_both", depth=0.2,
                                             discharge=0.4))
    h, q, _, warnings = fill(bcs, h=[0.1] * 4, q=[0.5] * 4)
    assert list(h[:2]) == [0.2, 0.2]
    assert list(q[:2]) == [0.4, 0.4]
    assert warnings == []


def test_imposed_both_onto_dry_bed_probes_imposed_regime():
    # dry interior: Fr = (2.5/0.5) / sqrt(9.81*0.5) = 2.26, so the
    # imposed pair itself classifies as a supercritical inflow
    bcs = BoundarySet(left=BoundaryCondition("imposed_both", depth=0.5,
                                             discharge=2.5),
                      right=BoundaryCondition("neumann"))
    h, q, _, warnings = fill(bcs, h=[0.0] * 4, q=[0.0] * 4)
    assert list(h[:2]) == [0.5, 0.5]
    assert list(q[:2]) == [2.5, 2.5]
    assert warnings == []


# --- regime fallbacks -------------------------------------------------

def test_imposed_depth_supercritical_outflow_falls_back_to_neumann():
    bcs = BoundarySet(right=BoundaryCondition("imposed_depth", depth=0.8))
    h, q, _, warnings = fill(bcs, h=[0.1] * 4, q=[0.5] * 4)
    assert list(h[6:]) == [0.1, 0.1]
    assert list(q[6:]) == [0.5, 0.5]
    assert len(warnings) == 1 and "right" in warnings[0]


def test_imposed_depth_supercritical_inflow_keeps_value():
    # inflow through the right side (q < 0 there): depth kept, q copied
    bcs = BoundarySet(right=BoundaryCondition("imposed_depth", depth=0.8))
    h, q, _, warnings = fill(bcs, h=[0.1] * 4, q=[-0.5] * 4)
    assert list(h[6:]) == [0.8, 0.8]
    assert list(q[6:]) == [-0.5, -0.5]
    assert len(warnings) == 1


def test_imposed_both_subcritical_inflow_keeps_discharge_only():
    bcs = BoundarySet(left=BoundaryCondition("imposed_both", depth=2.0,
                                             discharge=0.3))
    h, q, _, warnings = fill(bcs, h=[1.0] * 4, q=[0.1] * 4)
    assert list(h[:2]) == [1.0, 1.0]
    assert list(q[:2]) == [0.3, 0.3]
    assert len(warnings) == 1 and "left" in warnings[0]


def test_imposed_both_subcritical_outflow_keeps_depth_only():
    bcs = BoundarySet(left=BoundaryCondition("imposed_both", depth=0.8,
                                             discharge=-0.1))
    h, q, _, warnings = fill(bcs, h=[1.0] * 4, q=[-0.1] * 4)
    assert list(h[:2]) == [0.8, 0.8]
    assert list(q[:2]) == [-0.1, -0.1]
    assert len(warnings) == 1


def test_imposed_both_supercritical_outflow_falls_back_to_neumann():
    bcs = BoundarySet(left=BoundaryCondition("imposed_both", depth=0.8,
                                             discharge=-2.0))
    h, q, _, warnings = fill(bcs, h=[0.1] * 4, q=[-0.5] * 4)
    assert list(h[:2]) == [0.1, 0.1]
    assert list(q[:2]) == [-0.5, -0.5]
    assert len(warnings) == 1


def test_one_warning_per_side_per_fill():
    bcs = BoundarySet(left=BoundaryCondition("imposed_depth", depth=0.8),
                      right=BoundaryCondition("imposed_depth", depth=0.8))
    _, _, _, warnings = fill(bcs, h=[0.1] * 4, q=[0.5] * 4)
    # left is a supercritical inflow, right a supercritical outflow
    assert len(warnings) == 2
    assert any("left" in w for w in warnings)
    assert any("right" in w for w in warnings)


# --- 2D ---------------------------------------------------------------

def ext_2d(h, qx, qy, z):
    ny, nx = np.shape(h)
    out = []
    for vals in (h, qx, qy, z):
        a = np.full((ny + 4, nx + 4), np.nan)
        a[2:ny + 2, 2:nx + 2] = vals
        out.append(a)
    return out


def test_2d_walls_negate_normal_discharge_only():
    h = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
    qx = np.array([[0.1, 0.2, 0.3], [0.4, 0.5, 0.6]])
    qy = np.array([[1.1, 1.2, 1.3], [1.4, 1.5, 1.6]])
    z = np.array([[0.0, 0.1, 0.2], [0.3, 0.4, 0.5]])
    he, qxe, qye, ze = ext_2d(h, qx, qy, z)
    warnings = fill_ghosts_2d(he, qxe, qye, ze, 3, 2, BoundarySet())
    assert warnings == []
    rows = slice(2, 4)
    # left ghost columns: h mirrored, qx negated, qy copied
    assert np.array_equal(he[rows, 1], [1.0, 4.0])
    assert np.array_equal(he[rows, 0], [2.0, 5.0])
    assert np.array_equal(qxe[rows, 1], [-0.1, -0.4])
    assert np.array_equal(qye[rows, 1], [1.1, 1.4])
    assert np.array_equal(ze[rows, 1], [0.0, 0.3])
    # top ghost rows: qy negated, qx copied
    cols = slice(2, 5)
    assert np.array_equal(he[4, cols], [4.0, 5.0, 6.0])
    assert np.array_equal(qye[4, cols], [-1.4, -1.5, -1.6])
    assert np.array_equal(qxe[4, cols], [0.4, 0.5, 0.6])
    # corners were populated (from the already-filled ghost columns)
    assert not np.isnan(he).any()
    assert not np.isnan(qxe).any() and not np.isnan(qye).any()


def test_2d_periodic_in_x_wraps_columns():
    h = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
    zero = np.zeros_like(h)
    he, qxe, qye, ze = ext_2d(h, zero, zero, zero)
    per = BoundaryCondition("periodic")
    fill_ghosts_2d(he, qxe, qye, ze, 3, 2, BoundarySet(left=per, right=per))
    rows = slice(2, 4)
    assert np.array_equal(he[rows, 0], [2.0, 5.0])
    assert np.array_equal(he[rows, 1], [3.0, 6.0])
    assert np.array_equal(he[rows, 5], [1.0, 4.0])
    assert np.array_equal(he[rows, 6], [2.0, 5.0])


def test_2d_imposed_side_resolves_per_row():
    # left side: top row subcritical inflow (takes the discharge), bottom
    # row supercritical inflow (keeps it too, plus a warning)
    h = np.array([[0.1, 0.1, 0.1], [1.0, 1.0, 1.0]])
    qx = np.array([[0.5, 0.5, 0.5], [0.1, 0.1, 0.1]])
    qy = np.zeros_like(h)
    z = np.zeros_like(h)
    he, qxe, qye, ze = ext_2d(h, qx, qy, z)
    bcs = BoundarySet(left=BoundaryCondition("imposed_discharge", discharge=0.3))
    warnings = fill_ghosts_2d(he, qxe, qye, ze, 3, 2, bcs)
    rows = slice(2, 4)
    assert np.array_equal(qxe[rows, 1], [0.3, 0.3])
    assert np.array_equal(he[rows, 1], [0.1, 1.0])
    assert len(warnings) == 1 and "left" in warnings[0]


@pytest.mark.parametrize("h_eps", [1e-6, H_EPS])
def test_a_cell_no_deeper_than_h_eps_takes_the_imposed_regime(h_eps):
    # A 1e-8 m first cell draining out at 100 m/s is a supercritical
    # outflow where it counts as wet: imposed_depth then copies it and
    # warns. Under h_eps = 1e-6 it is dry, and the imposed state (0.5 m
    # of still water) sets the regime: the depth is imposed, silently.
    dry = h_eps > 1e-8
    bcs = BoundarySet(left=BoundaryCondition("imposed_depth", depth=0.5))
    h, q = [1e-8, 1.0, 1.0], [-1e-6, 0.0, 0.0]
    h_ext, q_ext, z_ext = ext_1d(h, q, [0.0] * 3)
    warnings_1d = fill_ghosts_1d(h_ext, q_ext, z_ext, 3, bcs, G_DEFAULT,
                                 None, h_eps)
    he, qxe, qye, ze = ext_2d([h, h], [q, q], np.zeros((2, 3)),
                              np.zeros((2, 3)))
    warnings_2d = fill_ghosts_2d(he, qxe, qye, ze, 3, 2, bcs, G_DEFAULT,
                                 None, h_eps)
    for ghosts, warnings in ((h_ext[:2], warnings_1d),
                             (he[2:4, :2], warnings_2d)):
        assert np.all(ghosts == (0.5 if dry else 1e-8))
        assert len(warnings) == (0 if dry else 1)


def test_2d_open_sides_extend_bed_slope():
    h = np.full((2, 3), 1.0)
    qx = np.zeros_like(h)
    qy = np.zeros_like(h)
    z = np.array([[0.3, 0.2, 0.1], [0.3, 0.2, 0.1]])
    he, qxe, qye, ze = ext_2d(h, qx, qy, z)
    bc = BoundaryCondition("neumann")
    fill_ghosts_2d(he, qxe, qye, ze, 3, 2, BoundarySet(left=bc, right=bc))
    rows = slice(2, 4)
    np.testing.assert_allclose(ze[rows, 0], [0.5, 0.5], atol=1e-15)
    np.testing.assert_allclose(ze[rows, 1], [0.4, 0.4], atol=1e-15)
    np.testing.assert_allclose(ze[rows, 5], [0.0, 0.0], atol=1e-15)
    np.testing.assert_allclose(ze[rows, 6], [-0.1, -0.1], atol=1e-15)


# --- reference fills ----------------------------------------------------
# The two ghost fills as they were written before they shared one body
# per boundary kind, with their own helpers, kept as the reference that
# fill_ghosts_1d/_2d must match bit for bit.


def _ref_froude(h, q, g):
    h = np.asarray(h, dtype=float)
    wet = h > H_EPS
    u = np.where(wet, np.asarray(q, dtype=float) / np.where(wet, h, 1.0), 0.0)
    return np.where(wet, np.abs(u) / np.sqrt(g * np.where(wet, h, 1.0)), 0.0)


def _ref_resolve_imposed(bc, h_int, q_int, inward_sign, g, side, warnings):
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
    fr = _ref_froude(h_probe, q_probe, g)
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


def _ref_resolve_imposed_scalar(bc, h_int, q_int, inward_sign, g, side, warnings):
    """Scalar twin of _ref_resolve_imposed for the 1D hot path."""
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


def _ref_extrapolate_z_1d(z_ext, g0, g1, i0, i1, n):
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


def _ref_fill_ghosts_1d(h_ext, q_ext, z_ext, n, bcs, g=G_DEFAULT, warnings=None):
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
            _ref_extrapolate_z_1d(z_ext, g0, g1, i0, i1, n)
        elif bc.kind == "periodic":
            continue  # handled jointly below
        else:
            hg, qg = _ref_resolve_imposed_scalar(bc, h_ext[i0], q_ext[i0], inward,
                                             g, side, warnings)
            h_ext[g0] = h_ext[g1] = hg
            q_ext[g0] = q_ext[g1] = qg
            _ref_extrapolate_z_1d(z_ext, g0, g1, i0, i1, n)
    if bcs.left.kind == "periodic":
        # Inner ghosts first, so one cell wraps onto all four.
        for arr in (h_ext, q_ext, z_ext):
            arr[1] = arr[n + 1]
            arr[0] = arr[n]
            arr[n + 2] = arr[2]
            arr[n + 3] = arr[3]
    return warnings


def _ref_extrapolate_z_side(z_ext, sel, g0, g1, i0, i1, count):
    """2D twin of _ref_extrapolate_z_1d for one side's ghost lines."""
    if count >= 2:
        slope = z_ext[sel(i0)] - z_ext[sel(i1)]
        z_ext[sel(g0)] = z_ext[sel(i0)] + slope
        z_ext[sel(g1)] = z_ext[sel(i0)] + 2.0 * slope
    else:
        z_ext[sel(g0)] = z_ext[sel(i0)]
        z_ext[sel(g1)] = z_ext[sel(i0)]


def _ref_fill_ghosts_2d(h_ext, qx_ext, qy_ext, z_ext, nx, ny, bcs, g=G_DEFAULT,
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
            _ref_extrapolate_z_side(z_ext, sel, g0, g1, i0, i1, count)
        elif bc.kind == "periodic":
            pass
        else:
            hg, qg = _ref_resolve_imposed(bc, h_ext[sel(i0)], q_norm[sel(i0)],
                                      inward, g, side, warnings)
            h_ext[sel(g0)] = hg
            h_ext[sel(g1)] = hg
            q_norm[sel(g0)] = qg
            q_norm[sel(g1)] = qg
            q_tan[sel(g0)] = q_tan[sel(i0)]
            q_tan[sel(g1)] = q_tan[sel(i0)]
            _ref_extrapolate_z_side(z_ext, sel, g0, g1, i0, i1, count)

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


_KINDS = st.one_of(
    st.just(BoundaryCondition("wall")),
    st.just(BoundaryCondition("neumann")),
    st.builds(lambda d: BoundaryCondition("imposed_depth", depth=d),
              st.sampled_from((0.0, 0.05, 0.5, 1.5))),
    st.builds(lambda q: BoundaryCondition("imposed_discharge", discharge=q),
              st.sampled_from((-2.0, -0.1, 0.0, 0.1, 2.0))),
    st.builds(lambda d, q: BoundaryCondition("imposed_both", depth=d,
                                             discharge=q),
              st.sampled_from((0.05, 0.5, 1.5)),
              st.sampled_from((-3.0, -0.2, 0.0, 0.2, 3.0))),
)


def _sides(draw):
    """Both sides of one direction: a periodic pair or any two kinds."""
    if draw(st.integers(0, 3)) == 0:
        periodic = BoundaryCondition("periodic")
        return periodic, periodic
    return draw(_KINDS), draw(_KINDS)


def _cells(rng, shape):
    """Depths with dry cells (zero and below H_EPS), discharges that make
    both sub- and supercritical flow, and a rough bed."""
    h = rng.uniform(0.0, 1.0, shape)
    h = np.where(rng.random(shape) < 0.2, 0.0, h)
    h = np.where(rng.random(shape) < 0.1, 0.5 * H_EPS, h)
    qs = [rng.normal(0.0, 1.5, shape) * (rng.random(shape) < 0.9)
          for _ in range(2)]
    return h, qs, rng.uniform(-1.0, 1.0, shape)


_COUNTS = st.sampled_from((1, 2, 3)) | st.integers(4, 12)


@settings(max_examples=200, deadline=None)
@given(_COUNTS, st.integers(0, 2**32 - 1), st.data())
def test_fill_1d_matches_the_reference(n, seed, data):
    h, (q, _), z = _cells(np.random.default_rng(seed), n)
    left, right = _sides(data.draw)
    bcs = BoundarySet(left, right)
    got, want = ext_1d(h, q, z), ext_1d(h, q, z)
    warnings = fill_ghosts_1d(*got, n, bcs)
    ref_warnings = _ref_fill_ghosts_1d(*want, n, bcs)
    for a, b in zip(got, want):
        assert np.array_equal(a, b, equal_nan=True)
    assert warnings == ref_warnings


@settings(max_examples=200, deadline=None)
@given(_COUNTS, _COUNTS, st.integers(0, 2**32 - 1), st.data())
def test_fill_2d_matches_the_reference(nx, ny, seed, data):
    h, (qx, qy), z = _cells(np.random.default_rng(seed), (ny, nx))
    left, right = _sides(data.draw)
    bottom, top = _sides(data.draw)
    bcs = BoundarySet(left, right, bottom, top)
    got, want = ext_2d(h, qx, qy, z), ext_2d(h, qx, qy, z)
    warnings = fill_ghosts_2d(*got, nx, ny, bcs)
    ref_warnings = _ref_fill_ghosts_2d(*want, nx, ny, bcs)
    for a, b in zip(got, want):
        assert np.array_equal(a, b, equal_nan=True)
    assert warnings == ref_warnings

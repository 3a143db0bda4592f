"""Ghost-cell filling: mirror/copy/wrap rules and regime fallbacks."""

import numpy as np
import pytest

from swekit.boundary import (
    BoundaryCondition,
    BoundarySet,
    check_periodic_pairing,
    fill_ghosts_1d,
    fill_ghosts_2d,
)


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

import math

import numpy as np
import pytest

from swekit.core import (
    G_DEFAULT,
    H_EPS,
    Grid,
    Scratch,
    State,
    froude_number,
    total_volume,
    velocity,
)
from swekit.fluxes import SIDES_FLAGS, SIDES_FLOATS, _side_waves

SQRT_G = math.sqrt(G_DEFAULT)


def _waves(h, q):
    """Characteristic speeds u -+ sqrt(g h) and physical momentum flux
    q u + g h^2/2 of the states (h, q), from fluxes._side_waves: the one
    place the solver computes them, for both Riemann solvers."""
    shape = np.shape(h)
    hq = np.zeros((2, 3) + shape)
    hq[:, 0], hq[:, 1] = h, q
    work = Scratch.empty(shape, SIDES_FLOATS, SIDES_FLAGS)
    slow, fast = _side_waves(hq, G_DEFAULT, H_EPS, work)
    return slow[0], fast[0], hq[0, 2]


def test_physical_flux_still_water():
    _, _, f_q = _waves(1.0, 0.0)
    assert math.isclose(f_q, 4.905, rel_tol=0, abs_tol=1e-15)


def test_physical_flux_moving_water():
    _, _, f_q = _waves(1.0, 10.0)
    # q*u + g*h^2/2 = 100 + 4.905
    assert math.isclose(f_q, 104.905, rel_tol=0, abs_tol=1e-12)


def test_physical_flux_dry_is_zero():
    assert _waves(0.0, 0.0) == (0.0, 0.0, 0.0)


def test_eigenvalues_still_water():
    lam1, lam2, _ = _waves(1.0, 0.0)
    assert math.isclose(lam1, -SQRT_G, rel_tol=1e-15)
    assert math.isclose(lam2, SQRT_G, rel_tol=1e-15)


def test_eigenvalues_supercritical():
    lam1, lam2, _ = _waves(1.0, 10.0)
    assert math.isclose(lam1, 10.0 - SQRT_G, rel_tol=1e-15)
    assert math.isclose(lam2, 10.0 + SQRT_G, rel_tol=1e-15)
    assert lam1 > 0  # both waves move downstream


def test_froude_critical_flow_is_one():
    assert froude_number(1.0, SQRT_G) == 1.0


def test_froude_thin_fast_sheet():
    fr = froude_number(0.01, 0.0099)
    expected = 0.99 / math.sqrt(G_DEFAULT * 0.01)
    assert math.isclose(fr, expected, rel_tol=1e-15)
    assert math.isclose(fr, 3.1608, rel_tol=1e-4)


def test_froude_dry_is_zero():
    assert froude_number(0.0, 0.0) == 0.0


def test_regime_classification_consistency():
    # Fr < 1, h > h_c, and opposite-sign eigenvalues are the same statement.
    rng = np.random.default_rng(42)
    h = rng.uniform(1e-6, 10.0, size=2000)
    q = rng.uniform(-20.0, 20.0, size=2000)
    fr = froude_number(h, q)
    # The critical depth, at which the flow with discharge q is critical.
    hc = (np.abs(q) / SQRT_G) ** (2.0 / 3.0)
    lam1, lam2, _ = _waves(h, q)
    subcritical = fr < 1.0
    np.testing.assert_array_equal(subcritical, h > hc)
    np.testing.assert_array_equal(subcritical, (lam1 < 0.0) & (lam2 > 0.0))


def test_velocity_dry_threshold():
    assert velocity(0.0, 0.0) == 0.0
    assert velocity(H_EPS, 1.0) == 0.0  # at the threshold counts as dry
    assert velocity(1.0, 2.0) == 2.0


def test_grid_validation():
    with pytest.raises(ValueError):
        Grid(nx=0, dx=1.0)
    with pytest.raises(ValueError):
        Grid(nx=10, dx=-0.5)
    g = Grid(nx=4, dx=0.5, x0=1.0)
    np.testing.assert_allclose(g.cell_centers_x(), [1.25, 1.75, 2.25, 2.75])
    assert g.is_1d


def test_grid_2d_centers():
    g = Grid(nx=2, dx=1.0, ny=3, dy=2.0)
    assert not g.is_1d
    np.testing.assert_allclose(g.cell_centers_y(), [1.0, 3.0, 5.0])


def test_total_volume_1d():
    grid = Grid(nx=4, dx=0.5)
    state = State((np.array([1.0, 2.0, 0.0, 0.5]), np.zeros(4)))
    assert math.isclose(total_volume(state, grid), 3.5 * 0.5, rel_tol=1e-15)


def test_total_volume_2d():
    grid = Grid(nx=2, dx=0.5, ny=2, dy=2.0)
    state = State((np.full((2, 2), 0.25), np.zeros((2, 2)), np.zeros((2, 2))))
    assert math.isclose(total_volume(state, grid), 0.25 * 4 * 1.0, rel_tol=1e-15)


def test_state_copy_is_deep():
    s = State((np.ones(3), np.zeros(3)))
    c = s.copy()
    c.h[0] = 5.0
    assert s.h[0] == 1.0

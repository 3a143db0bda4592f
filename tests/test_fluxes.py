import math

import numpy as np
import pytest

from swekit.core import G_DEFAULT, H_EPS, Scratch
from swekit.fluxes import (
    SIDES_FLAGS,
    SIDES_FLOATS,
    hll_flux,
    hll_sides,
    rusanov_flux,
    rusanov_sides,
    transverse_component,
)

SQRT_G = math.sqrt(G_DEFAULT)


def physical_flux(h, q):
    """The exact flux (q, q^2/h + g h^2/2) of a wet state."""
    return q, q**2 / h + 0.5 * G_DEFAULT * h**2


def test_wave_speeds_still_water():
    # Still columns of depth 1 and 1/4: the HLL speeds are -sqrt(g) and
    # +sqrt(g), so the flux is the mean of the two physical fluxes less
    # sqrt(g)/2 times the state jump.
    f_h, f_q = hll_flux(1.0, 0.0, 0.25, 0.0)
    assert math.isclose(f_h, 0.375 * SQRT_G, rel_tol=1e-15)
    assert math.isclose(f_q, G_DEFAULT * 17.0 / 64.0, rel_tol=1e-15)
    # Rusanov's dissipation speed is the larger |u| + sqrt(g h), sqrt(g).
    f_h, _ = rusanov_flux(1.0, 0.0, 0.25, 0.0)
    assert math.isclose(f_h, 0.375 * SQRT_G, rel_tol=1e-15)


def test_wave_speeds_supercritical():
    # u = 10 on both sides: the slowest speed 10 - sqrt(g) is positive,
    # so HLL upwinds exactly, and Rusanov dissipates at 10 + sqrt(g).
    f_h, f_q = hll_flux(1.0, 10.0, 0.25, 2.5)
    assert (f_h, f_q) == physical_flux(1.0, 10.0)
    f_h, _ = rusanov_flux(1.0, 10.0, 0.25, 2.5)
    assert math.isclose(f_h, 0.5 * (10.0 + 2.5) + 0.5 * (10.0 + SQRT_G) * 0.75,
                        rel_tol=1e-15)


def test_wave_speeds_dry_pair():
    # Both speeds are zero: no flux, and no division by the zero spread.
    with np.errstate(all="raise"):
        assert hll_flux(0.0, 0.0, 0.0, 0.0) == (0.0, 0.0)
        assert rusanov_flux(0.0, 0.0, 0.0, 0.0) == (0.0, 0.0)


@pytest.mark.parametrize("flux", [hll_flux, rusanov_flux])
def test_flux_consistency_equal_states(flux):
    for h, q in [(1.0, 0.0), (0.5, 1.2), (2.0, -3.0), (1e-6, 1e-9)]:
        f_h, f_q = flux(h, q, h, q)
        ref_h, ref_q = physical_flux(h, q)
        assert math.isclose(f_h, ref_h, rel_tol=1e-12, abs_tol=1e-15), f"W=({h},{q})"
        assert math.isclose(f_q, ref_q, rel_tol=1e-12, abs_tol=1e-15), f"W=({h},{q})"


@pytest.mark.parametrize("flux", [hll_flux, rusanov_flux])
def test_flux_dry_dry_is_zero(flux):
    assert flux(0.0, 0.0, 0.0, 0.0) == (0.0, 0.0)


def test_hll_exact_upwind_supercritical():
    # All waves move right: the left physical flux is returned as-is.
    f_h, f_q = hll_flux(1.0, 10.0, 0.8, 7.0)
    ref_h, ref_q = physical_flux(1.0, 10.0)
    assert f_h == ref_h and f_q == ref_q
    # Mirror case: all waves move left.
    f_h, f_q = hll_flux(0.8, -7.0, 1.0, -10.0)
    ref_h, ref_q = physical_flux(1.0, -10.0)
    assert f_h == ref_h and f_q == ref_q


def test_hll_wet_dry_frozen_value():
    # Left state (1, 0) against a dry right state. With c1 = -sqrt(g),
    # c2 = +sqrt(g), the blended branch reduces to exactly
    # (sqrt(g)/2, g/4).
    f_h, f_q = hll_flux(1.0, 0.0, 0.0, 0.0)
    assert math.isclose(f_h, SQRT_G / 2.0, rel_tol=1e-14)
    assert math.isclose(f_q, G_DEFAULT / 4.0, rel_tol=1e-14)


@pytest.mark.parametrize("flux", [hll_flux, rusanov_flux])
def test_flux_mirror_symmetry(flux):
    # Reflecting the problem (swap sides, negate discharges) must negate
    # the mass flux and preserve the momentum flux.
    rng = np.random.default_rng(7)
    h_l = rng.uniform(0.0, 3.0, size=500)
    h_r = rng.uniform(0.0, 3.0, size=500)
    q_l = rng.uniform(-5.0, 5.0, size=500) * (h_l > 0)
    q_r = rng.uniform(-5.0, 5.0, size=500) * (h_r > 0)
    f_h, f_q = flux(h_l, q_l, h_r, q_r)
    g_h, g_q = flux(h_r, -q_r, h_l, -q_l)
    np.testing.assert_allclose(g_h, -f_h, rtol=1e-12, atol=1e-13)
    np.testing.assert_allclose(g_q, f_q, rtol=1e-12, atol=1e-13)


def test_hll_vectorized_matches_scalar():
    h_l = np.array([1.0, 1.0, 0.0, 0.5])
    q_l = np.array([0.0, 10.0, 0.0, -0.2])
    h_r = np.array([0.0, 0.8, 0.0, 0.6])
    q_r = np.array([0.0, 7.0, 0.0, 0.3])
    f_h, f_q = hll_flux(h_l, q_l, h_r, q_r)
    for i in range(4):
        s_h, s_q = hll_flux(h_l[i], q_l[i], h_r[i], q_r[i])
        assert math.isclose(f_h[i], s_h, rel_tol=0, abs_tol=1e-15)
        assert math.isclose(f_q[i], s_q, rel_tol=0, abs_tol=1e-15)


def test_transverse_upwinds_on_the_mass_flux():
    assert transverse_component(2.0, 3.0, -5.0) == 6.0
    assert transverse_component(-1.5, 1.0, 5.0) == -7.5
    # A zero flux carries nothing, whichever side it takes.
    assert transverse_component(0.0, 3.0, -5.0) == 0.0
    out = np.empty(3)
    flag = np.empty(3, dtype=bool)
    result = transverse_component(np.array([1.0, -1.0, np.nan]),
                                  np.array([2.0, 2.0, 2.0]),
                                  np.array([7.0, 7.0, 7.0]), out, flag)
    assert result is out
    assert result[:2].tolist() == [2.0, -7.0] and np.isnan(result[2])


@pytest.mark.parametrize("solver", [hll_sides, rusanov_sides])
@pytest.mark.parametrize("h", [1e-9, 1e-3])
def test_sides_dry_under_the_scheme_h_eps_carry_no_velocity(solver, h):
    # Both sides (h, q) with q = 1e-4: wet under the default H_EPS
    # (u = q/h), dry under h_eps = 1e-3 (u = 0). Equal sides give the
    # physical flux (q, q*u + g h^2/2).
    q = 1e-4
    pressure = 0.5 * G_DEFAULT * h**2

    def flux(h_eps):
        hq = np.zeros((2, 3, 1))
        hq[:, 0], hq[:, 1] = h, q
        out = np.empty((2, 1))
        solver(hq, G_DEFAULT, h_eps, out,
               Scratch.empty((1,), SIDES_FLOATS, SIDES_FLAGS))
        return out[:, 0]

    f_h, f_q = flux(1e-3)
    assert f_h == pytest.approx(q, rel=1e-12)
    assert f_q == pytest.approx(pressure, rel=1e-12)
    _, f_q = flux(H_EPS)
    assert f_q == pytest.approx(q * q / h + pressure, rel=1e-12)

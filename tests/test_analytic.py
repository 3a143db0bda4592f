"""Oracle self-checks: every closed form must satisfy the equations."""

import math

import numpy as np
import pytest

from swekit.analytic import (
    ThackerParams,
    conjugate_depth,
    convergence_order,
    error_norms,
    fit_plane,
    friction_slope,
    lake_at_rest_profile,
    macdonald_rain_profile,
    macdonald_shock_profile,
    macdonald_topography,
    ritter_front_position,
    ritter_profile,
    thacker_bowl,
    thacker_depth,
    thacker_planar_profile,
    thacker_velocity,
    extrapolated_front_position,
    wet_front_position,
)
from swekit.core import G_DEFAULT
from swekit.sources import FrictionParams

G = 9.81


# ------------------------------------------------ residual self-checks


def swe_residual_1d(h_func, u_func, x, t, g=G_DEFAULT, z_func=None,
                    dx=1e-4, dt=1e-4):
    """Residual of the 1D mass/momentum balance at sample points.

    h_func(x, t) and u_func(x, t) are vectorized closed forms; central
    differences approximate the derivatives, so points must sit at
    least a few steps inside a smooth zone at times t +/- dt. Returns
    the largest absolute residual over both equations.
    """
    x = np.asarray(x, dtype=float)

    def q_and_flux(xx, tt):
        h = np.asarray(h_func(xx, tt), dtype=float)
        u = np.asarray(u_func(xx, tt), dtype=float)
        return h, h * u, h * u * u + 0.5 * g * h * h

    h_xp, q_xp, f_xp = q_and_flux(x + dx, t)
    h_xm, q_xm, f_xm = q_and_flux(x - dx, t)
    _, q_tp, _ = q_and_flux(x, t + dt)
    _, q_tm, _ = q_and_flux(x, t - dt)
    h_tp = np.asarray(h_func(x, t + dt), dtype=float)
    h_tm = np.asarray(h_func(x, t - dt), dtype=float)

    mass = (h_tp - h_tm) / (2 * dt) + (q_xp - q_xm) / (2 * dx)
    momentum = (q_tp - q_tm) / (2 * dt) + (f_xp - f_xm) / (2 * dx)
    if z_func is not None:
        h_c = np.asarray(h_func(x, t), dtype=float)
        dz = (np.asarray(z_func(x + dx)) - np.asarray(z_func(x - dx))) / (2 * dx)
        momentum = momentum + g * h_c * dz
    return float(max(np.max(np.abs(mass)), np.max(np.abs(momentum))))


def swe_residual_2d(h_func, u_func, v_func, x, y, t, g=G_DEFAULT,
                    z_func=None, ds=1e-4, dt=1e-4):
    """Residual of the 2D balance at sample points (same conventions)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)

    def fields(xx, yy, tt):
        h = np.asarray(h_func(xx, yy, tt), dtype=float)
        u = np.asarray(u_func(xx, yy, tt), dtype=float)
        v = np.asarray(v_func(xx, yy, tt), dtype=float)
        p = 0.5 * g * h * h
        return h, h * u, h * v, h * u * u + p, h * u * v, h * v * v + p

    h_xp, qx_xp, qy_xp, fxx_xp, fxy_xp, _ = fields(x + ds, y, t)
    h_xm, qx_xm, qy_xm, fxx_xm, fxy_xm, _ = fields(x - ds, y, t)
    h_yp, qx_yp, qy_yp, _, gxy_yp, fyy_yp = fields(x, y + ds, t)
    h_ym, qx_ym, qy_ym, _, gxy_ym, fyy_ym = fields(x, y - ds, t)
    h_tp, qx_tp, qy_tp, _, _, _ = fields(x, y, t + dt)
    h_tm, qx_tm, qy_tm, _, _, _ = fields(x, y, t - dt)

    inv_dt = 1.0 / (2 * dt)
    inv_ds = 1.0 / (2 * ds)
    mass = (h_tp - h_tm) * inv_dt + (qx_xp - qx_xm) * inv_ds \
        + (qy_yp - qy_ym) * inv_ds
    mom_x = (qx_tp - qx_tm) * inv_dt + (fxx_xp - fxx_xm) * inv_ds \
        + (gxy_yp - gxy_ym) * inv_ds
    mom_y = (qy_tp - qy_tm) * inv_dt + (fxy_xp - fxy_xm) * inv_ds \
        + (fyy_yp - fyy_ym) * inv_ds
    if z_func is not None:
        h_c = np.asarray(h_func(x, y, t), dtype=float)
        dzx = (np.asarray(z_func(x + ds, y)) - np.asarray(z_func(x - ds, y))) * inv_ds
        dzy = (np.asarray(z_func(x, y + ds)) - np.asarray(z_func(x, y - ds))) * inv_ds
        mom_x = mom_x + g * h_c * dzx
        mom_y = mom_y + g * h_c * dzy
    return float(max(np.max(np.abs(mass)), np.max(np.abs(mom_x)),
                     np.max(np.abs(mom_y))))


def steady_residual_1d(x, z, h, q, friction, g=G_DEFAULT, exclude=None):
    """Residual of the steady momentum balance on sampled arrays.

    Checks d/dx(q^2/h + g h^2/2) + g h dz/dx + g h S_f = 0 with
    fourth-order finite differences on a uniformly spaced sample; the
    two outermost points on each side and any excluded (masked) points
    are skipped. Used to certify generated steady benchmarks.
    """
    x = np.asarray(x, dtype=float)
    z = np.asarray(z, dtype=float)
    h = np.asarray(h, dtype=float)
    q = np.asarray(q, dtype=float)
    dx = x[1] - x[0]
    flux = q * q / h + 0.5 * g * h * h

    def d4(a):
        return (-a[4:] + 8.0 * a[3:-1] - 8.0 * a[1:-3] + a[:-4]) / (12.0 * dx)

    inner = slice(2, -2)
    residual = d4(flux) + g * h[inner] * d4(z) \
        + g * h[inner] * friction_slope(h[inner], q[inner], friction, g)
    if exclude is not None:
        residual = residual[~np.asarray(exclude)[inner]]
    return float(np.max(np.abs(residual)))


# ------------------------------------------------------- lake at rest


def test_lake_profile_flat_and_dry_cases():
    x = np.linspace(0.0, 1.0, 5)
    flat = lake_at_rest_profile(x, np.zeros(5), 1.0)
    assert np.all(flat.h == 1.0) and np.all(flat.q == 0.0)
    dry = lake_at_rest_profile(x, np.full(5, 2.0), 1.0)
    assert np.all(dry.h == 0.0)


def test_lake_profile_emerged_bump_has_two_wet_regions():
    x = np.linspace(0.025, 24.975, 500)
    z = np.where(np.abs(x - 10.0) < 2.0, 0.2 - 0.05 * (x - 10.0) ** 2, 0.0)
    prof = lake_at_rest_profile(x, z, 0.1)
    wet = prof.h > 0.0
    transitions = np.count_nonzero(np.diff(wet.astype(int)))
    assert transitions == 2  # dry strip splits the lake in two
    assert np.all(prof.h[wet] + z[wet] == pytest.approx(0.1, abs=1e-15))


# ---------------------------------------------------------- dam break


def test_ritter_initial_step_recovered_at_t0():
    x = np.array([4.0, 4.99, 5.01, 6.0])
    prof = ritter_profile(x, 0.0, 0.005, 5.0)
    assert list(prof.h) == [0.005, 0.005, 0.0, 0.0]
    assert np.all(prof.q == 0.0)


def test_ritter_values_at_the_dam_are_self_similar():
    # at the dam the depth is 4/9 of the lake and u = (2/3) c0, any t
    for t in (0.5, 3.0, 6.0):
        prof = ritter_profile(np.array([5.0]), t, 0.005, 5.0)
        assert prof.h[0] == pytest.approx(4.0 / 9.0 * 0.005, rel=1e-12)
        u = prof.q[0] / prof.h[0]
        assert u == pytest.approx(2.0 / 3.0 * math.sqrt(G * 0.005), rel=1e-12)


def test_ritter_front_position_value():
    front = ritter_front_position(6.0, 0.005, 5.0)
    assert front == pytest.approx(5.0 + 12.0 * math.sqrt(G * 0.005), rel=1e-15)
    assert front == pytest.approx(7.6577, abs=2e-4)


def test_ritter_zone_edges():
    t, h_l = 6.0, 0.005
    c0 = math.sqrt(G * h_l)
    x = np.array([5.0 - c0 * t - 0.01, 5.0 - c0 * t + 0.01,
                  5.0 + 2 * c0 * t - 0.01, 5.0 + 2 * c0 * t + 0.01])
    prof = ritter_profile(x, t, h_l, 5.0)
    assert prof.h[0] == h_l and prof.q[0] == 0.0
    assert 0.0 < prof.h[1] < h_l
    assert prof.h[2] > 0.0
    assert prof.h[3] == 0.0 and prof.q[3] == 0.0


def test_ritter_self_similarity_in_rescaled_coordinates():
    s = np.linspace(-1.2, 2.5, 41)
    h_t = ritter_profile(5.0 + s, 2.0, 0.005, 5.0).h
    h_2t = ritter_profile(5.0 + 2.0 * s, 4.0, 0.005, 5.0).h
    assert np.allclose(h_t, h_2t, rtol=1e-13, atol=0)


def test_ritter_satisfies_the_equations_inside_each_zone():
    h_l, x_dam, t = 0.005, 5.0, 6.0
    c0 = math.sqrt(G * h_l)

    def h_func(xx, tt):
        return ritter_profile(np.asarray(xx, dtype=float), tt, h_l, x_dam).h

    def u_func(xx, tt):
        prof = ritter_profile(np.asarray(xx, dtype=float), tt, h_l, x_dam)
        return np.where(prof.h > 0, prof.q / np.where(prof.h > 0, prof.h, 1.0),
                        0.0)

    fan = np.linspace(x_dam - c0 * t + 0.3, x_dam + 2 * c0 * t - 0.3, 60)
    lake = np.linspace(0.5, x_dam - c0 * t - 0.3, 20)
    assert swe_residual_1d(h_func, u_func, fan, t) < 1e-8
    assert swe_residual_1d(h_func, u_func, lake, t) < 1e-12


def test_wet_front_position_picks_last_wet_cell():
    x = np.array([0.0, 1.0, 2.0, 3.0])
    assert wet_front_position(x, [0.1, 0.2, 1e-9, 0.0]) == 1.0
    assert wet_front_position(x, [0.0, 0.0, 0.0, 0.0]) == 0.0


def test_extrapolated_front_recovers_the_exact_rarefaction_foot():
    h_l, x_dam, t = 0.005, 5.0, 6.0
    x = np.linspace(0.01, 9.99, 500)
    exact = ritter_profile(x, t, h_l, x_dam)
    front = extrapolated_front_position(x, exact.h, h_l)
    assert front == pytest.approx(ritter_front_position(t, h_l, x_dam),
                                  abs=1e-9)


def test_extrapolated_front_ignores_a_thin_tail_past_the_front():
    h_l, x_dam, t = 0.005, 5.0, 6.0
    x = np.linspace(0.01, 9.99, 500)
    h = ritter_profile(x, t, h_l, x_dam).h
    true_front = ritter_front_position(t, h_l, x_dam)
    tail = (x > true_front) & (x < true_front + 1.0)
    h[tail] = 1e-5  # fringe that drags a last-wet-cell scan 50 cells out
    assert abs(wet_front_position(x, h) - true_front) > 0.9
    front = extrapolated_front_position(x, h, h_l)
    assert front == pytest.approx(true_front, abs=2 * (x[1] - x[0]))


# ------------------------------------------------------------ thacker


def test_thacker_period_matches_three_period_run_length():
    p = ThackerParams()
    assert p.omega == pytest.approx(math.sqrt(2 * G * 0.1), rel=1e-15)
    assert 3.0 * p.period == pytest.approx(13.4571, abs=1e-3)


def test_thacker_profile_is_periodic_and_bounded():
    p = ThackerParams()
    x = np.linspace(0.02, 3.98, 100)
    prof0 = thacker_planar_profile(p, x, x, 0.0)
    prof1 = thacker_planar_profile(p, x, x, p.period)
    assert np.allclose(prof0.h, prof1.h, atol=1e-12)
    assert np.max(prof0.h) <= p.h0 + 1e-15
    assert np.max(prof0.h) > 0.99 * p.h0
    # wet points stay within radius a + eta of the bowl center
    wet = prof0.h > 0
    r = np.sqrt((prof0.x - p.cx) ** 2 + (prof0.y - p.cy) ** 2)
    assert np.max(r[wet]) <= p.a + p.eta
    assert np.all(prof0.qx[~wet] == 0.0) and np.all(prof0.qy[~wet] == 0.0)


def test_thacker_volume_is_invariant_under_rotation():
    p = ThackerParams()
    x = np.linspace(0.01, 3.99, 200)
    xx, yy = np.meshgrid(x, x)
    area = (x[1] - x[0]) ** 2
    exact = 0.5 * math.pi * p.a ** 2 * p.h0
    for t in (0.0, 1.3, 2.9):
        vol = float(np.sum(thacker_depth(p, xx, yy, t))) * area
        assert vol == pytest.approx(exact, rel=2e-3)


def test_thacker_satisfies_the_2d_equations_with_bowl_topography():
    p = ThackerParams()
    t = 1.3
    wt = p.omega * t
    cx = p.cx + p.eta * math.cos(wt)
    cy = p.cy + p.eta * math.sin(wt)
    # sample well inside the wet disk around the instantaneous center
    angles = np.linspace(0.0, 2 * math.pi, 25, endpoint=False)
    radii = np.array([0.1, 0.3, 0.5])
    x = (cx + radii[:, None] * np.cos(angles)).ravel()
    y = (cy + radii[:, None] * np.sin(angles)).ravel()

    def h_func(xx, yy, tt):
        return thacker_depth(p, xx, yy, tt)

    def u_func(xx, yy, tt):
        return np.full(np.shape(xx), thacker_velocity(p, tt)[0])

    def v_func(xx, yy, tt):
        return np.full(np.shape(xx), thacker_velocity(p, tt)[1])

    def z_func(xx, yy):
        return thacker_bowl(p, xx, yy)

    assert swe_residual_2d(h_func, u_func, v_func, x, y, t,
                           z_func=z_func) < 1e-8


# ---------------------------------------------------------- macdonald


def test_topography_is_flat_for_uniform_frictionless_flow():
    x = np.linspace(0.05, 99.95, 200)
    z = macdonald_topography(lambda s: np.full(np.shape(s), 0.7), 1.0, 0.0,
                             FrictionParams(), x)
    assert np.max(np.abs(z)) < 1e-13


def test_topography_slope_balances_friction_for_uniform_flow():
    # constant h and q: the bed must drop at exactly the friction slope
    h0, q, n = 0.9, 2.0, 0.03
    x = np.linspace(0.0, 100.0, 501)
    z = macdonald_topography(lambda s: np.full(np.shape(s), h0), q, 0.0,
                             FrictionParams("manning", n), x)
    sf = n * n * q * q / h0 ** (10.0 / 3.0)
    assert np.allclose(z, sf * (100.0 - x), rtol=1e-12, atol=1e-12)


def test_conjugate_depth_preserves_momentum_flux():
    h_minus, q = 0.53, 2.0
    h_plus = conjugate_depth(h_minus, q)
    flux = lambda h: q * q / h + 0.5 * G * h * h
    assert flux(h_plus) == pytest.approx(flux(h_minus), rel=1e-12)
    assert h_plus > (q * q / G) ** (1 / 3) > h_minus  # super -> sub


def test_shock_benchmark_passes_through_the_advertised_regimes():
    prof = macdonald_shock_profile()
    h_crit = (4.0 / G) ** (1.0 / 3.0)
    assert prof.params["h_critical"] == pytest.approx(h_crit, rel=1e-15)
    assert prof.h(0.0) > h_crit            # subcritical inlet
    assert prof.h(40.0) == pytest.approx(h_crit, rel=1e-12)  # critical crest
    assert prof.params["h_before_shock"] < h_crit            # supercritical
    assert prof.params["h_after_shock"] > h_crit             # back to sub
    assert prof.h(100.0) == pytest.approx(prof.params["outlet_depth"],
                                          rel=1e-12)
    # the jump is exactly momentum-flux preserving
    flux = lambda h: 4.0 / h + 0.5 * G * h * h
    assert flux(prof.params["h_before_shock"]) == pytest.approx(
        flux(prof.params["h_after_shock"]), rel=1e-12)


def test_shock_benchmark_topography_satisfies_steady_balance():
    prof = macdonald_shock_profile()
    n = 2000
    dx = prof.length / n
    x = (np.arange(n) + 0.5) * dx
    z = macdonald_topography(prof.h, prof.q0, prof.rain, prof.friction, x,
                             dh_profile=prof.dh, shocks=prof.shocks)
    h = prof.h(x)
    q = np.full(n, prof.q0)
    exclude = np.abs(x - prof.shocks[0]) < 4 * dx
    res = steady_residual_1d(x, z, h, q, prof.friction, exclude=exclude)
    assert res < 1e-6


def test_rain_benchmark_is_supercritical_and_balanced():
    prof = macdonald_rain_profile()
    n = 1000
    dx = prof.length / n
    x = (np.arange(n) + 0.5) * dx
    h = prof.h(x)
    q = prof.discharge(x)
    froude = np.abs(q / h) / np.sqrt(G * h)
    assert np.min(froude) > 1.05
    z = macdonald_topography(prof.h, prof.q0, prof.rain, prof.friction, x,
                             dh_profile=prof.dh)
    assert steady_residual_1d(x, z, h, q, prof.friction) < 1e-6
    assert q[-1] == pytest.approx(prof.q0 + prof.rain * x[-1], rel=1e-15)


def test_finite_difference_dh_fallback_matches_analytic_derivative():
    prof = macdonald_rain_profile()
    x = np.linspace(1.0, 999.0, 300)
    z_exact = macdonald_topography(prof.h, prof.q0, prof.rain, prof.friction,
                                   x, dh_profile=prof.dh)
    z_fd = macdonald_topography(prof.h, prof.q0, prof.rain, prof.friction, x)
    assert np.max(np.abs(z_exact - z_fd)) < 1e-9


def test_generator_rejects_nonpositive_depth():
    with pytest.raises(ValueError, match="positive"):
        macdonald_topography(lambda s: 0.1 - 0.001 * np.asarray(s), 1.0, 0.0,
                             FrictionParams(), np.linspace(0.5, 150.0, 50))


def test_friction_slope_values():
    # Manning: n^2 q |q| / h^(10/3); Darcy: f q |q| / (8 g h^3)
    sf = friction_slope(1.0, 2.0, FrictionParams("manning", 0.0328))
    assert sf == pytest.approx(0.0328 ** 2 * 4.0, rel=1e-15)
    sf = friction_slope(0.5, 2.5, FrictionParams("darcy_weisbach", 0.065))
    assert sf == pytest.approx(0.065 * 6.25 / (8 * G * 0.125), rel=1e-15)
    assert friction_slope(1.0, 2.0, FrictionParams()) == 0.0


# -------------------------------------------------------- error norms


def test_error_norms_frozen_cases():
    ref = np.zeros(100)
    same = error_norms(ref, ref)
    assert same == {"l1": 0.0, "l2": 0.0, "linf": 0.0}
    offset = error_norms(ref + 0.25, ref)
    assert offset["l1"] == offset["l2"] == offset["linf"] == 0.25


def test_error_norms_exclusion_mask():
    computed = np.zeros(10)
    computed[4] = 100.0
    mask = np.zeros(10, dtype=bool)
    mask[4] = True
    assert error_norms(computed, np.zeros(10), exclude=mask)["linf"] == 0.0
    with pytest.raises(ValueError, match="no cells"):
        error_norms(computed, np.zeros(10), exclude=np.ones(10, dtype=bool))


def test_convergence_order_for_exact_halving():
    assert convergence_order(0.2, 0.1) == pytest.approx(1.0, rel=1e-15)
    assert convergence_order(0.4, 0.1) == pytest.approx(2.0, rel=1e-15)
    with pytest.raises(ValueError):
        convergence_order(0.0, 0.1)


def test_fit_plane_recovers_exact_plane():
    x = np.linspace(0.0, 1.0, 11)
    xx, yy = np.meshgrid(x, x)
    values = 0.3 + 1.5 * xx - 0.7 * yy
    coeffs, residual = fit_plane(xx, yy, values)
    assert np.allclose(coeffs, [0.3, 1.5, -0.7], atol=1e-12)
    assert residual < 1e-12
    # masked fit ignores masked-out garbage
    values2 = values.copy()
    values2[0, 0] = 99.0
    mask = np.ones_like(values2, dtype=bool)
    mask[0, 0] = False
    _, residual2 = fit_plane(xx, yy, values2, mask=mask)
    assert residual2 < 1e-12

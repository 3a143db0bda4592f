import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from swekit.core import G_DEFAULT, Scratch
from swekit.sources import (
    INFILTRATION_FLAGS,
    INFILTRATION_FLOATS,
    FrictionParams,
    GreenAmptParams,
    GreenAmptState,
    Hyetograph,
    effective_conductivity,
    friction_damping_factor,
    friction_semi_implicit,
    friction_semi_implicit_2d,
    infiltration_capacity,
    infiltration_step,
    rain_rate,
    resolve_friction,
)


# ---------------------------------------------------------------- friction

def test_manning_frozen_value():
    params = FrictionParams("manning", 0.0328)
    q = friction_semi_implicit(2.0, 2.0, 1.0, 1.0, params, dt=0.1)
    # 2 / (1 + 9.81 * 0.0328^2 * 0.1 * 2)
    assert math.isclose(q, 1.9957872960074992, rel_tol=1e-14)


def test_darcy_weisbach_frozen_value():
    params = FrictionParams("darcy_weisbach", 0.093)
    q = friction_semi_implicit(2.0, 2.0, 1.0, 1.0, params, dt=0.1)
    # 2 / (1 + 0.1 * (0.093/8) * 2)
    assert math.isclose(q, 1.9953607861721498, rel_tol=1e-14)


def test_friction_identity_cases():
    params = FrictionParams("manning", 0.05)
    assert friction_semi_implicit(2.0, 2.0, 1.0, 1.0, params, dt=0.0) == 2.0
    assert friction_semi_implicit(2.0, 0.0, 1.0, 1.0, params, dt=0.1) == 2.0
    none = FrictionParams("none")
    assert friction_semi_implicit(2.0, 2.0, 1.0, 1.0, none, dt=0.1) == 2.0


def test_friction_dry_cells_untouched():
    params = FrictionParams("manning", 0.0328)
    q = friction_semi_implicit(np.array([0.5]), np.array([0.5]),
                               np.array([0.0]), np.array([0.0]), params, dt=0.1)
    assert q[0] == 0.5  # factor 1; the dry convention zeroes q elsewhere


def test_friction_damping_factor_bounds():
    rng = np.random.default_rng(5)
    h_n = rng.uniform(1e-6, 3.0, 10000)
    h_np1 = rng.uniform(1e-6, 3.0, 10000)
    q_n = rng.uniform(-10, 10, 10000)
    dts = rng.uniform(0.0, 2.0, 10000)
    for law, coef in [("manning", 0.0328), ("darcy_weisbach", 0.093)]:
        params = FrictionParams(law, coef)
        for i in range(0, 10000, 2500):
            s = slice(i, i + 2500)
            d = friction_damping_factor(q_n[s], h_n[s], h_np1[s], params, dts[i])
            ratio = 1.0 / d
            assert np.all(ratio > 0.0) and np.all(ratio <= 1.0), law


def test_friction_never_reverses_flow():
    params = FrictionParams("darcy_weisbach", 0.5)
    q = friction_semi_implicit(0.3, 5.0, 0.01, 0.01, params, dt=10.0)
    assert 0.0 < q < 0.3


def test_friction_2d_shared_factor():
    params = FrictionParams("manning", 0.0328)
    qx, qy = friction_semi_implicit_2d(2.0, 1.0, 2.0, 1.0, 1.0, 1.0, params, dt=0.5)
    # both components divided by the same factor: direction preserved
    assert math.isclose(qx / qy, 2.0, rel_tol=1e-14)
    norm = math.hypot(2.0, 1.0)
    expected = friction_semi_implicit(norm, norm, 1.0, 1.0, params, dt=0.5)
    assert math.isclose(math.hypot(qx, qy), expected, rel_tol=1e-14)


def test_chezy_and_strickler_aliases():
    chezy_c = 30.0
    p = resolve_friction("chezy", chezy_c)
    assert p.law == "darcy_weisbach"
    assert math.isclose(p.coefficient, 8.0 * G_DEFAULT / chezy_c**2, rel_tol=1e-15)
    p = resolve_friction("strickler", 25.0)
    assert p.law == "manning"
    assert math.isclose(p.coefficient, 0.04, rel_tol=1e-15)


def test_friction_params_validation():
    with pytest.raises(ValueError):
        FrictionParams("weird", 1.0)
    with pytest.raises(ValueError):
        FrictionParams("manning", 0.0)


# -------------------------------------------------------------------- rain

def test_hyetograph_piecewise_rates():
    hyeto = Hyetograph(times=(10.0, 20.0), intensities=(1e-5, 0.0))
    assert rain_rate(0.0, hyeto) == 0.0
    assert rain_rate(10.0, hyeto) == 1e-5
    assert rain_rate(19.999, hyeto) == 1e-5
    assert rain_rate(20.0, hyeto) == 0.0
    assert rain_rate(5.0, None) == 0.0


def _searchsorted_rate(hyeto, t):
    """The rule Hyetograph.rate replaced: np.searchsorted on the times."""
    idx = np.searchsorted(hyeto.times, t, side="right") - 1
    return hyeto.intensities[idx] if idx >= 0 else 0.0


def test_hyetograph_rate_at_and_between_change_times():
    times, rates = (0.0, 1.5, 4.0, 9.25), (2e-5, 0.0, 7e-6, 3e-6)
    hyeto = Hyetograph(times=times, intensities=rates)
    assert hyeto.rate(-1.0) == 0.0
    assert hyeto.rate(-1e-300) == 0.0
    for t, rate in zip(times, rates):
        assert hyeto.rate(t) == rate
        assert hyeto.rate(math.nextafter(t, math.inf)) == rate
    for t, before in zip(times[1:], rates):
        assert hyeto.rate(math.nextafter(t, -math.inf)) == before
        assert hyeto.rate(t - 0.25) == before
    assert hyeto.rate(1e9) == rates[-1]
    assert Hyetograph().rate(3.0) == 0.0


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(-1e3, 1e3), min_size=0, max_size=6, unique=True),
       st.lists(st.floats(-2e3, 2e3), min_size=1, max_size=20))
def test_hyetograph_rate_matches_searchsorted(times, queries):
    times = sorted(times)
    hyeto = Hyetograph(times=times,
                       intensities=[1e-6 * (k + 1) for k in range(len(times))])
    for t in (*queries, *times):
        assert hyeto.rate(t) == _searchsorted_rate(hyeto, t)


def test_hyetograph_validation():
    with pytest.raises(ValueError):
        Hyetograph(times=(5.0, 5.0), intensities=(1e-5, 0.0))
    with pytest.raises(ValueError):
        Hyetograph(times=(5.0,), intensities=(-1e-5,))


# ------------------------------------------------------------ infiltration

def test_capacity_frozen_value():
    # Single layer: ks=4.4e-6, hf=0.06, dtheta=0.12, 12 mm infiltrated,
    # 10 mm ponded: front depth 0.1 m, I_C = 4.4e-6 * 1.7.
    params = GreenAmptParams(ks=4.4e-6, hf=0.06, dtheta=0.12)
    ic = infiltration_capacity(params, 0.012, 0.01)
    assert math.isclose(ic, 7.48e-6, rel_tol=1e-12)


def test_infiltration_step_capacity_limited():
    params = GreenAmptParams(ks=4.4e-6, hf=0.06, dtheta=0.12)
    state = GreenAmptState(params, np.array([0.012]))
    dv, new_state = infiltration_step(state, np.array([0.01]), dt=1.0)
    assert math.isclose(dv[0], 7.48e-6, rel_tol=1e-12)
    assert math.isclose(new_state.v_inf[0], 0.012 + 7.48e-6, rel_tol=1e-14)
    assert state.v_inf[0] == 0.012  # input state untouched


def test_infiltration_unstarted_front_drains_everything():
    params = GreenAmptParams(ks=4.4e-6, hf=0.06, dtheta=0.12)
    state = GreenAmptState.zeros(params, 3)
    dv, new_state = infiltration_step(state, np.array([0.002, 0.0, 1e-9]), dt=10.0)
    np.testing.assert_allclose(dv, [0.002, 0.0, 1e-9], rtol=0, atol=0)
    assert np.all(new_state.v_inf == dv)


def test_infiltration_respects_imax():
    params = GreenAmptParams(ks=4.4e-6, hf=0.06, dtheta=0.12, imax=1e-7)
    state = GreenAmptState.zeros(params, 1)
    dv, _ = infiltration_step(state, np.array([0.01]), dt=2.0)
    assert math.isclose(dv[0], 2e-7, rel_tol=1e-14)


def test_infiltration_never_exceeds_surface_water():
    params = GreenAmptParams(ks=1e-3, hf=0.5, dtheta=0.2)
    rng = np.random.default_rng(9)
    state = GreenAmptState(params, rng.uniform(0, 0.05, 1000))
    h = rng.uniform(0, 0.01, 1000)
    dv, new_state = infiltration_step(state, h, dt=500.0)
    assert np.all(dv <= h + 1e-18)
    assert np.all(dv >= 0.0)
    assert np.all(new_state.v_inf >= state.v_inf)


def test_capacity_strictly_decreasing_in_v_inf():
    params = GreenAmptParams(ks=4.4e-6, hf=0.06, dtheta=0.12)
    v = np.linspace(1e-6, 0.5, 2000)
    ic = infiltration_capacity(params, v, 0.001)
    assert np.all(np.diff(ic) < 0.0)


def test_capacity_approaches_ks_from_above():
    params = GreenAmptParams(ks=4.4e-6, hf=0.06, dtheta=0.12)
    # front depth 100 * hf, no ponding: I_C / ks = 1 + 1/100
    v = 100.0 * params.hf * params.dtheta
    ic = infiltration_capacity(params, v, 0.0)
    assert ic > params.ks
    assert (ic - params.ks) / params.ks <= 0.01 + 1e-12


def test_two_layer_conductivity_continuous_at_crust_depth():
    params = GreenAmptParams(ks=4.4e-6, kc=1e-6, zc=0.05, hf=0.06, dtheta=0.12)
    below = effective_conductivity(params, params.zc)
    above = effective_conductivity(params, params.zc * (1.0 + 1e-9))
    assert math.isclose(below, params.kc, rel_tol=1e-15)
    assert abs(above - below) / below < 1e-8
    deep = effective_conductivity(params, 100.0)
    assert min(params.ks, params.kc) <= deep <= max(params.ks, params.kc)


def test_two_layer_capacity_uses_series_conductivity():
    params = GreenAmptParams(ks=4.4e-6, kc=1e-6, zc=0.05, hf=0.06, dtheta=0.12)
    z_front = 0.1
    v = z_front * params.dtheta
    k_e = z_front / ((z_front - params.zc) / params.ks + params.zc / params.kc)
    expected = k_e * (1.0 + (params.hf + 0.002) / z_front)
    ic = infiltration_capacity(params, v, 0.002)
    assert math.isclose(ic, expected, rel_tol=1e-14)


def test_green_ampt_params_validation():
    with pytest.raises(ValueError):
        GreenAmptParams(ks=0.0)
    with pytest.raises(ValueError):
        GreenAmptParams(ks=1e-6, zc=0.01, kc=0.0)
    with pytest.raises(ValueError):
        GreenAmptParams(ks=1e-6, dtheta=0.0)


# ------------------------------------- in-place Green-Ampt vs reference
# The allocating Green-Ampt functions as they were before they took
# workspace buffers, kept as the reference that the in-place ones must
# match bit for bit.


def reference_effective_conductivity(params, z_front):
    z_front = np.asarray(z_front, dtype=float)
    if params.zc == 0.0:
        return np.full_like(z_front, params.ks)
    in_crust = z_front <= params.zc
    z_safe = np.where(z_front > 0.0, z_front, 1.0)
    series = z_safe / ((z_safe - params.zc) / params.ks
                       + params.zc / params.kc)
    return np.where(in_crust, params.kc, series)


def reference_infiltration_capacity(params, v_inf, h_surface):
    v_inf = np.asarray(v_inf, dtype=float)
    h_surface = np.asarray(h_surface, dtype=float)
    z_front = v_inf / params.dtheta
    started = z_front > 0.0
    z_safe = np.where(started, z_front, 1.0)
    k = reference_effective_conductivity(params, z_front)
    capacity = k * (1.0 + (params.hf + h_surface) / z_safe)
    return np.where(started, capacity, np.inf)


def reference_infiltration_step(state, h_surface, dt):
    h_surface = np.asarray(h_surface, dtype=float)
    capacity = reference_infiltration_capacity(state.params, state.v_inf,
                                               h_surface)
    if state.params.imax is not None:
        capacity = np.minimum(capacity, state.params.imax)
    rate = np.minimum(capacity, h_surface / dt)
    delta_v = np.minimum(h_surface, rate * dt)
    delta_v = np.maximum(delta_v, 0.0)
    return delta_v, state.v_inf + delta_v


def same_bits(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and np.array_equal(a.view(np.uint64),
                                                 b.view(np.uint64))


def dirty_scratch(shape):
    """Workspace buffers holding garbage, as they do between uses."""
    work = Scratch.empty(shape, INFILTRATION_FLOATS, INFILTRATION_FLAGS)
    work.floats[...] = np.nan
    work.flags[...] = True
    return work


positive = st.floats(1e-9, 1e-2)
green_ampt = st.builds(
    GreenAmptParams, ks=positive, kc=positive,
    zc=st.sampled_from([0.0, 1e-3, 0.02]), hf=st.floats(0.0, 0.5),
    dtheta=st.floats(0.01, 1.0),
    imax=st.one_of(st.none(), st.floats(0.0, 1e-3)))
depths = st.one_of(st.just(0.0), st.just(-0.0), st.floats(1e-12, 0.2),
                   st.sampled_from([1e-3, 0.02]))


@settings(max_examples=200, deadline=None)
@given(green_ampt, st.integers(1, 40).flatmap(lambda n: st.tuples(
    hnp.arrays(np.float64, n, elements=depths),
    hnp.arrays(np.float64, n, elements=depths))),
    st.floats(1e-3, 100.0))
def test_in_place_green_ampt_matches_the_reference(params, arrays, dt):
    v_inf, h = arrays
    # The crust depth zc is a front depth: put some fronts right on it.
    v_inf[::3] = params.zc * params.dtheta
    z_front = v_inf / params.dtheta
    assert same_bits(effective_conductivity(params, z_front),
                     reference_effective_conductivity(params, z_front))
    assert same_bits(infiltration_capacity(params, v_inf, h),
                     reference_infiltration_capacity(params, v_inf, h))
    work = dirty_scratch(h.shape)
    assert same_bits(infiltration_capacity(params, v_inf, h, work=work),
                     reference_infiltration_capacity(params, v_inf, h))
    state = GreenAmptState(params, v_inf.copy())
    ref_dv, ref_v = reference_infiltration_step(state, h, dt)
    for work in (None, dirty_scratch(h.shape)):
        dv, new_state = infiltration_step(state, h, dt, work)
        assert same_bits(dv, ref_dv)
        assert same_bits(new_state.v_inf, ref_v)
        assert same_bits(state.v_inf, v_inf)
        if work is not None:
            assert not np.shares_memory(new_state.v_inf, work.floats)


def test_in_place_green_ampt_keeps_scalar_calls():
    params = GreenAmptParams(ks=4.4e-6, kc=1e-6, zc=0.05, hf=0.06,
                             dtheta=0.12)
    for z in (0.0, 0.01, 0.05, 0.3):
        assert same_bits(effective_conductivity(params, z),
                         reference_effective_conductivity(params, z))
        assert same_bits(infiltration_capacity(params, z, 0.01),
                         reference_infiltration_capacity(params, z, 0.01))

"""Time integration: step control, well-balancing, mass accounting."""

import collections
import contextlib
import ctypes
import dataclasses
import hashlib
import importlib.util
import inspect
import logging
import math
import os
import pathlib
import pickle
import platform
import re
import shutil
import subprocess
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from swekit import _compiled, _native, fileio, timeloop
from swekit.analytic import (
    ThackerParams,
    thacker_bowl,
    thacker_depth,
    thacker_velocity,
)
from swekit.boundary import (
    BoundaryCondition,
    BoundarySet,
    fill_ghosts_1d,
    fill_ghosts_2d,
)
from swekit.cases import macdonald_shock_case
from swekit.core import Grid, State, total_volume
from swekit.sources import (
    FrictionParams,
    GreenAmptParams,
    GreenAmptState,
    Hyetograph,
)
from swekit.timeloop import (
    CFL_MAX,
    NumericalFault,
    SchemeConfig,
    SimulationConfig,
    compute_dt,
    heun_step,
    run_simulation,
)

WALL = BoundarySet()
NEUMANN = BoundarySet(left=BoundaryCondition("neumann"),
                      right=BoundaryCondition("neumann"))


def bump_lake(n=100, length=25.0, level=0.1):
    """Still water around an emerged parabolic bump."""
    grid = Grid(nx=n, dx=length / n)
    x = grid.cell_centers_x()
    z = np.where(np.abs(x - 10.0) < 2.0, 0.2 - 0.05 * (x - 10.0) ** 2, 0.0)
    h = np.maximum(level - z, 0.0)
    return grid, z, State((h, np.zeros(n)))


def divergence(state, z, grid, scheme, bcs):
    """The solver's flux divergence phi of state: a stage takes
    state - dt * phi, then adds its sources."""
    work = timeloop._Workspace(grid, z, scheme, bcs)
    return work.divergence(state.fields, [])


# ------------------------------------------------------------- dt


def test_cfl_defaults_per_dimension_and_order():
    assert CFL_MAX == {(1, 1): 1.0, (1, 2): 0.5, (2, 1): 0.5, (2, 2): 0.25}
    grid = Grid(nx=4, dx=2.0)
    state = State((np.ones(4), np.array([2.0, 0.0, 0.0, 0.0])))
    expected_sup = 2.0 + math.sqrt(9.81)
    dt = compute_dt(state, grid, SchemeConfig(order=2))
    assert dt == pytest.approx(0.5 * 2.0 / expected_sup, rel=1e-14)
    dt1 = compute_dt(state, grid, SchemeConfig(order=1))
    assert dt1 == pytest.approx(2.0 / expected_sup, rel=1e-14)


def test_dt_is_bounded_by_cell_size_for_slow_or_dry_water():
    grid = Grid(nx=4, dx=2.0)
    slow = State((np.full(4, 0.01), np.zeros(4)))
    assert compute_dt(slow, grid, SchemeConfig(order=2)) == pytest.approx(1.0)
    dry = State((np.zeros(4), np.zeros(4)))
    assert compute_dt(dry, grid, SchemeConfig(order=2)) == pytest.approx(1.0)


def test_dt_accounts_for_imposed_inflow_onto_dry_bed():
    grid = Grid(nx=4, dx=2.0)
    dry = State((np.zeros(4), np.zeros(4)))
    bcs = BoundarySet(left=BoundaryCondition("imposed_both", depth=0.5,
                                             discharge=2.5),
                      right=BoundaryCondition("neumann"))
    speed = 2.5 / 0.5 + math.sqrt(9.81 * 0.5)
    dt = compute_dt(dry, grid, SchemeConfig(order=2), bcs)
    assert dt == pytest.approx(0.5 * 2.0 / speed, rel=1e-14)


@pytest.mark.parametrize("side, cells", [
    ("left", np.s_[:, 0]), ("right", np.s_[:, -1]),
    ("bottom", np.s_[0, :]), ("top", np.s_[-1, :])])
def test_2d_dt_takes_imposed_speeds_from_the_cells_along_the_side(side,
                                                                  cells):
    grid = Grid(nx=3, ny=4, dx=2.0, dy=1.0)
    h = 0.1 + 0.01 * np.arange(12.0).reshape(4, 3)
    zero = np.zeros_like(h)
    bcs = BoundarySet(**{side: BoundaryCondition("imposed_discharge",
                                                 discharge=1.0)})
    h_b = h[cells].max()
    speed = 1.0 / h_b + math.sqrt(9.81 * h_b)
    dt = compute_dt(State((h, zero, zero)), grid, SchemeConfig(order=2), bcs)
    assert dt == pytest.approx(0.25 * 1.0 / speed, rel=1e-14)


def test_cfl_out_of_range_rejected():
    with pytest.raises(ValueError, match="cfl"):
        SchemeConfig(order=2, cfl=0.8).cfl_for(1)
    assert SchemeConfig(order=2, cfl=0.4).cfl_for(1) == 0.4


@pytest.mark.parametrize("field, value", [
    ("g", math.inf), ("h_eps", -1.0), ("h_eps", math.nan),
    ("h_eps", math.inf)])
def test_a_scheme_refuses_a_non_finite_g_and_a_bad_h_eps(field, value):
    # Accepted, g = inf faulted the first step with a zero dt, h_eps = -1
    # with a non-finite state, and a non-finite h_eps ran with every cell
    # dry to the CFL step.
    with pytest.raises(ValueError, match=f"{field} must be finite and "
                                         "positive"):
        SchemeConfig(**{field: value})


def test_2d_dt_uses_both_directions():
    grid = Grid(nx=3, ny=3, dx=1.0, dy=0.5)
    h = np.ones((3, 3))
    qx = np.zeros((3, 3))
    qy = np.full((3, 3), 2.0)
    sup = 2.0 + math.sqrt(9.81)
    dt = compute_dt(State((h, qx, qy)), grid, SchemeConfig(order=1))
    assert dt == pytest.approx(0.5 * min(0.5, 1.0 / math.sqrt(9.81), 0.5 / sup),
                               rel=1e-14)


# --------------------------------------------------- well-balancing


@pytest.mark.parametrize("order", [1, 2])
def test_lake_at_rest_operator_vanishes(order):
    grid, z, state = bump_lake()
    phi_h, phi_q = divergence(state, z, grid, SchemeConfig(order=order), WALL)
    assert np.max(np.abs(phi_h)) < 1e-13
    assert np.max(np.abs(phi_q)) < 1e-13


@pytest.mark.parametrize("order", [1, 2])
def test_lake_at_rest_stays_at_rest(order):
    grid, z, state = bump_lake()
    config = SimulationConfig(grid=grid, topography=z, initial_state=state,
                              final_time=5.0, scheme=SchemeConfig(order=order))
    result = run_simulation(config)
    final = result.final_state
    assert np.max(np.abs(final.h - state.h)) < 1e-13
    assert np.max(np.abs(final.q)) < 1e-13
    assert result.min_depth_seen >= 0.0


def test_lake_at_rest_2d_operator_vanishes():
    grid = Grid(nx=20, ny=15, dx=0.2, dy=0.2)
    x = grid.cell_centers_x()
    y = grid.cell_centers_y()
    xx, yy = np.meshgrid(x, y)
    z = np.maximum(0.0, 0.3 - 0.5 * ((xx - 2.0) ** 2 + (yy - 1.5) ** 2))
    h = np.maximum(0.2 - z, 0.0)
    state = State((h, np.zeros_like(h), np.zeros_like(h)))
    phi_h, phi_qx, phi_qy = divergence(state, z, grid, SchemeConfig(order=2),
                                       WALL)
    assert np.max(np.abs(phi_h)) < 1e-13
    assert np.max(np.abs(phi_qx)) < 1e-13
    assert np.max(np.abs(phi_qy)) < 1e-13


# ------------------------------------------------------------- rain


def test_uniform_rain_fills_exactly():
    n = 50
    grid = Grid(nx=n, dx=0.1)
    z = np.zeros(n)
    state = State((np.zeros(n), np.zeros(n)))
    rain = Hyetograph(times=(0.0,), intensities=(0.001,))
    config = SimulationConfig(grid=grid, topography=z, initial_state=state,
                              final_time=20.0, scheme=SchemeConfig(order=2),
                              rain=rain)
    result = run_simulation(config)
    assert np.allclose(result.final_state.h, 0.001 * 20.0, rtol=1e-12, atol=0)
    assert np.all(result.final_state.q == 0.0)
    row = result.mass_balance[-1]
    assert row.rain == pytest.approx(0.001 * 20.0 * n * 0.1, rel=1e-12)
    assert row.residual_rel < 1e-13


def test_hyetograph_change_time_is_landed_on_exactly():
    n = 20
    grid = Grid(nx=n, dx=0.1)
    state = State((np.zeros(n), np.zeros(n)))
    # 1 mm/s for the first 0.7 s, then dry; 0.7 never divides the CFL dt
    rain = Hyetograph(times=(0.0, 0.7), intensities=(0.001, 0.0))
    config = SimulationConfig(grid=grid, topography=np.zeros(n),
                              initial_state=state, final_time=2.0,
                              scheme=SchemeConfig(order=1), rain=rain)
    result = run_simulation(config)
    assert np.allclose(result.final_state.h, 0.0007, rtol=1e-12, atol=0)


def test_rain_raises_a_lake_at_rest_by_r_dt():
    n, r, dt = 20, 0.002, 0.01
    grid, z = Grid(nx=n, dx=0.1), np.zeros(n)
    state = State((np.full(n, 0.1), np.zeros(n)))
    rain = Hyetograph(times=(0.0,), intensities=(r,))
    scheme = SchemeConfig(order=1)
    ctx = timeloop._RunContext(grid, scheme, WALL, FrictionParams(), rain,
                               timeloop._WarningCounter(),
                               timeloop._Workspace(grid, z, scheme, WALL))
    new, _, diag = timeloop.euler_step(state, None, 0.0, dt, ctx)
    assert np.array_equal(new.h, state.h + r * dt)
    assert np.array_equal(new.q, state.q)
    assert diag.rain_vol == r * dt * n * grid.dx


# ------------------------------------------------- stepping structure


def make_periodic_wave(n=64):
    grid = Grid(nx=n, dx=1.0 / n)
    x = grid.cell_centers_x()
    h = 1.0 + 0.1 * np.sin(2 * np.pi * x)
    u = 0.2 + 0.05 * np.cos(2 * np.pi * x)
    per = BoundaryCondition("periodic")
    bcs = BoundarySet(left=per, right=per)
    return grid, bcs, State((h, h * u))


def test_heun_step_matches_two_explicit_stages():
    grid, bcs, state = make_periodic_wave()
    scheme = SchemeConfig(order=2, fixed_dt=1e-3)
    z = np.zeros(grid.nx)

    phi1 = divergence(state, z, grid, scheme, bcs)
    h1 = state.h - 1e-3 * phi1[0]
    q1 = state.q - 1e-3 * phi1[1]
    phi2 = divergence(State((h1, q1)), z, grid, scheme, bcs)
    h_expected = 0.5 * (state.h + (h1 - 1e-3 * phi2[0]))
    q_expected = 0.5 * (state.q + (q1 - 1e-3 * phi2[1]))

    config = SimulationConfig(grid=grid, topography=z, initial_state=state,
                              final_time=1e-3, scheme=scheme, boundaries=bcs)
    final = run_simulation(config).final_state
    assert np.array_equal(final.h, h_expected)
    assert np.array_equal(final.q, q_expected)


def test_euler_step_is_a_single_stage():
    grid, bcs, state = make_periodic_wave()
    scheme = SchemeConfig(order=1, fixed_dt=1e-3)
    z = np.zeros(grid.nx)
    phi = divergence(state, z, grid, scheme, bcs)
    config = SimulationConfig(grid=grid, topography=z, initial_state=state,
                              final_time=1e-3, scheme=scheme, boundaries=bcs)
    final = run_simulation(config).final_state
    assert np.array_equal(final.h, state.h - 1e-3 * phi[0])
    assert np.array_equal(final.q, state.q - 1e-3 * phi[1])


def test_periodic_mass_is_conserved():
    grid, bcs, state = make_periodic_wave()
    config = SimulationConfig(grid=grid, topography=np.zeros(grid.nx),
                              initial_state=state, final_time=0.5,
                              scheme=SchemeConfig(order=2), boundaries=bcs)
    result = run_simulation(config)
    v0 = total_volume(state, grid)
    v1 = total_volume(result.final_state, grid)
    assert v1 == pytest.approx(v0, rel=1e-13)
    assert result.mass_balance[-1].residual_rel < 1e-13


def test_snapshots_land_exactly_on_output_times():
    n = 10
    grid = Grid(nx=n, dx=0.5)
    state = State((np.ones(n), np.zeros(n)))
    config = SimulationConfig(grid=grid, topography=np.zeros(n),
                              initial_state=state, final_time=1.0,
                              scheme=SchemeConfig(order=1, fixed_dt=0.2),
                              output_times=(0.3, 0.7))
    result = run_simulation(config)
    assert [t for t, _ in result.snapshots] == [0.0, 0.3, 0.7, 1.0]
    assert [row.time for row in result.mass_balance] == [0.0, 0.3, 0.7, 1.0]


# ------------------------------------------------------ conservation


def test_dam_break_onto_dry_bed_stays_positive_and_conservative():
    n = 200
    grid = Grid(nx=n, dx=10.0 / n)
    x = grid.cell_centers_x()
    h = np.where(x < 5.0, 1.0, 0.0)
    config = SimulationConfig(grid=grid, topography=np.zeros(n),
                              initial_state=State((h, np.zeros(n))),
                              final_time=0.5, scheme=SchemeConfig(order=2),
                              boundaries=NEUMANN)
    result = run_simulation(config)
    final = result.final_state
    assert result.min_depth_seen >= 0.0
    # the front has advanced into the dry half
    assert final.h[n // 2 + 5] > 1e-4
    assert result.mass_balance[-1].residual_rel < 1e-12
    assert result.warnings == []


def test_mass_ledger_closes_with_rain_friction_and_infiltration():
    n = 80
    grid = Grid(nx=n, dx=0.5)
    x = grid.cell_centers_x()
    z = 0.05 * (40.0 - x) / 40.0
    h0 = np.full(n, 0.02)
    rain = Hyetograph(times=(0.0, 30.0), intensities=(5e-4, 0.0))
    ga = GreenAmptParams(ks=2e-6, kc=1e-6, zc=0.01, hf=0.1, dtheta=0.3)
    config = SimulationConfig(
        grid=grid, topography=z, initial_state=State((h0, np.zeros(n))),
        final_time=60.0, scheme=SchemeConfig(order=2),
        friction=FrictionParams(law="manning", coefficient=0.03),
        rain=rain, infiltration=ga, output_times=(30.0,))
    result = run_simulation(config)
    row = result.mass_balance[-1]
    assert row.residual_rel < 1e-12
    assert row.rain == pytest.approx(5e-4 * 30.0 * n * 0.5, rel=1e-12)
    assert row.infiltration > 0.0
    # the soil ledger matches the accumulated infiltration volume
    assert row.infiltration == pytest.approx(
        float(result.ga_state.v_inf.sum()) * grid.dx, rel=1e-12)


def test_imposed_inflow_wets_a_dry_channel():
    n = 100
    grid = Grid(nx=n, dx=1.0)
    z = -0.01 * grid.cell_centers_x()
    bcs = BoundarySet(left=BoundaryCondition("imposed_both", depth=0.5,
                                             discharge=2.5),
                      right=BoundaryCondition("neumann"))
    config = SimulationConfig(grid=grid, topography=z,
                              initial_state=State((np.zeros(n), np.zeros(n))),
                              final_time=10.0, scheme=SchemeConfig(order=2),
                              boundaries=bcs,
                              friction=FrictionParams("darcy_weisbach", 0.065))
    result = run_simulation(config)
    assert result.final_state.h[0] > 0.1
    assert result.min_depth_seen >= 0.0
    assert result.mass_balance[-1].boundary_in > 0.0
    assert result.mass_balance[-1].residual_rel < 1e-12


# ------------------------------------------------------------ symmetry


@pytest.mark.parametrize("order", [1, 2])
def test_walled_box_preserves_mirror_symmetry(order):
    n = 100
    grid = Grid(nx=n, dx=0.1)
    x = grid.cell_centers_x()
    h = 1.0 + 0.2 * np.exp(-((x - 5.0) ** 2))
    config = SimulationConfig(grid=grid, topography=np.zeros(n),
                              initial_state=State((h, np.zeros(n))),
                              final_time=2.0, scheme=SchemeConfig(order=order))
    final = run_simulation(config).final_state
    assert np.max(np.abs(final.h - final.h[::-1])) < 1e-12
    assert np.max(np.abs(final.q + final.q[::-1])) < 1e-12


def test_2d_with_uniform_transverse_direction_matches_1d():
    n = 60
    dt = 0.01
    grid1 = Grid(nx=n, dx=10.0 / n)
    x = grid1.cell_centers_x()
    h = np.where(x < 5.0, 1.0, 0.2)
    z1 = 0.02 * x
    config1 = SimulationConfig(grid=grid1, topography=z1,
                               initial_state=State((h, np.zeros(n))),
                               final_time=0.5,
                               scheme=SchemeConfig(order=2, fixed_dt=dt))
    h1 = run_simulation(config1).final_state

    ny = 6
    grid2 = Grid(nx=n, ny=ny, dx=10.0 / n, dy=0.3)
    h2 = np.tile(h, (ny, 1))
    z2 = np.tile(z1, (ny, 1))
    zero = np.zeros_like(h2)
    config2 = SimulationConfig(grid=grid2, topography=z2,
                               initial_state=State((h2, zero.copy(), zero.copy())),
                               final_time=0.5,
                               scheme=SchemeConfig(order=2, fixed_dt=dt))
    res2 = run_simulation(config2).final_state
    assert np.max(np.abs(res2.h - h1.h[None, :])) < 1e-13
    assert np.max(np.abs(res2.qx - h1.q[None, :])) < 1e-13
    assert np.max(np.abs(res2.qy)) < 1e-13


def test_2d_x_and_y_sweeps_are_equivalent():
    n = 40
    dt = 0.01
    base = Grid(nx=n, ny=5, dx=0.25, dy=0.25)
    x = base.cell_centers_x()
    h_row = np.where(x < 5.0, 1.0, 0.3)
    h_x = np.tile(h_row, (5, 1))
    zero_x = np.zeros_like(h_x)
    cfg_x = SimulationConfig(grid=base, topography=zero_x.copy(),
                             initial_state=State((h_x, zero_x.copy(),
                                                   zero_x.copy())),
                             final_time=0.4,
                             scheme=SchemeConfig(order=2, fixed_dt=dt))
    res_x = run_simulation(cfg_x).final_state

    rot = Grid(nx=5, ny=n, dx=0.25, dy=0.25)
    h_y = h_x.T.copy()
    zero_y = np.zeros_like(h_y)
    cfg_y = SimulationConfig(grid=rot, topography=zero_y.copy(),
                             initial_state=State((h_y, zero_y.copy(),
                                                   zero_y.copy())),
                             final_time=0.4,
                             scheme=SchemeConfig(order=2, fixed_dt=dt))
    res_y = run_simulation(cfg_y).final_state
    assert np.max(np.abs(res_y.h - res_x.h.T)) < 1e-13
    assert np.max(np.abs(res_y.qy - res_x.qx.T)) < 1e-13


# ------------------------------------------------------------- faults


def test_blowup_raises_a_numerical_fault():
    n = 50
    grid = Grid(nx=n, dx=0.1)
    x = grid.cell_centers_x()
    h = np.where(x < 2.5, 1.0, 0.0)
    config = SimulationConfig(grid=grid, topography=np.zeros(n),
                              initial_state=State((h, np.zeros(n))),
                              final_time=10.0,
                              scheme=SchemeConfig(order=1, fixed_dt=5.0),
                              boundaries=NEUMANN)
    with pytest.raises(NumericalFault) as excinfo:
        run_simulation(config)
    assert excinfo.value.time == 0.0
    assert "cell" in str(excinfo.value)


def thin_layer_down_a_step():
    """1 mm of still water over a rough bed that drops 0.22 m into an
    open end: the first Heun stage speeds the last cell up to 1 m/s,
    so the second stage's Courant number is 2.4 times the first's."""
    grid = Grid(nx=4, dx=1.0)
    z = np.array([0.07848364027479492, 0.08954734302423699,
                  0.24426772217828407, 0.02757478264052907])
    state = State((np.full(4, 1e-3), np.zeros(4)))
    return SimulationConfig(grid=grid, topography=z, initial_state=state,
                            final_time=5.0, scheme=SchemeConfig(order=2),
                            boundaries=NEUMANN)


def test_a_step_that_leaves_a_negative_depth_is_taken_again():
    config = thin_layer_down_a_step()
    results, faults = [], []
    for path in _kernel_paths():
        with _sweep_path(path):
            result = run_simulation(config)
            # Without the retry the same run stops on the negative depth.
            with mock.patch.object(timeloop, "MAX_STEP_HALVINGS", 0), \
                    pytest.raises(NumericalFault, match="negative depth") \
                    as fault:
                run_simulation(config)
        assert result.retried_steps == 1
        assert result.final_time == 5.0
        assert result.min_depth_seen >= 0.0
        assert np.all(np.isfinite(result.final_state.fields))
        assert abs(result.mass_balance[-1].residual_rel) < 1e-13
        results.append(result)
        faults.append((str(fault.value), fault.value.index))
    # Every path retries the same step and ends with the same bits.
    assert all(_same_bits(r.final_state.fields, results[0].final_state.fields)
               for r in results)
    assert faults == faults[:1] * len(faults)


def test_config_validation():
    grid = Grid(nx=4, dx=1.0)
    good = State((np.ones(4), np.zeros(4)))
    with pytest.raises(ValueError, match="topography"):
        SimulationConfig(grid=grid, topography=np.zeros(5),
                         initial_state=good, final_time=1.0)
    with pytest.raises(ValueError, match="nonnegative"):
        SimulationConfig(grid=grid, topography=np.zeros(4),
                         initial_state=State((np.array([1.0, -0.1, 1.0, 1.0]),
                                               np.zeros(4))),
                         final_time=1.0)
    with pytest.raises(ValueError, match="output times"):
        SimulationConfig(grid=grid, topography=np.zeros(4),
                         initial_state=good, final_time=1.0,
                         output_times=(2.0,))
    with pytest.raises(ValueError, match="paired"):
        SimulationConfig(grid=grid, topography=np.zeros(4),
                         initial_state=good, final_time=1.0,
                         boundaries=BoundarySet(
                             left=BoundaryCondition("periodic")))


# ------------------------------------------------- regime warnings


def test_a_lasting_regime_mismatch_keeps_one_warning_entry():
    # An outward imposed_both discharge never matches the regime, so the
    # right side reports a mismatch in every stage of every step.
    n = 20
    grid = Grid(nx=n, dx=0.5)
    bcs = BoundarySet(left=BoundaryCondition("wall"),
                      right=BoundaryCondition("imposed_both", depth=0.5,
                                              discharge=0.2))
    config = SimulationConfig(grid=grid, topography=np.zeros(n),
                              initial_state=State((np.full(n, 0.5),
                                                    np.zeros(n))),
                              final_time=2.0, scheme=SchemeConfig(order=2),
                              boundaries=bcs)
    counters = []

    class Counter(timeloop._WarningCounter):
        def __init__(self):
            super().__init__()
            counters.append(self)

    for path in _kernel_paths():
        with _sweep_path(path), \
                mock.patch.object(timeloop, "_WarningCounter", Counter):
            result = run_simulation(config)
        assert result.steps > 10
        (message,) = result.warnings
        assert "right boundary" in message
        warnings = counters[-1]
        assert len(warnings) == 1
        assert warnings[message] == 2 * result.steps


# ------------------------------------------------- sweep kernel paths
# The compiled kernel (_native.c) runs wherever a C compiler is found;
# the numpy kernel is its fallback and its bitwise reference.


def _has_compiler():
    return bool(shutil.which("gcc") or shutil.which("cc"))


@contextlib.contextmanager
def _sweep_path(path):
    """Run the enclosed code on the "numpy" sweep kernel, on the "c" one
    at the widest vector level, or on "c:<level>"."""
    if path == "numpy":
        with mock.patch.object(timeloop, "_sweep_kernel", lambda: None):
            yield
        return
    if timeloop._sweep_kernel() is None:
        pytest.skip("the compiled sweep kernel is unavailable")
    level = path.partition(":")[2]
    if not level:
        yield
        return
    if level not in _native.sweep_levels():
        pytest.skip(f"this CPU or this build lacks the {level} sweep")
    bind = timeloop._sweep_kernel
    with mock.patch.object(timeloop, "_sweep_kernel", lambda: bind(level)):
        yield


def _kernel_paths():
    """The sweep kernels this machine can run: numpy, and the compiled
    one at every vector level the CPU supports, if built."""
    return ["numpy"] + [f"c:{level}" for level in _native.sweep_levels()]


@contextlib.contextmanager
def _fresh_kernel():
    """Forget the process's loaded library on entry and on exit."""
    _native.library.cache_clear()
    try:
        yield
    finally:
        _native.library.cache_clear()


def _bits(array):
    """Bit patterns: unlike array_equal, they tell +0.0 from -0.0."""
    return np.ascontiguousarray(array, dtype=float).view(np.uint64)


def _same_bits(a, b):
    return np.array_equal(_bits(a), _bits(b))


# ------------------------------------------------ traced call path
# perfbench/tracer.py times the helpers swekit.timeloop binds by name
# and the FLUX_FUNCTIONS entries; a helper the solver stops calling
# would read 0 in its per-layer metric instead of failing. The tracer
# rebinds the step helpers, so a traced run takes the numpy loop, whose
# numpy steps call the ghost fills, friction and infiltration on every
# path. Their sweep is the one the build bound: the compiled sweep does
# the work of the helpers the numpy sweep calls, so on its path those
# read 0 and their time is the step's own. A rebound step function or
# compute_dt is called every step on every path.

_KERNEL_HELPERS = {"velocity", "muscl_slopes", "transverse_component"}


def _traced_timeloop_names():
    path = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.TIMELOOP_NAMES


def _wet_plot(two_d, order, flux):
    """A few steps with friction, rain and infiltration on a slope."""
    grid = Grid(nx=6, ny=4, dx=1.0, dy=1.0) if two_d else Grid(nx=6, dx=1.0)
    shape = (4, 6) if two_d else (6,)
    z = np.broadcast_to(0.05 * np.arange(6.0)[::-1], shape).copy()
    h = np.full(shape, 0.1)
    discharges = [np.full(shape, 0.01)] * (2 if two_d else 1)
    state = State((h, *discharges))
    return SimulationConfig(
        grid=grid, topography=z, initial_state=state, final_time=0.5,
        scheme=SchemeConfig(order=order, flux_name=flux),
        boundaries=NEUMANN, friction=FrictionParams("manning", 0.03),
        rain=Hyetograph((0.0,), (1e-3,)),
        infiltration=GreenAmptParams(ks=1e-5, dtheta=0.3))


@pytest.mark.parametrize("path", ["numpy", "c"])
def test_every_traced_helper_stays_on_the_call_path(path):
    calls = collections.Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    names = _traced_timeloop_names()
    fluxes = {f"FLUX_FUNCTIONS[{key!r}]": key for key in timeloop.FLUX_FUNCTIONS}
    kernels = set()
    with _sweep_path(path), contextlib.ExitStack() as stack:
        for name in names:
            stack.enter_context(mock.patch.object(
                timeloop, name, counted(name, getattr(timeloop, name))))
        stack.enter_context(mock.patch.dict(timeloop.FLUX_FUNCTIONS, {
            key: counted(label, timeloop.FLUX_FUNCTIONS[key])
            for label, key in fluxes.items()}))
        for two_d in (False, True):
            for order in (1, 2):
                for flux in sorted(timeloop.FLUX_FUNCTIONS):
                    result = run_simulation(_wet_plot(two_d, order, flux))
                    kernels.add(result.sweep_kernel)
    assert kernels == {path}
    inside = set() if path == "numpy" else _KERNEL_HELPERS | set(fluxes)
    assert [name for name in (*names, *fluxes)
            if name not in inside and not calls[name]] == []
    assert [name for name in inside if calls[name]] == []


def test_the_build_flags_keep_every_bit():
    # The kernel matches numpy only without contraction and without the
    # flags that let the compiler change a computed value.
    flags = _native._FLAGS
    assert "-ffp-contract=off" in flags
    value_changing = {"-ffast-math", "-Ofast", "-funsafe-math-optimizations",
                      "-fassociative-math", "-freciprocal-math",
                      "-ffinite-math-only", "-fno-signed-zeros",
                      "-march=native", "-mfma"}
    assert value_changing.isdisjoint(flags)
    # Nor may a vector level's target string enable FMA or a whole CPU.
    # FMA is the writer's alone: its fma level, which only the writer's
    # entries are built at, decides only digits that are exact.
    source = _native._SOURCE.read_text()
    targets = re.findall(r'TARGET_(\w+) __attribute__\(\(target\("([^"]*)"\)',
                         source)
    assert targets == [("avx2", "avx2"), ("avx512f", "avx512f"),
                       ("fma", "avx2,fma")]
    assert [t for t in _native.SWEEP_LEVELS if "fma" in t] == []
    sweep_targets = [target for level, target in targets
                     if level in _native.SWEEP_LEVELS]
    assert [t for t in sweep_targets if "fma" in t] == []
    assert [t for _, t in targets if "arch=" in t] == []
    assert re.findall(r"(\w+)\(fma\b", source) == ["WRITER_LEVEL"]


# The loops of the sweep and of the step's tail that each wide level must
# vectorize, by the function of _native.c that holds the loop: the rain
# loop is tail_update's, and validity's is its clamp.
_VECTOR_PASSES = ("load", "gather", "traces", "face_pass", "divergence_pass",
                  "store", "subtract_update", "tail_update", "infiltrate",
                  "friction", "settled", "validity", "average_fields",
                  "average", "wet_max", "speed_sups")


def _vectorized_loops(source, notes):
    """{(function of source, level): {(compiled function, line): widths}}
    of the loops that the notes, GCC's vectorizer dump with its missed
    notes, say it analysed: each loop's vector byte width, 0 where it
    left the loop scalar. The dump heads each compiled function's notes
    with its name, which holds the level (swekit_step_avx2,
    avx512f_faces_0_2_TILE), where the same notes on stderr
    (-fopt-info-vec) name no function. Each copy of a loop inlined into a
    compiled function is a loop of its own there, with a note of its
    own at the line of the source function that holds it. A function's
    body runs from its "{" line, after its name, to its "}" line."""
    lines = source.splitlines()
    spans = []
    for i, line in enumerate(lines):
        if line == "{":
            head = next(k for k in range(i - 1, -1, -1)
                        if lines[k][:1] not in (" ", ""))
            name = re.match(r"[^(]*?(\w+)\(", lines[head]).group(1)
            spans.append((name, head + 1, lines.index("}", i) + 1))
    loops = collections.defaultdict(lambda: collections.defaultdict(list))
    compiled = None
    for note in notes.splitlines():
        if note.startswith(";; Function "):
            compiled = note.split()[2]
            continue
        found = re.search(r":(\d+):\d+: (?:optimized: loop vectorized using "
                          r"(\d+) byte vectors|missed: couldn't vectorize "
                          r"loop)$", note)
        if found is None:
            continue
        line = int(found.group(1))
        level = next((level for level in _native.SWEEP_LEVELS
                      if level in compiled.split("_")), None)
        holder = next((name for name, first, last in spans
                       if first <= line <= last), None)
        loops[holder, level][compiled, line].append(int(found.group(2) or 0))
    return loops


def test_the_wide_levels_vectorize_every_pass(tmp_path):
    # A pass left scalar keeps every bit and passes every other test:
    # only its time shows it. GCC 12 left average_fields and validity's
    # clamp scalar, with channel_1d's C loop 15 % slower, once the Heun
    # check count was read again in advance's loop bound. So at avx2 and
    # avx512f each pass must hold a loop vectorized wider than 16 bytes,
    # the baseline's SSE2 width, in every copy a compiled function
    # inlines: friction has four (Manning or Darcy-Weisbach, 1D or 2D),
    # and one left scalar slows only the runs that take it. GCC
    # vectorizes no epilogue here, so that each note of a vectorized loop
    # is a copy's main loop.
    gcc = shutil.which("gcc")
    if platform.machine() != "x86_64" or gcc is None:
        pytest.skip("needs GCC on x86-64")
    macros = subprocess.run([gcc, "-dM", "-E", "-"], input="",
                            capture_output=True, text=True).stdout
    if "__clang__" in macros or "__x86_64__" not in macros:
        pytest.skip("needs GCC on x86-64")
    notes = tmp_path / "vect.txt"
    subprocess.run([gcc, *_native._FLAGS, "--param=vect-epilogues-nomask=0",
                    f"-fdump-tree-vect-optimized-missed={notes}", "-o",
                    str(tmp_path / "native.so"), str(_native._SOURCE)],
                   check=True, capture_output=True)
    loops = _vectorized_loops(_native._SOURCE.read_text(), notes.read_text())
    wide = {(name, level): {at: [w > 16 for w in widths]
                            for at, widths in loops[name, level].items()}
            for level in ("avx2", "avx512f") for name in _VECTOR_PASSES}
    narrow = [key for key, copies in wide.items()
              if not any(any(c) for c in copies.values())]
    assert narrow == []
    scalar_copies = [(name, level, at)
                     for (name, level), copies in wide.items()
                     for at, c in copies.items() if any(c) and not all(c)]
    assert scalar_copies == []


def _numpy_cpu_features():
    for name in ("numpy._core._multiarray_umath",
                 "numpy.core._multiarray_umath"):
        with contextlib.suppress(ImportError):
            return importlib.import_module(name).__cpu_features__
    pytest.skip("numpy reports no CPU features")


def test_the_widest_level_the_cpu_supports_is_bound():
    if timeloop._sweep_kernel() is None:
        pytest.skip("the compiled sweep kernel is unavailable")
    library = _native.library()
    built = [level for level in _native.SWEEP_LEVELS
             if hasattr(library, f"swekit_sweep_{level}")]
    if platform.machine() == "x86_64" and sys.platform == "linux" \
            and shutil.which("gcc"):
        assert built == list(_native.SWEEP_LEVELS)
    # numpy reads the CPU and the OS on its own: its AVX2 and AVX512F
    # flags decide which levels the library may run.
    features = _numpy_cpu_features()
    runnable = [level for level in built
                if level == "baseline" or features.get(level.upper())]
    assert _native.sweep_levels() == tuple(runnable)
    assert timeloop.sweep_level() == runnable[-1]
    # The step is built at every level the sweep is, and binds the
    # sweep's.
    assert [level for level in _native.SWEEP_LEVELS
            if hasattr(library, f"swekit_step_{level}")] == built
    work = timeloop._Workspace(Grid(nx=6, dx=1.0), np.zeros(6),
                               SchemeConfig(), WALL)
    assert (work.kernel, work.level) == ("c", runnable[-1])
    assert work.compiled.entry is getattr(
        library, f"swekit_step_{timeloop.sweep_level()}")


def test_a_library_whose_structs_the_mirrors_miss_is_refused(caplog):
    # _compiled mirrors struct frame, struct side and struct step by
    # hand. A mirror with one field dropped no longer matches the
    # library's swekit_layout: the numpy twins run, with numpy's bits.
    if timeloop._sweep_kernel() is None:
        pytest.skip("the compiled sweep kernel is unavailable")
    library, config = _native.library(), _wet_plot(True, 2, "hll")
    reference = run_simulation(config)
    assert _compiled.matches(library)
    for k, (mirror, _) in enumerate(_compiled._LAYOUT):
        for dropped in (0, -1):
            fields = list(mirror._fields_)
            del fields[dropped]
            layout = list(_compiled._LAYOUT)
            layout[k] = (type(mirror.__name__, (ctypes.Structure,),
                              {"_fields_": fields}), layout[k][1])
            with mock.patch.object(_compiled, "_LAYOUT", layout), \
                    caplog.at_level(logging.WARNING, timeloop.LOG.name):
                assert not _compiled.matches(library)
                assert timeloop._sweep_kernel() is None
                result = run_simulation(config)
            assert result.sweep_kernel == "numpy"
            assert _same_bits(result.final_state.fields,
                              reference.final_state.fields)
    assert "struct layout" in caplog.text


@pytest.mark.parametrize("level", _native.SWEEP_LEVELS)
def test_every_vector_level_runs_with_numpys_bits(level, caplog):
    # The rain plot runs Manning friction and two-layer infiltration in
    # 2D over wet and dry cells: the tail's vectorized passes. The shock
    # channel runs 1D Manning friction and imposed sides.
    configs = [_wet_plot(two_d, order, flux) for two_d in (False, True)
               for order in (1, 2) for flux in ("hll", "rusanov")]
    configs += [_rain_plot(), _shock_channel()]
    with _sweep_path(f"c:{level}"), \
            caplog.at_level(logging.INFO, timeloop.LOG.name):
        work = timeloop._Workspace(Grid(nx=6, dx=1.0), np.zeros(6),
                                   SchemeConfig(), WALL)
        assert work.compiled.entry is getattr(_native.library(),
                                              f"swekit_step_{level}")
        results = [run_simulation(config) for config in configs]
    with _sweep_path("numpy"):
        references = [run_simulation(config) for config in configs]
    assert all(_same_bits(r.final_state.fields, ref.final_state.fields)
               for r, ref in zip(results, references))
    # Each run's INFO line, less the run's name that leads it.
    messages = {r.getMessage().partition(": ")[2] for r in caplog.records
                if "sweep kernel" in r.getMessage()}
    assert messages == {f"c sweep kernel ({level}), "
                        f"{fileio.writer_name()} writer"}


def test_the_compiled_kernel_runs_wherever_a_compiler_is_found():
    if not _has_compiler():
        pytest.skip("no C compiler on PATH")
    assert run_simulation(_wet_plot(True, 2, "hll")).sweep_kernel == "c"


@pytest.mark.parametrize("failure", ["no compiler", "build fails"])
def test_without_a_build_numpy_runs_with_the_same_bits(failure, tmp_path,
                                                       monkeypatch, caplog):
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    if failure == "no compiler":
        monkeypatch.setenv("PATH", str(tmp_path))
    else:
        monkeypatch.setattr(_native, "_FLAGS",
                            _native._FLAGS + ("-fno-such-option",))
    config = _wet_plot(True, 2, "hll")
    with _fresh_kernel(), caplog.at_level(logging.INFO, timeloop.LOG.name):
        results = [run_simulation(config) for _ in range(2)]
    monkeypatch.undo()
    assert [r.sweep_kernel for r in results] == ["numpy", "numpy"]
    messages = [(r.levelname, r.getMessage()) for r in caplog.records
                if "sweep kernel" in r.getMessage()]
    assert [level for level, _ in messages] == ["WARNING", "INFO", "INFO"]
    assert messages[0][1].startswith("compiled sweep kernel unavailable")
    assert messages[1][1] == messages[2][1] == (
        "run: numpy sweep kernel, numpy writer")
    with _sweep_path("c"):
        compiled = run_simulation(config)
    assert _same_bits(results[0].final_state.fields,
                      compiled.final_state.fields)


def test_a_truncated_library_is_rebuilt_not_loaded(tmp_path, monkeypatch,
                                                   caplog):
    if not _has_compiler():
        pytest.skip("no C compiler on PATH")
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    path = pathlib.Path(_native._library_path())
    size = path.stat().st_size
    path.write_bytes(path.read_bytes()[:size // 2])
    original, builds = _native._compile, []

    def counted(compiler, target):
        builds.append(target)
        original(compiler, target)

    config = _wet_plot(False, 2, "hll")
    with mock.patch.object(_native, "_compile", counted), _fresh_kernel(), \
            caplog.at_level(logging.INFO, _native.LOG.name):
        result = run_simulation(config)
        assert _native._library_path() == str(path)
    assert len(builds) == 1
    compiler = os.path.realpath(shutil.which("gcc") or shutil.which("cc"))
    messages = [r.getMessage() for r in caplog.records
                if r.name == _native.LOG.name]
    assert len(messages) == 1
    assert re.fullmatch(rf"built the kernel library with {re.escape(compiler)}"
                        r" in \d+\.\d\d s", messages[0])
    assert result.sweep_kernel == "c"
    assert path.stat().st_size == size
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    assert pathlib.Path(f"{path}.sha256").read_text() == digest


def test_concurrent_first_runs_share_one_cache(tmp_path):
    if not _has_compiler():
        pytest.skip("no C compiler on PATH")
    # Three processes build into one empty cache at once: each must load
    # a whole library, and no temporary file may be left behind.
    src = pathlib.Path(timeloop.__file__).resolve().parents[1]
    env = {**os.environ, "XDG_CACHE_HOME": str(tmp_path),
           "PYTHONPATH": str(src)}
    code = ("from swekit import timeloop; "
            "print(timeloop._sweep_kernel() is not None)")
    runs = [subprocess.Popen([sys.executable, "-c", code], env=env,
                             stdout=subprocess.PIPE, text=True)
            for _ in range(3)]
    outputs = [run.communicate(timeout=120)[0] for run in runs]
    assert outputs == ["True\n"] * 3
    names = sorted(os.listdir(tmp_path / "swekit"))
    assert len(names) == 2 and names[1] == names[0] + ".sha256"


# ----------------------------------------------------- pinned results
# Final-state SHA-256, final change rate (as float.hex) and mass ledger
# (time, volume, rain, infiltration, boundary in, boundary out, residual,
# as float.hex) of six short runs. Any change to the floating-point
# order of the solver shows here.


def _centers(length, cells):
    return (np.arange(cells) + 0.5) * (length / cells)


def _shock_channel():
    return dataclasses.replace(macdonald_shock_case().build(),
                               final_time=0.5, output_times=())


def _rain_plot():
    """16x16 tilted hillslope with seeded bumps under a rain burst."""
    cells, length = 16, 64.0
    rng = np.random.default_rng(7)
    x = _centers(length, cells)
    xx, yy = np.meshgrid(x, x)
    z = 0.05 * (length - xx)
    for _ in range(8):
        cx, cy = rng.uniform(0.0, length, 2)
        height = rng.uniform(0.05, 0.2)
        width = rng.uniform(2.0, 6.0) * length / 64.0
        z += height * np.exp(-((xx - cx) ** 2 + (yy - cy) ** 2)
                             / (2.0 * width * width))
    zero = np.zeros((cells, cells))
    wall = BoundaryCondition("wall")
    return SimulationConfig(
        grid=Grid(nx=cells, ny=cells, dx=length / cells, dy=length / cells),
        topography=z, initial_state=State((zero, zero.copy(), zero.copy())),
        final_time=6.0, output_times=(3.0,),
        boundaries=BoundarySet(wall, BoundaryCondition("neumann"), wall, wall),
        friction=FrictionParams("manning", 0.03),
        rain=Hyetograph((0.0, 3.0), (5e-3, 0.0)),
        infiltration=GreenAmptParams(ks=2e-4, kc=5e-5, zc=0.002, hf=0.1,
                                     dtheta=0.3))


def _thacker_bowl():
    params = ThackerParams()
    cells, length = 24, 4.0
    x = _centers(length, cells)
    xx, yy = np.meshgrid(x, x)
    h = thacker_depth(params, xx, yy, 0.0)
    u, v = thacker_velocity(params, 0.0)
    return SimulationConfig(
        grid=Grid(nx=cells, ny=cells, dx=length / cells, dy=length / cells),
        topography=thacker_bowl(params, xx, yy),
        initial_state=State((h, h * u, h * v)), final_time=0.5)


def _open_channel_2d():
    """Imposed inflow and outflow across a channel, periodic bottom/top.

    The left side takes a discharge and the right side a depth, so the
    imposed-boundary resolver runs on every cell of both sides on every
    stage; a bump off the centre line makes the periodic y wrap carry
    flow.
    """
    nx, ny, length, width = 12, 8, 6.0, 2.0
    x = _centers(length, nx)
    y = _centers(width, ny)
    xx, yy = np.meshgrid(x, y)
    z = 0.02 * (length - xx) + 0.1 * np.exp(-((xx - 3.0) ** 2
                                              + (yy - 0.6) ** 2))
    h = np.maximum(0.4 - z, 0.0) + 0.05 * (yy > 1.0)
    periodic = BoundaryCondition("periodic")
    return SimulationConfig(
        grid=Grid(nx=nx, ny=ny, dx=length / nx, dy=width / ny),
        topography=z,
        initial_state=State((h, 0.1 * h, np.zeros_like(h))),
        final_time=1.0,
        boundaries=BoundarySet(
            BoundaryCondition("imposed_discharge", discharge=0.3),
            BoundaryCondition("imposed_depth", depth=0.3), periodic, periodic))


def _neumann_channel_1d():
    """A dam break leaving through open (neumann) sides over a slope."""
    n = 40
    x = _centers(10.0, n)
    h = np.where(x < 6.0, 1.0, 0.1)
    return SimulationConfig(
        grid=Grid(nx=n, dx=10.0 / n), topography=0.01 * x,
        initial_state=State((h, 0.2 * h)), final_time=1.0,
        boundaries=NEUMANN)


def _periodic_channel_1d():
    """A wave running around a periodic channel over a bump."""
    n = 40
    x = _centers(4.0, n)
    h = 1.0 + 0.2 * np.sin(0.5 * np.pi * x)
    per = BoundaryCondition("periodic")
    return SimulationConfig(
        grid=Grid(nx=n, dx=4.0 / n),
        topography=0.1 * np.exp(-((x - 2.0) ** 2)),
        initial_state=State((h, 0.3 * h)), final_time=1.0,
        boundaries=BoundarySet(per, per), scheme=SchemeConfig(order=1))


PINNED = {
    "shock_channel": (
        _shock_channel, 26,
        "dcf9490dc846df078115f32ad3bc6d45ce2fc2ae7b710ab5407b066d501f0142",
        "0x1.ef1b8740f0f7dp+3"),
    "rain_plot": (
        _rain_plot, 6,
        "aa3ae0c690b6a359e252e8c842d2206dcb15c02a6c7b6c6871a0a6f49c8230b4",
        "0x1.44478c1a134a4p-10"),
    "thacker_bowl": (
        _thacker_bowl, 20,
        "a51f7dc5260d9f721eedc4b383a54af0c8e12f4866efc7ccdc0e49bd13fdb85f",
        "0x1.acc41ec17fecbp-3"),
    "open_channel_2d": (
        _open_channel_2d, 44,
        "620588ddf012fd5c992cf116c6c25b291cc062db572923dfe0d5c270b085cc26",
        "0x1.202cce68b1c79p-1"),
    "neumann_channel_1d": (
        _neumann_channel_1d, 35,
        "2050f1198d7dd4dbcf3b1d194f485a2f97630a0e26b9eb384d678d91a7da9ed1",
        "0x1.2f24943490ad6p+2"),
    "periodic_channel_1d": (
        _periodic_channel_1d, 39,
        "b806b0ceaeaf87007fdb2830543fcd4b28148ddb38016f8b9a912f4a62adfee7",
        "0x1.3019e32c7c435p+1"),
}
PINNED_LEDGERS = {
    "open_channel_2d": [
        ("0x0.0p+0", "0x1.08a3bfee0f67cp+2", "0x0.0p+0",
         "0x0.0p+0", "0x0.0p+0", "0x0.0p+0", "0x0.0p+0"),
        ("0x1.0000000000000p+0", "0x1.1365d2c094a6dp+2", "0x0.0p+0",
         "0x0.0p+0", "0x1.25c6fe48ad753p-1", "0x1.9f6ccf6906f98p-2", "0x1.0000000000000p-50"),
    ],
    "neumann_channel_1d": [
        ("0x0.0p+0", "0x1.999999999999ap+2", "0x0.0p+0",
         "0x0.0p+0", "0x0.0p+0", "0x0.0p+0", "0x0.0p+0"),
        ("0x1.0000000000000p+0", "0x1.a24c3896336dbp+2", "0x0.0p+0",
         "0x0.0p+0", "0x1.3525037e70fa4p-3", "0x1.ed123eb3673fbp-7", "-0x1.0000000000000p-49"),
    ],
    "periodic_channel_1d": [
        ("0x0.0p+0", "0x1.0000000000000p+2", "0x0.0p+0",
         "0x0.0p+0", "0x0.0p+0", "0x0.0p+0", "0x0.0p+0"),
        ("0x1.0000000000000p+0", "0x1.0000000000000p+2", "0x0.0p+0",
         "0x0.0p+0", "0x0.0p+0", "0x0.0p+0", "0x0.0p+0"),
    ],
    "rain_plot": [
        ("0x0.0p+0", "0x0.0p+0", "0x0.0p+0",
         "0x0.0p+0", "0x0.0p+0", "0x0.0p+0", "0x0.0p+0"),
        ("0x1.8000000000000p+1", "0x1.35ea1b3819618p+5", "0x1.eb851eb851eb8p+5",
         "0x1.6930832c1eb08p+4", "0x0.0p+0", "0x1.02c1ea2931c4fp-3", "0x0.0p+0"),
        ("0x1.8000000000000p+2", "0x1.b22f272af7519p+4", "0x1.eb851eb851eb8p+5",
         "0x1.0dc3113fcadf5p+5", "0x0.0p+0", "0x1.2a9e78c2d8dd0p-1", "0x1.0000000000000p-48"),
    ],
    "shock_channel": [
        ("0x0.0p+0", "0x1.598aafba5723cp+6", "0x0.0p+0",
         "0x0.0p+0", "0x0.0p+0", "0x0.0p+0", "0x0.0p+0"),
        ("0x1.0000000000000p-1", "0x1.5d6c64e6bc80cp+6", "0x0.0p+0",
         "0x0.0p+0", "0x1.f3480b8735ee0p-1", "0x1.36baaa43b2588p-8", "-0x1.0000000000000p-46"),
    ],
    "thacker_bowl": [
        ("0x0.0p+0", "0x1.425ed097b425ep-3", "0x0.0p+0",
         "0x0.0p+0", "0x0.0p+0", "0x0.0p+0", "0x0.0p+0"),
        ("0x1.0000000000000p-1", "0x1.425ed097b4260p-3", "0x0.0p+0",
         "0x0.0p+0", "0x0.0p+0", "0x0.0p+0", "0x1.0000000000000p-54"),
    ],
}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_results_are_pinned_bit_for_bit(name):
    make, steps, sha, change_rate = PINNED[name]
    result = run_simulation(make())
    digest = hashlib.sha256()
    for field in ("h", "q", "qx", "qy"):
        if hasattr(result.final_state, field):
            digest.update(getattr(result.final_state, field).tobytes())
    ledger = [tuple(float(v).hex() for v in (
        row.time, row.volume, row.rain, row.infiltration, row.boundary_in,
        row.boundary_out, row.residual)) for row in result.mass_balance]
    assert result.steps == steps
    assert digest.hexdigest() == sha
    assert result.final_change_rate.hex() == change_rate
    assert ledger == PINNED_LEDGERS[name]


# ------------------------------------------- sweep kernel vs reference
# The operator as it was before the sweep kernel, one allocating numpy
# expression per formula, kept as the reference the kernel must match
# bit for bit (finite inputs). Its flux, limiter and velocity helpers
# are the original ones too, except that the faces test dryness against
# the scheme's h_eps, as the kernels do.


def _ref_velocity(h, q, h_eps):
    h = np.asarray(h, dtype=float)
    q = np.asarray(q, dtype=float)
    wet = h > h_eps
    out = np.zeros(np.broadcast(h, q).shape)
    np.divide(q, h, out=out, where=wet)
    return out


def _ref_eigenvalues(h, q, g, h_eps):
    u = _ref_velocity(h, q, h_eps)
    c = np.sqrt(g * np.maximum(np.asarray(h, dtype=float), 0.0))
    return u - c, u + c


def _ref_hll(h_left, q_left, h_right, q_right, g, h_eps):
    h_l = np.asarray(h_left, dtype=float)
    q_l = np.asarray(q_left, dtype=float)
    h_r = np.asarray(h_right, dtype=float)
    q_r = np.asarray(q_right, dtype=float)
    u_l = _ref_velocity(h_l, q_l, h_eps)
    u_r = _ref_velocity(h_r, q_r, h_eps)
    c_l = np.sqrt(g * np.maximum(h_l, 0.0))
    c_r = np.sqrt(g * np.maximum(h_r, 0.0))
    c1 = np.minimum(u_l - c_l, u_r - c_r)
    c2 = np.maximum(u_l + c_l, u_r + c_r)
    half_g = 0.5 * g
    fl_h, fl_q = q_l, q_l * u_l + half_g * (h_l * h_l)
    fr_h, fr_q = q_r, q_r * u_r + half_g * (h_r * h_r)
    spread = c2 - c1
    inv = 1.0 / np.where(spread > 0.0, spread, 1.0)
    weight = (c1 * c2) * inv
    c2i = c2 * inv
    c1i = c1 * inv
    mid_h = (c2i * fl_h - c1i * fr_h) + weight * (h_r - h_l)
    mid_q = (c2i * fl_q - c1i * fr_q) + weight * (q_r - q_l)
    left_going = c1 >= 0.0
    right_going = c2 <= 0.0
    f_h = np.where(left_going, fl_h, np.where(right_going, fr_h, mid_h))
    f_q = np.where(left_going, fl_q, np.where(right_going, fr_q, mid_q))
    return f_h, f_q


def _ref_rusanov(h_left, q_left, h_right, q_right, g, h_eps):
    lam1_l, lam2_l = _ref_eigenvalues(h_left, q_left, g, h_eps)
    lam1_r, lam2_r = _ref_eigenvalues(h_right, q_right, g, h_eps)
    c = np.maximum(np.maximum(np.abs(lam1_l), np.abs(lam2_l)),
                   np.maximum(np.abs(lam1_r), np.abs(lam2_r)))
    fl_h = np.asarray(q_left, dtype=float)
    fl_q = fl_h * _ref_velocity(h_left, q_left, h_eps) \
        + 0.5 * g * np.asarray(h_left, dtype=float)**2
    fr_h = np.asarray(q_right, dtype=float)
    fr_q = fr_h * _ref_velocity(h_right, q_right, h_eps) \
        + 0.5 * g * np.asarray(h_right, dtype=float)**2
    f_h = 0.5 * (fl_h + fr_h) - 0.5 * c * (np.asarray(h_right, dtype=float) - h_left)
    f_q = 0.5 * (fl_q + fr_q) - 0.5 * c * (np.asarray(q_right, dtype=float) - q_left)
    return f_h, f_q


def _ref_transverse(f_mass, v_left, v_right):
    carried = np.where(np.asarray(f_mass) > 0.0, v_left, v_right)
    return f_mass * carried


def _ref_minmod(a, b):
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return np.where(a * b <= 0.0, 0.0, np.where(np.abs(a) < np.abs(b), a, b))


def _ref_muscl_slopes(values, dx):
    v = np.asarray(values, dtype=float)
    slopes = np.zeros_like(v)
    if v.shape[-1] >= 3:
        d = (v[..., 1:] - v[..., :-1]) / dx
        slopes[..., 1:-1] = _ref_minmod(d[..., :-1], d[..., 1:])
    return slopes


FLUX_FUNCTIONS = {"hll": _ref_hll, "rusanov": _ref_rusanov}
velocity = _ref_velocity
muscl_slopes = _ref_muscl_slopes
transverse_component = _ref_transverse


def _convective_1d(h, q, z, n, dx, bcs, scheme, warnings):
    """Flux divergence for the interior cells of a 1D state.

    Returns (phi_h, phi_q, f_mass_west, f_mass_east): the increment
    arrays such that W* = W - dt * phi, plus the mass fluxes through
    the two domain boundary faces.
    """
    g = scheme.g
    flux = FLUX_FUNCTIONS[scheme.flux_name]
    size = n + 4
    h_ext = np.empty(size)
    q_ext = np.empty(size)
    z_ext = np.empty(size)
    h_ext[2:n + 2] = h
    q_ext[2:n + 2] = q
    z_ext[2:n + 2] = z
    fill_ghosts_1d(h_ext, q_ext, z_ext, n, bcs, g, warnings, scheme.h_eps)

    u_ext = velocity(h_ext, q_ext, scheme.h_eps)
    if scheme.order == 2:
        # One stacked slope pass over (h, u, h+z) costs a third of the
        # numpy dispatch overhead of three separate passes.
        stacked = np.empty((3, n + 4))
        stacked[0] = h_ext
        stacked[1] = u_ext
        np.add(h_ext, z_ext, out=stacked[2])
        s = muscl_slopes(stacked, dx) * (0.5 * dx)
        lo = stacked - s
        hi = stacked + s
        h_lo, u_lo, w_lo = lo
        h_hi, u_hi, w_hi = hi
        z_lo = w_lo - h_lo
        z_hi = w_hi - h_hi
    else:
        h_lo = h_hi = h_ext
        u_lo = u_hi = u_ext
        z_lo = z_hi = z_ext

    # Interface j sits between ext cells j+1 and j+2 (j = 0..n); the
    # minus side is the left cell's high-face trace.
    hm = h_hi[1:n + 2]
    um = u_hi[1:n + 2]
    zm = z_hi[1:n + 2]
    hp = h_lo[2:n + 3]
    up = u_lo[2:n + 3]
    zp = z_lo[2:n + 3]

    z_face = np.maximum(zm, zp)
    h_l = np.maximum(hm + zm - z_face, 0.0)
    h_r = np.maximum(hp + zp - z_face, 0.0)
    f_h, f_q = flux(h_l, h_l * um, h_r, h_r * up, g, scheme.h_eps)

    half_g = 0.5 * g
    corr_m = half_g * (hm * hm - h_l * h_l)
    corr_p = half_g * (hp * hp - h_r * h_r)
    fc = -half_g * (h_lo[2:n + 2] + h_hi[2:n + 2]) * (z_hi[2:n + 2] - z_lo[2:n + 2])

    phi_h = (f_h[1:] - f_h[:-1]) / dx
    phi_q = ((f_q[1:] + corr_m[1:]) - (f_q[:-1] + corr_p[:-1]) - fc) / dx
    return phi_h, phi_q, float(f_h[0]), float(f_h[-1])


def _sweep_2d(h2, qn2, qt2, z2, n, d, scheme):
    """One directional sweep along the last axis of ghost-filled arrays.

    h2 and friends are (rows, n+4) views covering the interior rows of
    the transverse direction. Returns per-cell divergence terms (mass,
    normal momentum, transverse momentum) of shape (rows, n) and the
    boundary-face mass fluxes of shape (rows,).
    """
    g = scheme.g
    flux = FLUX_FUNCTIONS[scheme.flux_name]
    un = velocity(h2, qn2, scheme.h_eps)
    ut = velocity(h2, qt2, scheme.h_eps)
    if scheme.order == 2:
        # Stacked slope pass over (h, un, ut, h+z), as in the 1D operator.
        stacked = np.empty((4,) + h2.shape)
        stacked[0] = h2
        stacked[1] = un
        stacked[2] = ut
        np.add(h2, z2, out=stacked[3])
        s = muscl_slopes(stacked, d) * (0.5 * d)
        lo = stacked - s
        hi = stacked + s
        h_lo, un_lo, ut_lo, w_lo = lo
        h_hi, un_hi, ut_hi, w_hi = hi
        z_lo = w_lo - h_lo
        z_hi = w_hi - h_hi
    else:
        h_lo = h_hi = h2
        un_lo = un_hi = un
        ut_lo = ut_hi = ut
        z_lo = z_hi = z2

    hm = h_hi[:, 1:n + 2]
    um = un_hi[:, 1:n + 2]
    vm = ut_hi[:, 1:n + 2]
    zm = z_hi[:, 1:n + 2]
    hp = h_lo[:, 2:n + 3]
    up = un_lo[:, 2:n + 3]
    vp = ut_lo[:, 2:n + 3]
    zp = z_lo[:, 2:n + 3]

    z_face = np.maximum(zm, zp)
    h_l = np.maximum(hm + zm - z_face, 0.0)
    h_r = np.maximum(hp + zp - z_face, 0.0)
    f_h, f_qn = flux(h_l, h_l * um, h_r, h_r * up, g, scheme.h_eps)
    # Transverse momentum rides on the mass flux, upwinded by its sign
    # (same rule for both sweep directions).
    f_qt = transverse_component(f_h, vm, vp)

    half_g = 0.5 * g
    corr_m = half_g * (hm * hm - h_l * h_l)
    corr_p = half_g * (hp * hp - h_r * h_r)
    fc = -half_g * (h_lo[:, 2:n + 2] + h_hi[:, 2:n + 2]) \
        * (z_hi[:, 2:n + 2] - z_lo[:, 2:n + 2])

    div_mass = (f_h[:, 1:] - f_h[:, :-1]) / d
    div_norm = ((f_qn[:, 1:] + corr_m[:, 1:])
                - (f_qn[:, :-1] + corr_p[:, :-1]) - fc) / d
    div_trans = (f_qt[:, 1:] - f_qt[:, :-1]) / d
    return div_mass, div_norm, div_trans, f_h[:, 0].copy(), f_h[:, -1].copy()


def _convective_2d(state, z, grid, scheme, bcs, warnings):
    nx, ny = grid.nx, grid.ny
    shape = (ny + 4, nx + 4)
    h_ext = np.empty(shape)
    qx_ext = np.empty(shape)
    qy_ext = np.empty(shape)
    z_ext = np.empty(shape)
    inner = (slice(2, ny + 2), slice(2, nx + 2))
    h_ext[inner] = state.h
    qx_ext[inner] = state.qx
    qy_ext[inner] = state.qy
    z_ext[inner] = z
    fill_ghosts_2d(h_ext, qx_ext, qy_ext, z_ext, nx, ny, bcs, scheme.g, warnings,
                   scheme.h_eps)

    rows = slice(2, ny + 2)
    dm_x, dn_x, dt_x, f_west, f_east = _sweep_2d(
        h_ext[rows, :], qx_ext[rows, :], qy_ext[rows, :], z_ext[rows, :],
        nx, grid.dx, scheme)

    cols = slice(2, nx + 2)
    dm_y, dn_y, dt_y, f_south, f_north = _sweep_2d(
        h_ext[:, cols].T, qy_ext[:, cols].T, qx_ext[:, cols].T,
        z_ext[:, cols].T, ny, grid.dy, scheme)

    phi_h = dm_x + dm_y.T
    phi_qx = dn_x + dt_y.T
    phi_qy = dt_x + dn_y.T
    return phi_h, phi_qx, phi_qy, (f_west, f_east, f_south, f_north)


_SIDE_KINDS = st.one_of(
    st.just(BoundaryCondition("wall")),
    st.just(BoundaryCondition("neumann")),
    st.builds(lambda d: BoundaryCondition("imposed_depth", depth=d),
              st.floats(0.0, 1.5)),
    st.builds(lambda q: BoundaryCondition("imposed_discharge", discharge=q),
              st.floats(-2.0, 2.0)),
    st.builds(lambda d, q: BoundaryCondition("imposed_both", depth=d,
                                             discharge=q),
              st.floats(0.05, 1.5), st.floats(-3.0, 3.0)),
)


def _pair(draw, kinds=_SIDE_KINDS):
    if draw(st.integers(0, 4)) == 0:
        periodic = BoundaryCondition("periodic")
        return periodic, periodic
    return draw(kinds), draw(kinds)


@st.composite
def operator_cases(draw, two_d):
    """A random state on emerged topography with dry cells."""
    if two_d:
        rows = draw(st.sampled_from((1, 2, 3, 5, 127, 200)))
        other = draw(st.integers(1, 9).filter(lambda m: m != rows))
        # ny = 1 would make the grid 1D.
        nx, ny = (other, rows) if draw(st.booleans()) else (rows, other)
        if ny == 1:
            nx, ny = ny, nx
        grid = Grid(nx=nx, ny=ny, dx=draw(st.floats(0.1, 2.0)),
                    dy=draw(st.floats(0.1, 2.0)))
        shape = (ny, nx)
    else:
        grid = Grid(nx=draw(st.integers(1, 60)), dx=draw(st.floats(0.1, 2.0)))
        shape = (grid.nx,)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    z = rng.uniform(0.0, 1.0, shape) * draw(st.sampled_from((0.0, 0.3, 1.0)))
    level = draw(st.floats(0.0, 1.2))
    h = np.maximum(level - z, 0.0) + rng.uniform(0.0, 0.2, shape) \
        * (rng.random(shape) < 0.5)
    # Depths below 1e-160 make minmod products underflow to zero.
    h = np.where(rng.random(shape) < 0.15,
                 rng.uniform(0.0, 1e-160, shape), h)
    # Depths on either side of every dry threshold h_eps below.
    h = np.where(rng.random(shape) < 0.1,
                 10.0 ** rng.uniform(-13.0, -2.0, shape), h)
    h = np.where(rng.random(shape) < 0.2, 0.0, h)
    discharges = [rng.normal(0.0, 0.5, shape) * (rng.random(shape) < 0.9)
                  for _ in range(2 if two_d else 1)]
    # Negative zeros: min/max ties and copysign must pick numpy's sign.
    signed = draw(st.sampled_from((0.1, 0.5)))
    z, h, *discharges = (np.where(rng.random(shape) < signed, -0.0, a)
                         for a in (z, h, *discharges))
    left, right = _pair(draw)
    bottom, top = _pair(draw) if two_d else (BoundaryCondition(),) * 2
    scheme = SchemeConfig(order=draw(st.sampled_from((1, 2))),
                          flux_name=draw(st.sampled_from(("hll", "rusanov"))),
                          g=draw(st.sampled_from((9.81, 1.0))),
                          h_eps=draw(st.sampled_from((1e-12, 1e-6, 1e-3))))
    state = State((h, *discharges))
    budget = draw(st.sampled_from((16, 64, 700, timeloop.SWEEP_CELLS)))
    return grid, z, state, BoundarySet(left, right, bottom, top), scheme, budget


def _kernel(grid, z, state, bcs, scheme, budget, path):
    with _sweep_path(path), \
            mock.patch.object(timeloop, "SWEEP_CELLS", budget):
        work = timeloop._Workspace(grid, z, scheme, bcs)
    kernel, _, level = path.partition(":")
    assert (work.kernel, work.level) == (kernel, level or None)
    warnings = []
    phi = work.divergence(state.fields, warnings)
    # Mass fluxes through the boundary faces: west, east[, south, north].
    faces = tuple(side[:rows] for (rows, _, _), sides in
                  zip(work.directions, work.faces) for side in sides)
    return phi, faces, warnings


def _both_kernels(grid, z, state, bcs, scheme, budget):
    """The numpy kernel's results, after checking that the compiled
    kernel (where there is one) gives the same bits at every vector
    level the CPU supports."""
    phi, faces, warnings = _kernel(grid, z, state, bcs, scheme, budget,
                                   "numpy")
    for path in _kernel_paths()[1:]:
        c_phi, c_faces, c_warnings = _kernel(grid, z, state, bcs, scheme,
                                             budget, path)
        assert _same_bits(c_phi, phi)
        assert all(_same_bits(a, b) for a, b in zip(c_faces, faces))
        assert c_warnings == warnings
    return phi, faces, warnings


@settings(max_examples=150, deadline=None)
@given(operator_cases(two_d=False))
def test_1d_kernel_matches_the_reference_operator(case):
    grid, z, state, bcs, scheme, budget = case
    ref_warnings = []
    *ref_phi, f_west, f_east = _convective_1d(
        state.h, state.q, z, grid.nx, grid.dx, bcs, scheme, ref_warnings)
    phi, faces, warnings = _both_kernels(grid, z, state, bcs, scheme, budget)
    assert all(np.array_equal(a, b) for a, b in zip(phi, ref_phi))
    assert all(np.array_equal(a, [b]) for a, b in zip(faces, (f_west, f_east)))
    assert warnings == ref_warnings


@settings(max_examples=120, deadline=None)
@given(operator_cases(two_d=True))
def test_2d_kernel_matches_the_reference_operator(case):
    grid, z, state, bcs, scheme, budget = case
    ref_warnings = []
    *ref_phi, ref_faces = _convective_2d(state, z, grid, scheme, bcs,
                                         ref_warnings)
    phi, faces, warnings = _both_kernels(grid, z, state, bcs, scheme, budget)
    assert all(np.array_equal(a, b) for a, b in zip(phi, ref_phi))
    assert all(np.array_equal(a, b) for a, b in zip(faces, ref_faces))
    assert warnings == ref_warnings


# The compiled kernel runs the y sweep TILE = 8 rows at a time; grids of
# 1, 7, 9 and 17 columns end on a partial tile.
_TILE_COUNTS = (1, 7, 8, 9, 17)


@pytest.mark.parametrize("nx", _TILE_COUNTS)
@pytest.mark.parametrize("ny", _TILE_COUNTS[1:])  # ny = 1 is a 1D grid
def test_partial_tiles_give_numpys_bits_at_every_level(nx, ny):
    rng = np.random.default_rng(100 * nx + ny)
    shape = (ny, nx)
    z = rng.uniform(0.0, 0.3, shape)
    h = np.maximum(0.25 - z, 0.0) * (rng.random(shape) < 0.9)
    discharges = [rng.normal(0.0, 0.05, shape) for _ in range(2)]
    state = State((np.where(rng.random(shape) < 0.1, -0.0, h), *discharges))
    grid = Grid(nx=nx, ny=ny, dx=0.5, dy=0.7)
    bcs = BoundarySet(BoundaryCondition("neumann"), BoundaryCondition("wall"),
                      BoundaryCondition("wall"), BoundaryCondition("neumann"))
    for order in (1, 2):
        for flux in ("hll", "rusanov"):
            scheme = SchemeConfig(order=order, flux_name=flux)
            _both_kernels(grid, z, state, bcs, scheme, timeloop.SWEEP_CELLS)


@pytest.mark.parametrize("rows", _TILE_COUNTS)
@pytest.mark.parametrize("two_d", [False, True])
def test_the_y_sweep_writes_its_outputs_and_nothing_else(rows, two_d):
    """A run's frame, rows cells wide (11 high in 2D), carved from one
    buffer filled with NaN as the workspace lays it out: the x sweep
    stores phi and its faces, then the y sweep of a 2D frame adds into
    phi and writes its faces, each with the numpy kernel's bits, and
    every other element of the buffer, and of the work past its size,
    keeps its bits."""
    if timeloop._sweep_kernel() is None:
        pytest.skip("the compiled sweep kernel is unavailable")
    library, nx, ny = _native.library(), rows, 11 if two_d else 1
    grid = Grid(nx=nx, ny=ny, dx=0.3, dy=0.4)
    nq, scheme = len(grid.shape), SchemeConfig(order=2)
    rng = np.random.default_rng(100 * nx + ny)
    shapes = ((nq + 2, *(n + 4 for n in grid.shape)), (nq + 1, *grid.shape),
              (nq, 2, max(nx, ny) if nq == 2 else 1))
    sizes = [math.prod(shape) for shape in shapes]
    buffer = np.full(sum(sizes) + 3 * 4, np.nan)
    views, start = [], 3
    for shape, size in zip(shapes, sizes):
        views.append(buffer[start:start + size].reshape(shape))
        start += size + 3
    ext, phi, faces = views
    ext[0] = rng.uniform(0.0, 0.2, ext[0].shape)
    ext[1:-1] = rng.normal(0.0, 0.05, ext[1:-1].shape)
    ext[-1] = rng.uniform(0.0, 0.1, ext[-1].shape)
    initial = buffer.copy()

    def numpy_sweep(rows, n, d, h, q, z):
        pool = [np.empty(size, dtype=bool if k == 2 else float)
                for k, size in enumerate(timeloop._Sweep.sizes(rows, n, nq))]
        outputs = (np.empty((nq, rows, n)), np.empty((rows, n)),
                   np.empty((2, rows)))
        timeloop._Sweep(pool, rows, n, nq, d, scheme).run(h, q, z, *outputs)
        return outputs

    # The numpy kernel over the workspace's views of each direction.
    x_rows = ext[:, 2:-2] if nq == 2 else ext[:, None]
    carried, normal, x_faces = numpy_sweep(ny, nx, grid.dx, x_rows[0],
                                           x_rows[1:-1], x_rows[-1])
    phi_x = np.empty_like(phi)
    phi_x[::2] = carried.reshape(phi_x[::2].shape)
    phi_x[1] = normal.reshape(phi_x[1].shape)
    if nq == 2:
        carried, normal, y_faces = numpy_sweep(
            nx, ny, grid.dy, ext[0, :, 2:-2].T,
            ext[2:0:-1, :, 2:-2].transpose(0, 2, 1), ext[3, :, 2:-2].T)
        phi_y = phi_x + np.concatenate([carried.transpose(0, 2, 1),
                                        normal.T[None]])

    frame = _compiled.frame(grid, scheme, ext, phi, faces)
    size = library.swekit_sweep_work(frame)
    work = np.full(size + 64, np.nan)
    frame.contents.work = work.ctypes.data
    for level in _native.sweep_levels():
        np.copyto(buffer, initial)
        sweep = getattr(library, f"swekit_sweep_{level}")
        sweep(frame, 0)
        assert _same_bits(phi, phi_x), level
        assert _same_bits(faces[0, :, :ny], x_faces), level
        faces[0, :, :ny] = np.nan
        if nq == 2:
            sweep(frame, 1)
            assert _same_bits(phi, phi_y), level
            assert _same_bits(faces[1, :, :nx], y_faces), level
            faces[1, :, :nx] = np.nan
        phi[...] = np.nan
        assert _same_bits(buffer, initial), level
        assert _same_bits(work[size:], np.full(64, np.nan)), level


@pytest.mark.parametrize("two_d", [False, True])
def test_steps_return_fresh_arrays_and_leave_their_input(two_d):
    if two_d:
        config = _rain_plot()
    else:
        config = dataclasses.replace(_shock_channel(), final_time=0.05)
    grid, scheme = config.grid, config.scheme
    ga = None
    if config.infiltration is not None:
        ga = GreenAmptState(config.infiltration,
                            np.full(config.initial_state.h.shape, 1e-3))
        ga_before = ga.v_inf.copy()
    for path in _kernel_paths():
        with _sweep_path(path):
            work = timeloop._Workspace(grid, config.topography, scheme,
                                       config.boundaries,
                                       infiltration=ga is not None)
        ctx = timeloop._RunContext(grid, scheme, config.boundaries,
                                   config.friction, config.rain,
                                   timeloop._WarningCounter(), work)
        state = config.initial_state.copy()
        before = state.copy()
        dt = 0.5 * compute_dt(state, grid, scheme, config.boundaries)
        first, ga_first, _ = heun_step(state, ga, 0.0, dt, ctx)
        second, ga_second, _ = heun_step(first, ga_first, dt, dt, ctx)
        assert all(np.array_equal(a, b) for a, b in
                   zip(state.fields, before.fields))
        buffers = _workspace_buffers(work)
        arrays = (*first.fields, *second.fields)
        for i, a in enumerate(arrays):
            assert not any(np.shares_memory(a, b) for b in buffers)
            # Fields of one state may share a block; fields of two may
            # not.
            if i < len(arrays) // 2:
                assert not any(np.shares_memory(a, b)
                               for b in second.fields)
        if ga is not None:
            # Infiltration runs in the workspace, but the cumulative
            # depth a step returns is its own: Heun averages it with the
            # next one.
            assert np.array_equal(ga.v_inf, ga_before)
            assert np.all(ga_second.v_inf > ga_first.v_inf)
            v_infs = (ga.v_inf, ga_first.v_inf, ga_second.v_inf)
            for i, a in enumerate(v_infs):
                assert not any(np.shares_memory(a, b) for b in buffers)
                assert not any(np.shares_memory(a, b) for b in arrays)
                assert not any(np.shares_memory(a, b)
                               for b in v_infs[i + 1:])

    result = run_simulation(dataclasses.replace(config, output_times=()))
    final = result.final_state.fields
    for _, snapshot in result.snapshots[:-1]:
        assert not any(np.shares_memory(a, b) for a in final
                       for b in snapshot.fields)
    if ga is not None:
        assert not any(np.shares_memory(result.ga_state.v_inf, b)
                       for _, snapshot in result.snapshots
                       for b in snapshot.fields)


# ------------------------------------------------------ compiled step
# The step of _native.c, driven by _compiled.CompiledStep.run, does the
# work of the numpy loop's step helpers: the ghost fill, the sweeps, the
# stage tail, the Heun average and the CFL supremum. Wherever it is
# built, every path must give numpy's bits, report numpy's warnings,
# raise numpy's faults, and hand back no view of the workspace. The
# tests below call both loops directly, up to one landing: a
# SimulationConfig would refuse their negative and NaN depths.

_SOILS = (None, GreenAmptParams(ks=1e-5, hf=0.1, dtheta=0.3),
          GreenAmptParams(ks=1e-5, kc=1e-6, zc=0.01, hf=0.05, dtheta=0.4),
          GreenAmptParams(ks=3e-5, hf=0.2, dtheta=0.25, imax=2e-5),
          GreenAmptParams(ks=1e-5, kc=2e-6, zc=0.002, dtheta=1.0, imax=0.0))
# The rough ones damp by factors far from 1, where a rounding change in
# the factor's denominator shows.
_FRICTIONS = (FrictionParams(), FrictionParams("manning", 0.03),
              FrictionParams("manning", 2.0),
              FrictionParams("darcy_weisbach", 0.2),
              FrictionParams("darcy_weisbach", 500.0))


def _needs_the_compiled_step():
    if len(_kernel_paths()) == 1:
        pytest.skip("the compiled step is unavailable")


def _special(rng, values, h_eps, share):
    """values with a share of its entries replaced by the values a step
    must treat as numpy does: signed zeros, depths at h_eps and either
    side of it, small and large negative depths, NaN and infinities."""
    specials = np.array([0.0, -0.0, h_eps, 0.5 * h_eps, 2.0 * h_eps,
                         -0.5 * timeloop.NEGATIVE_DEPTH_TOL,
                         -2.0 * timeloop.NEGATIVE_DEPTH_TOL, 1e-300, np.nan,
                         np.inf, -np.inf])
    chosen = rng.random(values.shape) < share
    return np.where(chosen, rng.choice(specials, values.shape), values)


def _context(grid, scheme, friction, rain, infiltration, path, z=None,
             bcs=WALL):
    z = np.zeros(grid.shape) if z is None else z
    with _sweep_path(path):
        work = timeloop._Workspace(grid, z, scheme, bcs,
                                   infiltration=infiltration)
    rain = Hyetograph((0.0,), (rain,)) if rain else None
    return timeloop._RunContext(grid, scheme, bcs, friction, rain,
                                timeloop._WarningCounter(), work)


def _workspace_buffers(work):
    buffers = [work.ext, work.full.floats, work.full.flags, work.stage,
               work.faces]
    if work.kernel == "numpy":
        return buffers + [*work.pool] + ([work.y_div] if work.two_d else [])
    step = work.compiled
    return buffers + [work.sweep_work] + (
        [] if step.v_stage is None else [step.v_stage])


def _outcome(call, work):
    """The bits of what call returns, or its fault."""
    try:
        returned = call()
    except NumericalFault as fault:
        return ("fault", str(fault), fault.index, fault.time)
    for a in returned:
        if isinstance(a, np.ndarray):
            assert not any(np.shares_memory(a, b)
                           for b in _workspace_buffers(work))
    return [(_bits(a).tolist() if isinstance(a, np.ndarray) else
             float(a).hex()) for a in returned if a is not None]


def _to_landing(ctx, state, ga, final, on_step=None):
    """run_simulation's loop over ctx's workspace (the compiled one, or
    the numpy one where the sweep is numpy's) from state and the
    GreenAmptState ga (or None) up to one landing at final: the landing's
    time, state and ledger sums, then the loop's results, the cumulative
    infiltrated depth last."""
    landed = []

    def land(t, state, cum):
        landed.extend((t, state.fields, *dataclasses.astuple(cum)))

    compiled = ctx.work.compiled
    loop = timeloop._numpy_run if compiled is None else compiled.run
    *results, ga = loop(state, ga, ctx, [final], final,
                        float(np.min(state.h)), on_step, land)
    return (*landed, *results, None if ga is None else ga.v_inf)


class _Enough(Exception):
    """Raised by an on_step to end a run."""


@contextlib.contextmanager
def _log_records():
    """The records timeloop.LOG takes in the block, INFO ones included."""
    records = []
    handler = logging.Handler(logging.INFO)
    handler.emit = records.append
    level = timeloop.LOG.level
    timeloop.LOG.addHandler(handler)
    timeloop.LOG.setLevel(logging.INFO)
    try:
        yield records
    finally:
        timeloop.LOG.removeHandler(handler)
        timeloop.LOG.setLevel(level)


@st.composite
def step_cases(draw):
    """A random state (see operator_cases), with a share of special
    values and, often, dry or nearly dry cells along every side; sources,
    and a dt a multiple of the CFL step."""
    grid, z, state, bcs, scheme, _ = draw(operator_cases(draw(st.booleans())))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    share = draw(st.sampled_from((0.0, 0.0, 0.01, 0.1)))
    fields = _special(rng, state.fields, scheme.h_eps, share)
    if draw(st.booleans()):
        # The first interior cells of the sides: dry, at h_eps, or just
        # wet, so that the imposed-boundary resolver probes either state.
        depths = [0.0, 0.5 * scheme.h_eps, scheme.h_eps, 2.0 * scheme.h_eps]
        h = fields[0]
        h[..., [0, -1]] = rng.choice(depths, h[..., [0, -1]].shape)
        if not grid.is_1d:
            h[[0, -1]] = rng.choice(depths, h[[0, -1]].shape)
    soil = draw(st.sampled_from(_SOILS))
    v_inf = None if soil is None else rng.uniform(0.0, 0.02, grid.shape)
    return dict(grid=grid, z=z, fields=fields, bcs=bcs, scheme=scheme,
                friction=draw(st.sampled_from(_FRICTIONS)),
                rain=draw(st.sampled_from((0.0, 1e-3))), soil=soil,
                v_inf=v_inf, factor=draw(st.sampled_from((0.5, 1.0, 8.0))))


def _step_outcomes(case, path):
    """Per order (Euler, Heun), one step of the case's dt, or of its CFL
    step times its factor, up to a landing there; then up to two steps of
    a CFL run of the case's scheme and their dts. Each run as its outcome
    or its fault, with the warnings and the retries it logged, the halved
    dt of each as bits: so the CFL step is paired on every drawn state,
    also where the run faults."""
    grid, scheme, soil = case["grid"], case["scheme"], case["soil"]
    fields, v_inf = case["fields"], case["v_inf"]

    def run(scheme, final, on_step=None):
        ctx = _context(grid, scheme, case["friction"], case["rain"],
                       soil is not None, path, case["z"], case["bcs"])
        state = State(fields.copy())
        ga = None if soil is None else GreenAmptState(soil, v_inf.copy())

        def call():
            try:
                return _to_landing(ctx, state, ga, final, on_step)
            except _Enough:
                return ()

        with _log_records() as records:
            outcome = _outcome(call, ctx.work)
        # A run leaves its input as it was.
        assert _same_bits(state.fields, fields)
        if ga is not None:
            assert _same_bits(ga.v_inf, v_inf)
        retries = [(r.getMessage(), r.args[1].hex()) for r in records
                   if r.msg == timeloop.RETRY_MESSAGE]
        return [outcome, sorted(ctx.warnings.items()), retries]

    outcomes = []
    dt = case.get("dt") or case["factor"] * compute_dt(
        State(fields), grid, scheme, case["bcs"])
    if 0.0 < dt < np.inf:
        for order in (1, 2):
            outcomes += run(dataclasses.replace(scheme, order=order,
                                                fixed_dt=dt), dt)
    dts = []

    def on_step(t, state, dt):
        dts.append(dt)
        if len(dts) == 2:
            raise _Enough

    outcomes += run(scheme, math.inf, on_step)
    outcomes.append([dt.hex() for dt in dts])
    return outcomes


@settings(max_examples=200, deadline=None)
@given(step_cases())
def test_steps_and_dt_give_numpys_bits_on_every_path(case):
    _needs_the_compiled_step()
    with np.errstate(all="ignore"):
        reference = _step_outcomes(case, "numpy")
        for path in _kernel_paths()[1:]:
            assert _step_outcomes(case, path) == reference


def test_a_nan_wave_speed_gives_numpys_dt_on_every_path():
    # An infinite depth under an infinite discharge moves at inf/inf +
    # inf: a NaN with its sign bit set. numpy's max of the speeds is NaN,
    # and compute_dt then leaves the direction out. The second state adds
    # a depth far below the tolerance, away from the cells the NaN
    # reaches in a stage: numpy's check reports the NaN, not the depth.
    _needs_the_compiled_step()
    for fields in (np.array([[1.0, np.inf, 0.5, 1.0],
                             [0.2, np.inf, 0.1, 0.0]]),
                   np.array([[1.0, np.inf, 0.5, 1.0, 1.0, 1.0, -1.0, 1.0],
                             [0.2, np.inf, 0.1, 0.0, 0.0, 0.0, 0.0, 0.0]])):
        n = fields.shape[1]
        case = dict(grid=Grid(nx=n, dx=1.0), z=np.zeros(n), fields=fields,
                    bcs=WALL, scheme=SchemeConfig(),
                    friction=FrictionParams(), rain=0.0, soil=None,
                    v_inf=None, dt=0.1)
        with np.errstate(all="ignore"):
            reference = _step_outcomes(case, "numpy")
            for path in _kernel_paths()[1:]:
                assert _step_outcomes(case, path) == reference
        assert reference[0][0] == "fault"
        assert "non-finite" in reference[0][1]


@st.composite
def tail_cases(draw):
    """A state on a flat walled bed drawn to probe the stage tail and the
    Heun average: depths at h_eps and slightly negative (to be clamped),
    special values, every source, and a dt of the case's own."""
    two_d = draw(st.booleans())
    grid = Grid(nx=draw(st.integers(1, 7)), ny=draw(st.integers(2, 5)),
                dx=0.5) if two_d else Grid(nx=draw(st.integers(1, 40)), dx=1.0)
    scheme = SchemeConfig(g=draw(st.sampled_from((9.81, 1.0))),
                          h_eps=draw(st.sampled_from((1e-12, 1e-3))))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = (len(grid.shape) + 1, *grid.shape)
    fields = rng.uniform(0.0, 1.0, shape) * (rng.random(shape) < 0.8)
    fields[1:] = rng.normal(0.0, 0.5, shape)[1:]
    if draw(st.booleans()):
        fields[0].flat[::2] = scheme.h_eps
        fields[0].flat[1::4] = -0.5 * timeloop.NEGATIVE_DEPTH_TOL
    # Mostly none, so that most examples pass the validity check.
    share = draw(st.sampled_from((0.0, 0.0, 0.02, 0.2)))
    fields = _special(rng, fields, scheme.h_eps, share)
    soil = draw(st.sampled_from(_SOILS))
    v_inf = None if soil is None else _special(
        rng, rng.uniform(0.0, 0.02, grid.shape)
        * (rng.random(grid.shape) < 0.7), 1e-3, share / 4)
    return dict(grid=grid, z=np.zeros(grid.shape), fields=fields, bcs=WALL,
                scheme=scheme, friction=draw(st.sampled_from(_FRICTIONS)),
                rain=draw(st.sampled_from((0.0, 1e-3, 0.05))), soil=soil,
                v_inf=v_inf, dt=draw(st.sampled_from((1e-3, 0.1, 2.0))))


@settings(max_examples=200, deadline=None)
@given(tail_cases())
def test_the_stage_tail_gives_numpys_bits_on_every_path(case):
    _needs_the_compiled_step()
    with np.errstate(all="ignore"):
        reference = _step_outcomes(case, "numpy")
        for path in _kernel_paths()[1:]:
            assert _step_outcomes(case, path) == reference


def test_2d_friction_takes_the_magnitude_from_the_squares_on_every_path():
    """|q| in 2D friction is sqrt(qx*qx + qy*qy), not hypot(qx, qy). The
    squares overflow to inf where |q| passes about 1.3e154: the damping
    factor is then inf and the discharge becomes 0. Below about 1.5e-154
    they are subnormal and lose bits, and below about 1.6e-162 they are
    0: friction then vanishes. A uniform periodic state has no flux
    divergence, so its step is friction alone; tiny depths bring a tiny
    |q| into the damping factor's bits."""
    _needs_the_compiled_step()
    periodic = BoundaryCondition("periodic")
    bcs = BoundarySet(periodic, periodic, periodic, periodic)
    grid = Grid(nx=3, ny=2, dx=1.0, dy=1.0)
    scheme = SchemeConfig(order=1, fixed_dt=1.0, h_eps=1e-100)
    # Darcy-Weisbach with f = 8 and dt = 1: the factor is
    # 1 + |q| / (h^n h^{n+1}).
    friction = FrictionParams("darcy_weisbach", 8.0)
    for h, q in ((1.0, 1e154), (1e-80, 1e-160), (1e-81, 1e-163)):
        magnitude = math.sqrt(q * q + q * q)
        assert magnitude != math.hypot(q, q)
        expected = q / (1.0 + magnitude / (h * h))
        if q == 1e154:
            assert (magnitude, expected) == (math.inf, 0.0)
        if q == 1e-163:
            assert (magnitude, expected) == (0.0, q)
        fields = np.stack([np.full(grid.shape, v) for v in (h, q, q)])
        for path in _kernel_paths():
            ctx = _context(grid, scheme, friction, 0.0, False, path,
                           bcs=bcs)
            with np.errstate(all="ignore"):
                _, landed, *_ = _to_landing(ctx, State(fields.copy()),
                                            None, 1.0)
            assert _same_bits(landed[0], fields[0])
            assert _same_bits(landed[1:], np.full_like(landed[1:], expected))


def _fault_at(check):
    """A state, its context pieces and a dt whose Heun step fails the
    validity check of stage 1, stage 2 or the average, or stage 1's with
    a negative and a NaN depth."""
    if check == "negative and NaN":
        # A depth far below the tolerance that the stage keeps, and a NaN
        # that spreads over the cells near it: np.min is NaN, so numpy's
        # check skips the negative depth and reports the first non-finite
        # cell.
        h = np.full(12, 1e-3)
        h[1], h[9] = -1.0, np.nan
        return Grid(nx=12, dx=1.0), np.zeros(12), State((h, np.zeros(12))), \
            NEUMANN, SchemeConfig(), 0.1
    if check == "average":
        # A NaN discharge in a nearly dry cell is zeroed by the stages'
        # dry convention, but the average wets the cell and keeps it.
        grid, bcs = Grid(nx=3, dx=1.0), BoundarySet(
            BoundaryCondition("neumann"), BoundaryCondition("wall"))
        z = np.array([0.04714650583360733, 0.0273554285218727,
                      0.027282968330621868])
        h = np.array([0.005637469501803387, 0.0, 0.0008869954198014358])
        q = np.array([0.0019031576909885619, 0.0005316355215125499, np.nan])
        return grid, z, State((h, q)), bcs, SchemeConfig(h_eps=1e-3), 1.0
    config = thin_layer_down_a_step()
    if check == "stage 1":
        # A NaN depth reaches the first stage's check.
        h = config.initial_state.h.copy()
        h[2] = np.nan
        state, dt = State((h, np.zeros(4))), 0.1
    else:
        # The step the run takes again, from t = 0.5 s: its second stage
        # starts from faster water.
        state = run_simulation(dataclasses.replace(
            config, final_time=0.5)).final_state
        dt = compute_dt(state, config.grid, config.scheme, config.boundaries)
    return config.grid, config.topography, state, config.boundaries, \
        config.scheme, dt


@pytest.mark.parametrize("check", ["stage 1", "stage 2", "average",
                                   "negative and NaN"])
def test_each_check_raises_numpys_fault_on_every_path(check):
    # Each path runs the step of dt at each order, and a CFL run, which
    # takes a step that fails a check again with half its dt.
    _needs_the_compiled_step()
    grid, z, state, bcs, scheme, dt = _fault_at(check)
    case = dict(grid=grid, z=z, fields=state.fields, bcs=bcs, scheme=scheme,
                friction=FrictionParams(), rain=0.0, soil=None, v_inf=None,
                dt=dt)
    with np.errstate(all="ignore"):
        outcomes = [_step_outcomes(case, path) for path in _kernel_paths()]
    assert outcomes == outcomes[:1] * len(outcomes)
    euler, _, _, heun, _, _, cfl, _, retries, _ = outcomes[0]
    assert heun[0] == "fault"
    assert heun[3] == (dt if check == "average" else 0.0)
    # A first-order run's one stage fails only a check the state fails.
    faults_the_state = check in ("stage 1", "negative and NaN")
    assert (euler[0] == "fault") == faults_the_state
    if check == "negative and NaN":
        assert "non-finite" in heun[1] and heun[2] != (1,)
    # Halving dt mends no NaN of the state: its run faults after the last
    # halving. The faster water of stage 2 lands after one, and the CFL
    # dt of the average's case passes its check.
    assert (cfl[:1] == ("fault",)) == faults_the_state
    assert len(retries) == {"stage 1": timeloop.MAX_STEP_HALVINGS,
                            "stage 2": 1, "average": 0,
                            "negative and NaN":
                            timeloop.MAX_STEP_HALVINGS}[check]


def test_a_finite_state_whose_sum_overflows_is_valid_on_every_path():
    """A state faults if and only if it holds a non-finite value. Rain of
    1e308 m/s for 1 s raises a still, flat, walled lake to depths of
    1e308: each is finite, but numpy's sum of them overflows. With one
    NaN discharge in the first cell, the step faults there."""
    grid, dt = Grid(nx=4, dx=1.0), 1.0
    scheme = SchemeConfig(order=1, fixed_dt=dt)
    fields = np.stack([np.ones(4), np.zeros(4)])
    expected = fields.copy()
    expected[0] += 1e308 * dt
    assert np.isfinite(expected).all()
    with np.errstate(over="ignore"):
        assert np.add.reduce(expected, axis=None) == np.inf
    broken = fields.copy()
    broken[1, 0] = np.nan
    for path in _kernel_paths():
        ctx = _context(grid, scheme, FrictionParams(), 1e308, False, path)
        _, landed, *_ = _to_landing(ctx, State(fields.copy()), None, dt)
        assert _same_bits(landed, expected)
        ctx = _context(grid, scheme, FrictionParams(), 1e308, False, path)
        with pytest.raises(NumericalFault, match="non-finite state") as fault:
            _to_landing(ctx, State(broken.copy()), None, dt)
        assert (fault.value.index, fault.value.time) == ((0,), 0.0)


def test_a_faulting_stages_zeroed_discharges_reach_no_accepted_state():
    """numpy's check raises a negative depth before it zeroes the dry
    cells' discharges; the compiled check has zeroed them in its pass by
    then. The step taken again starts from the accepted state, so every
    accepted state keeps numpy's bits."""
    config = thin_layer_down_a_step()
    enforce = timeloop._enforce_validity
    left = []

    def recording(fields, t, scheme, dry):
        try:
            enforce(fields, t, scheme, dry)
        except NumericalFault:
            # The discharges numpy leaves in the faulting state's dry
            # cells.
            left.append(np.count_nonzero(
                fields[1:][:, fields[0] <= scheme.h_eps]))
            raise

    runs = []
    for path in _kernel_paths():
        states = []
        with _sweep_path(path), \
                mock.patch.object(timeloop, "_enforce_validity", recording):
            result = run_simulation(config, on_step=lambda t, state, dt:
                                    states.append((t, state.copy(), dt)))
        assert result.retried_steps == 1
        runs.append(states)
    assert left[0] > 0
    assert [[(t, _bits(state.fields).tolist(), dt) for t, state, dt in states]
            for states in runs] == [[
                (t, _bits(state.fields).tolist(), dt)
                for t, state, dt in runs[0]]] * len(runs)


def test_the_compiled_tail_runs_where_the_compiled_sweep_does():
    _needs_the_compiled_step()
    for path in _kernel_paths():
        ctx = _context(Grid(nx=5, dx=1.0), SchemeConfig(), FrictionParams(),
                       0.0, False, path)
        assert (ctx.work.compiled is None) == (path == "numpy")
    # The compiled loop takes only arrays it can read as they are.
    ctx = _context(Grid(nx=5, dx=1.0), SchemeConfig(), FrictionParams(), 0.0,
                   False, "c")
    state = State(np.zeros((5, 2)).T)
    with pytest.raises(ValueError, match="C-contiguous float64"):
        _to_landing(ctx, state, None, 1.0)


def test_a_closed_periodic_channel_has_no_boundary_flow():
    config = _periodic_channel_1d()
    for path in _kernel_paths():
        for order in (1, 2):
            with _sweep_path(path):
                result = run_simulation(dataclasses.replace(
                    config, scheme=SchemeConfig(order=order)))
            assert [(row.boundary_in, row.boundary_out)
                    for row in result.mass_balance] == [(0.0, 0.0)] * 2


def test_boundary_volumes_are_numpys_sums_side_by_side():
    # boundary_volumes sums the four sides of a direction in one chain of
    # numpy calls: each side is still numpy's pairwise sum of its own
    # max(v, 0), over row counts on both sides of numpy's 128-value
    # pairwise block, signed zeros included.
    rng = np.random.default_rng(11)
    sides = BoundaryCondition("neumann")
    for nx, ny in ((2, 3), (1, 5), (127, 129), (128, 255), (300, 257)):
        work = timeloop._Workspace(Grid(nx=nx, ny=ny, dx=0.3, dy=0.7),
                                   np.zeros((ny, nx)), SchemeConfig(),
                                   BoundarySet(sides, sides, sides, sides))
        for _ in range(20):
            shape = work.faces.shape
            faces = rng.normal(0.0, 1.0, shape) * (rng.random(shape) < 0.8)
            faces = np.where(rng.random(shape) < 0.2, -0.0, faces)
            into = outof = 0.0
            for (rows, _, _), (low, high), width in zip(
                    work.directions, faces, work.widths):
                low, high = low[:rows], high[:rows]
                into += (np.maximum(low, 0.0).sum()
                         + np.maximum(-high, 0.0).sum()) * width
                outof += (np.maximum(-low, 0.0).sum()
                          + np.maximum(high, 0.0).sum()) * width
            assert [v.hex() for v in work.boundary_volumes(faces)] == \
                [float(into).hex(), float(outof).hex()]


@pytest.mark.parametrize("two_d", [False, True])
def test_the_compiled_fill_tests_dryness_against_h_eps(two_d):
    # As test_a_cell_no_deeper_than_h_eps_takes_the_imposed_regime in
    # test_boundary.py, through a one-step run on every path.
    h, q = np.array([1e-8, 1.0, 1.0]), np.array([-1e-6, 0.0, 0.0])
    grid = Grid(nx=3, ny=2, dx=1.0, dy=1.0) if two_d else Grid(nx=3, dx=1.0)
    fields = (h, q) if not two_d else (np.tile(h, (2, 1)),
                                       np.tile(q, (2, 1)), np.zeros((2, 3)))
    bcs = BoundarySet(left=BoundaryCondition("imposed_depth", depth=0.5))
    for h_eps, warned in ((1e-6, 0), (1e-12, 1)):
        steps = []
        for path in _kernel_paths():
            scheme = SchemeConfig(order=1, fixed_dt=0.01, h_eps=h_eps)
            ctx = _context(grid, scheme, FrictionParams(), 0.0, False, path,
                           bcs=bcs)
            _, new, *_ = _to_landing(ctx, State(fields), None, 0.01)
            assert sum(ctx.warnings.values()) == warned
            steps.append(_bits(new).tolist())
        assert steps == steps[:1] * len(steps)


# ------------------------------------------------------- compiled loop
# The compiled step also runs run_simulation's time loop: the dt, the
# landings, the ledger, the retries with half the dt and the calls of
# on_step, returning to Python only where numpy computes or the caller
# must see the run. Every field of the RunResult, every fault and every
# INFO line of a retry must be those of the numpy loop, bit for bit.


def _run_outcome(config, path, on_step=None):
    """Every RunResult field as bits (or the fault), and the messages the
    run logged but the kernel's INFO line, which names the path."""
    try:
        with _log_records() as records, _sweep_path(path), \
                np.errstate(all="ignore"):
            result = run_simulation(config, on_step)
    except NumericalFault as fault:
        outcome = ("fault", str(fault), fault.index, fault.time)
    else:
        outcome = (
            [(t.hex(), _bits(state.fields).tolist())
             for t, state in result.snapshots],
            [tuple(float(v).hex() for v in dataclasses.astuple(row))
             for row in result.mass_balance],
            result.steps, result.final_change_rate.hex(),
            result.min_depth_seen.hex(), result.warnings,
            None if result.ga_state is None
            else _bits(result.ga_state.v_inf).tolist(),
            result.retried_steps)
    messages = (record.getMessage() for record in records)
    return outcome, [m for m in messages if "sweep kernel" not in m]


# Every side kind, with imposed states that keep a run's dt of order dx.
_RUN_SIDES = st.one_of(
    st.just(BoundaryCondition("wall")),
    st.just(BoundaryCondition("neumann")),
    st.builds(lambda d: BoundaryCondition("imposed_depth", depth=d),
              st.floats(0.1, 1.0)),
    st.builds(lambda q: BoundaryCondition("imposed_discharge", discharge=q),
              st.floats(-0.3, 0.3)),
    st.builds(lambda d, q: BoundaryCondition("imposed_both", depth=d,
                                             discharge=q),
              st.floats(0.1, 1.0), st.floats(-1.0, 1.0)),
)


def _rain_near_landings():
    """A wet channel whose rain starts 0.5e-12 s after t = 0 and changes
    0.5e-12 s after an output time: each first step starts within
    _TIME_ATOL below a hyetograph change, which is then no landing."""
    n = 8
    x = _centers(4.0, n)
    return SimulationConfig(
        grid=Grid(nx=n, dx=0.5), topography=0.05 * x,
        initial_state=State((np.full(n, 0.3), np.full(n, 0.05))),
        final_time=0.6, output_times=(0.25,), boundaries=NEUMANN,
        friction=FrictionParams("manning", 0.03),
        rain=Hyetograph((0.5e-12, 0.25 + 0.5e-12), (1e-3, 4e-3)),
        infiltration=GreenAmptParams(ks=1e-5, hf=0.1, dtheta=0.3))


def _thin_layer_over(drop):
    """thin_layer_down_a_step with its third cell raised by drop: from
    2 m on, some step is taken again twice."""
    config = thin_layer_down_a_step()
    z = config.topography.copy()
    z[2] += drop
    return dataclasses.replace(config, topography=z)


def _nan_depth():
    """A NaN depth: every retry fails, until the fault is raised."""
    config = thin_layer_down_a_step()
    h = config.initial_state.h.copy()
    h[1] = np.nan
    return dataclasses.replace(config, initial_state=State((h, np.zeros(4))))


def _one_column_2d():
    """A 2D grid one cell wide: a sloping strip of 9 cells along y under
    a rain burst, with Manning friction, infiltration and an imposed
    inflow at the bottom. Its y sweep is one partial tile of one row."""
    ny = 9
    z = 0.05 * (4.5 - _centers(4.5, ny))[:, None]
    h = np.maximum(0.3 - z, 0.05)
    return SimulationConfig(
        grid=Grid(nx=1, ny=ny, dx=0.5, dy=0.5), topography=z,
        initial_state=State((h, 0.02 * h, 0.1 * h)), final_time=1.0,
        output_times=(0.5,),
        boundaries=BoundarySet(
            BoundaryCondition("wall"), BoundaryCondition("neumann"),
            BoundaryCondition("imposed_discharge", discharge=0.2),
            BoundaryCondition("neumann")),
        friction=FrictionParams("manning", 0.03),
        rain=Hyetograph((0.0, 0.5), (5e-3, 0.0)),
        infiltration=GreenAmptParams(ks=1e-5, hf=0.1, dtheta=0.3))


@st.composite
def run_cases(draw):
    """A short run on a random bed: a random state, or in 1D the thin
    layer of _thin_layer_over on a bed shaken a little, whose steps are
    often taken again; every boundary kind, friction law and
    soil, often a fixed dt, output times (one just past the final time),
    and rain that changes at, or within _TIME_ATOL after, t = 0 or an
    output time."""
    two_d = draw(st.booleans())
    thin = not two_d and draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if thin:
        layer = _thin_layer_over(draw(st.sampled_from((0.0, 0.5, 2.0, 10.0))))
        grid, shape = layer.grid, layer.grid.shape
        z = layer.topography + rng.normal(0.0, 0.01, shape)
        h = layer.initial_state.h
        discharges = [np.zeros(shape)]
        left, right = NEUMANN.left, NEUMANN.right
    else:
        if two_d:
            grid = Grid(nx=draw(st.integers(1, 5)), ny=draw(st.integers(2, 4)),
                        dx=draw(st.floats(0.2, 1.0)),
                        dy=draw(st.floats(0.2, 1.0)))
        else:
            grid = Grid(nx=draw(st.integers(1, 12)),
                        dx=draw(st.floats(0.2, 1.0)))
        shape = grid.shape
        z = rng.uniform(0.0, 1.0, shape) * draw(st.sampled_from((0.0, 0.3)))
        h = np.maximum(draw(st.floats(0.0, 1.0)) - z, 0.0) \
            + rng.uniform(0.0, 0.2, shape) * (rng.random(shape) < 0.5)
        # Wet cells at least 2 cm deep and velocities of order 1, so that
        # no imposed discharge races onto a film at a tiny dt.
        h = np.where(h > 0.0, np.maximum(h, 0.02), 0.0)
        discharges = [h * rng.normal(0.0, 1.0, shape) for _ in shape]
        left, right = _pair(draw, _RUN_SIDES)
    bottom, top = _pair(draw, _RUN_SIDES) if two_d \
        else (BoundaryCondition(),) * 2
    final = draw(st.sampled_from(
        (1.0, 2.0) if thin else (0.0, 0.3) if two_d else (0.0, 0.3, 1.0)))
    outputs = sorted({final * f for f in draw(st.lists(
        st.sampled_from((0.1, 0.25, 0.5, 1.0)), max_size=3)) if final > 0.0})
    if final > 0.0 and draw(st.booleans()):
        outputs.append(final + 0.5e-12)
    rain = None
    if draw(st.booleans()):
        anchor = draw(st.sampled_from([0.0] + outputs))
        change = anchor + draw(st.sampled_from((0.0, 0.5e-12, 1e-12, 0.2)))
        times = (0.0, change) if change > 0.0 else (0.0,)
        rain = Hyetograph(times, [draw(st.sampled_from((0.0, 1e-3, 5e-3)))
                                  for _ in times])
    scheme = SchemeConfig(
        order=2 if thin else draw(st.sampled_from((1, 2))),
        flux_name=draw(st.sampled_from(("hll", "rusanov"))),
        fixed_dt=None if thin else draw(st.sampled_from(
            (None, None, 0.01, 0.07))),
        h_eps=1e-12 if thin else draw(st.sampled_from((1e-12, 1e-3))))
    return SimulationConfig(
        grid=grid, topography=z, initial_state=State((h, *discharges)),
        final_time=final, scheme=scheme,
        boundaries=BoundarySet(left, right, bottom, top),
        friction=FrictionParams() if thin else draw(st.sampled_from(
            _FRICTIONS)),
        rain=rain, infiltration=None if thin else draw(st.sampled_from(_SOILS)),
        output_times=tuple(outputs))


@settings(max_examples=150, deadline=None)
@example(_thin_layer_over(2.0))
@example(_nan_depth())
@example(_rain_near_landings())
@example(_one_column_2d())
@given(run_cases())
def test_runs_give_numpys_results_bit_for_bit(config):
    _needs_the_compiled_step()
    reference = _run_outcome(config, "numpy")
    for path in _kernel_paths()[1:]:
        assert _run_outcome(config, path) == reference
    # The numpy loop over the compiled sweep, which run_simulation takes
    # where a step helper is rebound (a profiler's wrapper).
    helper = timeloop.compute_dt
    with mock.patch.object(timeloop, "compute_dt",
                           lambda *args: helper(*args)):
        assert _run_outcome(config, "c") == reference


def test_an_on_step_edit_reaches_the_next_dt_on_every_path():
    # A bore set off after the first step: the next CFL dt must see it.
    config = dataclasses.replace(_shock_channel(), final_time=2.0)
    outcomes = []
    for path in _kernel_paths():
        dts = []

        def on_step(t, state, dt):
            dts.append(dt.hex())
            if len(dts) == 1:
                state.q[250] += 20.0

        outcomes.append((_run_outcome(config, path, on_step), dts))
    (result, _), dts = outcomes[0]
    assert result[2] == len(dts) == 124
    assert float.fromhex(dts[1]) < 3e-3
    assert outcomes == outcomes[:1] * len(outcomes)


def test_on_step_sees_every_accepted_step_on_every_path():
    config = dataclasses.replace(thin_layer_down_a_step(),
                                 output_times=(0.5, 2.0))
    outcomes = []
    for path in _kernel_paths():
        calls, kept = [], []

        def on_step(t, state, dt):
            calls.append((t, dt))
            kept.append((state, state.copy()))

        outcome, messages = _run_outcome(config, path, on_step)
        steps, retried = outcome[2], outcome[-1]
        assert len(calls) == steps and retried == 1
        # t is the new time, dt the one the step took: a landing's t is
        # its target, any other is the last t plus dt.
        times = [0.0] + [t for t, _ in calls]
        for (t, dt), before in zip(calls, times):
            assert t == before + dt or (
                t in (0.5, 2.0, 5.0) and t == pytest.approx(before + dt))
        # The retried step's dt is half the one its first attempt took.
        (retry,) = [m for m in messages if "taking the step again" in m]
        halved = float(retry.rpartition("dt = ")[2])
        assert any(dt == pytest.approx(halved, rel=1e-5) for _, dt in calls)
        # A state on_step keeps is not written by later steps.
        assert all(_same_bits(state.fields, copy.fields)
                   for state, copy in kept)
        outcomes.append((outcome, messages, calls))
    assert outcomes == outcomes[:1] * len(outcomes)


def test_a_zero_smallest_depth_is_positive_zero_on_every_path():
    # Only an on_step edit can put -0.0 beside 0.0 into a state: the
    # step keeps them, and whichever sign a min picks, the smallest depth
    # seen is np.min(h) + 0.0, so +0.0.
    n = 8
    z = np.where(np.arange(n) < 4, 1.0, 0.0)
    config = SimulationConfig(
        grid=Grid(nx=n, dx=1.0), topography=z,
        initial_state=State((np.full(n, 0.1), np.full(n, -0.02))),
        final_time=3.0)
    outcomes = []
    for path in _kernel_paths():
        def on_step(t, state, dt):
            state.h[:4] = [-0.0, 0.0, -0.0, 0.0]
            state.q[:4] = 0.0

        outcome, _ = _run_outcome(config, path, on_step)
        outcomes.append(outcome)
    assert [outcome[4] for outcome in outcomes] == \
        [(0.0).hex()] * len(outcomes)
    assert outcomes == outcomes[:1] * len(outcomes)


@pytest.mark.parametrize("name", ["euler_step", "heun_step", "compute_dt"])
def test_a_rebound_step_helper_is_called_every_step_on_every_path(name):
    # A profiler's wrapper of one of them must see every step, with the
    # bits of the run that does not rebind it.
    config = dataclasses.replace(
        _wet_plot(False, 1 if name == "euler_step" else 2, "hll"),
        final_time=5.0, output_times=(1.0,))
    reference = _run_outcome(config, "numpy")
    for path in _kernel_paths():
        calls = []
        helper = getattr(timeloop, name)

        def counted(*args, **kwargs):
            calls.append(name)
            return helper(*args, **kwargs)

        with mock.patch.object(timeloop, name, counted):
            outcome = _run_outcome(config, path)
        assert outcome == reference
        assert len(calls) == outcome[0][2] > 5


def _entry_calls(config):
    """The statuses of every foreign call of the compiled run of config,
    and its result."""
    _needs_the_compiled_step()
    statuses = []
    init = _compiled.CompiledStep.__init__

    def counted_init(self, *args):
        init(self, *args)
        entry = self.entry

        def counted(pointer):
            statuses.append(entry(pointer))
            return statuses[-1]
        self.entry = counted

    with mock.patch.object(_compiled.CompiledStep, "__init__",
                           counted_init):
        result = run_simulation(config)
    assert result.sweep_kernel == "c"
    return statuses, result


def test_a_1d_manning_heun_run_takes_one_call_per_landing_interval():
    # The step takes Manning's h^(4/3) and sums the ledger itself: no
    # status returns a stage to Python.
    config = dataclasses.replace(_shock_channel(), output_times=(0.2, 0.4))
    statuses, result = _entry_calls(config)
    assert result.steps > 10
    assert statuses == [_compiled.STEPPED] * 3
    assert not hasattr(_compiled, "CUT")


def test_a_retried_step_takes_one_more_call():
    # The failed check returns to Python, which sets RETRY; the next call
    # takes the step again from its start and runs on to the landing.
    statuses, result = _entry_calls(thin_layer_down_a_step())
    assert result.retried_steps == 1
    assert statuses == [_compiled.NEGATIVE_DEPTH, _compiled.STEPPED]


def test_a_2d_run_with_every_source_takes_one_call_per_landing_interval():
    # Manning friction, rain and two-layer infiltration in 2D: h^(4/3),
    # the infiltrated volume and the boundary volumes all stay in C.
    config = _rain_plot()
    statuses, result = _entry_calls(config)
    landings = len(timeloop._landing_times(config))
    assert result.steps > landings == 2
    assert statuses == [_compiled.STEPPED] * landings


def test_the_sums_cross_numpys_blocks_with_numpys_bits():
    # np.sum adds 8 accumulators over blocks of at most 128 values and
    # halves longer runs: 131 faces on each y side and 8,777 cells, neither
    # a multiple of 8, under open sides that carry flow both ways, and a
    # shallow layer that infiltrates partly or wholly, so that the
    # infiltrated depths differ from cell to cell.
    _needs_the_compiled_step()
    nx, ny = 131, 67
    rng = np.random.default_rng(3)
    h = 0.2 * rng.random((ny, nx))
    open_side = BoundaryCondition("neumann")
    config = SimulationConfig(
        grid=Grid(nx=nx, ny=ny, dx=1.0, dy=0.5),
        topography=np.zeros((ny, nx)),
        initial_state=State((h, 0.5 * h * rng.standard_normal((ny, nx)),
                             0.5 * h * rng.standard_normal((ny, nx)))),
        final_time=1.0, output_times=(0.5,),
        boundaries=BoundarySet(*[open_side] * 4),
        friction=FrictionParams("manning", 0.03),
        rain=Hyetograph((0.0,), (1e-3,)),
        infiltration=GreenAmptParams(ks=2e-4, kc=5e-5, zc=0.002, hf=0.1,
                                     dtheta=0.3, imax=0.2))
    reference = _run_outcome(config, "numpy")
    # The last row's rain, infiltration, and volumes in and out.
    last = [float.fromhex(v) for v in reference[0][1][-1]]
    assert min(last[2:6]) > 0.0
    assert _run_outcome(config, "c") == reference
    # The running sums can absorb a step's last bits: each step's own
    # second-stage volumes, against numpy's sums of the same infiltrated
    # depths and faces.
    bound = []
    init = _compiled.CompiledStep.__init__

    def kept(self, library, level, work, *args):
        init(self, library, level, work, *args)
        bound.append((self, work))

    def on_step(t, state, dt):
        step, work = bound[-1]
        into, outof = work.boundary_volumes(work.faces)
        sums.append([float(step.dv.sum()) * work.cell_area, into * dt,
                     outof * dt, step.block.infil[1], *step.block.flow[2:]])

    sums = []
    with mock.patch.object(_compiled.CompiledStep, "__init__", kept):
        steps = run_simulation(config, on_step).steps
    assert len(sums) == steps > 10
    table = np.array(sums)
    assert _same_bits(table[:, :3], table[:, 3:])


def _digest(result):
    """SHA-256 of a run's final fields and its ledger's bits."""
    ledger = [float(v).hex() for row in result.mass_balance
              for v in dataclasses.astuple(row)]
    return hashlib.sha256(result.final_state.fields.tobytes()
                          + repr(ledger).encode()).hexdigest()


# numpy's AVX-512 dispatch targets, by numpy 2's names.
_AVX512_TARGETS = ("X86_V4", "AVX512_ICL", "AVX512_SPR")


def test_results_do_not_follow_numpys_dispatch():
    # numpy's AVX2 and AVX-512 loops give other bits for cbrt, exp or
    # log; Manning's h^(4/3) takes + - * alone. Without the AVX-512
    # targets, the rain plot (2D Manning) and the shock channel (1D
    # Manning) give the bits of the default dispatch, on both loops.
    _needs_the_compiled_step()
    module = importlib.import_module("numpy._core._multiarray_umath")
    features = _numpy_cpu_features()
    if not [target for target in getattr(module, "__cpu_dispatch__", ())
            if target in _AVX512_TARGETS and features.get(target)]:
        pytest.skip("numpy runs no AVX-512 target on this CPU")
    code = "\n".join([
        "import dataclasses, hashlib, pickle, sys",
        "from unittest import mock",
        "from swekit import timeloop",
        inspect.getsource(_digest),
        "for config in pickle.loads(sys.stdin.buffer.read()):",
        "    for kernel in (lambda: None, timeloop._sweep_kernel):",
        "        with mock.patch.object(timeloop, '_sweep_kernel', kernel):",
        "            result = timeloop.run_simulation(config)",
        "        print(result.sweep_kernel, _digest(result))"])
    src = pathlib.Path(timeloop.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src),
           "NPY_DISABLE_CPU_FEATURES": " ".join(_AVX512_TARGETS)}
    configs = [_rain_plot(), _shock_channel()]
    run = subprocess.run([sys.executable, "-c", code], env=env,
                         input=pickle.dumps(configs), capture_output=True,
                         timeout=120, check=True)
    digests = [_digest(run_simulation(config)) for config in configs]
    assert [tuple(line.split()) for line in run.stdout.decode().splitlines()] \
        == [(kernel, digest) for digest in digests for kernel in ("numpy", "c")]


def test_a_1d_run_without_cuts_takes_one_call_per_landing_interval():
    config = dataclasses.replace(_neumann_channel_1d(),
                                 output_times=(0.25, 0.5))
    statuses, result = _entry_calls(config)
    assert result.steps > 10
    assert statuses == [_compiled.STEPPED] * 3


def test_a_hyetograph_change_costs_no_foreign_call():
    # The step draws the rain rate from the hyetograph itself: a change at
    # an output time is one more landing, and no return to Python.
    config = dataclasses.replace(
        _neumann_channel_1d(), output_times=(0.25, 0.5),
        rain=Hyetograph((0.0, 0.25), (1e-3, 4e-3)))
    statuses, result = _entry_calls(config)
    assert result.mass_balance[-1].rain > 0.0
    assert statuses == [_compiled.STEPPED] * 3

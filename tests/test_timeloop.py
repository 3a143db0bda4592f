"""Time integration: step control, well-balancing, mass accounting."""

import collections
import contextlib
import dataclasses
import hashlib
import importlib.util
import logging
import math
import os
import pathlib
import shutil
import subprocess
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swekit import timeloop
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
from swekit.core import H_EPS, Grid, State, total_volume
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
    spatial_operator_phi,
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
    phi_h, phi_q = spatial_operator_phi(state, z, grid, SchemeConfig(order=order),
                                        WALL)
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
    phi_h, phi_qx, phi_qy = spatial_operator_phi(state, z, grid,
                                                 SchemeConfig(order=2), WALL)
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


def test_rain_enters_phi_with_negative_sign():
    grid, z, state = bump_lake()
    rain = Hyetograph(times=(0.0,), intensities=(0.002,))
    phi_h, _ = spatial_operator_phi(state, z, grid, SchemeConfig(order=2),
                                    WALL, t=0.0, rain=rain)
    assert np.allclose(phi_h, -0.002, atol=1e-13)


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

    phi1 = spatial_operator_phi(state, z, grid, scheme, bcs)
    h1 = state.h - 1e-3 * phi1[0]
    q1 = state.q - 1e-3 * phi1[1]
    phi2 = spatial_operator_phi(State((h1, q1)), z, grid, scheme, bcs)
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
    phi = spatial_operator_phi(state, z, grid, scheme, bcs)
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
    result = run_simulation(config)
    assert result.retried_steps == 1
    assert result.final_time == 5.0
    assert result.min_depth_seen >= 0.0
    assert np.all(np.isfinite(result.final_state.fields))
    assert abs(result.mass_balance[-1].residual_rel) < 1e-13
    # Without the retry the same run stops on the negative depth.
    with mock.patch.object(timeloop, "MAX_STEP_HALVINGS", 0), \
            pytest.raises(NumericalFault, match="negative depth"):
        run_simulation(config)


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
    contexts = []

    def spy(state, ga, t, dt, ctx):
        contexts.append(ctx)
        return heun_step(state, ga, t, dt, ctx)

    with mock.patch.object(timeloop, "heun_step", spy):
        result = run_simulation(config)
    assert result.steps > 10
    (message,) = result.warnings
    assert "right boundary" in message
    warnings = contexts[-1].warnings
    assert len(warnings) == 1
    assert warnings[message] == 2 * result.steps


# ------------------------------------------------- sweep kernel paths
# The compiled kernel (_sweep.c) runs wherever a C compiler is found;
# the numpy kernel is its fallback and its bitwise reference.


def _has_compiler():
    return bool(shutil.which("gcc") or shutil.which("cc"))


@contextlib.contextmanager
def _sweep_path(path):
    """Run the enclosed code on the "numpy" or on the "c" sweep kernel."""
    if path == "numpy":
        with mock.patch.object(timeloop, "_sweep_kernel", lambda: None):
            yield
        return
    if timeloop._sweep_kernel() is None:
        pytest.skip("the compiled sweep kernel is unavailable")
    yield


def _kernel_paths():
    """The sweep kernels this machine can run: numpy, and c if built."""
    return ["numpy"] + ([] if timeloop._sweep_kernel() is None else ["c"])


@contextlib.contextmanager
def _fresh_kernel():
    """Forget the process's loaded kernel on entry and on exit."""
    timeloop._sweep_kernel.cache_clear()
    try:
        yield
    finally:
        timeloop._sweep_kernel.cache_clear()


def _bits(array):
    """Bit patterns: unlike array_equal, they tell +0.0 from -0.0."""
    return np.ascontiguousarray(array, dtype=float).view(np.uint64)


def _same_bits(a, b):
    return np.array_equal(_bits(a), _bits(b))


# ------------------------------------------------ traced call path
# perfbench/tracer.py times the helpers swekit.timeloop binds by name
# and the FLUX_FUNCTIONS entries; a helper the solver stops calling
# would read 0 in its per-layer metric instead of failing. The compiled
# kernel does the work of the helpers the numpy kernel calls, so on its
# path those read 0 and their time is the stage's own.

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
    flags = timeloop._SWEEP_FLAGS
    assert "-ffp-contract=off" in flags
    value_changing = {"-ffast-math", "-Ofast", "-funsafe-math-optimizations",
                      "-fassociative-math", "-freciprocal-math",
                      "-ffinite-math-only", "-fno-signed-zeros",
                      "-march=native", "-mfma"}
    assert value_changing.isdisjoint(flags)


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
        monkeypatch.setattr(timeloop, "_SWEEP_FLAGS",
                            timeloop._SWEEP_FLAGS + ("-fno-such-option",))
    config = _wet_plot(True, 2, "hll")
    with _fresh_kernel(), caplog.at_level(logging.INFO, timeloop.LOG.name):
        results = [run_simulation(config) for _ in range(2)]
    monkeypatch.undo()
    assert [r.sweep_kernel for r in results] == ["numpy", "numpy"]
    messages = [(r.levelname, r.getMessage()) for r in caplog.records
                if "sweep kernel" in r.getMessage()]
    assert [level for level, _ in messages] == ["WARNING", "INFO", "INFO"]
    assert messages[0][1].startswith("compiled sweep kernel unavailable")
    assert messages[1][1] == messages[2][1] == "run: numpy sweep kernel"
    with _sweep_path("c"):
        compiled = run_simulation(config)
    assert _same_bits(results[0].final_state.fields,
                      compiled.final_state.fields)


def test_a_truncated_library_is_rebuilt_not_loaded(tmp_path, monkeypatch):
    if not _has_compiler():
        pytest.skip("no C compiler on PATH")
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    path = pathlib.Path(timeloop._library_path())
    size = path.stat().st_size
    path.write_bytes(path.read_bytes()[:size // 2])
    original, builds = timeloop._compile, []

    def counted(compiler, target):
        builds.append(target)
        original(compiler, target)

    config = _wet_plot(False, 2, "hll")
    with mock.patch.object(timeloop, "_compile", counted), _fresh_kernel():
        result = run_simulation(config)
        assert timeloop._library_path() == str(path)
    assert len(builds) == 1
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
# as float.hex) of three short runs. Any change to the floating-point
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
    array form of the imposed-boundary resolver runs on every stage; a
    bump off the centre line makes the periodic y wrap carry flow.
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
        "0268ce4749e9214a5f6e89d1d774574d44227fdfdc5f986d7ac4ced4a55c37d1",
        "0x1.44478c1a134a4p-10"),
    "thacker_bowl": (
        _thacker_bowl, 20,
        "6a0d708ea51203f33ce1b3f4a102d854d622a95343b8fc726dad83c88fb07fe0",
        "0x1.acc41ec1802e9p-3"),
    "open_channel_2d": (
        _open_channel_2d, 44,
        "39a3ecd6d7ca64bc25fa3265484ca122a3a4744f0264e668af9a40bbedbe3d12",
        "0x1.202ccf8a7a6cep-1"),
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
        ("0x1.0000000000000p+0", "0x1.1365d2dac7d38p+2", "0x0.0p+0",
         "0x0.0p+0", "0x1.7808d0575014bp-1", "0x1.21f838f18cb6ap-1", "0x0.0p+0"),
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
         "0x0.0p+0", "0x1.6ad6741ef1456p-2", "0x1.6ad6741ef1456p-2", "0x1.0000000000000p-51"),
    ],
    "rain_plot": [
        ("0x0.0p+0", "0x0.0p+0", "0x0.0p+0",
         "0x0.0p+0", "0x0.0p+0", "0x0.0p+0", "0x0.0p+0"),
        ("0x1.8000000000000p+1", "0x1.35ea1b39a7adcp+5", "0x1.eb851eb851eb8p+5",
         "0x1.6930832c24f21p+4", "0x0.0p+0", "0x1.02c1e897c4c92p-3", "0x1.0000000000000p-47"),
        ("0x1.8000000000000p+2", "0x1.b22f273a2780bp+4", "0x1.eb851eb851eb8p+5",
         "0x1.0dc3113fee1b5p+5", "0x0.0p+0", "0x1.2a9e76d403f81p-1", "0x1.0000000000000p-48"),
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
        ("0x1.0000000000000p-1", "0x1.425ed097b425ep-3", "0x0.0p+0",
         "0x0.0p+0", "0x0.0p+0", "0x0.0p+0", "0x0.0p+0"),
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
# are the original ones too.


def _ref_velocity(h, q, h_eps=H_EPS):
    h = np.asarray(h, dtype=float)
    q = np.asarray(q, dtype=float)
    wet = h > h_eps
    out = np.zeros(np.broadcast(h, q).shape)
    np.divide(q, h, out=out, where=wet)
    return out


def _ref_eigenvalues(h, q, g):
    u = _ref_velocity(h, q)
    c = np.sqrt(g * np.maximum(np.asarray(h, dtype=float), 0.0))
    return u - c, u + c


def _ref_hll(h_left, q_left, h_right, q_right, g):
    h_l = np.asarray(h_left, dtype=float)
    q_l = np.asarray(q_left, dtype=float)
    h_r = np.asarray(h_right, dtype=float)
    q_r = np.asarray(q_right, dtype=float)
    u_l = _ref_velocity(h_l, q_l)
    u_r = _ref_velocity(h_r, q_r)
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


def _ref_rusanov(h_left, q_left, h_right, q_right, g):
    lam1_l, lam2_l = _ref_eigenvalues(h_left, q_left, g)
    lam1_r, lam2_r = _ref_eigenvalues(h_right, q_right, g)
    c = np.maximum(np.maximum(np.abs(lam1_l), np.abs(lam2_l)),
                   np.maximum(np.abs(lam1_r), np.abs(lam2_r)))
    fl_h = np.asarray(q_left, dtype=float)
    fl_q = fl_h * _ref_velocity(h_left, q_left) \
        + 0.5 * g * np.asarray(h_left, dtype=float)**2
    fr_h = np.asarray(q_right, dtype=float)
    fr_q = fr_h * _ref_velocity(h_right, q_right) \
        + 0.5 * g * np.asarray(h_right, dtype=float)**2
    f_h = 0.5 * (fl_h + fr_h) - 0.5 * c * (np.asarray(h_right, dtype=float) - h_left)
    f_q = 0.5 * (fl_q + fr_q) - 0.5 * c * (np.asarray(q_right, dtype=float) - q_left)
    return f_h, f_q


def _ref_transverse(f_mass, u_left, u_right, v_left, v_right, axis):
    assert axis == "x"
    normal_sum = np.asarray(u_left, dtype=float) + u_right
    carried = np.where(normal_sum > 0.0, v_left, v_right)
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
    fill_ghosts_1d(h_ext, q_ext, z_ext, n, bcs, g, warnings)

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
    f_h, f_q = flux(h_l, h_l * um, h_r, h_r * up, g)

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
    f_h, f_qn = flux(h_l, h_l * um, h_r, h_r * up, g)
    # Transverse momentum rides on the mass flux, upwinded by the
    # normal velocities (same rule for both sweep directions).
    f_qt = transverse_component(f_h, um, up, vm, vp, "x")

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
    fill_ghosts_2d(h_ext, qx_ext, qy_ext, z_ext, nx, ny, bcs, scheme.g, warnings)

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


def _pair(draw):
    if draw(st.integers(0, 4)) == 0:
        periodic = BoundaryCondition("periodic")
        return periodic, periodic
    return draw(_SIDE_KINDS), draw(_SIDE_KINDS)


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
    assert work.kernel == path
    warnings = []
    phi = work.divergence(state.fields, warnings)
    # Mass fluxes through the boundary faces: west, east[, south, north].
    faces = tuple(side[:rows] for (rows, _, _), sides in
                  zip(work.directions, work.faces) for side in sides)
    return phi, faces, warnings


def _both_kernels(grid, z, state, bcs, scheme, budget):
    """The numpy kernel's results, after checking that the compiled
    kernel (where there is one) gives the same bits."""
    phi, faces, warnings = _kernel(grid, z, state, bcs, scheme, budget,
                                   "numpy")
    if timeloop._sweep_kernel() is not None:
        c_phi, c_faces, c_warnings = _kernel(grid, z, state, bcs, scheme,
                                             budget, "c")
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


@settings(max_examples=40, deadline=None)
@given(st.one_of(operator_cases(two_d=False), operator_cases(two_d=True)))
def test_spatial_operator_phi_runs_the_kernel(case):
    grid, z, state, bcs, scheme, _ = case
    rain = Hyetograph((0.0,), (1e-3,))
    if grid.is_1d:
        *ref, _, _ = _convective_1d(state.h, state.q, z, grid.nx, grid.dx,
                                    bcs, scheme, [])
    else:
        *ref, _ = _convective_2d(state, z, grid, scheme, bcs, [])
    ref[0] = ref[0] - 1e-3
    phi = spatial_operator_phi(state, z, grid, scheme, bcs, rain=rain)
    assert len(phi) == len(ref)
    assert all(np.array_equal(a, b) for a, b in zip(phi, ref))


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
        ctx = timeloop._RunContext(grid, config.topography, scheme,
                                   config.boundaries, config.friction,
                                   config.rain, timeloop._WarningCounter(),
                                   work)
        state = config.initial_state.copy()
        before = state.copy()
        dt = 0.5 * compute_dt(state, grid, scheme, config.boundaries)
        first, ga_first, _ = heun_step(state, ga, 0.0, dt, ctx)
        second, ga_second, _ = heun_step(first, ga_first, dt, dt, ctx)
        assert all(np.array_equal(a, b) for a, b in
                   zip(state.fields, before.fields))
        buffers = [work.ext, work.full.floats, work.full.flags, work.stage,
                   work.faces]
        if path == "numpy":
            buffers += [*work.pool] + ([work.y_div] if two_d else [])
        else:
            buffers.append(work.sweep_work)
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

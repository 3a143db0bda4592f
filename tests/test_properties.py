"""Invariants of the scheme on random inputs (Hypothesis).

Each property runs a few steps of the full solver on a small random
grid: a lake at rest stays at rest, dam breaks keep depths nonnegative,
closed and periodic domains keep their volume, and the scheme commutes
with an x mirror, an x/y transpose, and the 1D/2D embedding.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from swekit.boundary import BoundaryCondition, BoundarySet
from swekit.core import Grid, State, total_volume
from swekit.timeloop import (
    SchemeConfig,
    SimulationConfig,
    compute_dt,
    run_simulation,
)

WALL = BoundaryCondition("wall")
NEUMANN = BoundaryCondition("neumann")
PERIODIC = BoundaryCondition("periodic")
STEPS = 6
SETTINGS = settings(max_examples=25, deadline=None)


def make_state(h, *discharges):
    return State((h, *discharges))


@st.composite
def grids(draw, two_d):
    if two_d:
        return Grid(nx=draw(st.integers(1, 9)), ny=draw(st.integers(2, 9)),
                    dx=draw(st.floats(0.1, 2.0)), dy=draw(st.floats(0.1, 2.0)))
    return Grid(nx=draw(st.integers(1, 40)), dx=draw(st.floats(0.1, 2.0)))


@st.composite
def schemes(draw):
    return SchemeConfig(order=draw(st.sampled_from((1, 2))),
                        flux_name=draw(st.sampled_from(("hll", "rusanov"))))


def random_bed(rng, shape, draw):
    """Random cell elevations: flat, smooth bumps or rough."""
    kind = draw(st.sampled_from(("flat", "smooth", "rough")))
    if kind == "flat":
        return np.zeros(shape)
    if kind == "rough":
        return rng.uniform(0.0, 1.0, shape)
    grids_ = np.meshgrid(*(np.linspace(0.0, 1.0, n) for n in shape),
                         indexing="ij")
    z = np.zeros(shape)
    for _ in range(3):
        center = rng.uniform(0.0, 1.0, len(shape))
        r2 = sum((g - c) ** 2 for g, c in zip(grids_, center))
        z += rng.uniform(0.1, 0.8) * np.exp(-r2 / rng.uniform(0.01, 0.1))
    return z


def final_state(grid, z, state, scheme, bcs, steps=STEPS):
    """Run for `steps` steps of the scheme's fixed dt, or of the first CFL dt."""
    dt = scheme.fixed_dt or compute_dt(state, grid, scheme, bcs)
    config = SimulationConfig(grid=grid, topography=z, initial_state=state,
                              final_time=steps * dt, scheme=scheme,
                              boundaries=bcs)
    return run_simulation(config)


def _sides(draw, two_d):
    """Closed or periodic sides in each direction."""
    left = right = draw(st.sampled_from((WALL, PERIODIC)))
    bottom = top = draw(st.sampled_from((WALL, PERIODIC))) if two_d else WALL
    return BoundarySet(left, right, bottom, top)


@st.composite
def lakes(draw, two_d):
    """Still water over a random bed that may emerge from it."""
    grid = draw(grids(two_d))
    shape = grid.shape
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    z = random_bed(rng, shape, draw)
    level = draw(st.floats(0.05, 1.0))
    h = np.maximum(level - z, 0.0)
    zero = np.zeros(shape)
    state = make_state(h, *([zero] * (2 if two_d else 1)))
    return grid, z, state, draw(schemes()), _sides(draw, two_d)


@SETTINGS
@given(st.one_of(lakes(two_d=False), lakes(two_d=True)))
def test_lake_at_rest_stays_at_rest(case):
    grid, z, state, scheme, bcs = case
    result = final_state(grid, z, state, scheme, bcs)
    h, *discharges = result.final_state.fields
    assert np.max(np.abs(h - state.h)) <= 1e-13
    assert all(np.max(np.abs(q)) <= 1e-13 for q in discharges)


@st.composite
def dam_breaks(draw, two_d):
    """A column released onto a wet or dry bed, possibly moving."""
    grid = draw(grids(two_d))
    shape = grid.shape
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    z = random_bed(rng, shape, draw) * draw(st.sampled_from((0.0, 0.3)))
    cut = draw(st.floats(0.0, 1.0))
    high = draw(st.floats(0.1, 2.0))
    low = draw(st.sampled_from((0.0, 1e-3, 0.1)))
    x = (np.arange(grid.nx) + 0.5) / grid.nx
    h = np.broadcast_to(np.where(x < cut, high, low), shape).copy()
    discharges = [h * draw(st.floats(-1.0, 1.0))
                  for _ in range(2 if two_d else 1)]
    side = draw(st.sampled_from((WALL, NEUMANN, PERIODIC)))
    other = draw(st.sampled_from((WALL, NEUMANN, PERIODIC)))
    bcs = BoundarySet(side, side, other, other) if two_d \
        else BoundarySet(side, side)
    return grid, z, make_state(h, *discharges), draw(schemes()), bcs


@SETTINGS
@given(st.one_of(dam_breaks(two_d=False), dam_breaks(two_d=True)))
def test_dam_breaks_keep_depths_nonnegative(case):
    grid, z, state, scheme, bcs = case
    result = final_state(grid, z, state, scheme, bcs, steps=10)
    assert result.min_depth_seen >= 0.0
    assert np.all(np.isfinite(result.final_state.h))


@st.composite
def closed_flows(draw, two_d):
    """Random moving water over a random bed in a closed or periodic box."""
    grid = draw(grids(two_d))
    shape = grid.shape
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    z = random_bed(rng, shape, draw) * draw(st.sampled_from((0.0, 0.5)))
    h = rng.uniform(0.0, 1.0, shape) * (rng.random(shape) < 0.8)
    discharges = [h * rng.normal(0.0, 0.5, shape)
                  for _ in range(2 if two_d else 1)]
    return (grid, z, make_state(h + 0.05, *discharges), draw(schemes()),
            _sides(draw, two_d))


@SETTINGS
@given(st.one_of(closed_flows(two_d=False), closed_flows(two_d=True)))
def test_closed_and_periodic_domains_conserve_volume(case):
    grid, z, state, scheme, bcs = case
    result = final_state(grid, z, state, scheme, bcs)
    v0 = total_volume(state, grid)
    v1 = total_volume(result.final_state, grid)
    assert abs(v1 - v0) <= 1e-13 * v0


def _mirror_x(grid, z, state, bcs):
    """The same problem reflected in x: x -> -x, qx -> -qx."""
    h, qx, *rest = (f[..., ::-1].copy() for f in state.fields)
    return (grid, z[..., ::-1].copy(), make_state(h, -qx, *rest),
            BoundarySet(bcs.right, bcs.left, bcs.bottom, bcs.top))


@st.composite
def mirror_cases(draw, two_d):
    grid, z, state, scheme, _ = draw(closed_flows(two_d))
    left, right = draw(st.sampled_from(((WALL, WALL), (NEUMANN, NEUMANN),
                                        (WALL, NEUMANN), (PERIODIC, PERIODIC))))
    bottom = top = draw(st.sampled_from((WALL, NEUMANN, PERIODIC)))
    return grid, z, state, scheme, BoundarySet(left, right, bottom, top)


def _mirror_error(case):
    """Largest difference between a run and its mirrored run, mirrored back."""
    grid, z, state, scheme, bcs = case
    scheme = SchemeConfig(order=scheme.order, flux_name=scheme.flux_name,
                          fixed_dt=0.5 * compute_dt(state, grid, scheme, bcs))
    direct = final_state(grid, z, state, scheme, bcs).final_state.fields
    grid, z, state, bcs = _mirror_x(grid, z, state, bcs)
    mirrored = final_state(grid, z, state, scheme, bcs).final_state.fields
    # Mirroring back negates qx and keeps h (and qy).
    sign = np.array([1.0, -1.0, 1.0])[:len(direct)]
    sign = sign.reshape((-1,) + (1,) * (direct.ndim - 1))
    return np.max(np.abs(mirrored[..., ::-1] * sign - direct))


@SETTINGS
@given(st.one_of(mirror_cases(two_d=False), mirror_cases(two_d=True)))
def test_mirror_in_x_commutes_with_the_scheme(case):
    assert _mirror_error(case) <= 1e-13


# Two still cells of different depth side by side: u = 0 on both sides
# of their face and a nonzero mass flux. The transverse velocity is
# upwinded by the sign of the mass flux, so the mirrored problem, whose
# flux has the other sign, carries the mirrored cell's v.
STILL_CELLS = (Grid(nx=2, ny=2, dx=1.0, dy=1.0), np.zeros((2, 2)),
               make_state(np.array([[0.3, 0.1], [0.2, 0.4]]), np.zeros((2, 2)),
                          np.array([[0.1, -0.05], [0.0, 0.02]])),
               SchemeConfig(order=1), BoundarySet())


def test_still_cells_side_by_side_stay_mirror_images():
    assert _mirror_error(STILL_CELLS) <= 1e-13


@SETTINGS
@given(mirror_cases(two_d=True))
def test_transposing_x_and_y_commutes_with_the_scheme(case):
    grid, z, state, scheme, bcs = case
    scheme = SchemeConfig(order=scheme.order, flux_name=scheme.flux_name,
                          fixed_dt=0.5 * compute_dt(state, grid, scheme, bcs))
    h, qx, qy = state.fields
    grid_t = Grid(nx=grid.ny, ny=grid.nx, dx=grid.dy, dy=grid.dx)
    if grid_t.is_1d:
        return  # a single column transposes into a 1D grid
    bcs_t = BoundarySet(bcs.bottom, bcs.top, bcs.left, bcs.right)
    direct = final_state(grid, z, state, scheme, bcs).final_state
    transposed = final_state(grid_t, z.T.copy(),
                             make_state(h.T.copy(), qy.T.copy(), qx.T.copy()),
                             scheme, bcs_t).final_state
    assert np.max(np.abs(transposed.h.T - direct.h)) <= 1e-13
    assert np.max(np.abs(transposed.qx.T - direct.qy)) <= 1e-13
    assert np.max(np.abs(transposed.qy.T - direct.qx)) <= 1e-13


@SETTINGS
@given(closed_flows(two_d=False), st.integers(2, 6), st.floats(0.1, 2.0),
       st.sampled_from((WALL, NEUMANN, PERIODIC)))
def test_2d_with_a_uniform_y_matches_1d(case, ny, dy, side):
    grid, z, state, scheme, bcs = case
    scheme = SchemeConfig(order=scheme.order, flux_name=scheme.flux_name,
                          fixed_dt=0.25 * compute_dt(state, grid, scheme, bcs))
    grid_2d = Grid(nx=grid.nx, ny=ny, dx=grid.dx, dy=dy)
    tile = lambda a: np.tile(a, (ny, 1))  # noqa: E731
    one = final_state(grid, z, state, scheme, bcs).final_state
    two = final_state(grid_2d, tile(z),
                      make_state(tile(state.h), tile(state.q),
                                 np.zeros((ny, grid.nx))),
                      scheme, BoundarySet(bcs.left, bcs.right, side,
                                          side)).final_state
    assert np.max(np.abs(two.h - one.h)) <= 1e-13
    assert np.max(np.abs(two.qx - one.q)) <= 1e-13
    assert np.max(np.abs(two.qy)) <= 1e-13

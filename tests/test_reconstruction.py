import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from swekit.core import G_DEFAULT
from swekit.reconstruction import (
    centered_correction,
    hydrostatic_reconstruct,
    interface_pressure_correction,
    minmod,
    muscl_slopes,
)


def test_minmod_scalar_cases():
    assert minmod(1.0, 2.0) == 1.0
    assert minmod(-2.0, -0.5) == -0.5
    assert minmod(-1.0, 2.0) == 0.0
    assert minmod(0.0, 3.0) == 0.0
    assert minmod(3.0, 0.0) == 0.0


def _where_minmod(a, b):
    """The limiter's defining rule, one numpy.where per branch."""
    return np.where(a * b <= 0.0, 0.0, np.where(np.abs(a) < np.abs(b), a, b))


# Finite values of every magnitude: products of two tiny ones underflow
# to zero (the rule then limits to zero), equal magnitudes tie.
_LIMITER_INPUTS = st.lists(
    st.tuples(st.floats(allow_nan=False, allow_infinity=False),
              st.floats(allow_nan=False, allow_infinity=False))
    | st.tuples(st.sampled_from((1e-170, -1e-170, 3e-160, 5e-324, 0.0, -0.0,
                                 2.0, -2.0)),
                st.sampled_from((2e-170, -1e-170, 1e-160, -5e-324, 0.0, -0.0,
                                 2.0, -3.0))),
    min_size=1, max_size=64)


@given(_LIMITER_INPUTS)
def test_minmod_and_slopes_are_bitwise_the_where_rule(pairs):
    a, b = np.array(pairs).T
    with np.errstate(over="ignore"):  # a*b of two huge values
        ref = _where_minmod(a, b)
        got = minmod(a, b)
    assert np.array_equal(got.view(np.uint64), ref.view(np.uint64))
    assert minmod(1e-170, 1e-170) == 0.0 and minmod(1e-150, 1e-150) == 1e-150
    # Slopes of cell values small enough that no difference overflows.
    values = np.clip(np.concatenate((a, b)), -1e300, 1e300)[None, :]
    d = (values[..., 1:] - values[..., :-1]) / 0.5
    expected = np.zeros_like(values)
    with np.errstate(over="ignore"):
        expected[..., 1:-1] = _where_minmod(d[..., :-1], d[..., 1:])
    with np.errstate(over="ignore"):
        slopes = muscl_slopes(np.vstack((values, values[:, ::-1])), 0.5)[:1]
    assert np.array_equal(slopes.view(np.uint64), expected.view(np.uint64))


def test_minmod_never_exceeds_inputs():
    rng = np.random.default_rng(3)
    a = rng.uniform(-2, 2, size=10000)
    b = rng.uniform(-2, 2, size=10000)
    m = minmod(a, b)
    assert np.all(np.abs(m) <= np.abs(a) + 1e-15)
    assert np.all(np.abs(m) <= np.abs(b) + 1e-15)
    same_sign = a * b > 0
    assert np.all(m[same_sign] * a[same_sign] > 0)
    assert np.all(m[~same_sign] == 0.0)


def _traces(values, dx):
    """Face traces of the limited linear reconstruction, as the solver
    forms them: (left, right) at each interior interface."""
    half_step = 0.5 * dx * muscl_slopes(values, dx)
    return values[:-1] + half_step[:-1], values[1:] - half_step[1:]


def test_muscl_constant_field_unchanged():
    left, right = _traces(np.full(6, 2.5), dx=0.1)
    np.testing.assert_array_equal(left, np.full(5, 2.5))
    np.testing.assert_array_equal(right, np.full(5, 2.5))


def test_muscl_linear_field_exact_interfaces():
    # On a linear field the limiter keeps the exact slope, so both
    # traces agree with the point value at each interior interface.
    dx = 0.5
    x = (np.arange(6) + 0.5) * dx
    v = 3.0 * x + 1.0
    np.testing.assert_allclose(muscl_slopes(v, dx)[1:-1], 3.0, rtol=1e-14)
    left, right = _traces(v, dx)
    x_faces = x[:-1] + 0.5 * dx
    exact = 3.0 * x_faces + 1.0
    # End cells have zero slope, so only the fully interior faces match.
    np.testing.assert_allclose(left[1:], exact[1:], rtol=1e-14)
    np.testing.assert_allclose(right[:-1], exact[:-1], rtol=1e-14)


def test_muscl_extremum_gets_zero_slope():
    slopes = muscl_slopes(np.array([0.0, 1.0, 0.0]), dx=1.0)
    np.testing.assert_array_equal(slopes, np.zeros(3))


def test_muscl_two_cells_falls_back_to_cell_values():
    assert np.array_equal(muscl_slopes(np.array([1.0, 4.0]), dx=1.0),
                          [0.0, 0.0])
    left, right = _traces(np.array([1.0, 4.0]), dx=1.0)
    assert left[0] == 1.0 and right[0] == 4.0


def test_hydrostatic_flat_bottom_is_identity():
    h_l, q_l, h_r, q_r = hydrostatic_reconstruct(1.0, 0.3, 2.0, 0.8, 0.3, -1.0)
    assert h_l == 1.0 and q_l == 2.0
    assert h_r == 0.8 and q_r == -0.8


def test_hydrostatic_step_clips_depth():
    h_l, q_l, h_r, q_r = hydrostatic_reconstruct(1.0, 0.0, 2.0, 1.0, 0.5, 0.0)
    assert h_l == 0.5
    assert q_l == 1.0  # velocity preserved: q = h_l * u = 0.5 * 2
    assert h_r == 1.0 and q_r == 0.0


def test_hydrostatic_wall_blocks_interface():
    h_l, q_l, h_r, q_r = hydrostatic_reconstruct(0.2, 0.0, 1.5, 0.0, 1.0, 0.0)
    assert h_l == 0.0 and q_l == 0.0
    assert h_r == 0.0 and q_r == 0.0


def test_hydrostatic_never_negative():
    rng = np.random.default_rng(11)
    h_m = rng.uniform(0, 2, 5000)
    h_p = rng.uniform(0, 2, 5000)
    z_m = rng.uniform(-1, 1, 5000)
    z_p = rng.uniform(-1, 1, 5000)
    h_l, _, h_r, _ = hydrostatic_reconstruct(h_m, z_m, 0.0, h_p, z_p, 0.0)
    assert np.all(h_l >= 0.0) and np.all(h_r >= 0.0)
    assert np.all(h_l <= h_m + 1e-15) and np.all(h_r <= h_p + 1e-15)


def test_interface_pressure_correction_values():
    assert math.isclose(interface_pressure_correction(1.0, 0.5),
                        0.5 * G_DEFAULT * 0.75, rel_tol=1e-15)
    assert math.isclose(interface_pressure_correction(0.2, 0.0),
                        0.5 * G_DEFAULT * 0.04, rel_tol=1e-15)
    assert interface_pressure_correction(0.7, 0.7) == 0.0


def test_centered_correction_flat_is_zero():
    assert centered_correction(1.0, 1.0, 0.4, 0.4) == 0.0


def test_centered_correction_value():
    # h = 1 at both faces, topography rising by 0.1 across the cell.
    val = centered_correction(1.0, 1.0, 0.0, 0.1)
    assert math.isclose(val, -G_DEFAULT * 0.1, rel_tol=1e-15)


def test_muscl_slopes_writes_into_out_or_refuses_it():
    values = np.random.default_rng(1).random((3, 10))
    out = np.empty((3, 10))
    assert muscl_slopes(values, 0.1, out=out) is out
    assert np.array_equal(out, muscl_slopes(values, 0.1))
    with pytest.raises(ValueError, match="C-contiguous"):
        muscl_slopes(values, 0.1, out=np.empty((10, 3)).T)

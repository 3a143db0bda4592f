"""Parameter-file parsing: defaults, validation and error reporting."""

import io

import numpy as np
import pytest

from swekit.config import ConfigError, parse_parameter_file, parse_parameters
from swekit.fileio import DemGrid, write_dem, write_profile_1d, write_profile_2d

MINIMAL = """
length = 10
cells = 50
final_time = 2.5
"""


def errors_of(text, **kwargs):
    with pytest.raises(ConfigError) as exc_info:
        parse_parameters(text, **kwargs)
    return exc_info.value.errors


def test_minimal_file_defaults():
    config = parse_parameters(MINIMAL)
    assert config.grid.nx == 50 and config.grid.is_1d
    assert config.grid.dx == pytest.approx(0.2)
    assert config.final_time == 2.5
    assert config.scheme.order == 2
    assert config.scheme.flux_name == "hll"
    assert config.scheme.g == 9.81
    assert config.boundaries.left.kind == "wall"
    assert config.boundaries.right.kind == "wall"
    assert config.friction.law == "none"
    assert config.rain is None and config.infiltration is None
    assert np.all(config.topography == 0.0)
    assert np.all(config.initial_state.h == 0.0)
    assert config.name == "run"


def test_comments_and_blank_lines_ignored():
    text = "# a comment\n\nlength = 10  # trailing\ncells = 5\nfinal_time = 1\n"
    config = parse_parameters(text)
    assert config.grid.nx == 5


def test_full_1d_file():
    text = """
name = channel
length = 100
cells = 200
final_time = 50
output_times = 10, 25, 50
order = 1
flux = rusanov
cfl = 0.9
g = 9.8
friction = manning
friction_coefficient = 0.03
rain = 0:0.001, 30:0
boundary_left = imposed_discharge:2.0
boundary_right = imposed_depth:1.2
initial_state = constant:1.0:0.5
"""
    config = parse_parameters(text)
    assert config.name == "channel"
    assert config.output_times == (10.0, 25.0, 50.0)
    assert config.scheme.order == 1
    assert config.scheme.flux_name == "rusanov"
    assert config.scheme.cfl == 0.9
    assert config.scheme.g == 9.8
    assert config.friction.law == "manning"
    assert config.friction.coefficient == 0.03
    assert config.rain.rate(10.0) == 0.001 and config.rain.rate(35.0) == 0.0
    assert config.boundaries.left.kind == "imposed_discharge"
    assert config.boundaries.left.discharge == 2.0
    assert config.boundaries.right.depth == 1.2
    assert np.all(config.initial_state.h == 1.0)
    assert np.all(config.initial_state.q == 0.5)


def test_2d_grid_and_lake_initial_state():
    text = """
length = 4
cells = 8
width = 2
cells_y = 4
final_time = 1
topography = constant:0.3
initial_state = lake:0.5
boundary_bottom = periodic
boundary_top = periodic
"""
    config = parse_parameters(text)
    assert not config.grid.is_1d
    assert config.grid.ny == 4 and config.grid.dy == 0.5
    assert config.initial_state.h.shape == (4, 8)
    assert np.all(config.initial_state.h == pytest.approx(0.2))
    assert config.boundaries.top.kind == "periodic"


def test_infiltration_block():
    text = MINIMAL + """
infiltration_ks = 1e-6
infiltration_kc = 1e-7
infiltration_zc = 0.01
infiltration_hf = 0.1
infiltration_dtheta = 0.3
infiltration_imax = 5e-5
"""
    config = parse_parameters(text)
    ga = config.infiltration
    assert ga.ks == 1e-6 and ga.kc == 1e-7 and ga.zc == 0.01
    assert ga.hf == 0.1 and ga.dtheta == 0.3 and ga.imax == 5e-5


def test_unknown_key_rejected_with_line_number():
    errors = errors_of(MINIMAL + "speling = 3\n")
    assert errors == [(5, "speling", "unknown key")]


def test_duplicate_key_rejected():
    errors = errors_of(MINIMAL + "cells = 60\n")
    (line, key, reason), = errors
    assert line == 5 and key == "cells"
    assert "duplicate" in reason and "line 3" in reason


def test_missing_required_keys_all_reported():
    errors = errors_of("order = 1\n")
    keys = {key for _, key, _ in errors}
    assert keys == {"length", "cells", "final_time"}
    assert all("missing" in reason for _, _, reason in errors)


def test_negative_length_names_the_key():
    errors = errors_of("length = -5\ncells = 10\nfinal_time = 1\n")
    (line, key, reason), = errors
    assert (line, key) == (1, "length")
    assert "positive" in reason


def test_non_numeric_value_reports_reason():
    errors = errors_of("length = ten\ncells = 10\nfinal_time = 1\n")
    (line, key, reason), = errors
    assert key == "length" and "ten" in reason


def test_unknown_friction_law_lists_options():
    errors = errors_of(MINIMAL + "friction = sticky\n")
    (_, key, reason), = errors
    assert key == "friction"
    assert "manning" in reason and "darcy_weisbach" in reason


def test_chezy_alias_converts_to_darcy():
    config = parse_parameters(MINIMAL + "friction = chezy\n"
                              "friction_coefficient = 30\n")
    assert config.friction.law == "darcy_weisbach"
    assert config.friction.coefficient == pytest.approx(8 * 9.81 / 900.0)


def test_bad_boundary_spec():
    errors = errors_of(MINIMAL + "boundary_left = imposed_depth\n")
    (_, key, reason), = errors
    assert key == "boundary_left" and "depth" in reason


def test_unpaired_periodic_rejected():
    errors = errors_of(MINIMAL + "boundary_left = periodic\n")
    assert any("paired" in reason for _, _, reason in errors)


def test_y_boundaries_rejected_in_1d():
    errors = errors_of(MINIMAL + "boundary_top = wall\n")
    (_, key, reason), = errors
    assert key == "boundary_top" and "2D" in reason


def test_2d_needs_both_width_and_cells_y():
    errors = errors_of(MINIMAL + "cells_y = 4\n")
    (_, key, reason), = errors
    assert key == "width"


def test_bad_rain_entry():
    errors = errors_of(MINIMAL + "rain = 0-0.001\n")
    (_, key, reason), = errors
    assert key == "rain" and "time:intensity" in reason


def test_multiple_errors_collected():
    text = "length = -1\ncells = 0\nfinal_time = 1\nflux = magic\nbogus = 1\n"
    errors = errors_of(text)
    keys = [key for _, key, _ in errors]
    assert set(keys) == {"length", "cells", "flux", "bogus"}


def test_output_times_beyond_final_time():
    errors = errors_of(MINIMAL + "output_times = 1, 99\n")
    assert any(key == "output_times" for _, key, _ in errors)


def test_infiltration_extras_need_ks():
    errors = errors_of(MINIMAL + "infiltration_hf = 0.1\n")
    (_, key, reason), = errors
    assert key == "infiltration_hf" and "infiltration_ks" in reason


def test_an_out_of_range_dtheta_is_reported_under_its_own_key():
    errors = errors_of(MINIMAL + "infiltration_ks = 1e-6\n"
                       "infiltration_dtheta = 2\n")
    assert errors == [(6, "infiltration_dtheta",
                       "dtheta must lie in (0, 1]")]


def test_a_crust_without_kc_is_reported_under_kc():
    errors = errors_of(MINIMAL + "infiltration_ks = 1e-6\n"
                       "infiltration_zc = 0.01\n")
    assert errors == [(0, "infiltration_kc",
                       "a crust of nonzero thickness needs kc > 0")]


def test_topography_from_dem_file(tmp_path):
    dem = DemGrid.from_south_up(np.linspace(0.0, 0.4, 5)[None, :],
                                cellsize=2.0)
    write_dem(tmp_path / "bed.dem", dem)
    text = "length = 10\ncells = 5\nfinal_time = 1\ntopography = file:bed.dem\n"
    config = parse_parameters(text, base_dir=str(tmp_path))
    assert config.topography.shape == (5,)
    assert np.allclose(config.topography, np.linspace(0.0, 0.4, 5))


def test_dem_grid_mismatch_reported(tmp_path):
    dem = DemGrid.from_south_up(np.zeros((1, 4)), cellsize=2.5)
    write_dem(tmp_path / "bed.dem", dem)
    text = "length = 10\ncells = 5\nfinal_time = 1\ntopography = file:bed.dem\n"
    errors = errors_of(text, base_dir=str(tmp_path))
    (_, key, reason), = errors
    assert key == "topography" and "1x4" in reason


def test_initial_state_from_profile_file(tmp_path):
    x = np.array([1.0, 3.0, 5.0, 7.0, 9.0])
    h = np.array([1.0, 0.8, 0.6, 0.4, 0.2])
    q = np.array([0.1, 0.1, 0.1, 0.1, 0.1])
    write_profile_1d(tmp_path / "init.txt", x, np.zeros(5), h, q, time=0.0,
                     g=9.81)
    text = ("length = 10\ncells = 5\nfinal_time = 1\n"
            "initial_state = file:init.txt\n")
    config = parse_parameters(text, base_dir=str(tmp_path))
    assert np.array_equal(config.initial_state.h, h)
    assert np.array_equal(config.initial_state.q, q)


def test_initial_state_profile_for_another_channel_rejected(tmp_path):
    # Written for a 10 m channel of 500 cells, read on a 5 m one.
    x = (np.arange(500) + 0.5) * 0.02
    write_profile_1d(tmp_path / "init.txt", x, np.zeros(500), np.ones(500),
                     np.zeros(500), time=0.0, g=9.81)
    text = ("length = 5\ncells = 500\nfinal_time = 1\n"
            "initial_state = file:init.txt\n")
    errors = errors_of(text, base_dir=str(tmp_path))
    (_, key, reason), = errors
    assert key == "initial_state" and "x column" in reason


@pytest.mark.parametrize("flip", [False, True])
def test_initial_state_profile_rows_must_follow_the_grid_2d(tmp_path, flip):
    # 3 x 2 cells of 2 m; the flipped file lists the northern row first.
    x, y = np.array([1.0, 3.0, 5.0]), np.array([1.0, 3.0])
    h = np.array([[1.0, 0.8, 0.6], [0.4, 0.2, 0.1]])
    qx, qy = 0.1 * h, 0.2 * h
    rows = slice(None, None, -1 if flip else 1)
    write_profile_2d(tmp_path / "init.txt", x, y[rows], np.zeros((2, 3)),
                     h[rows], qx[rows], qy[rows], time=0.0, g=9.81)
    text = ("length = 6\ncells = 3\nwidth = 4\ncells_y = 2\nfinal_time = 1\n"
            "initial_state = file:init.txt\n")
    if flip:
        (_, key, reason), = errors_of(text, base_dir=str(tmp_path))
        assert key == "initial_state" and "y column" in reason
        return
    state = parse_parameters(text, base_dir=str(tmp_path)).initial_state
    assert np.array_equal(state.h, h)
    assert np.array_equal(state.qx, qx) and np.array_equal(state.qy, qy)


def test_missing_file_reported(tmp_path):
    text = MINIMAL + "topography = file:nope.dem\n"
    errors = errors_of(text, base_dir=str(tmp_path))
    (_, key, reason), = errors
    assert key == "topography" and "cannot read" in reason


def test_parse_parameter_file_resolves_relative_paths(tmp_path):
    dem = DemGrid.from_south_up(np.zeros((1, 5)), cellsize=2.0)
    write_dem(tmp_path / "bed.dem", dem)
    params = tmp_path / "case.params"
    params.write_text("length = 10\ncells = 5\nfinal_time = 1\n"
                      "topography = file:bed.dem\n", encoding="utf-8")
    config = parse_parameter_file(params)
    assert config.topography.shape == (5,)


def test_negative_initial_depth_rejected():
    errors = errors_of(MINIMAL + "initial_state = constant:-0.5\n")
    assert any("nonneg" in reason or "depth" in reason
               for _, _, reason in errors)


@pytest.mark.parametrize("key, value", [("final_time", "inf"), ("g", "inf"),
                                        ("cfl", "nan"),
                                        ("friction_coefficient", "nan")])
def test_non_finite_number_rejected_at_parse(key, value):
    text = MINIMAL.replace("final_time = 2.5\n", "") + f"{key} = {value}\n"
    if key != "final_time":
        text += "final_time = 1\n"
    errors = errors_of(text)
    (_, bad_key, reason), = errors
    assert bad_key == key and "finite" in reason


def test_non_finite_constant_topography_rejected():
    errors = errors_of(MINIMAL + "topography = constant:nan\n")
    (_, key, reason), = errors
    assert key == "topography" and "finite" in reason


def test_dem_with_non_finite_elevation_rejected(tmp_path):
    dem = DemGrid.from_south_up(np.array([[0.0, np.nan, 0.0, 0.0, 0.0]]),
                                cellsize=2.0)
    write_dem(tmp_path / "bed.dem", dem)
    text = "length = 10\ncells = 5\nfinal_time = 1\ntopography = file:bed.dem\n"
    errors = errors_of(text, base_dir=str(tmp_path))
    (_, key, reason), = errors
    assert key == "topography" and "non-finite" in reason


def test_initial_state_file_with_non_finite_value_rejected(tmp_path):
    h = np.array([1.0, 0.8, np.inf, 0.4, 0.2])
    write_profile_1d(tmp_path / "init.txt", np.arange(5.0) * 2 + 1,
                     np.zeros(5), h, np.zeros(5), time=0.0, g=9.81)
    text = ("length = 10\ncells = 5\nfinal_time = 1\n"
            "initial_state = file:init.txt\n")
    errors = errors_of(text, base_dir=str(tmp_path))
    (_, key, reason), = errors
    assert key == "initial_state" and "non-finite" in reason


def test_imposed_both_discharge_onto_zero_depth_rejected():
    errors = errors_of(MINIMAL + "boundary_left = imposed_both:0:1\n")
    (_, key, reason), = errors
    assert key == "boundary_left" and "zero depth" in reason


@pytest.mark.parametrize("spec", ["imposed_discharge:1e300",
                                  "imposed_depth:-2e154",
                                  "imposed_both:1:1e155"])
def test_imposed_values_whose_square_overflows_are_rejected(spec):
    # Parsed, they faulted the first step with a non-finite state.
    errors = errors_of(MINIMAL + f"boundary_left = {spec}\n")
    (line, key, reason), = errors
    assert (line, key) == (5, "boundary_left") and "overflows" in reason
    # sqrt(DBL_MAX), rounded, still has a finite square.
    bound = float(np.sqrt(np.finfo(float).max))
    config = parse_parameters(
        MINIMAL + f"boundary_left = imposed_discharge:{bound!r}\n")
    assert config.boundaries.left.discharge == bound


def test_single_row_2d_grid_rejected():
    errors = errors_of(MINIMAL + "width = 2\ncells_y = 1\n")
    (_, key, reason), = errors
    assert key == "cells_y" and "1D" in reason


@pytest.mark.parametrize("two_d", [False, True])
def test_dem_origin_must_match_the_grid_origin(tmp_path, two_d):
    rows = 2 if two_d else 1
    dem = DemGrid.from_south_up(np.zeros((rows, 5)), cellsize=2.0,
                                origin=(0.0, 4.0) if two_d else (3.0, 0.0))
    write_dem(tmp_path / "bed.dem", dem)
    text = "length = 10\ncells = 5\nfinal_time = 1\ntopography = file:bed.dem\n"
    if two_d:
        text += "width = 4\ncells_y = 2\n"
    errors = errors_of(text, base_dir=str(tmp_path))
    (_, key, reason), = errors
    assert key == "topography" and "origin" in reason
    # The same DEM is accepted once the grid sits where it does.
    text += "origin_y = 4\n" if two_d else "origin_x = 3\n"
    config = parse_parameters(text, base_dir=str(tmp_path))
    assert config.topography.shape == ((2, 5) if two_d else (5,))


def test_dem_origin_y_is_not_compared_in_1d(tmp_path):
    dem = DemGrid.from_south_up(np.zeros((1, 5)), cellsize=2.0,
                                origin=(0.0, 7.5))
    write_dem(tmp_path / "bed.dem", dem)
    text = "length = 10\ncells = 5\nfinal_time = 1\ntopography = file:bed.dem\n"
    assert parse_parameters(text, base_dir=str(tmp_path)).topography.shape \
        == (5,)

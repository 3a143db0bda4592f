"""Round-trip and format checks for profile, DEM and mass-report files."""

import contextlib
import io
import locale
import logging
import math
import sys
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from unittest import mock

from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from swekit import _native, fileio
from swekit.core import H_EPS, froude_number, froude_number_2d
from swekit.fileio import (
    COLUMNS_1D,
    COLUMNS_2D,
    DemGrid,
    config_hash,
    format_float,
    read_dem,
    read_profile,
    write_dem,
    write_mass_report,
    write_profile_1d,
    write_profile_2d,
)
from swekit.timeloop import MassBalanceRow


def test_format_float_round_trips_doubles():
    values = [1.0, np.pi, 1.0 / 3.0, 1e-308, -2.5e17, 0.1 + 0.2]
    for v in values:
        assert float(format_float(v)) == v


def test_format_float_layout():
    assert format_float(1.0) == "1.0000000000000000e+00"
    assert format_float(-0.5) == "-5.0000000000000000e-01"


def test_config_hash_is_sha256_of_text():
    assert config_hash("a = 1\n") == (
        "cb78bd8a17f7b751fe0d4663366dcbc257204033ef7ddd64b1f2969573b5b2e2")
    assert config_hash("a = 1\n") != config_hash("a = 2\n")


def test_profile_1d_round_trip():
    x = np.array([0.5, 1.5, 2.5])
    z = np.array([0.0, 0.1, 0.2])
    h = np.array([1.0, 0.5, 0.0])
    q = np.array([0.3, -0.2, 0.0])
    buf = io.StringIO()
    write_profile_1d(buf, x, z, h, q, time=2.5, g=9.81, name="demo",
                     cfg_hash="abc123")
    table = read_profile(io.StringIO(buf.getvalue()))
    for name, ref in (("x", x), ("z", z), ("h", h), ("q", q)):
        assert np.array_equal(table[name], ref)
    assert np.array_equal(table["u"], [0.3, -0.4, 0.0])
    assert table["meta"]["case"] == "demo"
    assert table["meta"]["config"] == "abc123"
    assert float(table["meta"]["time"]) == 2.5


def test_profile_1d_froude_column():
    h = np.array([1.0, 0.0])
    q = np.array([9.81**0.5, 0.0])  # u = c exactly on the wet cell
    buf = io.StringIO()
    write_profile_1d(buf, [0.5, 1.5], [0.0, 0.0], h, q, time=0.0, g=9.81)
    table = read_profile(io.StringIO(buf.getvalue()))
    assert table["froude"][0] == pytest.approx(1.0, rel=1e-15)
    assert table["froude"][1] == 0.0


def test_profile_2d_round_trip_row_order():
    x = np.array([0.5, 1.5, 2.5])
    y = np.array([0.25, 0.75])
    z = np.arange(6.0).reshape(2, 3)
    h = np.full((2, 3), 2.0)
    qx = np.arange(6.0).reshape(2, 3) + 1.0
    qy = -qx
    buf = io.StringIO()
    write_profile_2d(buf, x, y, z, h, qx, qy, time=1.0, g=9.81)
    table = read_profile(io.StringIO(buf.getvalue()))
    # Rows come out southernmost first, x varying fastest.
    assert np.array_equal(table["x"], np.tile(x, 2))
    assert np.array_equal(table["y"], np.repeat(y, 3))
    assert np.array_equal(table["qx"].reshape(2, 3), qx)
    assert np.array_equal(table["qy"].reshape(2, 3), qy)
    assert np.array_equal(table["u"].reshape(2, 3), qx / 2.0)


def test_profile_header_names_all_columns():
    buf = io.StringIO()
    write_profile_1d(buf, [0.5], [0.0], [1.0], [0.0], time=0.0, g=9.81)
    header = [ln for ln in buf.getvalue().splitlines()
              if ln.startswith("# columns:")]
    assert header == ["# columns: " + " ".join(COLUMNS_1D)]
    buf2 = io.StringIO()
    write_profile_2d(buf2, [0.5], [0.5], [[0.0]], [[1.0]], [[0.0]], [[0.0]],
                     time=0.0, g=9.81)
    assert "# columns: " + " ".join(COLUMNS_2D) in buf2.getvalue()


def test_read_profile_rejects_missing_header():
    with pytest.raises(ValueError, match="columns"):
        read_profile(io.StringIO("1.0 2.0\n"))


def test_read_profile_rejects_short_rows():
    text = "# columns: x h\n1.0 2.0 3.0\n"
    with pytest.raises(ValueError, match="columns"):
        read_profile(io.StringIO(text))


def test_dem_round_trip_and_orientation():
    south_up = np.array([[0.0, 1.0], [2.0, 3.0], [4.0, 5.0]])
    dem = DemGrid.from_south_up(south_up, cellsize=0.5, origin=(10.0, 20.0))
    assert np.array_equal(dem.values[0], [4.0, 5.0])  # northernmost row
    buf = io.StringIO()
    write_dem(buf, dem)
    back = read_dem(io.StringIO(buf.getvalue()))
    assert back.ncols == 2 and back.nrows == 3
    assert back.cellsize == 0.5
    assert back.origin == (10.0, 20.0)
    assert np.array_equal(back.elevations_south_up(), south_up)


@pytest.mark.parametrize("origin", ["5", "", "1 2 3"])
def test_dem_origin_needs_exactly_two_values(origin):
    text = f"ncols 1\nnrows 1\ncellsize 1.0\norigin {origin}\n0.0\n"
    with pytest.raises(ValueError, match="origin needs two values"):
        read_dem(io.StringIO(text))
    with pytest.raises(ValueError, match="origin needs two values"):
        DemGrid(1, 1, 1.0, tuple(float(v) for v in origin.split()),
                np.zeros((1, 1)))


def test_dem_header_order_enforced():
    text = "nrows 1\nncols 1\ncellsize 1.0\norigin 0 0\n0.0\n"
    with pytest.raises(ValueError, match="ncols"):
        read_dem(io.StringIO(text))


def test_dem_value_count_checked():
    text = "ncols 2\nnrows 2\ncellsize 1.0\norigin 0 0\n1 2 3\n"
    with pytest.raises(ValueError, match="found 3"):
        read_dem(io.StringIO(text))


def test_dem_shape_validation():
    with pytest.raises(ValueError, match="2x2"):
        DemGrid(2, 2, 1.0, (0.0, 0.0), np.zeros((1, 2)))
    with pytest.raises(ValueError, match="positive"):
        DemGrid(0, 1, 1.0, (0.0, 0.0), np.zeros((1, 0)))


def test_mass_report_format():
    rows = [MassBalanceRow(0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0),
            MassBalanceRow(1.0, 1.5, 0.5, 0.0, 0.0, 0.0, 0.0, 0.0)]
    buf = io.StringIO()
    write_mass_report(buf, rows, name="demo", cfg_hash="ff")
    lines = buf.getvalue().splitlines()
    assert lines[0] == "# case = demo"
    assert lines[1] == "# config = ff"
    assert lines[2].startswith("# columns: time volume rain")
    assert len(lines) == 5
    parsed = np.loadtxt(io.StringIO("\n".join(lines[3:])))
    assert np.array_equal(parsed[:, 0], [0.0, 1.0])
    assert np.array_equal(parsed[:, 1], [1.0, 1.5])


# ------------------------------------------------ table writer vs oracle
#
# The oracle is the original writer: one format_float call per value,
# rows joined by spaces. Both table writers, the compiled one (in
# _native.c) and the numpy one (its fallback and reference), must
# reproduce it byte for byte, whatever the values. The oracle tests run
# every writer this machine can; the tests that inspect the numpy
# writer's paths pin it.


def writers():
    """The table writers this machine can run: numpy, and c if built."""
    return ["numpy"] + ([] if fileio._c_writer() is None else ["c"])


@contextlib.contextmanager
def using(writer):
    """Run the enclosed code on the "numpy" or on the "c" table writer."""
    if writer == "numpy":
        with mock.patch.object(fileio, "_c_writer", lambda: None):
            yield
        return
    if fileio._c_writer() is None:
        pytest.skip("the compiled writer is unavailable")
    yield


def pin_numpy_writer(monkeypatch):
    monkeypatch.setattr(fileio, "_c_writer", lambda: None)


def oracle_rows(table):
    return "".join(" ".join(format_float(v) for v in row) + "\n"
                   for row in table)


def written_rows(table):
    buf = io.StringIO()
    fileio._write_rows(buf, table)
    return buf.getvalue()


def assert_rows_match(values, ncols=7):
    values = np.asarray(values, dtype=np.float64).ravel()
    values = np.concatenate([values, np.zeros(-values.size % ncols)])
    table = values.reshape(-1, ncols)
    expected = oracle_rows(table)
    for writer in writers():
        with using(writer):
            got = written_rows(table)
        if got != expected:
            mismatched = [(e, g) for e, g in
                          zip(expected.split(), got.split()) if e != g]
            raise AssertionError(
                f"{writer} writer, first mismatches: {mismatched[:5]}")


@settings(max_examples=300, deadline=None)
@given(hnp.arrays(np.float64,
                  st.tuples(st.integers(0, 12), st.integers(1, 9)),
                  elements=st.floats(allow_nan=True, allow_infinity=True,
                                     allow_subnormal=True)))
def test_write_rows_matches_oracle_on_any_floats(table):
    expected = oracle_rows(table)
    for writer in writers():
        with using(writer):
            assert written_rows(table) == expected


def test_write_rows_matches_oracle_on_random_bit_patterns():
    rng = np.random.default_rng(20140116)
    bits = rng.integers(0, 2**64, size=120_000, dtype=np.uint64)
    assert_rows_match(bits.view(np.float64))


def test_write_rows_matches_oracle_on_normals_across_decades():
    rng = np.random.default_rng(5)
    values = rng.standard_normal(60_000) * 10.0 ** rng.integers(-40, 41,
                                                               60_000)
    assert_rows_match(values)


def test_write_rows_matches_oracle_on_exact_ties():
    # 1 + k/2**17 has 17 decimal places: the 17th significant digit of
    # every odd k is an exact half, which rounds to even.
    assert_rows_match(1.0 + np.arange(200_000) * 2.0**-17)


def test_write_rows_matches_oracle_next_to_powers_of_ten():
    powers = np.array([float(f"1e{e}") for e in range(-308, 309)])
    values = [powers, np.nextafter(powers, 0.0),
              np.nextafter(powers, np.inf),
              np.nextafter(np.nextafter(powers, 0.0), 0.0)]
    values = np.concatenate(values)
    assert_rows_match(np.concatenate([values, -values]))


def test_decade_edges_take_the_numpy_path(monkeypatch):
    # Every power of ten and the double just below it: where log10 can
    # be one off, the value is scaled again instead of sent to Python.
    # The subnormal powers below 1e-308 take the same path.
    powers = np.array([float(f"1e{e}") for e in range(-308, 309)])
    assert powers.size == 617
    subnormal = [float(f"1e{e}") for e in range(-323, -308)] + [5e-324]
    values = np.concatenate([powers, np.nextafter(powers, 0.0), subnormal])
    forbid_fallback(monkeypatch)
    assert_rows_match(np.concatenate([values, -values]))


def test_write_rows_matches_oracle_on_carries_and_specials():
    carries = [float(f"9.9999999999999999e{e}") for e in range(-300, 301, 7)]
    carries += [float(f"9.99999999999999999e{e}") for e in (-5, 0, 22)]
    specials = [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324,
                2.2250738585072014e-308, 2.2250738585072009e-308,
                1.7976931348623157e308, -1.7976931348623157e308]
    integers = np.arange(-5000.0, 5000.0)
    dyadic = np.arange(1, 5000) / 2.0 ** (np.arange(1, 5000) % 60)
    assert_rows_match(np.concatenate([carries, np.negative(carries),
                                      specials, integers, dyadic]))


def count_fallback(monkeypatch):
    """Route the numpy writer's _fallback_words through a spy, pinning
    that writer; returns the list of sizes."""
    pin_numpy_writer(monkeypatch)
    fallback = fileio._fallback_words
    seen = []
    monkeypatch.setattr(fileio, "_fallback_words",
                        lambda values: seen.append(values.size)
                        or fallback(values))
    return seen


def forbid_fallback(monkeypatch):
    """Make the numpy writer's _fallback_words fail, pinning that writer."""
    pin_numpy_writer(monkeypatch)

    def refuse(values):
        raise AssertionError(f"fallback reached for {values[:5]}")
    monkeypatch.setattr(fileio, "_fallback_words", refuse)


def test_write_rows_python_fallback_alone_matches_oracle(monkeypatch):
    # With no digits counted as in range every nonzero value takes the
    # numpy writer's fallback, which must give the same bytes on its own.
    pin_numpy_writer(monkeypatch)
    monkeypatch.setattr(fileio, "_DIGITS_LO", fileio._DIGITS_HI + 1)
    seen = count_fallback(monkeypatch)
    rng = np.random.default_rng(11)
    values = rng.standard_normal(3 * fileio._BLOCK) * 1e3
    assert_rows_match(values, ncols=9)
    assert sum(seen) == values.size


def exact_decades():
    """Decimal exponents whose power 10**(16 - e) is exact in long double."""
    exact = fileio._tables().exact
    return range(16 - (exact.stop - exact.start - 1), 17)


def exact_halves(e, count, rng):
    """Doubles in [10**e, 10**(e+1)) whose 18th significant digit is an
    exact 5: odd multiples m of 2**(e - 17), m < 2**53, where any exist."""
    ulp = Fraction(2) ** (e - 17)
    lo = math.ceil(Fraction(10) ** e / ulp)
    hi = min(math.ceil(Fraction(10) ** (e + 1) / ulp), 2**53)
    if lo // 2 >= hi // 2:
        return []
    m = rng.integers(lo // 2, hi // 2, size=count) * 2 + 1
    return [math.ldexp(float(k), e - 17) for k in m.tolist()]


def test_exact_path_formats_ties_zeros_and_powers_without_fallback(
        monkeypatch):
    pin_numpy_writer(monkeypatch)
    rng = np.random.default_rng(31)
    values, halves = [0.0, -0.0], []
    for e in exact_decades():
        # 18 significant digits ending in 5: the nearest double lies
        # within an ulp of a rounding tie of the 17th digit.
        for text in rng.integers(10**17, 10**18, size=400) // 10 * 10 + 5:
            values.append(float(f"{str(text)[0]}.{str(text)[1:]}e{e}"))
        halves += exact_halves(e, 300, rng)
        power = float(f"1e{e}")
        values += [np.nextafter(power, np.inf),
                   np.nextafter(np.nextafter(power, np.inf), np.inf)]
    for half in halves:
        digits = Decimal(half).as_tuple().digits
        assert len(digits) == 18 and digits[-1] == 5
    assert len(halves) > 3000
    values = np.array(values + halves)
    values = np.concatenate([values, -values,
                             1.0 + np.arange(1, 200_000) * 2.0**-17])
    rounded = []
    exact = fileio._round_exact
    monkeypatch.setattr(fileio, "_round_exact",
                        lambda *args: rounded.append(args[0].size)
                        or exact(*args))
    forbid_fallback(monkeypatch)
    assert_rows_match(values, ncols=8)
    assert sum(rounded) > 0.1 * values.size


def test_exact_path_on_a_double_wide_type(monkeypatch):
    # Where long double is a plain double, every scaled value is near a
    # tie by the error bound; the exact path must then decide all of
    # them in the decades where 10**k is an exact double.
    tables = fileio._tables(np.float64)
    assert tables.split == 2**27 + 1
    assert tables.exact == slice(16 - 22 - fileio._EXP_MIN,
                                 17 - fileio._EXP_MIN)
    monkeypatch.setattr(fileio, "_tables", lambda: tables)
    seen = count_fallback(monkeypatch)
    rng = np.random.default_rng(32)
    assert_rows_match(rng.integers(0, 2**64, size=30_000, dtype=np.uint64)
                      .view(np.float64))
    normals = (rng.uniform(1.0, 10.0, 60_000) * 10.0 ** rng.integers(
        -6, 17, 60_000) * rng.choice([-1.0, 1.0], 60_000))
    ties = 1.0 + np.arange(1, 60_001) * 2.0**-17
    halves = [h for e in range(-6, 16) for h in exact_halves(e, 200, rng)]
    seen.clear()
    assert_rows_match(np.concatenate([normals, -ties, halves, [0.0, -0.0]]),
                      ncols=6)
    assert sum(seen) < 1e-3 * normals.size


def test_write_rows_formats_most_values_without_the_fallback(monkeypatch):
    seen = count_fallback(monkeypatch)
    rng = np.random.default_rng(12)
    written_rows(rng.standard_normal((2000, 9)))
    assert sum(seen) < 0.05 * 2000 * 9


def test_write_rows_row_breaks_do_not_follow_blocks():
    # 13 columns do not divide the block size, so rows straddle blocks.
    rng = np.random.default_rng(13)
    table = rng.standard_normal((fileio._BLOCK // 13 * 2 + 5, 13))
    for writer in writers():
        with using(writer):
            assert written_rows(table) == oracle_rows(table)
            assert written_rows(np.zeros((0, 8))) == ""


# The original writers, kept as whole-file oracles.


def oracle_header(time, columns, name=None, cfg_hash=None):
    lines = []
    if name:
        lines.append(f"# case = {name}")
    lines.append(f"# time = {format_float(time)}")
    if cfg_hash:
        lines.append(f"# config = {cfg_hash}")
    lines.append("# columns: " + " ".join(columns))
    return "".join(line + "\n" for line in lines)


def oracle_profile_1d(x, z, h, q, time, g, name=None, cfg_hash=None):
    h = np.asarray(h, dtype=float)
    q = np.asarray(q, dtype=float)
    wet = h > H_EPS
    u = np.where(wet, q / np.where(wet, h, 1.0), 0.0)
    fr = froude_number(h, q, g)
    text = oracle_header(time, COLUMNS_1D, name, cfg_hash)
    for row in zip(x, z, h, u, q, fr):
        text += " ".join(format_float(v) for v in row) + "\n"
    return text


def oracle_profile_2d(x, y, z, h, qx, qy, time, g, name=None, cfg_hash=None):
    wet = h > H_EPS
    safe = np.where(wet, h, 1.0)
    u = np.where(wet, qx / safe, 0.0)
    v = np.where(wet, qy / safe, 0.0)
    fr = froude_number_2d(h, qx, qy, g)
    text = oracle_header(time, COLUMNS_2D, name, cfg_hash)
    ny, nx = h.shape
    for j in range(ny):
        for i in range(nx):
            row = (x[i], y[j], z[j, i], h[j, i], u[j, i], v[j, i],
                   qx[j, i], qy[j, i], fr[j, i])
            text += " ".join(format_float(val) for val in row) + "\n"
    return text


def oracle_dem(dem):
    text = (f"ncols {dem.ncols}\nnrows {dem.nrows}\n"
            f"cellsize {format_float(dem.cellsize)}\n"
            "origin " + " ".join(format_float(v) for v in dem.origin) + "\n")
    for row in dem.values:
        text += " ".join(format_float(v) for v in row) + "\n"
    return text


def oracle_mass_report(rows, name=None, cfg_hash=None):
    text = f"# case = {name}\n" if name else ""
    text += f"# config = {cfg_hash}\n" if cfg_hash else ""
    text += "# columns: " + " ".join(fileio.MASS_COLUMNS) + "\n"
    for row in rows:
        values = (row.time, row.volume, row.rain, row.infiltration,
                  row.boundary_in, row.boundary_out, row.residual,
                  row.residual_rel)
        text += " ".join(format_float(v) for v in values) + "\n"
    return text


def random_depths(rng, shape):
    """Depths with dry cells, cells below H_EPS and wet cells."""
    h = rng.exponential(0.3, shape)
    h[rng.random(shape) < 0.3] = 0.0
    h[rng.random(shape) < 0.05] = H_EPS / 2
    return h


def test_profile_1d_file_matches_oracle():
    rng = np.random.default_rng(21)
    n = 777
    x = (np.arange(n) + 0.5) * 0.13
    z = rng.standard_normal(n)
    h = random_depths(rng, n)
    q = rng.standard_normal(n) * h
    q[h == 0.0] = -0.0
    expected = oracle_profile_1d(x, z, h, q, 12.5, 9.81, "chan", "ab12")
    for writer in writers():
        buf = io.StringIO()
        with using(writer):
            write_profile_1d(buf, x, z, h, q, time=12.5, g=9.81, name="chan",
                             cfg_hash="ab12")
        assert buf.getvalue() == expected


def test_profile_2d_file_matches_oracle():
    assert_profile_2d_matches_oracle(23, 41)


@pytest.mark.parametrize("ny, nx", [(41, 23), (1, 37), (37, 1), (1, 1),
                                    (600, 9)])
def test_profile_2d_file_matches_oracle_on_other_grids(ny, nx):
    # The coordinates are formatted once per axis and gathered per block;
    # 600 rows of 9 cells straddle blocks in mid-row.
    assert_profile_2d_matches_oracle(ny, nx)


def assert_profile_2d_matches_oracle(ny, nx):
    rng = np.random.default_rng(22)
    x = (np.arange(nx) + 0.5) * 0.7
    y = (np.arange(ny) + 0.5) * 0.3 - 2.0
    z = rng.standard_normal((ny, nx))
    h = random_depths(rng, (ny, nx))
    qx = rng.standard_normal((ny, nx)) * h
    qy = rng.standard_normal((ny, nx)) * h
    expected = oracle_profile_2d(x, y, z, h, qx, qy, 0.1 + 0.2, 9.81)
    for writer in writers():
        buf = io.StringIO()
        with using(writer):
            write_profile_2d(buf, x, y, z, h, qx, qy, time=0.1 + 0.2, g=9.81)
        assert buf.getvalue() == expected


def test_profile_2d_sends_almost_no_value_to_the_fallback(monkeypatch):
    # A hillslope like perfbench's plot: a tilted plane with bumps, a
    # sheet of water with dry cells, and slow flow down the slope.
    rng = np.random.default_rng(25)
    n, dx = 128, 0.5
    x = (np.arange(n) + 0.5) * dx
    y = (np.arange(n) + 0.5) * dx
    z = 0.05 * (x.max() - x) + 0.3 * np.exp(
        -((x - 20.0) ** 2 + (y[:, None] - 30.0) ** 2) / 40.0)
    h = random_depths(rng, (n, n)) * 0.01
    qx = h * rng.uniform(0.0, 0.4, (n, n))
    qy = h * rng.normal(0.0, 0.05, (n, n))
    seen = count_fallback(monkeypatch)
    buf = io.StringIO()
    write_profile_2d(buf, x, y, z, h, qx, qy, time=2.5, g=9.81)
    assert sum(seen) <= 0.0005 * n * n * len(COLUMNS_2D)
    assert buf.getvalue() == oracle_profile_2d(x, y, z, h, qx, qy, 2.5,
                                               9.81)


def test_dem_file_matches_oracle():
    rng = np.random.default_rng(23)
    elevations = rng.standard_normal((37, 150)) * 100.0
    dem = DemGrid.from_south_up(elevations, cellsize=0.25,
                                origin=(-3.5, 1e5 / 3))
    for writer in writers():
        buf = io.StringIO()
        with using(writer):
            write_dem(buf, dem)
        assert buf.getvalue() == oracle_dem(dem)


def test_mass_report_file_matches_oracle():
    rng = np.random.default_rng(24)
    rows = [MassBalanceRow(*values) for values in
            rng.standard_normal((300, 8)) * 10.0 ** rng.integers(-20, 5, 8)]
    rows.append(MassBalanceRow(1.0, 2.0, 0.0, -0.0, 0.0, 0.0, 0.0, 0.0))
    for writer in writers():
        buf, empty = io.StringIO(), io.StringIO()
        with using(writer):
            write_mass_report(buf, rows, name="ledger", cfg_hash="ff")
            write_mass_report(empty, [])
        assert buf.getvalue() == oracle_mass_report(rows, "ledger", "ff")
        assert empty.getvalue() == oracle_mass_report([])


def test_readers_reject_non_finite_values():
    with pytest.raises(ValueError, match="non-finite"):
        read_dem(io.StringIO("ncols 2\nnrows 1\ncellsize 1.0\norigin 0 0\n"
                             "1.0 nan\n"))
    with pytest.raises(ValueError, match="non-finite"):
        read_dem(io.StringIO("ncols 1\nnrows 1\ncellsize inf\norigin 0 0\n"
                             "1.0\n"))
    with pytest.raises(ValueError, match="non-finite"):
        read_profile(io.StringIO("# columns: x h\n0.5 1.0\n1.5 -inf\n"))


# ------------------------------------------------ compiled writer
# The compiled writer is pinned to format_float (Python's correctly
# rounded `%.16e`) on any bit pattern, on exact ties, whatever the
# process's locale, and through every file writer.

DBL_MAX = sys.float_info.max
_POWERS = [float(f"1e{e}") for e in range(-323, 309)]
# Signed zeros, subnormals, the normal range's ends, inf, nan, both
# sides of each power of ten, and digits that carry to 10**17.
EDGES = np.array(
    [0.0, 5e-324, 2.2250738585072009e-308, 2.2250738585072014e-308,
     DBL_MAX, np.inf, np.nan]
    + _POWERS + [math.nextafter(p, 0.0) for p in _POWERS]
    + [math.nextafter(p, math.inf) for p in _POWERS]
    + [float(f"9.9999999999999999e{e}") for e in range(-300, 301, 3)]
    + [float(f"9.99999999999999995e{e}") for e in range(-300, 301, 3)])
EDGES = np.concatenate([EDGES, -EDGES])
EDGE_BITS = EDGES.view(np.uint64).tolist()


@pytest.fixture(scope="module")
def compiled_writer():
    """Skip, before any example runs, where the compiled writer is
    unavailable."""
    if fileio._c_writer() is None:
        pytest.skip("the compiled writer is unavailable")


@settings(max_examples=400, deadline=None)
@given(hnp.arrays(np.uint64,
                  st.tuples(st.integers(0, 12), st.integers(1, 9)),
                  elements=st.one_of(st.integers(0, 2**64 - 1),
                                     st.sampled_from(EDGE_BITS))))
@example(EDGES.view(np.uint64).reshape(-1, 2))
def test_c_writer_matches_format_float_on_any_bit_pattern(compiled_writer,
                                                          bits):
    table = bits.view(np.float64)
    with using("c"):
        assert written_rows(table) == oracle_rows(table)


def test_c_writer_refuses_a_grid_too_small_for_the_table():
    # The compiled writer reads coordinate r % nx and r // nx of row r:
    # a table longer than the grid is refused before any is read.
    with using("c"), pytest.raises(ValueError, match="cannot lead 7 rows"):
        fileio._write_rows(io.StringIO(), np.zeros((7, 2)),
                           grid=(np.zeros(3), np.zeros(2)))


def tie_family():
    """Doubles with 18 significant digits ending in an exact 5: 1 + m *
    2**-17 for odd m, its shifts 10**e + m * 2**(e - 17), and odd
    multiples of 2**(e - 17) in the decades where any exist."""
    rng = np.random.default_rng(41)
    m = np.arange(1, 120_000, 2)
    values = [1.0 + m * 2.0**-17]
    for e in range(1, 11):
        values.append(10.0**e + rng.choice(m, 2000) * 2.0**(e - 17))
    values.append([h for e in range(-40, 16)
                   for h in exact_halves(e, 200, rng)])
    return np.concatenate(values)


def test_c_writer_rounds_exact_ties_to_even_in_both_signs():
    ties = tie_family()
    for value in ties[::97].tolist():
        digits = Decimal(value).as_tuple().digits
        assert len(digits) == 18 and digits[-1] == 5
    with using("c"):
        assert_rows_match(np.concatenate([ties, -ties]), ncols=8)


# Locales whose decimal point is a comma, where installed.
COMMA_LOCALES = ("de_DE.UTF-8", "de_DE.utf8", "fr_FR.UTF-8", "fr_FR.utf8",
                 "ru_RU.UTF-8", "nl_NL.UTF-8")


def test_c_writer_ignores_the_process_locale():
    # Near-ties go to snprintf, whose decimal point follows the locale;
    # the writer runs it under the "C" locale whatever the process's.
    ties = tie_family()[:20_000]
    table = np.concatenate([ties, -ties]).reshape(-1, 8)
    expected = oracle_rows(table)
    saved = locale.setlocale(locale.LC_ALL)
    ran = []
    try:
        for name in ("", *COMMA_LOCALES):
            try:
                locale.setlocale(locale.LC_ALL, name)
            except locale.Error:
                continue
            ran.append(locale.localeconv()["decimal_point"])
            with using("c"):
                assert written_rows(table) == expected
    finally:
        locale.setlocale(locale.LC_ALL, saved)
    assert ran


def write_every_file(directory, rng):
    """Each file writer's output, with signed zeros and non-finite values
    among ordinary ones, into directory; returns the paths."""
    n = 203
    x, y = (np.arange(n) + 0.5) * 0.3, (np.arange(7) + 0.5) * 0.7
    z = rng.standard_normal((7, n))
    h = random_depths(rng, (7, n))
    qx, qy = rng.standard_normal((2, 7, n)) * h
    qy[0, :3] = (-0.0, np.inf, np.nan)
    paths = [directory / name for name in ("p1.txt", "p2.txt", "dem.txt",
                                           "mass.txt")]
    write_profile_1d(paths[0], x, z[0], h[0], qx[0], time=1.5, g=9.81,
                     name="one", cfg_hash="ab")
    write_profile_2d(paths[1], x, y, z, h, qx, qy, time=2.5, g=9.81)
    write_dem(paths[2], DemGrid.from_south_up(z * 1e3, 0.3, (1e6, -2.0)))
    rows = [MassBalanceRow(*values) for values in
            rng.standard_normal((50, 8)) * 10.0 ** rng.integers(-20, 5, 8)]
    write_mass_report(paths[3], rows, name="ledger", cfg_hash="ff")
    return paths


def test_every_file_is_byte_identical_under_both_writers(tmp_path):
    files = {}
    for writer in ("numpy", "c"):
        (tmp_path / writer).mkdir()
        with using(writer):
            paths = write_every_file(tmp_path / writer,
                                     np.random.default_rng(42))
        files[writer] = [path.read_bytes() for path in paths]
    assert files["c"] == files["numpy"]


def test_without_a_build_the_numpy_writer_writes_the_same_files(
        tmp_path, monkeypatch, caplog):
    with using("c"):
        (tmp_path / "c").mkdir()
        compiled = write_every_file(tmp_path / "c",
                                    np.random.default_rng(43))
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    monkeypatch.setenv("PATH", str(tmp_path))
    (tmp_path / "numpy").mkdir()
    _native.library.cache_clear()
    try:
        with caplog.at_level(logging.WARNING, _native.LOG.name):
            assert fileio.writer_name() == "numpy"
            fallback = write_every_file(tmp_path / "numpy",
                                        np.random.default_rng(43))
            write_every_file(tmp_path / "numpy", np.random.default_rng(43))
    finally:
        monkeypatch.undo()
        _native.library.cache_clear()
    warnings = [r.getMessage() for r in caplog.records]
    assert len(warnings) == 1
    assert "numpy sweep kernel" in warnings[0]
    assert "numpy writer" in warnings[0]
    assert [p.read_bytes() for p in fallback] == [p.read_bytes()
                                                  for p in compiled]

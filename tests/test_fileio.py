"""Round-trip and format checks for profile, DEM and mass-report files."""

import contextlib
import ctypes
import importlib
import io
import locale
import logging
import math
import platform
import shutil
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
from swekit.core import H_EPS, froude_number, froude_number_2d, velocity
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


# The compiled writer's binding, kept from any patch a test makes.
_C_WRITER = fileio._c_writer


def writers():
    """The table writers this machine can run: numpy, and the compiled
    writer at each level this CPU runs, "c:<level>", if built."""
    if fileio._c_writer() is None:
        return ["numpy"]
    return ["numpy"] + [f"c:{level}" for level in _native.writer_levels()]


@contextlib.contextmanager
def using(writer):
    """Run the enclosed code on the "numpy" table writer, on the "c" one
    at the widest level this CPU runs, or on "c:<level>"."""
    if writer == "numpy":
        with mock.patch.object(fileio, "_c_writer", lambda: None):
            yield
        return
    if fileio._c_writer() is None:
        pytest.skip("the compiled writer is unavailable")
    level = writer.partition(":")[2]
    if not level:
        yield
        return
    if level not in _native.writer_levels():
        pytest.skip(f"this CPU or this build lacks the {level} writer")
    with mock.patch.object(fileio, "_c_writer", lambda: _C_WRITER(level)):
        yield


def pin_numpy_writer(monkeypatch):
    monkeypatch.setattr(fileio, "_c_writer", lambda: None)


def oracle_rows(table):
    return "".join(" ".join(format_float(v) for v in row) + "\n"
                   for row in table)


def written_rows(table):
    buf = io.StringIO()
    fileio._write_rows(fileio._Sink(buf), table)
    return buf.getvalue()


def assert_written_rows(table, expected=None, writer=""):
    """The running writer's rows of table are `expected`, by default the
    oracle's. A mismatch reports its first values: pytest's diff of two
    texts of megabytes would take minutes."""
    expected = oracle_rows(table) if expected is None else expected
    got = written_rows(table)
    if got != expected:
        mismatched = [(e, g) for e, g in
                      zip(expected.split(), got.split()) if e != g]
        raise AssertionError(
            f"{writer} writer, first mismatches: "
            f"{mismatched[:5] or 'none, but the rows or spaces differ'}")


def assert_rows_match(values, ncols=7):
    values = np.asarray(values, dtype=np.float64).ravel()
    values = np.concatenate([values, np.zeros(-values.size % ncols)])
    table = values.reshape(-1, ncols)
    expected = oracle_rows(table)
    for writer in writers():
        with using(writer):
            assert_written_rows(table, expected, writer)


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
    # Every power of ten and the double just below it: where the estimate
    # of the decimal exponent can be one off, the product is taken again
    # one exponent over instead of the value sent to Python. The
    # subnormal powers below 1e-308 take the same path. Only the exact
    # ties among them, such as nextafter(1e15, 0), reach the fallback.
    powers = np.array([float(f"1e{e}") for e in range(-308, 309)])
    assert powers.size == 617
    subnormal = [float(f"1e{e}") for e in range(-323, -308)] + [5e-324]
    values = np.concatenate([powers, np.nextafter(powers, 0.0), subnormal])
    ties = np.array([scaled_fraction(v) == Fraction(1, 2) for v in values])
    assert np.nextafter(1e15, 0.0) in values[ties]
    assert_rows_match(np.concatenate([values[ties], -values[ties]]))
    forbid_fallback(monkeypatch)
    assert_rows_match(np.concatenate([values[~ties], -values[~ties]]))


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
    # With a margin of one half no digits are decided: every nonzero
    # value takes the numpy writer's fallback, which must give the same
    # bytes on its own.
    pin_numpy_writer(monkeypatch)
    monkeypatch.setattr(fileio, "_MARGIN", 0.5)
    seen = count_fallback(monkeypatch)
    rng = np.random.default_rng(11)
    values = rng.standard_normal(3 * fileio._BLOCK) * 1e3
    assert_rows_match(values, ncols=9)
    assert sum(seen) == values.size


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


def test_numpy_writer_sends_exact_ties_and_only_near_ties_to_the_fallback(
        monkeypatch):
    pin_numpy_writer(monkeypatch)
    rng = np.random.default_rng(31)
    values, halves = [0.0, -0.0], []
    for e in range(-11, 17):
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
    family = 1.0 + np.arange(1, 200_000) * 2.0**-17
    fallback, sent = fileio._fallback_words, []
    monkeypatch.setattr(fileio, "_fallback_words",
                        lambda v: sent.append(v.copy()) or fallback(v))
    assert_rows_match(np.concatenate([values, -values, family]), ncols=8)
    sent = set(np.abs(np.concatenate(sent)).tolist())
    distance = {v: abs(scaled_fraction(v) - Fraction(1, 2))
                for v in set(np.abs(values).tolist()) - {0.0}}
    # (1 + k 2**-17) 10**16 = 10**16 + k 5**16 / 2: the family's odd k
    # are exact ties, and its even k have no fraction.
    ties = set(family[::2].tolist())
    ties |= {v for v, d in distance.items() if d == 0}
    assert len(ties) > 100_000 and ties <= sent
    assert all(v in ties or distance[v] < Fraction(1, 2**43) for v in sent)


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
            assert_written_rows(table, writer=writer)
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


def test_each_writer_refuses_a_grid_too_small_for_the_table():
    # Row r is led by coordinates r % nx and r // nx: a table longer
    # than the grid is refused before any coordinate is read or any
    # block written.
    rows = fileio._BLOCK
    for writer in writers():
        buf = io.StringIO()
        with using(writer), pytest.raises(ValueError,
                                          match=f"cannot lead {rows} rows"):
            fileio._write_rows(fileio._Sink(buf), np.zeros((rows, 2)),
                               grid=(np.zeros(3), np.zeros(1000)))
        assert buf.getvalue() == ""


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
                assert_written_rows(table, expected, "c")
    finally:
        locale.setlocale(locale.LC_ALL, saved)
    assert ran


# Both writers' digits: an exact double-double product with
# 10**(16 - e) from one power table, which fileio._powers builds and
# swekit_writer_init copies, decided wherever it lies farther than
# 2**-44 from a rounding tie, by the numpy writer and at every compiled
# writer level.

# The table's rows, by decimal exponent (EXP_LO..EXP_HI in _native.c).
TABLE_EXPONENTS = range(-325, 310)
DBL_MIN = sys.float_info.min


def power_table():
    """The rows of swekit_powers: hi, lo, head, tail, scale, next."""
    rows = (ctypes.c_double * (6 * len(TABLE_EXPONENTS))).in_dll(
        _native.library(), "swekit_powers")
    return np.array(rows).reshape(-1, 6)


def significant_bits(x):
    n = abs(x.as_integer_ratio()[0])
    return (n // (n & -n)).bit_length() if n else 0


def test_the_power_table_holds_exact_pairs():
    # Each row e holds 10**k, k = 16 - e, times an exact power of two
    # 2**s as hi = RN(10**k 2**s) and lo = RN(10**k 2**s - hi), rebuilt
    # here from Python's integers: float() of an integer ratio rounds
    # correctly. Both are normal, as the error bound needs. The compiled
    # writer's copy of the table and the numpy writer's columns hold it
    # bit for bit.
    rows = fileio._powers()
    assert len(rows) == len(TABLE_EXPONENTS)
    assert fileio._tables().powers.T.tobytes() == rows.tobytes()
    if _native.library() is not None:
        assert power_table().tobytes() == rows.tobytes()
    for e, row in zip(TABLE_EXPONENTS, rows.tolist()):
        hi, lo, head, tail, scale, after = row
        s = -math.frexp(scale)[1] + 1
        assert scale == 2.0 ** -s and s == (160 if e >= 280 else
                                           -160 if e <= -280 else 0)
        power = Fraction(10) ** (16 - e) * Fraction(2) ** s
        assert (hi, lo) == (float(power), float(power - Fraction(hi)))
        assert lo != 0.0 or math.copysign(1.0, lo) == 1.0
        assert hi >= DBL_MIN and (lo == 0.0 or abs(lo) >= DBL_MIN)
        # Veltkamp's halves of hi, for Dekker's product at the baseline.
        assert Fraction(head) + Fraction(tail) == Fraction(hi)
        assert significant_bits(head) <= 26 and significant_bits(tail) <= 26
        try:
            assert after == float(Fraction(10) ** (e + 1))
        except OverflowError:
            assert after == math.inf


def scaled_fraction(value):
    """The fraction of |value| * 10**(16 - e), exactly, e its decimal
    exponent."""
    scaled = abs(Fraction(value)) * Fraction(10) ** (
        16 - Decimal(value).adjusted())
    return scaled - math.floor(scaled)


def near_ties_from(start, tries):
    """The doubles among `tries` consecutive ones from `start`, within its
    decade and its binade, whose scaled value lies within 1e-3 of a
    rounding tie, or at one: the fraction of (M + j) * ulp * 10**k, for
    P / Q = ulp * 10**k, is ((M + j) P mod Q) / Q."""
    e = Decimal(start).adjusted()
    ulp = Fraction(math.ulp(start))
    step = ulp * Fraction(10) ** (16 - e)
    p, q = step.numerator, step.denominator
    m = int(Fraction(start) / ulp)
    stop = min(m + tries, 2**53, math.ceil(Fraction(10) ** (e + 1) / ulp))
    rest, found = m * p % q, []
    for n in range(m, stop):
        if abs(2 * rest - q) * 500 < q:
            found.append(float(n * ulp))
        rest = (rest + p) % q
    return found


def near_ties(rng):
    """Near-ties from a random start at every decimal exponent, and from
    a sample of tie_family()'s exact ties."""
    values = []
    for e in range(-324, 309):
        top = 10**17 if e < 308 else 17976931348623157  # DBL_MAX's digits
        values += near_ties_from(float(Fraction(int(rng.integers(
            10**16, top)), 10**16) * Fraction(10) ** e), 1500)
    neighbours = []
    for tie in rng.choice(tie_family(), 30, replace=False).tolist():
        neighbours += near_ties_from(tie, 1000)
    return values, neighbours


def range_ends(rng, count=20_000):
    """Subnormals, and values whose 10**(16 - e) lies past double's range
    or its split's, where the table holds it scaled (|e| >= 280)."""
    subnormal = rng.integers(1, 2**52, count, dtype=np.uint64).view(
        np.float64)
    exponents = np.concatenate([rng.integers(280, 309, count),
                                rng.integers(-307, -279, count)])
    mantissas = rng.uniform(1.0, 10.0, exponents.size)
    ends = [float(f"{m!r}e{e}") for m, e in zip(mantissas.tolist(),
                                                 exponents.tolist())]
    edges = [float(f"1e{e}") for e in (*range(280, 309),
                                       *range(-323, -279))]
    edges += [math.nextafter(x, direction) for x in edges
              for direction in (0.0, math.inf)]
    return np.concatenate([subnormal, ends, edges, [DBL_MIN, DBL_MAX]])


def writer_at(level):
    """The writer of a level test: "numpy", or a compiled writer level."""
    return level if level == "numpy" else f"c:{level}"


@pytest.mark.parametrize("level", ("numpy", *_native.WRITER_LEVELS))
def test_each_writer_level_decides_near_ties_and_range_ends(level):
    # The double-double product decides a value this close to a tie.
    # Exact ties still go to snprintf, or to Python's formatting in the
    # numpy writer.
    rng = np.random.default_rng(17)
    ties, neighbours = near_ties(rng)
    assert len(ties) > 1000 and len(neighbours) > 10
    for value in ties[::50] + neighbours[::5]:
        assert abs(scaled_fraction(value) - Fraction(1, 2)) < Fraction(
            1, 1000)
    values = np.concatenate([ties, neighbours, range_ends(rng)])
    signs = rng.choice([-1.0, 1.0], values.size)
    table = np.concatenate([values * signs, [0.0] * (-values.size % 8)])
    table = table.reshape(-1, 8)
    with using(writer_at(level)):
        assert_written_rows(table, writer=writer_at(level))


def gauss_reduced(u, v):
    """A reduced basis of the 2D integer lattice spanned by u and v."""
    def dot(a, b):
        return a[0] * b[0] + a[1] * b[1]
    if dot(u, u) > dot(v, v):
        u, v = v, u
    while True:
        m = (2 * dot(u, v) + dot(u, u)) // (2 * dot(u, u))
        v = (v[0] - m * u[0], v[1] - m * u[1])
        if dot(v, v) >= dot(u, u):
            return u, v
        u, v = v, u


def hardest_ties(e, q, d):
    """The doubles M * 2**q, 2**52 <= M < 2**53, of decade e whose scaled
    value M * 2**q * 10**(16 - e) = M a / b lies within 2**-d of a
    half-integer: the points (M - Mc) b, (2 (M a mod b) - b) H 2**(d - 1)
    of a 2D lattice that fall in a square of half-side b H, H the half
    width of the M range about its middle Mc. A reduced basis finds the
    few there near the point nearest the square's centre."""
    ratio = Fraction(2) ** q * Fraction(10) ** (16 - e)
    a, b = ratio.numerator, ratio.denominator
    lo = max(2**52, math.ceil(Fraction(10) ** e / Fraction(2) ** q))
    hi = min(2**53, math.ceil(Fraction(10) ** (e + 1) / Fraction(2) ** q))
    if lo >= hi:
        return []
    middle, half = (lo + hi) // 2, (hi - lo) // 2 + 1
    scale = half << (d - 1)
    u, w = gauss_reduced((b, 2 * a * scale), (0, 2 * b * scale))
    # The lattice point at M = middle is (0, y0); the coefficients that
    # reach the centre from it, in the reduced basis.
    y0 = (2 * (middle * a % b) - b) * scale
    det = u[0] * w[1] - u[1] * w[0]
    cu, cw = round(Fraction(y0 * w[0], det)), round(Fraction(-y0 * u[0], det))
    found = []
    for i in range(cu - 3, cu + 4):
        for j in range(cw - 3, cw + 4):
            m, rest = divmod(i * u[0] + j * w[0], b)
            m += middle
            if not rest and lo <= m < hi and abs(
                    2 * (m * a % b) - b) << d <= 2 * b:
                found.append(math.ldexp(m, q))
    return found


# Values within 2**-54 of a tie whose computed c lies on the far side
# of one half from the exact fraction, found by hardest_ties over every
# decade from -300 to 299.
FAR_SIDE_TIES = [float.fromhex(h) for h in (
    "0x1.57a340eb5d4f1p-760", "0x1.93e838c059d66p-682",
    "0x1.70f4d8d6e3f4cp-304", "0x1.bb2d0be7784abp+231")]


@pytest.mark.parametrize("level", ("numpy", *_native.WRITER_LEVELS))
def test_each_writer_level_leaves_the_hardest_ties_to_snprintf(level):
    # Within 2**-50 of a tie the double-double product cannot decide the
    # digits; such values, exact ties among them, go to snprintf, or to
    # Python's formatting in the numpy writer. Most of them the product
    # would still round the right way, but not FAR_SIDE_TIES: with no
    # margin, each writer level rounds all four the wrong way, and with
    # a margin of 2**-52 one of them.
    values = [v for e in range(-300, 300, 7)
              for q in range(math.floor(e * math.log2(10)) - 54,
                             math.floor(e * math.log2(10)) - 48)
              for v in hardest_ties(e, q, 50)]
    assert len(values) > 1000
    for value in values[::40] + FAR_SIDE_TIES:
        assert abs(scaled_fraction(value) - Fraction(1, 2)) <= Fraction(
            1, 2**50)
    values = np.array(values + FAR_SIDE_TIES)
    table = np.concatenate([values, -values, [0.0] * (-2 * values.size % 8)])
    table = table.reshape(-1, 8)
    with using(writer_at(level)):
        assert_written_rows(table, writer=writer_at(level))


def test_the_widest_writer_level_the_cpu_supports_is_bound(compiled_writer):
    library = _native.library()
    built = [level for level in _native.WRITER_LEVELS
             if hasattr(library, f"swekit_write_rows_{level}")]
    if platform.machine() == "x86_64" and sys.platform == "linux" \
            and shutil.which("gcc"):
        assert built == list(_native.WRITER_LEVELS)
    # numpy reads the CPU and the OS on its own: the fma level needs its
    # AVX2 and its FMA3.
    features = {}
    for name in ("numpy._core._multiarray_umath",
                 "numpy.core._multiarray_umath"):
        with contextlib.suppress(ImportError):
            features = importlib.import_module(name).__cpu_features__
            break
    if not features:
        pytest.skip("numpy reports no CPU features")
    fused = features.get("AVX2") and features.get("FMA3")
    runnable = [level for level in built if level == "baseline" or fused]
    assert _native.writer_levels() == tuple(runnable)
    assert fileio._c_writer()[1] is getattr(
        library, f"swekit_write_rows_{runnable[-1]}")


def write_each_file(targets, rng, name):
    """Each file writer's output into its own of the four targets."""
    n = 37
    x, y = (np.arange(n) + 0.5) * 0.3, (np.arange(5) + 0.5) * 0.7
    z = rng.standard_normal((5, n))
    h = random_depths(rng, (5, n))
    qx, qy = rng.standard_normal((2, 5, n)) * h
    write_profile_1d(targets[0], x, z[0], h[0], qx[0], time=1.5, g=9.81,
                     name=name, cfg_hash="ab")
    write_profile_2d(targets[1], x, y, z, h, qx, qy, time=2.5, g=9.81,
                     name=name)
    write_dem(targets[2], DemGrid.from_south_up(z * 1e3, 0.3, (1e6, -2.0)))
    rows = [MassBalanceRow(*values) for values in
            rng.standard_normal((20, 8)) * 10.0 ** rng.integers(-20, 5, 8)]
    write_mass_report(targets[3], rows, name=name, cfg_hash="ff")


def test_owned_files_and_caller_streams_get_the_same_text(tmp_path):
    # A file the writers open is written as bytes; a stream the caller
    # opened, whatever its encoding, still receives str.
    name = "Ardèche — crue ½"
    for writer in writers():
        paths = [tmp_path / f"{writer}-{k}.txt" for k in range(4)]
        utf16 = [tmp_path / f"{writer}-{k}.utf16" for k in range(4)]
        buffers = [io.StringIO() for _ in range(4)]
        with using(writer):
            write_each_file(paths, np.random.default_rng(44), name)
            write_each_file(buffers, np.random.default_rng(44), name)
            with contextlib.ExitStack() as stack:
                streams = [stack.enter_context(open(path, "w",
                                                    encoding="utf-16"))
                           for path in utf16]
                write_each_file(streams, np.random.default_rng(44), name)
        owned = [path.read_bytes().decode("utf-8") for path in paths]
        assert owned == [buf.getvalue() for buf in buffers]
        assert owned == [path.read_text(encoding="utf-16") for path in utf16]
        assert [f"# case = {name}\n" in text for text in owned] == [
            True, True, False, True]


def test_profiles_take_the_froude_number_from_their_own_velocities(
        monkeypatch):
    # Each profile computes a velocity once per discharge, and its froude
    # column is froude_number's and froude_number_2d's, bit for bit.
    rng = np.random.default_rng(26)
    h = random_depths(rng, (6, 9))
    qx, qy = rng.standard_normal((2, 6, 9)) * h
    x, y, z = np.arange(9.0), np.arange(6.0), rng.standard_normal((6, 9))
    calls = []
    monkeypatch.setattr(fileio, "velocity",
                        lambda *args: calls.append(1) or velocity(*args))
    buf1, buf2 = io.StringIO(), io.StringIO()
    write_profile_1d(buf1, x, z[0], h[0], qx[0], time=0.0, g=9.7)
    assert len(calls) == 1
    write_profile_2d(buf2, x, y, z, h, qx, qy, time=0.0, g=9.7)
    assert len(calls) == 3
    one = read_profile(io.StringIO(buf1.getvalue()))
    two = read_profile(io.StringIO(buf2.getvalue()))
    assert one["froude"].tobytes() == froude_number(h[0], qx[0], 9.7).tobytes()
    assert two["froude"].tobytes() == froude_number_2d(h, qx, qy,
                                                       9.7).ravel().tobytes()
    assert two["u"].tobytes() == velocity(h, qx).ravel().tobytes()
    assert two["v"].tobytes() == velocity(h, qy).ravel().tobytes()


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

"""Text file formats: column profiles, DEM rasters, mass reports.

Everything is plain UTF-8 text with floats printed as `%.16e` (17
significant digits, which round-trips 64-bit values exactly); identical
configurations therefore produce bitwise identical files.

Every table of numbers goes through one writer, `_write_rows`, which
formats values in numpy, a block of whole rows at a time, rather than
one Python call per value. Each value's digits come from one of four
paths:

* Every finite, normal value: |v| is scaled into [1e16, 1e17) in long
  double by a correctly rounded power of ten, and the 17 digits are
  read off as an integer rounded half up. The scaled value carries at
  most two long-double roundings, and the digits stand wherever that
  error cannot change them.
* A value within that error of a rounding tie, where 10**(16 - e) is
  exact (e = -11..16 for x87's 64-bit mantissa): the digits are decided
  exactly, from Dekker's error-free product in long double, and an exact
  half rounds to even as Python does.
* +0.0 and -0.0: written directly.
* Everything else goes to Python's own `f"{v:.16e}"`: subnormals, inf,
  nan, a near-tie outside those exponents, a value whose digits carry to
  10**17, and a value at a decade edge (a power of ten or just below
  one, where the exponent read from log10 can be one off).

On perfbench's plot_rain_2d outputs fewer than 0.02 % of the values
reach Python. Where long double is a plain double, every value counts
as near a tie and the exact path decides those with e = -6..16. The
output is exactly what `format_float` gives for every value.

The digits are rendered through a 4-digit lookup table into NUL-padded
slots of seven words, laid out slot by slot so that a block's bytes are
its text once the NULs are deleted. `write_profile_2d` formats its x and
y coordinates once per call and gathers their slots per block.
"""

import functools
import hashlib
import io
import math
import sys
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .core import H_EPS, froude_number, froude_number_2d

COLUMNS_1D = ("x", "z", "h", "u", "q", "froude")
COLUMNS_2D = ("x", "y", "z", "h", "u", "v", "qx", "qy", "froude")


def format_float(value):
    """17 significant digits, scientific notation."""
    return f"{value:.16e}"


# Rows per formatting block: as many whole rows as fit in 4,608 values
# (512 rows of the 9-column 2D profile), at least one. The largest
# array such a block allocates (its 28-byte slots) stays under the
# 128 KiB at which glibc starts serving allocations with fresh mmaps.
_BLOCK = 4608
_EXP_MIN, _EXP_MAX = -308, 308  # decimal exponents of normal doubles
# Scaled values whose rounded digits land here had the right exponent.
_DIGITS_LO, _DIGITS_HI = 10**16 + 1, 10**17 - 1
_TINY, _HUGE = sys.float_info.min, sys.float_info.max
# A slot is seven little-endian words: sign|digit|'.'|NUL, four groups
# of four digits, 'e'|sign|two exponent digits, and a third exponent
# digit or NUL|separator|NUL|NUL. Fallback text fills words 0-5.
_SLOT_WORDS = 7
_POINT = ord(".") << 16
_SEPARATOR = ord(" ") << 8
# XORed into word 6 of a row's last slot, it turns the space into "\n".
_END_OF_ROW = _SEPARATOR ^ (ord("\n") << 8)


class _Tables(NamedTuple):
    pow10: np.ndarray      # 10**(16 - e) in long double, by e - _EXP_MIN
    groups: np.ndarray     # ASCII words of 0000..9999
    exp_words: np.ndarray  # words 5-6 as one uint64, by e - _EXP_MIN
    rel_err: float         # bound on the relative error of a scaled value
    exact: slice           # the rows of pow10 that hold 10**k exactly
    split: object          # Veltkamp's constant 2**s + 1
    pow_split: np.ndarray  # pow10[exact] as (hi, lo) halves of <= s bits


@functools.cache
def _tables(real=np.longdouble):
    """Lookup tables, built on the first write rather than at import.

    `real` is the wide type the digits are computed in. Two roundings
    to nearest (the power of ten and the product) cost at most
    2**-nmant of a scaled value; rel_err doubles that. 10**k = 2**k 5**k
    is exact while 5**k fits in nmant + 1 bits, so for 0 <= k <= kmax;
    Veltkamp's split by 2**s + 1, s = ceil((nmant + 1) / 2), cuts each
    such power into two halves whose products with halves are exact.
    """
    nmant = np.finfo(real).nmant
    exponents = range(_EXP_MIN, _EXP_MAX + 1)
    # Where `real` is a double, 10**k overflows for the smallest e; the
    # largest finite value keeps those products finite and below 10**16.
    pow10 = np.array([real(f"1e{16 - e}") for e in exponents])
    np.minimum(pow10, np.finfo(real).max, out=pow10)
    n = np.arange(10000, dtype=np.uint16)
    chars = np.empty((10000, 4), dtype=np.uint8)
    for col, div in enumerate((1000, 100, 10, 1)):
        chars[:, col] = n // div % 10 + ord("0")
    groups = chars.view("<u4").ravel()
    text = b"".join(f"e{e:+03d}".encode("ascii").ljust(5, b"\0") + b" \0\0"
                    for e in exponents)
    kmax = math.floor((nmant + 1) / math.log2(5))
    exact = slice(16 - kmax - _EXP_MIN, 17 - _EXP_MIN)
    split = real(2 ** -(-(nmant + 1) // 2) + 1)
    return _Tables(pow10, groups, np.frombuffer(text, dtype="<u8"),
                   2.0 ** (1 - nmant), exact, split,
                   np.stack(_split(pow10[exact], split), axis=-1))


def _split(x, split):
    """Veltkamp's split: x = hi + lo exactly, each half short enough
    that the product of two halves is exact."""
    c = x * split
    hi = c - (c - x)
    return hi, x - hi


def _round_exact(mag, p, k, tables):
    """mag * 10**k rounded to the nearest integer, ties to even, where
    10**k is exact and p is that product rounded to `real`.

    Dekker's product gives the exact error err = mag * 10**k - p. With
    N = floor(p) and D = trunc(err), the product lies w + 1/2 above
    N + D, for w = (p - N - 1/2) + (err - D). Both terms of w are exact.
    Where long double is a double, p is an integer, D takes err's whole
    part and the sum is exact too. Where it is wider, D = 0 and the sum
    may round, but then p - N - 1/2 is a nonzero multiple of an ulp of
    p, larger than |err|, so w keeps its sign and stays inside (-1, 1).
    Either way the nearest integer is N + D + ceil(w), and w is an
    integer only when the product is an exact half."""
    a_hi, a_lo = _split(mag.astype(p.dtype), tables.split)
    b_hi, b_lo = tables.pow_split.take(k, axis=0).T
    err = ((a_hi * b_hi - p) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo
    n = p.astype(np.int64)
    d = err.astype(np.int64)
    w = ((p - n) - 0.5) + (err - d)
    r = w.astype(np.int64)
    r += w > r
    n += d
    n += r
    n += (w == r) & n
    return n


def _fallback_words(values):
    """Slot words 0-5 of each value via Python's own formatting, once per
    distinct bit pattern (so +0.0 and -0.0 stay apart)."""
    distinct, inverse = np.unique(values.view(np.uint64), return_inverse=True)
    text = b"".join(format_float(v).encode("ascii").ljust(24, b"\0")
                    for v in distinct.view(np.float64).tolist())
    return np.frombuffer(text, dtype="<u4").reshape(-1, 6)[inverse]


def _format_block(values, words):
    """Fill words, shaped values.shape + (7,), with the slots of the 2D
    array `values`, each followed by a space."""
    t = _tables()
    mag = np.abs(values)
    normal = (mag >= _TINY) & (mag <= _HUGE)
    mag[~normal] = 1.0
    row = np.log10(mag)
    np.floor(row, out=row)
    row = row.astype(np.intp)
    row -= _EXP_MIN
    scaled = mag.astype(t.pow10.dtype)
    scaled *= t.pow10.take(row)
    digits = scaled.astype(np.int64)
    # The fraction is exact in long double; as a double it is off by at
    # most 2**-54, far inside the margin that rel_err leaves.
    frac = (scaled - digits).astype(np.float64)
    digits += frac > 0.5
    frac -= 0.5
    np.abs(frac, out=frac)
    sure = frac > digits * t.rel_err
    near = normal & ~sure
    if near.any():
        # The digits of a value this close to a rounding tie are decided
        # exactly wherever the power of ten is exact.
        near = np.flatnonzero(near)
        k = row.ravel()[near] - t.exact.start
        mine = k.view(np.uintp) < t.exact.stop - t.exact.start
        near, k = near[mine], k[mine]
        digits.ravel()[near] = _round_exact(mag.ravel()[near],
                                            scaled.ravel()[near], k, t)
        sure.ravel()[near] = True
    ok = sure & normal & (digits >= _DIGITS_LO) & (digits <= _DIGITS_HI)
    zero = values == 0.0
    if zero.any():
        digits[zero] = 0
        ok |= zero
    # 17 digits: a lead digit and two halves of eight, in uint32.
    head = digits // 10**8
    low = (digits - head * 10**8).astype(np.uint32)
    head = head.astype(np.uint32)
    lead = head // np.uint32(10**8)
    high = head - lead * np.uint32(10**8)
    lead += ord("0")
    lead <<= 8
    lead += _POINT
    lead += np.signbit(values) * np.uint32(ord("-"))
    words[..., 0] = lead
    for half, col in ((high, 1), (low, 3)):
        group = half // np.uint32(10000)
        words[..., col] = t.groups.take(group)
        words[..., col + 1] = t.groups.take(half - group * np.uint32(10000))
    words[..., 5:7].view("<u8")[..., 0] = t.exp_words.take(row)
    if not ok.all():
        slow = np.nonzero(~ok)
        words[slow + (slice(0, 6),)] = _fallback_words(values[slow])
        words[slow + (6,)] = _SEPARATOR


def _slots(values):
    """The slots of a 1D array of values, shaped (n, 1, 7)."""
    values = np.asarray(values, dtype=np.float64).reshape(-1, 1)
    words = np.empty(values.shape + (_SLOT_WORDS,), dtype="<u4")
    _format_block(values, words)
    return words


def _write_rows(stream, table, grid=None):
    """Write an (n, k) float table as n lines of k `%.16e` values joined
    by single spaces, byte-identical to formatting each value with
    `format_float`. grid=(x, y) puts x[i] and y[j] in front of row
    j * len(x) + i; each coordinate is formatted once. Works through
    blocks of whole rows, laid out slot by slot."""
    table = np.asarray(table, dtype=np.float64)
    nrows, k = table.shape
    ncoords = 0
    if grid is not None:
        (x_words, y_words), ncoords = map(_slots, grid), 2
    step = max(1, _BLOCK // (ncoords + k))
    words = np.empty((min(step, nrows), ncoords + k, _SLOT_WORDS),
                     dtype="<u4")
    for start in range(0, nrows, step):
        values = table[start:start + step]
        block = words[:len(values)]
        _format_block(values, block[:, ncoords:])
        if ncoords:
            y, x = np.divmod(np.arange(start, start + len(values)),
                             len(x_words))
            block[:, :1] = x_words.take(x, axis=0)
            block[:, 1:2] = y_words.take(y, axis=0)
        block[:, -1, 6] ^= _END_OF_ROW
        stream.write(block.tobytes().translate(None, b"\0").decode("ascii"))


def config_hash(text):
    """Stable fingerprint of a canonical parameter text."""
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _open_for_write(target):
    if hasattr(target, "write"):
        return target, False
    return open(target, "w", encoding="utf-8"), True


def _header_lines(time, columns, name=None, cfg_hash=None):
    lines = []
    if name:
        lines.append(f"# case = {name}")
    lines.append(f"# time = {format_float(time)}")
    if cfg_hash:
        lines.append(f"# config = {cfg_hash}")
    lines.append("# columns: " + " ".join(columns))
    return lines


def write_profile_1d(target, x, z, h, q, time, g, name=None, cfg_hash=None,
                     h_eps=H_EPS):
    """One line per cell: x z h u q froude, with a comment header."""
    h = np.asarray(h, dtype=float)
    q = np.asarray(q, dtype=float)
    wet = h > h_eps
    u = np.where(wet, q / np.where(wet, h, 1.0), 0.0)
    fr = froude_number(h, q, g)
    stream, owned = _open_for_write(target)
    try:
        for line in _header_lines(time, COLUMNS_1D, name, cfg_hash):
            stream.write(line + "\n")
        _write_rows(stream, np.column_stack((x, z, h, u, q, fr)))
    finally:
        if owned:
            stream.close()


def write_profile_2d(target, x, y, z, h, qx, qy, time, g, name=None,
                     cfg_hash=None, h_eps=H_EPS):
    """One line per cell (row by row, southernmost row first)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    z = np.asarray(z, dtype=float)
    h = np.asarray(h, dtype=float)
    qx = np.asarray(qx, dtype=float)
    qy = np.asarray(qy, dtype=float)
    wet = h > h_eps
    safe = np.where(wet, h, 1.0)
    u = np.where(wet, qx / safe, 0.0)
    v = np.where(wet, qy / safe, 0.0)
    fr = froude_number_2d(h, qx, qy, g)
    ny, nx = h.shape
    fields = (z, h, u, v, qx, qy, fr)
    table = np.empty((ny, nx, len(fields)))
    for col, field in enumerate(fields):
        table[:, :, col] = field
    stream, owned = _open_for_write(target)
    try:
        for line in _header_lines(time, COLUMNS_2D, name, cfg_hash):
            stream.write(line + "\n")
        _write_rows(stream, table.reshape(ny * nx, len(fields)),
                    grid=(x[:nx], y[:ny]))
    finally:
        if owned:
            stream.close()


def read_profile(source):
    """Read a column profile back into a dict of arrays.

    Column names come from the '# columns:' header line; extra header
    lines are returned under the 'meta' key.
    """
    if hasattr(source, "read"):
        text = source.read()
    else:
        with open(source, "r", encoding="utf-8") as stream:
            text = stream.read()
    meta = {}
    columns = None
    data_lines = []
    for line in text.splitlines():
        stripped = line.strip()
        if not stripped:
            continue
        if stripped.startswith("#"):
            body = stripped[1:].strip()
            if body.startswith("columns:"):
                columns = body.split(":", 1)[1].split()
            elif "=" in body:
                key, _, value = body.partition("=")
                meta[key.strip()] = value.strip()
            continue
        data_lines.append(stripped)
    if columns is None:
        raise ValueError("profile file lacks a '# columns:' header line")
    if not data_lines:
        raise ValueError("profile file contains no data rows")
    table = np.loadtxt(io.StringIO("\n".join(data_lines)), ndmin=2)
    if table.shape[1] != len(columns):
        raise ValueError(
            f"profile rows have {table.shape[1]} columns, header names "
            f"{len(columns)}")
    if not np.all(np.isfinite(table)):
        raise ValueError("profile holds a non-finite value")
    out = {nm: table[:, k].copy() for k, nm in enumerate(columns)}
    out["meta"] = meta
    return out


# ------------------------------------------------------------------ DEM


@dataclass(frozen=True)
class DemGrid:
    """Raster elevations: values[0] is the northernmost row."""

    ncols: int
    nrows: int
    cellsize: float
    origin: tuple
    values: np.ndarray

    def __post_init__(self):
        if self.ncols <= 0 or self.nrows <= 0:
            raise ValueError("DEM dimensions must be positive")
        if not self.cellsize > 0.0:
            raise ValueError("DEM cellsize must be positive")
        if len(self.origin) != 2:
            raise ValueError(f"DEM origin needs two values (x y), got "
                             f"{len(self.origin)}")
        vals = np.asarray(self.values, dtype=float)
        if vals.shape != (self.nrows, self.ncols):
            raise ValueError(
                f"DEM expects {self.nrows}x{self.ncols} values, got shape "
                f"{vals.shape}")
        object.__setattr__(self, "values", vals)

    def elevations_south_up(self):
        """Values reordered so row 0 is the southernmost (y increasing)."""
        return np.flipud(self.values).copy()

    @classmethod
    def from_south_up(cls, elevations, cellsize, origin=(0.0, 0.0)):
        elev = np.atleast_2d(np.asarray(elevations, dtype=float))
        return cls(elev.shape[1], elev.shape[0], cellsize, tuple(origin),
                   np.flipud(elev).copy())


def write_dem(target, dem):
    """Four header lines, then elevations row-major north to south."""
    stream, owned = _open_for_write(target)
    try:
        stream.write(f"ncols {dem.ncols}\n")
        stream.write(f"nrows {dem.nrows}\n")
        stream.write(f"cellsize {format_float(dem.cellsize)}\n")
        stream.write("origin " + " ".join(format_float(v) for v in dem.origin)
                     + "\n")
        _write_rows(stream, dem.values)
    finally:
        if owned:
            stream.close()


def read_dem(source):
    """Parse the 4-line header + values; validates counts and sizes."""
    if hasattr(source, "read"):
        text = source.read()
    else:
        with open(source, "r", encoding="utf-8") as stream:
            text = stream.read()
    tokens_by_line = [ln.split() for ln in text.splitlines() if ln.strip()]
    if len(tokens_by_line) < 4:
        raise ValueError("DEM needs a 4-line header (ncols, nrows, cellsize, "
                         "origin)")
    header = {}
    for expected, tokens in zip(("ncols", "nrows", "cellsize", "origin"),
                                tokens_by_line[:4]):
        if tokens[0].lower() != expected:
            raise ValueError(f"DEM header line {expected!r} missing or out of "
                             f"order (found {tokens[0]!r})")
        header[expected] = tokens[1:]
    try:
        ncols = int(header["ncols"][0])
        nrows = int(header["nrows"][0])
        cellsize = float(header["cellsize"][0])
        origin = tuple(float(v) for v in header["origin"])
    except (ValueError, IndexError) as exc:
        raise ValueError(f"malformed DEM header: {exc}") from None
    flat = []
    for tokens in tokens_by_line[4:]:
        flat.extend(float(v) for v in tokens)
    if len(flat) != ncols * nrows:
        raise ValueError(f"DEM declares {ncols * nrows} values, found "
                         f"{len(flat)}")
    if len(origin) != 2:
        raise ValueError(f"DEM origin needs two values (x y), found "
                         f"{len(origin)}")
    values = np.array(flat, dtype=float).reshape(nrows, ncols)
    if not (np.all(np.isfinite(values))
            and np.all(np.isfinite((cellsize, *origin)))):
        raise ValueError("DEM holds a non-finite value")
    return DemGrid(ncols, nrows, cellsize, origin, values)


# ---------------------------------------------------------- mass report


MASS_COLUMNS = ("time", "volume", "rain", "infiltration", "boundary_in",
                "boundary_out", "residual", "residual_rel")


def write_mass_report(target, rows, name=None, cfg_hash=None):
    """Mass-balance ledger, one line per recorded output time."""
    stream, owned = _open_for_write(target)
    try:
        if name:
            stream.write(f"# case = {name}\n")
        if cfg_hash:
            stream.write(f"# config = {cfg_hash}\n")
        stream.write("# columns: " + " ".join(MASS_COLUMNS) + "\n")
        table = [(row.time, row.volume, row.rain, row.infiltration,
                  row.boundary_in, row.boundary_out, row.residual,
                  row.residual_rel) for row in rows]
        _write_rows(stream, np.array(table, dtype=np.float64)
                    .reshape(-1, len(MASS_COLUMNS)))
    finally:
        if owned:
            stream.close()

"""Text file formats: column profiles, DEM rasters, mass reports.

Everything is plain UTF-8 text with floats printed as `%.16e` (17
significant digits, which round-trips 64-bit values exactly); identical
configurations therefore produce bitwise identical files.

Every table of numbers goes through one writer, `_write_rows`, which
formats values in numpy rather than one Python call per value. It
scales |v| into [1e16, 1e17) in long double arithmetic with a correctly
rounded power of ten, reads the 17 digits off as an integer rounded
half up, and renders them through a 4-digit lookup table into NUL-padded
slots that are joined by deleting the NULs. The scaled value carries an
error of at most two long-double roundings; any value whose digits that
error could change (within the bound of a rounding tie or of a decade
edge), and every zero, subnormal, inf or nan, is formatted by Python's
own `f"{v:.16e}"` instead. The output is therefore exactly what
`format_float` gives for every value. Where long double is no wider
than double, the bound covers every value and all of them take the
Python path.
"""

import functools
import hashlib
import io
import sys
from dataclasses import dataclass

import numpy as np

from .core import H_EPS, froude_number, froude_number_2d

COLUMNS_1D = ("x", "z", "h", "u", "q", "froude")
COLUMNS_2D = ("x", "y", "z", "h", "u", "v", "qx", "qy", "froude")


def format_float(value):
    """17 significant digits, scientific notation."""
    return f"{value:.16e}"


# Values per formatting block: 512 rows of the 9-column 2D profile. The
# largest array a block allocates (its 28-byte slots) stays under the
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
_NEWLINE = ord("\n") << 8


@functools.cache
def _tables():
    """Lookup tables, built on the first write rather than at import:
    10**(16 - e) in long double and the two exponent words, indexed by
    e - _EXP_MIN; the ASCII words of 0000..9999; and the relative error
    bound on a scaled value. Two roundings to nearest (the power of ten
    and the product) cost at most 2**-nmant; the bound doubles that."""
    exponents = range(_EXP_MIN, _EXP_MAX + 1)
    pow10 = np.array([np.longdouble(f"1e{16 - e}") for e in exponents])
    n = np.arange(10000, dtype=np.uint16)
    chars = np.empty((10000, 4), dtype=np.uint8)
    for col, div in enumerate((1000, 100, 10, 1)):
        chars[:, col] = n // div % 10 + ord("0")
    groups = chars.view("<u4").ravel()
    text = b"".join(f"e{e:+03d}".encode("ascii").ljust(8, b"\0")
                    for e in exponents)
    exp_words = np.frombuffer(text, dtype="<u4").reshape(-1, 2)
    rel_err = 2.0 ** (1 - np.finfo(np.longdouble).nmant)
    return (pow10, groups, exp_words[:, 0].copy(), exp_words[:, 1].copy(),
            rel_err)


def _fallback_words(values):
    """Slot words 0-5 of each value via Python's own formatting, once per
    distinct bit pattern (so +0.0 and -0.0 stay apart)."""
    distinct, inverse = np.unique(values.view(np.uint64), return_inverse=True)
    text = b"".join(format_float(v).encode("ascii").ljust(24, b"\0")
                    for v in distinct.view(np.float64).tolist())
    return np.frombuffer(text, dtype="<u4").reshape(-1, 6)[inverse]


def _format_block(values, words):
    """Fill words[0:7] (one row per slot word) with the slots of
    `values`; separators are ORed into word 6 by the caller."""
    pow10, groups, exp_lo, exp_hi, rel_err = _tables()
    mag = np.abs(values)
    normal = (mag >= _TINY) & (mag <= _HUGE)
    mag[~normal] = 1.0
    row = np.log10(mag)
    np.floor(row, out=row)
    row = row.astype(np.intp) - _EXP_MIN
    scaled = mag.astype(np.longdouble)
    scaled *= pow10.take(row)
    digits = scaled.astype(np.uint64)
    # The fraction is exact in long double; as a double it is off by at
    # most 2**-54, far inside the margin that rel_err leaves.
    frac = (scaled - digits).astype(np.float64)
    digits += frac > 0.5
    frac -= 0.5
    exact = (normal & (np.abs(frac) > digits * rel_err)
             & (digits >= _DIGITS_LO) & (digits <= _DIGITS_HI))
    head, low = np.divmod(digits, 10**8)
    lead, high = np.divmod(head, 10**8)
    lead += ord("0")
    lead <<= 8
    lead += _POINT
    lead += np.signbit(values) * np.uint64(ord("-"))
    words[0] = lead
    words[1] = groups.take(high // 10000)
    words[2] = groups.take(high % 10000)
    words[3] = groups.take(low // 10000)
    words[4] = groups.take(low % 10000)
    words[5] = exp_lo.take(row)
    words[6] = exp_hi.take(row)
    if not exact.all():
        slow = np.flatnonzero(~exact)
        words[:6, slow] = _fallback_words(values[slow]).T
        words[6, slow] = 0


def _write_rows(stream, table):
    """Write an (n, k) float table as n lines of k `%.16e` values joined
    by single spaces, byte-identical to formatting each value with
    `format_float`. Works through fixed blocks of _BLOCK values."""
    table = np.asarray(table, dtype=np.float64)
    ncols = table.shape[1]
    flat = table.reshape(-1)
    words = np.empty((_SLOT_WORDS, min(_BLOCK, flat.size)), dtype="<u4")
    for start in range(0, flat.size, _BLOCK):
        values = flat[start:start + _BLOCK]
        block = words[:, :values.size]
        _format_block(values, block)
        end_of_row = np.arange(start, start + values.size) % ncols \
            == ncols - 1
        block[6] |= np.where(end_of_row, np.uint32(_NEWLINE),
                             np.uint32(_SEPARATOR))
        stream.write(block.T.tobytes().translate(None, b"\0")
                     .decode("ascii"))


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
    table = np.empty((ny, nx, len(COLUMNS_2D)))
    table[:, :, 0] = x[:nx]
    table[:, :, 1] = y[:ny, None]
    for col, field in enumerate((z, h, u, v, qx, qy, fr), start=2):
        table[:, :, col] = field
    stream, owned = _open_for_write(target)
    try:
        for line in _header_lines(time, COLUMNS_2D, name, cfg_hash):
            stream.write(line + "\n")
        _write_rows(stream, table.reshape(ny * nx, len(COLUMNS_2D)))
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

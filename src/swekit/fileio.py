"""Text file formats: column profiles, DEM rasters, mass reports.

Everything is plain UTF-8 text with floats printed as `%.16e` (17
significant digits, which round-trips 64-bit values exactly); identical
configurations therefore produce bitwise identical files. A file the
writers open themselves, from a path, is written as bytes: its text
encoded once, and each block of formatted rows as it comes. A stream
the caller passes in receives str.

Every table of numbers goes through one writer, `_write_rows`, with two
implementations of one method, as the sweep kernel has. Both are
pinned to `format_float` byte for byte: tests/test_fileio.py runs them
against it and against each other.

* The compiled writer, swekit_write_rows_<level> in _native.c (the
  library that holds the sweep kernel; see _native), runs wherever that
  library was built, at the widest writer level the CPU runs (baseline,
  or fma). One foreign call formats a block of whole rows into a reused
  buffer.
* The numpy writer (_write_rows_numpy) runs where no C compiler is
  found or the build fails, after one warning. It formats a block of
  whole rows at a time rather than one Python call per value.

Nothing selects the writer but the build (and the CPU, for the
compiled writer's level); writer_name() tells which one runs. Both
writers find each value's digits by one method, in double arithmetic
alone: _format_block and _product are the numpy twins of decimal() and
product() in _native.c, whose writer header bounds the error.

* A finite nonzero |v| has the decimal exponent e, 10**e <= |v| <
  10**(e + 1): an estimate from its binary exponent and one comparison
  with 10**(e + 1) rounded.
* Its 17 digits are |v| * 10**(16 - e) rounded to nearest. The power is
  a double-double hi + lo from one power table, which _powers builds
  here and the compiled writer copies when the library loads. The
  product is p + c: p = |v| * hi rounded, and c its exact error
  (Dekker's product of Veltkamp halves, Dekker 1971) plus |v| * lo.
  The digits are p plus c rounded, and they stand where c's fraction
  lies farther than 2**-44 from one half.
* At a decade edge e can be one off, which the sign of (p - 1e16) + c
  or (p - 1e17) + c shows: the product is then taken again one exponent
  over. Digits that round up to 10**17 are 10**16 with the exponent one
  higher.
* Zeros are written directly. The rest go to Python's own
  `f"{v:.16e}"`, as the compiled writer sends them to snprintf: exact
  ties, values within 2**-44 of one, inf and nan. None of the values in
  perfbench's plot_rain_2d outputs does.

The numpy writer renders the digits through a 4-digit lookup table into
NUL-padded slots of seven words, laid out slot by slot so that a block's
bytes are its text once the NULs are deleted. Both writers format
write_profile_2d's x and y coordinates once per call.
"""

import functools
import hashlib
import io
import math
import sys
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import _native
from .core import froude_from_speed, velocity

COLUMNS_1D = ("x", "z", "h", "u", "q", "froude")
COLUMNS_2D = ("x", "y", "z", "h", "u", "v", "qx", "qy", "froude")


def format_float(value):
    """17 significant digits, scientific notation."""
    return f"{value:.16e}"


# Rows per formatting block: as many whole rows as fit in 4,608 values
# (512 rows of the 9-column 2D profile), at least one. The largest
# array such a block allocates (its 28-byte slots) stays under the
# 128 KiB at which glibc starts serving allocations with fresh mmaps.
# Each block is written as soon as it is formatted, as bytes where the
# writer opened the file: no buffer holds more than one block.
_BLOCK = 4608
# Decimal exponents of the power table's rows: those of finite nonzero
# doubles, -324..308, and one more at each end for the decade-edge redo.
_EXP_LO, _EXP_HI = -325, 309
# A fraction this close to one half leaves the digits undecided.
_MARGIN = 2.0**-44
# Veltkamp's constant 2**27 + 1: a double times it splits into two
# halves of at most 26 bits, whose products with halves are exact.
_VELTKAMP = 134217729.0
_HUGE = sys.float_info.max
# A slot is seven little-endian words: sign|digit|'.'|NUL, four groups
# of four digits, 'e'|sign|two exponent digits, and a third exponent
# digit or NUL|separator|NUL|NUL. Fallback text fills words 0-5.
_SLOT_WORDS = 7
_POINT = ord(".") << 16
_SEPARATOR = ord(" ") << 8
# XORed into word 6 of a row's last slot, it turns the space into "\n".
_END_OF_ROW = _SEPARATOR ^ (ord("\n") << 8)
# The compiled writer's bytes per value (its longest text and a
# separator) and per formatted coordinate (SLOT in _native.c).
_C_TEXT, _C_SLOT = 25, 32


@functools.cache
def _powers():
    """The power table, built once per process and read by both writers:
    row e - _EXP_LO in the layout of _native.c's struct power, which the
    loader copies into the compiled writer (_native.library()).

    For each e, 10**(16 - e) * 2**s is hi + lo: hi = RN(10**(16 - e) *
    2**s) and lo the rest rounded, with s = 160 where e >= 280, -160
    where e <= -280 (where the power leaves double's range or its split
    could overflow) and 0 elsewhere. head + tail are hi's Veltkamp
    halves, scale = 2**-s is |v|'s factor, and next = RN(10**(e + 1))
    checks the estimate of e. Each is a ratio of exact integers, which
    Python's true division and int-to-float conversion round correctly.
    """
    tens = [1]
    for _ in range(16 - _EXP_LO):
        tens.append(10 * tens[-1])
    values = []
    for e in range(_EXP_LO, _EXP_HI + 1):
        s = 160 if e >= 280 else -160 if e <= -280 else 0
        k = 16 - e
        # 10**k * 2**s = top / bottom; s <= 0 where k >= 0.
        top, bottom = (tens[k], 1 << -s) if k >= 0 else (1 << s, tens[-k])
        hi = top / bottom
        n, d = hi.as_integer_ratio()
        values += (hi, (top * d - n * bottom) / (bottom * d), 2.0**-s,
                   math.inf if e >= 308 else float(tens[e + 1]) if e >= -1
                   else 1 / tens[-e - 1])
    hi, lo, scale, after = np.array(values).reshape(-1, 4).T
    t = hi * _VELTKAMP
    head = t - (t - hi)
    return np.column_stack([hi, lo, head, hi - head, scale, after])


class _Tables(NamedTuple):
    powers: np.ndarray     # _powers() column by column
    groups: np.ndarray     # ASCII words of 0000..9999
    exp_words: np.ndarray  # words 5-6 as one uint64, by e - _EXP_LO


@functools.cache
def _tables():
    """The numpy writer's lookup tables, built on its first write rather
    than at import: the power table of _powers() by columns, which the
    compiled writer reads by rows, and the numpy writer's own digit
    groups and exponent words."""
    n = np.arange(10000, dtype=np.uint16)
    chars = np.empty((10000, 4), dtype=np.uint8)
    for col, div in enumerate((1000, 100, 10, 1)):
        chars[:, col] = n // div % 10 + ord("0")
    groups = chars.view("<u4").ravel()
    text = b"".join(f"e{e:+03d}".encode("ascii").ljust(5, b"\0") + b" \0\0"
                    for e in range(_EXP_LO, _EXP_HI + 1))
    return _Tables(np.ascontiguousarray(_powers().T), groups,
                   np.frombuffer(text, dtype="<u8"))


def _product(m, row, powers):
    """m * 10**(16 - e), for e = row + _EXP_LO, as (p, c): p = a * hi
    rounded and c its exact error plus a * lo, for a = m * scale. The
    error is Dekker's product of the Veltkamp halves of a and hi."""
    hi, lo, head, tail, scale, _ = powers
    a = m * scale.take(row)
    p = a * hi.take(row)
    t = a * _VELTKAMP
    a_head = t - (t - a)
    a_tail = a - a_head
    w_head, w_tail = head.take(row), tail.take(row)
    c = a_head * w_head - p
    c += a_head * w_tail
    c += a_tail * w_head
    c += a_tail * w_tail
    c += a * lo.take(row)
    return p, c


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
    mag = np.abs(values).ravel()
    finite = (mag > 0.0) & (mag <= _HUGE)
    mag[~finite] = 1.0
    # mag lies in [2**(b - 1), 2**b): e is floor((b - 1) * log10(2)),
    # taken as floor((b - 1) * 315653 / 2**20) of a numerator made
    # positive, or one more.
    row = np.frexp(mag)[1].astype(np.intp)
    row -= 1
    row *= 315653
    row += 400 << 20
    row >>= 20
    row -= 400 + _EXP_LO
    row += mag >= t.powers[5].take(row)
    p, c = _product(mag, row, t.powers)
    # At a decade edge e can be one off: the product is taken again one
    # exponent lower or higher.
    below = (p - 1e16) + c < 0.0
    edge = np.flatnonzero(below | ((p - 1e17) + c >= 0.0))
    if edge.size:
        row[edge] += np.where(below[edge], -1, 1)
        p[edge], c[edge] = _product(mag[edge], row[edge], t.powers)
    r = np.rint(c)
    ok = np.abs(c - r) < 0.5 - _MARGIN
    digits = p.astype(np.int64)
    digits += r.astype(np.int64)
    # Digits that round up to 10**17 are 10**16 one row higher.
    carry = digits == 10**17
    if carry.any():
        digits[carry] = 10**16
        row[carry] += 1
    ok &= finite & (digits >= 10**16) & (digits < 10**17)
    digits, row, ok = (a.reshape(values.shape) for a in (digits, row, ok))
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


def _c_writer(level=None):
    """(format_slots, write_rows) of the compiled writer at `level`, by
    default the widest the CPU runs, or None where the library could not
    be built: the numpy writer runs."""
    library = _native.library()
    if library is None:
        return None
    level = level or _native.writer_levels()[-1]
    return (getattr(library, f"swekit_format_slots_{level}"),
            getattr(library, f"swekit_write_rows_{level}"))


def writer_name():
    """The table writer this process runs: "c" or "numpy"."""
    return "numpy" if _c_writer() is None else "c"


class _Sink:
    """Where a file writer's text goes: a stream the caller passed in,
    which receives str, or a file opened here from a path and written as
    bytes. A context manager that closes the file it opened."""

    def __init__(self, target):
        self.owned = not hasattr(target, "write")
        self.stream = open(target, "wb") if self.owned else target

    def text(self, text):
        self.stream.write(text.encode("utf-8") if self.owned else text)

    def ascii(self, data):
        """Write ASCII text held in a bytes-like object."""
        self.stream.write(data if self.owned else str(data, "ascii"))

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        if self.owned:
            self.stream.close()


def _write_rows(sink, table, grid=None):
    """Write an (n, k) float table to a _Sink as n lines of k `%.16e`
    values joined by single spaces, byte-identical to formatting each
    value with `format_float`. grid=(x, y) puts x[i] and y[j] in front
    of row j * len(x) + i; each coordinate is formatted once. The
    compiled writer runs where the library was built, the numpy one
    elsewhere. A grid with fewer than n points is refused before any
    row is written."""
    table = np.asarray(table, dtype=np.float64)
    if grid is not None:
        nx, ny = map(np.size, grid)
        if len(table) > nx * ny:
            raise ValueError(f"a grid of {nx} x {ny} coordinates cannot "
                             f"lead {len(table)} rows")
    writer = _c_writer()
    if writer is None:
        _write_rows_numpy(sink, table, grid)
    else:
        _write_rows_c(writer, sink, table, grid)


def _write_rows_c(writer, sink, table, grid):
    """_write_rows through the compiled writer, a block of whole rows per
    call into one reused buffer. The coordinates it reads are those
    _write_rows has checked cover the table."""
    format_slots, write_rows = writer
    table = np.ascontiguousarray(table)
    nrows, k = table.shape
    ncoords = nx = 0
    x_slots = y_slots = None
    if grid is not None:
        coords = np.concatenate([np.asarray(c, dtype=np.float64).ravel()
                                 for c in grid])
        slots = np.empty((coords.size, _C_SLOT), dtype=np.uint8)
        format_slots(coords.ctypes.data, coords.size, slots.ctypes.data)
        ncoords, nx = 2, np.size(grid[0])
        x_slots = slots.ctypes.data
        y_slots = x_slots + nx * _C_SLOT
    step = max(1, _BLOCK // (ncoords + k))
    out = np.empty(min(step, nrows) * (ncoords + k) * _C_TEXT, dtype=np.uint8)
    address, row_bytes = table.ctypes.data, k * table.itemsize
    for start in range(0, nrows, step):
        size = write_rows(address + start * row_bytes,
                          min(step, nrows - start), k, start, x_slots,
                          y_slots, nx, out.ctypes.data)
        sink.ascii(out[:size])


def _write_rows_numpy(sink, table, grid=None):
    """_write_rows in numpy: blocks of whole rows, laid out slot by slot."""
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
        sink.ascii(block.tobytes().translate(None, b"\0"))


def config_hash(text):
    """Stable fingerprint of a canonical parameter text."""
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _header(time, columns, name=None, cfg_hash=None):
    lines = []
    if name:
        lines.append(f"# case = {name}")
    lines.append(f"# time = {format_float(time)}")
    if cfg_hash:
        lines.append(f"# config = {cfg_hash}")
    lines.append("# columns: " + " ".join(columns))
    return "".join(line + "\n" for line in lines)


def write_profile_1d(target, x, z, h, q, time, g, name=None, cfg_hash=None):
    """One line per cell: x z h u q froude, with a comment header."""
    h = np.asarray(h, dtype=float)
    q = np.asarray(q, dtype=float)
    u = velocity(h, q)
    fr = froude_from_speed(h, np.abs(u), g)
    with _Sink(target) as sink:
        sink.text(_header(time, COLUMNS_1D, name, cfg_hash))
        _write_rows(sink, np.column_stack((x, z, h, u, q, fr)))


def write_profile_2d(target, x, y, z, h, qx, qy, time, g, name=None,
                     cfg_hash=None):
    """One line per cell (row by row, southernmost row first)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    z = np.asarray(z, dtype=float)
    h = np.asarray(h, dtype=float)
    qx = np.asarray(qx, dtype=float)
    qy = np.asarray(qy, dtype=float)
    u = velocity(h, qx)
    v = velocity(h, qy)
    fr = froude_from_speed(h, np.hypot(u, v), g)
    ny, nx = h.shape
    fields = (z, h, u, v, qx, qy, fr)
    table = np.empty((ny, nx, len(fields)))
    for col, field in enumerate(fields):
        table[:, :, col] = field
    with _Sink(target) as sink:
        sink.text(_header(time, COLUMNS_2D, name, cfg_hash))
        _write_rows(sink, table.reshape(ny * nx, len(fields)),
                    grid=(x[:nx], y[:ny]))


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
    with _Sink(target) as sink:
        sink.text(f"ncols {dem.ncols}\nnrows {dem.nrows}\n"
                  f"cellsize {format_float(dem.cellsize)}\n"
                  f"origin {' '.join(format_float(v) for v in dem.origin)}\n")
        _write_rows(sink, dem.values)


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
    table = [(row.time, row.volume, row.rain, row.infiltration,
              row.boundary_in, row.boundary_out, row.residual,
              row.residual_rel) for row in rows]
    with _Sink(target) as sink:
        sink.text((f"# case = {name}\n" if name else "")
                  + (f"# config = {cfg_hash}\n" if cfg_hash else "")
                  + "# columns: " + " ".join(MASS_COLUMNS) + "\n")
        _write_rows(sink, np.array(table, dtype=np.float64)
                    .reshape(-1, len(MASS_COLUMNS)))

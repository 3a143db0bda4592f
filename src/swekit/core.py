"""Grids, conserved states, and pointwise shallow-water relations.

Conserved variables are the water depth h [m] and the unit discharges
q = h*u [m^2/s] per direction: q in 1D, qx and qy in 2D. A State stacks
them in one array, h first, so a step updates every variable with one
call per formula; 2D fields are laid out row-major as (ny, nx), x
varying fastest.
"""

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

G_DEFAULT = 9.81
# Depths at or below this are treated as dry: velocity is zero and the
# cell carries no momentum.
H_EPS = 1e-12


@dataclass(frozen=True)
class Grid:
    """Uniform Cartesian grid of cell centers.

    nx, ny: number of cells per direction (ny == 1 means a 1D domain).
    dx, dy: cell sizes [m], strictly positive.
    x0, y0: coordinates of the lower-left corner of the domain [m].
    """

    nx: int
    dx: float
    ny: int = 1
    dy: float = 1.0
    x0: float = 0.0
    y0: float = 0.0

    def __post_init__(self):
        if self.nx <= 0 or self.ny <= 0:
            raise ValueError(f"grid needs positive cell counts, got nx={self.nx} ny={self.ny}")
        if not (self.dx > 0.0) or not (self.dy > 0.0):
            raise ValueError(f"grid needs positive cell sizes, got dx={self.dx} dy={self.dy}")

    @property
    def is_1d(self):
        return self.ny == 1

    def cell_centers_x(self):
        return self.x0 + (np.arange(self.nx) + 0.5) * self.dx

    def cell_centers_y(self):
        return self.y0 + (np.arange(self.ny) + 0.5) * self.dy

    @cached_property
    def shape(self):
        """Shape of one field: (nx,) in 1D, (ny, nx) in 2D."""
        return (self.nx,) if self.is_1d else (self.ny, self.nx)

    @cached_property
    def spacings(self):
        """Cell size per direction, x first: (dx,) in 1D, (dx, dy) in 2D."""
        return (self.dx,) if self.is_1d else (self.dx, self.dy)


# Variable names of a state by its number of fields.
FIELD_NAMES = {2: ("h", "q"), 3: ("h", "qx", "qy")}


class State:
    """Conserved state: fields[0] is the depth h, fields[1:] the discharges.

    fields has shape (1 + dims,) + grid shape. An array is wrapped as it
    is, without a copy; a sequence (h, q) or (h, qx, qy) is stacked. The
    variables read as .h plus .q (1D) or .qx and .qy (2D), views into
    fields.
    """

    __slots__ = ("fields",)

    def __init__(self, fields):
        self.fields = np.asarray(fields, dtype=float)

    @property
    def h(self):
        return self.fields[0]

    def __getattr__(self, name):
        # Reached only for names that are not attributes: the discharges.
        if name != "fields":
            names = FIELD_NAMES.get(len(self.fields), ())
            if name in names[1:]:
                return self.fields[names.index(name)]
        raise AttributeError(
            f"{type(self).__name__!r} object has no attribute {name!r}")

    def copy(self):
        return State(self.fields.copy())


class Scratch:
    """Float and bool buffers allocated once and overwritten by each use.

    floats has shape (k,) + shape and flags (m,) + shape; a function that
    takes a Scratch documents how many of each it needs.
    """

    __slots__ = ("floats", "flags")

    def __init__(self, floats, flags):
        self.floats = floats
        self.flags = flags

    @classmethod
    def empty(cls, shape, floats, flags):
        shape = tuple(shape)
        return cls(np.empty((floats,) + shape),
                   np.empty((flags,) + shape, dtype=bool))


def velocity(h, q, h_eps=H_EPS, out=None, wet=None):
    """Velocity q/h with the dry convention: u = 0 where h <= h_eps.

    out and wet, if given, are a float and a bool buffer of h's shape
    (out may stack several discharges over a leading axis).
    """
    h = np.asarray(h, dtype=float)
    wet = np.greater(h, h_eps, out=wet)
    if out is None:
        out = np.zeros(np.broadcast(h, q).shape)
    else:
        out[...] = 0.0
    np.divide(q, h, out=out, where=wet)
    return out


def froude_from_speed(h, speed, g=G_DEFAULT, h_eps=H_EPS):
    """Froude number speed / sqrt(g*h), for a flow speed already taken
    from the velocities; zero where dry (h <= h_eps)."""
    wet = h > h_eps
    c = np.sqrt(g * np.where(wet, h, 1.0))
    return np.where(wet, speed / c, 0.0)


def froude_number(h, q, g=G_DEFAULT, h_eps=H_EPS):
    """Froude number |u| / sqrt(g*h); zero where dry (h <= h_eps)."""
    h = np.asarray(h, dtype=float)
    return froude_from_speed(h, np.abs(velocity(h, q, h_eps)), g, h_eps)


def total_volume(state, grid):
    """Water volume: sum(h)*dx in 1D [m^2], sum(h)*dx*dy in 2D [m^3]."""
    volume = np.sum(state.h)
    for d in grid.spacings:
        volume = volume * d
    return float(volume)

"""ctypes bindings of the compiled kernels of _native.c that timeloop
runs: the sweep (struct sweep) and the stage tail (struct tail).

Each Structure mirrors its C struct member for member. The sweep's
blocks are built once per run; the stage tail's block is filled in by
each call, with the data addresses of the arrays it is handed.
"""

import ctypes
import math
import weakref

import numpy as np

from .sources import GreenAmptState

# ---------------------------------------------------------- the sweep

# The kernel's array operands and their axes, in struct sweep's order.
_SWEEP_OPERANDS = (("h", "row", "cell"), ("q", "var", "row", "cell"),
                   ("z", "row", "cell"), ("carried", "var", "row", "cell"),
                   ("normal", "row", "cell"), ("faces", "side", "row"))


class SweepBlock(ctypes.Structure):
    """struct sweep of _native.c: one block of rows, strides in elements."""

    _fields_ = (
        [(name, ctypes.c_ssize_t) for name in
         ("rows", "n", "nq", "second_order", "rusanov", "accumulate")]
        + [(name, ctypes.c_double) for name in ("d", "g", "h_eps")]
        + [field for name, *axes in _SWEEP_OPERANDS
           for field in [(name, ctypes.c_void_p)]
           + [(f"{name}_{axis}", ctypes.c_ssize_t) for axis in axes]]
        + [("work", ctypes.c_void_p)])


def _operand(array, shape):
    """Address and element strides of a float64 view, for a SweepBlock."""
    if array.dtype != np.float64 or array.shape != shape \
            or any(s % array.itemsize for s in array.strides):
        raise ValueError(f"the sweep kernel needs a float64 view of shape "
                         f"{shape}, got {array.dtype} {array.shape}")
    return (array.ctypes.data,
            *(s // array.itemsize for s in array.strides))


def sweep_block(rows, n, nq, d, scheme, h, q, z, carried, normal, faces,
                work, accumulate):
    """The SweepBlock of one call: the arguments of timeloop._Sweep.run,
    plus work and whether to add into the outputs instead of storing."""
    row, inner = (rows, n + 4), (rows, n)
    values = (rows, n, nq, scheme.order == 2, scheme.flux_name == "rusanov",
              accumulate, d, scheme.g, scheme.h_eps,
              *_operand(h, row), *_operand(q, (nq, *row)), *_operand(z, row),
              *_operand(carried, (nq, *inner)), *_operand(normal, inner),
              *_operand(faces, (2, rows)), work.ctypes.data)
    return ctypes.pointer(SweepBlock(*values))


# ----------------------------------------------------------- the tail

# struct tail's code of each friction law.
FRICTION_CODES = {"none": 0, "manning": 1, "darcy_weisbach": 2}
# What swekit_tail_finish and swekit_tail_average return: the state is
# valid; a fault at the cell the block names; or every value is finite
# but some so large that numpy's check must decide.
VALID, NEGATIVE_DEPTH, NON_FINITE, UNDECIDED = range(4)


class TailBlock(ctypes.Structure):
    """struct tail of _native.c: one stage's tail and the scheme."""

    _fields_ = (
        [(name, ctypes.c_ssize_t) for name in
         ("cells", "nq", "friction", "rain", "infiltration", "crust")]
        + [(name, ctypes.c_double) for name in
           ("g", "h_eps", "tolerance", "dt", "rain_dt", "coeff", "ks", "kc",
            "zc", "hf", "dtheta", "crust_term", "imax")]
        + [(name, ctypes.c_void_p) for name in
           ("phi", "cbrt", "speed", "dv", "fields", "out", "v_inf",
            "v_out")]
        + [("cell", ctypes.c_ssize_t), ("h_min", ctypes.c_double),
           ("sup", ctypes.c_double * 2)])


class CompiledTail:
    """The stage tail of _native.c over a timeloop._Workspace: phi,
    cbrt of the new depth and the discharges' magnitude in phi's first
    two floats, and with infiltration the infiltrated depth dv in the
    float after phi.

    A step hands the same arrays to several calls, so the data addresses
    of the last few are kept, with weak references to their arrays.
    """

    def __init__(self, library, work, scheme, infiltration, tolerance):
        self.fields_shape, self.grid_shape = work.shape, work.shape[1:]
        nq = len(self.grid_shape)
        self.nq, self.g, self.cell_area = nq, scheme.g, work.cell_area
        floats = work.full.floats
        self.cbrt = floats[0]
        self.dv = floats[nq + 1] if infiltration else None
        self.block = block = TailBlock(
            cells=floats[0].size, nq=nq, g=scheme.g, h_eps=scheme.h_eps,
            tolerance=tolerance, phi=work.phi.ctypes.data,
            cbrt=self.cbrt.ctypes.data, speed=floats[1].ctypes.data,
            dv=None if self.dv is None else self.dv.ctypes.data)
        self.pointer = ctypes.pointer(block)
        self.soil = None
        self.recent = []
        self.update = library.swekit_tail_update
        self.finish = library.swekit_tail_finish
        self.average_entry = library.swekit_tail_average
        self.speeds_entry = library.swekit_tail_speeds

    def address(self, array, shape):
        """Data address of array, a C-contiguous float64 array of shape."""
        for ref, address in self.recent:
            if ref() is array:
                return address
        if array.dtype != np.float64 or array.shape != shape \
                or not array.flags.c_contiguous:
            raise ValueError(f"the compiled stage tail needs a C-contiguous "
                             f"float64 array of shape {shape}, got "
                             f"{array.dtype} {array.shape}")
        address = array.ctypes.data
        self.recent = [(weakref.ref(array), address)] + self.recent[:3]
        return address

    def _bind_soil(self, params):
        """The block's soil, set once per parameter set."""
        if self.dv is None:
            raise ValueError("the workspace was built without infiltration")
        if params is self.soil:
            return
        block = self.block
        block.ks, block.kc, block.zc = params.ks, params.kc, params.zc
        block.hf, block.dtheta = params.hf, params.dtheta
        block.crust = params.zc != 0.0
        block.crust_term = params.zc / params.kc if block.crust else 0.0
        block.imax = math.inf if params.imax is None else params.imax
        self.soil = params

    def stage(self, fields, out, ga, dt, r, friction):
        """_numpy_tail's work: the new GreenAmptState (or None), the
        infiltrated volume, and the validity check's status."""
        block = self.block
        block.fields = self.address(fields, self.fields_shape)
        block.out = self.address(out, self.fields_shape)
        block.dt = dt
        block.rain = r > 0.0
        block.rain_dt = r * dt
        block.infiltration = ga is not None
        if ga is not None:
            self._bind_soil(ga.params)
            block.v_inf = self.address(ga.v_inf, self.grid_shape)
            v_inf = np.empty(self.grid_shape)
            block.v_out = self.address(v_inf, self.grid_shape)
        self.update(self.pointer)
        infil_vol = 0.0
        if ga is not None:
            infil_vol = float(self.dv.sum()) * self.cell_area
            ga = GreenAmptState(ga.params, v_inf)
        law = friction.law
        block.friction = FRICTION_CODES[law]
        if law == "manning":
            np.cbrt(out[0], out=self.cbrt)
            block.coeff = self.g * friction.coefficient**2 * dt
        elif law == "darcy_weisbach":
            block.coeff = dt * (friction.coefficient / 8.0)
        return ga, infil_vol, self.finish(self.pointer)

    def average(self, fields, new, ga, ga2):
        """_numpy_average's work: the averaged GreenAmptState (or None)
        and the validity check's status."""
        block = self.block
        block.fields = self.address(fields, self.fields_shape)
        block.out = self.address(new, self.fields_shape)
        block.infiltration = ga is not None
        if ga is not None:
            block.v_inf = self.address(ga.v_inf, self.grid_shape)
            block.v_out = self.address(ga2.v_inf, self.grid_shape)
        ga = None if ga is None else GreenAmptState(ga.params, ga2.v_inf)
        return ga, self.average_entry(self.pointer)

    def speeds(self, fields):
        """_wave_speed_sups of fields."""
        self.block.fields = self.address(fields, self.fields_shape)
        self.speeds_entry(self.pointer)
        return self.block.sup[:self.nq]

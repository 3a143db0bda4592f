"""ctypes bindings of the compiled kernels of _native.c that timeloop
runs: the sweep (struct sweep) and the step (struct step, which holds
the stage tail's struct tail), and the Python side of a step.

Each Structure mirrors its C struct member for member. The sweep's
blocks and the step's block are built once per run. CompiledStep.step
sets the step's per-step members and drives swekit_step through its
phases: a Heun step is three foreign calls, cut where numpy still
computes (the infiltrated volume's pairwise sum and np.cbrt), an Euler
step two.
"""

import ctypes
import math

import numpy as np

from . import timeloop
from .boundary import BC_KINDS, SIDES, regime_warning
from .core import State
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


# ------------------------------------------------------------ the step

# struct tail's code of each friction law.
FRICTION_CODES = {"none": 0, "manning": 1, "darcy_weisbach": 2}
# What swekit_step returns: a validity check's status (the state is
# valid; a fault at the cell the tail names; or every value is finite
# but some so large that numpy's check must decide), CUT where numpy
# computes, and DONE.
VALID, NEGATIVE_DEPTH, NON_FINITE, UNDECIDED, CUT, DONE = range(6)
# The phases of struct step.
STAGE1, FINISH1, STAGE2, FINISH2, AVERAGE, SPEEDS = range(6)


class TailBlock(ctypes.Structure):
    """struct tail of _native.c: the stage tail and the scheme."""

    _fields_ = (
        [(name, ctypes.c_ssize_t) for name in
         ("cells", "nq", "friction", "rain", "infiltration", "crust")]
        + [(name, ctypes.c_double) for name in
           ("g", "h_eps", "tolerance", "dt", "rain_dt", "coeff", "ks", "kc",
            "zc", "hf", "dtheta", "crust_term", "imax")]
        + [(name, ctypes.c_void_p) for name in
           ("phi", "cbrt", "speed", "dv", "fields", "out", "v_inf",
            "v_out")]
        + [("cell", ctypes.c_ssize_t), ("h_min", ctypes.c_double)])


class Side(ctypes.Structure):
    """struct side of _native.c: one side's boundary condition."""

    _fields_ = ([(name, ctypes.c_ssize_t) for name in
                 ("kind", "imposed_h", "imposed_q")]
                + [(name, ctypes.c_double) for name in ("depth", "discharge")])

    @classmethod
    def of(cls, bc):
        return cls(BC_KINDS.index(bc.kind), bc.depth is not None,
                   bc.discharge is not None,
                   0.0 if bc.depth is None else bc.depth,
                   0.0 if bc.discharge is None else bc.discharge)


class StepBlock(ctypes.Structure):
    """struct step of _native.c: a step, its workspace and results."""

    _fields_ = (
        [(name, ctypes.c_ssize_t) for name in
         ("nx", "ny", "nq", "cfl", "face_rows")]
        + [("friction_scale", ctypes.c_double), ("sides", Side * 4)]
        + [(name, ctypes.c_void_p) for name in ("ext", "sweep")]
        + [("blocks", ctypes.c_void_p * 2), ("faces", ctypes.c_void_p)]
        + [(name, ctypes.c_ssize_t) for name in
           ("phase", "heun", "infiltration")]
        + [(name, ctypes.c_double) for name in ("dt", "rate")]
        + [(name, ctypes.c_void_p) for name in
           ("state", "stage", "result", "v_inf", "v_stage", "v_result")]
        + [("mismatches", ctypes.c_ssize_t),
           ("mismatch", ctypes.c_ssize_t * 4),
           ("sup", ctypes.c_double * 2), ("boost", ctypes.c_double),
           ("flow", ctypes.c_double * 4), ("tail", TailBlock)])


def _address(array, shape):
    """Data address of array, a C-contiguous float64 array of shape."""
    if array.dtype != np.float64 or array.shape != shape \
            or not array.flags.c_contiguous:
        raise ValueError(f"the compiled step needs a C-contiguous float64 "
                         f"array of shape {shape}, got {array.dtype} "
                         f"{array.shape}")
    return array.ctypes.data


def _new(shape):
    """A new float64 array and its data address, the cheap way."""
    array = np.empty(shape)
    return array, ctypes.addressof(ctypes.c_char.from_buffer(array))


class CompiledStep:
    """swekit_step over a timeloop._Workspace: heun_step's and
    euler_step's work, bit for bit.

    Between its calls numpy sums the infiltrated depth dv (the float
    after phi in the workspace's floats) and writes np.cbrt of the new
    depth into phi's first float (Manning). The step's input, its result
    and their cumulative infiltrated depths are the caller's arrays; the
    next step's input is most often the last result, whose address is
    kept. SPEEDS leaves compute_dt's supremum of the result in the
    block, read by speeds() while that result is the state asked about.
    """

    def __init__(self, library, sweep, work, grid, scheme, bcs,
                 infiltration, tolerance):
        nq = len(grid.shape)
        floats = work.full.floats
        self.shape, self.grid_shape, self.nq = work.shape, grid.shape, nq
        self.g, self.nx, self.ny = scheme.g, grid.nx, grid.ny
        self.cell_area = work.cell_area
        self.stage_out = work.stage
        self.cbrt = floats[0]
        self.dv = floats[nq + 1] if infiltration else None
        # The step's end-face mass fluxes: (stage, direction, side, row).
        self.faces = np.empty((2,) + work.faces.shape)
        self.v_stage = np.empty(grid.shape) if infiltration else None
        tail = TailBlock(
            cells=floats[0].size, nq=nq, g=scheme.g, h_eps=scheme.h_eps,
            tolerance=tolerance, phi=work.phi.ctypes.data,
            cbrt=self.cbrt.ctypes.data, speed=floats[1].ctypes.data,
            dv=None if self.dv is None else self.dv.ctypes.data)
        self.sides = [side for pair in SIDES[:nq] for side in pair]
        self.conditions = [getattr(bcs, side) for side in self.sides]
        self.block = StepBlock(
            nx=grid.nx, ny=grid.ny, nq=nq, cfl=scheme.fixed_dt is None,
            face_rows=work.faces.shape[-1],
            sides=(Side * 4)(*map(Side.of, self.conditions)),
            ext=work.ext.ctypes.data,
            sweep=ctypes.cast(sweep, ctypes.c_void_p).value,
            blocks=(ctypes.c_void_p * 2)(*(
                ctypes.cast(args[0], ctypes.c_void_p).value
                for _, args, _ in work.blocks)),
            faces=self.faces.ctypes.data, stage=work.stage.ctypes.data,
            v_stage=None if self.v_stage is None else self.v_stage.ctypes.data,
            tail=tail)
        self.pointer = ctypes.pointer(self.block)
        self.run = library.swekit_step
        self.input = self.v_input = self.speeds_of = None
        self.friction = self.soil = None

    def _bind_friction(self, friction):
        """The block's friction, set once per parameter set."""
        law = friction.law
        self.block.tail.friction = FRICTION_CODES[law]
        # The coefficient of sources._damping_factor is this times dt.
        self.block.friction_scale = (
            self.g * friction.coefficient**2 if law == "manning"
            else friction.coefficient / 8.0)
        self.manning = law == "manning"
        self.friction = friction

    def _bind_soil(self, ga):
        """The block's soil, set once per parameter set, and the address
        of the step's input cumulative depth."""
        if self.dv is None:
            raise ValueError("the workspace was built without infiltration")
        params = ga.params
        if params is not self.soil:
            tail = self.block.tail
            tail.ks, tail.kc, tail.zc = params.ks, params.kc, params.zc
            tail.hf, tail.dtheta = params.hf, params.dtheta
            tail.crust = params.zc != 0.0
            tail.crust_term = params.zc / params.kc if tail.crust else 0.0
            tail.imax = math.inf if params.imax is None else params.imax
            self.soil = params
        if ga.v_inf is not self.v_input:
            self.v_input = ga.v_inf
            self.block.v_inf = _address(ga.v_inf, self.grid_shape)

    def step(self, state, ga, t, dt, r, ctx, heun):
        """heun_step's work (heun) or euler_step's from state and the
        GreenAmptState ga (or None) at time t, with the rain rate r."""
        block = self.block
        fields = state.fields
        if fields is not self.input:
            self.input = fields
            block.state = _address(fields, self.shape)
        new, block.result = _new(self.shape)
        block.phase, block.heun, block.dt, block.rate = STAGE1, heun, dt, r
        if ctx.friction is not self.friction:
            self._bind_friction(ctx.friction)
        block.infiltration = ga is not None
        if ga is not None:
            self._bind_soil(ga)
            v_new, block.v_result = _new(self.grid_shape)
        infil = [0.0, 0.0]
        try:
            status = self.run(self.pointer)
            while status != DONE:
                phase = block.phase
                out = self.stage_out if heun and phase <= STAGE2 else new
                if status == CUT:
                    if ga is not None:
                        infil[phase // 2] = float(self.dv.sum()) \
                            * self.cell_area
                    if self.manning:
                        np.cbrt(out[0], out=self.cbrt)
                else:
                    # Heun's average is checked at the step's end.
                    self._check(status, out,
                                t + dt if heun and phase > AVERAGE else t)
                status = self.run(self.pointer)
        finally:
            if block.mismatches:
                self._report(ctx.warnings)
        self.input = new
        if block.cfl:
            self.speeds_of = new
        if ga is not None:
            self.v_input = v_new
            block.v_inf = block.v_result
            ga = GreenAmptState(ga.params, v_new)
        block.state = block.result
        rain_vol = r * dt * self.nx * self.ny * self.cell_area if r > 0.0 \
            else 0.0
        if self.nq == 1:
            flow = block.flow
        else:
            flow = [v * dt for k in range(1 + heun)
                    for v in ctx.work.boundary_volumes(self.faces[k])]
        diag = timeloop.StageDiag(rain_vol, infil[0], flow[0], flow[1])
        if heun:
            diag = timeloop._combine_heun_diags(diag, timeloop.StageDiag(
                rain_vol, infil[1], flow[2], flow[3]))
        return State(new), ga, diag

    def _check(self, status, fields, t):
        """The NumericalFault _enforce_validity raises, from the status of
        the step's validity check on fields at time t."""
        if status == UNDECIDED:
            timeloop._check_finite(fields, t)
            return
        tail = self.block.tail
        index = np.unravel_index(tail.cell, self.grid_shape)
        if status == NEGATIVE_DEPTH:
            raise timeloop.NumericalFault(t, index,
                                          f"negative depth {tail.h_min:.3e}")
        raise timeloop.NumericalFault(t, index, "non-finite state")

    def _report(self, warnings):
        """Each regime mismatch the fills counted, as the numpy fills
        report it, and the counts cleared."""
        block = self.block
        for k, (side, bc) in enumerate(zip(self.sides, self.conditions)):
            for _ in range(block.mismatch[k]):
                warnings.append(regime_warning(side, bc))
            block.mismatch[k] = 0
        block.mismatches = 0

    def speeds(self, fields):
        """compute_dt's supremum per direction of fields and _bc_speed's
        speed of the imposed boundary states: from the last step where
        fields is its result, else computed now."""
        block = self.block
        if fields is not self.speeds_of:
            block.result = _address(fields, self.shape)
            block.phase = SPEEDS
            self.run(self.pointer)
            self.speeds_of = fields
        return block.sup[:self.nq], block.boost

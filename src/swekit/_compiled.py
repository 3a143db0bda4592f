"""ctypes bindings of the compiled kernels of _native.c that timeloop
runs: the sweep, over the run's frame (struct frame), one direction at
a time, and the step (struct step), and the Python side of the step,
the compiled time loop, whose statuses _native.c's step section
describes. The step returns to Python only where a fault is raised or
the step taken again (NEGATIVE_DEPTH, NON_FINITE, BAD_DT), and where
the caller sees the run (STEPPED, DONE): a run without on_step is one
foreign call per landing interval.

Each Structure mirrors its C struct member for member.
"""

import ctypes
import functools
import math

import numpy as np

from . import timeloop
from .boundary import BC_KINDS, SIDES, regime_warning
from .core import State
from .sources import GreenAmptState, Hyetograph

# ---------------------------------------------------------- the sweep


class Frame(ctypes.Structure):
    """struct frame of _native.c: the run's frame and scheme;
    swekit_sweep_<level> sweeps one of its directions per call."""

    _fields_ = (
        [(name, ctypes.c_ssize_t) for name in
         ("nx", "ny", "nq", "second_order", "rusanov")]
        + [("spacing", ctypes.c_double * 2)]
        + [(name, ctypes.c_double) for name in ("g", "h_eps")]
        + [(name, ctypes.c_void_p) for name in ("ext", "phi", "faces",
                                                "work")])


def frame(grid, scheme, ext, phi, faces):
    """A pointer to the Frame of a run over timeloop._Workspace's ext,
    phi and faces, each C-contiguous, as _native.c derives its strides.
    Its work is for the caller to set: swekit_sweep_work gives its
    size."""
    nq = len(grid.shape)
    rows = max(grid.nx, grid.ny) if nq == 2 else 1
    return ctypes.pointer(Frame(
        grid.nx, grid.ny, nq, scheme.order == 2,
        scheme.flux_name == "rusanov",
        (ctypes.c_double * 2)(*grid.spacings), scheme.g, scheme.h_eps,
        _address(ext, (nq + 2, *(n + 4 for n in grid.shape))),
        _address(phi, (nq + 1, *grid.shape)),
        _address(faces, (nq, 2, rows))))


# ------------------------------------------------------------ the step

# struct step's code of each friction law.
FRICTION_CODES = {"none": 0, "manning": 1, "darcy_weisbach": 2}
# What swekit_step_<level> returns, and the phases of struct step: where
# the next call starts, a new step or the last one again with half its
# dt, or nothing after the final time.
(VALID, NEGATIVE_DEPTH, NON_FINITE, DONE, STEPPED, BAD_DT) = range(6)
(BEGIN, RETRY, FINISHED) = range(3)


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
    """struct step of _native.c: the run, its workspace and results."""

    _fields_ = (
        [("frame", ctypes.POINTER(Frame))]
        + [(name, ctypes.c_ssize_t) for name in
           ("cells", "friction", "crust")]
        + [(name, ctypes.c_double) for name in
           ("tolerance", "friction_scale", "cell_area", "courant",
            "fixed_dt", "final", "atol", "ks", "kc", "zc", "hf", "dtheta",
            "crust_term", "imax")]
        + [("sides", Side * 4)]
        + [(name, ctypes.c_void_p) for name in
           ("dv", "stage", "v_stage", "landing", "times", "intensities")]
        + [(name, ctypes.c_ssize_t) for name in
           ("landings", "changes", "phase", "heun", "infiltration", "each")]
        + [(name, ctypes.c_double) for name in ("t", "dt", "rate")]
        + [(name, ctypes.c_void_p * 2) for name in ("fields", "v_inf")]
        + [(name, ctypes.c_ssize_t) for name in
           ("current", "next", "passed", "hit", "halvings", "steps",
            "retried", "cell")]
        + [(name, ctypes.c_double) for name in
           ("target", "when", "min_depth", "change_rate", "h_min")]
        + [(name, ctypes.c_double * n) for name, n in
           (("cum", 4), ("infil", 2), ("flow", 4))]
        + [("mismatch", ctypes.c_ssize_t * 4)])


# The members whose offsets _native.c's swekit_layout gives, after each
# mirror's size, in its order.
_LAYOUT = ((Frame, ("spacing", "ext", "work")), (Side, ("depth",)),
           (StepBlock, ("tolerance", "sides", "landings", "t", "fields",
                        "target", "cum", "mismatch")))


def matches(library):
    """Whether the library lays out struct frame, struct side and struct
    step as Frame, Side and StepBlock do: its swekit_layout holds
    their sizes and the offsets of the members _LAYOUT names. Where it
    does not, timeloop runs the numpy twins, and one warning per layout
    is logged."""
    count = ctypes.c_ssize_t.in_dll(library, "swekit_layout").value
    built = tuple((ctypes.c_ssize_t * (count + 1)).in_dll(
        library, "swekit_layout")[1:])
    # A member the mirror lacks has no offset, and matches none.
    mirrored = tuple(value for mirror, members in _LAYOUT
                     for value in (ctypes.sizeof(mirror),
                                   *(getattr(mirror, member).offset
                                     if hasattr(mirror, member) else -1
                                     for member in members)))
    if built != mirrored:
        _refuse(built, mirrored)
    return built == mirrored


@functools.cache
def _refuse(built, mirrored):
    timeloop.LOG.warning(
        "the kernel library's struct layout %s is not the bindings' %s; "
        "running the numpy sweep kernel and the numpy time loop", built,
        mirrored)


def _address(array, shape):
    """Data address of array, a C-contiguous float64 array of shape."""
    if array.dtype != np.float64 or array.shape != shape \
            or not array.flags.c_contiguous:
        raise ValueError(f"the compiled kernels need a C-contiguous "
                         f"float64 array of shape {shape}, got "
                         f"{array.dtype} {array.shape}")
    return array.ctypes.data


def _new(shape):
    """A new float64 array and its data address, the cheap way."""
    array = np.empty(shape)
    return array, ctypes.addressof(ctypes.c_char.from_buffer(array))


class CompiledStep:
    """swekit_step_<level> over a timeloop._Workspace: run_simulation's
    time loop (run), bit for bit that of timeloop._numpy_run, at the
    vector level of the workspace's sweep, which it calls. The workspace
    is not kept: the caller's context lends it to each run.
    """

    def __init__(self, library, level, work, grid, scheme, bcs,
                 infiltration):
        nq = len(grid.shape)
        floats = work.full.floats
        self.shape, self.grid_shape, self.nq = work.shape, grid.shape, nq
        self.g = scheme.g
        self.dv = floats[nq + 1] if infiltration else None
        self.v_stage = np.empty(grid.shape) if infiltration else None
        self.sides = [side for pair in SIDES[:nq] for side in pair]
        self.conditions = [getattr(bcs, side) for side in self.sides]
        self.block = StepBlock(
            frame=work.frame, cells=floats[0].size,
            tolerance=timeloop.NEGATIVE_DEPTH_TOL, cell_area=work.cell_area,
            atol=timeloop._TIME_ATOL,
            sides=(Side * 4)(*map(Side.of, self.conditions)),
            dv=None if self.dv is None else self.dv.ctypes.data,
            stage=work.stage.ctypes.data,
            v_stage=None if self.v_stage is None else self.v_stage.ctypes.data)
        self.pointer = ctypes.pointer(self.block)
        self.entry = getattr(library, f"swekit_step_{level}")
        self.fields = self.v_inf = self.landing = self.hyetograph = None

    def _bind(self, state, ga, ctx):
        """The block's state, a new result, friction and soil, for a run
        from state and the GreenAmptState ga (or None)."""
        block = self.block
        block.fields[0] = _address(state.fields, self.shape)
        result, block.fields[1] = _new(self.shape)
        self.fields = [state.fields, result]
        block.current = block.halvings = block.hit = 0
        law, coefficient = ctx.friction.law, ctx.friction.coefficient
        block.friction = FRICTION_CODES[law]
        # The coefficient of sources._damping_factor is this times dt.
        block.friction_scale = (self.g * coefficient**2 if law == "manning"
                                else coefficient / 8.0)
        block.infiltration = ga is not None
        if ga is None:
            return
        if self.dv is None:
            raise ValueError("the workspace was built without infiltration")
        params = ga.params
        block.ks, block.kc, block.zc = params.ks, params.kc, params.zc
        block.hf, block.dtheta = params.hf, params.dtheta
        block.crust = params.zc != 0.0
        block.crust_term = params.zc / params.kc if block.crust else 0.0
        block.imax = math.inf if params.imax is None else params.imax
        block.v_inf[0] = _address(ga.v_inf, self.grid_shape)
        v_result, block.v_inf[1] = _new(self.grid_shape)
        self.v_inf = [ga.v_inf, v_result]

    def run(self, state, ga, ctx, landing, final_time, min_depth, on_step,
            land):
        """run_simulation's time loop from t = 0 to final_time, from state
        and the GreenAmptState ga (or None), landing on the sorted times
        landing. Calls on_step(t, state, dt) after every step, if given,
        and land(t, state, cum) at every landing, with the ledger's sums
        as a StageDiag. Returns the steps, the retried steps, the last
        step's change rate, the smallest depth seen (from min_depth on)
        and the final GreenAmptState (or None). state's array is the
        first of the two the steps take turns to write."""
        block, scheme = self.block, ctx.scheme
        self._bind(state, ga, ctx)
        self.landing = np.array(landing, dtype=float)
        block.landing, block.landings = self.landing.ctypes.data, len(landing)
        rain = ctx.rain or Hyetograph()
        self.hyetograph = [np.array(rain.times), np.array(rain.intensities)]
        block.times, block.intensities = (a.ctypes.data
                                          for a in self.hyetograph)
        block.changes = len(rain.times)
        block.courant = scheme.cfl_for(self.nq)
        block.fixed_dt = scheme.fixed_dt or 0.0
        block.phase, block.final, block.heun = BEGIN, final_time, \
            scheme.order == 2
        block.each = on_step is not None
        block.t = block.change_rate = 0.0
        block.next = block.passed = block.steps = block.retried = 0
        block.cum[:] = (0.0,) * 4
        block.min_depth = min_depth
        spares = [(self.fields, block.fields, self.shape)]
        if ga is not None:
            spares.append((self.v_inf, block.v_inf, self.grid_shape))
        while self._drive(ctx, scheme.fixed_dt is None) == STEPPED:
            t, current = block.t, block.current
            # The other arrays hold the last state, which on_step may
            # keep, and its infiltrated depth: the next results go into
            # new ones, made after the snapshot's copy, so that the run
            # holds no more arrays than the numpy loop.
            for arrays, _, _ in spares:
                arrays[1 - current] = None
            state = State(self.fields[current])
            if on_step is not None:
                on_step(t, state, block.dt)
            if block.hit:
                land(t, state, timeloop.StageDiag(*block.cum))
            if block.phase == FINISHED:
                break
            for arrays, addresses, shape in spares:
                arrays[1 - current], addresses[1 - current] = _new(shape)
        if ga is not None:
            ga = GreenAmptState(ga.params, self.v_inf[block.current])
        return (block.steps, block.retried, block.change_rate,
                block.min_depth, ga)

    def _drive(self, ctx, retry):
        """Calls the step until it returns STEPPED or DONE, and returns
        that; the fills' regime mismatches go into ctx.warnings, also
        when a fault is raised."""
        block, entry, pointer = self.block, self.entry, self.pointer
        try:
            while True:
                status = entry(pointer)
                if status == STEPPED or status == DONE:
                    return status
                self._settle(status, retry)
        finally:
            if any(block.mismatch):
                self._report(ctx.warnings)

    def _settle(self, status, retry):
        """A fault's status: the numpy loop's NumericalFault, raised, or,
        in a CFL run (retry), a check's, whose step the next call takes
        again with half the dt, at most MAX_STEP_HALVINGS times, as
        timeloop._advance does. BAD_DT is compute_dt's fault at t; a
        check's (NEGATIVE_DEPTH or NON_FINITE) is _enforce_validity's, at
        the time and cell the step placed it."""
        block = self.block
        if status == BAD_DT:
            raise timeloop.NumericalFault(
                block.t, (0,), f"non-positive time step {block.dt}")
        fault = timeloop.NumericalFault(
            block.when, np.unravel_index(block.cell, self.grid_shape),
            f"negative depth {block.h_min:.3e}"
            if status == NEGATIVE_DEPTH else "non-finite state")
        if not retry or block.halvings == timeloop.MAX_STEP_HALVINGS:
            raise fault
        timeloop.LOG.info(timeloop.RETRY_MESSAGE, fault, 0.5 * block.dt)
        block.phase = RETRY

    def _report(self, warnings):
        """Each regime mismatch the fills counted, as the numpy fills
        report it, and the counts cleared."""
        block = self.block
        for k, (side, bc) in enumerate(zip(self.sides, self.conditions)):
            for _ in range(block.mismatch[k]):
                warnings.append(regime_warning(side, bc))
            block.mismatch[k] = 0

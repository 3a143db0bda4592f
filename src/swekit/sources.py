"""Source terms: bed friction, rain, and Green-Ampt infiltration.

Friction is applied semi-implicitly after the convective update of a
stage: the updated discharge is divided by a positive damping factor
built from the pre-step state, which keeps the update unconditionally
stable and never flips the flow direction. Rain and infiltration act
on the depth only.
"""

import bisect
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import G_DEFAULT, H_EPS, Scratch

FRICTION_LAWS = ("none", "manning", "darcy_weisbach")
# Chezy C and Strickler K are accepted as aliases and converted to the
# two implemented laws: f = 8*g/C^2 (Darcy-Weisbach), n = 1/K (Manning).
FRICTION_ALIASES = ("chezy", "strickler")


@dataclass(frozen=True)
class FrictionParams:
    law: str = "none"
    coefficient: float = 0.0

    def __post_init__(self):
        if self.law not in FRICTION_LAWS:
            raise ValueError(
                f"unknown friction law {self.law!r}; choose one of {FRICTION_LAWS}"
                f" (or aliases {FRICTION_ALIASES} via resolve_friction)")
        if self.law != "none" and not self.coefficient > 0.0:
            raise ValueError(f"friction law {self.law!r} needs a positive coefficient")


def resolve_friction(law, coefficient, g=G_DEFAULT):
    """Build FrictionParams, converting the Chezy / Strickler aliases."""
    if law == "chezy":
        if not coefficient > 0.0:
            raise ValueError("chezy coefficient must be positive")
        return FrictionParams("darcy_weisbach", 8.0 * g / coefficient**2)
    if law == "strickler":
        if not coefficient > 0.0:
            raise ValueError("strickler coefficient must be positive")
        return FrictionParams("manning", 1.0 / coefficient)
    return FrictionParams(law, coefficient)


# Scratch four_thirds and the damping factor need, of the grid shape.
FOUR_THIRDS_FLOATS = 3
FRICTION_FLOATS = 1 + FOUR_THIRDS_FLOATS
FRICTION_FLAGS = 1


def four_thirds(h, h_eps, out, work):
    """h^(4/3) into out, from + - * alone in an order _native.c's twin
    keeps: the same bits on any CPU and numpy dispatch, within 2 ulp of
    the exact power over the normal doubles. The steps run on h clipped
    to [h_eps, the largest double], NaN to h_eps, as z_safe does in
    infiltration_capacity: no dry, negative or NaN depth (damping factor
    1) warns, and inf gives inf. r ~ h^(-1/3) starts within 3.5 % from
    fdlibm's seed, 0x553EF0FF less a third of h's high word w (2**52 + w
    is w ORed into 2**52's bits); three Newton steps r (4 - h r^3) / 3
    take it within 3e-10. Then y = h r^2, y + (h - y^3) r^2 / 3, and h y.
    work: FOUR_THIRDS_FLOATS float buffers of h's shape, apart from out.
    """
    safe, r, t = work
    np.fmax(h, h_eps, out=safe)
    np.fmin(safe, np.finfo(float).max, out=safe)
    seed = r.view(np.uint64)
    np.right_shift(safe.view(np.uint64), 32, out=seed)
    np.bitwise_or(seed, 0x4330000000000000, out=seed)
    np.multiply(r, 1.0 / 3.0, out=r)
    np.subtract(2.0**52 + 0x553EF0FF + 2.0**52 / 3, r, out=r)
    np.left_shift(seed, 32, out=seed)
    for _ in range(3):
        np.multiply(safe, r, out=t)
        np.multiply(t, r, out=t)
        np.multiply(t, r, out=t)
        np.subtract(4.0, t, out=t)
        np.multiply(r, t, out=r)
        np.multiply(r, 1.0 / 3.0, out=r)
    np.multiply(r, r, out=r)
    y = np.multiply(safe, r, out=out)
    np.multiply(y, y, out=t)
    np.multiply(t, y, out=t)
    np.subtract(safe, t, out=t)
    np.multiply(t, r, out=t)
    np.multiply(t, 1.0 / 3.0, out=t)
    np.add(y, t, out=y)
    return np.multiply(h, y, out=out)


def _damping_factor(q_n, h_n, h_np1, params, dt, g, h_eps, work):
    """Factor D >= 1 such that q_new = q_star / D, with |q^n| the norm
    of the tuple q_n.

    Manning:          D = 1 + g n^2 dt |q^n| / (h^n (h^{n+1})^{4/3})
    Darcy-Weisbach:   D = 1 + dt (f/8) |q^n| / (h^n h^{n+1})

    Without friction, and in cells dry at either time level, D = 1
    (their discharge is zeroed by the dry convention elsewhere). work,
    if given, is a Scratch with FRICTION_FLOATS floats and
    FRICTION_FLAGS flags of the grid shape; the factor is then one of
    its buffers.
    """
    if params.law == "none":
        return np.ones_like(np.asarray(h_np1, dtype=float))
    shape = None
    if work is None:
        shape = np.broadcast(*q_n, h_n, h_np1).shape
        # Scalars run as one-element arrays, so the buffers are views.
        work = Scratch.empty(shape or (1,), FRICTION_FLOATS, FRICTION_FLAGS)
    denom, term, spare = work.floats[:3]
    wet = work.flags[0]
    if params.law == "manning":
        # h^n (h^{n+1})^{4/3}, in the scratch after denom first.
        four_thirds(h_np1, h_eps, denom, work.floats[1:])
        np.multiply(h_n, denom, out=denom)
        coeff = g * params.coefficient**2 * dt
    else:  # darcy_weisbach: h^n h^{n+1}
        np.multiply(h_n, h_np1, out=denom)
        coeff = dt * (params.coefficient / 8.0)
    # |q^n|: |q| in 1D, sqrt(qx*qx + qy*qy) in 2D as the paper writes it
    # (not hypot: the squares overflow to inf where |q| exceeds about
    # 1.3e154 and lose bits below about 1.5e-154).
    if len(q_n) == 1:
        np.abs(q_n[0], out=term)
    else:
        np.multiply(q_n[0], q_n[0], out=term)
        np.multiply(q_n[1], q_n[1], out=spare)
        np.add(term, spare, out=term)
        np.sqrt(term, out=term)
    # Wet at both levels: the smaller depth exceeds h_eps (NaN is dry).
    np.minimum(h_n, h_np1, out=spare)
    np.greater(spare, h_eps, out=wet)
    np.multiply(term, coeff, out=term)
    # Only wet cells divide; the rest keep D = 1.
    np.divide(term, denom, out=term, where=wet)
    factor = denom
    factor[...] = 1.0
    np.add(term, 1.0, out=factor, where=wet)
    return factor if shape is None else factor.reshape(shape)


def friction_semi_implicit(q_star, q_n, h_n, h_np1, params, dt, g=G_DEFAULT,
                           h_eps=H_EPS, out=None, work=None):
    """Apply friction to a 1D discharge after the convective update.

    q_star is the post-convection discharge, (h_n, q_n) the state the
    stage started from, h_np1 the post-convection depth. The depth is
    not modified by friction. out (which may be q_star) and work (see
    _damping_factor) are optional buffers.
    """
    factor = _damping_factor((q_n,), h_n, h_np1, params, dt, g, h_eps, work)
    return np.divide(q_star, factor, out=out)


def friction_semi_implicit_2d(qx_star, qy_star, qx_n, qy_n, h_n, h_np1,
                              params, dt, g=G_DEFAULT, h_eps=H_EPS,
                              out=(None, None), work=None):
    """2D variant: one scalar damping factor from |q^n| for both components."""
    factor = _damping_factor((qx_n, qy_n), h_n, h_np1, params, dt, g, h_eps,
                             work)
    return (np.divide(qx_star, factor, out=out[0]),
            np.divide(qy_star, factor, out=out[1]))


@dataclass(frozen=True)
class Hyetograph:
    """Piecewise-constant rain intensity [m/s] over time.

    times must be strictly increasing; the rate before the first entry
    is zero and each entry holds until the next one.
    """

    times: tuple = ()
    intensities: tuple = ()

    def __post_init__(self):
        times = tuple(float(t) for t in self.times)
        intensities = tuple(float(i) for i in self.intensities)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "intensities", intensities)
        if len(times) != len(intensities):
            raise ValueError("hyetograph needs one intensity per time")
        if any(math.isnan(t) for t in times) \
                or any(t1 <= t0 for t0, t1 in zip(times, times[1:])):
            raise ValueError("hyetograph times must be strictly increasing")
        if any(i < 0.0 for i in intensities):
            raise ValueError("rain intensities must be nonnegative")

    def rate(self, t):
        # bisect on the tuple: np.searchsorted would convert it first.
        idx = bisect.bisect_right(self.times, t) - 1
        return self.intensities[idx] if idx >= 0 else 0.0


def rain_rate(t, hyetograph):
    """Rain intensity [m/s] at time t; zero without a hyetograph."""
    if hyetograph is None:
        return 0.0
    return hyetograph.rate(t)


@dataclass(frozen=True)
class GreenAmptParams:
    """Two-layer Green-Ampt soil parameters (uniform or per cell).

    ks: saturated conductivity of the soil [m/s] (the whole column
        when zc == 0, the layer below the crust otherwise)
    kc: saturated conductivity of the crust layer on top [m/s]
    zc: crust thickness [m]; 0 selects the single-layer model
    hf: wetting-front suction head [m]
    dtheta: saturated minus initial water content [-], in (0, 1]
    imax: optional cap on the infiltration rate [m/s]; None caps at
          whatever water is available during the step
    """

    ks: float
    kc: float = 0.0
    zc: float = 0.0
    hf: float = 0.0
    dtheta: float = 1.0
    imax: Optional[float] = None

    def __post_init__(self):
        if not self.ks > 0.0:
            raise ValueError("ks must be positive")
        if self.zc < 0.0:
            raise ValueError("zc must be nonnegative")
        if self.zc > 0.0 and not self.kc > 0.0:
            raise ValueError("a crust of nonzero thickness needs kc > 0")
        if not 0.0 < self.dtheta <= 1.0:
            raise ValueError("dtheta must lie in (0, 1]")
        if self.hf < 0.0:
            raise ValueError("hf must be nonnegative")
        if self.imax is not None and self.imax < 0.0:
            raise ValueError("imax must be nonnegative")


@dataclass
class GreenAmptState:
    """Infiltration state: cumulative infiltrated depth per cell [m]."""

    params: GreenAmptParams
    v_inf: np.ndarray

    @classmethod
    def zeros(cls, params, shape):
        return cls(params, np.zeros(shape))


# Scratch the Green-Ampt functions need, of the grid shape.
CONDUCTIVITY_FLOATS = 2
CONDUCTIVITY_FLAGS = 1
INFILTRATION_FLOATS = 4
INFILTRATION_FLAGS = 2


def effective_conductivity(params, z_front, out=None, work=None):
    """Harmonic-mean conductivity of the wetted column of depth z_front.

    Single layer (zc == 0) gives ks; a front inside the crust gives kc;
    once the front passes the crust the two layers act in series.
    work, if given, is a Scratch with CONDUCTIVITY_FLOATS floats and
    CONDUCTIVITY_FLAGS flags of z_front's shape; the result is then out
    or, if out is None, work.floats[1].
    """
    z_front = np.asarray(z_front, dtype=float)
    shape = None
    if work is None:
        shape = z_front.shape
        # Scalars run as one-element arrays, so the buffers are views.
        work = Scratch.empty(shape or (1,), CONDUCTIVITY_FLOATS,
                             CONDUCTIVITY_FLAGS)
    z_safe, den = work.floats[:2]
    flag = work.flags[0]
    if out is None:
        out = den
    if params.zc == 0.0:
        out[...] = params.ks
    else:
        np.greater(z_front, 0.0, out=flag)
        z_safe[...] = 1.0
        np.copyto(z_safe, z_front, where=flag)
        # z_safe / ((z_safe - zc) / ks + zc / kc), then kc in the crust.
        np.subtract(z_safe, params.zc, out=den)
        np.divide(den, params.ks, out=den)
        np.add(den, params.zc / params.kc, out=den)
        np.divide(z_safe, den, out=out)
        np.less_equal(z_front, params.zc, out=flag)
        np.copyto(out, params.kc, where=flag)
    return out if shape is None else out.reshape(shape)


def infiltration_capacity(params, v_inf, h_surface, out=None, work=None):
    """Potential infiltration rate I_C [m/s] for ponded depth h_surface.

    I_C = K (1 + (hf + h_surface) / z_front) with z_front = v_inf/dtheta.
    An unstarted front (v_inf == 0) has unbounded capacity, returned as
    inf and meant to be clipped by the per-step limiter. work, if given,
    is a Scratch with INFILTRATION_FLOATS floats and INFILTRATION_FLAGS
    flags of the broadcast shape; the result is then out or, if out is
    None, work.floats[1].
    """
    v_inf = np.asarray(v_inf, dtype=float)
    h_surface = np.asarray(h_surface, dtype=float)
    shape = None
    if work is None:
        shape = np.broadcast(v_inf, h_surface).shape
        work = Scratch.empty(shape or (1,), INFILTRATION_FLOATS,
                             INFILTRATION_FLAGS)
    z_front, z_safe, term, k = work.floats[:4]
    started = work.flags[0]
    np.divide(v_inf, params.dtheta, out=z_front)
    np.greater(z_front, 0.0, out=started)
    z_safe[...] = 1.0
    np.copyto(z_safe, z_front, where=started)
    # 1 + (hf + h_surface) / z_safe first: z_safe's buffer is then the
    # conductivity's scratch, and K lands in k.
    np.add(params.hf, h_surface, out=term)
    np.divide(term, z_safe, out=term)
    np.add(1.0, term, out=term)
    effective_conductivity(params, z_front, out=k,
                           work=Scratch(work.floats[1:4:2], work.flags[1:]))
    if out is None:
        out = z_safe
    out[...] = np.inf
    np.multiply(k, term, out=out, where=started)
    return out if shape is None else out.reshape(shape)


def infiltration_step(state, h_surface, dt, work=None):
    """Water removed from the surface during dt, per cell.

    Returns (delta_v, new_state): delta_v = min(h_surface, I*dt) with
    I = min(I_C, imax); the cap defaults to draining at most the water
    present this step. The cumulative depth v_inf grows by delta_v.
    work (see infiltration_capacity), if given, holds delta_v on return
    in work.floats[0]; new_state.v_inf is always a new array.
    """
    h_surface = np.asarray(h_surface, dtype=float)
    if dt <= 0.0:
        return np.zeros_like(h_surface), state
    params = state.params
    shape = None
    if work is None:
        shape = np.broadcast(state.v_inf, h_surface).shape
        work = Scratch.empty(shape or (1,), INFILTRATION_FLOATS,
                             INFILTRATION_FLAGS)
    capacity = infiltration_capacity(params, state.v_inf, h_surface,
                                     work=work)
    if params.imax is not None:
        np.minimum(capacity, params.imax, out=capacity)
    # rate = min(capacity, h / dt); delta_v = max(min(h, rate * dt), 0).
    delta_v = work.floats[0]
    np.divide(h_surface, dt, out=delta_v)
    np.minimum(capacity, delta_v, out=delta_v)
    np.multiply(delta_v, dt, out=delta_v)
    np.minimum(h_surface, delta_v, out=delta_v)
    np.maximum(delta_v, 0.0, out=delta_v)
    if shape is not None:
        delta_v = delta_v.reshape(shape)
    return delta_v, GreenAmptState(params, state.v_inf + delta_v)

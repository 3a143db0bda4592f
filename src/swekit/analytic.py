"""Reference solutions for validating the solver.

Closed forms: still lake over arbitrary topography, the dry dam break
(instantaneous release onto a dry horizontal bed), and the planar
rotation of water in a paraboloid bowl. tests/test_analytic.py checks
each formula against the governing equations with finite-difference
residuals before it is trusted as an oracle.

Steady benchmarks are produced the other way around: prescribe a depth
profile and a discharge, then integrate the steady momentum balance for
the matching topography, so the pair is an exact steady solution by
construction.
"""

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .core import G_DEFAULT, H_EPS
from .sources import FrictionParams

# --------------------------------------------------------- containers


@dataclass(frozen=True)
class ReferenceProfile1D:
    """Sampled reference solution along a 1D channel."""

    name: str
    time: float
    x: np.ndarray
    h: np.ndarray
    q: np.ndarray
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if np.min(self.h) < 0.0:
            raise ValueError("reference depths must be nonnegative")
        q = np.where(self.h > H_EPS, self.q, 0.0)
        object.__setattr__(self, "q", q)


@dataclass(frozen=True)
class ReferenceProfile2D:
    """Sampled reference solution on a rectangular grid."""

    name: str
    time: float
    x: np.ndarray
    y: np.ndarray
    h: np.ndarray
    qx: np.ndarray
    qy: np.ndarray
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if np.min(self.h) < 0.0:
            raise ValueError("reference depths must be nonnegative")
        wet = self.h > H_EPS
        object.__setattr__(self, "qx", np.where(wet, self.qx, 0.0))
        object.__setattr__(self, "qy", np.where(wet, self.qy, 0.0))


# ------------------------------------------------------- lake at rest


def lake_at_rest_profile(x, topography, surface_level):
    """Still water at a given surface elevation: h = max(eta - z, 0)."""
    z = np.asarray(topography, dtype=float)
    h = np.maximum(surface_level - z, 0.0)
    return ReferenceProfile1D("lake_at_rest", 0.0, np.asarray(x, dtype=float),
                              h, np.zeros_like(h),
                              {"surface_level": surface_level})


# ---------------------------------------------------- dry dam break


def ritter_profile(x, t, h_left, x_dam, g=G_DEFAULT):
    """Instantaneous dam break onto a dry bed (flat, frictionless).

    Three zones at time t > 0: undisturbed lake for x < x_dam - c0 t,
    a rarefaction fan down to the dry front at x_dam + 2 c0 t, and dry
    bed beyond, with c0 = sqrt(g h_left). At t = 0 the initial step is
    returned.
    """
    if h_left <= 0.0:
        raise ValueError("h_left must be positive")
    x = np.asarray(x, dtype=float)
    c0 = math.sqrt(g * h_left)
    if t == 0.0:
        h = np.where(x < x_dam, h_left, 0.0)
        return ReferenceProfile1D("ritter", 0.0, x, h, np.zeros_like(h),
                                  {"h_left": h_left, "x_dam": x_dam, "g": g})
    xi = (x - x_dam) / t
    fan_h = (2.0 * c0 - xi) ** 2 / (9.0 * g)
    fan_u = 2.0 / 3.0 * (xi + c0)
    in_lake = xi <= -c0
    in_fan = (~in_lake) & (xi < 2.0 * c0)
    h = np.where(in_lake, h_left, np.where(in_fan, fan_h, 0.0))
    u = np.where(in_fan, fan_u, 0.0)
    return ReferenceProfile1D("ritter", t, x, h, h * u,
                              {"h_left": h_left, "x_dam": x_dam, "g": g})


def ritter_front_position(t, h_left, x_dam, g=G_DEFAULT):
    """Location of the advancing dry front: x_dam + 2 t sqrt(g h_left)."""
    return x_dam + 2.0 * t * math.sqrt(g * h_left)


def wet_front_position(x, h, threshold=1e-6):
    """Rightmost position where the depth exceeds the threshold."""
    wet = np.asarray(h) > threshold
    if not wet.any():
        return float(np.asarray(x)[0])
    return float(np.asarray(x)[np.flatnonzero(wet)[-1]])


def extrapolated_front_position(x, h, depth_scale, band=(0.02, 0.2)):
    """Rightward wet-dry front located by extrapolating sqrt(h) to zero.

    A front fed by a rarefaction has a depth profile that vanishes
    quadratically, so sqrt(h) is a straight line in x near the front.
    Fitting that line over a band of depths well above the numerical
    fringe and intersecting it with zero gives a front estimate that the
    thin tail dragged past the front by upwind dissipation cannot skew,
    unlike a last-wet-cell scan.

    band gives the fitting window as (low, high) fractions of
    depth_scale (the undisturbed upstream depth). Falls back to
    wet_front_position when the window holds fewer than two cells or the
    fitted line does not slope downward.
    """
    x = np.asarray(x, dtype=float)
    h = np.asarray(h, dtype=float)
    sel = (h > band[0] * depth_scale) & (h < band[1] * depth_scale)
    idx = np.flatnonzero(sel)
    if len(idx) >= 2:
        # Keep only the contiguous run nearest the front so a
        # non-monotone profile elsewhere cannot pollute the fit.
        breaks = np.flatnonzero(np.diff(idx) > 1)
        if len(breaks):
            idx = idx[breaks[-1] + 1:]
    if len(idx) >= 2:
        slope, intercept = np.polyfit(x[idx], np.sqrt(h[idx]), 1)
        if slope < 0.0:
            return float(-intercept / slope)
    return wet_front_position(x, h)


# ----------------------------------------------- rotating paraboloid


@dataclass(frozen=True)
class ThackerParams:
    """Planar rotation of water inside a paraboloid bowl.

    a: still-water wet radius, h0: still-water center depth, eta: offset
    of the rotating wet disk; (cx, cy) locate the bowl in the domain.
    The free surface stays planar and rotates at omega = sqrt(2 g h0)/a;
    velocities are spatially uniform over the wet disk.
    """

    a: float = 1.0
    h0: float = 0.1
    eta: float = 0.5
    cx: float = 2.0
    cy: float = 2.0
    g: float = G_DEFAULT

    @property
    def omega(self):
        return math.sqrt(2.0 * self.g * self.h0) / self.a

    @property
    def period(self):
        return 2.0 * math.pi / self.omega


def thacker_bowl(params, x, y):
    """Bowl elevation, shifted so its lowest point sits at z = 0."""
    r2 = (np.asarray(x) - params.cx) ** 2 + (np.asarray(y) - params.cy) ** 2
    return params.h0 * r2 / params.a ** 2


def thacker_depth(params, x, y, t):
    """Water depth of the rotating planar surface (0 where dry)."""
    wt = params.omega * t
    dx = np.asarray(x) - params.cx - params.eta * np.cos(wt)
    dy = np.asarray(y) - params.cy - params.eta * np.sin(wt)
    h = params.h0 * (1.0 - (dx * dx + dy * dy) / params.a ** 2)
    return np.maximum(h, 0.0)


def thacker_velocity(params, t):
    """Spatially uniform wet-region velocity (u, v) at time t."""
    wt = params.omega * t
    return (-params.eta * params.omega * math.sin(wt),
            params.eta * params.omega * math.cos(wt))


def thacker_planar_profile(params, x, y, t):
    """Full 2D reference state on a meshgrid of cell centers."""
    xx, yy = np.meshgrid(np.asarray(x, dtype=float),
                         np.asarray(y, dtype=float))
    h = thacker_depth(params, xx, yy, t)
    u, v = thacker_velocity(params, t)
    return ReferenceProfile2D("thacker_planar", t, xx, yy, h, h * u, h * v,
                              {"a": params.a, "h0": params.h0,
                               "eta": params.eta})


# --------------------------------------- steady benchmark generation


def friction_slope(h, q, friction, g=G_DEFAULT):
    """Energy slope S_f of a friction law for given depth/discharge."""
    h = np.asarray(h, dtype=float)
    q = np.asarray(q, dtype=float)
    if friction.law == "manning":
        n = friction.coefficient
        return n * n * q * np.abs(q) / h ** (10.0 / 3.0)
    if friction.law == "darcy_weisbach":
        f = friction.coefficient
        return f * q * np.abs(q) / (8.0 * g * h ** 3)
    return np.zeros_like(h)


@dataclass(frozen=True)
class SteadyProfile1D:
    """A designed steady state: depth profile + discharge + friction.

    The matching topography comes from macdonald_topography; together
    they form an exact steady solution. shocks lists x positions where
    the depth jumps (the profile supplies the jump values).
    """

    name: str
    length: float
    q0: float
    rain: float
    friction: FrictionParams
    h: Callable
    dh: Callable
    shocks: tuple = ()
    params: dict = field(default_factory=dict)

    def discharge(self, x):
        return self.q0 + self.rain * np.asarray(x, dtype=float)


def _gauss_segments(breaks, order):
    nodes, weights = np.polynomial.legendre.leggauss(order)
    a = breaks[:-1]
    b = breaks[1:]
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    pts = mid[:, None] + half[:, None] * nodes[None, :]
    wts = half[:, None] * weights[None, :]
    return pts, wts


def macdonald_topography(h_profile, q0, rain, friction, x, g=G_DEFAULT,
                         dh_profile=None, shocks=(), order=12):
    """Topography making (h_profile, q0 + rain*x) an exact steady state.

    Integrates the slope demanded by the steady momentum balance,
        z'(x) = (q^2/(g h^3) - 1) h'(x) - S_f - 2 q rain / (g h^2),
    from 0 to each sample position with per-segment Gauss-Legendre
    quadrature, splitting segments at declared shock positions (z is
    continuous there; only h jumps). The result is shifted so its
    minimum is zero. h' falls back to central differences when no
    derivative is supplied.
    """
    x = np.asarray(x, dtype=float)
    if np.any(np.diff(x) <= 0.0):
        raise ValueError("sample positions must be strictly increasing")

    if dh_profile is None:
        def dh_profile(s, _h=h_profile):
            step = 1e-6 * np.maximum(np.abs(s), 1.0)
            return (_h(s + step) - _h(s - step)) / (2.0 * step)

    def slope(s):
        h = np.asarray(h_profile(s), dtype=float)
        if np.any(h <= 0.0):
            raise ValueError("depth profile must be positive everywhere")
        q = q0 + rain * s
        sf = friction_slope(h, q, friction, g)
        conv = (q * q / (g * h ** 3) - 1.0) * np.asarray(dh_profile(s),
                                                         dtype=float)
        extra = 2.0 * q * rain / (g * h * h) if rain else 0.0
        return conv - sf - extra

    breaks = np.unique(np.concatenate((
        [0.0] if x[0] > 0.0 else [], x,
        [s for s in shocks if 0.0 < s < x[-1]])))
    pts, wts = _gauss_segments(breaks, order)
    segment_integrals = np.sum(slope(pts.ravel()).reshape(pts.shape) * wts,
                               axis=1)
    z_at_breaks = np.concatenate(([0.0], np.cumsum(segment_integrals)))
    z = np.interp(x, breaks, z_at_breaks)
    return z - np.min(z)


def conjugate_depth(h_upstream, q, g=G_DEFAULT):
    """Depth across a stationary hydraulic jump (same momentum flux)."""
    fr2 = q * q / (g * h_upstream ** 3)
    return 0.5 * h_upstream * (math.sqrt(1.0 + 8.0 * fr2) - 1.0)


def macdonald_shock_profile(length=100.0, discharge=2.0, n_manning=0.0328,
                            shock_x=200.0 / 3.0, crest_x=40.0, g=G_DEFAULT):
    """Steady channel flow passing through critical depth and a jump.

    Upstream of the shock the depth follows a tanh profile through the
    critical depth at crest_x (subcritical inflow turning
    supercritical); at shock_x it jumps to the conjugate depth and
    rises gently (sin^2) to the subcritical outlet.
    """
    h_crit = (discharge * discharge / g) ** (1.0 / 3.0)
    amp = 0.35
    rate = 4.0 / length

    def h_up(s):
        return h_crit * (1.0 + amp * np.tanh(rate * (crest_x - s)))

    def dh_up(s):
        th = np.tanh(rate * (crest_x - s))
        return -h_crit * amp * rate * (1.0 - th * th)

    h_plus = conjugate_depth(float(h_up(shock_x)), discharge, g)
    rise = 0.05
    span = length - shock_x

    def h_down(s):
        phase = 0.5 * np.pi * (s - shock_x) / span
        return h_plus + rise * np.sin(phase) ** 2

    def dh_down(s):
        phase = np.pi * (s - shock_x) / span
        return rise * 0.5 * np.pi / span * np.sin(phase)

    def h(s):
        s = np.asarray(s, dtype=float)
        return np.where(s < shock_x, h_up(s), h_down(s))

    def dh(s):
        s = np.asarray(s, dtype=float)
        return np.where(s < shock_x, dh_up(s), dh_down(s))

    friction = FrictionParams("manning", n_manning)
    return SteadyProfile1D(
        "macdonald_shock", length, discharge, 0.0, friction, h, dh,
        shocks=(shock_x,),
        params={"h_critical": h_crit, "h_before_shock": float(h_up(shock_x)),
                "h_after_shock": h_plus, "shock_x": shock_x,
                "outlet_depth": h_plus + rise})


def macdonald_rain_profile(length=1000.0, q0=2.5, f_darcy=0.065, rain=0.001,
                           g=G_DEFAULT):
    """Supercritical channel fed by rain: q grows linearly downstream.

    The depth follows a gentle sine bump, supercritical over the whole
    reach for the given inflow and rain, so both boundary values are
    imposed upstream and the outlet is free.
    """
    base, amp = 0.5, 0.06

    def h(s):
        return base + amp * np.sin(np.pi * np.asarray(s, dtype=float) / length)

    def dh(s):
        return amp * np.pi / length * np.cos(np.pi * np.asarray(s, dtype=float)
                                             / length)

    friction = FrictionParams("darcy_weisbach", f_darcy)
    return SteadyProfile1D(
        "macdonald_rain", length, q0, rain, friction, h, dh,
        params={"inlet_depth": base, "rain": rain})


# --------------------------------------------------------- error norms


def error_norms(computed, reference, exclude=None):
    """Cell-averaged L1, L2 (RMS) and Linf of (computed - reference).

    exclude, if given, is a boolean mask of cells to drop (e.g. a
    window around a declared shock).
    """
    err = np.asarray(computed, dtype=float) - np.asarray(reference,
                                                         dtype=float)
    if exclude is not None:
        err = err[~np.asarray(exclude)]
    if err.size == 0:
        raise ValueError("no cells left after exclusion")
    abs_err = np.abs(err)
    return {"l1": float(np.mean(abs_err)),
            "l2": float(np.sqrt(np.mean(err * err))),
            "linf": float(np.max(abs_err))}


def convergence_order(error_coarse, error_fine, refinement=2.0):
    """Empirical order from errors at two resolutions."""
    if error_fine <= 0.0 or error_coarse <= 0.0:
        raise ValueError("errors must be positive to estimate an order")
    return math.log(error_coarse / error_fine) / math.log(refinement)


def fit_plane(x, y, values, mask=None):
    """Least-squares plane a + b x + c y; returns (coeffs, max residual)."""
    x = np.asarray(x, dtype=float).ravel()
    y = np.asarray(y, dtype=float).ravel()
    v = np.asarray(values, dtype=float).ravel()
    if mask is not None:
        keep = np.asarray(mask).ravel()
        x, y, v = x[keep], y[keep], v[keep]
    if v.size < 3:
        raise ValueError("need at least three points to fit a plane")
    basis = np.column_stack((np.ones_like(x), x, y))
    coeffs, _, _, _ = np.linalg.lstsq(basis, v, rcond=None)
    residual = float(np.max(np.abs(v - basis @ coeffs)))
    return coeffs, residual

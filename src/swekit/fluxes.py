"""Numerical interface fluxes for the 1D shallow-water system.

Both solvers take the two reconstructed states (hL, qL) and (hR, qR)
that meet at an interface and return the numerical flux (f_h, f_q).
The sweep kernel runs them on the two sides stacked in one array,
minus side first, so each paired formula is one ufunc call over
preallocated buffers (hll_sides, rusanov_sides), with the scheme's
dry threshold h_eps; hll_flux and rusanov_flux are elementwise entry
points over the same code, with the default H_EPS, and accept scalars
or arrays of interface values.
"""

import numpy as np

from .core import G_DEFAULT, H_EPS, Scratch, velocity

# Scratch a stacked-sides solver needs: floats and flags of face shape.
SIDES_FLOATS = 8
SIDES_FLAGS = 3


def _side_waves(hq, g, h_eps, work):
    """Characteristic speeds and physical momentum flux of stacked sides.

    hq is (2, 3, ...): per side the depth, the discharge, and a slot
    that receives the momentum flux q*u + g*h^2/2. A side with
    h <= h_eps is dry: its velocity u is zero. Returns the speeds
    u - sqrt(g*h) and u + sqrt(g*h) per side, as views into work.
    """
    h, q = hq[:, 0], hq[:, 1]
    u, c = work.floats[0:2], work.floats[2:4]
    velocity(h, q, h_eps, out=u, wet=work.flags[0:2])
    np.maximum(h, 0.0, out=c)
    np.multiply(c, g, out=c)
    np.sqrt(c, out=c)
    slow = np.subtract(u, c, out=work.floats[4:6])
    fast = np.add(u, c, out=work.floats[6:8])
    momentum = hq[:, 2]
    np.multiply(q, u, out=momentum)
    np.multiply(h, h, out=c)
    np.multiply(c, 0.5 * g, out=c)
    np.add(momentum, c, out=momentum)
    return slow, fast


def hll_sides(hq, g, h_eps, out, work):
    """Two-wave approximate Riemann flux of stacked sides.

    Upwinds fully when all waves travel one way (0 <= c1 picks the left
    flux, c2 <= 0 the right flux, both compared exactly) and otherwise
    blends the two physical fluxes with a dissipation term proportional
    to the state jump. A dry-dry interface yields a zero flux.

    hq: (2, 3, ...) per side (h, q, momentum-flux slot); h_eps: the dry
    threshold; out: (2, ...) receives (f_h, f_q); work: Scratch with
    SIDES_FLOATS floats and SIDES_FLAGS flags of the face shape.
    """
    slow, fast = _side_waves(hq, g, h_eps, work)
    # (c2, c1) side by side, to scale the (left, right) fluxes in one call.
    speeds = work.floats[4:6]
    c2, c1 = speeds
    np.minimum(slow[0], slow[1], out=c1)
    np.maximum(fast[0], fast[1], out=c2)
    left_going, right_going, spread_positive = work.flags[:3]
    np.greater_equal(c1, 0.0, out=left_going)
    np.less_equal(c2, 0.0, out=right_going)

    spread = np.subtract(c2, c1, out=fast[0])
    np.greater(spread, 0.0, out=spread_positive)
    inv = fast[1]
    inv[...] = 1.0
    np.divide(1.0, spread, out=inv, where=spread_positive)
    weight = np.multiply(c1, c2, out=spread)
    np.multiply(weight, inv, out=weight)
    np.multiply(speeds, inv, out=speeds)

    # Physical fluxes (q, q*u + g*h^2/2) and states (h, q) per side:
    # (c2/(c2-c1) F_l - c1/(c2-c1) F_r) + weight (W_r - W_l).
    fluxes = hq[:, 1:]
    scaled = work.floats[:4].reshape((2, 2) + out.shape[1:])
    np.multiply(fluxes, speeds[:, None], out=scaled)
    np.subtract(scaled[0], scaled[1], out=out)
    jump = scaled[0]
    np.subtract(hq[1, :2], hq[0, :2], out=jump)
    np.multiply(jump, weight, out=jump)
    np.add(out, jump, out=out)
    np.copyto(out, fluxes[1], where=right_going)
    np.copyto(out, fluxes[0], where=left_going)
    return out


def rusanov_sides(hq, g, h_eps, out, work):
    """Central flux with local Lax-Friedrichs dissipation, stacked sides.

    More diffusive than hll_sides but with the same contract; the
    dissipation speed is the largest |eigenvalue| of either state.
    """
    slow, fast = _side_waves(hq, g, h_eps, work)
    np.abs(slow, out=slow)
    np.abs(fast, out=fast)
    np.maximum(slow, fast, out=slow)
    speed = np.maximum(slow[0], slow[1], out=slow[0])
    np.add(hq[0, 1:], hq[1, 1:], out=out)
    np.multiply(out, 0.5, out=out)
    np.multiply(speed, 0.5, out=speed)
    jump = fast
    np.subtract(hq[1, :2], hq[0, :2], out=jump)
    np.multiply(jump, speed, out=jump)
    np.subtract(out, jump, out=out)
    return out


def _pointwise(solver, h_left, q_left, h_right, q_right, g):
    states = np.broadcast_arrays(
        *(np.asarray(a, dtype=float) for a in (h_left, q_left, h_right, q_right)))
    shape = states[0].shape
    faces = (states[0].size,)
    hq = np.empty((2, 3) + faces)
    hq[0, 0], hq[0, 1], hq[1, 0], hq[1, 1] = (a.reshape(faces) for a in states)
    out = np.empty((2,) + faces)
    solver(hq, g, H_EPS, out, Scratch.empty(faces, SIDES_FLOATS, SIDES_FLAGS))
    return out[0].reshape(shape), out[1].reshape(shape)


def hll_flux(h_left, q_left, h_right, q_right, g=G_DEFAULT):
    """HLL flux (f_h, f_q) between two states; see hll_sides."""
    return _pointwise(hll_sides, h_left, q_left, h_right, q_right, g)


def rusanov_flux(h_left, q_left, h_right, q_right, g=G_DEFAULT):
    """Rusanov flux (f_h, f_q) between two states; see rusanov_sides."""
    return _pointwise(rusanov_sides, h_left, q_left, h_right, q_right, g)


def transverse_component(f_mass, v_left, v_right, out=None, flag=None):
    """Transverse momentum flux carried by the mass flux f_mass.

    v is the velocity transverse to the interface (a y sweep passes its
    u). It is upwinded by the sign of the mass flux, FullSWOF's rule:
    v_left where f_mass > 0, else v_right, so a mirrored problem, whose
    flux has the other sign, carries the mirrored v. out (a float buffer
    not aliasing the inputs) and flag (a bool buffer) are optional, of
    the result's shape.
    """
    if out is None:
        out = np.empty(np.broadcast(f_mass, v_left, v_right).shape)
    upwind_left = np.greater(f_mass, 0.0, out=flag)
    np.copyto(out, v_right)
    np.copyto(out, v_left, where=upwind_left)
    np.multiply(f_mass, out, out=out)
    return out


# Stacked-sides Riemann solvers by scheme name; the sweep kernel calls
# them through this table.
FLUX_FUNCTIONS = {"hll": hll_sides, "rusanov": rusanov_sides}

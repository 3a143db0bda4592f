"""Second-order reconstruction and topography treatment at interfaces.

The solver reconstructs h, the velocity u, and the free surface h + z
cell by cell (the topography trace is recovered as the difference), then
applies the hydrostatic modification that clips interface depths against
the higher of the two topography traces. Together with the interface
pressure corrections and the centered correction below this keeps every
lake-at-rest state, including ones with emerged bottom, exactly steady.
"""

import numpy as np

from .core import G_DEFAULT, Scratch


def minmod(a, b):
    """Slope limiter: 0 on sign change, otherwise the smaller magnitude.

    The sign test is a*b <= 0, so a product that underflows to zero
    also limits to zero.
    """
    a, b = np.broadcast_arrays(np.asarray(a, dtype=float),
                               np.asarray(b, dtype=float))
    shape = a.shape
    a, b = a.reshape(-1), b.reshape(-1)
    out = np.empty(a.shape)
    _minmod_into(a, b, np.abs(a), np.abs(b), np.empty(a.shape, dtype=bool),
                 out)
    return out.reshape(shape)


def _minmod_into(a, b, abs_a, abs_b, same_sign, out):
    """minmod(a, b) into out, given |a| and |b|; same_sign: bool buffer.

    Computed as copysign(min(|a|, |b|) * [a*b > 0], a) + 0: equal to the
    rule above for finite inputs, ties included (they share a's sign),
    and a zero result is +0. It avoids masked copies, whose cost grows
    tenfold when the mask changes from cell to cell.
    """
    np.multiply(a, b, out=out)
    np.greater(out, 0.0, out=same_sign)
    np.minimum(abs_a, abs_b, out=out)
    np.multiply(out, same_sign, out=out)
    np.copysign(out, a, out=out)
    np.add(out, 0.0, out=out)
    return out


def muscl_slopes(values, dx, out=None, work=None):
    """Limited slope per cell from the two adjacent divided differences.

    Cells at the ends of the sequence (the last axis) have no neighbor
    on one side and get a zero slope. out (C-contiguous, values' shape)
    and work (a Scratch with 2 floats and 1 flag of shape
    (values.size,)) are optional buffers.
    """
    v = np.ascontiguousarray(values, dtype=float)
    if out is not None and not out.flags.c_contiguous:
        raise ValueError("muscl_slopes needs a C-contiguous out array")
    slopes = np.zeros_like(v) if out is None else out
    m = v.shape[-1]
    if m < 3:
        slopes[...] = 0.0
        return slopes
    # One pass over the flattened array: the differences that straddle
    # two sequences only reach their end cells, which are reset below.
    flat, size = v.reshape(-1), v.size
    if work is None:
        work = Scratch.empty((size,), 2, 1)
    d, abs_d = work.floats[0, :size - 1], work.floats[1, :size - 1]
    np.subtract(flat[1:], flat[:-1], out=d)
    np.divide(d, dx, out=d)
    np.abs(d, out=abs_d)
    _minmod_into(d[:-1], d[1:], abs_d[:-1], abs_d[1:],
                 work.flags[0, :size - 2], slopes.reshape(-1)[1:-1])
    slopes[..., ::m - 1] = 0.0
    return slopes


def hydrostatic_reconstruct(h_minus, z_minus, u_minus, h_plus, z_plus, u_plus):
    """Interface states seen by the Riemann solver across a topography step.

    Each side keeps its velocity but its depth is measured from the
    higher of the two topography traces and clipped at zero, so a wall
    higher than the water column blocks the interface entirely.
    Returns (h_left, q_left, h_right, q_right).
    """
    hm, zm, um, hp, zp, up = np.broadcast_arrays(
        *(np.asarray(a, dtype=float)
          for a in (h_minus, z_minus, u_minus, h_plus, z_plus, u_plus)))
    out = np.empty((2, 2) + hm.shape)
    hydrostatic_sides(np.stack((hm, hp)), np.stack((zm, zp)),
                      np.stack((um, up)), out, np.empty(hm.shape))
    return out[0, 0], out[0, 1], out[1, 0], out[1, 1]


def hydrostatic_sides(h, z, u, out, z_face):
    """hydrostatic_reconstruct on traces stacked as (minus, plus) sides.

    h, z and u have shape (2, ...). Writes the face bed max(z_minus,
    z_plus) into z_face, the clipped depths into out[:, 0] and the
    discharges into out[:, 1]; out has shape (2, 2, ...).
    """
    np.maximum(z[0], z[1], out=z_face)
    depth = out[:, 0]
    np.add(h, z, out=depth)
    np.subtract(depth, z_face, out=depth)
    np.maximum(depth, 0.0, out=depth)
    np.multiply(depth, u, out=out[:, 1])
    return out


def interface_pressure_correction(h_trace, h_reconstructed, g=G_DEFAULT,
                                  out=None, work=None):
    """Momentum flux correction (g/2)(h_trace^2 - h_reconstructed^2).

    Added to the momentum component of the interface flux on the side
    whose depth was clipped by hydrostatic_reconstruct; restores the
    hydrostatic force of the blocked part of the column. out (which may
    be h_trace itself) and work are optional float buffers of the
    result's shape.
    """
    if out is None or work is None:
        shape = np.broadcast(h_trace, h_reconstructed).shape
        out = np.empty(shape) if out is None else out
        work = np.empty(shape) if work is None else work
    square = np.multiply(h_reconstructed, h_reconstructed, out=work)
    np.multiply(h_trace, h_trace, out=out)
    np.subtract(out, square, out=out)
    np.multiply(out, 0.5 * g, out=out)
    return out


def centered_correction(h_at_left_face, h_at_right_face, z_at_left_face,
                        z_at_right_face, g=G_DEFAULT, out=None, work=None):
    """Momentum source balancing the in-cell topography variation.

    Uses the cell's own traces at its two faces:
    -(g/2) (h_left + h_right) (z_right - z_left). Zero whenever the
    reconstructed topography is flat inside the cell, which covers the
    whole first-order mode. out and work are optional float buffers of
    the result's shape.
    """
    if out is None or work is None:
        shape = np.broadcast(h_at_left_face, h_at_right_face, z_at_left_face,
                             z_at_right_face).shape
        out = np.empty(shape) if out is None else out
        work = np.empty(shape) if work is None else work
    np.add(h_at_left_face, h_at_right_face, out=out)
    np.multiply(out, -0.5 * g, out=out)
    z_jump = np.subtract(z_at_right_face, z_at_left_face, out=work)
    np.multiply(out, z_jump, out=out)
    return out

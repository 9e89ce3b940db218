"""Pure-numpy stencil kernels for the two-complex-dimension solver.

Grids are 4d arrays over the real axes (x1, y1, x2, y2).  Outputs are
full-shape arrays whose one-cell boundary ring is left at zero; only
interior values are meaningful.  The C kernels (kernels.native) provide
the same two entry points with identical signatures; these are their
reference semantics.
"""

from __future__ import annotations

import numpy as np

from ..grid import _cross_diff, _second_diff

IMPL = "numpy"


def hessian_fields(u: np.ndarray, h) -> tuple:
    """Complex-Hessian entry fields of a real 4d grid function.

    Returns (h11, h22, hre, him): the two diagonal entries, and the real
    and imaginary parts of the (1,2) entry, from central differences.
    """
    u = np.ascontiguousarray(u, dtype=np.float64)
    h = np.asarray(h, dtype=float)
    core = (slice(1, -1),) * 4
    h11 = np.zeros_like(u)
    h22 = np.zeros_like(u)
    hre = np.zeros_like(u)
    him = np.zeros_like(u)
    h11[core] = 0.25 * (_second_diff(u, 0, h[0]) + _second_diff(u, 1, h[1]))
    h22[core] = 0.25 * (_second_diff(u, 2, h[2]) + _second_diff(u, 3, h[3]))
    hre[core] = 0.25 * (_cross_diff(u, 0, 2, h[0], h[2]) + _cross_diff(u, 1, 3, h[1], h[3]))
    him[core] = 0.25 * (_cross_diff(u, 0, 3, h[0], h[3]) - _cross_diff(u, 1, 2, h[1], h[2]))
    return h11, h22, hre, him


def apply_linearization(p11, p22, p12, q12, v, h) -> np.ndarray:
    """Trace of (inverse Hessian) times (complex Hessian of v), pointwise.

    out = 1/4 [p11 (v_x1x1 + v_y1y1) + p22 (v_x2x2 + v_y2y2)
               + 2 p12 (v_x1x2 + v_y1y2)] + 1/2 q12 (v_x1y2 - v_y1x2)
    on the interior; the boundary ring of out stays zero.
    """
    v = np.ascontiguousarray(v, dtype=np.float64)
    h = np.asarray(h, dtype=float)
    core = (slice(1, -1),) * 4
    out = np.zeros_like(v)
    out[core] = (
        0.25 * (p11[core] * (_second_diff(v, 0, h[0]) + _second_diff(v, 1, h[1]))
                + p22[core] * (_second_diff(v, 2, h[2]) + _second_diff(v, 3, h[3]))
                + 2.0 * p12[core] * (_cross_diff(v, 0, 2, h[0], h[2])
                                     + _cross_diff(v, 1, 3, h[1], h[3])))
        + 0.5 * q12[core] * (_cross_diff(v, 0, 3, h[0], h[3])
                             - _cross_diff(v, 1, 2, h[1], h[2])))
    return out

"""Pure-numpy stencil kernels: the FD complex Hessian and the linearized
apply, for any complex dimension n.  They are the reference semantics of
the C kernels (kernels.native), and run when C does not build.

Grid functions are 2n-d arrays over the real axes (x1, y1, ..., xn, yn).
Hessian and coefficient fields share one real order, the coef order:
a^{ii} for i = 1..n, then Re a^{ij} and Im a^{ij} for each pair i < j in
row order (itertools.combinations).  `hessian_interior` and
`apply_interior` cover the interior nodes and write into arrays the
caller owns, which may be strided views such as the interior of a full
grid.  C sums in the same order, so with power-of-two spacings the two
agree bit for bit.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np

from ..grid import _cross_diff, _second_diff

IMPL = "numpy"


def _laplacian(u, i, h):
    """u_{x_i x_i} + u_{y_i y_i} over the interior (4 u_{i ibar})."""
    return _second_diff(u, 2 * i, h[2 * i]) + _second_diff(u, 2 * i + 1, h[2 * i + 1])


def _cross_re(u, i, j, h):
    """u_{x_i x_j} + u_{y_i y_j} over the interior (4 Re u_{i jbar})."""
    xi, yi, xj, yj = 2 * i, 2 * i + 1, 2 * j, 2 * j + 1
    return (_cross_diff(u, xi, xj, h[xi], h[xj])
            + _cross_diff(u, yi, yj, h[yi], h[yj]))


def _cross_im(u, i, j, h):
    """u_{x_i y_j} - u_{y_i x_j} over the interior (4 Im u_{i jbar})."""
    xi, yi, xj, yj = 2 * i, 2 * i + 1, 2 * j, 2 * j + 1
    return (_cross_diff(u, xi, yj, h[xi], h[yj])
            - _cross_diff(u, yi, xj, h[yi], h[xj]))


def hessian_interior(u: np.ndarray, h, out) -> None:
    """Write the interior FD complex-Hessian fields of a real 2n-d grid
    function into `out`, n * n interior arrays in coef order, one field
    at a time to bound memory."""
    h = np.asarray(h, dtype=float)
    n = u.ndim // 2
    for i in range(n):
        np.multiply(0.25, _laplacian(u, i, h), out=out[i])
    for k, (i, j) in enumerate(combinations(range(n), 2)):
        np.multiply(0.25, _cross_re(u, i, j, h), out=out[n + 2 * k])
        np.multiply(0.25, _cross_im(u, i, j, h), out=out[n + 2 * k + 1])


def apply_interior(coef, v: np.ndarray, h, out: np.ndarray) -> None:
    """Write the interior of sum a^{ij} v_{ij} into `out`, for interior
    coefficient fields in coef order, summed in place as 1/4 [sum a^{ii}
    lap_i + 2 sum Re a^{ij} cre_ij] + 1/2 sum Im a^{ij} cim_ij, the order
    of the C kernel."""
    h = np.asarray(h, dtype=float)
    n = v.ndim // 2
    np.multiply(coef[0], _laplacian(v, 0, h), out=out)
    for i in range(1, n):
        out += coef[i] * _laplacian(v, i, h)
    for c, (i, j) in zip(coef[n::2], combinations(range(n), 2)):
        out += 2.0 * c * _cross_re(v, i, j, h)
    out *= 0.25
    for c, (i, j) in zip(coef[n + 1::2], combinations(range(n), 2)):
        out += 0.5 * c * _cross_im(v, i, j, h)

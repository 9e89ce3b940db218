"""Pure-numpy stencil kernels: the FD complex Hessian and the linearized
apply, for any complex dimension n.  They are the reference semantics of
the C kernels (kernels.native), and run when C does not build.

Grid functions are 2n-d arrays over the real axes (x1, y1, ..., xn, yn).
Hessian and coefficient fields share one real order, the coef order:
a^{ii} for i = 1..n, then Re a^{ij} and Im a^{ij} for each pair i < j in
row order (itertools.combinations).  `hessian_interior` and
`apply_interior` work on interior arrays and are the only numpy version
of the two formulas.  `hessian_fields` and `apply_linearization` are the
n = 2 entry points on full 4d grids with a zero ring.  C sums in the same
order, so with power-of-two spacings the two agree bit for bit.
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


def hessian_interior(u: np.ndarray, h):
    """Yield the interior FD complex-Hessian fields of a real 2n-d grid
    function in coef order, one at a time to bound memory."""
    h = np.asarray(h, dtype=float)
    n = u.ndim // 2
    for i in range(n):
        yield 0.25 * _laplacian(u, i, h)
    for i, j in combinations(range(n), 2):
        yield 0.25 * _cross_re(u, i, j, h)
        yield 0.25 * _cross_im(u, i, j, h)


def apply_interior(coef, v: np.ndarray, h) -> np.ndarray:
    """Interior of sum a^{ij} v_{ij}, for interior coefficient fields in
    coef order, summed as 1/4 [sum a^{ii} lap_i + 2 sum Re a^{ij} cre_ij]
    + 1/2 sum Im a^{ij} cim_ij, the order of the C kernel."""
    h = np.asarray(h, dtype=float)
    n = v.ndim // 2
    acc = coef[0] * _laplacian(v, 0, h)
    for i in range(1, n):
        acc += coef[i] * _laplacian(v, i, h)
    for c, (i, j) in zip(coef[n::2], combinations(range(n), 2)):
        acc += 2.0 * c * _cross_re(v, i, j, h)
    acc *= 0.25
    for c, (i, j) in zip(coef[n + 1::2], combinations(range(n), 2)):
        acc += 0.5 * c * _cross_im(v, i, j, h)
    return acc


_CORE = (slice(1, -1),) * 4


def hessian_fields(u: np.ndarray, h) -> tuple:
    """Complex-Hessian entry fields (h11, h22, hre, him) of a real 4d grid
    function, as full grids with a zero ring."""
    u = np.ascontiguousarray(u, dtype=np.float64)
    out = tuple(np.zeros_like(u) for _ in range(4))
    for full, core in zip(out, hessian_interior(u, h)):
        full[_CORE] = core
    return out


def apply_linearization(p11, p22, p12, q12, v, h) -> np.ndarray:
    """Trace of (inverse Hessian) times (complex Hessian of v), pointwise.

    out = 1/4 [p11 (v_x1x1 + v_y1y1) + p22 (v_x2x2 + v_y2y2)
               + 2 p12 (v_x1x2 + v_y1y2)] + 1/2 q12 (v_x1y2 - v_y1x2)
    on the interior; the boundary ring of out stays zero.
    """
    v = np.ascontiguousarray(v, dtype=np.float64)
    out = np.zeros_like(v)
    out[_CORE] = apply_interior(tuple(p[_CORE] for p in (p11, p22, p12, q12)), v, h)
    return out

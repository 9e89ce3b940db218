"""Pure-numpy stencil kernels: the FD complex Hessian, its determinant
and inverse behind a positive-definiteness guard, and the linearized
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

`det_interior` and `inverse_interior` factor the Hessian field-wise
(`_ldlh`): every entry of the factor is a whole interior array, and the
loops run over the n(n+1)/2 entries, not over the nodes.  C factors
node by node in real arithmetic, in the same order.  Where numpy fuses a
multiply and an add in a product of two complex fields, as it does on
x86-64 with FMA, the two round apart by a few units in the last place;
such products first occur at n = 3, so for n <= 2 they agree bit for
bit.
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


def _ldlh(fields, n, shift=0.0):
    """Field-wise LDL^H factorization H - shift I = L diag(d) L^H.

    `fields` are the coef-order entry fields of the Hermitian matrix
    field H.  Every entry is a whole array: the loops run over the
    n(n+1)/2 entries, not over the nodes.  Returns (L, d): L[i][j] is
    the complex field of the unit lower factor for j < i, d the n real
    pivot fields.  A node that is not PD gets a pivot <= 0 or nan;
    the warnings this raises on its way are suppressed.
    """
    upper = {pair: k for k, pair in enumerate(combinations(range(n), 2))}
    L = [[None] * n for _ in range(n)]
    d = []
    with np.errstate(all="ignore"):
        for j in range(n):
            dj = fields[j] - shift
            for k in range(j):
                dj = dj - (L[j][k].real ** 2 + L[j][k].imag ** 2) * d[k]
            d.append(dj)
            for i in range(j + 1, n):
                k = n + 2 * upper[(j, i)]
                s = fields[k] - 1j * fields[k + 1]   # H_ij = conj(H_ji)
                for m in range(j):
                    s = s - L[i][m] * L[j][m].conj() * d[m]
                L[i][j] = s / dj
    return L, d


def _inverse_coef(L, d):
    """Coef-order fields of H^{-1} = M^H diag(1/d) M, M = L^{-1}, from the
    factors of `_ldlh`: a^{ij} = sum over k of conj(M_ki) M_kj / d_k."""
    n = len(d)
    M = [[None] * n for _ in range(n)]
    for j in range(n):
        for i in range(j + 1, n):
            # forward substitution: M_ij = -sum over j <= k < i of L_ik M_kj
            s = -L[i][j]
            for k in range(j + 1, i):
                s = s - L[i][k] * M[k][j]
            M[i][j] = s
    inv_d = [1.0 / dk for dk in d]
    coef = []
    for i in range(n):
        a = inv_d[i].copy()
        for k in range(i + 1, n):
            a += (M[k][i].real ** 2 + M[k][i].imag ** 2) * inv_d[k]
        coef.append(a)
    for i, j in combinations(range(n), 2):
        a = M[j][i].conj() * inv_d[j]
        for k in range(j + 1, n):
            a += M[k][i].conj() * M[k][j] * inv_d[k]
        coef += [np.ascontiguousarray(a.real), np.ascontiguousarray(a.imag)]
    return tuple(coef)


def _margin_ok(fields, n, guard):
    """Nodes whose smallest eigenvalue exceeds `guard`: every pivot of
    H - guard I is positive there (a nan pivot fails)."""
    return np.logical_and.reduce([p > 0 for p in _ldlh(fields, n, guard)[1]])


def _guarded_factors(u, h, guard):
    """(first failing node, factors of the Hessian): the flat C-order
    interior index of the first node that fails the guard and None, or
    -1 and the `_ldlh` factors of the interior FD complex Hessian of u."""
    n = u.ndim // 2
    fields = tuple(np.empty(tuple(s - 2 for s in u.shape)) for _ in range(n * n))
    hessian_interior(u, h, fields)
    ok = _margin_ok(fields, n, guard)
    if not np.all(ok):
        return int(np.argmin(ok)), None
    return -1, _ldlh(fields, n)


def det_interior(u: np.ndarray, h, guard: float, out: np.ndarray) -> int:
    """Write det of the interior FD complex Hessian of u into `out`, the
    product of the pivots of `_ldlh` in order.  Returns the flat C-order
    interior index of the first node whose smallest eigenvalue is not
    above `guard` (some pivot of H - guard I is not > 0), or -1.  After a
    failure the contents of `out` are unspecified."""
    bad, factors = _guarded_factors(u, h, guard)
    if factors is not None:
        d = factors[1]
        np.copyto(out, d[0])
        for p in d[1:]:
            out *= p
    return bad


def inverse_interior(u: np.ndarray, h, guard: float, coef_out) -> int:
    """Write the inverse of the interior FD complex Hessian of u into
    `coef_out`, n * n interior arrays in coef order (`_inverse_coef`);
    the first failing node as `det_interior` reports it, or -1."""
    bad, factors = _guarded_factors(u, h, guard)
    if factors is not None:
        for o, c in zip(coef_out, _inverse_coef(*factors)):
            np.copyto(o, c)
    return bad

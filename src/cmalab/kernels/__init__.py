"""Stencil kernels: compiled C if it builds here, numpy fallback otherwise.

The FD complex Hessian and the linearized apply v -> sum a^{ij} v_{ij},
for every complex dimension n, on fields in one real order, the coef
order: a^{ii} for i = 1..n, then Re a^{ij} and Im a^{ij} for each pair
i < j.  Each implementation has four entry points.  They read a full
2n-d grid and write its interior nodes into arrays the caller owns,
which may be strided views such as the interior of a full grid:

- `hessian_interior(u, h, out)`: the n * n Hessian fields;
- `apply_interior(coef, v, h, out)`: the apply;
- `det_interior(u, h, guard, out)`: det of the Hessian;
- `inverse_interior(u, h, guard, coef_out)`: the n * n coef-order
  fields of its inverse.

The last two check at every node that the Hessian's smallest eigenvalue
exceeds `guard` (every pivot of the LDL^H factorization of
H - guard I is > 0; nan fails), then factor H and write their one
output.  They return the flat C-order interior index of the first node
that fails the guard, or -1.  The C kernel does this in one pass over
the grid, node by node, with no whole-array temporaries.
kernels.fallback is the numpy reference of all four.

`hessian_fields` and `apply_linearization`, the n = 2 entry points on
full 4d grids with a zero ring, are defined here once for both
implementations: each allocates zero full grids and hands their
interior views to the active implementation.

On first import the C kernels (stencil.c) are built with the system
compiler into a per-user cache and loaded with ctypes; see
kernels.native.  IMPL names the active implementation ("c" or
"numpy"); FALLBACK_REASON says why numpy was selected, and is None when
C is active.  Callers look the functions up on this module at call
time, so the selection holds everywhere.
"""

import numpy as np

from . import fallback, native

try:
    _impl = native.load()
    FALLBACK_REASON = None
except native.KernelBuildError as exc:
    _impl = fallback
    FALLBACK_REASON = str(exc)

IMPL = _impl.IMPL
hessian_interior = _impl.hessian_interior
apply_interior = _impl.apply_interior
det_interior = _impl.det_interior
inverse_interior = _impl.inverse_interior


def _interior(a):
    """The view of every node of a full grid off its boundary ring."""
    a = np.asarray(a)
    return a[(slice(1, -1),) * a.ndim]


def hessian_fields(u, h) -> tuple:
    """Complex-Hessian entry fields (h11, h22, hre, him) of a real 4d grid
    function, as full grids with a zero ring."""
    out = tuple(np.zeros(np.shape(u)) for _ in range(4))
    _impl.hessian_interior(u, h, tuple(_interior(f) for f in out))
    return out


def apply_linearization(p11, p22, p12, q12, v, h) -> np.ndarray:
    """Trace of (inverse Hessian) times (complex Hessian of v), pointwise:

    out = 1/4 [p11 (v_x1x1 + v_y1y1) + p22 (v_x2x2 + v_y2y2)
               + 2 p12 (v_x1x2 + v_y1y2)] + 1/2 q12 (v_x1y2 - v_y1x2)

    on the interior of full 4d grids; the ring of out is zero."""
    out = np.zeros(np.shape(v))
    _impl.apply_interior(tuple(_interior(c) for c in (p11, p22, p12, q12)), v, h,
                         _interior(out))
    return out


__all__ = ["IMPL", "FALLBACK_REASON", "hessian_fields", "apply_linearization",
           "hessian_interior", "apply_interior", "det_interior",
           "inverse_interior", "fallback"]

"""Stencil kernels: compiled C if it builds here, numpy fallback otherwise.

Two formulas, the FD complex Hessian and the linearized apply
v -> sum a^{ij} v_{ij}, for every complex dimension n, on fields in one
real order, the coef order: a^{ii} for i = 1..n, then Re a^{ij} and
Im a^{ij} for each pair i < j.  `hessian_interior` and `apply_interior`
work on interior arrays of any n; `hessian_fields` and
`apply_linearization` are the n = 2 entry points on full 4d grids with
a zero ring.  kernels.fallback holds the numpy reference of all four.

On first import the C kernels (stencil.c) are built with the system
compiler into a per-user cache and loaded with ctypes; see
kernels.native.  One C loop per formula serves all four entry points.
Set CMA_LAB_FORCE_FALLBACK=1 to skip them (used by the benchmark and by
tests that compare the two implementations).  IMPL names the active
implementation ("c" or "numpy"); FALLBACK_REASON says why numpy was
selected, and is None when C is active.  Callers look the functions up
on this module at call time, so the selection holds everywhere.
"""

import os

from . import fallback, native

if os.environ.get("CMA_LAB_FORCE_FALLBACK"):
    _impl = fallback
    FALLBACK_REASON = "forced by CMA_LAB_FORCE_FALLBACK"
else:
    try:
        _impl = native.load()
        FALLBACK_REASON = None
    except native.KernelBuildError as exc:
        _impl = fallback
        FALLBACK_REASON = str(exc)

IMPL = _impl.IMPL
hessian_fields = _impl.hessian_fields
apply_linearization = _impl.apply_linearization
hessian_interior = _impl.hessian_interior
apply_interior = _impl.apply_interior

__all__ = ["IMPL", "FALLBACK_REASON", "hessian_fields", "apply_linearization",
           "hessian_interior", "apply_interior", "fallback"]

"""Closed-form solution families of the complex Monge-Ampere equation.

Five families are supported (z denotes the leading complex coordinates,
w the last one; t = |w|^2):

* pogorelov2   (C^2):    u_eps = 2 (1 + |z|^2) (t + eps)^(1/2)
* pogorelov_n  (C^m, m>=3):  u_eps = (1 + sum |z_i|^2) (t + eps)^(1/m)
* theorem_v    (C^n):    v = n^(2/n) (1 + sum_{i<n} |z_i|^2) |z_n|^(2/n)
* degenerate   (C^n):    u = n^(2/n) (sum_{i<n} |z_i|^2) |z_n|^(2/n)
* blocki       (C^n):    u = (1 + |z_1|^2) (sum_{i>=2} |z_i|^2)^(1 - 1/n)

The pogorelov families carry analytic complex Hessians and closed-form
determinants; all exponents of pogorelov_n use 1/m (the only convention
under which Hessian, limit and determinant are mutually consistent).
Every evaluator accepts a single point (2m reals) or an (..., 2m) array;
eval_value and eval_rhs also accept the open grid of `grid.sample`, a
tuple of 2m arrays where array a varies along axis a only, and return
a result that broadcasts to the grid's shape.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, SingularPoint, UnsupportedFamily
from .hermitian import HermitianForm, herm_det

__all__ = ["SolutionFamily", "KINDS", "eval_value", "eval_analytic_hessian",
           "eval_rhs", "verify_identity"]

KINDS = ("pogorelov2", "pogorelov_n", "theorem_v", "degenerate", "blocki")


@dataclass(frozen=True)
class SolutionFamily:
    kind: str
    dim: int
    eps: float = 0.0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown family kind {self.kind!r}")
        if not (np.isfinite(self.eps) and self.eps >= 0):
            raise ValueError(f"eps must be finite and nonnegative, got {self.eps!r}")
        if self.kind == "pogorelov2" and self.dim != 2:
            raise ValueError("pogorelov2 lives in C^2")
        if self.kind == "pogorelov_n" and self.dim < 3:
            raise ValueError("pogorelov_n needs ambient dimension m = n+1 >= 3")
        if self.kind in ("theorem_v", "degenerate", "blocki") and self.dim < 2:
            raise ValueError(f"{self.kind} needs dimension >= 2")

    @property
    def singular_exponent(self) -> float:
        """Power of |w| (or of the singular radius) in the eps = 0 limit."""
        if self.kind == "pogorelov2":
            return 1.0
        if self.kind == "pogorelov_n":
            return 2.0 / self.dim
        if self.kind in ("theorem_v", "degenerate"):
            return 2.0 / self.dim
        return 2.0 * (1.0 - 1.0 / self.dim)

    def value(self, pts):
        return eval_value(self, pts)

    def to_dict(self) -> dict:
        return {"kind": self.kind, "dim": self.dim, "eps": self.eps}


def _is_open_grid(pts) -> bool:
    """True for a tuple of k >= 2 arrays of ndim k, array a longer than 1
    only on axis a."""
    return (isinstance(pts, tuple) and len(pts) >= 2 and all(
        isinstance(g, np.ndarray) and g.ndim == len(pts)
        and all(s == 1 for b, s in enumerate(g.shape) if b != a)
        for a, g in enumerate(pts)))


def _squared_moduli(f: SolutionFamily, pts):
    """The m squared moduli |z_i|^2 of pts, each spanning only the axes it
    depends on (0-d arrays for a single point), and whether pts is one point."""
    grid = _is_open_grid(pts)
    a = None if grid else np.asarray(pts, dtype=float)
    count = len(pts) if grid else a.shape[-1]
    if count != 2 * f.dim:
        raise DimensionMismatch(f"expected {2 * f.dim} real coordinates, got {count}")
    if grid:
        return [x * x + y * y for x, y in zip(pts[0::2], pts[1::2])], False
    x = a[..., 0::2]
    y = a[..., 1::2]
    mod2 = x * x + y * y
    return [mod2[..., i] for i in range(f.dim)], a.ndim == 1


def _sum(terms):
    """Left-to-right sum, as np.sum adds a short last axis; like np.sum it
    turns a single point's 0-d arrays into a numpy scalar."""
    out = terms[0][()]
    for t in terms[1:]:
        out = out + t
    return out


def eval_value(f: SolutionFamily, pts):
    """Closed-form value; accepts a point, an (..., 2m) array or an open grid."""
    mod2, single = _squared_moduli(f, pts)
    t = mod2[-1]
    if f.kind == "pogorelov2":
        out = 2.0 * (1.0 + mod2[0]) * np.sqrt(t + f.eps)
    elif f.kind == "pogorelov_n":
        out = (1.0 + _sum(mod2[:-1])) * (t + f.eps) ** (1.0 / f.dim)
    elif f.kind == "theorem_v":
        n = f.dim
        out = n ** (2.0 / n) * (1.0 + _sum(mod2[:-1])) * t ** (1.0 / n)
    elif f.kind == "degenerate":
        n = f.dim
        out = n ** (2.0 / n) * _sum(mod2[:-1]) * t ** (1.0 / n)
    else:  # blocki
        n = f.dim
        out = (1.0 + mod2[0]) * _sum(mod2[1:]) ** (1.0 - 1.0 / n)
    return float(out) if single else out


def _require_regular(f: SolutionFamily, t) -> None:
    if f.eps == 0.0 and np.any(t == 0.0):
        raise SingularPoint("eps = 0 and the last coordinate vanishes")


def eval_analytic_hessian(f: SolutionFamily, pt) -> HermitianForm:
    """Paper-supplied complex Hessian; pogorelov kinds only."""
    a = np.asarray(pt, dtype=float)
    mod2, single = _squared_moduli(f, a)
    if not single:
        raise ValueError("analytic Hessian is a single-point evaluator")
    t = float(mod2[-1])
    z = a[0::2] + 1j * a[1::2]
    w = z[-1]
    if f.kind == "pogorelov2":
        _require_regular(f, t)
        s = np.sqrt(t + f.eps)
        h = np.empty((2, 2), dtype=complex)
        h[0, 0] = 2.0 * s
        h[0, 1] = np.conj(z[0]) * w / s
        h[1, 0] = np.conj(h[0, 1])
        h[1, 1] = 0.5 * (1.0 + mod2[0]) * (t + 2.0 * f.eps) / s**3
        return HermitianForm(h)
    if f.kind == "pogorelov_n":
        _require_regular(f, t)
        m = f.dim
        s = t + f.eps
        h = np.zeros((m, m), dtype=complex)
        for i in range(m - 1):
            h[i, i] = s ** (1.0 / m)
            h[i, m - 1] = np.conj(z[i]) * w / m * s ** (-(m - 1.0) / m)
            h[m - 1, i] = np.conj(h[i, m - 1])
        zsum = float(_sum(mod2[:-1]))
        h[m - 1, m - 1] = (1.0 + zsum) * (t + m * f.eps) / (m * m) * s ** (-(2.0 * m - 1.0) / m)
        return HermitianForm(h)
    raise UnsupportedFamily(
        f"{f.kind} has no closed-form complex Hessian; use complex_hessian_fd")


def eval_rhs(f: SolutionFamily, pt):
    """Closed-form determinant of the complex Hessian (the equation's rhs);
    accepts a point, an (..., 2m) array or an open grid."""
    mod2, single = _squared_moduli(f, pt)
    t = mod2[-1]
    if f.kind == "blocki":
        raise UnsupportedFamily("blocki has no closed-form rhs")
    if f.kind == "theorem_v":
        out = np.ones_like(t)
    elif f.kind == "degenerate":
        out = np.zeros_like(t)
    elif f.kind == "pogorelov2":
        _require_regular(f, t)
        out = (t + 2.0 * f.eps * (1.0 + mod2[0])) / (t + f.eps)
    else:  # pogorelov_n
        _require_regular(f, t)
        m = f.dim
        zsum = _sum(mod2[:-1])
        out = (t / (m * m) + (f.eps / m) * (1.0 + zsum)) / (t + f.eps)
    return float(out) if single else out


def verify_identity(f: SolutionFamily, pt) -> dict:
    """Determinant of the analytic Hessian against the closed-form rhs."""
    det = herm_det(eval_analytic_hessian(f, pt))
    rhs = eval_rhs(f, pt)
    return {"det_analytic": det, "rhs": rhs, "abs_gap": abs(det - rhs)}

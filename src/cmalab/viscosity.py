"""Viscosity-solution tests at the singular slice {w = 0}.

The operator is G(X) = 1 - det(X) for PSD X and +infinity otherwise.
Test functions are quadratic jets; touching is certified by dense
sampling in a ball with a fixed margin.  The limit functions u0 of the
pogorelov families grow like a cone |w|^alpha transversally to the
slice, which defeats every C^2 jet from above; the search below looks
for the corresponding witness along the w-plane through the base point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import BasePointOffSingularSet
from .families import SolutionFamily, eval_value
from .grid import as_point, wirtinger_from_real_hessian
from .hermitian import HermitianForm, herm_det, psd_report

__all__ = ["QuadraticJet", "g_operator", "complex_hessian_of_jet",
           "check_touch_below", "search_touch_above"]

TOUCH_MARGIN = 1e-10
PSD_TOL = 1e-12


def g_operator(X: HermitianForm, tol: float = PSD_TOL):
    """1 - det(X) on PSD matrices, +infinity otherwise."""
    rep = psd_report(X, tol)
    if not rep["is_psd"]:
        return math.inf
    return 1.0 - herm_det(X)


@dataclass(frozen=True)
class QuadraticJet:
    """q(x) = const + grad . (x - base) + 1/2 (x - base)^T hess (x - base)."""

    base: np.ndarray
    const: float
    grad: np.ndarray = field(repr=False)
    hess: np.ndarray = field(repr=False)

    def __post_init__(self):
        base = as_point(self.base)
        g = np.asarray(self.grad, dtype=float).ravel()
        H = np.asarray(self.hess, dtype=float)
        if g.size != base.size or H.shape != (base.size, base.size):
            raise ValueError("gradient/Hessian dimensions must match the base point")
        H = 0.5 * (H + H.T)
        if not (np.isfinite(self.const) and np.all(np.isfinite(g)) and np.all(np.isfinite(H))):
            raise ValueError("jet data must be finite")
        for arr in (base, g, H):
            arr.setflags(write=False)
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "grad", g)
        object.__setattr__(self, "hess", H)

    def __call__(self, pts):
        dx = np.asarray(pts, dtype=float) - self.base
        quad = 0.5 * np.einsum("...a,ab,...b->...", dx, self.hess, dx)
        return self.const + dx @ self.grad + quad


def complex_hessian_of_jet(q: QuadraticJet) -> HermitianForm:
    """Exact Wirtinger combination of the jet's real Hessian (no FD)."""
    return HermitianForm(wirtinger_from_real_hessian(q.hess))


def _limit_family(u: SolutionFamily) -> SolutionFamily:
    if u.kind not in ("pogorelov2", "pogorelov_n"):
        raise ValueError("viscosity checks target the pogorelov limit functions")
    if u.eps != 0.0:
        raise ValueError("viscosity checks apply to the eps = 0 limit")
    return u


def _check_base(u: SolutionFamily, p0: np.ndarray) -> None:
    if p0.size != 2 * u.dim:
        raise ValueError("base point dimension mismatch")
    if math.hypot(p0[-2], p0[-1]) > 1e-12:
        raise BasePointOffSingularSet(
            "base point must lie on {w = 0}; away from it the function is "
            "smooth and the classical check applies")


def _ball_points(p0: np.ndarray, radius: float, samples: int, rng) -> np.ndarray:
    dim = p0.size
    x = rng.normal(size=(samples, dim))
    x /= np.linalg.norm(x, axis=1, keepdims=True)
    r = radius * rng.uniform(0.0, 1.0, size=(samples, 1)) ** (1.0 / dim)
    return p0 + x * r


def check_touch_below(u: SolutionFamily, q: QuadraticJet, radius: float,
                      samples: int = 10_000, seed: int = 0) -> dict:
    """Lower-jet test: if q touches u0 from below near the base point then
    G of the jet's complex Hessian must be nonnegative."""
    u = _limit_family(u)
    p0 = as_point(q.base)
    _check_base(u, p0)
    if abs(q(p0) - eval_value(u, p0)) > 1e-12:
        raise ValueError("jet must match the function value at the base point")
    rng = np.random.default_rng(seed)
    pts = _ball_points(p0, radius, samples, rng)
    gap = eval_value(u, pts) - q(pts)
    touches = bool(np.min(gap) >= -TOUCH_MARGIN)
    g_value = g_operator(complex_hessian_of_jet(q))
    verdict = bool(g_value >= -TOUCH_MARGIN) if touches else None
    return {"touches": touches, "g_value": g_value, "verdict": verdict}


def _w_axis_scan(u: SolutionFamily, p0: np.ndarray, radius: float,
                 angles: int = 32, depths: int = 60) -> np.ndarray:
    """Points along the w-plane through p0, log-spaced radii down to ~1e-14."""
    theta = np.linspace(0.0, 2.0 * math.pi, angles, endpoint=False)
    rr = radius * np.exp(np.linspace(0.0, math.log(1e-14), depths))
    pts = np.tile(p0, (angles * depths, 1))
    rmat, tmat = np.meshgrid(rr, theta)
    pts[:, -2] = (rmat * np.cos(tmat)).ravel()
    pts[:, -1] = (rmat * np.sin(tmat)).ravel()
    return pts


def search_touch_above(u: SolutionFamily, p0, radius: float,
                       attempts: int = 1000, seed: int = 0,
                       samples: int = 2000) -> dict:
    """Try random upper jets; each must lose to the cone along the w-plane.

    Returns found = True only if some attempted jet both dominates u0 on
    the sampled ball minus the base point and admits no witness sample
    with q < u0 - 1e-12 near the w-plane (which would contradict C^2).
    """
    u = _limit_family(u)
    p0 = as_point(p0)
    _check_base(u, p0)
    if attempts < 0:
        raise ValueError("attempts must be nonnegative")
    rng = np.random.default_rng(seed)
    value = eval_value(u, p0)
    dim = p0.size
    scan = _w_axis_scan(u, p0, radius)
    scan_u = eval_value(u, scan)
    ball = _ball_points(p0, radius, samples, rng)
    ball_u = eval_value(u, ball)
    grads = np.empty((attempts, dim))
    hessians = np.empty((attempts, dim, dim))
    for k in range(attempts):
        scale = 10.0 ** rng.uniform(-1.0, 6.0)
        grads[k] = rng.normal(size=dim) * 10.0 ** rng.uniform(-2.0, 1.0)
        H = rng.normal(size=(dim, dim)) * scale
        hessians[k] = H + H.T

    def jet(k):
        return QuadraticJet(p0, value, grads[k], hessians[k])

    def exact_witness(k):
        return float(np.max(scan_u - jet(k)(scan)))

    witness, slack = _batched_witnesses(scan - p0, scan_u, value, grads, hessians)
    # the batched max lies within `slack` of the jet's own; settle every
    # attempt that the difference could move across the 1e-12 cut
    for k in np.flatnonzero(np.abs(witness - 1e-12) <= slack):
        witness[k] = exact_witness(k)
        slack[k] = 0.0
    is_witness = witness > 1e-12
    best_violation = 0.0
    if np.any(is_witness):
        floor = np.max((witness - slack)[is_witness])
        for k in np.flatnonzero(is_witness & (witness + slack >= floor)):
            best_violation = max(best_violation, exact_witness(k))
    # no witness on the scan: only counts as touching if it dominates
    # u0 on the sampled ball away from the base point
    found = any(np.all(jet(k)(ball) - ball_u >= -1e-12)
                for k in np.flatnonzero(~is_witness))
    return {
        "found": found,
        "best_violation": best_violation,
        "attempts": attempts,
        "witnesses": int(np.sum(is_witness)),
    }


# attempts evaluated per matrix product in `_batched_witnesses`
_JET_BLOCK = 500


def _batched_witnesses(dx, target, const, grads, sym_hessians):
    """max over the rows of dx of target - q_k for every jet q_k with the
    given gradient and Hessian H + H^T (halved by symmetrization, as
    QuadraticJet does), and for each a bound on its gap to the value
    QuadraticJet.__call__ gives.  One product (dx outer dx) @ Hessians
    per block of jets replaces a three-operand einsum per jet."""
    count, dim = grads.shape
    hess = 0.5 * (sym_hessians + sym_hessians.transpose(0, 2, 1))
    outer = (dx[:, :, None] * dx[:, None, :]).reshape(dx.shape[0], dim * dim)
    witness = np.empty(count)
    for lo in range(0, count, _JET_BLOCK):
        hi = min(lo + _JET_BLOCK, count)
        quad = outer @ hess[lo:hi].reshape(hi - lo, dim * dim).T
        q = const + dx @ grads[lo:hi].T + 0.5 * quad
        witness[lo:hi] = np.max(target[:, None] - q, axis=0)
    # both evaluations round sums of at most dim^2 + 4 terms bounded by
    # |target| + |const| + a |g|_1 + a^2 |H|_1 / 2, a = max |dx|
    a = float(np.max(np.abs(dx)))
    size = (float(np.max(np.abs(target))) + abs(const) + a * np.sum(np.abs(grads), axis=1)
            + 0.5 * a * a * np.sum(np.abs(hess), axis=(1, 2)))
    slack = 4.0 * (dim * dim + 4) * np.finfo(float).eps * size
    return witness, slack

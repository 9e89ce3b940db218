"""Viscosity-solution tests at the singular slice {w = 0}.

The operator is G(X) = 1 - det(X) for PSD X and +infinity otherwise.
Test functions are quadratic jets; touching is certified by dense
sampling in a ball with a fixed margin.  Jets are evaluated on sample
points as one matrix product against quadratic features of the points,
with a rounding slack to the jet's own value (`_batched_witnesses`); the
lower-jet ball is built once per family, base, radius, sample count and
seed (`_lower_ball`).  The limit functions u0 of the
pogorelov families grow like a cone |w|^alpha transversally to the
slice, which defeats every C^2 jet from above; the search below looks
for the corresponding witness along the w-plane through the base point.
"""

from __future__ import annotations

import functools
import math
import operator
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
_BALL_SAMPLES = 2000   # ball points each upper jet of `search_touch_above` must dominate
_SCAN_ANGLES = 32      # directions in the w-plane of `_w_axis_scan`
_SCAN_DEPTHS = 60      # log-spaced radii along each direction


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


def _check_radius(radius: float) -> None:
    if not 0 < radius < math.inf:
        raise ValueError(f"radius must be finite and positive, got {radius!r}")


def _ball_points(p0: np.ndarray, radius: float, samples: int, rng) -> np.ndarray:
    dim = p0.size
    x = rng.normal(size=(samples, dim))
    x /= np.linalg.norm(x, axis=1, keepdims=True)
    r = radius * rng.uniform(0.0, 1.0, size=(samples, 1)) ** (1.0 / dim)
    return p0 + x * r


@functools.lru_cache(maxsize=8)
def _upper_pairs(dim: int):
    """The pairs a <= b of `np.triu_indices(dim)` and the weight of each in
    1/2 dx^T H dx: 1/2 on the diagonal, 1 above it; read-only."""
    rows, cols = np.triu_indices(dim)
    arrays = (rows, cols, np.where(rows == cols, 0.5, 1.0))
    for arr in arrays:
        arr.setflags(write=False)
    return arrays


def _jet_features(dx: np.ndarray) -> np.ndarray:
    """[dx_a dx_b for a <= b | dx] for each row of dx, one column per row:
    every jet's value minus its constant is one product of its
    coefficients with these.  Each feature is one contiguous row."""
    rows, cols, _ = _upper_pairs(dx.shape[1])
    dx = dx.T
    return np.concatenate([dx[rows] * dx[cols], dx])


@functools.lru_cache(maxsize=4)
def _lower_ball(u: SolutionFamily, base: bytes, radius: float, samples: int,
                seed: int):
    """The sampled ball of `check_touch_below` around the point with the
    float bytes `base`, u0's values on it and its jet features, read-only."""
    p0 = np.frombuffer(base)
    pts = _ball_points(p0, radius, samples, np.random.default_rng(seed))
    arrays = (pts, eval_value(u, pts), _jet_features(pts - p0))
    for arr in arrays:
        arr.setflags(write=False)
    return arrays


def check_touch_below(u: SolutionFamily, q: QuadraticJet, radius: float,
                      samples: int = 10_000, seed: int = 0) -> dict:
    """Lower-jet test: if q touches u0 from below near the base point then
    G of the jet's complex Hessian must be nonnegative.  The seed must be
    an integer: the ball it draws is reused by later calls."""
    u = _limit_family(u)
    p0 = as_point(q.base)
    _check_base(u, p0)
    _check_radius(radius)
    if abs(q(p0) - eval_value(u, p0)) > 1e-12:
        raise ValueError("jet must match the function value at the base point")
    pts, ball_u, features = _lower_ball(u, p0.tobytes(), radius, samples,
                                        operator.index(seed))
    # min(u0 - q) = -max((-u0) - (-q)); negating every term is exact, so
    # the batched value keeps its slack to the jet's own
    top, slack = _batched_witnesses(features, -ball_u, -q.const,
                                    -q.grad[None], -q.hess[None])
    gap = -top[0]
    if abs(gap + TOUCH_MARGIN) <= slack[0]:
        gap = np.min(ball_u - q(pts))
    touches = bool(gap >= -TOUCH_MARGIN)
    g_value = g_operator(complex_hessian_of_jet(q))
    verdict = bool(g_value >= -TOUCH_MARGIN) if touches else None
    return {"touches": touches, "g_value": g_value, "verdict": verdict}


def _w_axis_scan(p0: np.ndarray, radius: float) -> np.ndarray:
    """Points along the w-plane through p0, log-spaced radii down to ~1e-14."""
    theta = np.linspace(0.0, 2.0 * math.pi, _SCAN_ANGLES, endpoint=False)
    rr = radius * np.exp(np.linspace(0.0, math.log(1e-14), _SCAN_DEPTHS))
    pts = np.tile(p0, (_SCAN_ANGLES * _SCAN_DEPTHS, 1))
    rmat, tmat = np.meshgrid(rr, theta)
    pts[:, -2] = (rmat * np.cos(tmat)).ravel()
    pts[:, -1] = (rmat * np.sin(tmat)).ravel()
    return pts


def search_touch_above(u: SolutionFamily, p0, radius: float,
                       attempts: int = 1000, seed: int = 0) -> dict:
    """Try random upper jets; each must lose to the cone along the w-plane.

    Returns found = True only if some attempted jet both dominates u0 on
    the sampled ball minus the base point and admits no witness sample
    with q < u0 - 1e-12 near the w-plane (which would contradict C^2).
    """
    u = _limit_family(u)
    p0 = as_point(p0)
    _check_base(u, p0)
    _check_radius(radius)
    if attempts < 1:
        raise ValueError(f"attempts must be >= 1, got {attempts!r}")
    rng = np.random.default_rng(seed)
    value = eval_value(u, p0)
    dim = p0.size
    scan = _w_axis_scan(p0, radius)
    scan_u = eval_value(u, scan)
    ball = _ball_points(p0, radius, _BALL_SAMPLES, rng)
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

    witness, slack = _batched_witnesses(_jet_features(scan - p0), scan_u, value,
                                        grads, hessians)
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


def _batched_witnesses(features, target, const, grads, sym_hessians):
    """max over the points dx of target - q_k for every jet q_k with the
    given constant, gradient and symmetric Hessian (such as H + H^T, which
    QuadraticJet's symmetrization keeps exactly), and for each a bound on
    its gap to the value QuadraticJet.__call__ gives.  `features` are
    `_jet_features(dx)`.

    With H the Hessian, q_k - const is one matrix product per block of
    jets: the coefficients [H_aa / 2 on the diagonal, H_ab above it | grad]
    against the features [dx_a dx_b for a <= b | dx], K = dim (dim + 3) / 2
    of each.  Then target - const - product, and the maximum over the
    points.

    The bound, with u = eps / 2, a = max |dx| and
    size = max |target| + |const| + a |g|_1 + a^2 |H|_1 / 2: each term of
    QuadraticJet's value passes at most dim^2 + 3 roundings (two in its
    product, dim^2 - 1 in the einsum's sum, one adding it to the rest, one
    subtracting from target); each term here at most K + 2 (the feature,
    its product with a coefficient, K - 1 in the matrix product's sum in
    any order, the subtraction).  So the two values differ by less than
    (dim^2 + K + 6) u size, and `slack` is four times that.
    """
    count, dim = grads.shape
    rows, cols, weight = _upper_pairs(dim)
    # 1/2 dx^T H dx = sum over a <= b of c_ab dx_a dx_b, c_aa = H_aa / 2, c_ab = H_ab
    upper = 0.5 * (sym_hessians[:, rows, cols] + sym_hessians[:, cols, rows])
    coef = np.concatenate([weight * upper, grads], axis=1)
    shifted = target - const
    witness = np.empty(count)
    for lo in range(0, count, _JET_BLOCK):
        hi = min(lo + _JET_BLOCK, count)
        diff = coef[lo:hi] @ features
        np.subtract(shifted, diff, out=diff)
        np.max(diff, axis=1, out=witness[lo:hi])
    # a^2 |H|_1 / 2 + a |g|_1: each |coefficient| times a^2 or a
    a = float(np.max(np.abs(features[rows.size:])))
    size = (float(np.max(np.abs(target))) + abs(const)
            + np.abs(coef) @ np.where(np.arange(coef.shape[1]) < rows.size, a * a, a))
    slack = 2.0 * (dim * dim + coef.shape[1] + 6) * np.finfo(float).eps * size
    return witness, slack

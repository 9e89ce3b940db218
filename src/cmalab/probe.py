"""Empirical regularity diagnostics for the singular limit functions.

Holder exponents from log-log oscillation fits, W^{2,p} convergence or
divergence under refinement with a shrinking excluded tube, and the
Lipschitz blow-up of the smoothed right-hand side as eps drops.

Divergence verdicts come from the refinement slope of the p-th power of
the seminorm (the underlying integral): the -0.05 / -0.2 thresholds are
calibrated for that observable, where a p-integrable singularity gives
slope -> 0 and a non-integrable one gives a strictly negative power law.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateFit
from .families import SolutionFamily
from .grid import (GridDomain, complex_laplacian_fd, sample,
                   second_derivative_magnitude)

__all__ = [
    "holder_fit", "w2p_divergence_scan", "rhs_lipschitz_scaling", "ScanEntry",
]

_SHELL_SEED = 20260823  # fixed: probes are deterministic by contract
_SHELL_SAMPLES = 2000   # directions per shell of `holder_fit`
_SCAN_HALF_WIDTH = 1.0  # W^{2,p} scan boxes cover [-1, 1] on every axis
_SCAN_REGULAR_POINTS = 5  # nodes on each axis off the singular set
_LIP_Z_POINTS = 41      # |z| radii of the `rhs_lipschitz_scaling` grid
_LIP_W_POINTS = 4000    # log-spaced |w| radii in [1e-8, 1], after |w| = 0


@dataclass(frozen=True)
class ScanEntry:
    p: float
    slope: float
    verdict: str


def _callable_of(f):
    if isinstance(f, SolutionFamily):
        return f.value
    return f


def holder_fit(f, center, radii) -> dict:
    """Least-squares slope of log osc(f, B_rho) against log rho.

    f is a SolutionFamily (its value is used) or a plain callable on
    (..., 2n) arrays; shells are sampled with a fixed internal seed so
    the probe is deterministic.
    """
    radii = np.sort(np.asarray(radii, dtype=float))[::-1]
    if radii.size < 6 or radii[0] / radii[-1] < 100.0:
        raise ValueError("need >= 6 radii spanning at least two decades")
    func = _callable_of(f)
    center = np.asarray(center, dtype=float).ravel()
    rng = np.random.default_rng(_SHELL_SEED)
    dirs = rng.normal(size=(_SHELL_SAMPLES, center.size))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    center_val = float(func(center[None, :])[0])
    # cumulative max/min inward: osc over B_rho uses every shell with radius <= rho
    oscs = []
    hi = center_val
    lo = center_val
    for rho in radii[::-1]:  # ascending
        vals = func(center + rho * dirs)
        hi = max(hi, float(np.max(vals)))
        lo = min(lo, float(np.min(vals)))
        oscs.append(hi - lo)
    oscs = np.array(oscs)
    if np.any(oscs <= 0) or np.any(~np.isfinite(np.log(oscs))):
        raise DegenerateFit("oscillations underflow the log-log fit")
    x = np.log(radii[::-1])
    y = np.log(oscs)
    (slope, intercept), cov = np.polyfit(x, y, 1, cov=True)
    return {"alpha": float(slope), "stderr": float(np.sqrt(cov[0, 0]))}


def _scan_domain(f: SolutionFamily, points_singular: int) -> GridDomain:
    """Box meeting the singular set, fine only along the singular axes.

    The singular axes get one pad cell beyond the half width so that after
    the finite-difference stencil drops the boundary ring the usable nodes
    span exactly [-_SCAN_HALF_WIDTH, _SCAN_HALF_WIDTH] at every resolution;
    otherwise the integration region itself would shrink with h and the
    refinement slopes would pick up a spurious drift.
    """
    if points_singular < 9:
        raise ValueError("need at least 9 points along the singular axes")
    m = f.dim
    if f.kind == "blocki":
        singular_axes = tuple(range(2, 2 * m))
    else:
        singular_axes = (2 * m - 2, 2 * m - 1)
    pts = [_SCAN_REGULAR_POINTS] * (2 * m)
    hw = np.full(2 * m, _SCAN_HALF_WIDTH)
    h = 2.0 * _SCAN_HALF_WIDTH / (points_singular - 3)
    for a in singular_axes:
        pts[a] = points_singular
        hw[a] = _SCAN_HALF_WIDTH + h
    return GridDomain(np.zeros(2 * m), hw, tuple(pts),
                      excluded_tube_radius=2.0 * h, singular_axes=singular_axes)


def _interior_weights(dom: GridDomain) -> np.ndarray:
    """Trapezoid weights of the scan integrals on the interior nodes of dom.

    The boundary ring carries no weight, the ring next to it half weight,
    so the quadrature covers a fixed box independent of h; the excluded
    tube carries none either."""
    inner = np.ix_(*[dom.axis_coords(a)[1:-1] for a in range(len(dom.shape))])
    w = 1.0   # grows by broadcasting to the interior at the last axis
    for a, h in enumerate(dom.spacings):
        wa = np.full(inner[a].shape, h)
        wa.flat[0] = wa.flat[-1] = 0.5 * h
        w = w * wa
    r2 = sum(inner[a] ** 2 for a in dom.singular_axes)
    w[np.broadcast_to(r2 < dom.excluded_tube_radius ** 2, w.shape)] = 0.0
    return w


def _masses(field, p_list) -> list:
    """sum(|field|^p * weights) over the interior, the integral of |field|^p,
    for each p > 0.  A node of zero weight adds 0 whatever |field| is there.
    Each |field|^p * weights goes into the interior of one zero-filled
    full-grid buffer, so that np.sum adds the same values in the same order
    as over a full-grid integrand that is zero off the weighted nodes."""
    w = _interior_weights(field.domain)
    core = tuple(slice(1, -1) for _ in w.shape)
    # the weight is positive everywhere else, so |field| is kept exactly there
    magnitude = np.abs(field.values[core])
    magnitude[w == 0.0] = 0.0
    integrand = np.zeros(field.domain.shape)
    masses = []
    for p in p_list:
        np.multiply(magnitude ** p, w, out=integrand[core])
        masses.append(np.sum(integrand))
    return masses


def _refinement_masses(f: SolutionFamily, points_singular: int, p_list,
                       use_laplacian: bool) -> list:
    """The integral of |observable|^p on one scan grid, for each p."""
    dom = _scan_domain(f, points_singular)
    observable = complex_laplacian_fd if use_laplacian else second_derivative_magnitude
    return _masses(observable(sample(dom, f.value)), p_list)


def _verdict(slope: float) -> str:
    if slope >= -0.05:
        return "bounded"
    if slope <= -0.2:
        return "divergent"
    return "inconclusive"


def w2p_divergence_scan(f: SolutionFamily, p_list, refinements: int = 3,
                        base_points: int = 17, use_laplacian: bool = False,
                        growth: float = math.sqrt(2.0)) -> list:
    """Refinement slopes of the W^{2,p} mass for each p.

    Per refinement the singular-axis resolution grows by ~sqrt(2) steps
    and the excluded tube shrinks as 2h.  The slope is taken on
    log(seminorm^p) vs log h; verdicts follow the -0.05 / -0.2 cuts.
    use_laplacian switches the observable to the L^p norm of the
    complex Laplacian (the scan used for the blocki family).
    """
    p_list = sorted(float(p) for p in p_list)
    if any(not p > 0 for p in p_list):
        raise ValueError("p must be positive")
    if not math.isfinite(growth):
        raise ValueError(f"growth must be finite, got {growth!r}")
    counts = [base_points]
    for _ in range(refinements - 1):
        counts.append(int(round((counts[-1] - 1) * growth)) + 1)
    # a slope needs two resolutions; through one point it is meaningless
    if len(set(counts)) < 2:
        raise ValueError(f"refinements = {refinements} and growth = {growth!r} "
                         "give fewer than two distinct resolutions")
    masses = np.array([_refinement_masses(f, cnt, p_list, use_laplacian)
                       for cnt in counts]).T
    log_h = np.log(np.array([2.0 * _SCAN_HALF_WIDTH / (cnt - 3) for cnt in counts]))
    entries = []
    for p, row in zip(p_list, masses):
        slope = float(np.polyfit(log_h, np.log(row), 1)[0])
        entries.append(ScanEntry(p=p, slope=slope, verdict=_verdict(slope)))
    return entries


def _grad_norm_rhs_pogorelov2(zsq, t, eps):
    """|grad F| for F(z, w, eps) of the C^2 family, from the closed form.

    With t = |w|^2:  F_z = 2 eps zbar/(t+eps),
    F_t = eps (1 - 2 (1+|z|^2))/(t+eps)^2, dF/dw = F_t wbar, and the real
    gradient norm is 2 sqrt(|F_z|^2 + |F_w|^2).
    """
    denom = t + eps
    fz2 = (2.0 * eps) ** 2 * zsq / denom**2
    ft = eps * (1.0 - 2.0 * (1.0 + zsq)) / denom**2
    fw2 = t * ft * ft
    return 2.0 * np.sqrt(fz2 + fw2)


def rhs_lipschitz_scaling(eps_list, z_max: float = 1.0) -> list:
    """Dense-grid sup of |grad F(., eps)| on the compact {|z| <= z_max,
    |w| <= 1}; the sup scales like eps^(-1/2)."""
    eps_list = [float(e) for e in eps_list]
    if any(e <= 0 for e in eps_list):
        raise ValueError("eps values must be positive")
    if any(a <= b for a, b in zip(eps_list, eps_list[1:])):
        raise ValueError("eps_list must be strictly decreasing")
    zsq = np.linspace(0.0, z_max, _LIP_Z_POINTS) ** 2
    out = []
    for eps in eps_list:
        # the transition happens at |w| ~ sqrt(eps); log-space the radii
        w = np.concatenate([[0.0], np.exp(np.linspace(math.log(1e-8), 0.0, _LIP_W_POINTS))])
        t = w * w
        g = _grad_norm_rhs_pogorelov2(zsq[:, None], t[None, :], eps)
        out.append((eps, float(np.max(g))))
    return out

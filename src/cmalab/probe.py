"""Empirical regularity diagnostics for the singular limit functions.

Holder exponents from log-log oscillation fits, W^{2,p} convergence or
divergence under refinement with a shrinking excluded tube, the
Lipschitz blow-up of the smoothed right-hand side as eps drops, and the
eps -> 0 convergence modes (including the sup-norm gap on the singular
slice, which is reported, never asserted).

Divergence verdicts come from the refinement slope of the p-th power of
the seminorm (the underlying integral): the -0.05 / -0.2 thresholds are
calibrated for that observable, where a p-integrable singularity gives
slope -> 0 and a non-integrable one gives a strictly negative power law.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateFit
from .families import SolutionFamily, eval_rhs, eval_value
from .grid import (GridDomain, complex_laplacian_fd, sample,
                   second_derivative_magnitude)

__all__ = [
    "holder_fit", "w2p_divergence_scan", "rhs_lipschitz_scaling",
    "convergence_study", "ScanEntry",
]

_SHELL_SEED = 20260823  # fixed: probes are deterministic by contract


@dataclass(frozen=True)
class ScanEntry:
    p: float
    slope: float
    verdict: str
    values: tuple = field(default=())
    spacings: tuple = field(default=())


def _callable_of(f):
    if isinstance(f, SolutionFamily):
        return lambda pts: eval_value(f, pts), 2 * f.dim
    return f, None


def holder_fit(f, center, radii, samples_per_shell: int = 2000) -> dict:
    """Least-squares slope of log osc(f, B_rho) against log rho.

    f is a SolutionFamily (its value is used) or a plain callable on
    (..., 2n) arrays; shells are sampled with a fixed internal seed so
    the probe is deterministic.
    """
    radii = np.sort(np.asarray(radii, dtype=float))[::-1]
    if radii.size < 6 or radii[0] / radii[-1] < 100.0:
        raise ValueError("need >= 6 radii spanning at least two decades")
    func, _ = _callable_of(f)
    center = np.asarray(center, dtype=float).ravel()
    rng = np.random.default_rng(_SHELL_SEED)
    dirs = rng.normal(size=(samples_per_shell, center.size))
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


def _scan_domain(f: SolutionFamily, points_singular: int, points_regular: int = 5,
                 half_width: float = 1.0) -> GridDomain:
    """Box meeting the singular set, fine only along the singular axes.

    The singular axes get one pad cell beyond +-half_width so that after
    the finite-difference stencil drops the boundary ring the usable
    nodes span exactly [-half_width, half_width] at every resolution;
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
    pts = [points_regular] * (2 * m)
    hw = np.full(2 * m, half_width)
    h = 2.0 * half_width / (points_singular - 3)
    for a in singular_axes:
        pts[a] = points_singular
        hw[a] = half_width + h
    return GridDomain(np.zeros(2 * m), hw, tuple(pts),
                      excluded_tube_radius=2.0 * h, singular_axes=singular_axes)


def _mass_terms(field):
    """|field| and the trapezoid weights of its integral, both zero off the
    valid, non-excluded nodes, so that sum(|field|^p * weights) is the
    integral of |field|^p for every p > 0.  Boundary-ring nodes carry zero
    weight and the next ring gets half weight, so the quadrature covers a
    fixed box independent of h."""
    dom = field.domain
    keep = ~dom.excluded_mask()
    if field.valid is not None:
        keep = keep & field.valid
    w = 1.0   # grows by broadcasting to the full grid at the last axis
    for a, (cnt, h) in enumerate(zip(dom.shape, dom.spacings)):
        wa = np.full(cnt, h)
        wa[0] = wa[-1] = 0.0
        wa[1] = wa[-2] = 0.5 * h
        shape = [1] * len(dom.shape)
        shape[a] = cnt
        w = w * wa.reshape(shape)
    drop = ~keep
    w[drop] = 0.0
    magnitude = np.abs(field.values)
    magnitude[drop] = 0.0
    return magnitude, w


def _refinement_masses(f: SolutionFamily, points_singular: int, p_list,
                       use_laplacian: bool, half_width: float) -> list:
    """The integral of |observable|^p on one scan grid, for each p."""
    dom = _scan_domain(f, points_singular, half_width=half_width)
    observable = complex_laplacian_fd if use_laplacian else second_derivative_magnitude
    magnitude, weights = _mass_terms(observable(sample(dom, lambda pts: eval_value(f, pts))))
    masses = []
    for p in p_list:
        integrand = magnitude ** p
        integrand *= weights
        masses.append(np.sum(integrand))
    return masses


def _verdict(slope: float) -> str:
    if slope >= -0.05:
        return "bounded"
    if slope <= -0.2:
        return "divergent"
    return "inconclusive"


def w2p_divergence_scan(f: SolutionFamily, p_list, refinements: int = 3,
                        base_points: int = 17, use_laplacian: bool = False,
                        half_width: float = 1.0, growth: float = math.sqrt(2.0)) -> list:
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
    counts = [base_points]
    for _ in range(refinements - 1):
        counts.append(int(round((counts[-1] - 1) * growth)) + 1)
    masses = np.array([_refinement_masses(f, cnt, p_list, use_laplacian, half_width)
                       for cnt in counts]).T
    spacings = [2.0 * half_width / (cnt - 3) for cnt in counts]
    entries = []
    log_h = np.log(np.array(spacings))
    for p, row in zip(p_list, masses):
        slope = float(np.polyfit(log_h, np.log(row), 1)[0])
        vals = tuple(float(m) ** (1.0 / p) for m in row)
        entries.append(ScanEntry(p=p, slope=slope, verdict=_verdict(slope),
                                 values=vals, spacings=tuple(spacings)))
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


def rhs_lipschitz_scaling(eps_list, z_max: float = 1.0, w_max: float = 1.0,
                          n_w: int = 4000, n_z: int = 41) -> list:
    """Dense-grid sup of |grad F(., eps)| on the compact {|z| <= z_max,
    |w| <= w_max}; the sup scales like eps^(-1/2)."""
    eps_list = [float(e) for e in eps_list]
    if any(e <= 0 for e in eps_list):
        raise ValueError("eps values must be positive")
    if any(a <= b for a, b in zip(eps_list, eps_list[1:])):
        raise ValueError("eps_list must be strictly decreasing")
    zsq = np.linspace(0.0, z_max, n_z) ** 2
    out = []
    for eps in eps_list:
        # the transition happens at |w| ~ sqrt(eps); log-space the radii
        w = np.concatenate([[0.0], np.exp(np.linspace(math.log(1e-8), math.log(w_max), n_w))])
        t = w * w
        g = _grad_norm_rhs_pogorelov2(zsq[:, None], t[None, :], eps)
        out.append((eps, float(np.max(g))))
    return out


def convergence_study(f: SolutionFamily, eps_list, p: float,
                      domain: GridDomain = None) -> list:
    """eps -> 0 convergence table on a fixed compact grid.

    Columns: sup|u_eps - u0|, ||F(., eps) - limit||_{L^p}, and the sup of
    |F(., eps) - limit| restricted to the singular slice w = 0 (which
    does not go to zero; the measured value is recorded verbatim).
    """
    if f.kind not in ("pogorelov2", "pogorelov_n"):
        raise ValueError("convergence study applies to the pogorelov families")
    m = f.dim
    if domain is None:
        pts = [9] * (2 * m)
        pts[-2] = pts[-1] = 33
        domain = GridDomain(np.zeros(2 * m), np.ones(2 * m), tuple(pts))
    coords = domain.node_coords_flat()
    limit_family = SolutionFamily(f.kind, f.dim, 0.0)
    u0 = eval_value(limit_family, coords)
    limit_const = 1.0 if f.kind == "pogorelov2" else 1.0 / (m * m)
    slice_mask = (np.abs(coords[:, -2]) < 1e-14) & (np.abs(coords[:, -1]) < 1e-14)
    cell = float(np.prod(domain.spacings))
    entries = []
    for eps in eps_list:
        fam = SolutionFamily(f.kind, f.dim, float(eps))
        ue = eval_value(fam, coords)
        Fe = eval_rhs(fam, coords)
        gap = np.abs(Fe - limit_const)
        lp_gap = float((np.sum(gap**p) * cell) ** (1.0 / p))
        entries.append({
            "eps": float(eps),
            "sup_u_gap": float(np.max(np.abs(ue - u0))),
            "lp_F_gap": lp_gap,
            "sup_F_gap_slice": float(np.max(gap[slice_mask])) if np.any(slice_mask) else None,
        })
    return entries

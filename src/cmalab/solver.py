"""Damped-Newton finite-difference solver for log det(u_ij) = F.

Box domains with Dirichlet data on a one-cell boundary ring.  The
linearization of log det at u is the trace operator v -> sum of
a^{ij} v_{ij} with a the inverse FD complex Hessian; Newton steps
solve it with BiCGStab preconditioned by a constant-coefficient
complex Laplacian inverted through fast sine transforms.  A halving
line search keeps every accepted iterate strictly plurisubharmonic
and the residual max-norm monotone.

Two complex dimensions get fused stencil kernels (see cmalab.kernels);
other dimensions fall back to stacked dense Hessians per node.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

import numpy as np
import scipy.fft as sfft
import scipy.sparse.linalg as spla

from . import kernels
from .errors import NonConverged, NotPlurisubharmonic
from .grid import GridDomain, GridField, _cross_diff, _second_diff

__all__ = ["DirichletProblem", "NewtonConfig", "WirtingerOperator",
           "residual", "assemble_linearization", "newton_solve",
           "default_init", "usable_cores"]


def usable_cores() -> int:
    """Cores this process may run on: its CPU affinity where the OS has one."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


@dataclass(frozen=True)
class DirichletProblem:
    """log det(u_ij) = rhs in the interior, u = boundary on the ring."""

    domain: GridDomain
    rhs: GridField
    boundary: GridField
    Lambda: float = 10.0

    def __post_init__(self):
        if self.Lambda <= 0:
            raise ValueError("Lambda must be positive")
        for f in (self.rhs, self.boundary):
            if f.domain.shape != self.domain.shape:
                raise ValueError("field shapes must match the domain")
            if not np.all(np.isfinite(f.values)):
                raise ValueError("problem data must be finite")
        if np.max(np.abs(self.rhs.values)) > self.Lambda:
            raise ValueError("|rhs| exceeds the Lambda bound")


@dataclass(frozen=True)
class NewtonConfig:
    tol_residual: float = 1e-10
    max_iters: int = 30
    min_step: float = 2.0 ** -20
    psd_guard: float = 1e-12
    inner_tol: float = 1e-10
    inner_maxiter: int = 400
    workers: int = None   # sine-transform workers; None: every usable core

    def __post_init__(self):
        if self.tol_residual <= 0:
            raise ValueError("tol_residual must be positive")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if self.workers is not None and self.workers < 1:
            raise ValueError("workers must be >= 1")


def _interior(shape):
    return (slice(1, -1),) * len(shape)


def _boundary_ring(shape):
    ring = np.ones(shape, dtype=bool)
    ring[_interior(shape)] = False
    return ring


# ---------------------------------------------------------------------------
# FD complex Hessians over the whole grid

def _hessian_stack_generic(values, spacings, n):
    """(interior..., n, n) complex Hessian stack from central differences."""
    core_shape = tuple(s - 2 for s in values.shape)
    H = np.empty(core_shape + (n, n), dtype=complex)
    for i in range(n):
        xi, yi = 2 * i, 2 * i + 1
        H[..., i, i] = 0.25 * (_second_diff(values, xi, spacings[xi])
                               + _second_diff(values, yi, spacings[yi]))
        for j in range(i + 1, n):
            xj, yj = 2 * j, 2 * j + 1
            re = 0.25 * (_cross_diff(values, xi, xj, spacings[xi], spacings[xj])
                         + _cross_diff(values, yi, yj, spacings[yi], spacings[yj]))
            im = 0.25 * (_cross_diff(values, xi, yj, spacings[xi], spacings[yj])
                         - _cross_diff(values, yi, xj, spacings[yi], spacings[xj]))
            H[..., i, j] = re + 1j * im
            H[..., j, i] = re - 1j * im
    return H


def _first_bad_node(ok_interior):
    idx = np.unravel_index(int(np.argmin(ok_interior)), ok_interior.shape)
    return tuple(int(i) + 1 for i in idx)


def _checked_hessian(u: GridField, guard: float):
    """Interior FD complex Hessian of u, after the positive-definiteness guard.

    Returns (H, spectrum).  For n = 2, H is the interior entry fields
    (h11, h22, hre, him) and spectrum is their determinant; otherwise H
    is the dense (interior..., n, n) stack and spectrum its ascending
    eigenvalues.  Raises NotPlurisubharmonic at the first node where the
    Hessian is not PD with margin `guard`.
    """
    dom = u.domain
    if dom.n == 2:
        core = _interior(dom.shape)
        H = tuple(f[core] for f in kernels.hessian_fields(u.values, dom.spacings))
        h11, h22, hre, him = H
        spectrum = h11 * h22 - hre ** 2 - him ** 2
        ok = (h11 > guard) & (spectrum > guard)
    else:
        H = _hessian_stack_generic(u.values, dom.spacings, dom.n)
        spectrum = np.linalg.eigvalsh(H)
        ok = spectrum[..., 0] > guard
    if not np.all(ok):
        raise NotPlurisubharmonic(_first_bad_node(ok))
    return H, spectrum


def residual(u: GridField, prob: DirichletProblem, guard: float = 1e-12) -> GridField:
    """Interior: log det(FD Hessian) - rhs.  Ring: u - boundary data."""
    shape = prob.domain.shape
    _, spectrum = _checked_hessian(u, guard)
    logdet = np.log(spectrum)
    if prob.domain.n != 2:
        logdet = np.sum(logdet, axis=-1)
    out = np.empty(shape)
    core = _interior(shape)
    out[core] = logdet - prob.rhs.values[core]
    ring = _boundary_ring(shape)
    out[ring] = u.values[ring] - prob.boundary.values[ring]
    return GridField(prob.domain, out)


# ---------------------------------------------------------------------------
# linearization

@dataclass(frozen=True)
class WirtingerOperator:
    """v -> sum over i, j of a^{ij} v_{ij} with frozen coefficients a."""

    domain: GridDomain
    p: tuple = field(repr=False)   # fast path: (p11, p22, p12, q12) arrays
    stack: np.ndarray = field(default=None, repr=False)  # generic: (..., n, n)

    def apply(self, v: np.ndarray) -> np.ndarray:
        h = self.domain.spacings
        if self.stack is None:
            return kernels.apply_linearization(*self.p, v, h)
        n = self.domain.n
        core = _interior(self.domain.shape)
        out = np.zeros_like(v)
        acc = np.zeros(tuple(s - 2 for s in v.shape))
        a = self.stack
        for i in range(n):
            xi, yi = 2 * i, 2 * i + 1
            acc += 0.25 * a[..., i, i].real * (
                _second_diff(v, xi, h[xi]) + _second_diff(v, yi, h[yi]))
            for j in range(i + 1, n):
                xj, yj = 2 * j, 2 * j + 1
                acc += 0.5 * a[..., i, j].real * (
                    _cross_diff(v, xi, xj, h[xi], h[xj])
                    + _cross_diff(v, yi, yj, h[yi], h[yj]))
                acc += 0.5 * a[..., i, j].imag * (
                    _cross_diff(v, xi, yj, h[xi], h[yj])
                    - _cross_diff(v, yi, xj, h[yi], h[xj]))
        out[core] = acc
        return out

    def trace_interior(self) -> np.ndarray:
        """Sum of the diagonal coefficients on the interior (the image of
        the squared modulus function under the operator)."""
        core = _interior(self.domain.shape)
        if self.stack is None:
            return self.p[0][core] + self.p[1][core]
        return np.einsum("...ii->...", self.stack).real

    def mean_diagonal(self) -> tuple:
        """Interior means of the per-complex-axis diagonal coefficients."""
        core = _interior(self.domain.shape)
        if self.stack is None:
            return (float(np.mean(self.p[0][core])), float(np.mean(self.p[1][core])))
        return tuple(float(np.mean(self.stack[..., i, i].real))
                     for i in range(self.domain.n))


def assemble_linearization(u: GridField, guard: float = 1e-12) -> WirtingerOperator:
    """Inverse FD Hessian coefficients at every interior node."""
    dom = u.domain
    H, det = _checked_hessian(u, guard)
    if dom.n != 2:
        return WirtingerOperator(dom, (), stack=np.linalg.inv(H))
    h11, h22, hre, him = H
    core = _interior(dom.shape)
    p = tuple(np.zeros(dom.shape) for _ in range(4))
    for coef, num in zip(p, (h22, h11, -hre, -him)):
        coef[core] = num / det
    return WirtingerOperator(dom, p)


# ---------------------------------------------------------------------------
# fast-sine-transform preconditioner (constant-coefficient surrogate)

class _DstPreconditioner:
    """Fast-diagonalization solve of the constant-coefficient surrogate
    (Lynch, Rice & Thomas 1964): a type-I sine transform pair on
    `workers` threads (None: every usable core).  The thread count does
    not change the result."""

    def __init__(self, domain: GridDomain, diag_means, workers: int = None):
        shape = tuple(s - 2 for s in domain.shape)
        h = domain.spacings
        lam = []
        for a, m in enumerate(shape):
            k = np.arange(1, m + 1)
            lam.append((2.0 - 2.0 * np.cos(k * math.pi / (m + 1))) / (h[a] * h[a]))
        eig = np.zeros(shape)
        for i, c in enumerate(diag_means):
            xa, ya = 2 * i, 2 * i + 1
            sh = [1] * len(shape)
            sh[xa] = shape[xa]
            eig = eig + 0.25 * c * lam[xa].reshape(sh)
            sh = [1] * len(shape)
            sh[ya] = shape[ya]
            eig = eig + 0.25 * c * lam[ya].reshape(sh)
        self.shape = shape
        self.eig = eig
        self.workers = workers or usable_cores()

    def solve(self, r: np.ndarray) -> np.ndarray:
        y = sfft.dstn(r.reshape(self.shape), type=1, workers=self.workers)
        y /= self.eig
        return sfft.idstn(y, type=1, workers=self.workers).ravel()


def _interior_linop(op: WirtingerOperator):
    shape = op.domain.shape
    core = _interior(shape)
    m = int(np.prod([s - 2 for s in shape]))
    buf = np.zeros(shape)

    def mv(x):
        buf[core] = x.reshape(tuple(s - 2 for s in shape))
        out = op.apply(buf)
        return -out[core].ravel()  # negated: makes the operator positive

    return spla.LinearOperator((m, m), matvec=mv)


# ---------------------------------------------------------------------------
# initialization and Newton iteration

def _quadratic_fit(domain: GridDomain, boundary: GridField):
    """Least-squares c |x|^2 + affine fit to the ring values."""
    ring = _boundary_ring(domain.shape)
    coords = domain.node_coords_flat()[ring.ravel()]
    g = boundary.values[ring]
    cols = [np.sum(coords ** 2, axis=1), np.ones(len(coords))] + \
        [coords[:, a] for a in range(coords.shape[1])]
    A = np.stack(cols, axis=1)
    beta, *_ = np.linalg.lstsq(A, g, rcond=None)
    return beta


def _quadratic_values(domain: GridDomain, beta):
    coords = domain.node_coords_flat()
    vals = beta[0] * np.sum(coords ** 2, axis=1) + beta[1] + coords @ beta[2:]
    return vals.reshape(domain.shape)


def _harmonic_lift(domain: GridDomain, ring_values: np.ndarray,
                   workers: int = None) -> np.ndarray:
    """Discrete harmonic extension of ring data (zero-Laplacian interior)."""
    shape = domain.shape
    core = _interior(shape)
    g = np.zeros(shape)
    ring = _boundary_ring(shape)
    g[ring] = ring_values[ring]
    # move the Dirichlet data to the right-hand side of the Laplace system
    h = domain.spacings
    rhs = np.zeros(tuple(s - 2 for s in shape))
    for a in range(len(shape)):
        rhs += _second_diff(g, a, h[a])
    # diag_means = 2 makes the surrogate exactly half the real Laplacian,
    # and the sine transform diagonalizes it, so this solve is direct
    pre = _DstPreconditioner(domain, [2.0] * domain.n, workers)
    out = g.copy()
    out[core] = 0.5 * pre.solve(rhs.ravel()).reshape(rhs.shape)
    return out


def default_init(prob: DirichletProblem, guard: float = 1e-12,
                 max_raises: int = 12, workers: int = None) -> GridField:
    """Quadratic boundary fit plus harmonic lift of the mismatch; the
    quadratic coefficient is raised until the FD Hessians are PD.
    `workers` threads run the lift's sine transforms (None: all cores)."""
    dom = prob.domain
    beta = _quadratic_fit(dom, prob.boundary)
    c = max(float(beta[0]), 0.25)
    for _ in range(max_raises):
        b = beta.copy()
        b[0] = c
        quad = _quadratic_values(dom, b)
        mismatch = prob.boundary.values - quad
        vals = quad + _harmonic_lift(dom, mismatch, workers)
        u = GridField(dom, vals)
        try:
            _checked_hessian(u, guard)
            return u
        except NotPlurisubharmonic:
            c *= 2.0
    raise NotPlurisubharmonic(
        "no plurisubharmonic default initialization found; supply init=")


def newton_solve(prob: DirichletProblem, cfg: NewtonConfig = NewtonConfig(),
                 init: GridField = None) -> dict:
    """Damped Newton on the log-det residual.

    Returns solution, iterations, final_residual, residual history and
    inner-iteration counts.  Raises NonConverged (carrying the best
    iterate) if max_iters is exhausted above tolerance.
    """
    dom = prob.domain
    shape = dom.shape
    core = _interior(shape)
    if init is None:
        init = default_init(prob, cfg.psd_guard, workers=cfg.workers)
    u = init.values.copy()
    ring = _boundary_ring(shape)
    u[ring] = prob.boundary.values[ring]  # Dirichlet data exact at every iterate
    cur = GridField(dom, u)
    res = residual(cur, prob, cfg.psd_guard)
    res_norm = float(np.max(np.abs(res.values)))
    history = [res_norm]
    inner_counts = []
    iterations = 0
    for _ in range(cfg.max_iters):
        if res_norm <= cfg.tol_residual:
            break
        iterations += 1
        op = assemble_linearization(cur, cfg.psd_guard)
        pre = _DstPreconditioner(dom, op.mean_diagonal(), cfg.workers)
        A = _interior_linop(op)
        M = spla.LinearOperator(A.shape, matvec=pre.solve)
        b = res.values[core].ravel()  # solve -L d = -res, i.e. A d = res
        eta = max(min(0.1, 0.5 * res_norm), cfg.inner_tol)
        count = [0]

        def cb(_):
            count[0] += 1

        d, info = spla.bicgstab(A, b, rtol=eta, atol=0.0, M=M,
                                maxiter=cfg.inner_maxiter, callback=cb)
        inner_counts.append(count[0])
        if info != 0 and not np.all(np.isfinite(d)):
            raise NonConverged({"reason": "inner solve failed", "iterations": iterations,
                                "final_residual": res_norm})
        step = np.zeros(shape)
        step[core] = d.reshape(tuple(s - 2 for s in shape))
        alpha = 1.0
        accepted = None
        while alpha >= cfg.min_step:
            cand = GridField(dom, u + alpha * step)
            try:
                cand_res = residual(cand, prob, cfg.psd_guard)
            except NotPlurisubharmonic:
                alpha *= 0.5
                continue
            cand_norm = float(np.max(np.abs(cand_res.values)))
            if cand_norm < res_norm:
                accepted = (cand, cand_res, cand_norm)
                break
            alpha *= 0.5
        if accepted is None:
            raise NotPlurisubharmonic(
                "line search found no feasible decreasing step")
        cur, res, res_norm = accepted
        u = cur.values
        history.append(res_norm)
    result = {
        "solution": cur,
        "iterations": iterations,
        "final_residual": res_norm,
        "residual_history": history,
        "inner_iterations": inner_counts,
    }
    if res_norm > cfg.tol_residual:
        raise NonConverged(result)
    return result

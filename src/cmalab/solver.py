"""Damped-Newton finite-difference solver for log det(u_ij) = F.

Box domains with Dirichlet data on a one-cell boundary ring.  The
linearization of log det at u is the trace operator v -> sum of
a^{ij} v_{ij} with a the inverse FD complex Hessian; Newton steps
solve it with BiCGStab preconditioned by a constant-coefficient
complex Laplacian inverted through fast sine transforms.  A halving
line search keeps every accepted iterate strictly plurisubharmonic
and the residual max-norm monotone.  Without an initial guess the
solve starts from `default_init`: a Poisson problem with the Dirichlet
data, solved directly by the same sine transforms.

Every complex dimension n keeps its operator coefficients in one real
layout, the coef order of cmalab.kernels.  The Hessian and the apply
always go through cmalab.kernels, looked up at call time: C when it
builds, else the numpy reference.  For n = 2 they are the full-grid
entry points `hessian_fields` and `apply_linearization`; for n >= 3,
`hessian_interior` and `apply_interior`, which write interior fields
into arrays the solver owns.  The n = 2
guard, log-det and inverse are closed forms (det, adjugate / det); for
n >= 3 they come from a field-wise LDL^H factorization of the
coef-order Hessian fields, each factor entry a whole interior array.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from itertools import combinations

import numpy as np
import scipy.fft as sfft
import scipy.sparse.linalg as spla

from . import kernels
from .errors import NonConverged, NotPlurisubharmonic
from .grid import GridDomain, GridField

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
    workers: int = None   # sine-transform workers; None: every usable core

    def __post_init__(self):
        if self.tol_residual <= 0:
            raise ValueError("tol_residual must be positive")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        # a zero step floor would let alpha halve to 0.0 and retry forever
        if not (math.isfinite(self.min_step) and self.min_step > 0):
            raise ValueError("min_step must be finite and positive")
        if not (math.isfinite(self.psd_guard) and self.psd_guard >= 0):
            raise ValueError("psd_guard must be finite and >= 0")
        if self.workers is not None and self.workers < 1:
            raise ValueError("workers must be >= 1")


def _interior(shape):
    return (slice(1, -1),) * len(shape)


# ---------------------------------------------------------------------------
# FD complex Hessians over the whole grid

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


def _first_bad_node(ok_interior):
    idx = np.unravel_index(int(np.argmin(ok_interior)), ok_interior.shape)
    return tuple(int(i) + 1 for i in idx)


def _checked_hessian(u: GridField, guard: float):
    """Interior FD complex Hessian of u, after the positive-definiteness guard.

    Returns (H, pivots); log det of the Hessian is the sum of the logs of
    the pivot fields.  For n = 2, H is the interior entry fields (h11,
    h22, hre, him) and pivots is (det,); the guard is h11 > guard and
    det > guard.  For n >= 3, H is the factor L and pivots are d of the
    field-wise factorization Hessian = L diag(d) L^H (`_ldlh`); the
    guard is `_margin_ok`, smallest eigenvalue > guard.  Raises
    NotPlurisubharmonic at the first node where the guard fails.
    """
    dom = u.domain
    if dom.n == 2:
        core = _interior(dom.shape)
        H = tuple(f[core] for f in kernels.hessian_fields(u.values, dom.spacings))
        h11, h22, hre, him = H
        det = h11 * h22 - hre ** 2 - him ** 2
        ok = (h11 > guard) & (det > guard)
    else:
        fields = tuple(np.empty(tuple(s - 2 for s in dom.shape))
                       for _ in range(dom.n ** 2))
        kernels.hessian_interior(u.values, dom.spacings, fields)
        ok = _margin_ok(fields, dom.n, guard)
    if not np.all(ok):
        raise NotPlurisubharmonic(_first_bad_node(ok))
    return (H, (det,)) if dom.n == 2 else _ldlh(fields, dom.n)


def residual(u: GridField, prob: DirichletProblem, guard: float = 1e-12) -> GridField:
    """Interior: log det(FD Hessian) - rhs.  Ring: u - boundary data."""
    shape = prob.domain.shape
    _, pivots = _checked_hessian(u, guard)
    logdet = sum(np.log(p) for p in pivots)
    out = u.values - prob.boundary.values
    core = _interior(shape)
    out[core] = logdet - prob.rhs.values[core]
    return GridField(prob.domain, out)


# ---------------------------------------------------------------------------
# linearization

@dataclass(frozen=True)
class WirtingerOperator:
    """v -> sum over i, j of a^{ij} v_{ij} with frozen coefficients a.

    `coef` holds real fields in the coef order of cmalab.kernels:
    a^{ii} for i = 1..n, then Re a^{ij}, Im a^{ij} for each i < j.  For
    n = 2 they are full grids with a zero ring, the layout of the
    kernels.apply_linearization entry point; for n >= 3 they cover the
    interior only, the layout of kernels.apply_interior, which keeps the
    larger grids small and writes straight into the interior of the
    zero-ring output.  Either way the stencil runs in C when it builds.
    """

    domain: GridDomain
    coef: tuple = field(repr=False)

    def apply(self, v: np.ndarray) -> np.ndarray:
        h = self.domain.spacings
        if self.domain.n == 2:
            return kernels.apply_linearization(*self.coef, v, h)
        out = np.zeros_like(v)
        kernels.apply_interior(self.coef, v, h, out[_interior(v.shape)])
        return out

    def mean_diagonal(self) -> tuple:
        """Interior means of the per-complex-axis diagonal coefficients."""
        diag = self.coef[:self.domain.n]
        if self.domain.n == 2:
            diag = tuple(c[_interior(self.domain.shape)] for c in diag)
        return tuple(float(np.mean(c)) for c in diag)


def assemble_linearization(u: GridField, guard: float = 1e-12) -> WirtingerOperator:
    """Inverse FD Hessian coefficients at every interior node."""
    dom = u.domain
    H, pivots = _checked_hessian(u, guard)
    if dom.n != 2:
        return WirtingerOperator(dom, _inverse_coef(H, pivots))
    h11, h22, hre, him = H
    det, = pivots
    core = _interior(dom.shape)
    coef = tuple(np.zeros(dom.shape) for _ in range(4))
    for c, num in zip(coef, (h22, h11, -hre, -him)):
        c[core] = num / det
    return WirtingerOperator(dom, coef)


# ---------------------------------------------------------------------------
# fast-sine-transform preconditioner (constant-coefficient surrogate)

class _DstPreconditioner:
    """Fast-diagonalization solve of the constant-coefficient surrogate
    (Lynch, Rice & Thomas 1964): a type-I sine transform pair on
    `workers` threads (None: every usable core).  The thread count does
    not change the result.

    The transforms run in `dtype`: float64 where the solve is direct,
    float32 where it only preconditions a Krylov solve (about 3e-7
    relative error, which moves the search directions; BiCGStab still
    measures its residual in float64).  The result is always a fresh
    float64 vector."""

    def __init__(self, domain: GridDomain, diag_means, workers: int = None,
                 dtype=np.float64):
        shape = tuple(s - 2 for s in domain.shape)
        h = domain.spacings
        lam = []
        for a, m in enumerate(shape):
            k = np.arange(1, m + 1)
            lam.append((2.0 - 2.0 * np.cos(k * math.pi / (m + 1))) / (h[a] * h[a]))
        eig = 0.0   # broadcast: only the last sum allocates a full array
        for i, c in enumerate(diag_means):
            xa, ya = 2 * i, 2 * i + 1
            sh = [1] * len(shape)
            sh[xa] = shape[xa]
            eig = eig + 0.25 * c * lam[xa].reshape(sh)
            sh = [1] * len(shape)
            sh[ya] = shape[ya]
            eig = eig + 0.25 * c * lam[ya].reshape(sh)
        self.shape = shape
        self.eig = eig.astype(dtype, copy=False)
        self.workers = workers or usable_cores()

    def solve(self, r: np.ndarray) -> np.ndarray:
        y = r.reshape(self.shape).astype(self.eig.dtype)
        y = sfft.dstn(y, type=1, workers=self.workers, overwrite_x=True)
        y /= self.eig
        y = sfft.idstn(y, type=1, workers=self.workers, overwrite_x=True)
        return y.astype(np.float64, copy=False).ravel()


def _interior_linop(op: WirtingerOperator):
    shape = op.domain.shape
    core = _interior(shape)
    m = int(np.prod([s - 2 for s in shape]))
    buf = np.zeros(shape)

    def mv(x):
        buf[core] = x.reshape(tuple(s - 2 for s in shape))
        out = op.apply(buf)
        return -out[core].ravel()  # negated: makes the operator positive

    return spla.LinearOperator((m, m), matvec=mv, dtype=np.float64)


# ---------------------------------------------------------------------------
# initialization and Newton iteration

def _quadratic_fit(domain: GridDomain, boundary: GridField) -> float:
    """Coefficient c of the least-squares fit c |x|^2 + affine to the ring
    values.  The affine columns stay in the fit because they move c."""
    shape = domain.shape
    ring = np.ones(shape, dtype=bool)
    ring[_interior(shape)] = False
    coords = []
    for a in range(len(shape)):
        sh = [1] * len(shape)
        sh[a] = -1
        coords.append(np.broadcast_to(domain.axis_coords(a).reshape(sh), shape)[ring])
    cols = [sum(x ** 2 for x in coords), np.ones(len(coords[0]))] + coords
    beta, *_ = np.linalg.lstsq(np.stack(cols, axis=1), boundary.values[ring], rcond=None)
    return float(beta[0])


def _poisson(domain: GridDomain, source, ring_values: np.ndarray = None,
             workers: int = None) -> np.ndarray:
    """Solution u of Δ_h u = source on the interior with u = ring_values on
    the ring (zero when None); Δ_h is the 3-point real Laplacian.

    `source` is a number or an interior array.  The ring enters Δ_h only
    through the interior faces next to it, so it moves there to the
    right-hand side.  diag_means = 4 makes the surrogate of
    `_DstPreconditioner` exactly -Δ_h on the interior, which the sine
    transform diagonalizes: one direct float64 solve."""
    shape = domain.shape
    inner = tuple(s - 2 for s in shape)
    h = domain.spacings
    core = _interior(shape)
    rhs = np.zeros(inner)
    rhs -= source
    if ring_values is None:
        out = np.zeros(shape)
    else:
        out = ring_values.copy()
        for a in range(len(shape)):
            for end in (0, -1):
                face, ring_face = [slice(None)] * len(shape), list(core)
                face[a] = ring_face[a] = end
                rhs[tuple(face)] += ring_values[tuple(ring_face)] / (h[a] * h[a])
    pre = _DstPreconditioner(domain, [4.0] * domain.n, workers)
    out[core] = pre.solve(rhs.ravel()).reshape(inner)
    return out


# candidates default_init tries: quadratic coefficients c0, 2 c0, ..., 2^11 c0
_INIT_CANDIDATES = 12


def default_init(prob: DirichletProblem, guard: float = 1e-12,
                 workers: int = None) -> GridField:
    """The discrete solution of Δ_h u = 4n c with the boundary data on
    the ring; c is raised until the FD Hessians are PD.

    Δ_h is exact on quadratics, Δ_h |x|^2 = 4n, and affine functions are
    discrete-harmonic, so the candidate of coefficient c is the quadratic
    c |x|^2 + affine plus the harmonic lift of its mismatch with the
    ring data.  c starts at c0, the fitted coefficient (at least 0.25),
    and doubles up to `_INIT_CANDIDATES` candidates in all.  Candidate c
    is u0 + (c - c0) b with b = `_poisson`(4n) on a zero ring: at most
    two direct solves per call, whatever the number of raises.
    `workers` threads run the sine transforms (None: all cores)."""
    dom = prob.domain
    c0 = c = max(_quadratic_fit(dom, prob.boundary), 0.25)
    u0 = vals = _poisson(dom, 4 * dom.n * c0, prob.boundary.values, workers)
    for k in range(_INIT_CANDIDATES):
        if k > 0:
            if k == 1:
                bubble = _poisson(dom, 4 * dom.n, workers=workers)
            c *= 2.0
            vals = u0 + (c - c0) * bubble
        u = GridField(dom, vals)
        try:
            _checked_hessian(u, guard)
            return u
        except NotPlurisubharmonic:
            pass
    raise NotPlurisubharmonic(
        message="no plurisubharmonic default initialization found; supply init=")


# cap on the BiCGStab iterations of one Newton step
_INNER_MAXITER = 400


def _forcing(res_norm: float, prev_norm: float, tol: float) -> float:
    """Relative tolerance of the inner solve at outer residual res_norm.

    Eisenstat-Walker choice 2 (gamma = 0.9, exponent 2), capped at 0.1:
    0.1 on the first Newton step (prev_norm None), then
    0.9 (res_norm / prev_norm)^2.  Kelley's floor 0.5 tol / res_norm
    stops the last inner solves from driving the linear residual far
    below what the outer tolerance asks (Eisenstat & Walker, SIAM J.
    Sci. Comput. 17, 1996; Kelley, Iterative Methods for Linear and
    Nonlinear Equations, SIAM 1995, ch. 6).  The cap makes the EW
    safeguard max(eta, 0.9 eta_prev^2) inert, so it is left out.
    """
    if prev_norm is None:
        return 0.1
    return min(0.1, max(0.9 * (res_norm / prev_norm) ** 2, 0.5 * tol / res_norm))


def newton_solve(prob: DirichletProblem, cfg: NewtonConfig = NewtonConfig(),
                 init: GridField = None) -> dict:
    """Damped Newton on the log-det residual.

    Each Newton step solves its linearization with BiCGStab to the
    relative tolerance `_forcing` sets.  Returns solution, iterations,
    final_residual, residual history, and per outer iteration the
    inner-iteration count (BiCGStab callbacks), the BiCGStab info code
    (nonzero: the inner solve stopped short of its tolerance, yet its
    finite step was used), `psolves`, the preconditioner-solve count,
    and per accepted line search `halvings`, its step halvings, of which
    `psh_rejects` rejected a candidate that was not plurisubharmonic.
    Raises NonConverged (carrying the best iterate) if max_iters is
    exhausted above tolerance.  When the inner solve fails, NonConverged
    carries the partial result: reason, iterations, final_residual and
    the per-iteration lists so far; when the line search finds no step,
    the NotPlurisubharmonic raised carries the same as its `result`,
    with that search's halvings and rejections last.
    """
    dom = prob.domain
    shape = dom.shape
    core = _interior(shape)
    if init is None:
        init = default_init(prob, cfg.psd_guard, workers=cfg.workers)
    u = prob.boundary.values.copy()   # Dirichlet data exact at every iterate
    u[core] = init.values[core]
    cur = GridField(dom, u)
    res = residual(cur, prob, cfg.psd_guard)
    res_norm = float(np.max(np.abs(res.values)))
    history = [res_norm]
    inner_counts = []
    inner_info = []
    psolves = []
    halvings = []
    psh_rejects = []
    iterations = 0

    def partial_result(reason):
        return {"reason": reason, "iterations": iterations,
                "final_residual": res_norm, "inner_info": inner_info,
                "psolves": psolves, "halvings": halvings,
                "psh_rejects": psh_rejects}

    for _ in range(cfg.max_iters):
        if res_norm <= cfg.tol_residual:
            break
        iterations += 1
        op = assemble_linearization(cur, cfg.psd_guard)
        pre = _DstPreconditioner(dom, op.mean_diagonal(), cfg.workers,
                                 dtype=np.float32)
        A = _interior_linop(op)
        psolve_count = [0]

        def psolve(r):
            psolve_count[0] += 1
            return pre.solve(r)

        # an explicit dtype spares LinearOperator its probing call
        M = spla.LinearOperator(A.shape, matvec=psolve, dtype=np.float64)
        b = res.values[core].ravel()  # solve -L d = -res, i.e. A d = res
        prev_norm = history[-2] if len(history) > 1 else None
        eta = _forcing(res_norm, prev_norm, cfg.tol_residual)
        count = [0]

        def cb(_):
            count[0] += 1

        d, info = spla.bicgstab(A, b, rtol=eta, atol=0.0, M=M,
                                maxiter=_INNER_MAXITER, callback=cb)
        # free this operator before the line search and the next assembly
        del op, pre, A, M
        inner_counts.append(count[0])
        inner_info.append(int(info))
        psolves.append(psolve_count[0])
        if info != 0 and not np.all(np.isfinite(d)):
            raise NonConverged(partial_result("inner solve failed"))
        step = np.zeros(shape)
        step[core] = d.reshape(tuple(s - 2 for s in shape))
        alpha = 1.0
        accepted = None
        halved = rejected = 0
        while alpha >= cfg.min_step:
            cand = GridField(dom, u + alpha * step)
            try:
                cand_res = residual(cand, prob, cfg.psd_guard)
            except NotPlurisubharmonic:
                rejected += 1
            else:
                cand_norm = float(np.max(np.abs(cand_res.values)))
                if cand_norm < res_norm:
                    accepted = (cand, cand_res, cand_norm)
                    break
            alpha *= 0.5
            halved += 1
        halvings.append(halved)
        psh_rejects.append(rejected)
        if accepted is None:
            raise NotPlurisubharmonic(
                "line search found no feasible decreasing step",
                result=partial_result("line search failed"))
        cur, res, res_norm = accepted
        u = cur.values
        history.append(res_norm)
    result = {
        "solution": cur,
        "iterations": iterations,
        "final_residual": res_norm,
        "residual_history": history,
        "inner_iterations": inner_counts,
        "inner_info": inner_info,
        "psolves": psolves,
        "halvings": halvings,
        "psh_rejects": psh_rejects,
    }
    if res_norm > cfg.tol_residual:
        raise NonConverged(result)
    return result

"""Damped-Newton finite-difference solver for log det(u_ij) = F.

Box domains with Dirichlet data on a one-cell boundary ring.  The
linearization of log det at u is the trace operator v -> sum of
a^{ij} v_{ij} with a the inverse FD complex Hessian; Newton steps
solve it with BiCGStab preconditioned by a constant-coefficient
complex Laplacian inverted through type-I sine transforms, each one
BLAS matrix product per axis with an orthonormal sine matrix.  A halving
line search keeps every accepted iterate strictly plurisubharmonic
and the residual max-norm monotone.  Without an initial guess the
solve starts from `default_init`: a Poisson problem with the Dirichlet
data, solved directly by the same sine transforms.

Every complex dimension n keeps its operator coefficients in one real
layout, the coef order of cmalab.kernels.  The Hessian and the apply
always go through cmalab.kernels, looked up at call time: C when it
builds, else the numpy reference.  For n = 2 they are the full-grid
entry points `hessian_fields` and `apply_linearization`, and the guard,
log-det and inverse are closed forms over the Hessian fields (det,
adjugate / det).  For n >= 3 the apply is `apply_interior`, and
`det_interior` and `inverse_interior` do the guard and the det or the
inverse coefficients in one pass over the grid, node by node: each
node's Hessian is factored as LDL^H, with no whole-array temporaries.
Their outputs are interior arrays the solver owns.  The n >= 3 guard is
"smallest eigenvalue > guard", checked at each node on the pivots of
H - guard I.

`newton_solve` works in one layout: the residual and BiCGStab's vectors
cover the interior.  The matvec writes each vector into the interior of
one zero-ring buffer that the solve owns and applies the operator to it,
and a line search candidate is a copy of the iterate with the scaled
step added on the interior.  Its work goes into one record of per-step lists, which
the result and the partial result of every failure carry.

`scipy.sparse.linalg` is imported inside `newton_solve`, the only code
that uses it, so it loads on the first Newton solve, not with the
package.  `spla.bicgstab` and `spla.LinearOperator` are looked up on
that module at call time, so patching them there still reaches the
solver.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import kernels
from .errors import NonConverged, NonFiniteSample, NotPlurisubharmonic
from .grid import GridDomain, GridField

__all__ = ["DirichletProblem", "NewtonConfig", "WirtingerOperator",
           "residual", "assemble_linearization", "newton_solve",
           "default_init"]


@dataclass(frozen=True)
class DirichletProblem:
    """log det(u_ij) = rhs in the interior, u = boundary on the ring."""

    domain: GridDomain
    rhs: GridField
    boundary: GridField
    Lambda: float = 10.0

    def __post_init__(self):
        if not (math.isfinite(self.Lambda) and self.Lambda > 0):
            raise ValueError(f"Lambda must be finite and positive, got {self.Lambda!r}")
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

    def __post_init__(self):
        # an infinite tolerance would accept any initial guess as the solution
        if not (math.isfinite(self.tol_residual) and self.tol_residual > 0):
            raise ValueError(f"tol_residual must be finite and positive, got {self.tol_residual!r}")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        # a zero step floor would let alpha halve to 0.0 and retry forever
        if not (math.isfinite(self.min_step) and self.min_step > 0):
            raise ValueError("min_step must be finite and positive")
        if not (math.isfinite(self.psd_guard) and self.psd_guard >= 0):
            raise ValueError("psd_guard must be finite and >= 0")


def _interior(shape):
    return (slice(1, -1),) * len(shape)


# ---------------------------------------------------------------------------
# FD complex Hessians over the whole grid

def _checked_hessian(u: GridField, guard: float, inverse: bool = False):
    """det of the interior FD complex Hessian of u, as a new interior
    array, or with `inverse` the coef-order coefficients of its inverse,
    after the positive-definiteness guard; raises NotPlurisubharmonic at
    the first node where it fails.

    For n = 2 the guard and both outputs are closed forms over the Hessian
    fields: h11 > guard and det > guard; det = h11 h22 - |h12|^2; the
    inverse as adjugate / det in full grids with a zero ring.  For n >= 3
    one kernel pass does it all node by node (kernels.det_interior,
    kernels.inverse_interior): the guard is that the smallest eigenvalue
    exceeds `guard`, checked on the pivots of the LDL^H factorization of
    H - guard I, and the inverse covers the interior only.
    """
    dom = u.domain
    inner = tuple(s - 2 for s in dom.shape)
    if dom.n == 2:
        core = _interior(dom.shape)
        h11, h22, hre, him = (f[core] for f in kernels.hessian_fields(u.values, dom.spacings))
        out = det = h11 * h22 - hre ** 2 - him ** 2
        ok = (h11 > guard) & (det > guard)
        bad = -1 if np.all(ok) else int(np.argmin(ok))
        if inverse and bad < 0:
            out = tuple(np.zeros(dom.shape) for _ in range(4))
            for c, num in zip(out, (h22, h11, -hre, -him)):
                c[core] = num / det
    elif inverse:
        out = tuple(np.empty(inner) for _ in range(dom.n ** 2))
        bad = kernels.inverse_interior(u.values, dom.spacings, guard, out)
    else:
        out = np.empty(inner)
        bad = kernels.det_interior(u.values, dom.spacings, guard, out)
    if bad >= 0:
        raise NotPlurisubharmonic(tuple(int(i) + 1 for i in np.unravel_index(bad, inner)))
    return out


def residual(u: GridField, prob: DirichletProblem, guard: float = 1e-12) -> np.ndarray:
    """log det(FD Hessian) - rhs as a new interior array."""
    res = _checked_hessian(u, guard)
    np.log(res, out=res)
    res -= prob.rhs.values[_interior(prob.domain.shape)]
    return res


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
    return WirtingerOperator(u.domain, _checked_hessian(u, guard, inverse=True))


# ---------------------------------------------------------------------------
# fast-sine-transform preconditioner (constant-coefficient surrogate)

class _DstPreconditioner:
    """Fast-diagonalization solve of the constant-coefficient surrogate
    (Lynch, Rice & Thomas 1964).  Each type-I sine transform is one BLAS
    matrix product per axis with the orthonormal DST-I matrix
    S = sqrt(2/(m+1)) sin(jk pi/(m+1)), which is symmetric and its own
    inverse; BLAS runs it on the threads the environment gives it at
    process start.

    The products run in `dtype`: float64 where the solve is direct,
    float32 where it only preconditions a Krylov solve (about 3e-7
    relative error, which moves the search directions; BiCGStab still
    measures its residual in float64).  They alternate between a work
    vector the preconditioner owns and the memory of the result, which
    is always a fresh float64 vector."""

    def __init__(self, domain: GridDomain, diag_means, dtype=np.float64):
        shape = tuple(s - 2 for s in domain.shape)
        h = domain.spacings
        eig = 0.0   # broadcast: only the last sum allocates a full array
        self.sines = []
        for a, m in enumerate(shape):
            k = np.arange(1, m + 1)
            lam = (2.0 - 2.0 * np.cos(k * math.pi / (m + 1))) / (h[a] * h[a])
            axis = [m if b == a else 1 for b in range(len(shape))]
            eig = eig + 0.25 * diag_means[a // 2] * lam.reshape(axis)
            sine = math.sqrt(2.0 / (m + 1)) * np.sin(np.outer(k, k) * math.pi / (m + 1))
            self.sines.append(sine.astype(dtype))
        self.shape = shape
        self.eig = eig.astype(dtype, copy=False).ravel()
        self.work = np.empty(self.eig.size, dtype)

    def _transform(self, y, z):
        # each product transforms the leading axis of y and rotates it to
        # the back, so the 2n products (an even count) leave the axes in
        # order and the result in y, with no transpose copies
        for S in self.sines:
            m = S.shape[0]
            np.matmul(y.reshape(m, -1).T, S, out=z.reshape(-1, m))
            y, z = z, y

    def solve(self, r: np.ndarray) -> np.ndarray:
        out = np.empty(r.size)
        # the result's own memory is the second work vector until the end
        y, z = self.work, out.view(self.work.dtype)[:r.size]
        np.copyto(y, r, casting="same_kind")
        self._transform(y, z)
        y /= self.eig
        self._transform(y, z)
        np.copyto(out, y)
        return out


# ---------------------------------------------------------------------------
# initialization and Newton iteration

def _quadratic_fit(domain: GridDomain, boundary: GridField) -> float:
    """Coefficient c of the least-squares fit c |x|^2 + affine to the ring
    values g.  With t = x less the box midpoint, the ring is symmetric
    under every reflection t_a -> -t_a, so the affine columns are
    orthogonal to q = |t|^2 less its ring mean: c = sum q g / sum q^2.
    Both sums run over the 4n disjoint face slabs of the ring, each a
    product of 1-d node sets (face (a, end): the interior nodes on the axes
    before a, the end node on axis a, every node after it), as 1-d sums."""
    values = boundary.values
    d = values.ndim
    t2 = [(domain.axis_coords(a) - domain.center[a]) ** 2 for a in range(d)]
    faces = [(values[(slice(1, -1),) * a + (end,)],
              [x[1:-1] for x in t2[:a]] + [t2[a][end]] + t2[a + 1:])
             for a in range(d) for end in (slice(0, 1), slice(-1, None))]
    q_mean = sum(f.size * sum(map(np.mean, sq)) for f, sq in faces) / sum(f.size for f, _ in faces)
    num = den = 0.0
    for face, sq in faces:
        # the axes vary independently over a face: var |t|^2 = sum var t_a^2
        q = sum(map(np.mean, sq)) - q_mean
        den += face.size * (sum(map(np.var, sq)) + q * q)
        for b, s in enumerate(sq):
            num += face.sum(axis=tuple(c for c in range(d) if c != b)) @ (s - q_mean / d)
    return float(num / den)


def _poisson(domain: GridDomain, source, ring_values: np.ndarray = None) -> np.ndarray:
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
    pre = _DstPreconditioner(domain, [4.0] * domain.n)
    out[core] = pre.solve(rhs.ravel()).reshape(inner)
    return out


# candidates default_init tries: quadratic coefficients c0, 2 c0, ..., 2^11 c0
_INIT_CANDIDATES = 12


def default_init(prob: DirichletProblem, guard: float = 1e-12) -> GridField:
    """The discrete solution of Δ_h u = 4n c with the boundary data on
    the ring; c is raised until the FD Hessians are PD.

    Δ_h is exact on quadratics, Δ_h |x|^2 = 4n, and affine functions are
    discrete-harmonic, so the candidate of coefficient c is the quadratic
    c |x|^2 + affine plus the harmonic lift of its mismatch with the
    ring data.  c starts at c0, the fitted coefficient (at least 0.25),
    and doubles up to `_INIT_CANDIDATES` candidates in all.  Candidate c
    is u0 + (c - c0) b with b = `_poisson`(4n) on a zero ring: at most
    two direct solves per call, whatever the number of raises."""
    dom = prob.domain
    c0 = c = max(_quadratic_fit(dom, prob.boundary), 0.25)
    u0 = vals = _poisson(dom, 4 * dom.n * c0, prob.boundary.values)
    for k in range(_INIT_CANDIDATES):
        if k > 0:
            if k == 1:
                bubble = _poisson(dom, 4 * dom.n)
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
    relative tolerance `_forcing` sets.  The solve keeps one record:
    iterations, final_residual, residual_history, and per outer iteration
    `inner_iterations` (BiCGStab callbacks), `inner_info`, the BiCGStab
    info code (nonzero: the inner solve stopped short of its tolerance,
    yet its finite step was used), `psolves`, the preconditioner-solve
    count, and per line search `halvings`, its step halvings, of which
    `psh_rejects` rejected a candidate that was not plurisubharmonic.
    Returns the record with the solution.  Raises NonConverged carrying
    the record with the best iterate if max_iters is exhausted above
    tolerance.  A failure on the way carries the record so far with its
    `reason`: NonConverged when the inner solve fails, the
    NotPlurisubharmonic raised as its `result` when the line search finds
    no step, with that search's halvings and rejections last.  A det that
    overflows in the initial residual raises NonFiniteSample at its node.
    """
    import scipy.sparse.linalg as spla  # on first use only: see the module docstring
    dom = prob.domain
    shape = dom.shape
    core = _interior(shape)
    inner = tuple(s - 2 for s in shape)
    if init is None:
        init = default_init(prob, cfg.psd_guard)
    u = prob.boundary.values.copy()   # Dirichlet data exact at every iterate
    u[core] = init.values[core]
    cur = GridField(dom, u)
    res = residual(cur, prob, cfg.psd_guard)
    res_norm = float(np.max(np.abs(res)))
    if not math.isfinite(res_norm):
        bad = np.unravel_index(int(np.argmin(np.isfinite(res))), inner)
        raise NonFiniteSample(tuple(int(i) + 1 for i in bad), float(res[bad]))
    history = [res_norm]
    record = {"iterations": 0, "final_residual": res_norm, "residual_history": history,
              "inner_iterations": [], "inner_info": [], "psolves": [], "halvings": [],
              "psh_rejects": []}
    buf = np.zeros(shape)   # the Krylov vector on the interior, a zero ring round it

    def matvec(x):
        buf[core] = x.reshape(inner)
        return -op.apply(buf)[core].ravel()  # negated: makes the operator positive

    def psolve(r):
        record["psolves"][-1] += 1
        return pre.solve(r)

    def callback(_):
        record["inner_iterations"][-1] += 1

    # an explicit dtype spares LinearOperator its probing call
    m = buf[core].size
    A = spla.LinearOperator((m, m), matvec=matvec, dtype=np.float64)
    M = spla.LinearOperator((m, m), matvec=psolve, dtype=np.float64)
    for _ in range(cfg.max_iters):
        if res_norm <= cfg.tol_residual:
            break
        record["iterations"] += 1
        op = assemble_linearization(cur, cfg.psd_guard)
        pre = _DstPreconditioner(dom, op.mean_diagonal(), dtype=np.float32)
        eta = _forcing(res_norm, history[-2] if len(history) > 1 else None,
                       cfg.tol_residual)
        record["inner_iterations"].append(0)
        record["psolves"].append(0)
        # solve -L d = -res, i.e. A d = res
        d, info = spla.bicgstab(A, res.ravel(), rtol=eta, atol=0.0, M=M,
                                maxiter=_INNER_MAXITER, callback=callback)
        # free this operator before the line search and the next assembly
        del op, pre
        record["inner_info"].append(int(info))
        if info != 0 and not np.all(np.isfinite(d)):
            raise NonConverged({"reason": "inner solve failed", **record})
        d = d.reshape(inner)
        alpha = 1.0
        accepted = None
        halved = rejected = 0
        while alpha >= cfg.min_step:
            vals = u.copy()
            vals[core] += alpha * d
            cand = GridField(dom, vals)
            try:
                cand_res = residual(cand, prob, cfg.psd_guard)
            except NotPlurisubharmonic:
                rejected += 1
            else:
                cand_norm = float(np.max(np.abs(cand_res)))
                if cand_norm < res_norm:   # false for a non-finite norm
                    accepted = (cand, cand_res, cand_norm)
                    break
            alpha *= 0.5
            halved += 1
        record["halvings"].append(halved)
        record["psh_rejects"].append(rejected)
        if accepted is None:
            raise NotPlurisubharmonic(
                "line search found no feasible decreasing step",
                result={"reason": "line search failed", **record})
        cur, res, res_norm = accepted
        u = cur.values
        history.append(res_norm)
        record["final_residual"] = res_norm
    result = {"solution": cur, **record}
    if res_norm > cfg.tol_residual:
        raise NonConverged(result)
    return result

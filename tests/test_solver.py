import os
import subprocess
import sys
import warnings
from itertools import combinations

import numpy as np
import pytest
import scipy.fft as sfft
import scipy.sparse.linalg as spla

from cmalab import kernels, solver
from cmalab.errors import NonConverged, NonFiniteSample, NotPlurisubharmonic
from cmalab.families import SolutionFamily, eval_rhs
from cmalab.grid import GridDomain, GridField, _second_diff, sample
from cmalab.kernels import fallback
from cmalab.kernels.fallback import _inverse_coef, _ldlh, _margin_ok
from cmalab.cli import main
from test_kernels import IMPLS, first_bad_index_by_eigvalsh, margin_grid, psh_grid
from cmalab.solver import (DirichletProblem, NewtonConfig, _DstPreconditioner, _forcing,
                           _poisson, _quadratic_fit, assemble_linearization, default_init,
                           newton_solve, residual)


def box(points, n=2, hw=1.0):
    return GridDomain(np.zeros(2 * n), np.full(2 * n, hw), (points,) * (2 * n))


def sq_modulus(dom):
    coords = dom.node_coords_flat()
    return GridField(dom, np.sum(coords ** 2, axis=1).reshape(dom.shape))


def manufactured(points, eps=1.0, n=2):
    fam = SolutionFamily("pogorelov2" if n == 2 else "pogorelov_n", n, eps)
    dom = box(points, n)
    oracle = sample(dom, fam.value)
    rhs = GridField(dom, np.log(eval_rhs(fam, dom.node_coords_flat())).reshape(dom.shape))
    return DirichletProblem(dom, rhs, oracle), oracle


def dense_stack(fields, n):
    """(nodes..., n, n) complex matrix stack from coef-order fields."""
    H = np.empty(fields[0].shape + (n, n), dtype=complex)
    for i in range(n):
        H[..., i, i] = fields[i]
    for re, im, (i, j) in zip(fields[n::2], fields[n + 1::2], combinations(range(n), 2)):
        H[..., i, j] = re + 1j * im
        H[..., j, i] = re - 1j * im
    return H


def coef_fields(H):
    """Coef-order real fields of a Hermitian (nodes..., n, n) stack."""
    n = H.shape[-1]
    fields = [np.ascontiguousarray(H[..., i, i].real) for i in range(n)]
    for i, j in combinations(range(n), 2):
        fields += [np.ascontiguousarray(H[..., i, j].real),
                   np.ascontiguousarray(H[..., i, j].imag)]
    return fields


def reference_hessian(u):
    """Interior FD complex-Hessian fields of u from the numpy reference."""
    shape = tuple(s - 2 for s in u.domain.shape)
    fields = tuple(np.empty(shape) for _ in range(u.domain.n ** 2))
    fallback.hessian_interior(u.values, u.domain.spacings, fields)
    return fields


def random_pd_stack(n, nodes, seed=0):
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(nodes, n, n)) + 1j * rng.normal(size=(nodes, n, n))
    return A @ A.conj().swapaxes(-1, -2) + 0.5 * np.eye(n)


def first_bad_by_eigvalsh(u, guard=1e-12):
    """The first failing interior node of the rule eigvalsh(H)[..., 0] > guard."""
    fields = reference_hessian(u)
    ok = np.linalg.eigvalsh(dense_stack(fields, u.domain.n))[..., 0] > guard
    idx = np.unravel_index(int(np.argmin(ok)), ok.shape)
    return tuple(int(i) + 1 for i in idx)


def test_residual_squared_modulus():
    dom = box(9)
    u = sq_modulus(dom)
    prob = DirichletProblem(dom, GridField(dom, np.zeros(dom.shape)), u)
    r = residual(u, prob)
    assert np.max(np.abs(r)) < 1e-11


def test_residual_logdet_homogeneity():
    dom = box(9)
    u = sq_modulus(dom)
    c = 3.0
    scaled = GridField(dom, c * u.values)
    prob = DirichletProblem(dom, GridField(dom, np.zeros(dom.shape)), scaled)
    r = residual(scaled, prob)
    assert r.shape == (7,) * 4
    assert np.allclose(r, 2.0 * np.log(c))


def test_residual_manufactured_second_order():
    errs = []
    for points in (9, 17):
        prob, oracle = manufactured(points)
        errs.append(np.max(np.abs(residual(oracle, prob))))
    assert 3.0 < errs[0] / errs[1] < 5.0


def test_residual_rejects_concave():
    dom = box(9)
    u = GridField(dom, -sq_modulus(dom).values)
    prob = DirichletProblem(dom, GridField(dom, np.zeros(dom.shape)), u)
    with pytest.raises(NotPlurisubharmonic):
        residual(u, prob)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_fieldwise_ldlh_matches_lapack(n):
    H = random_pd_stack(n, 500, seed=n)
    fields = coef_fields(H)
    L, d = _ldlh(fields, n)
    logdet = sum(np.log(p) for p in d)
    assert np.allclose(logdet, np.sum(np.log(np.linalg.eigvalsh(H)), axis=-1),
                       rtol=0.0, atol=1e-12)
    a = dense_stack(_inverse_coef(L, d), n)
    assert np.allclose(a, np.linalg.inv(H), rtol=0.0, atol=1e-12)
    # the fused entry points of each implementation, on a grid
    u, h = psh_grid(n, seed=n)
    inner = tuple(s - 2 for s in u.shape)
    fields = tuple(np.empty(inner) for _ in range(n * n))
    fallback.hessian_interior(u, h, fields)
    H = dense_stack(fields, n)
    for impl in IMPLS:
        det, coef = np.empty(inner), tuple(np.empty(inner) for _ in range(n * n))
        assert impl.det_interior(u, h, 1e-12, det) == -1
        assert impl.inverse_interior(u, h, 1e-12, coef) == -1
        assert np.allclose(np.log(det), np.sum(np.log(np.linalg.eigvalsh(H)), axis=-1),
                           rtol=0.0, atol=1e-12)
        assert np.allclose(dense_stack(coef, n), np.linalg.inv(H), rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("guard", [1e-12, 1e-3])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_fieldwise_guard_matches_eigvalsh(n, guard):
    H = random_pd_stack(n, 200, seed=10 + n)
    # diagonal nodes with smallest eigenvalue 2 guard and guard / 2
    H[0] = np.diag([1.0] * (n - 1) + [2.0 * guard])
    H[1] = np.diag([0.5 * guard] + [1.0] * (n - 1))
    H[2, 0, 1] = H[2, 1, 0] = np.nan
    H[3] *= -1.0
    fields = coef_fields(H)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ok = _margin_ok(fields, n, guard)
    # eigvalsh of a matrix with a nan entry gives nan, which fails the
    # rule, or raises LinAlgError; so the rule runs on the finite nodes
    finite = np.all(np.isfinite(H), axis=(-2, -1))
    expected = np.zeros(len(H), dtype=bool)
    expected[finite] = np.linalg.eigvalsh(H[finite])[..., 0] > guard
    assert expected[0] and not expected[1] and not expected[2] and not expected[3]
    assert np.array_equal(ok, expected)
    # the fused entry points of each implementation, on grids: one that
    # passes, one with a concave node, one with a nan node, and one whose
    # first failing node has smallest eigenvalue 3/4 guard after one at
    # 3/2 guard
    u, h = psh_grid(n, seed=20 + n)
    node = tuple(m // 2 for m in u.shape)
    concave, nan = u.copy(), u.copy()
    concave[node] += 10.0
    nan[node] = np.nan
    margin, margin_guard = margin_grid(n)
    margin *= guard / margin_guard
    inner = tuple(s - 2 for s in u.shape)
    for grid, first in ((u, -1), (concave, None), (nan, None), (margin, 1)):
        expected = first_bad_index_by_eigvalsh(grid, h, guard)
        assert first is None or expected == first
        for impl in IMPLS:
            assert impl.det_interior(grid, h, guard, np.empty(inner)) == expected
            coef = tuple(np.empty(inner) for _ in range(n * n))
            assert impl.inverse_interior(grid, h, guard, coef) == expected


def non_psh_n3(kind):
    """A 7^6 grid function that is not plurisubharmonic, and its problem."""
    dom = box(7, n=3)
    c = dom.node_coords_flat()
    if kind == "concave":
        vals = -np.sum(c ** 2, axis=1)
    else:
        # u_{3 3bar} = 1 - 2.25 y3 with a cross term: fails at y3 = 2/3 only
        vals = np.sum(c ** 2, axis=1) - 1.5 * c[:, 5] ** 3 + 0.5 * c[:, 0] * c[:, 2]
    u = GridField(dom, vals.reshape(dom.shape))
    return u, DirichletProblem(dom, GridField(dom, np.zeros(dom.shape)), u)


@pytest.mark.parametrize("kind", ["concave", "cubic"])
def test_residual_rejects_non_psh_n3(kind):
    u, prob = non_psh_n3(kind)
    with pytest.raises(NotPlurisubharmonic) as exc:
        residual(u, prob)
    assert exc.value.node == first_bad_by_eigvalsh(u)
    if kind == "cubic":
        assert exc.value.node == (1, 1, 1, 1, 1, 5)


def test_rejected_node_is_the_fieldwise_guards():
    # the node the fused kernels report is the first that the field-wise
    # guard of the numpy reference fails
    u, prob = non_psh_n3("cubic")
    ok = _margin_ok(reference_hessian(u), 3, 1e-12)
    node = tuple(int(i) + 1 for i in np.unravel_index(int(np.argmin(ok)), ok.shape))
    for call in (lambda: residual(u, prob), lambda: assemble_linearization(u)):
        with pytest.raises(NotPlurisubharmonic) as exc:
            call()
        assert exc.value.node == node


def test_n3_paths_call_no_lapack(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("per-node LAPACK call on the n >= 3 path")

    prob, oracle = manufactured(7, n=3)
    monkeypatch.setattr(np.linalg, "eigvalsh", forbidden)
    monkeypatch.setattr(np.linalg, "inv", forbidden)
    assert np.all(np.isfinite(residual(oracle, prob)))
    op = assemble_linearization(oracle)
    assert len(op.coef) == 9
    init = default_init(prob)
    assert np.all(np.isfinite(residual(init, prob)))


def test_problem_validation():
    dom = box(9)
    u = sq_modulus(dom)
    big = GridField(dom, np.full(dom.shape, 3.0))
    with pytest.raises(ValueError):
        DirichletProblem(dom, big, u, Lambda=1.0)


def test_linearization_identity_coefficients():
    dom = box(9)
    u = sq_modulus(dom)
    op = assemble_linearization(u)
    # the operator on the squared modulus itself returns the trace (= 2)
    out = op.apply(u.values)
    core = (slice(2, -2),) * 4
    assert np.allclose(out[core], 2.0)
    assert np.allclose(op.apply(np.ones(dom.shape))[core], 0.0)
    interior = (slice(1, -1),) * 4
    assert np.allclose(op.coef[0][interior] + op.coef[1][interior], 2.0)


def test_linearization_diagonal_inverse():
    dom = box(9)
    coords = dom.node_coords_flat()
    # Hessian diag(2, 1/2) -> coefficients diag(1/2, 2)
    vals = 2.0 * (coords[:, 0] ** 2 + coords[:, 1] ** 2) \
        + 0.5 * (coords[:, 2] ** 2 + coords[:, 3] ** 2)
    u = GridField(dom, vals.reshape(dom.shape))
    op = assemble_linearization(u)
    core = (slice(1, -1),) * 4
    assert np.allclose(op.coef[0][core], 0.5)
    assert np.allclose(op.coef[1][core], 2.0)


@pytest.mark.parametrize("n, points", [(2, 9), (3, 7)])
def test_linearization_ellipticity(n, points):
    prob, oracle = manufactured(points, n=n)
    op = assemble_linearization(oracle)
    fields = reference_hessian(oracle)
    H = dense_stack(fields, n)
    core = (slice(1, -1),) * (2 * n)
    coef = op.coef if n > 2 else tuple(c[core] for c in op.coef)
    a = dense_stack(coef, n)
    assert np.allclose(a, np.linalg.inv(H), rtol=0.0, atol=1e-12)
    rng = np.random.default_rng(0)
    xi = rng.normal(size=n) + 1j * rng.normal(size=n)
    quad = np.einsum("i,...ij,j->...", xi.conj(), a, xi).real
    lap = np.einsum("...ii->...", H).real
    assert np.all(quad * lap >= np.vdot(xi, xi).real - 1e-8)


@pytest.mark.parametrize("n, points", [(2, 9), (3, 7)])
def test_linearization_consistency(n, points):
    # the operator is the derivative of the residual: central difference
    prob, oracle = manufactured(points, n=n)
    dom = prob.domain
    coords = dom.node_coords_flat()
    v = np.cos(coords[:, 0]) * np.sin(coords[:, 1] + 0.3)
    for a, k in zip(range(2, 2 * n), (0.7, 0.5, 0.6, 0.4)):
        v = v * np.cos(k * coords[:, a])
    v = v.reshape(dom.shape)
    core = (slice(1, -1),) * (2 * n)
    ring = np.ones(dom.shape, dtype=bool)
    ring[core] = False
    v[ring] = 0.0
    t = 1e-5
    r_plus = residual(GridField(dom, oracle.values + t * v), prob)
    r_minus = residual(GridField(dom, oracle.values - t * v), prob)
    op = assemble_linearization(oracle)
    gap = (r_plus - r_minus) / (2 * t) - op.apply(v)[core]
    assert np.max(np.abs(gap)) < 1e-5


def test_n3_apply_has_a_zero_ring_and_the_interior_kernel():
    prob, oracle = manufactured(7, n=3)
    dom = prob.domain
    op = assemble_linearization(oracle)
    v = np.random.default_rng(3).normal(size=dom.shape)
    out = op.apply(v)
    core = (slice(1, -1),) * 6
    ring = np.ones(dom.shape, dtype=bool)
    ring[core] = False
    want = np.empty(tuple(s - 2 for s in dom.shape))
    kernels.apply_interior(op.coef, v, dom.spacings, want)
    assert out.shape == dom.shape
    assert not np.any(out[ring])
    assert np.array_equal(out[core], want)


def test_newton_squared_modulus():
    dom = box(9)
    u = sq_modulus(dom)
    prob = DirichletProblem(dom, GridField(dom, np.zeros(dom.shape)), u)
    out = newton_solve(prob, NewtonConfig(tol_residual=1e-10))
    assert out["iterations"] <= 6
    assert np.max(np.abs(out["solution"].values - u.values)) < 1e-8


def test_newton_manufactured_mesh_convergence():
    errs = {}
    iters = {}
    for points in (9, 17):
        prob, oracle = manufactured(points)
        out = newton_solve(prob, NewtonConfig(tol_residual=1e-10))
        errs[points] = np.max(np.abs(out["solution"].values - oracle.values))
        iters[points] = out["iterations"]
        hist = out["residual_history"]
        assert all(a > b for a, b in zip(hist, hist[1:]))
    assert 3.0 < errs[9] / errs[17] < 5.0


def test_newton_generic_dimension_path():
    # ambient complex dimension 3 runs the field-wise LDL^H guard and inverse
    prob, oracle = manufactured(7, n=3)
    out = newton_solve(prob, NewtonConfig(tol_residual=1e-9, max_iters=15))
    assert out["final_residual"] <= 1e-9
    assert np.max(np.abs(out["solution"].values - oracle.values)) < 0.05


@pytest.mark.skipif(kernels.IMPL == "numpy", reason="C kernels not built")
def test_newton_n3_fallback_parity(monkeypatch):
    # the numpy kernels, put in place of the C ones, take the same Newton path
    prob, _ = manufactured(7, n=3)
    cfg = NewtonConfig(tol_residual=1e-9, max_iters=15)
    out = newton_solve(prob, cfg)

    def no_call(*args):
        raise AssertionError("C kernel called")

    native = kernels._impl
    for name in ("_hessian", "_apply", "_det", "_inverse"):
        monkeypatch.setattr(native, name, no_call)
    monkeypatch.setattr(kernels, "_impl", fallback)
    for name in ("hessian_interior", "apply_interior", "det_interior", "inverse_interior"):
        monkeypatch.setattr(kernels, name, getattr(fallback, name))
    ref = newton_solve(prob, cfg)
    assert ref["iterations"] == out["iterations"]
    assert np.max(np.abs(ref["solution"].values - out["solution"].values)) < 1e-12


def test_newton_near_degenerate_telemetry():
    prob, oracle = manufactured(9, eps=0.05)
    out = newton_solve(prob, NewtonConfig(tol_residual=1e-9, max_iters=30))
    # convergence is recorded, the iteration count is telemetry only
    assert out["final_residual"] <= 1e-9
    assert out["iterations"] >= 1


def test_comparison_principle():
    # raising the rhs never raises the interior solution
    dom = box(9)
    core = (slice(1, -1),) * 4
    for eps in (1.0, 0.7, 0.5, 0.3, 0.2):
        fam = SolutionFamily("pogorelov2", 2, eps)
        oracle = sample(dom, fam.value)
        base = np.log(eval_rhs(fam, dom.node_coords_flat())).reshape(dom.shape)
        lo = newton_solve(DirichletProblem(dom, GridField(dom, base), oracle),
                          NewtonConfig(tol_residual=1e-10))
        hi = newton_solve(DirichletProblem(dom, GridField(dom, base + 0.2), oracle),
                          NewtonConfig(tol_residual=1e-10))
        diff = hi["solution"].values[core] - lo["solution"].values[core]
        assert np.max(diff) <= 1e-10


def test_default_init_is_psh():
    prob, _ = manufactured(9)
    init = default_init(prob)
    r = residual(init, prob)  # raises if the init is not plurisubharmonic
    assert np.all(np.isfinite(r))


def ring_mask(shape):
    ring = np.ones(shape, dtype=bool)
    ring[(slice(1, -1),) * len(shape)] = False
    return ring


def full_quadratic_fit(dom, g, affine=True):
    """Least-squares (c, constant, linear coefficients) of c |x|^2 + affine
    to the ring values of g; without `affine`, the coefficient c alone of
    the fit by |x - midpoint|^2 less its ring mean."""
    coords = dom.node_coords_flat()[ring_mask(dom.shape).ravel()]
    if affine:
        A = np.column_stack([np.sum(coords ** 2, axis=1), np.ones(len(coords)), coords])
    else:
        q = np.sum((coords - dom.center) ** 2, axis=1)
        A = (q - q.mean())[:, None]
    return np.linalg.lstsq(A, g[ring_mask(dom.shape)], rcond=None)[0]


def harmonic_lift(dom, ring_values):
    """Zero-Laplacian interior extension of ring data: the ring moved to
    the right-hand side through full-grid second differences, then one
    direct sine-transform solve of half the Laplacian."""
    ring = ring_mask(dom.shape)
    g = np.where(ring, ring_values, 0.0)
    rhs = sum(_second_diff(g, a, dom.spacings[a]) for a in range(2 * dom.n))
    pre = _DstPreconditioner(dom, [2.0] * dom.n)
    g[~ring] = 0.5 * pre.solve(rhs.ravel())
    return g


def lifted_quadratic(prob, c):
    """The candidate of coefficient c built the long way: the quadratic
    fit, its coefficient set to c, plus the harmonic lift of its mismatch."""
    dom = prob.domain
    beta = full_quadratic_fit(dom, prob.boundary.values)
    coords = dom.node_coords_flat()
    quad = (c * np.sum(coords ** 2, axis=1) + beta[1] + coords @ beta[2:]).reshape(dom.shape)
    return quad + harmonic_lift(dom, prob.boundary.values - quad)


def first_coefficient(prob):
    return max(float(full_quadratic_fit(prob.domain, prob.boundary.values)[0]), 0.25)


@pytest.mark.parametrize("ring", ["zero", "data"])
@pytest.mark.parametrize("points, n", [(9, 2), (7, 3)])
def test_poisson_meets_source_and_ring(points, n, ring):
    dom = box(points, n)
    rng = np.random.default_rng(points)
    inner = tuple(s - 2 for s in dom.shape)
    source = 4.0 * n if ring == "zero" else rng.normal(size=inner)
    g = None if ring == "zero" else sq_modulus(dom).values + rng.normal(size=dom.shape)
    u = _poisson(dom, source, g)
    mask = ring_mask(dom.shape)
    expected = np.zeros(dom.shape) if g is None else g
    assert u[mask].tobytes() == expected[mask].tobytes()
    lap = sum(_second_diff(u, a, dom.spacings[a]) for a in range(2 * n))
    assert np.max(np.abs(lap - source)) < 1e-10
    if g is None:   # the raise's direction: |x|^2 minus its harmonic lift
        sq = sq_modulus(dom).values
        assert np.max(np.abs(u - (sq - harmonic_lift(dom, sq)))) < 1e-13


def test_raised_default_init_matches_per_raise_lifts(monkeypatch):
    calls = [0]
    real = solver._checked_hessian

    def counting(u, guard):
        calls[0] += 1
        return real(u, guard)

    monkeypatch.setattr(solver, "_checked_hessian", counting)
    for points, n in ((9, 2), (7, 3)):
        prob, _ = manufactured(points, eps=0.05, n=n)
        calls[0] = 0
        init = default_init(prob)
        raised_calls, calls[0] = calls[0], 0
        # a fresh quadratic and lift per raise
        c = first_coefficient(prob)
        while True:
            ref = GridField(prob.domain, lifted_quadratic(prob, c))
            try:
                solver._checked_hessian(ref, 1e-12)
                break
            except NotPlurisubharmonic:
                c *= 2.0
        assert raised_calls == calls[0] == 2   # one raise
        assert np.max(np.abs(init.values - ref.values)) < 1e-13


def test_failing_default_init_makes_two_direct_solves(monkeypatch):
    prob, _ = manufactured(17, eps=0.05)
    calls = [0]
    real = _DstPreconditioner.solve

    def counting(self, r):
        calls[0] += 1
        return real(self, r)

    monkeypatch.setattr(_DstPreconditioner, "solve", counting)
    with pytest.raises(NotPlurisubharmonic, match="default initialization") as exc:
        default_init(prob)
    assert exc.value.node is None
    assert calls[0] == 2   # the first candidate and the raise, for all 12 candidates


def test_unraised_default_init_is_quadratic_plus_lift():
    # one Poisson solve against the quadratic plus its lift: equal up to rounding
    for points, n in ((9, 2), (17, 2), (7, 3)):
        prob, _ = manufactured(points, n=n)
        init = default_init(prob)
        ref = lifted_quadratic(prob, first_coefficient(prob))
        solver._checked_hessian(GridField(prob.domain, ref), 1e-12)   # unraised
        assert np.max(np.abs(init.values - ref)) < 1e-13
        assert _quadratic_fit(prob.domain, prob.boundary) == pytest.approx(
            full_quadratic_fit(prob.domain, prob.boundary.values)[0], rel=1e-14)
    # ring data without the reflection symmetry, on an off-centre box that
    # is not a cube and on a 7^6 one: the affine columns do not move c
    for dom in (GridDomain([0.3, -0.7, 1.1, 0.2], [1.0, 0.8, 1.3, 0.6], (7, 9, 11, 13)),
                box(7, n=3)):
        rng = np.random.default_rng(dom.center.size)
        coords = dom.node_coords_flat()
        affine = 0.4 + coords @ rng.normal(size=dom.center.size)
        g = GridField(dom, (affine + rng.normal(size=dom.num_nodes)).reshape(dom.shape))
        c = full_quadratic_fit(dom, g.values)[0]
        assert _quadratic_fit(dom, g) == pytest.approx(c, rel=1e-14)
        assert full_quadratic_fit(dom, g.values, affine=False)[0] == pytest.approx(c, rel=1e-13)


def former_residual(u, prob, guard=1e-12):
    """The residual as a full grid, as it once was: log det - rhs on the
    interior, u - g on the ring."""
    logdet = solver._checked_hessian(u, guard)
    np.log(logdet, out=logdet)
    out = u.values - prob.boundary.values
    core = (slice(1, -1),) * u.values.ndim
    np.subtract(logdet, prob.rhs.values[core], out=out[core])
    return GridField(prob.domain, out)


@pytest.mark.parametrize("points, n", [(9, 2), (7, 3)])
def test_residual_is_the_interior_of_the_former_formula(points, n):
    prob, _ = manufactured(points, n=n)
    u = default_init(prob)
    r = residual(u, prob)
    core = (slice(1, -1),) * (2 * n)
    assert r.shape == (points - 2,) * (2 * n) and r.flags.c_contiguous
    assert r.tobytes() == former_residual(u, prob).values[core].tobytes()


def overflowing_dets(monkeypatch, calls, nodes):
    """Stub `_checked_hessian` so that the det calls numbered in `calls`
    (1 is the first) return inf at each interior node of `nodes`."""
    real = solver._checked_hessian
    count = [0]

    def stub(u, guard, inverse=False):
        out = real(u, guard, inverse)
        if not inverse:
            count[0] += 1
            if count[0] in calls:
                for node in nodes:
                    out[node] = np.inf
        return out

    monkeypatch.setattr(solver, "_checked_hessian", stub)


def test_non_finite_initial_residual_names_its_node(monkeypatch):
    prob, _ = manufactured(9)
    init = default_init(prob)
    overflowing_dets(monkeypatch, {1}, [(4, 5, 6, 2), (1, 2, 3, 4)])
    with pytest.raises(NonFiniteSample) as exc:
        newton_solve(prob, NewtonConfig(tol_residual=1e-10), init=init)
    # the first in row-major order, in the indices of the full grid
    assert exc.value.node == (2, 3, 4, 5) and exc.value.value == np.inf


def test_overflowing_candidate_is_a_halving(monkeypatch):
    # det call 1 is the initial residual, 2 the first candidate of the
    # first step that passes the guard: its overflow is one more halving
    prob, _ = manufactured(9)
    init = default_init(prob)
    plain = newton_solve(prob, NewtonConfig(tol_residual=1e-10), init=init)
    overflowing_dets(monkeypatch, {2}, [(3, 3, 3, 3)])
    out = newton_solve(prob, NewtonConfig(tol_residual=1e-10), init=init)
    assert out["final_residual"] <= 1e-10
    assert out["halvings"][0] == plain["halvings"][0] + 1
    assert out["psh_rejects"][0] == plain["psh_rejects"][0]


def test_default_init_and_solve_build_no_coordinate_array(monkeypatch, tmp_path):
    prob, _ = manufactured(9)

    def refuse(self):
        raise AssertionError("node_coords_flat called")

    monkeypatch.setattr(GridDomain, "node_coords_flat", refuse)
    residual(default_init(prob), prob)
    assert main(["solve", "--out", str(tmp_path), "--eps", "1", "--points", "9"]) == 0


@pytest.mark.parametrize("kwargs", [
    {"min_step": 0.0}, {"min_step": -1.0}, {"min_step": float("inf")},
    {"min_step": float("nan")}, {"psd_guard": -1e-12}, {"psd_guard": float("inf")},
    {"psd_guard": float("nan")},
])
def test_newton_config_rejects_bad_values(kwargs):
    with pytest.raises(ValueError):
        NewtonConfig(**kwargs)


def test_newton_config_edge_values_are_legal():
    NewtonConfig(min_step=2.0, psd_guard=0.0)


def test_line_search_counts_halvings_and_psh_rejects(monkeypatch):
    # the first candidate of the first step is rejected as not
    # plurisubharmonic: one halving, and that halving is a rejection
    real = solver.residual
    calls = [0]

    def rejecting_once(u, prob, guard=1e-12):
        calls[0] += 1
        if calls[0] == 2:   # call 1 is the initial residual
            raise NotPlurisubharmonic((1, 1, 1, 1))
        return real(u, prob, guard)

    monkeypatch.setattr(solver, "residual", rejecting_once)
    prob, _ = manufactured(9)
    out = newton_solve(prob, NewtonConfig(tol_residual=1e-10))
    assert len(out["halvings"]) == len(out["psh_rejects"]) == out["iterations"]
    assert out["halvings"][0] >= out["psh_rejects"][0] == 1
    assert all(r <= h for h, r in zip(out["halvings"], out["psh_rejects"]))


def reference_dst_solve(pre, r):
    """The surrogate solve through scipy's float64 type-I sine transforms."""
    y = sfft.dstn(r.reshape(pre.shape), type=1)
    y /= pre.eig.reshape(pre.shape).astype(np.float64)
    return sfft.idstn(y, type=1).ravel()


@pytest.mark.parametrize("points, means", [
    ((6, 9), [1.5]),
    ((5, 9, 7, 6), [1.0, 2.5]),
    ((5, 6, 4, 7, 6, 5), [1.0, 2.0, 0.5]),
])
@pytest.mark.parametrize("dtype, rtol", [(np.float64, 1e-13), (np.float32, 2e-6)])
def test_dst_solve_matches_scipy_dstn(points, means, dtype, rtol):
    # non-cubic boxes: each axis has its own sine matrix and spacing
    n = len(means)
    dom = GridDomain(np.zeros(2 * n), np.linspace(0.5, 1.5, 2 * n), points)
    pre = _DstPreconditioner(dom, means, dtype=dtype)
    r = np.random.default_rng(len(points)).normal(size=pre.eig.size)
    kept = r.copy()
    y = pre.solve(r)
    ref = reference_dst_solve(pre, r)
    assert y.dtype == np.float64 and y.shape == r.shape
    assert np.array_equal(r, kept)
    assert np.linalg.norm(y - ref) <= rtol * np.linalg.norm(ref)
    # a fresh vector each call, though the work vector is reused
    again = pre.solve(r)
    assert again is not y and np.array_equal(again, y)


_DST_BYTES = """
import hashlib
import numpy as np
from cmalab.grid import GridDomain
from cmalab.solver import _DstPreconditioner
dom = GridDomain(np.zeros(4), np.ones(4), (33, 29, 31, 27))
r = np.random.default_rng(5).normal(size=31 * 27 * 29 * 25)
y = _DstPreconditioner(dom, [1.0, 2.0], dtype=np.{}).solve(r)
print(y.dtype, y.shape == r.shape, hashlib.sha256(y.tobytes()).hexdigest())
"""


def _child(code, **env):
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src, **env)
    child = subprocess.run([sys.executable, "-c", code], env=env,
                           capture_output=True, text=True, timeout=120)
    assert child.returncode == 0, child.stderr
    return child.stdout


def _dst_bytes_under_one_and_two_threads(dtype):
    code = _DST_BYTES.format(dtype)
    return [_child(code, OPENBLAS_NUM_THREADS=k, OMP_NUM_THREADS=k).split()
            for k in ("1", "2")]


def test_dst_workers_do_not_change_result():
    one, two = _dst_bytes_under_one_and_two_threads("float64")
    assert one[:2] == ["float64", "True"] and one == two


def test_float32_dst_workers_do_not_change_result():
    # float32 transforms, float64 result of the input's shape
    one, two = _dst_bytes_under_one_and_two_threads("float32")
    assert one[:2] == ["float64", "True"] and one == two


def test_cli_import_leaves_out_scipy():
    # scipy.sparse.linalg loads on the first Newton solve, not at start-up:
    # importing the CLI adds the standard library, numpy and cmalab only,
    # against the modules loaded before it (site hooks load some first)
    code = ("import sys; before = set(sys.modules); import cmalab, cmalab.cli; "
            "print(sorted({m.split('.')[0] for m in set(sys.modules) - before}"
            " - set(sys.stdlib_module_names) - {'numpy', 'cmalab'}))")
    assert _child(code).strip() == "[]"


def test_float32_dst_close_to_float64():
    dom = box(11)
    r = np.random.default_rng(4).normal(size=9 ** 4)
    exact = _DstPreconditioner(dom, [1.0, 2.0]).solve(r)
    single = _DstPreconditioner(dom, [1.0, 2.0], dtype=np.float32).solve(r)
    # nonzero: the transforms did run in single precision
    assert 0 < np.linalg.norm(single - exact) <= 1e-6 * np.linalg.norm(exact)


def test_krylov_operators_only_see_float64(monkeypatch):
    # a LinearOperator built without a dtype probes its matvec with an
    # int8 vector; every call must be a real float64 Krylov vector
    seen = []
    real = spla.LinearOperator

    def spying(shape, matvec, **kwargs):
        def mv(x):
            seen.append(x.dtype)
            return matvec(x)
        return real(shape, matvec=mv, **kwargs)

    monkeypatch.setattr(spla, "LinearOperator", spying)
    prob, _ = manufactured(9)
    newton_solve(prob, NewtonConfig(tol_residual=1e-10))
    assert seen and all(dt == np.float64 for dt in seen)


def test_default_init_uses_float64_lift(monkeypatch):
    # at eps = 0.05 the init raises once, so the bubble's solve runs too;
    # float32 transforms would miss the float64 reference by about 1e-7
    probs = [manufactured(9, eps)[0] for eps in (1.0, 0.05)]
    inits = [default_init(prob) for prob in probs]
    monkeypatch.setattr(_DstPreconditioner, "solve", reference_dst_solve)
    for prob, init in zip(probs, inits):
        ref = default_init(prob).values
        assert np.max(np.abs(init.values - ref)) <= 1e-13 * np.max(np.abs(ref))


def test_float32_preconditioner_keeps_inner_iterations(monkeypatch):
    # the float32 transforms move the Krylov iterates by about 1e-7
    # relative; at 17^4 that must not change any iteration count
    prob, _ = manufactured(17)
    cfg = NewtonConfig(tol_residual=1e-10)
    single = newton_solve(prob, cfg)
    real_init = _DstPreconditioner.__init__

    def float64_init(self, domain, diag_means, dtype=np.float64):
        real_init(self, domain, diag_means)

    monkeypatch.setattr(_DstPreconditioner, "__init__", float64_init)
    double = newton_solve(prob, cfg)
    # nonzero gap: the first solve did run its transforms in float32
    assert single["residual_history"] != double["residual_history"]
    assert single["iterations"] == double["iterations"]
    assert single["inner_iterations"] == double["inner_iterations"]
    assert single["inner_info"] == [0] * single["iterations"]
    assert double["inner_info"] == [0] * double["iterations"]


@pytest.mark.parametrize("res_norm, prev_norm, tol, eta", [
    (1.0, None, 1e-10, 0.1),        # first Newton step
    (1e-6, None, 1e-10, 0.1),       # ... whatever its residual
    (0.5, 0.6, 1e-10, 0.1),         # slow decrease: the 0.1 cap
    (1e-2, 1e-1, 1e-10, 0.9e-2),    # Eisenstat-Walker 0.9 (r_k / r_{k-1})^2
    # Kelley's floor 0.5 tol / r_k takes over where r_k^3 falls below
    # (5 / 9) tol r_{k-1}^2, here at r_k = 8.2e-7
    (1e-6, 1e-4, 1e-10, 0.9e-4),    # just above: the EW term
    (5e-7, 1e-4, 1e-10, 1e-4),      # just below: the floor
    (2e-9, 1e-8, 1e-9, 0.1),        # a floor above the cap is capped
])
def test_forcing_table(res_norm, prev_norm, tol, eta):
    assert _forcing(res_norm, prev_norm, tol) == pytest.approx(eta, rel=1e-12)


def test_inner_tolerances_lie_between_kelley_floor_and_cap(monkeypatch):
    rtols = []
    real = spla.bicgstab

    def spying(A, b, **kwargs):
        rtols.append(kwargs["rtol"])
        return real(A, b, **kwargs)

    monkeypatch.setattr(spla, "bicgstab", spying)
    prob, _ = manufactured(9)
    tol = 1e-10
    out = newton_solve(prob, NewtonConfig(tol_residual=tol))
    assert len(rtols) == out["iterations"] >= 2
    for eta, r_k in zip(rtols, out["residual_history"]):
        # within 5 tol of the goal the floor exceeds the cap, which wins
        assert min(0.5 * tol / r_k, 0.1) <= eta <= 0.1
    assert out["final_residual"] <= tol


def test_psolves_count_preconditioner_solves(monkeypatch):
    prob, _ = manufactured(9)
    init = default_init(prob)   # its lift is a direct solve, not counted
    calls = [0]
    real = _DstPreconditioner.solve

    def counting(self, r):
        calls[0] += 1
        return real(self, r)

    monkeypatch.setattr(_DstPreconditioner, "solve", counting)
    out = newton_solve(prob, NewtonConfig(tol_residual=1e-10), init=init)
    assert len(out["psolves"]) == out["iterations"]
    assert all(c >= 1 for c in out["psolves"])
    assert sum(out["psolves"]) == calls[0]


def test_inner_info_reports_short_inner_solves(monkeypatch):
    # BiCGStab stops short (info > 0) but returns a finite step: the
    # solve goes on and the code is reported per outer iteration
    real = spla.bicgstab

    def short_bicgstab(A, b, **kwargs):
        d, _ = real(A, b, **kwargs)
        return d, 1

    monkeypatch.setattr(spla, "bicgstab", short_bicgstab)
    prob, _ = manufactured(9)
    out = newton_solve(prob, NewtonConfig(tol_residual=1e-10))
    assert out["final_residual"] <= 1e-10
    assert out["inner_info"] == [1] * out["iterations"]


def _nan_bicgstab(A, b, **kwargs):
    return np.full_like(b, np.nan), 1


@pytest.mark.parametrize("reason, cfg, bicgstab, raised, searches, accepted", [
    ("inner solve failed", NewtonConfig(), _nan_bicgstab, NonConverged, 0, 0),
    # alpha = 1 is below the step floor: the search runs and tries nothing
    ("line search failed", NewtonConfig(min_step=2.0), None, NotPlurisubharmonic, 1, 0),
    (None, NewtonConfig(max_iters=1, tol_residual=1e-12), None, NonConverged, 1, 1),
], ids=["inner-solve", "line-search", "iteration-limit"])
def test_every_failure_carries_the_whole_record(monkeypatch, reason, cfg, bicgstab,
                                                raised, searches, accepted):
    if bicgstab is not None:
        monkeypatch.setattr(spla, "bicgstab", bicgstab)
    prob, _ = manufactured(9)
    with pytest.raises(raised) as info:
        newton_solve(prob, cfg)
    result = info.value.result
    assert result.get("reason") == reason
    assert result["iterations"] == 1
    for key in ("inner_iterations", "inner_info", "psolves"):
        assert len(result[key]) == 1, key
    assert len(result["halvings"]) == len(result["psh_rejects"]) == searches
    assert len(result["residual_history"]) == accepted + 1
    assert result["final_residual"] == result["residual_history"][-1]


PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench")


@pytest.mark.parametrize("workload, kind, n, points", [
    ("solve-c2", "pogorelov2", 2, 9), ("solve-c3", "pogorelov_n", 3, 7)])
def test_traced_solve_fires_exactly_the_workload_spans(monkeypatch, workload, kind, n,
                                                       points):
    # a solve that calls around a traced attribute fails here, and not
    # only in a traced benchmark run
    monkeypatch.syspath_prepend(PERFBENCH)
    import tracing
    import workloads
    # the problem is built untraced: sampling is set-up, not the solve
    (_, prob, _, _), = workloads.SolveWorkload([(kind, n, 1.0, points)]).setup(1)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        solver.newton_solve(prob, NewtonConfig(tol_residual=workloads.TOL,
                                               max_iters=workloads.MAX_ITERS))
    finally:
        tracer.uninstall()
    counts = tracing.span_counts(tracer.take())
    assert tracing.check_coverage(counts, workloads.WORKLOADS[workload].active) == []

"""Acceptance suite: eight criteria, one printed pass/fail line each.

Criterion 2 carries a tolerance sub-assertion that a second-order
finite-difference determinant cannot meet (the leading truncation
constant exceeds 5); it is asserted as stated and fails honestly.
The order-of-convergence and degenerate sub-checks pass.
"""

import math
import os
import time

import numpy as np
import pytest

from cmalab import moser, probe, viscosity
from cmalab.families import SolutionFamily, eval_rhs, verify_identity
from cmalab.grid import GridDomain, complex_hessian_fd, sample
from cmalab.hermitian import HermitianForm, herm_det
from cmalab.solver import DirichletProblem, NewtonConfig, newton_solve
from cmalab.viscosity import QuadraticJet, check_touch_below, g_operator

HERE = os.path.dirname(os.path.abspath(__file__))


def report(num, ok, detail, t0):
    line = "[criterion {}] {}: {} ({:.1f} s)".format(
        num, "PASS" if ok else "FAIL", detail, time.perf_counter() - t0)
    print("\n" + line)
    return line


def random_points(rng, dim, count, min_w):
    pts = rng.uniform(-1.0, 1.0, size=(count, 2 * dim))
    bad = np.hypot(pts[:, -2], pts[:, -1]) <= min_w
    while np.any(bad):
        pts[bad, -2:] = rng.uniform(-1.0, 1.0, size=(int(np.sum(bad)), 2))
        bad = np.hypot(pts[:, -2], pts[:, -1]) <= min_w
    return pts


def fd_det_at(fam, point, h):
    """FD complex-Hessian determinant from a minimal stencil around point."""
    dom = GridDomain(point, np.full(point.size, h), (3,) * point.size)
    u = sample(dom, fam.value)
    return herm_det(complex_hessian_fd(u, (1,) * point.size))


def test_criterion_1_identity_suite():
    t0 = time.perf_counter()
    rng = np.random.default_rng(11)
    fams = [SolutionFamily("pogorelov2", 2, eps) for eps in (1.0, 0.3, 0.05)]
    fams += [SolutionFamily("pogorelov_n", m, 1.0) for m in (3, 4)]
    worst = 0.0
    for fam in fams:
        pts = random_points(rng, fam.dim, 1000, 1e-3)
        gaps = [verify_identity(fam, p)["abs_gap"] for p in pts]
        worst = max(worst, max(gaps))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-10 and elapsed < 5.0
    report(1, ok, f"determinant identity, max gap {worst:.2e} over 5 families", t0)
    assert worst < 1e-10
    assert elapsed < 5.0


def test_criterion_2_unit_determinant_families():
    t0 = time.perf_counter()
    rng = np.random.default_rng(22)
    ratios, tol_ok, worst = {}, True, {}
    for n in (2, 3):
        fam = SolutionFamily("theorem_v", n)
        pts = random_points(rng, n, 100, 0.2)
        errs = {}
        for h in (0.02, 0.01):
            errs[h] = np.array([abs(fd_det_at(fam, p, h) - 1.0) for p in pts])
            if np.any(errs[h] > 5.0 * h * h + 1e-8):
                tol_ok = False
            worst[(n, h)] = float(np.max(errs[h]))
        ratios[n] = float(np.median(errs[0.02] / errs[0.01]))
    # degenerate family: the FD determinant tends to 0 under the same
    # protocol, i.e. every point shrinks at the second-order rate
    deg_ok = True
    for n in (2, 3):
        fam = SolutionFamily("degenerate", n)
        pts = random_points(rng, n, 100, 0.2)
        coarse = np.array([abs(fd_det_at(fam, p, 0.02)) for p in pts])
        fine = np.array([abs(fd_det_at(fam, p, 0.01)) for p in pts])
        deg_ok &= bool(np.all(fine < coarse))
        deg_ok &= 3.0 < float(np.median(coarse / fine)) < 5.0
    ratio_ok = all(3.0 < r < 5.0 for r in ratios.values())
    ok = ratio_ok and deg_ok and tol_ok
    report(2, ok,
           "unit-determinant FD check, ratios {} , worst/h^2 at h=0.01: "
           "n=2 {:.1f}, n=3 {:.1f}, tolerance 5h^2+1e-8 {}".format(
               {k: round(v, 2) for k, v in ratios.items()},
               worst[(2, 0.01)] / 1e-4, worst[(3, 0.01)] / 1e-4,
               "met" if tol_ok else "NOT met"), t0)
    assert ratio_ok
    assert deg_ok
    # stated tolerance; a second-order scheme whose h-halving ratio must sit
    # in [3, 5] has truncation constant well above 5, so this cannot hold
    assert tol_ok, "FD determinant error exceeds 5*h^2 + 1e-8"


def test_criterion_3_moser_machinery():
    t0 = time.perf_counter()
    ok = True
    for n, a in ((2, 1.0), (3, 3.0)):
        params = moser.MoserParams(n, a)
        for k in range(60):
            lhs = 2.0 * moser.p_sequence(params, k + 1) + n
            rhs = 2.0 * n * moser.p_sequence(params, k) / (n - 1.0)
            ok &= abs(lhs - rhs) <= 1e-12 * abs(rhs)
        ok &= abs(moser.b_product(params, 60) - 2.0) < 1e-6
        sums = moser.log_a_partial_sums(params, 100)
        ok &= abs(sums[-1] - sums[-20]) < 1e-9
    ok &= moser.critical_exponent(moser.MoserParams(2, 1.0)) == 8.0
    ok &= moser.critical_exponent(moser.MoserParams(3, 3.0)) == 18.0
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 1.0
    report(3, ok, "iteration recurrence, critical exponents, product and "
                  "log-sum limits", t0)
    assert ok


def test_criterion_4_third_order_inequality():
    t0 = time.perf_counter()
    total_fail = 0
    for n in (2, 3, 4):
        rng = np.random.default_rng(40 + n)
        d, T = moser.random_third_order_samples(n, 100_000, rng)
        total_fail += moser.third_order_check_batch(d, T)["failures"]
    elapsed = time.perf_counter() - t0
    ok = total_fail == 0 and elapsed < 30.0
    report(4, ok, f"sub-sum inequality, {total_fail} failures in 3x10^5 "
                  "samples", t0)
    assert total_fail == 0
    assert elapsed < 30.0


def test_criterion_5_solver_convergence():
    t0 = time.perf_counter()
    fam = SolutionFamily("pogorelov2", 2, 1.0)
    errs, iters = {}, {}
    for points in (33, 65):
        dom = GridDomain(np.zeros(4), np.ones(4), (points,) * 4,
                         max_nodes=20_000_000)
        oracle = sample(dom, fam.value)
        rhs = sample(dom, lambda g: np.log(eval_rhs(fam, g)))
        out = newton_solve(DirichletProblem(dom, rhs, oracle),
                           NewtonConfig(tol_residual=1e-9, max_iters=12))
        errs[points] = float(np.max(np.abs(out["solution"].values - oracle.values)))
        iters[points] = out["iterations"]
        assert out["final_residual"] <= 1e-9
        del dom, oracle, rhs, out
    ratio = errs[33] / errs[65]
    elapsed = time.perf_counter() - t0
    ok = max(iters.values()) <= 12 and 3.0 <= ratio <= 5.0 and elapsed < 180.0
    report(5, ok, "Newton solve 33^4 / 65^4, iterations {}, error ratio "
                  "{:.2f}".format(iters, ratio), t0)
    assert max(iters.values()) <= 12
    assert 3.0 <= ratio <= 5.0
    assert elapsed < 180.0


def test_criterion_6_viscosity_suite():
    t0 = time.perf_counter()
    ok = g_operator(HermitianForm(np.eye(2))) == 0.0
    ok &= g_operator(HermitianForm(np.diag([4.0, 0.25]))) == 0.0
    ok &= g_operator(HermitianForm(np.diag([1.0, -0.1])), tol=0.0) == math.inf
    bases2 = [np.zeros(4), np.array([0.3, 0.0, 0.0, 0.0]),
              np.array([0.0, -0.4, 0.0, 0.0]), np.array([0.2, 0.2, 0.0, 0.0]),
              np.array([-0.5, 0.1, 0.0, 0.0])]
    bases3 = [np.pad(b[:4], (0, 2)) for b in bases2]
    for fam, bases in ((SolutionFamily("pogorelov2", 2, 0.0), bases2),
                       (SolutionFamily("pogorelov_n", 3, 0.0), bases3)):
        for base in bases:
            out = viscosity.search_touch_above(fam, base, radius=0.1,
                                               attempts=1000, seed=6)
            ok &= (not out["found"]) and out["witnesses"] == 1000
    u0 = SolutionFamily("pogorelov2", 2, 0.0)
    rng = np.random.default_rng(66)
    touching = 0
    for _ in range(1000):
        A = rng.normal(size=(4, 4))
        q = QuadraticJet(np.zeros(4), 0.0, np.zeros(4), -(A @ A.T))
        out = check_touch_below(u0, q, radius=0.1, samples=2000, seed=6)
        if out["touches"]:
            touching += 1
            ok &= out["verdict"]
    elapsed = time.perf_counter() - t0
    ok = ok and touching > 0 and elapsed < 120.0
    report(6, ok, "upper jets rejected 10x1000/1000, {} touching lower jets "
                  "all pass".format(touching), t0)
    assert ok


def test_criterion_7_regularity_thresholds():
    t0 = time.perf_counter()
    radii = np.logspace(-4, -1, 10)
    f2 = SolutionFamily("pogorelov2", 2, 0.0)
    f3 = SolutionFamily("pogorelov_n", 3, 0.0)
    a2 = probe.holder_fit(f2, np.zeros(4), radii)["alpha"]
    a3 = probe.holder_fit(f3, np.zeros(6), radii)["alpha"]
    holder_ok = (abs(a2 - f2.singular_exponent) < 0.05
                 and abs(a3 - f3.singular_exponent) < 0.05)
    s2 = probe.w2p_divergence_scan(SolutionFamily("pogorelov2", 2),
                                   [1.0, 3.0], base_points=49)
    s3 = probe.w2p_divergence_scan(SolutionFamily("theorem_v", 3),
                                   [0.5, 2.0], base_points=33)
    sb = probe.w2p_divergence_scan(SolutionFamily("blocki", 3), [4.0, 12.0],
                                   base_points=13, growth=1.26, refinements=4,
                                   use_laplacian=True)
    flips_ok = all(s[0].verdict == "bounded" and s[1].verdict == "divergent"
                   for s in (s2, s3, sb))
    lip = probe.rhs_lipschitz_scaling([1 / 16, 1 / 64, 1 / 256, 1 / 1024])
    sups = [s for _, s in lip]
    lip_ok = all(1.7 <= b / a <= 2.3 for a, b in zip(sups, sups[1:]))
    elapsed = time.perf_counter() - t0
    ok = holder_ok and flips_ok and lip_ok and elapsed < 300.0
    report(7, ok, "alpha ({:.3f}, {:.3f}), integrability flips across "
                  "2 / 1.5 / 6, gradient ratios {}".format(
                      a2, a3, [round(b / a, 2) for a, b in zip(sups, sups[1:])]),
           t0)
    assert holder_ok
    assert flips_ok
    assert lip_ok
    assert elapsed < 300.0


def test_criterion_8_nonreproducible_constants_declared():
    t0 = time.perf_counter()
    with open(os.path.join(HERE, os.pardir, "README.md")) as f:
        readme = " ".join(f.read().split())
    declared = ("not numerically reproducible" in readme
                and "universal constants" in readme)
    # the covering property suites exist and run
    rng = np.random.default_rng(88)
    d, T = moser.random_third_order_samples(3, 100, rng)
    covered = moser.third_order_check_batch(d, T)["failures"] == 0
    covered &= len(moser.log_a_partial_sums(moser.MoserParams(2, 1.0), 10)) == 10
    covered &= probe.rhs_lipschitz_scaling([1 / 16])[0][1] > 0
    ok = declared and covered
    report(8, ok, "interior-estimate constants declared non-reproducible and "
                  "covered by property suites", t0)
    assert declared
    assert covered

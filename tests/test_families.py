import numpy as np
import pytest

from cmalab.errors import DimensionMismatch, SingularPoint, UnsupportedFamily
from cmalab.families import (SolutionFamily, eval_analytic_hessian, eval_rhs,
                             eval_value, verify_identity)
from cmalab.hermitian import psd_report


def test_value_examples():
    assert eval_value(SolutionFamily("pogorelov2", 2, 1.0), [0, 0, 0, 0]) == pytest.approx(2.0)
    assert eval_value(SolutionFamily("theorem_v", 2), [0, 0, 1, 0]) == pytest.approx(2.0)
    assert eval_value(SolutionFamily("degenerate", 3), [1, 1, 1, 1, 0, 0]) == 0.0


def test_kind_validation():
    with pytest.raises(ValueError):
        SolutionFamily("nope", 2)
    with pytest.raises(ValueError):
        SolutionFamily("pogorelov2", 3)
    with pytest.raises(ValueError):
        SolutionFamily("pogorelov_n", 2)
    with pytest.raises(ValueError):
        SolutionFamily("pogorelov2", 2, -0.1)


def test_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        eval_value(SolutionFamily("pogorelov2", 2), [0, 0])


def test_analytic_hessian_examples():
    h = eval_analytic_hessian(SolutionFamily("pogorelov2", 2, 0.0), [1, 0, 1, 0])
    assert np.allclose(h.entries, [[2, 1], [1, 1]])
    h = eval_analytic_hessian(SolutionFamily("pogorelov2", 2, 1.0), [0, 0, 0, 0])
    assert np.allclose(h.entries, np.diag([2.0, 1.0]))
    # ambient dimension 3, w = 0, eps = 1
    z = [0.5, 0.2, -0.3, 0.4, 0.0, 0.0]
    h = eval_analytic_hessian(SolutionFamily("pogorelov_n", 3, 1.0), z)
    zsum = 0.5 ** 2 + 0.2 ** 2 + 0.3 ** 2 + 0.4 ** 2
    assert np.allclose(np.diag(h.entries).real, [1.0, 1.0, (1 + zsum) * 3 / 9])
    assert np.allclose(h.entries - np.diag(np.diag(h.entries)), 0.0)


def test_hessian_errors():
    with pytest.raises(UnsupportedFamily):
        eval_analytic_hessian(SolutionFamily("blocki", 2), [1, 0, 1, 0])
    with pytest.raises(SingularPoint):
        eval_analytic_hessian(SolutionFamily("pogorelov2", 2, 0.0), [1, 0, 0, 0])


def test_rhs_examples():
    assert eval_rhs(SolutionFamily("pogorelov2", 2, 1.0), [0, 0, 0, 0]) == pytest.approx(2.0)
    assert eval_rhs(SolutionFamily("pogorelov2", 2, 0.0), [0.3, 0, 0.5, 0.2]) == pytest.approx(1.0)
    for m in (3, 4):
        v = eval_rhs(SolutionFamily("pogorelov_n", m, 0.0), [0.1] * (2 * m))
        assert v == pytest.approx(1.0 / m ** 2)
    assert eval_rhs(SolutionFamily("theorem_v", 3), [0.1] * 6) == 1.0
    assert eval_rhs(SolutionFamily("degenerate", 3), [0.1] * 6) == 0.0
    with pytest.raises(UnsupportedFamily):
        eval_rhs(SolutionFamily("blocki", 3), [0.1] * 6)


def test_identity_random_points():
    rng = np.random.default_rng(5)
    for fam in (SolutionFamily("pogorelov2", 2, 0.3),
                SolutionFamily("pogorelov_n", 3, 1.0),
                SolutionFamily("pogorelov_n", 4, 0.05)):
        for _ in range(100):
            pt = rng.uniform(-1, 1, size=2 * fam.dim)
            while np.hypot(pt[-2], pt[-1]) < 1e-3:
                pt[-2:] = rng.uniform(-1, 1, size=2)
            assert verify_identity(fam, pt)["abs_gap"] < 1e-10


def test_analytic_hessian_is_pd():
    rng = np.random.default_rng(6)
    for fam in (SolutionFamily("pogorelov2", 2, 0.5),
                SolutionFamily("pogorelov_n", 3, 0.5)):
        for _ in range(200):
            pt = rng.uniform(-1, 1, size=2 * fam.dim)
            assert psd_report(eval_analytic_hessian(fam, pt), 1e-12)["is_pd"]


def test_scaling_bridge():
    rng = np.random.default_rng(7)
    for m in (3, 4):
        lim = SolutionFamily("pogorelov_n", m, 0.0)
        tv = SolutionFamily("theorem_v", m)
        pts = rng.uniform(-1, 1, size=(50, 2 * m))
        assert np.allclose(m ** (2.0 / m) * eval_value(lim, pts), eval_value(tv, pts))


def test_uniform_convergence_monotone():
    rng = np.random.default_rng(8)
    pts = rng.uniform(-1, 1, size=(500, 4))
    u0 = eval_value(SolutionFamily("pogorelov2", 2, 0.0), pts)
    sups = []
    for eps in (1.0, 0.25, 1 / 16, 1 / 64):
        ue = eval_value(SolutionFamily("pogorelov2", 2, eps), pts)
        sups.append(np.max(np.abs(ue - u0)))
    assert all(a > b for a, b in zip(sups, sups[1:]))


def test_singular_exponents():
    assert SolutionFamily("pogorelov2", 2).singular_exponent == 1.0
    assert SolutionFamily("pogorelov_n", 3).singular_exponent == pytest.approx(2 / 3)
    assert SolutionFamily("theorem_v", 2).singular_exponent == 1.0
    assert SolutionFamily("blocki", 3).singular_exponent == pytest.approx(4 / 3)

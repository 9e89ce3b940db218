import math

import numpy as np
import pytest

from cmalab import viscosity
from cmalab.errors import BasePointOffSingularSet
from cmalab.families import SolutionFamily, eval_value
from cmalab.hermitian import HermitianForm
from cmalab.viscosity import (QuadraticJet, check_touch_below,
                              complex_hessian_of_jet, g_operator,
                              search_touch_above)


def test_g_operator_table():
    assert g_operator(HermitianForm(np.eye(2))) == 0.0
    assert g_operator(HermitianForm(np.diag([4.0, 0.25]))) == 0.0
    assert g_operator(HermitianForm(np.diag([1.0, -0.1])), tol=0.0) == math.inf


def test_jet_hessian_examples():
    base = np.zeros(4)
    # squared modulus of z1
    q = QuadraticJet(base, 0.0, np.zeros(4), np.diag([2.0, 2.0, 0, 0]))
    assert np.allclose(complex_hessian_of_jet(q).entries, [[1, 0], [0, 0]])
    # pluriharmonic x1^2 - y1^2
    q = QuadraticJet(base, 0.0, np.zeros(4), np.diag([2.0, -2.0, 0, 0]))
    assert np.allclose(complex_hessian_of_jet(q).entries, 0.0)
    # x1 y2: mixed entry i/4
    H = np.zeros((4, 4))
    H[0, 3] = H[3, 0] = 1.0
    q = QuadraticJet(base, 0.0, np.zeros(4), H)
    C = complex_hessian_of_jet(q).entries
    assert C[0, 1] == pytest.approx(0.25j)
    assert C[1, 0] == pytest.approx(-0.25j)


def test_jet_hessian_linearity():
    rng = np.random.default_rng(0)
    base = np.zeros(4)
    A = rng.normal(size=(4, 4))
    B = rng.normal(size=(4, 4))
    qa = QuadraticJet(base, 0.0, np.zeros(4), A + A.T)
    qb = QuadraticJet(base, 0.0, np.zeros(4), B + B.T)
    qs = QuadraticJet(base, 0.0, np.zeros(4), A + A.T + 2 * (B + B.T))
    lhs = complex_hessian_of_jet(qs).entries
    rhs = complex_hessian_of_jet(qa).entries + 2 * complex_hessian_of_jet(qb).entries
    assert np.allclose(lhs, rhs)


def test_g_monotone_on_psd_order():
    rng = np.random.default_rng(1)
    for _ in range(50):
        a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        b = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        X = HermitianForm(a @ a.conj().T)
        Y = HermitianForm(X.entries + b @ b.conj().T)
        assert g_operator(X) >= g_operator(Y) - 1e-10


def test_touch_below_zero_jet():
    u0 = SolutionFamily("pogorelov2", 2, 0.0)
    q = QuadraticJet(np.zeros(4), 0.0, np.zeros(4), np.zeros((4, 4)))
    out = check_touch_below(u0, q, radius=0.1)
    assert out["touches"] and out["verdict"]
    assert out["g_value"] == pytest.approx(1.0)  # G of the zero matrix


def test_touch_below_negative_block():
    # no w-dependence and strictly negative z-block: not PSD, so G = +inf
    u0 = SolutionFamily("pogorelov2", 2, 0.0)
    base = np.array([1.0, 0.0, 0.0, 0.0])
    val = 2.0 * (1.0 + 1.0) * 0.0
    H = np.diag([-1.0, -1.0, 0.0, 0.0])
    q = QuadraticJet(base, val, np.zeros(4), H)
    out = check_touch_below(u0, q, radius=0.05)
    if out["touches"]:
        assert out["g_value"] == math.inf
        assert out["verdict"]


def test_touch_below_base_point_checks():
    u0 = SolutionFamily("pogorelov2", 2, 0.0)
    q = QuadraticJet(np.array([0, 0, 0.5, 0.0]), 0.0, np.zeros(4), np.zeros((4, 4)))
    with pytest.raises(BasePointOffSingularSet):
        check_touch_below(u0, q, radius=0.1)
    with pytest.raises(ValueError):
        # value mismatch at the base point
        bad = QuadraticJet(np.zeros(4), 1.0, np.zeros(4), np.zeros((4, 4)))
        check_touch_below(u0, bad, radius=0.1)


def test_random_touching_jets_all_pass():
    u0 = SolutionFamily("pogorelov2", 2, 0.0)
    rng = np.random.default_rng(2)
    touching = 0
    for _ in range(300):
        A = rng.normal(size=(4, 4))
        H = -(A @ A.T)  # concave candidates touch from below at the zero minimum
        g = np.zeros(4)
        q = QuadraticJet(np.zeros(4), 0.0, g, H)
        out = check_touch_below(u0, q, radius=0.1, samples=2000, seed=3)
        if out["touches"]:
            touching += 1
            assert out["verdict"]
    assert touching > 0


def test_upper_jet_cone_defeats_w_quadratic():
    # q = M |w|^2 loses to the cone at |w| < 1/M for every tested M
    u0 = SolutionFamily("pogorelov2", 2, 0.0)
    for M in (1.0, 1e3, 1e6):
        H = np.diag([0.0, 0.0, 2 * M, 2 * M])
        q = QuadraticJet(np.zeros(4), 0.0, np.zeros(4), H)
        w = 0.5 / M
        pt = np.array([0.0, 0.0, w, 0.0])
        assert q(pt) < u0.value(pt) - 1e-12


def test_search_touch_above_finds_witnesses():
    for fam, dim in (("pogorelov2", 2), ("pogorelov_n", 3)):
        u0 = SolutionFamily(fam, dim, 0.0)
        out = search_touch_above(u0, np.zeros(2 * dim), radius=0.1,
                                 attempts=100, seed=4)
        assert not out["found"]
        assert out["witnesses"] == 100
        assert out["best_violation"] > 0


def reference_search(u, p0, radius, attempts, seed, samples=2000):
    """search_touch_above as one QuadraticJet per attempt."""
    p0 = np.asarray(p0, dtype=float)
    rng = np.random.default_rng(seed)
    value = viscosity.eval_value(u, p0)
    scan = viscosity._w_axis_scan(u, p0, radius)
    scan_u = viscosity.eval_value(u, scan)
    ball = viscosity._ball_points(p0, radius, samples, rng)
    ball_u = viscosity.eval_value(u, ball)
    found, best, witnesses = False, 0.0, 0
    for _ in range(attempts):
        scale = 10.0 ** rng.uniform(-1.0, 6.0)
        g = rng.normal(size=p0.size) * 10.0 ** rng.uniform(-2.0, 1.0)
        H = rng.normal(size=(p0.size, p0.size)) * scale
        q = QuadraticJet(p0, value, g, H + H.T)
        witness = float(np.max(scan_u - q(scan)))
        if witness > 1e-12:
            witnesses += 1
            best = max(best, witness)
        elif np.all(q(ball) - ball_u >= -1e-12):
            found = True
    return {"found": found, "best_violation": best, "attempts": attempts,
            "witnesses": witnesses}


@pytest.mark.parametrize("kind, dim", [("pogorelov2", 2), ("pogorelov_n", 3)])
def test_search_touch_above_equals_per_jet_loop(kind, dim):
    u0 = SolutionFamily(kind, dim, 0.0)
    for x, y in ((0.0, 0.0), (0.3, 0.0), (-0.5, 0.1)):
        base = np.array([x, y] + [0.0] * (2 * dim - 2))
        for seed in (1, 2):
            out = search_touch_above(u0, base, radius=0.1, attempts=200, seed=seed)
            assert out == reference_search(u0, base, 0.1, 200, seed)


def test_search_touch_above_near_the_cut(monkeypatch):
    # a steep concave stand-in for u0 puts the scan maxima of the jets on
    # both sides of the 1e-12 cut and lets some jets pass the ball test
    def concave(u, pts):
        return -1e9 * np.sum(np.asarray(pts, dtype=float) ** 2, axis=-1)

    monkeypatch.setattr(viscosity, "eval_value", concave)
    u0 = SolutionFamily("pogorelov2", 2, 0.0)
    for seed in (0, 1):
        out = search_touch_above(u0, np.zeros(4), radius=0.1, attempts=200, seed=seed)
        assert out == reference_search(u0, np.zeros(4), 0.1, 200, seed)
        assert out["found"] and 0 < out["witnesses"] < 200


def test_search_touch_above_trusts_batched_values_only_outside_the_slack(monkeypatch):
    # move every batched maximum by 90% of its declared slack, up and down
    # in turn: the results must still be those of the per-jet loop
    batched = viscosity._batched_witnesses

    def shifted(*args):
        witness, slack = batched(*args)
        return witness + 0.9 * slack * np.resize([1.0, -1.0], witness.size), slack

    def concave(u, pts):
        return -1e9 * np.sum(np.asarray(pts, dtype=float) ** 2, axis=-1)

    monkeypatch.setattr(viscosity, "_batched_witnesses", shifted)
    u0 = SolutionFamily("pogorelov2", 2, 0.0)
    base = np.array([0.3, 0.0, 0.0, 0.0])
    assert search_touch_above(u0, base, radius=0.1, attempts=200, seed=1) == \
        reference_search(u0, base, 0.1, 200, 1)
    monkeypatch.setattr(viscosity, "eval_value", concave)
    assert search_touch_above(u0, base, radius=0.1, attempts=200, seed=1) == \
        reference_search(u0, base, 0.1, 200, 1)


def test_batched_witness_slack_covers_the_jet_value():
    rng = np.random.default_rng(5)
    u0 = SolutionFamily("pogorelov_n", 3, 0.0)
    p0 = np.array([0.2, -0.1, 0.0, 0.3, 0.0, 0.0])
    scan = viscosity._w_axis_scan(u0, p0, 0.1)
    target = eval_value(u0, scan)
    grads = rng.normal(size=(50, 6))
    sym = rng.normal(size=(50, 6, 6)) * 1e5
    sym = sym + sym.transpose(0, 2, 1)
    witness, slack = viscosity._batched_witnesses(scan - p0, target, 0.0, grads, sym)
    for k in range(50):
        q = QuadraticJet(p0, 0.0, grads[k], sym[k])
        assert abs(witness[k] - np.max(target - q(scan))) <= slack[k]


def test_search_touch_above_rejects_negative_attempts():
    with pytest.raises(ValueError):
        search_touch_above(SolutionFamily("pogorelov2", 2, 0.0), np.zeros(4),
                           radius=0.1, attempts=-1)

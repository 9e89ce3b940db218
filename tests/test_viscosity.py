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
    scan = viscosity._w_axis_scan(p0, radius)
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
    # the search's draws: Hessian scales 1e-1 to 1e6, gradient scales 1e-2 to 10
    rng = np.random.default_rng(5)
    count = 200
    for kind, dim, p0 in (("pogorelov2", 2, [0.2, -0.1, 0.0, 0.0]),
                          ("pogorelov_n", 3, [0.2, -0.1, 0.0, 0.3, 0.0, 0.0])):
        u0 = SolutionFamily(kind, dim, 0.0)
        p0 = np.array(p0)
        scan = viscosity._w_axis_scan(p0, 0.1)
        target = eval_value(u0, scan)
        value = eval_value(u0, p0)
        grads = rng.normal(size=(count, 2 * dim)) * 10.0 ** rng.uniform(-2.0, 1.0, (count, 1))
        scales = 10.0 ** rng.uniform(-1.0, 6.0, (count, 1, 1))
        sym = rng.normal(size=(count, 2 * dim, 2 * dim)) * scales
        sym = sym + sym.transpose(0, 2, 1)
        witness, slack = viscosity._batched_witnesses(viscosity._jet_features(scan - p0),
                                                      target, value, grads, sym)
        for k in range(count):
            q = QuadraticJet(p0, value, grads[k], sym[k])
            assert abs(witness[k] - np.max(target - q(scan))) <= slack[k]


@pytest.fixture
def fresh_ball():
    # the lower-jet ball caches u0's values by family: a test that stands
    # in for eval_value must not read or leave values of the real one
    viscosity._lower_ball.cache_clear()
    yield
    viscosity._lower_ball.cache_clear()


def reference_touch_below(u, q, radius, samples=10_000, seed=0):
    """check_touch_below with a new ball and QuadraticJet's own values."""
    p0 = np.asarray(q.base, dtype=float)
    if abs(q(p0) - viscosity.eval_value(u, p0)) > 1e-12:
        raise ValueError("jet must match the function value at the base point")
    rng = np.random.default_rng(seed)
    pts = viscosity._ball_points(p0, radius, samples, rng)
    gap = viscosity.eval_value(u, pts) - q(pts)
    touches = bool(np.min(gap) >= -viscosity.TOUCH_MARGIN)
    g_value = g_operator(complex_hessian_of_jet(q))
    verdict = bool(g_value >= -viscosity.TOUCH_MARGIN) if touches else None
    return {"touches": touches, "g_value": g_value, "verdict": verdict}


def workload_jets(seed, count=300):
    # the shape of criterion 6's jets: concave, at the origin, no gradient
    rng = np.random.default_rng(seed)
    jets = []
    for _ in range(count):
        a = rng.normal(size=(4, 4))
        jets.append(QuadraticJet(np.zeros(4), 0.0, np.zeros(4), -(a @ a.T)))
    return jets


def graded_jets(u, seed, count=100, spread=0.5):
    # indefinite and concave Hessians with gradients, at bases spread about the origin
    rng = np.random.default_rng(seed)
    dim = 2 * u.dim
    jets = []
    for k in range(count):
        base = np.zeros(dim)
        base[:dim - 2] = rng.uniform(-spread, spread, dim - 2)
        A = rng.normal(size=(dim, dim)) * 10.0 ** rng.uniform(-1.0, 3.0)
        H = A + A.T if k % 2 else -(A @ A.T)
        g = rng.normal(size=dim) * 10.0 ** rng.uniform(-2.0, 1.0)
        jets.append(QuadraticJet(base, eval_value(u, base), g, H))
    return jets


def assert_like_reference(u, jets, radius, samples, seed):
    outs = [check_touch_below(u, q, radius, samples=samples, seed=seed) for q in jets]
    assert outs == [reference_touch_below(u, q, radius, samples, seed) for q in jets]
    return outs


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_touch_below_equals_reference_on_workload_jets(seed):
    u0 = SolutionFamily("pogorelov2", 2, 0.0)
    outs = assert_like_reference(u0, workload_jets(seed), 0.1, 2000, seed)
    assert all(out["touches"] for out in outs)


@pytest.mark.parametrize("seed", [4, 5, 6])
def test_touch_below_equals_reference_with_gradients(seed):
    u0 = SolutionFamily("pogorelov2", 2, 0.0)
    outs = assert_like_reference(u0, graded_jets(u0, seed), 0.05, 1000, seed)
    assert not all(out["touches"] for out in outs)


@pytest.mark.parametrize("seed", [7, 8, 9])
def test_touch_below_equals_reference_pogorelov_n(seed):
    u0 = SolutionFamily("pogorelov_n", 3, 0.0)
    assert_like_reference(u0, graded_jets(u0, seed), 0.1, 1000, seed)
    assert_like_reference(u0, graded_jets(u0, seed, spread=0.0), 0.1, 1000, seed)


def steep_concave(u, pts):
    return -1e6 * np.sum(np.asarray(pts, dtype=float) ** 2, axis=-1)


def near_cut_jets(seed, count=60):
    # q = -(1e6 + d) |x|^2 against -1e6 |x|^2: the ball minimum of the gap
    # is about d r^2, and the jets' slack is larger than TOUCH_MARGIN
    rng = np.random.default_rng(seed)
    jets = []
    for _ in range(count):
        d = rng.uniform(-4e-8, 1e-8)
        jets.append(QuadraticJet(np.zeros(4), 0.0, np.zeros(4), -2.0 * (1e6 + d) * np.eye(4)))
    return jets


@pytest.mark.parametrize("seed", [0, 1])
def test_touch_below_near_the_cut(monkeypatch, fresh_ball, seed):
    monkeypatch.setattr(viscosity, "eval_value", steep_concave)
    u0 = SolutionFamily("pogorelov2", 2, 0.0)
    jets = near_cut_jets(seed)
    pts, ball_u, features = viscosity._lower_ball(u0, np.zeros(4).tobytes(), 0.1, 500, seed)
    minima = np.array([np.min(ball_u - q(pts)) for q in jets])
    # the exact minima fall on both sides of the cut, and the batched
    # values cannot tell them apart
    assert np.any(minima >= -viscosity.TOUCH_MARGIN)
    assert np.any(minima < -viscosity.TOUCH_MARGIN)
    _, slack = viscosity._batched_witnesses(features, -ball_u, 0.0, np.zeros((1, 4)),
                                            jets[0].hess[None])
    assert slack[0] > viscosity.TOUCH_MARGIN
    outs = assert_like_reference(u0, jets, 0.1, 500, seed)
    assert {out["touches"] for out in outs} == {True, False}


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_touch_below_trusts_batched_values_only_outside_the_slack(monkeypatch, fresh_ball,
                                                                  sign):
    # move every batched minimum by 90% of its declared slack: the results
    # must still be those of the reference, near the cut and away from it
    batched = viscosity._batched_witnesses

    def shifted(*args):
        witness, slack = batched(*args)
        return witness + sign * 0.9 * slack, slack

    monkeypatch.setattr(viscosity, "_batched_witnesses", shifted)
    u0 = SolutionFamily("pogorelov2", 2, 0.0)
    assert_like_reference(u0, workload_jets(1, 100), 0.1, 1000, 1)
    assert_like_reference(u0, graded_jets(u0, 2, 50), 0.05, 1000, 2)
    viscosity._lower_ball.cache_clear()
    monkeypatch.setattr(viscosity, "eval_value", steep_concave)
    assert_like_reference(u0, near_cut_jets(3), 0.1, 500, 3)


def test_lower_ball_slack_covers_the_jet_value():
    # Hessian scales 1e-1 to 1e6, gradient scales 1e-2 to 10, as the search draws
    rng = np.random.default_rng(5)
    for kind, dim, p0 in (("pogorelov2", 2, [0.2, -0.1, 0.0, 0.0]),
                          ("pogorelov_n", 3, [0.2, -0.1, 0.0, 0.3, 0.0, 0.0])):
        u0 = SolutionFamily(kind, dim, 0.0)
        p0 = np.array(p0)
        pts, ball_u, features = viscosity._lower_ball(u0, p0.tobytes(), 0.1, 2000, 5)
        value = eval_value(u0, p0)
        for _ in range(200):
            g = rng.normal(size=2 * dim) * 10.0 ** rng.uniform(-2.0, 1.0)
            H = rng.normal(size=(2 * dim, 2 * dim)) * 10.0 ** rng.uniform(-1.0, 6.0)
            q = QuadraticJet(p0, value, g, H + H.T)
            top, slack = viscosity._batched_witnesses(features, -ball_u, -q.const,
                                                      -q.grad[None], -q.hess[None])
            assert abs(-top[0] - np.min(ball_u - q(pts))) <= slack[0]


def test_lower_ball_is_cached_read_only(fresh_ball):
    u0 = SolutionFamily("pogorelov2", 2, 0.0)
    q = QuadraticJet(np.zeros(4), 0.0, np.zeros(4), -np.eye(4))
    check_touch_below(u0, q, radius=0.1, samples=500, seed=3)
    check_touch_below(u0, q, radius=0.1, samples=500, seed=3)
    info = viscosity._lower_ball.cache_info()
    assert (info.hits, info.misses) == (1, 1)
    arrays = viscosity._lower_ball(u0, np.zeros(4).tobytes(), 0.1, 500, 3)
    assert [arr.shape for arr in arrays] == [(500, 4), (500,), (14, 500)]
    for arr in arrays:
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 0.0


def test_touch_below_needs_an_integer_seed():
    # the ball is reused across calls, so a seed of None cannot draw a new one
    u0 = SolutionFamily("pogorelov2", 2, 0.0)
    q = QuadraticJet(np.zeros(4), 0.0, np.zeros(4), -np.eye(4))
    with pytest.raises(TypeError):
        check_touch_below(u0, q, radius=0.1, seed=None)
    assert check_touch_below(u0, q, radius=0.1, samples=500, seed=np.int64(3)) == \
        reference_touch_below(u0, q, 0.1, 500, 3)


def test_search_touch_above_rejects_negative_attempts():
    with pytest.raises(ValueError):
        search_touch_above(SolutionFamily("pogorelov2", 2, 0.0), np.zeros(4),
                           radius=0.1, attempts=-1)


@pytest.mark.parametrize("radius", [math.nan, math.inf, 0.0, -0.1])
def test_radius_must_be_finite_and_positive(radius):
    u0 = SolutionFamily("pogorelov2", 2, 0.0)
    with pytest.raises(ValueError, match="radius"):
        search_touch_above(u0, np.zeros(4), radius=radius, attempts=5)
    q = QuadraticJet(np.zeros(4), eval_value(u0, np.zeros(4)), np.zeros(4), np.zeros((4, 4)))
    with pytest.raises(ValueError, match="radius"):
        check_touch_below(u0, q, radius=radius)

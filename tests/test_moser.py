import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cmalab.errors import IdentityViolated
from cmalab.moser import (MoserParams, ThirdOrderSample, a_coefficient,
                          b_convergence_k, b_limit, b_product, b_term,
                          chain_weight, critical_exponent, log_a_partial_sums,
                          p_sequence, random_third_order_samples,
                          third_order_check_batch, third_order_subsum_check)


def test_p_sequence_examples():
    assert p_sequence(MoserParams(2, 1.0), 0) == pytest.approx(2.0)
    assert p_sequence(MoserParams(2, 1.0), 3) == pytest.approx(9.0)


def test_param_validation():
    with pytest.raises(ValueError):
        MoserParams(1, 1.0)
    with pytest.raises(ValueError):
        MoserParams(2, 0.0)
    with pytest.raises(ValueError):
        MoserParams(2, 1.0, R=0.5, r=0.5)


@given(n=st.integers(2, 6), a=st.floats(0.1, 50.0), k=st.integers(0, 59))
@settings(max_examples=200, deadline=None)
def test_recurrence(n, a, k):
    params = MoserParams(n, a)
    lhs = 2.0 * p_sequence(params, k + 1) + n
    rhs = 2.0 * n * p_sequence(params, k) / (n - 1.0)
    assert abs(lhs - rhs) <= 1e-12 * abs(rhs)


def test_critical_exponent():
    assert critical_exponent(MoserParams(2, 1.0)) == pytest.approx(8.0)
    assert critical_exponent(MoserParams(3, 3.0)) == pytest.approx(18.0)
    # limit a -> 0+ is n^2
    for n in (2, 3, 4):
        vals = [critical_exponent(MoserParams(n, 10.0 ** -e)) for e in range(1, 7)]
        assert all(x > y for x, y in zip(vals, vals[1:]))
        assert vals[-1] == pytest.approx(n * n, abs=1e-4)
    # both closed forms overflow to inf, so they cannot be checked equal
    with pytest.raises(IdentityViolated):
        critical_exponent(MoserParams(2, 1e308))


def test_b_terms_and_products():
    params = MoserParams(2, 1.0)
    assert b_term(params, 1) == pytest.approx(4.0 / 3.0)
    prods = [b_product(params, k) for k in range(1, 40)]
    assert all(x < y for x, y in zip(prods, prods[1:]))
    assert prods[-1] <= b_limit(params) + 1e-12
    assert abs(b_product(params, 60) - 2.0) < 1e-6
    assert abs(b_product(MoserParams(3, 3.0), 60) - 2.0) < 1e-6
    assert b_convergence_k(params) <= 60


def test_a_coefficient_example():
    params = MoserParams(2, 1.0, R=1.0, r=0.5)
    expected = (2.0 * 3.0 ** 1.5 * 2.0) ** (1.0 / 3.0)
    assert a_coefficient(params, 1) == pytest.approx(expected)
    assert a_coefficient(params, 5) > 0


def test_log_a_sums_cauchy():
    for n, a in ((2, 1.0), (3, 3.0)):
        sums = log_a_partial_sums(MoserParams(n, a), 80)
        assert abs(sums[-1] - sums[-10]) < 1e-9


def test_chain_weight_bounded():
    params = MoserParams(2, 1.0)
    for k in (1, 5, 20):
        log_bound = b_limit(params) * sum(
            abs(math.log(a_coefficient(params, i))) for i in range(1, k + 1))
        assert math.log(chain_weight(params, k)) <= log_bound + 1e-12


def test_k_cap_overflow():
    with pytest.raises(OverflowError):
        p_sequence(MoserParams(2, 1.0), 201)


def test_subsum_examples():
    T = np.zeros((2, 2, 2), dtype=complex)
    T[0, 1, 1] = 1.0  # symmetrized image T[1,1,0] filled by construction
    s = ThirdOrderSample(np.ones(2), T)
    out = third_order_subsum_check(s)
    assert out["holds"] and out["lhs"] <= out["rhs"]
    assert out["lhs"] > 0
    z = third_order_subsum_check(ThirdOrderSample(np.ones(2), np.zeros((2, 2, 2))))
    assert z["lhs"] == 0.0 and z["rhs"] == 0.0 and z["holds"]


def test_sample_validation():
    with pytest.raises(ValueError):
        ThirdOrderSample(np.array([1.0, -1.0]), np.zeros((2, 2, 2)))
    with pytest.raises(ValueError):
        ThirdOrderSample(np.ones(2), np.zeros((2, 2, 3)))


def test_symmetry_enforced():
    rng = np.random.default_rng(0)
    T = rng.normal(size=(3, 3, 3)) + 1j * rng.normal(size=(3, 3, 3))
    s = ThirdOrderSample(np.ones(3), T)
    assert np.allclose(s.T, s.T.transpose(2, 1, 0))


def test_random_batches_hold():
    rng = np.random.default_rng(1)
    for n in (2, 3, 4):
        d, T = random_third_order_samples(n, 5000, rng)
        out = third_order_check_batch(d, T)
        assert out["failures"] == 0


def test_rescaling_invariance():
    rng = np.random.default_rng(2)
    d, T = random_third_order_samples(3, 100, rng)
    out1 = third_order_check_batch(d, T)
    out2 = third_order_check_batch(7.5 * d, T)
    assert np.allclose(out2["lhs"] * 7.5 ** 2, out1["lhs"])
    assert np.allclose(out2["rhs"] * 7.5 ** 2, out1["rhs"])

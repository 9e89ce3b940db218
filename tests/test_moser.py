import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cmalab.errors import IdentityViolated
from cmalab.moser import (MoserParams, a_coefficient, b_product, b_term,
                          critical_exponent, log_a_partial_sums, p_sequence,
                          random_third_order_samples, third_order_check_batch)


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
    assert prods[-1] <= params.p0 / params.a + 1e-12
    assert abs(b_product(params, 60) - 2.0) < 1e-6
    assert abs(b_product(MoserParams(3, 3.0), 60) - 2.0) < 1e-6


def test_a_coefficient_example():
    params = MoserParams(2, 1.0, R=1.0, r=0.5)
    expected = (2.0 * 3.0 ** 1.5 * 2.0) ** (1.0 / 3.0)
    assert a_coefficient(params, 1) == pytest.approx(expected)
    assert a_coefficient(params, 5) > 0


def test_log_a_sums_cauchy():
    for n, a in ((2, 1.0), (3, 3.0)):
        sums = log_a_partial_sums(MoserParams(n, a), 80)
        assert abs(sums[-1] - sums[-10]) < 1e-9


def test_k_cap_overflow():
    with pytest.raises(OverflowError):
        p_sequence(MoserParams(2, 1.0), 201)
    # p_1 = 1.5e308 is finite but 2 p_1 is not: b_1 would be inf/inf = nan
    with pytest.raises(OverflowError, match="2 p_1"):
        b_term(MoserParams(3, 1e308), 1)


def test_subsum_examples():
    T = np.zeros((1, 2, 2, 2), dtype=complex)
    T[0, 0, 1, 1] = T[0, 1, 1, 0] = 0.5  # T[0, 1, 1] = 1 symmetrized in (a, k)
    out = third_order_check_batch(np.ones((1, 2)), T)
    assert out["holds"][0] and out["lhs"][0] <= out["rhs"][0]
    assert out["lhs"][0] > 0
    z = third_order_check_batch(np.ones((1, 2)), np.zeros((1, 2, 2, 2)))
    assert z["lhs"][0] == 0.0 and z["rhs"][0] == 0.0 and z["holds"][0]


def test_symmetry_enforced():
    _, T = random_third_order_samples(3, 10, np.random.default_rng(0))
    assert np.array_equal(T, T.transpose(0, 3, 2, 1))


def _reference_third_order_samples(n, count, rng):
    """The draw written as whole-array expressions, with temporaries."""
    lo, hi = np.log(1e-3), np.log(1e3)
    d = np.exp(rng.uniform(lo, hi, size=(count, n)))
    T = rng.normal(size=(count, n, n, n)) + 1j * rng.normal(size=(count, n, n, n))
    T = 0.5 * (T + T.transpose(0, 3, 2, 1))
    return d, T


@pytest.mark.parametrize("n", [2, 3, 4])
def test_samples_equal_reference_bitwise(n):
    # the in-place draw takes the same numbers from the generator, in the
    # same order, and leaves it in the same state
    rng, ref_rng = np.random.default_rng(n), np.random.default_rng(n)
    d, T = random_third_order_samples(n, 700, rng)
    ref_d, ref_T = _reference_third_order_samples(n, 700, ref_rng)
    assert T.dtype == ref_T.dtype and T.shape == ref_T.shape
    assert np.array_equal(d.view(np.uint64), ref_d.view(np.uint64))
    assert np.array_equal(T.view(float).view(np.uint64), ref_T.view(float).view(np.uint64))
    assert rng.bit_generator.state == ref_rng.bit_generator.state


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

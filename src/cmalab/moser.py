"""Executable iteration machinery behind the interior estimate.

Exponent sequences p_k = a (n/(n-1))^k + n(n-1)/2, products of
b_k = (2 p_k + n)/(2 p_k), the critical integrability exponent
P0 = 2 n p0/(n-1) = n^2 + 2 n a/(n-1), the cut-off coefficients
a_k = (C 2^k p_k^{3/2} / (R - r))^{1/p_k}, and a sampling verifier for
the pointwise third-order sub-sum inequality in diagonal coordinates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import IdentityViolated

__all__ = [
    "MoserParams", "p_sequence", "critical_exponent", "b_term", "b_product",
    "a_coefficient", "log_a_partial_sums",
    "random_third_order_samples", "third_order_check_batch",
]

K_CAP = 200
_D_RANGE = (1e-3, 1e3)   # eigenvalues d of `random_third_order_samples`


@dataclass(frozen=True)
class MoserParams:
    n: int
    a: float
    R: float = 1.0
    r: float = 0.5

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("complex dimension n must be >= 2")
        if not 0 < self.a < math.inf:
            raise ValueError(f"exponent offset a must be finite and positive, got {self.a!r}")
        if not (0.0 < self.r < self.R <= 1.0):
            raise ValueError("radii must satisfy 0 < r < R <= 1")

    @property
    def p0(self) -> float:
        return self.a + self.n * (self.n - 1) / 2.0


def _check_k(k: int, minimum: int = 0) -> None:
    if k < minimum:
        raise ValueError(f"k must be >= {minimum}")
    if k > K_CAP:
        raise OverflowError(f"k = {k} exceeds the cap of {K_CAP}")


def p_sequence(params: MoserParams, k: int) -> float:
    """p_k = a (n/(n-1))^k + n(n-1)/2."""
    _check_k(k)
    n = params.n
    pk = params.a * (n / (n - 1.0)) ** k + n * (n - 1.0) / 2.0
    if not math.isfinite(pk):
        raise OverflowError(f"p_{k} overflows double precision")
    return pk


def critical_exponent(params: MoserParams) -> float:
    """P0 = 2 n p0/(n-1) = n^2 + 2 n a/(n-1); always above n^2."""
    n = params.n
    v1 = 2.0 * n * params.p0 / (n - 1.0)
    v2 = n * n + 2.0 * n * params.a / (n - 1.0)
    if not abs(v1 - v2) <= 1e-12 * abs(v1):
        raise IdentityViolated(f"the two forms of P0 disagree: {v1!r} and {v2!r}")
    return v1


def b_term(params: MoserParams, k: int) -> float:
    """b_k = (2 p_k + n)/(2 p_k)."""
    _check_k(k, minimum=1)
    two_pk = 2.0 * p_sequence(params, k)
    if not math.isfinite(two_pk):
        raise OverflowError(f"2 p_{k} overflows double precision")
    return (two_pk + params.n) / two_pk


def b_product(params: MoserParams, k: int) -> float:
    """prod_{i=1..k} b_i (increasing in k, converging to p0/a)."""
    _check_k(k, minimum=1)
    prod = 1.0
    for i in range(1, k + 1):
        prod *= b_term(params, i)
    return prod


def a_coefficient(params: MoserParams, k: int, C: float = 1.0) -> float:
    """a_k = (C 2^k p_k^{3/2} / (R - r))^{1/p_k}."""
    _check_k(k, minimum=1)
    if not 0 < C < math.inf:
        raise ValueError(f"C must be finite and positive, got {C!r}")
    pk = p_sequence(params, k)
    log_ak = (math.log(C) + k * math.log(2.0) + 1.5 * math.log(pk)
              - math.log(params.R - params.r)) / pk
    return math.exp(log_ak)


def log_a_partial_sums(params: MoserParams, k_max: int, C: float = 1.0) -> np.ndarray:
    """Partial sums of sum_k log a_k for k = 1..k_max (a convergent series)."""
    _check_k(k_max, minimum=1)
    terms = [math.log(a_coefficient(params, k, C)) for k in range(1, k_max + 1)]
    return np.cumsum(terms)


# ---------------------------------------------------------------------------
# third-order sub-sum inequality

def random_third_order_samples(n: int, count: int, rng: np.random.Generator):
    """Batch of (d, T) draws: complex-Gaussian T symmetrized in (a, k),
    d log-uniform over _D_RANGE.  Returned as stacked arrays."""
    lo, hi = np.log(_D_RANGE[0]), np.log(_D_RANGE[1])
    d = np.exp(rng.uniform(lo, hi, size=(count, n)))
    # real parts first, then imaginary parts, drawn straight into T
    shape = (count, n, n, n)
    T = np.empty(shape, dtype=complex)
    T.real = rng.standard_normal(shape)
    T.imag = rng.standard_normal(shape)
    T += T.transpose(0, 3, 2, 1)   # numpy buffers the overlapping operand
    T *= 0.5
    return d, T


def third_order_check_batch(d: np.ndarray, T: np.ndarray) -> dict:
    """Sub-sum check over stacked samples d (count, n) of Hessian
    eigenvalues and T (count, n, n, n), T[c, a, b, k] standing for
    u_{a bbar k} and symmetric in (a, k): per sample,
    lhs = sum_{i,k} |T[i,k,k]|^2/(d_i d_k) is the b = k sub-sum of
    rhs = sum_{a,b,k} |T[a,b,k]|^2/(d_a d_b)."""
    absT2 = np.abs(T) ** 2
    inv = 1.0 / d
    diag = np.abs(np.diagonal(T, axis1=2, axis2=3)) ** 2  # (count, n, n): [.., i, k] = T[i,k,k]
    lhs = np.einsum("cik,ci,ck->c", diag, inv, inv)
    rhs = np.einsum("cabk,ca,cb->c", absT2, inv, inv)
    holds = lhs <= rhs + 1e-12 * rhs
    return {"lhs": lhs, "rhs": rhs, "holds": holds, "failures": int(np.sum(~holds))}

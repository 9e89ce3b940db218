"""Executable iteration machinery behind the interior estimate.

Exponent sequences p_k = a (n/(n-1))^k + n(n-1)/2, products of
b_k = (2 p_k + n)/(2 p_k), the critical integrability exponent
P0 = 2 n p0/(n-1) = n^2 + 2 n a/(n-1), the cut-off coefficients
a_k = (C 2^k p_k^{3/2} / (R - r))^{1/p_k}, and a sampling verifier for
the pointwise third-order sub-sum inequality in diagonal coordinates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import IdentityViolated

__all__ = [
    "MoserParams", "ThirdOrderSample", "p_sequence", "critical_exponent",
    "b_term", "b_product", "b_limit", "b_convergence_k", "a_coefficient",
    "log_a_partial_sums", "chain_weight", "third_order_subsum_check",
    "random_third_order_samples", "third_order_check_batch",
]

K_CAP = 200


@dataclass(frozen=True)
class MoserParams:
    n: int
    a: float
    R: float = 1.0
    r: float = 0.5

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("complex dimension n must be >= 2")
        if self.a <= 0:
            raise ValueError("exponent offset a must be positive")
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
    pk = p_sequence(params, k)
    return (2.0 * pk + params.n) / (2.0 * pk)


def b_product(params: MoserParams, k: int) -> float:
    """prod_{i=1..k} b_i (increasing in k, converging to p0/a)."""
    _check_k(k, minimum=1)
    prod = 1.0
    for i in range(1, k + 1):
        prod *= b_term(params, i)
    return prod


def b_limit(params: MoserParams) -> float:
    return params.p0 / params.a


def b_convergence_k(params: MoserParams, tol: float = 1e-6) -> int:
    """Smallest k with |b_product(k) - p0/a| < tol."""
    limit = b_limit(params)
    prod = 1.0
    for k in range(1, K_CAP + 1):
        prod *= b_term(params, k)
        if abs(prod - limit) < tol:
            return k
    raise OverflowError(f"product did not reach tolerance {tol} by k = {K_CAP}")


def a_coefficient(params: MoserParams, k: int, C: float = 1.0) -> float:
    """a_k = (C 2^k p_k^{3/2} / (R - r))^{1/p_k}."""
    _check_k(k, minimum=1)
    if C <= 0:
        raise ValueError("C must be positive")
    pk = p_sequence(params, k)
    log_ak = (math.log(C) + k * math.log(2.0) + 1.5 * math.log(pk)
              - math.log(params.R - params.r)) / pk
    return math.exp(log_ak)


def log_a_partial_sums(params: MoserParams, k_max: int, C: float = 1.0) -> np.ndarray:
    """Partial sums of sum_k log a_k for k = 1..k_max (a convergent series)."""
    _check_k(k_max, minimum=1)
    terms = [math.log(a_coefficient(params, k, C)) for k in range(1, k_max + 1)]
    return np.cumsum(terms)


def chain_weight(params: MoserParams, k: int, C: float = 1.0) -> float:
    """a_k a_{k-1}^{b_k} a_{k-2}^{b_k b_{k-1}} ... a_1^{b_k ... b_2}."""
    _check_k(k, minimum=1)
    log_w = 0.0
    suffix = 1.0  # prod_{j=i+1..k} b_j, built from i = k downward
    for i in range(k, 0, -1):
        log_w += suffix * math.log(a_coefficient(params, i, C))
        suffix *= b_term(params, i)
    return math.exp(log_w)


# ---------------------------------------------------------------------------
# third-order sub-sum inequality

@dataclass(frozen=True)
class ThirdOrderSample:
    """Diagonalized Hessian eigenvalues d and third-derivative tensor T.

    T[a][b][k] stands for u_{a bbar k}; construction enforces the exact
    symmetry T[a][b][k] = T[k][b][a] in the holomorphic indices.
    """

    d: np.ndarray = field(repr=False)
    T: np.ndarray = field(repr=False)

    def __post_init__(self):
        d = np.asarray(self.d, dtype=float)
        T = np.asarray(self.T, dtype=complex)
        n = d.size
        if T.shape != (n, n, n):
            raise ValueError("T must be an (n, n, n) tensor")
        if np.any(d <= 0):
            raise ValueError("diagonal entries must be strictly positive")
        T = 0.5 * (T + T.transpose(2, 1, 0))
        d.setflags(write=False)
        T.setflags(write=False)
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "T", T)

    @property
    def n(self) -> int:
        return self.d.size


def third_order_subsum_check(s: ThirdOrderSample) -> dict:
    """lhs = sum_{i,k} |T[i,k,k]|^2/(d_i d_k) against the full sum
    rhs = sum_{a,b,k} |T[a,b,k]|^2/(d_a d_b); lhs is the b = k sub-sum."""
    d = s.d
    T = s.T
    lhs = float(np.sum(np.abs(np.diagonal(T, axis1=1, axis2=2)) ** 2 / np.outer(d, d)))
    rhs = float(np.einsum("abk,a,b->", np.abs(T) ** 2, 1.0 / d, 1.0 / d).real)
    return {"lhs": lhs, "rhs": rhs, "holds": lhs <= rhs + 1e-12 * rhs}


def random_third_order_samples(n: int, count: int, rng: np.random.Generator,
                               d_range=(1e-3, 1e3)):
    """Batch of (d, T) draws: complex-Gaussian T symmetrized in (a, k),
    d log-uniform over d_range.  Returned as stacked arrays."""
    lo, hi = np.log(d_range[0]), np.log(d_range[1])
    d = np.exp(rng.uniform(lo, hi, size=(count, n)))
    T = rng.normal(size=(count, n, n, n)) + 1j * rng.normal(size=(count, n, n, n))
    T = 0.5 * (T + T.transpose(0, 3, 2, 1))
    return d, T


def third_order_check_batch(d: np.ndarray, T: np.ndarray) -> dict:
    """Vectorized sub-sum check over stacked samples (count, n) / (count, n, n, n)."""
    absT2 = np.abs(T) ** 2
    inv = 1.0 / d
    diag = np.abs(np.diagonal(T, axis1=2, axis2=3)) ** 2  # (count, n, n): [.., i, k] = T[i,k,k]
    lhs = np.einsum("cik,ci,ck->c", diag, inv, inv)
    rhs = np.einsum("cabk,ca,cb->c", absT2, inv, inv)
    holds = lhs <= rhs + 1e-12 * rhs
    return {"lhs": lhs, "rhs": rhs, "holds": holds, "failures": int(np.sum(~holds))}

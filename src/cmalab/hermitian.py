"""Small dense complex-Hermitian linear algebra.

Everything here operates on tiny matrices (complex dimension of the
ambient space, so n <= ~6) and favours plain, checkable algorithms:
eigenvalues come from LAPACK (numpy.linalg.eigvalsh), log-determinants
from Cholesky pivots.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import IdentityViolated, NotPositiveDefinite, SingularForm

__all__ = [
    "HermitianForm",
    "herm_det",
    "herm_inverse",
    "psd_report",
    "log_det",
]


@dataclass(frozen=True)
class HermitianForm:
    """An n x n complex Hermitian matrix, symmetrized on construction."""

    entries: np.ndarray = field(repr=False)

    def __init__(self, entries):
        a = np.asarray(entries, dtype=complex)
        if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 1:
            raise ValueError(f"expected a square matrix, got shape {a.shape}")
        # finite-difference Hessians carry O(h^2) asymmetry; average it away
        a = 0.5 * (a + a.conj().T)
        a.setflags(write=False)
        object.__setattr__(self, "entries", a)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]


def herm_det(h: HermitianForm) -> float:
    """Determinant of a Hermitian matrix; the imaginary residue is discarded."""
    with np.errstate(invalid="ignore"):  # a nan entry is refused below
        d = np.linalg.det(h.entries)
    scale = max(abs(d), 1.0)
    if not abs(d.imag) <= 1e-12 * scale:  # also refuses a nan determinant
        raise IdentityViolated(f"Hermitian determinant {complex(d)} is not real")
    return float(d.real)


def _det_scale(h: HermitianForm) -> float:
    m = float(np.max(np.abs(h.entries)))
    if m == 0.0:
        return 1.0
    return m ** h.dim


def herm_inverse(h: HermitianForm) -> HermitianForm:
    """Inverse, re-symmetrized; raises SingularForm near rank deficiency."""
    d = herm_det(h)
    if abs(d) < 1e-14 * _det_scale(h):
        raise SingularForm(f"determinant {d:.3e} below tolerance")
    return HermitianForm(np.linalg.inv(h.entries))


def psd_report(h: HermitianForm, tol: float) -> dict:
    """Positivity report: min eigenvalue plus PSD / PD verdicts at tolerance."""
    if tol < 0:
        raise ValueError("tol must be nonnegative")
    eigs = np.linalg.eigvalsh(h.entries)
    mn = float(eigs[0])
    return {
        "min_eigenvalue": mn,
        "is_psd": mn >= -tol,
        "is_pd": mn > tol,
    }


def log_det(h: HermitianForm) -> float:
    """log det via Cholesky pivots; stable for ill-conditioned PD matrices."""
    try:
        chol = np.linalg.cholesky(h.entries)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefinite(str(exc)) from exc
    diag = np.diag(chol).real
    if np.any(diag <= 0):
        raise NotPositiveDefinite("nonpositive Cholesky pivot")
    return float(2.0 * np.sum(np.log(diag)))

"""Small dense complex-Hermitian linear algebra.

Everything here operates on tiny matrices (complex dimension of the
ambient space, so n <= ~6) and favours plain, checkable algorithms:
eigenvalues come from LAPACK (numpy.linalg.eigvalsh), determinants from
numpy.linalg.det.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import IdentityViolated

__all__ = [
    "HermitianForm",
    "herm_det",
    "psd_report",
]


@dataclass(frozen=True)
class HermitianForm:
    """An n x n complex Hermitian matrix, symmetrized on construction."""

    entries: np.ndarray = field(repr=False)

    def __init__(self, entries):
        a = np.asarray(entries, dtype=complex)
        if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 1:
            raise ValueError(f"expected a square matrix, got shape {a.shape}")
        # the form takes any caller's matrix, so keep only its Hermitian part
        a = 0.5 * (a + a.conj().T)
        a.setflags(write=False)
        object.__setattr__(self, "entries", a)


def herm_det(h: HermitianForm) -> float:
    """Determinant of a Hermitian matrix; the imaginary residue is discarded."""
    with np.errstate(invalid="ignore"):  # a nan entry is refused below
        d = np.linalg.det(h.entries)
    scale = max(abs(d), 1.0)
    if not abs(d.imag) <= 1e-12 * scale:  # also refuses a nan determinant
        raise IdentityViolated(f"Hermitian determinant {complex(d)} is not real")
    return float(d.real)


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

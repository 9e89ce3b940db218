import warnings

import numpy as np
import pytest

from cmalab.errors import IdentityViolated, NotPositiveDefinite, SingularForm
from cmalab.hermitian import (HermitianForm, herm_det, herm_inverse, log_det,
                              psd_report)


def test_construction_symmetrizes():
    h = HermitianForm([[1.0, 1.0 + 0.2j], [1.0, 2.0]])
    assert np.allclose(h.entries, h.entries.conj().T)
    assert h.dim == 2


def test_rejects_nonsquare():
    with pytest.raises(ValueError):
        HermitianForm(np.zeros((2, 3)))


def test_det_examples():
    assert herm_det(HermitianForm(np.eye(2))) == pytest.approx(1.0)
    assert herm_det(HermitianForm(np.diag([2.0, 0.5]))) == pytest.approx(1.0)
    assert herm_det(HermitianForm([[2.0, 1.0], [1.0, 1.0]])) == pytest.approx(1.0)


def test_logdet_examples():
    assert log_det(HermitianForm(np.eye(3))) == pytest.approx(0.0)
    e = np.e
    assert log_det(HermitianForm(np.diag([e, e]))) == pytest.approx(2.0)
    assert log_det(HermitianForm([[2.0, 1.0], [1.0, 1.0]])) == pytest.approx(0.0, abs=1e-12)


def test_logdet_rejects_indefinite():
    with pytest.raises(NotPositiveDefinite):
        log_det(HermitianForm(np.diag([1.0, -1.0])))


def test_inverse_roundtrip():
    rng = np.random.default_rng(0)
    for _ in range(20):
        a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        h = HermitianForm(a @ a.conj().T + 0.5 * np.eye(4))
        back = herm_inverse(herm_inverse(h))
        assert np.max(np.abs(back.entries - h.entries)) < 1e-8


def test_inverse_singular():
    with pytest.raises(SingularForm):
        herm_inverse(HermitianForm(np.zeros((2, 2))))


def test_det_rejects_nan():
    # a raised error, not an assert that vanishes under python -O, and no
    # numpy warning on the way
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(IdentityViolated):
            herm_det(HermitianForm([[np.nan, 0.0], [0.0, 1.0]]))


def test_unitary_invariance_of_det():
    rng = np.random.default_rng(2)
    for _ in range(10):
        a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        h = HermitianForm(a + a.conj().T)
        q, _ = np.linalg.qr(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
        rotated = HermitianForm(q.conj().T @ h.entries @ q)
        assert herm_det(rotated) == pytest.approx(herm_det(h), rel=1e-10, abs=1e-10)


def test_psd_report():
    rep = psd_report(HermitianForm(np.diag([2.0, 0.0])), 1e-12)
    assert rep["is_psd"] and not rep["is_pd"]
    rep = psd_report(HermitianForm(np.diag([1.0, -0.1])), 0.0)
    assert not rep["is_psd"]
    rep = psd_report(HermitianForm(np.eye(2)), 1e-12)
    assert rep["is_pd"] and rep["min_eigenvalue"] == pytest.approx(1.0)


def test_shifted():
    h = HermitianForm(np.diag([1.0, 2.0])).shifted(0.5)
    assert np.allclose(np.diag(h.entries).real, [1.5, 2.5])

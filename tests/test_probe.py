import functools

import numpy as np
import pytest

from cmalab import probe
from cmalab.families import SolutionFamily
from cmalab.grid import (GridDomain, complex_laplacian_fd, sample,
                         second_derivative_magnitude)
from cmalab.probe import holder_fit, rhs_lipschitz_scaling, w2p_divergence_scan


def test_holder_fit_pure_power():
    def f(pts):
        r = np.linalg.norm(pts, axis=-1)
        return r ** 0.4

    out = holder_fit(f, np.zeros(4), np.logspace(-4, -1, 10))
    assert out["alpha"] == pytest.approx(0.4, abs=1e-6)


def test_holder_fit_families():
    radii = np.logspace(-4, -1, 10)
    a2 = holder_fit(SolutionFamily("pogorelov2", 2, 0.0), np.zeros(4), radii)
    assert abs(a2["alpha"] - 1.0) < 0.05
    a3 = holder_fit(SolutionFamily("pogorelov_n", 3, 0.0), np.zeros(6), radii)
    assert abs(a3["alpha"] - 2.0 / 3.0) < 0.05


def test_holder_fit_needs_decades():
    with pytest.raises(ValueError):
        holder_fit(SolutionFamily("pogorelov2", 2, 0.0), np.zeros(4),
                   np.linspace(0.5, 1.0, 8))


def test_w2p_scan_flips_c2():
    scan = w2p_divergence_scan(SolutionFamily("pogorelov2", 2), [0.5, 3.0],
                               base_points=33)
    assert scan[0].verdict == "bounded"
    assert scan[1].verdict == "divergent"
    assert scan[0].p < scan[1].p


def test_w2p_verdicts_monotone_in_p():
    scan = w2p_divergence_scan(SolutionFamily("pogorelov2", 2),
                               [0.5, 1.5, 2.5, 3.5], base_points=33)
    seen_divergent = False
    for e in scan:
        if e.verdict == "divergent":
            seen_divergent = True
        assert not (seen_divergent and e.verdict == "bounded")


def test_mass_terms_equal_masked_trapezoid_sum():
    fam = SolutionFamily("theorem_v", 3, 0.0)
    dom = probe._scan_domain(fam, 13)
    u = sample(dom, fam.value)
    axes = []
    for cnt, h in zip(dom.shape, dom.spacings):
        wa = np.full(cnt, h)
        wa[0] = wa[-1] = 0.0
        wa[1] = wa[-2] = 0.5 * h
        axes.append(wa)
    w = functools.reduce(np.multiply.outer, axes)
    # the interior nodes outside the tube
    keep = np.pad(np.ones(tuple(s - 2 for s in dom.shape), dtype=bool), 1) & ~dom.excluded_mask()
    assert np.any(keep) and not np.all(keep)
    for obs in (second_derivative_magnitude(u), complex_laplacian_fd(u)):
        magnitude, weights = probe._mass_terms(obs)
        for p in (0.5, 2.0, 12.0):
            # the same terms in the same order: equal to the bit
            assert np.sum(magnitude ** p * weights) == \
                np.sum(np.where(keep, np.abs(obs.values) ** p * w, 0.0))


def test_mass_terms_ignore_values_at_invalid_nodes():
    fam = SolutionFamily("pogorelov2", 2, 0.0)
    obs = second_derivative_magnitude(sample(probe._scan_domain(fam, 13), fam.value))
    values = obs.values.copy()
    values[0, 0, 0, 0] = 1e300      # a boundary-ring node: zero weight
    magnitude, weights = probe._mass_terms(type(obs)(obs.domain, values))
    assert np.isfinite(np.sum(magnitude ** 12.0 * weights))


def test_w2p_scans_build_no_coordinate_array(monkeypatch):
    # the scans sample their families on the open grid, never on the
    # (num_nodes, 2n) node list
    def refuse(self):
        raise AssertionError("node_coords_flat called")

    monkeypatch.setattr(GridDomain, "node_coords_flat", refuse)
    for fam, opts in ((SolutionFamily("theorem_v", 3), {}),
                      (SolutionFamily("blocki", 3), {"use_laplacian": True})):
        scan = w2p_divergence_scan(fam, [0.5, 2.0], refinements=2, base_points=9, **opts)
        assert len(scan) == 2


@pytest.mark.parametrize("p", [0.0, -1.0])
def test_w2p_scan_rejects_nonpositive_p(p):
    with pytest.raises(ValueError):
        w2p_divergence_scan(SolutionFamily("pogorelov2", 2), [1.0, p])


def test_lipschitz_scaling_law():
    eps = [1 / 16, 1 / 64, 1 / 256]
    out = rhs_lipschitz_scaling(eps)
    sups = [s for _, s in out]
    assert all(a < b for a, b in zip(sups, sups[1:]))
    for lo, hi in zip(sups, sups[1:]):
        assert 1.7 <= hi / lo <= 2.3


def test_lipschitz_grows_with_compact():
    out_small = rhs_lipschitz_scaling([1e-4], z_max=1.0)
    out_big = rhs_lipschitz_scaling([1e-4], z_max=2.0)
    assert out_big[0][1] > out_small[0][1]


def test_lipschitz_validation():
    with pytest.raises(ValueError):
        rhs_lipschitz_scaling([0.25, 0.5])
    with pytest.raises(ValueError):
        rhs_lipschitz_scaling([0.25, 0.0])

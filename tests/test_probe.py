import functools

import numpy as np
import pytest

from cmalab import probe
from cmalab.families import SolutionFamily
from cmalab.grid import (GridDomain, GridField, complex_laplacian_fd, sample,
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


def _full_grid_weights(dom):
    """The scan's trapezoid weights over the full grid: zero on the boundary
    ring and in the excluded tube, half on the ring next to the boundary."""
    axes = []
    for cnt, h in zip(dom.shape, dom.spacings):
        wa = np.full(cnt, h)
        wa[0] = wa[-1] = 0.0
        wa[1] = wa[-2] = 0.5 * h
        axes.append(wa)
    grid = dom.open_grid()
    tube = sum(grid[a] ** 2 for a in dom.singular_axes) < dom.excluded_tube_radius ** 2
    return np.where(tube, 0.0, functools.reduce(np.multiply.outer, axes))


def _full_grid_masses(obs, p_list):
    # the former `_mass_terms` and `_refinement_masses` formula, over the full grid
    w = _full_grid_weights(obs.domain)
    magnitude = np.abs(obs.values)
    magnitude[w == 0.0] = 0.0
    return [np.sum(magnitude ** p * w) for p in p_list]


def test_mass_terms_equal_masked_trapezoid_sum():
    fam = SolutionFamily("theorem_v", 3, 0.0)
    dom = probe._scan_domain(fam, 13)
    u = sample(dom, fam.value)
    w = _full_grid_weights(dom)
    # the interior nodes outside the tube
    keep = w > 0
    assert np.any(keep) and not np.all(keep)
    for obs in (second_derivative_magnitude(u), complex_laplacian_fd(u)):
        masses = probe._masses(obs, (0.5, 2.0, 12.0))
        for p, mass in zip((0.5, 2.0, 12.0), masses):
            # the same terms in the same order: equal to the bit
            assert mass == np.sum(np.where(keep, np.abs(obs.values) ** p * w, 0.0))


def test_mass_terms_ignore_values_at_invalid_nodes():
    fam = SolutionFamily("pogorelov2", 2, 0.0)
    obs = second_derivative_magnitude(sample(probe._scan_domain(fam, 13), fam.value))
    values = obs.values.copy()
    values[0, 0, 0, 0] = 1e300      # a boundary-ring node: zero weight
    values[2, 2, 6, 6] = 1e300      # the tube's axis: zero weight
    (mass,) = probe._masses(type(obs)(obs.domain, values), [12.0])
    assert np.isfinite(mass)


def test_excluded_tube_has_no_weight():
    dom = GridDomain(np.zeros(4), np.ones(4), (9,) * 4, excluded_tube_radius=0.3)
    weights = probe._interior_weights(dom)
    coords = dom.node_coords_flat().reshape(dom.shape + (4,))[(slice(1, -1),) * 4]
    wmod = np.hypot(coords[..., -2], coords[..., -1])
    assert weights.shape == (7,) * 4
    assert np.array_equal(weights == 0.0, wmod < 0.3)


def _former_observable(u, laplacian):
    """complex_laplacian_fd (laplacian) or second_derivative_magnitude as
    whole-array expressions, the form they had before they accumulated in
    place."""
    def view(shift):
        return u.values[tuple(slice(1 + shift.get(a, 0), s - 1 + shift.get(a, 0))
                              for a, s in enumerate(u.values.shape))]

    def second(a, h):
        return (view({a: 1}) - 2.0 * view({}) + view({a: -1})) / (h * h)

    def cross(a, b, ha, hb):
        return (view({a: 1, b: 1}) - view({a: 1, b: -1}) - view({a: -1, b: 1})
                + view({a: -1, b: -1})) / (4.0 * ha * hb)

    shape, h = u.domain.shape, u.domain.spacings
    acc = np.zeros(tuple(s - 2 for s in shape))
    for a in range(len(shape)):
        d2 = second(a, h[a])
        if laplacian:
            acc += d2
            continue
        acc += d2 * d2
        for b in range(a + 1, len(shape)):
            d2 = cross(a, b, h[a], h[b])
            acc += 2.0 * d2 * d2
    out = np.zeros(shape)
    out[tuple(slice(1, -1) for _ in shape)] = 0.25 * acc if laplacian else np.sqrt(acc)
    return GridField(u.domain, out)


def test_observables_equal_former_expressions_on_a_skewed_grid():
    # a non-cubic 6-d grid with unequal spacings on every axis
    dom = GridDomain([0.1, -0.2, 0.05, 0.3, 0.0, -0.1], [0.7, 1.0, 0.4, 1.3, 0.9, 0.55],
                     (5, 6, 4, 7, 5, 8))
    assert len(set(dom.spacings)) == 6
    u = GridField(dom, np.random.default_rng(6).normal(size=dom.shape))
    ring = np.ones(dom.shape, dtype=bool)
    ring[(slice(1, -1),) * 6] = False
    for observable, laplacian in ((complex_laplacian_fd, True),
                                  (second_derivative_magnitude, False)):
        values = observable(u).values
        assert values.tobytes() == _former_observable(u, laplacian).values.tobytes()
        assert np.all(values[ring] == 0.0)


@pytest.mark.parametrize("kind, dim, p_list, opts", [
    ("pogorelov2", 2, (1.0, 3.0), {"base_points": 17}),
    ("theorem_v", 3, (0.5, 2.0), {"base_points": 13}),
    ("blocki", 3, (4.0, 12.0), {"base_points": 9, "growth": 1.26, "refinements": 4,
                                "use_laplacian": True}),
])
def test_scan_entries_equal_full_grid_formula(kind, dim, p_list, opts):
    # a reduced-size case of each benchmark scan: the same ScanEntry values
    # as the slopes of the former observables' full-grid masses
    fam = SolutionFamily(kind, dim, 0.0)
    counts = [opts["base_points"]]
    for _ in range(opts.get("refinements", 3) - 1):
        counts.append(int(round((counts[-1] - 1) * opts.get("growth", np.sqrt(2.0)))) + 1)
    masses = np.array([_full_grid_masses(
        _former_observable(sample(probe._scan_domain(fam, c), fam.value),
                           opts.get("use_laplacian", False)), p_list) for c in counts]).T
    log_h = np.log(np.array([2.0 / (c - 3) for c in counts]))
    expected = []
    for p, row in zip(p_list, masses):
        slope = float(np.polyfit(log_h, np.log(row), 1)[0])
        expected.append(probe.ScanEntry(p=p, slope=slope, verdict=probe._verdict(slope)))
    assert w2p_divergence_scan(fam, list(p_list), **opts) == expected


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

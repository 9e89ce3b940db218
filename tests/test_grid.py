import numpy as np
import pytest

from cmalab.errors import BoundaryNode, GridTooLarge, NonFiniteSample
from cmalab.families import SolutionFamily, eval_analytic_hessian
from cmalab.grid import (GridDomain, GridField, complex_hessian_fd,
                         complex_laplacian_fd, domain_from_dict,
                         domain_to_dict, field_from_csv, field_from_json,
                         field_to_csv, field_to_json, lp_norm,
                         real_hessian_fd, refine, sample,
                         second_derivative_magnitude, w2p_seminorm,
                         wirtinger_from_real_hessian)


def box(points=9, n=2, hw=1.0, **kw):
    return GridDomain(np.zeros(2 * n), np.full(2 * n, hw), (points,) * (2 * n), **kw)


def test_spacings_and_coords():
    dom = box(9)
    assert np.allclose(dom.spacings, 0.25)
    assert dom.axis_coords(0)[0] == -1.0 and dom.axis_coords(0)[-1] == 1.0
    assert dom.node_coords_flat().shape == (9 ** 4, 4)


def test_grid_too_large():
    with pytest.raises(GridTooLarge):
        box(200)  # 200^4 = 1.6e9 nodes


def test_excluded_tube():
    dom = box(9, excluded_tube_radius=0.3)
    mask = dom.excluded_mask()
    coords = dom.node_coords_flat()
    wmod = np.hypot(coords[:, -2], coords[:, -1])
    assert np.array_equal(mask.ravel(), wmod < 0.3)


def test_sample_rejects_nonfinite_outside_tube():
    dom = box(9)

    def f(pts):
        out = np.ones(pts.shape[:-1])
        out[np.abs(pts[..., 0]) < 1e-12] = np.nan
        return out

    with pytest.raises(NonFiniteSample):
        sample(dom, f)


def test_sample_tolerates_nonfinite_in_tube():
    dom = box(9, excluded_tube_radius=0.3)

    def f(pts):
        t = pts[..., -2] ** 2 + pts[..., -1] ** 2
        with np.errstate(divide="ignore"):
            return np.where(t > 0, 1.0, np.inf)

    u = sample(dom, f)
    assert not np.all(u.valid)
    assert np.all(u.valid | dom.excluded_mask())


def test_real_hessian_on_quadratic():
    dom = box(9)
    coords = dom.node_coords_flat()
    A = np.array([[2.0, 0.5, 0, 0], [0.5, 1.0, 0, 0.3],
                  [0, 0, 1.5, 0], [0, 0.3, 0, 0.5]])
    u = GridField(dom, 0.5 * np.einsum("ma,ab,mb->m", coords, A, coords).reshape(dom.shape))
    H = real_hessian_fd(u, (4, 4, 4, 4))
    assert np.max(np.abs(H - A)) < 1e-10


def test_real_hessian_boundary_node():
    dom = box(9)
    u = GridField(dom, np.zeros(dom.shape))
    with pytest.raises(BoundaryNode):
        real_hessian_fd(u, (0, 4, 4, 4))


def test_wirtinger_identity():
    # the squared modulus of the first complex coordinate has Hessian e11
    H = np.diag([2.0, 2.0, 0.0, 0.0])
    C = wirtinger_from_real_hessian(H)
    assert np.allclose(C, [[1.0, 0.0], [0.0, 0.0]])


def test_fd_hessian_matches_analytic():
    fam = SolutionFamily("pogorelov2", 2, 0.5)
    pt = np.array([0.3, -0.2, 0.4, 0.1])
    gaps = []
    for h in (0.02, 0.01):
        dom = GridDomain(pt, np.full(4, h), (3,) * 4)
        u = sample(dom, fam.value)
        fd = complex_hessian_fd(u, (1, 1, 1, 1))
        exact = eval_analytic_hessian(fam, pt)
        gaps.append(np.max(np.abs(fd.entries - exact.entries)))
    assert gaps[0] < 1e-3
    assert 3.0 < gaps[0] / gaps[1] < 5.0  # second order


def test_complex_laplacian_of_squared_modulus():
    dom = box(9)
    coords = dom.node_coords_flat()
    u = GridField(dom, np.sum(coords ** 2, axis=1).reshape(dom.shape))
    lap = complex_laplacian_fd(u)
    core = (slice(1, -1),) * 4
    assert np.max(np.abs(lap.values[core] - 2.0)) < 1e-11
    assert not lap.valid[0, 4, 4, 4]


def test_stencils_agree_with_pointwise_hessian():
    # the whole-grid stencils and the per-node real Hessian share one
    # stencil pair; check them against each other on a random field
    dom = box(5)
    u = GridField(dom, np.random.default_rng(3).normal(size=dom.shape))
    lap = complex_laplacian_fd(u)
    mag = second_derivative_magnitude(u)
    for idx in np.ndindex(*(s - 2 for s in dom.shape)):
        node = tuple(i + 1 for i in idx)
        H = real_hessian_fd(u, node)
        # the Frobenius norm counts each off-diagonal entry twice
        assert mag.values[node] == pytest.approx(np.sqrt(np.sum(H * H)), rel=1e-13)
        assert lap.values[node] == pytest.approx(0.25 * np.trace(H), rel=1e-13, abs=1e-12)


def test_lp_norm_constant():
    dom = box(9)
    u = GridField(dom, np.full(dom.shape, 3.0))
    # cell-sum quadrature of a constant, then the 1/p root
    assert lp_norm(u, 2.0) == pytest.approx((3.0 ** 2 * 9 ** 4 * np.prod(dom.spacings)) ** 0.5)


def test_w2p_seminorm_smooth():
    dom = box(9)
    coords = dom.node_coords_flat()
    u = GridField(dom, (coords[:, 0] ** 2).reshape(dom.shape))
    s = w2p_seminorm(u, 2.0)
    assert s > 0
    mag = second_derivative_magnitude(u)
    core = (slice(1, -1),) * 4
    assert np.max(np.abs(mag.values[core] - 2.0)) < 1e-10


def test_csv_roundtrip_identical():
    dom = box(5)
    rng = np.random.default_rng(0)
    u = GridField(dom, rng.normal(size=dom.shape))
    text = field_to_csv(u)
    back = field_from_csv(text)
    assert np.array_equal(back.values, u.values)
    assert field_to_csv(back) == text


def test_json_roundtrip():
    dom = box(5, excluded_tube_radius=0.2)
    u = GridField(dom, np.ones(dom.shape))
    back = field_from_json(field_to_json(u))
    assert np.array_equal(back.values, u.values)
    assert domain_to_dict(domain_from_dict(domain_to_dict(dom))) == domain_to_dict(dom)


def test_refine_halves_spacing():
    # tube radius tracks 2h, so a 2h-radius tube halves under refinement
    dom = box(9, excluded_tube_radius=0.5)
    fine = refine(dom)
    assert fine.points_per_axis == (17, 17, 17, 17)
    assert np.allclose(fine.spacings, dom.spacings / 2)
    assert fine.excluded_tube_radius == pytest.approx(dom.excluded_tube_radius / 2)

import numpy as np
import pytest

from cmalab.errors import BoundaryNode, GridTooLarge, NonFiniteSample
from cmalab.families import SolutionFamily, eval_analytic_hessian, eval_rhs, eval_value
from cmalab.grid import (GridDomain, GridField, _second_diff, complex_hessian_fd,
                         complex_laplacian_fd, field_to_csv, real_hessian_fd,
                         sample, second_derivative_magnitude,
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


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_domain_rejects_non_finite(bad):
    with pytest.raises(ValueError, match="center"):
        GridDomain([0.0, bad, 0.0, 0.0], np.ones(4), (5,) * 4)
    with pytest.raises(ValueError, match="half widths"):
        GridDomain(np.zeros(4), [1.0, 1.0, bad, 1.0], (5,) * 4)
    with pytest.raises(ValueError, match="excluded_tube_radius"):
        GridDomain(np.zeros(4), np.ones(4), (5,) * 4, excluded_tube_radius=bad)


def test_domain_needs_a_width_and_count_per_axis():
    # a scalar half width or node count is not broadcast to every axis
    with pytest.raises(ValueError, match="must agree"):
        GridDomain(np.zeros(4), 1.0, (5,) * 4)
    with pytest.raises(ValueError, match="must agree"):
        GridDomain(np.zeros(4), np.ones(4), 5)


def test_sample_rejects_nonfinite_outside_tube():
    dom = box(9)

    def f(grid):
        return np.where(np.abs(grid[0]) < 1e-12, np.nan, 1.0)

    with pytest.raises(NonFiniteSample) as err:
        sample(dom, f)
    assert err.value.node == (4, 0, 0, 0)

    # the excluded tube only leaves integrals: a nan inside it is refused too
    def in_tube(grid):
        t = grid[-2] ** 2 + grid[-1] ** 2
        return np.where(t > 0, 1.0, np.nan)

    with pytest.raises(NonFiniteSample) as err:
        sample(box(9, excluded_tube_radius=0.3), in_tube)
    assert err.value.node == (0, 0, 4, 4)


def meshgrid_coords(dom):
    grids = np.meshgrid(*[dom.axis_coords(a) for a in range(2 * dom.n)], indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=-1)


def scan_box(n=3):
    # a W^{2,p} scan layout: coarse regular axes, fine singular ones
    pts = (4, 3) * (n - 1) + (11, 13)
    return GridDomain(np.full(2 * n, 0.1), np.full(2 * n, 1.0), pts,
                      excluded_tube_radius=0.2)


def test_node_coords_flat_equals_meshgrid():
    for dom in (scan_box(), box(9), box(300, n=1), GridDomain([0.5, -1.0], [1.0, 2.0], (3, 4))):
        assert np.array_equal(dom.node_coords_flat(), meshgrid_coords(dom))


def families(n):
    kinds = [("pogorelov2", 0.3)] if n == 2 else [("pogorelov_n", 0.3)]
    kinds += [("theorem_v", 0.0), ("degenerate", 0.0), ("blocki", 0.0)]
    return [SolutionFamily(kind, n, eps) for kind, eps in kinds]


@pytest.mark.parametrize("n", [2, 3, 4])
def test_sample_equals_point_form(n):
    # the open grid form broadcasts per-axis terms; every node still gets
    # the bits of the point form
    dom = scan_box(n)
    coords = meshgrid_coords(dom)
    for fam in families(n):
        u = sample(dom, fam.value)
        assert u.values.tobytes() == eval_value(fam, coords).reshape(dom.shape).tobytes()


@pytest.mark.parametrize("n", [2, 3, 4])
def test_eval_rhs_grid_form_equals_point_form(n):
    dom = scan_box(n)
    coords = meshgrid_coords(dom)
    for fam in families(n)[:-1]:   # blocki has no closed-form rhs
        u = sample(dom, lambda grid: eval_rhs(fam, grid))
        assert u.values.tobytes() == eval_rhs(fam, coords).reshape(dom.shape).tobytes()


def test_sample_point_fallback():
    # there is none: f gets the whole open grid, and whatever it does with it shows
    dom = box(7)

    def pointwise(p):
        if isinstance(p, tuple):
            raise TypeError("one point at a time")
        return float(np.sum(np.asarray(p) ** 2))

    def wrong_shape(grid):
        return np.zeros(3)

    with pytest.raises(TypeError, match="one point at a time"):
        sample(dom, pointwise)
    with pytest.raises(ValueError, match=r"shape \(3,\) for a grid of shape \(7, 7, 7, 7\)"):
        sample(dom, wrong_shape)

    # a full C-contiguous float64 result is kept, any other is broadcast
    full = np.ones(dom.shape)
    assert np.shares_memory(sample(dom, lambda grid: full).values, full)
    assert np.array_equal(sample(dom, lambda grid: 2.0).values, np.full(dom.shape, 2.0))
    t = sample(dom, lambda grid: grid[0] + 0 * grid[3]).values
    assert t.flags.c_contiguous and t.shape == dom.shape


def test_sample_nonfinite_first_node_and_tube():
    dom = box(9, excluded_tube_radius=0.3)
    coords = meshgrid_coords(dom).reshape(dom.shape + (4,))
    bad = [(6, 2, 0, 8), (1, 5, 7, 0), (4, 4, 4, 4)]   # 2nd first in row-major

    def f(grid):
        out = np.ones(dom.shape)
        for node in bad:
            hit = True
            for g, c in zip(grid, coords[node]):
                hit = hit & (g == c)
            out[hit] = np.nan
        return out

    with pytest.raises(NonFiniteSample) as err:
        sample(dom, f)
    assert err.value.node == (1, 5, 7, 0)


def test_real_hessian_on_quadratic():
    dom = box(9)
    coords = dom.node_coords_flat()
    A = np.array([[2.0, 0.5, 0, 0], [0.5, 1.0, 0, 0.3],
                  [0, 0, 1.5, 0], [0, 0.3, 0, 0.5]])
    u = GridField(dom, 0.5 * np.einsum("ma,ab,mb->m", coords, A, coords).reshape(dom.shape))
    H = real_hessian_fd(u, (4, 4, 4, 4))
    assert np.max(np.abs(H - A)) < 1e-10


def test_w2p_seminorm_smooth():
    # second_derivative_magnitude is the pointwise W^{2,p} integrand read by
    # probe.w2p_divergence_scan. On x1^2 the only second derivative is
    # u_{x1 x1} = 2 at every interior node.
    dom = box(9)
    coords = dom.node_coords_flat()
    mag = second_derivative_magnitude(GridField(dom, (coords[:, 0] ** 2).reshape(dom.shape)))
    core = (slice(1, -1),) * 4
    assert np.max(np.abs(mag.values[core] - 2.0)) < 1e-10


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
    ring = np.ones(dom.shape, dtype=bool)
    ring[core] = False
    assert np.all(lap.values[ring] == 0.0)


def _complex_laplacian_nan_fill(u):
    # the former formula: nan fill, nan on the ring, then np.where
    shape = u.domain.shape
    out = np.full(shape, np.nan)
    core = (slice(1, -1),) * len(shape)
    acc = np.zeros(tuple(s - 2 for s in shape))
    for a in range(len(shape)):
        acc += _second_diff(u.values, a, u.domain.spacings[a])
    out[core] = 0.25 * acc
    interior = np.zeros(shape, dtype=bool)
    interior[core] = True
    return np.where(interior, out, 0.0)


def test_complex_laplacian_matches_nan_fill_formula():
    dom = box(7)
    u = GridField(dom, np.random.default_rng(5).normal(size=dom.shape))
    assert complex_laplacian_fd(u).values.tobytes() == _complex_laplacian_nan_fill(u).tobytes()


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


def test_csv_roundtrip_identical():
    # the header rows of solution.csv, then one .17g value per node, which
    # reads back to the same double
    dom = box(5, hw=0.5, excluded_tube_radius=0.1)
    u = GridField(dom, np.random.default_rng(0).normal(size=dom.shape))
    rows = field_to_csv(u).splitlines()
    assert rows[:6] == ["points_per_axis,5,5,5,5", "spacings,0.25,0.25,0.25,0.25",
                        "center,0,0,0,0", "half_widths,0.5,0.5,0.5,0.5",
                        "excluded_tube_radius,0.10000000000000001", "value"]
    assert rows[6:] == [format(v, ".17g") for v in u.values.ravel()]
    assert [float(r) for r in rows[6:]] == u.values.ravel().tolist()

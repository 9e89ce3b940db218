import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

from cmalab import kernels
from cmalab.kernels import fallback


def test_implementation_selected():
    assert kernels.IMPL in ("c", "numpy")


def test_force_fallback_env():
    code = ("import cmalab.kernels as K; print(K.IMPL)")
    env = dict(os.environ, CMA_LAB_FORCE_FALLBACK="1")
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "numpy"


needs_c = pytest.mark.skipif(kernels.IMPL == "numpy", reason="C kernels not built")

# every implementation that runs here, the numpy reference first
_IMPLS = [fallback] + ([kernels._impl] if kernels.IMPL == "c" else [])


def _core(ndim):
    return (slice(1, -1),) * ndim


def _ring(shape):
    ring = np.ones(shape, dtype=bool)
    ring[_core(len(shape))] = False
    return ring


def _full_grid_outputs(impl, u, coeffs, h, monkeypatch):
    """The four n = 2 Hessian fields and the apply of the full-grid entry
    points, computed over `impl`."""
    monkeypatch.setattr(kernels, "_impl", impl)
    return kernels.hessian_fields(u, h) + (kernels.apply_linearization(*coeffs, u, h),)


@needs_c
def test_hessian_fields_match(monkeypatch):
    # non-power-of-two spacings: C multiplies by 1/h^2 where numpy divides
    rng = np.random.default_rng(0)
    u = rng.normal(size=(8, 9, 10, 11))
    coeffs = [rng.normal(size=u.shape) for _ in range(4)]
    h = [0.1, 0.11, 0.12, 0.13]
    got = _full_grid_outputs(kernels._impl, u, coeffs, h, monkeypatch)[:4]
    want = _full_grid_outputs(fallback, u, coeffs, h, monkeypatch)[:4]
    for a, b in zip(got, want):
        assert np.max(np.abs(a - b)) < 1e-12
        assert np.all(a[0] == 0) and np.all(a[-1] == 0)  # ring untouched


@needs_c
def test_apply_matches(monkeypatch):
    rng = np.random.default_rng(1)
    u = rng.normal(size=(8, 9, 10, 11))
    coeffs = [rng.normal(size=u.shape) for _ in range(4)]
    h = [0.1, 0.11, 0.12, 0.13]
    a = _full_grid_outputs(kernels._impl, u, coeffs, h, monkeypatch)[4]
    b = _full_grid_outputs(fallback, u, coeffs, h, monkeypatch)[4]
    assert np.max(np.abs(a - b)) < 1e-12


@needs_c
@pytest.mark.parametrize("points", [9, 17])
def test_c_and_numpy_bitwise_equal(points, monkeypatch):
    # the n = 2 full-grid entry points over either implementation;
    # power-of-two spacings: the two agree bit for bit
    rng = np.random.default_rng(points)
    shape = (points,) * 4
    h = [2.0 / (points - 1)] * 4
    u = rng.normal(size=shape)
    coeffs = [rng.normal(size=shape) for _ in range(4)]
    outs = [_full_grid_outputs(impl, u, coeffs, h, monkeypatch)
            for impl in (kernels._impl, fallback)]
    for a, b in zip(*outs):
        assert np.array_equal(a, b)


# non-cubic shapes, so a stride mix-up shows; (shape, power-of-two spacings)
_INTERIOR_CASES = {
    1: ((9, 10), [0.25, 0.125]),
    2: ((7, 8, 9, 10), [0.25, 0.125, 0.5, 0.25]),
    3: ((5, 6, 7, 5, 6, 7), [0.25, 0.5, 0.125, 0.25, 0.5, 0.125]),
    4: ((5, 4, 3, 5, 4, 3, 5, 4), [0.5, 0.25, 0.125, 0.0625] * 2),
}


def _interior_case(n, seed, views=False):
    """A grid function, n * n interior coefficient fields (contiguous, or
    with `views` the interior views of full grids) and the spacings."""
    rng = np.random.default_rng(seed)
    shape, h = _INTERIOR_CASES[n]
    u = rng.normal(size=shape)
    core = _core(len(shape))
    coef = [rng.normal(size=shape)[core] for _ in range(n * n)]
    if not views:
        coef = [np.ascontiguousarray(c) for c in coef]
    return u, coef, h


def _interior_outputs(impl, u, coef, h, views=False):
    """The n * n Hessian fields and the apply of `impl`, written into
    interior arrays or, with `views`, into the interior views of zero
    full grids, which are returned whole."""
    n = u.ndim // 2
    if views:
        full = [np.zeros(u.shape) for _ in range(n * n + 1)]
        outs = [f[_core(u.ndim)] for f in full]
    else:
        full = outs = [np.empty(tuple(s - 2 for s in u.shape)) for _ in range(n * n + 1)]
    impl.hessian_interior(u, h, outs[:-1])
    impl.apply_interior(coef, u, h, outs[-1])
    return full


def _c_matches_numpy(n, views):
    u, coef, h = _interior_case(n, n, views)
    # power-of-two spacings: bit for bit; other spacings: C multiplies by
    # 1/h^2 where numpy divides
    other = [0.1 + 0.01 * a for a in range(2 * n)]
    for spacings, exact in ((h, True), (other, False)):
        got = _interior_outputs(kernels._impl, u, coef, spacings, views)
        want = _interior_outputs(fallback, u, coef, spacings, views)
        assert len(got) == len(want) == n * n + 1
        for a, b in zip(got, want):
            if exact:
                assert np.array_equal(a, b)
            else:
                assert np.max(np.abs(a - b)) < 1e-12
            if views:
                assert not np.any(a[_ring(u.shape)])


@needs_c
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_interior_kernels_match_fallback(n):
    _c_matches_numpy(n, views=False)


@needs_c
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_interior_kernels_match_fallback_on_views_of_full_grids(n):
    _c_matches_numpy(n, views=True)


def test_full_grid_entry_points_keep_a_zero_ring(monkeypatch):
    # over each implementation, a zero full grid around its interior output
    u, coef, h = _interior_case(2, 5, views=True)
    shape = u.shape
    full_coef = [c.base for c in coef]
    for impl in _IMPLS:
        monkeypatch.setattr(kernels, "_impl", impl)
        outs = kernels.hessian_fields(u, h) + (kernels.apply_linearization(*full_coef, u, h),)
        wants = _interior_outputs(impl, u, [np.ascontiguousarray(c) for c in coef], h)
        assert len(outs) == len(wants) == 5
        for a, b in zip(outs, wants):
            assert a.shape == shape
            assert not np.any(a[_ring(shape)])
            assert np.array_equal(a[_core(4)], b)


@needs_c
def test_interior_kernels_check_inputs(monkeypatch):
    def no_call(*args):
        raise AssertionError("a bad argument reached C")

    monkeypatch.setattr(kernels._impl, "_hessian", no_call)
    monkeypatch.setattr(kernels._impl, "_apply", no_call)
    u, coef, h = _interior_case(3, 0)
    inner = tuple(s - 2 for s in u.shape)
    outs = [np.empty(inner) for _ in range(9)]
    too_many = 2 * kernels._impl.max_n + 2
    bad_grids = [
        (np.zeros((5, 5, 5)), [0.1] * 3),                       # odd ndim
        (np.broadcast_to(0.0, (3,) * too_many), [0.1] * too_many),  # above the cap
        (np.zeros((5, 5, 2, 5)), [0.1] * 4),                    # axis below 3 nodes
        (u, h[:5]),                                             # spacings
    ]
    for grid, hh in bad_grids:
        with pytest.raises(ValueError):
            kernels.hessian_interior(grid, hh, outs)
        with pytest.raises(ValueError):
            kernels.apply_interior(coef, grid, hh, outs[0])
    with pytest.raises(ValueError):
        kernels.apply_interior(coef[:-1], u, h, outs[0])        # field count
    with pytest.raises(ValueError):
        kernels.apply_interior(coef[:-1] + [coef[-1][:, :-1]], u, h, outs[0])  # field shape
    read_only = np.empty(inner)
    read_only.setflags(write=False)
    bad_outs = [
        np.empty(inner[:-1] + (2 * inner[-1],))[..., ::2],      # last stride 2
        np.empty(inner, dtype=np.float32),                      # dtype
        read_only,                                              # read-only
        np.empty(inner[:-1] + (inner[-1] - 1,)),                # shape
        u[_core(6)],                                            # overlaps the grid
    ]
    for bad in bad_outs:
        with pytest.raises(ValueError):
            kernels.hessian_interior(u, h, outs[:-1] + [bad])   # a bad field last
        with pytest.raises(ValueError):
            kernels.apply_interior(coef, u, h, bad)
    full_view = np.zeros(u.shape)[_core(6)]
    with pytest.raises(ValueError):
        kernels.hessian_interior(u, h, outs[:-1] + [full_view])  # mismatched strides
    with pytest.raises(ValueError):
        kernels.hessian_interior(u, h, outs[:-1])               # output count
    with pytest.raises(ValueError):
        kernels.apply_interior(coef, u, h, coef[0])             # overlaps a coefficient


@needs_c
def test_interior_kernels_copy_noncontiguous_input():
    u, coef, h = _interior_case(3, 4)
    ut = np.ascontiguousarray(u.transpose(5, 4, 3, 2, 1, 0)).transpose(5, 4, 3, 2, 1, 0)
    strided = [np.repeat(c, 2, axis=-1)[..., ::2] for c in coef]
    assert not ut.flags.c_contiguous and not strided[0].flags.c_contiguous
    # a coefficient group of one dtype and strides apart from the first
    # field is copied as well; float32 values, so the copy is exact
    exact = [c.astype(np.float32).astype(np.float64) for c in coef]
    for grid, group, reference in (
            (ut, strided, coef),
            (u, [exact[0]] + [np.repeat(c, 2, axis=-1)[..., ::2] for c in exact[1:]], exact),
            (u, [exact[0].astype(np.float32)] + exact[1:], exact)):
        want = _interior_outputs(fallback, u, reference, h)
        for a, b in zip(_interior_outputs(kernels._impl, grid, group, h), want):
            assert np.array_equal(a, b)


def test_bench_stencil_runs():
    # nothing else runs this script; 9 points per axis, one DST worker
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    out = subprocess.run([sys.executable, os.path.join(root, "benchmarks", "bench_stencil.py"),
                          "9", "1"], env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert "apply_linearization" in out.stdout
    n3 = [ln for ln in out.stdout.splitlines() if ln.startswith("n=3 9^6 ")]
    assert len(n3) == 1
    assert "hessian_interior" in n3[0] and "apply_interior" in n3[0]
    assert f"impl={kernels.IMPL} " in n3[0]


def test_fallback_hessian_on_quadratic():
    # u = x1^2 + 2 y1 x2: known complex Hessian entries
    n = 9
    ax = np.linspace(-1, 1, n)
    x1, y1, x2, y2 = np.meshgrid(ax, ax, ax, ax, indexing="ij")
    u = x1 ** 2 + 2.0 * y1 * x2
    h = [2.0 / (n - 1)] * 4
    h11, h22, hre, him = out = [np.empty((n - 2,) * 4) for _ in range(4)]
    fallback.hessian_interior(u, h, out)
    assert np.allclose(h11, 0.5)   # (2 + 0)/4
    assert np.allclose(h22, 0.0)
    assert np.allclose(hre, 0.0)
    assert np.allclose(him, -0.5)  # -(cross y1 x2 term)/4 * 2


def _kernels_in_child(env_update):
    code = "import cmalab.kernels as K; print(K.IMPL); print(K.FALLBACK_REASON)"
    env = dict(os.environ, **env_update)
    env.pop("CMA_LAB_FORCE_FALLBACK", None)
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    return out.stdout.splitlines()


@pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler")
def test_cold_cache_builds(tmp_path):
    impl, reason = _kernels_in_child({"XDG_CACHE_HOME": str(tmp_path)})
    assert (impl, reason) == ("c", "None")
    built = os.listdir(tmp_path / "cmalab")
    assert len(built) == 1 and built[0].endswith(".so")  # no temporaries left
    # a warm cache loads the same file without building again
    assert _kernels_in_child({"XDG_CACHE_HOME": str(tmp_path)})[0] == "c"
    assert os.listdir(tmp_path / "cmalab") == built


def test_no_compiler_selects_numpy(tmp_path):
    impl, reason = _kernels_in_child({"XDG_CACHE_HOME": str(tmp_path),
                                      "PATH": str(tmp_path)})
    assert impl == "numpy"
    assert reason.startswith("no compiler")


def test_failed_build_selects_numpy(tmp_path):
    bin_dir = tmp_path / "bin"
    bin_dir.mkdir()
    cc = bin_dir / "cc"
    cc.write_text("#!/bin/sh\necho 'cc: cannot compile' >&2\nexit 1\n")
    cc.chmod(0o755)
    impl, reason = _kernels_in_child({"XDG_CACHE_HOME": str(tmp_path / "cache"),
                                      "PATH": str(bin_dir)})
    assert impl == "numpy"
    assert reason.startswith("build error") and "cannot compile" in reason
    assert os.listdir(tmp_path / "cache" / "cmalab") == []  # temporary removed


@needs_c
def test_native_checks_inputs():
    h = [0.1, 0.11, 0.12, 0.13]
    good = np.zeros((4, 5, 6, 7))
    with pytest.raises(ValueError):
        kernels.hessian_fields(np.zeros((4, 5, 6)), h)
    with pytest.raises(ValueError):
        kernels.hessian_fields(np.zeros((4, 5, 2, 7)), h)
    with pytest.raises(ValueError):
        kernels.hessian_fields(good, h[:3])
    with pytest.raises(ValueError):
        kernels.apply_linearization(good, good, good, good[:, :, :, :6], good, h)
    # non-contiguous input is copied, not misread
    rng = np.random.default_rng(2)
    u = rng.normal(size=(11, 10, 9, 8)).transpose(3, 2, 1, 0)
    for a, b in zip(kernels.hessian_fields(u, h),
                    kernels.hessian_fields(np.ascontiguousarray(u), h)):
        assert np.array_equal(a, b)

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


@pytest.mark.skipif(kernels.IMPL == "numpy", reason="C kernels not built")
def test_hessian_fields_match():
    rng = np.random.default_rng(0)
    u = rng.normal(size=(8, 9, 10, 11))
    h = [0.1, 0.11, 0.12, 0.13]
    for a, b in zip(kernels.hessian_fields(u, h), fallback.hessian_fields(u, h)):
        assert np.max(np.abs(a - b)) < 1e-12
        assert np.all(a[0] == 0) and np.all(a[-1] == 0)  # ring untouched


@pytest.mark.skipif(kernels.IMPL == "numpy", reason="C kernels not built")
def test_apply_matches():
    rng = np.random.default_rng(1)
    u = rng.normal(size=(8, 9, 10, 11))
    coeffs = [rng.normal(size=u.shape) for _ in range(4)]
    h = [0.1, 0.11, 0.12, 0.13]
    a = kernels.apply_linearization(*coeffs, u, h)
    b = fallback.apply_linearization(*coeffs, u, h)
    assert np.max(np.abs(a - b)) < 1e-12


@pytest.mark.skipif(kernels.IMPL == "numpy", reason="C kernels not built")
@pytest.mark.parametrize("points", [9, 17])
def test_c_and_numpy_bitwise_equal(points):
    # power-of-two spacings: the two implementations agree bit for bit
    rng = np.random.default_rng(points)
    shape = (points,) * 4
    h = [2.0 / (points - 1)] * 4
    u = rng.normal(size=shape)
    for a, b in zip(kernels.hessian_fields(u, h), fallback.hessian_fields(u, h)):
        assert np.array_equal(a, b)
    coeffs = [rng.normal(size=shape) for _ in range(4)]
    assert np.array_equal(kernels.apply_linearization(*coeffs, u, h),
                          fallback.apply_linearization(*coeffs, u, h))


# non-cubic shapes, so a stride mix-up shows; (shape, power-of-two spacings)
_INTERIOR_CASES = {
    1: ((9, 10), [0.25, 0.125]),
    3: ((5, 6, 7, 5, 6, 7), [0.25, 0.5, 0.125, 0.25, 0.5, 0.125]),
    4: ((5, 4, 3, 5, 4, 3, 5, 4), [0.5, 0.25, 0.125, 0.0625] * 2),
}


def _interior_case(n, seed):
    rng = np.random.default_rng(seed)
    shape, h = _INTERIOR_CASES[n]
    u = rng.normal(size=shape)
    coef = [rng.normal(size=tuple(s - 2 for s in shape)) for _ in range(n * n)]
    return u, coef, h


@pytest.mark.skipif(kernels.IMPL == "numpy", reason="C kernels not built")
@pytest.mark.parametrize("n", [1, 3, 4])
def test_interior_kernels_match_fallback(n):
    u, coef, h = _interior_case(n, n)
    # power-of-two spacings: bit for bit
    got = kernels.hessian_interior(u, h)
    want = tuple(fallback.hessian_interior(u, h))
    assert len(got) == len(want) == n * n
    for a, b in zip(got, want):
        assert np.array_equal(a, b)
    assert np.array_equal(kernels.apply_interior(coef, u, h),
                          fallback.apply_interior(coef, u, h))
    # other spacings: C multiplies by 1/h^2 where numpy divides
    h = [0.1 + 0.01 * a for a in range(2 * n)]
    for a, b in zip(kernels.hessian_interior(u, h), fallback.hessian_interior(u, h)):
        assert np.max(np.abs(a - b)) < 1e-12
    assert np.max(np.abs(kernels.apply_interior(coef, u, h)
                         - fallback.apply_interior(coef, u, h))) < 1e-12


@pytest.mark.skipif(kernels.IMPL == "numpy", reason="C kernels not built")
def test_full_grid_entry_points_keep_a_zero_ring():
    rng = np.random.default_rng(5)
    shape = (7, 8, 9, 10)
    h = [0.25, 0.125, 0.5, 0.25]
    u = rng.normal(size=shape)
    coef = [rng.normal(size=shape) for _ in range(4)]
    ring = np.ones(shape, dtype=bool)
    ring[(slice(1, -1),) * 4] = False
    outs = kernels.hessian_fields(u, h) + (kernels.apply_linearization(*coef, u, h),)
    wants = fallback.hessian_fields(u, h) + (fallback.apply_linearization(*coef, u, h),)
    for a, b in zip(outs, wants):
        assert a.shape == shape
        assert np.array_equal(a, b)
        assert not np.any(a[ring])


@pytest.mark.skipif(kernels.IMPL == "numpy", reason="C kernels not built")
def test_interior_kernels_check_inputs(monkeypatch):
    def no_call(*args):
        raise AssertionError("a bad argument reached C")

    monkeypatch.setattr(kernels._impl, "_hessian", no_call)
    monkeypatch.setattr(kernels._impl, "_apply", no_call)
    u, coef, h = _interior_case(3, 0)
    too_many = 2 * kernels._impl.max_n + 2
    bad_grids = [
        (np.zeros((5, 5, 5)), [0.1] * 3),                       # odd ndim
        (np.broadcast_to(0.0, (3,) * too_many), [0.1] * too_many),  # above the cap
        (np.zeros((5, 5, 2, 5)), [0.1] * 4),                    # axis below 3 nodes
        (u, h[:5]),                                             # spacings
    ]
    for grid, hh in bad_grids:
        with pytest.raises(ValueError):
            kernels.hessian_interior(grid, hh)
        with pytest.raises(ValueError):
            kernels.apply_interior(coef, grid, hh)
    with pytest.raises(ValueError):
        kernels.apply_interior(coef[:-1], u, h)                 # field count
    with pytest.raises(ValueError):
        kernels.apply_interior(coef[:-1] + [coef[-1][:, :-1]], u, h)  # field shape


@pytest.mark.skipif(kernels.IMPL == "numpy", reason="C kernels not built")
def test_interior_kernels_copy_noncontiguous_input():
    u, coef, h = _interior_case(3, 4)
    ut = np.ascontiguousarray(u.transpose(5, 4, 3, 2, 1, 0)).transpose(5, 4, 3, 2, 1, 0)
    big = [np.repeat(c, 2, axis=-1) for c in coef]
    strided = [b[..., ::2] for b in big]
    assert not ut.flags.c_contiguous and not strided[0].flags.c_contiguous
    for a, b in zip(kernels.hessian_interior(ut, h), fallback.hessian_interior(u, h)):
        assert np.array_equal(a, b)
    assert np.array_equal(kernels.apply_interior(strided, ut, h),
                          fallback.apply_interior(coef, u, h))


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
    h11, h22, hre, him = fallback.hessian_fields(u, h)
    core = (slice(1, -1),) * 4
    assert np.allclose(h11[core], 0.5)   # (2 + 0)/4
    assert np.allclose(h22[core], 0.0)
    assert np.allclose(hre[core], 0.0)
    assert np.allclose(him[core], -0.5)  # -(cross y1 x2 term)/4 * 2


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


@pytest.mark.skipif(kernels.IMPL == "numpy", reason="C kernels not built")
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
    for a, b in zip(kernels.hessian_fields(u, h), fallback.hessian_fields(u, h)):
        assert np.max(np.abs(a - b)) < 1e-12

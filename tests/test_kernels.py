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


def test_bench_stencil_runs():
    # nothing else runs this script; 9 points per axis, one DST worker
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    out = subprocess.run([sys.executable, os.path.join(root, "benchmarks", "bench_stencil.py"),
                          "9", "1"], env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert "apply_linearization" in out.stdout


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

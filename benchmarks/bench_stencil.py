"""Benchmark: compiled stencil kernels against the numpy fallback, and the
sine-transform preconditioner solve in float64 and in float32.

Run as: python benchmarks/bench_stencil.py [points_per_axis] [dst_workers]

The n = 2 kernels run on a points_per_axis^4 grid; the interior kernels
of n = 3 always on a 9^6 grid, the grid of the perfbench solve-c3
workload.

Every line names the active kernel (kernels.IMPL), the sine-transform
worker count, the usable cores and the peak RSS so far.
"""

import resource
import sys
import time

import numpy as np

from cmalab import kernels
from cmalab.grid import GridDomain
from cmalab.kernels import _impl, fallback
from cmalab.solver import _DstPreconditioner, usable_cores


def _over(impl, fn):
    """fn, a kernels function, run with `impl` as the active implementation."""
    def run(*args):
        saved, kernels._impl = kernels._impl, impl
        try:
            return fn(*args)
        finally:
            kernels._impl = saved
    return run


def _time(fn, *args, repeats=3):
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        out = fn(*args)
        best = min(best, time.perf_counter() - t0)
    return best, out


def main():
    npts = int(sys.argv[1]) if len(sys.argv) > 1 else 33
    workers = int(sys.argv[2]) if len(sys.argv) > 2 else usable_cores()

    def report(line):
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        print(f"{line}  [impl={kernels.IMPL} workers={workers} "
              f"cores={usable_cores()} maxrss={rss:.0f}MiB]")

    rng = np.random.default_rng(0)
    u = rng.normal(size=(npts,) * 4)
    h = [2.0 / (npts - 1)] * 4
    print(f"grid {npts}^4 = {npts**4} nodes; compiled impl: {_impl.IMPL}")

    t_c, hess_c = _time(_over(_impl, kernels.hessian_fields), u, h)
    t_f, hess_f = _time(_over(fallback, kernels.hessian_fields), u, h)
    gap = max(float(np.max(np.abs(a - b))) for a, b in zip(hess_c, hess_f))
    report(f"hessian_fields      {_impl.IMPL}: {t_c:.3f}s  numpy: {t_f:.3f}s  "
           f"speedup {t_f / t_c:.2f}x  max gap {gap:.2e}")
    del hess_c, hess_f

    p = [rng.normal(size=u.shape) for _ in range(4)]
    v = rng.normal(size=u.shape)
    t_c, out_c = _time(_over(_impl, kernels.apply_linearization), *p, v, h)
    t_f, out_f = _time(_over(fallback, kernels.apply_linearization), *p, v, h)
    gap = float(np.max(np.abs(out_c - out_f)))
    report(f"apply_linearization {_impl.IMPL}: {t_c:.3f}s  numpy: {t_f:.3f}s  "
           f"speedup {t_f / t_c:.2f}x  max gap {gap:.2e}")
    del p, v, out_c, out_f

    u6 = rng.normal(size=(9,) * 6)
    h6 = [0.25] * 6
    coef6 = [rng.normal(size=(7,) * 6) for _ in range(9)]
    # each implementation writes into interior arrays of its own
    hess_c, hess_f = ([np.empty((7,) * 6) for _ in range(9)] for _ in range(2))
    out_c, out_f = np.empty((7,) * 6), np.empty((7,) * 6)
    t_hc, _ = _time(_impl.hessian_interior, u6, h6, hess_c)
    t_hf, _ = _time(fallback.hessian_interior, u6, h6, hess_f)
    t_ac, _ = _time(_impl.apply_interior, coef6, u6, h6, out_c)
    t_af, _ = _time(fallback.apply_interior, coef6, u6, h6, out_f)
    gap = max(float(np.max(np.abs(a - b)))
              for a, b in zip(hess_c + [out_c], hess_f + [out_f]))
    report(f"n=3 9^6 hessian_interior {_impl.IMPL}: {t_hc:.4f}s  numpy: {t_hf:.4f}s  "
           f"apply_interior {_impl.IMPL}: {t_ac:.4f}s  numpy: {t_af:.4f}s  "
           f"max gap {gap:.2e}")
    del u6, coef6, hess_c, hess_f, out_c, out_f

    dom = GridDomain(np.zeros(4), np.ones(4), (npts,) * 4, max_nodes=npts ** 4)
    r = rng.normal(size=(npts - 2) ** 4)
    means = [1.0, 2.0]
    t64, y64 = _time(_DstPreconditioner(dom, means, workers).solve, r)
    t32, y32 = _time(_DstPreconditioner(dom, means, workers, dtype=np.float32).solve, r)
    rel = float(np.linalg.norm(y32 - y64) / np.linalg.norm(y64))
    report(f"dst solve ({npts - 2}^4) float64: {t64:.3f}s  float32: {t32:.3f}s  "
           f"speedup {t64 / t32:.2f}x  rel gap {rel:.2e}")


if __name__ == "__main__":
    main()

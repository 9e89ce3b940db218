"""Command-line frontend: subcommands wiring configs to the modules.

Configuration comes from an optional JSON file (--config) with
command-line flags taking precedence.  Outputs are deterministic for a
fixed config and seed and are written atomically (temp file + rename);
wall-clock timestamps go only to a sidecar run.log.

Exit codes: 0 all checks pass, 1 a mathematical assertion failed (a
JSON failure report names the invariant), 2 configuration or IO error,
including a grid above its node cap (`--max-nodes` for solve).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
import tempfile
import time

import numpy as np

from . import kernels, moser, probe, viscosity
from .errors import (CmaLabError, ConfigError, GridTooLarge, NonConverged,
                     NotPlurisubharmonic)
from .families import SolutionFamily, eval_analytic_hessian, eval_rhs, verify_identity
from .grid import (DEFAULT_MAX_NODES, GridDomain, complex_hessian_fd, field_to_csv,
                   sample)
from .solver import DirichletProblem, NewtonConfig, newton_solve

__all__ = ["main"]


def _atomic_write(path: str, text: str) -> None:
    d = os.path.dirname(os.path.abspath(path))
    os.makedirs(d, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-")
    try:
        with os.fdopen(fd, "w") as f:
            f.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _write_json(path: str, obj) -> None:
    _atomic_write(path, json.dumps(obj, indent=2, sort_keys=True) + "\n")


def _write_csv(path: str, header, rows) -> None:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(header)
    for row in rows:
        w.writerow(row)
    _atomic_write(path, buf.getvalue())


def _log(out_dir: str, message: str) -> None:
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "run.log"), "a") as f:
        f.write(f"{time.strftime('%Y-%m-%dT%H:%M:%S')} {message}\n")


def _fail(out_dir: str, invariant: str, detail) -> int:
    _write_json(os.path.join(out_dir, "failure.json"),
                {"invariant": invariant, "detail": detail})
    return 1


class _Settings:
    """Flag-over-config-over-default resolution."""

    def __init__(self, args, config: dict):
        self.args = vars(args)
        self.config = config

    def get(self, key: str, default=None):
        v = self.args.get(key)
        if v is not None:
            return v
        return self.config.get(key, default)

    def number(self, key: str, kind, default):
        """The setting converted by `kind` (int or float); ConfigError if
        a config value is a boolean, does not convert or, for int, is not
        integral."""
        value = self.get(key, default)
        try:
            if isinstance(value, bool):
                raise TypeError
            if kind is int and isinstance(value, float) and not value.is_integer():
                raise ValueError
            return kind(value)
        except (TypeError, ValueError, OverflowError):
            raise ConfigError(f"{key} must be a number ({kind.__name__}), "
                              f"got {value!r}") from None

    def floats(self, key: str, default=None):
        """The setting as a list of floats, from a list or a comma-separated
        string; ConfigError if an entry does not convert."""
        value = self.get(key)
        if value is None:
            return default
        if isinstance(value, str):
            value = value.split(",")
        try:
            return [float(v) for v in value]
        except (TypeError, ValueError):
            raise ConfigError(f"{key} must be a list of numbers, "
                              f"got {value!r}") from None


def _blas_threads() -> str:
    """BLAS threads as the environment sets them at process start, else
    the cores this process may run on (its CPU affinity where the OS has one)."""
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return (os.environ.get("OPENBLAS_NUM_THREADS") or os.environ.get("OMP_NUM_THREADS")
            or str(cores or 1))


def _family_from(settings: _Settings) -> SolutionFamily:
    kind = settings.get("family", "pogorelov2")
    dim = settings.number("dim", int, 2)
    eps = settings.number("eps", float, 0.0)
    return SolutionFamily(kind, dim, eps)


def _random_points(fam: SolutionFamily, count: int, min_w: float, rng) -> np.ndarray:
    pts = rng.uniform(-1.0, 1.0, size=(count, 2 * fam.dim))
    wmod = np.hypot(pts[:, -2], pts[:, -1])
    bad = wmod <= min_w
    while np.any(bad):
        pts[bad, -2:] = rng.uniform(-1.0, 1.0, size=(int(np.sum(bad)), 2))
        bad = np.hypot(pts[:, -2], pts[:, -1]) <= min_w
    return pts


# ---------------------------------------------------------------------------
# subcommands

def _cmd_verify(settings: _Settings, out_dir: str, seed: int) -> int:
    fam = _family_from(settings)
    count = settings.number("points", int, 1000)
    if count < 1:
        raise ConfigError(f"points must be >= 1, got {count!r}")
    min_w = settings.number("min_w", float, 1e-3)
    # _random_points redraws w from [-1, 1]^2 until |w| > min_w: below 1 at
    # least 1 - pi/4 of the draws pass, while min_w >= sqrt(2) passes none
    if not 0 <= min_w < 1:
        raise ConfigError(f"min_w must lie in [0, 1), got {min_w!r}")
    tol = settings.number("tol", float, 1e-10)
    if not 0 < tol < math.inf:
        raise ConfigError(f"tol must be finite and positive, got {tol!r}")
    rng = np.random.default_rng(seed)
    pts = _random_points(fam, count, min_w, rng)
    gaps = [verify_identity(fam, p)["abs_gap"] for p in pts]
    report = {
        "family": fam.to_dict(), "points": count, "min_w": min_w,
        "max_gap": max(gaps), "mean_gap": float(np.mean(gaps)), "tol": tol,
    }
    _write_json(os.path.join(out_dir, "verify.json"), report)
    if report["max_gap"] >= tol:
        return _fail(out_dir, "determinant identity gap below tolerance", report)
    return 0


def _cmd_hessian(settings: _Settings, out_dir: str, seed: int) -> int:
    fam = _family_from(settings)
    point = settings.floats("point")
    if point is None:
        raise ConfigError("hessian requires a point")
    point = np.asarray(point)
    h = settings.number("h", float, 1e-2)
    dom = GridDomain(point, np.full(point.size, h), (3,) * point.size)
    u = sample(dom, fam.value)
    fd = complex_hessian_fd(u, (1,) * point.size)
    report = {"family": fam.to_dict(), "point": point.tolist(), "h": h,
              "fd_re": fd.entries.real.tolist(), "fd_im": fd.entries.imag.tolist()}
    if fam.kind in ("pogorelov2", "pogorelov_n"):
        exact = eval_analytic_hessian(fam, point)
        report["analytic_re"] = exact.entries.real.tolist()
        report["analytic_im"] = exact.entries.imag.tolist()
        report["max_entry_gap"] = float(np.max(np.abs(fd.entries - exact.entries)))
    _write_json(os.path.join(out_dir, "hessian.json"), report)
    return 0


def _log_inner_solves(out_dir: str, result: dict) -> None:
    """BiCGStab info code (0: inner tolerance met), preconditioner-solve
    count, line-search halvings and non-plurisubharmonic rejections of
    each Newton iteration."""
    for key in ("inner_info", "psolves", "halvings", "psh_rejects"):
        _log(out_dir, f"{key}=" + ",".join(str(c) for c in result[key]))


def _cmd_solve(settings: _Settings, out_dir: str, seed: int) -> int:
    fam = _family_from(settings)
    if fam.eps <= 0:
        raise ConfigError("solve needs a smooth family (eps > 0)")
    points = settings.number("points", int, 17)
    half_width = settings.number("half_width", float, 1.0)
    max_nodes = settings.number("max_nodes", int, DEFAULT_MAX_NODES)
    if max_nodes < 1:
        raise ConfigError("max_nodes must be >= 1")
    m = fam.dim
    dom = GridDomain(np.zeros(2 * m), np.full(2 * m, half_width),
                     (points,) * (2 * m), max_nodes=max_nodes)
    oracle = sample(dom, fam.value)
    rhs = sample(dom, lambda pts: np.log(eval_rhs(fam, pts)))
    prob = DirichletProblem(dom, rhs, oracle,
                            Lambda=settings.number("Lambda", float, 10.0))
    cfg = NewtonConfig(
        tol_residual=settings.number("tol_residual", float, 1e-10),
        max_iters=settings.number("max_iters", int, 30),
    )
    try:
        out = newton_solve(prob, cfg)
    except NonConverged as exc:
        _log_inner_solves(out_dir, exc.result)
        return _fail(out_dir, "newton residual below tolerance",
                     {"final_residual": exc.result["final_residual"],
                      "iterations": exc.result["iterations"]})
    except NotPlurisubharmonic as exc:
        if exc.result is not None:   # the line search found no step
            _log_inner_solves(out_dir, exc.result)
        return _fail(out_dir, "finite-difference complex Hessian positive "
                     "definite at every iterate", {"message": str(exc)})
    _log_inner_solves(out_dir, out)
    sol = out["solution"]
    _atomic_write(os.path.join(out_dir, "solution.csv"), field_to_csv(sol))
    report = {
        "family": fam.to_dict(), "points": points,
        "iterations": out["iterations"],
        "final_residual": out["final_residual"],
        "residual_history": out["residual_history"],
        "inner_iterations": out["inner_iterations"],
        "max_error_vs_oracle": float(np.max(np.abs(sol.values - oracle.values))),
    }
    _write_json(os.path.join(out_dir, "report.json"), report)
    return 0


def _cmd_probe(settings: _Settings, out_dir: str, seed: int) -> int:
    fam = _family_from(settings)
    p_list = settings.floats("p_list", [1.0, 3.0])
    use_laplacian = settings.get("use_laplacian", fam.kind == "blocki")
    if not isinstance(use_laplacian, bool):
        raise ConfigError(f"use_laplacian must be true or false, got {use_laplacian!r}")
    rows = []
    center = np.zeros(2 * fam.dim)
    radii = np.logspace(-4, -1, 10)
    fit = probe.holder_fit(fam, center, radii)
    rows.append(("holder_alpha", "", fit["alpha"]))
    scan = probe.w2p_divergence_scan(
        fam, p_list,
        base_points=settings.number("base_points", int, 33),
        use_laplacian=use_laplacian,
        growth=settings.number("growth", float, math.sqrt(2.0)),
        refinements=settings.number("refinements", int, 3))
    for e in scan:
        rows.append(("w2p_slope", e.p, e.slope))
    lip = []
    if fam.kind == "pogorelov2":
        eps_list = settings.floats("eps_list", [1 / 16, 1 / 64, 1 / 256, 1 / 1024])
        lip = probe.rhs_lipschitz_scaling(eps_list)
        for eps, sup in lip:
            rows.append(("lip_sup_gradient", eps, sup))
    report = {
        "family": fam.to_dict(),
        "fitted_alpha": fit["alpha"],
        "alpha_stderr": fit["stderr"],
        "w2p_scan": [(e.p, e.slope, e.verdict) for e in scan],
        "lip_F_scaling": lip,
    }
    _write_json(os.path.join(out_dir, "probe.json"), report)
    _write_csv(os.path.join(out_dir, "probe.csv"),
               ("measurement", "parameter", "value"), rows)
    return 0


def _cmd_moser(settings: _Settings, out_dir: str, seed: int) -> int:
    params = moser.MoserParams(
        n=settings.number("n", int, 2), a=settings.number("a", float, 1.0),
        R=settings.number("R", float, 1.0), r=settings.number("r", float, 0.5))
    C = settings.number("C", float, 1.0)
    k_max = settings.number("kmax", int, 60)
    if k_max > moser.K_CAP:
        raise ConfigError(f"kmax must be at most {moser.K_CAP}, got {k_max}")
    try:
        sums = moser.log_a_partial_sums(params, k_max, C)
        rows = [(k, f"{moser.p_sequence(params, k):.17g}",
                 f"{moser.b_term(params, k):.17g}",
                 f"{moser.b_product(params, k):.17g}",
                 f"{moser.a_coefficient(params, k, C):.17g}",
                 f"{sums[k - 1]:.17g}") for k in range(1, k_max + 1)]
    except OverflowError as exc:   # some p_k or 2 p_k beyond double precision
        raise ConfigError(f"moser parameters out of range: {exc}") from None
    _write_csv(os.path.join(out_dir, "moser.csv"),
               ("k", "p_k", "b_k", "b_product", "a_k", "log_a_sum"), rows)
    return 0


def _cmd_viscosity(settings: _Settings, out_dir: str, seed: int) -> int:
    kind = settings.get("family", "pogorelov2")
    dim = settings.number("dim", int, 2)
    fam = SolutionFamily(kind, dim, 0.0)
    base = settings.floats("base", [0.0] * (2 * dim))
    out = viscosity.search_touch_above(
        fam, np.asarray(base),
        radius=settings.number("radius", float, 0.1),
        attempts=settings.number("attempts", int, 1000), seed=seed)
    report = {"family": fam.to_dict(), "base": base, **out}
    _write_json(os.path.join(out_dir, "viscosity.json"), report)
    if out["found"]:
        return _fail(out_dir, "no quadratic jet touches from above on the "
                     "singular slice", report)
    return 0


_COMMANDS = {
    "verify": _cmd_verify,
    "hessian": _cmd_hessian,
    "solve": _cmd_solve,
    "probe": _cmd_probe,
    "moser": _cmd_moser,
    "viscosity": _cmd_viscosity,
}


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="cmalab")
    sub = ap.add_subparsers(dest="subcommand", required=True)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", type=str, default=None)
    common.add_argument("--out", type=str, default=None)
    common.add_argument("--seed", type=int, default=None)

    p = sub.add_parser("verify", parents=[common])
    p.add_argument("--family", type=str)
    p.add_argument("--dim", type=int)
    p.add_argument("--eps", type=float)
    p.add_argument("--points", type=int)
    p.add_argument("--min-w", dest="min_w", type=float)
    p.add_argument("--tol", type=float)

    p = sub.add_parser("hessian", parents=[common])
    p.add_argument("--family", type=str)
    p.add_argument("--dim", type=int)
    p.add_argument("--eps", type=float)
    p.add_argument("--point", type=str)
    p.add_argument("--h", type=float)

    p = sub.add_parser("solve", parents=[common])
    p.add_argument("--family", type=str)
    p.add_argument("--dim", type=int)
    p.add_argument("--eps", type=float)
    p.add_argument("--points", type=int)
    p.add_argument("--half-width", dest="half_width", type=float)
    p.add_argument("--tol-residual", dest="tol_residual", type=float)
    p.add_argument("--max-iters", dest="max_iters", type=int)
    p.add_argument("--max-nodes", dest="max_nodes", type=int)

    p = sub.add_parser("probe", parents=[common])
    p.add_argument("--family", type=str)
    p.add_argument("--dim", type=int)
    p.add_argument("--base-points", dest="base_points", type=int)
    p.add_argument("--growth", type=float)
    p.add_argument("--refinements", type=int)

    p = sub.add_parser("moser", parents=[common])
    p.add_argument("--n", type=int)
    p.add_argument("--a", type=float)
    p.add_argument("--R", type=float)
    p.add_argument("--r", type=float)
    p.add_argument("--C", type=float)
    p.add_argument("--kmax", type=int)

    p = sub.add_parser("viscosity", parents=[common])
    p.add_argument("--family", type=str)
    p.add_argument("--dim", type=int)
    p.add_argument("--base", type=str)
    p.add_argument("--radius", type=float)
    p.add_argument("--attempts", type=int)
    return ap


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    out_dir = None
    try:
        config = {}
        if args.config:
            try:
                with open(args.config) as f:
                    config = json.load(f)
            except (OSError, json.JSONDecodeError) as exc:
                raise ConfigError(f"cannot read config: {exc}") from exc
        settings = _Settings(args, config)
        out = settings.get("out", ".")
        if not isinstance(out, str):
            raise ConfigError(f"out must be a directory path, got {out!r}")
        out_dir = out   # set once checked: the exit line is logged under it
        if "threads" in config:
            raise ConfigError("threads is not a setting: BLAS reads "
                              "OPENBLAS_NUM_THREADS / OMP_NUM_THREADS at start")
        seed = settings.number("seed", int, 0)
        kernel = kernels.IMPL
        if kernels.FALLBACK_REASON:
            kernel += f" ({kernels.FALLBACK_REASON})"
        _log(out_dir, f"subcommand={args.subcommand} seed={seed} "
                      f"threads={_blas_threads()} kernels={kernel} "
                      f"config={args.config or '-'}")
        code = _COMMANDS[args.subcommand](settings, out_dir, seed)
    except (ConfigError, GridTooLarge, OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        code = 2
    except CmaLabError as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        code = 1
    if out_dir is not None:
        try:
            _log(out_dir, f"exit={code}")
        except OSError as exc:
            # an IO error of its own on success; a failed run keeps its code
            print(f"error: cannot write run.log: {exc}", file=sys.stderr)
            code = code or 2
    return code


if __name__ == "__main__":
    sys.exit(main())

"""Command-line frontend: subcommands wiring configs to the modules.

Every setting is a row of its subcommand's table, `_TABLES`, which also
builds the parser.  A setting comes from its flag, else from the JSON
file of --config, else from its default, and is checked against its
domain before any work; `cmalab <cmd> --help` lists the domains.
Outputs are deterministic for a fixed config and seed and are written
atomically (temp file + rename); wall-clock timestamps go only to a
sidecar run.log.

Exit codes: 0 all checks pass; 1 a mathematical or library check failed,
and failure.json names the invariant, "finite outputs" for an output
that would hold a NaN or an infinity (it is not written); 2 a setting
outside its domain or a required one left out, a point or base that
does not fit the family and dim, a family without the closed form the
command needs, a grid above its node cap (`--max-nodes` for solve), a
size that runs out of memory, or another configuration or IO error.
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
from typing import NamedTuple

import numpy as np

from . import kernels, moser, probe, viscosity
from .errors import (BasePointOffSingularSet, CmaLabError, ConfigError,
                     DimensionMismatch, GridTooLarge, NonConverged, NotPlurisubharmonic,
                     UnsupportedFamily)
from .families import (KINDS, SolutionFamily, eval_analytic_hessian, eval_rhs,
                       verify_identity)
from .grid import (DEFAULT_MAX_NODES, GridDomain, complex_hessian_fd, field_to_csv,
                   sample)
from .solver import DirichletProblem, NewtonConfig, newton_solve

__all__ = ["main"]


class _NonFiniteOutput(CmaLabError):
    """An output would hold a NaN or an infinity."""
    invariant = "finite outputs"


def _check_finite(path: str, obj, name: str = "") -> None:
    """_NonFiniteOutput naming the first float of `obj`, through nested
    dicts, lists and tuples, that is not finite."""
    if isinstance(obj, float) and not math.isfinite(obj):
        raise _NonFiniteOutput(f"{os.path.basename(path)}: {name} = {obj!r}")
    items = (obj.items() if isinstance(obj, dict)
             else enumerate(obj) if isinstance(obj, (list, tuple)) else ())
    for key, value in items:
        _check_finite(path, value, f"{name}.{key}" if name else str(key))


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
    _check_finite(path, obj)
    _atomic_write(path, json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n")


def _write_csv(path: str, header, rows, fmt=None) -> None:
    """`rows` under `header`; `fmt`, if given, writes each float cell."""
    _check_finite(path, dict(zip(header, zip(*rows))))
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(header)
    for row in rows:
        w.writerow([fmt(c) if fmt and isinstance(c, float) else c for c in row])
    _atomic_write(path, buf.getvalue())


def _log(out_dir: str, message: str) -> None:
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "run.log"), "a") as f:
        f.write(f"{time.strftime('%Y-%m-%dT%H:%M:%S')} {message}\n")


def _fail(out_dir: str, invariant: str, detail) -> int:
    _write_json(os.path.join(out_dir, "failure.json"),
                {"invariant": invariant, "detail": detail})
    return 1


# ---------------------------------------------------------------------------
# settings: one table of rows per subcommand

class _Row(NamedTuple):
    """One setting.  `kind` is int, float, bool, str or list (of floats).
    `domain` is an interval, as "[0, 1)" (0 in, 1 out), holding each number
    of the setting; a tuple of the admitted strings; or None (a path, or
    either bool).  A callable default is computed from the earlier rows;
    a default of None makes the setting required."""

    key: str
    kind: type
    default: object
    domain: object = None
    flag: bool = True   # False: a config-only key


def _in(domain: str, x) -> bool:
    lo, hi = (float(end) for end in domain[1:-1].split(","))
    return (math.isfinite(x) and (lo < x if domain[0] == "(" else lo <= x)
            and (x < hi if domain[-1] == ")" else x <= hi))


def _describe(row: _Row) -> str:
    """The row's domain in words, for --help and error messages."""
    if row.kind is bool or row.domain is None:
        return "true or false" if row.kind is bool else "a path"
    if isinstance(row.domain, tuple):
        return "one of " + ", ".join(row.domain)
    noun = {int: "an integer", float: "a finite number", list: "a list of finite numbers"}
    return f"{noun[row.kind]} in {row.domain}"


def _number(kind, value):
    """`value` as `kind`; a boolean is no number, and an int is integral."""
    if isinstance(value, bool) or (kind is int and isinstance(value, float)
                                   and not value.is_integer()):
        raise TypeError
    return kind(value)


def _checked(row: _Row, value):
    """`value` as the row's kind; ConfigError unless it lies in the domain."""
    try:
        if row.kind is list:
            new = [_number(float, v) for v in
                   (value.split(",") if isinstance(value, str) else value)]
            ok = all(_in(row.domain, v) for v in new)
        elif row.kind in (int, float):
            new = _number(row.kind, value)
            ok = _in(row.domain, new)
        else:
            new = value
            ok = isinstance(value, row.kind) and (row.domain is None or value in row.domain)
    except (TypeError, ValueError, OverflowError):
        ok = False
    if not ok:
        raise ConfigError(f"{row.key} must be {_describe(row)}, got {value!r}")
    return new


def _origin(s: dict) -> list:
    """the origin"""
    return [0.0] * (2 * s["dim"])


def _blocki(s: dict) -> bool:
    """true for blocki"""
    return s["family"] == "blocki"


_COMMON = (_Row("config", str, ""), _Row("out", str, "."), _Row("seed", int, 0, "[0, inf)"))
_FAMILY = (_Row("family", str, "pogorelov2", KINDS),
           _Row("dim", int, 2, "[2, inf)"))   # each family checks its own dim too
# every use keeps eps <= 1; from 1e3 to 1e50 the gap of `hessian` grows from
# 9e-10 to 1e13 and `solve` stops converging, and 1e300 overflows its closed form
_EPS = _Row("eps", float, 0.0, "[0, 1e3]")
_TABLES = {
    "verify": _FAMILY + (
        _EPS, _Row("points", int, 1000, "[1, inf)"), _Row("tol", float, 1e-10, "(0, inf)"),
        # w is redrawn from [-1, 1]^2 until |w| > min_w: below 1 at least
        # 1 - pi/4 of the draws pass, while min_w >= sqrt(2) passes none
        _Row("min_w", float, 1e-3, "[0, 1)")),
    "hessian": _FAMILY + (
        _EPS, _Row("point", list, None, "(-inf, inf)"),
        # rounding swamps the stencil below 1e-6 (gap 2e-4 at 1e-6, 0.8 at 1e-8)
        _Row("h", float, 1e-2, "[1e-6, 1]")),
    "solve": _FAMILY + (
        _EPS._replace(default=None, domain="(0, 1e3]"), _Row("points", int, 17, "[3, inf)"),
        # the residual stalls above 1e-10 below 1e-3; at 1e-300 the fit is singular
        _Row("half_width", float, 1.0, "[1e-3, 1e3]"),
        # `default_init` leaves a residual near 1; above 1e-3 a solve stops early
        _Row("tol_residual", float, 1e-10, "(0, 1e-3]"), _Row("max_iters", int, 30, "[1, inf)"),
        _Row("max_nodes", int, DEFAULT_MAX_NODES, "[1, inf)"),
        _Row("Lambda", float, 10.0, "(0, inf)", flag=False)),
    "probe": _FAMILY + (
        _EPS._replace(flag=False), _Row("base_points", int, 33, "[9, inf)"),
        # at most a doubling per refinement, 16 times: every count stays a float
        _Row("growth", float, math.sqrt(2.0), "(1, 2]"), _Row("refinements", int, 3, "[2, 16]"),
        _Row("p_list", list, [1.0, 3.0], "(0, inf)", flag=False),
        _Row("eps_list", list, [1 / 16, 1 / 64, 1 / 256, 1 / 1024], "(0, inf)", flag=False),
        _Row("use_laplacian", bool, _blocki, flag=False)),
    "moser": (
        _Row("n", int, 2, "[2, inf)"), _Row("a", float, 1.0, "(0, inf)"),
        _Row("R", float, 1.0, "(0, 1]"), _Row("r", float, 0.5, "(0, 1)"),
        _Row("C", float, 1.0, "(0, inf)"), _Row("kmax", int, 60, f"[1, {moser.K_CAP}]")),
    "viscosity": _FAMILY + (
        _Row("base", list, _origin, "(-inf, inf)"),
        # witnesses need q < u0 - 1e-12 on a scan down to radius * 1e-14: 1e-13
        # finds false ones, 1e10 misses the cone's tip, 1e120 overflows
        _Row("radius", float, 0.1, "[1e-9, 1e6]"), _Row("attempts", int, 1000, "[1, inf)")),
}


def _resolve(rows, flags: dict, config: dict, settings: dict) -> None:
    """Add each row's setting to `settings`, in row order: its flag, else
    its config value, else its default, checked against its domain."""
    for row in rows:
        flag = flags.get(row.key)
        value = config.get(row.key, row.default) if flag is None else flag
        if value is None and row.key not in config:
            raise ConfigError(f"{row.key} is required: {_describe(row)}")
        settings[row.key] = _checked(row, value(settings) if callable(value) else value)


def _build_parser() -> argparse.ArgumentParser:
    def text(row):   # a callable default's docstring says what it computes
        if row.default is None:
            return f"{_describe(row)}; required"
        default = row.default.__doc__ if callable(row.default) else repr(row.default)
        return f"{_describe(row)}; default {default}"

    ap = argparse.ArgumentParser(prog="cmalab")
    sub = ap.add_subparsers(dest="subcommand", required=True)
    for name, rows in _TABLES.items():
        config_only = [f"{r.key}: {text(r)}" for r in rows if not r.flag]
        p = sub.add_parser(name, epilog="config-only keys: " + "; ".join(config_only)
                           if config_only else None)
        for row in _COMMON + rows:
            if row.flag:
                p.add_argument("--" + row.key.replace("_", "-"), dest=row.key,
                               help=text(row))
    return ap


# ---------------------------------------------------------------------------
# subcommands

def _blas_threads() -> str:
    """BLAS threads as the environment sets them at process start, else
    the cores this process may run on (its CPU affinity where the OS has one)."""
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return (os.environ.get("OPENBLAS_NUM_THREADS") or os.environ.get("OMP_NUM_THREADS")
            or str(cores or 1))


def _family_from(s: dict) -> SolutionFamily:
    return SolutionFamily(s["family"], s["dim"], s["eps"])


def _random_points(fam: SolutionFamily, count: int, min_w: float, rng) -> np.ndarray:
    pts = rng.uniform(-1.0, 1.0, size=(count, 2 * fam.dim))
    wmod = np.hypot(pts[:, -2], pts[:, -1])
    bad = wmod <= min_w
    while np.any(bad):
        pts[bad, -2:] = rng.uniform(-1.0, 1.0, size=(int(np.sum(bad)), 2))
        bad = np.hypot(pts[:, -2], pts[:, -1]) <= min_w
    return pts


def _cmd_verify(s: dict) -> int:
    fam = _family_from(s)
    pts = _random_points(fam, s["points"], s["min_w"], np.random.default_rng(s["seed"]))
    gaps = [verify_identity(fam, p)["abs_gap"] for p in pts]
    report = {"family": fam.to_dict(), "points": s["points"], "min_w": s["min_w"],
              "max_gap": max(gaps), "mean_gap": float(np.mean(gaps)), "tol": s["tol"]}
    _write_json(os.path.join(s["out"], "verify.json"), report)
    if report["max_gap"] >= s["tol"]:
        return _fail(s["out"], "determinant identity gap below tolerance", report)
    return 0


def _cmd_hessian(s: dict) -> int:
    fam = _family_from(s)
    point, h = np.asarray(s["point"]), s["h"]
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
    _write_json(os.path.join(s["out"], "hessian.json"), report)
    return 0


def _log_inner_solves(out_dir: str, result: dict) -> None:
    """BiCGStab info code (0: inner tolerance met), preconditioner-solve
    count, line-search halvings and non-plurisubharmonic rejections of
    each Newton iteration."""
    for key in ("inner_info", "psolves", "halvings", "psh_rejects"):
        _log(out_dir, f"{key}=" + ",".join(str(c) for c in result[key]))


def _cmd_solve(s: dict) -> int:
    fam = _family_from(s)
    out_dir, m = s["out"], fam.dim
    dom = GridDomain(np.zeros(2 * m), np.full(2 * m, s["half_width"]),
                     (s["points"],) * (2 * m), max_nodes=s["max_nodes"])
    oracle = sample(dom, fam.value)
    rhs = sample(dom, lambda pts: np.log(eval_rhs(fam, pts)))
    prob = DirichletProblem(dom, rhs, oracle, Lambda=s["Lambda"])
    try:
        out = newton_solve(prob, NewtonConfig(tol_residual=s["tol_residual"],
                                              max_iters=s["max_iters"]))
    except NonConverged as exc:
        rec = exc.result
        _log_inner_solves(out_dir, rec)
        detail = {"final_residual": rec["final_residual"], "iterations": rec["iterations"]}
        if rec.get("reason") == "inner solve failed":
            return _fail(out_dir, "inner Krylov solve returned a finite direction",
                         {**detail, "inner_info": rec["inner_info"],
                          "inner_iterations": rec["inner_iterations"]})
        return _fail(out_dir, "newton residual below tolerance", detail)
    except NotPlurisubharmonic as exc:
        if exc.result is not None:   # the line search found no step
            _log_inner_solves(out_dir, exc.result)
        return _fail(out_dir, "finite-difference complex Hessian positive "
                     "definite at every iterate", {"message": str(exc)})
    _log_inner_solves(out_dir, out)
    sol = out["solution"]
    _atomic_write(os.path.join(out_dir, "solution.csv"), field_to_csv(sol))
    report = {"family": fam.to_dict(), "points": s["points"],
              "iterations": out["iterations"], "final_residual": out["final_residual"],
              "residual_history": out["residual_history"],
              "inner_iterations": out["inner_iterations"],
              "max_error_vs_oracle": float(np.max(np.abs(sol.values - oracle.values)))}
    _write_json(os.path.join(out_dir, "report.json"), report)
    return 0


def _cmd_probe(s: dict) -> int:
    fam = _family_from(s)
    fit = probe.holder_fit(fam, np.zeros(2 * fam.dim), np.logspace(-4, -1, 10))
    rows = [("holder_alpha", "", fit["alpha"])]
    scan = probe.w2p_divergence_scan(
        fam, s["p_list"], base_points=s["base_points"], use_laplacian=s["use_laplacian"],
        growth=s["growth"], refinements=s["refinements"])
    for e in scan:
        rows.append(("w2p_slope", e.p, e.slope))
    lip = []
    if fam.kind == "pogorelov2":
        lip = probe.rhs_lipschitz_scaling(s["eps_list"])
        for eps, sup in lip:
            rows.append(("lip_sup_gradient", eps, sup))
    report = {"family": fam.to_dict(), "fitted_alpha": fit["alpha"],
              "alpha_stderr": fit["stderr"], "lip_F_scaling": lip,
              "w2p_scan": [(e.p, e.slope, e.verdict) for e in scan]}
    _write_json(os.path.join(s["out"], "probe.json"), report)
    _write_csv(os.path.join(s["out"], "probe.csv"),
               ("measurement", "parameter", "value"), rows)
    return 0


def _cmd_moser(s: dict) -> int:
    params = moser.MoserParams(n=s["n"], a=s["a"], R=s["R"], r=s["r"])
    C, k_max = s["C"], s["kmax"]
    try:
        sums = moser.log_a_partial_sums(params, k_max, C)
        rows = [(k, moser.p_sequence(params, k), moser.b_term(params, k),
                 moser.b_product(params, k), moser.a_coefficient(params, k, C),
                 float(sums[k - 1])) for k in range(1, k_max + 1)]
    except OverflowError as exc:   # some p_k or 2 p_k beyond double precision
        raise ConfigError(f"moser parameters out of range: {exc}") from None
    _write_csv(os.path.join(s["out"], "moser.csv"),
               ("k", "p_k", "b_k", "b_product", "a_k", "log_a_sum"), rows,
               fmt="{:.17g}".format)
    return 0


def _cmd_viscosity(s: dict) -> int:
    fam = SolutionFamily(s["family"], s["dim"], 0.0)
    out = viscosity.search_touch_above(fam, np.asarray(s["base"]), radius=s["radius"],
                                       attempts=s["attempts"], seed=s["seed"])
    report = {"family": fam.to_dict(), "base": s["base"], **out}
    _write_json(os.path.join(s["out"], "viscosity.json"), report)
    if out["found"]:
        return _fail(s["out"], "no quadratic jet touches from above on the "
                     "singular slice", report)
    return 0


# a fault of the settings rather than of a check: a setting outside its
# domain, a grid above its cap, and the cross-setting checks the tables
# cannot make, a point or base that does not fit the family and dim, and a
# family without the closed form the command needs
_INPUT_ERRORS = (ConfigError, GridTooLarge, DimensionMismatch, BasePointOffSingularSet,
                 UnsupportedFamily)

_COMMANDS = {"verify": _cmd_verify, "hessian": _cmd_hessian, "solve": _cmd_solve,
             "probe": _cmd_probe, "moser": _cmd_moser, "viscosity": _cmd_viscosity}


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    flags, settings = vars(args), {}
    try:
        config = {}
        if args.config:
            try:
                with open(args.config) as f:
                    config = json.load(f)
            except (OSError, json.JSONDecodeError) as exc:
                raise ConfigError(f"cannot read config: {exc}") from exc
            if not isinstance(config, dict):
                raise ConfigError(f"config must hold a JSON object, got {config!r}")
        # `out` first: once it is checked, the exit line is logged under it
        _resolve(_COMMON, flags, config, settings)
        if "threads" in config:
            raise ConfigError("threads is not a setting: BLAS reads "
                              "OPENBLAS_NUM_THREADS / OMP_NUM_THREADS at start")
        _resolve(_TABLES[args.subcommand], flags, config, settings)
        kernel = kernels.IMPL + (f" ({kernels.FALLBACK_REASON})"
                                 if kernels.FALLBACK_REASON else "")
        _log(settings["out"], f"subcommand={args.subcommand} seed={settings['seed']} "
                              f"threads={_blas_threads()} kernels={kernel} "
                              f"config={args.config or '-'}")
        try:
            code = _COMMANDS[args.subcommand](settings)
        except _INPUT_ERRORS:
            raise
        except CmaLabError as exc:   # a library check failed
            print(f"check failed: {exc}", file=sys.stderr)
            code = _fail(settings["out"], getattr(exc, "invariant", f"no {type(exc).__name__}"),
                         str(exc))
    except _INPUT_ERRORS + (OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        code = 2
    except MemoryError as exc:   # a size setting beyond the memory of this machine
        print(f"error: out of memory: {exc}", file=sys.stderr)
        code = 2
    if "out" in settings:
        try:
            _log(settings["out"], f"exit={code}")
        except OSError as exc:
            # an IO error of its own on success; a failed run keeps its code
            print(f"error: cannot write run.log: {exc}", file=sys.stderr)
            code = code or 2
    return code


if __name__ == "__main__":
    sys.exit(main())

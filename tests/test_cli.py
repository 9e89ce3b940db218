import csv
import functools
import json
import math
import os

import pytest
import scipy.sparse.linalg as spla

from cmalab import cli
from cmalab.cli import main
from cmalab.errors import IdentityViolated


def read_json(path):
    with open(path) as f:
        return json.load(f)


def test_verify_passes(tmp_path):
    out = str(tmp_path)
    assert main(["verify", "--out", out, "--points", "200", "--eps", "0.5"]) == 0
    report = read_json(os.path.join(out, "verify.json"))
    assert report["max_gap"] < 1e-10
    assert not os.path.exists(os.path.join(out, "failure.json"))


def test_verify_failure_report(tmp_path):
    out = str(tmp_path)
    code = main(["verify", "--out", out, "--points", "50", "--tol", "1e-20"])
    assert code == 1
    failure = read_json(os.path.join(out, "failure.json"))
    assert "invariant" in failure and failure["invariant"]


def test_unknown_subcommand_exits_2(capsys):
    assert main(["frobnicate"]) == 2


def test_bad_config_exits_2(tmp_path):
    missing = str(tmp_path / "nope.json")
    assert main(["verify", "--config", missing, "--out", str(tmp_path)]) == 2


@pytest.mark.parametrize("argv, config, key", [
    (["verify", "--points", "10"], {"out": 5}, "out"),
    (["verify", "--points", "10"], {"seed": [1]}, "seed"),
    (["verify", "--points", "10"], {"eps": {"a": 1}}, "eps"),
    (["probe"], {"p_list": 5}, "p_list"),
    (["verify"], {"points": 10.7}, "points"),
    (["verify"], {"points": float("inf")}, "points"),
    (["verify"], {"points": float("nan")}, "points"),
    (["probe"], {"use_laplacian": "false"}, "use_laplacian"),
    (["probe"], {"use_laplacian": 0}, "use_laplacian"),
    (["solve", "--points", "9"], {"threads": 2.5}, "threads"),
    (["solve", "--points", "9"], {"threads": True}, "threads"),
    (["verify"], {"points": True}, "points"),
    (["verify"], [1], "config"),
    (["verify"], {"seed": None}, "seed must be"),
])
def test_config_value_of_wrong_type_exits_2(tmp_path, monkeypatch, capsys,
                                            argv, config, key):
    monkeypatch.chdir(tmp_path)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    assert main(argv + ["--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and key in err
    # no output file: only the config and, once out is a path, run.log
    assert {p.name for p in tmp_path.iterdir()} <= {"cfg.json", "run.log"}


def test_integral_float_setting_is_the_integer(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"points": 10.0}))
    assert main(["verify", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    assert read_json(tmp_path / "verify.json")["points"] == 10


def test_use_laplacian_switches_the_observable(tmp_path):
    scans = []
    for value in (False, True):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"use_laplacian": value}))
        out = tmp_path / str(value)
        assert main(["probe", "--config", str(cfg), "--out", str(out),
                     "--base-points", "9", "--refinements", "2"]) == 0
        scans.append(read_json(out / "probe.json")["w2p_scan"])
    assert scans[0] != scans[1]


def test_unwritable_out_exits_2(tmp_path, capsys):
    # run.log cannot be written below a regular file, not even its exit line
    blocker = tmp_path / "file"
    blocker.write_text("")
    assert main(["verify", "--out", str(blocker / "run"), "--points", "10"]) == 2
    assert "cannot write run.log" in capsys.readouterr().err


def test_flag_overrides_config(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"points": 10, "eps": 0.5}))
    out = str(tmp_path / "run")
    assert main(["verify", "--config", str(cfg), "--out", out,
                 "--points", "25"]) == 0
    report = read_json(os.path.join(out, "verify.json"))
    assert report["points"] == 25              # flag wins
    assert report["family"]["eps"] == 0.5      # config fills the rest


def test_outputs_deterministic(tmp_path):
    outs = []
    for name in ("a", "b"):
        out = str(tmp_path / name)
        assert main(["verify", "--out", out, "--points", "100",
                     "--seed", "7"]) == 0
        with open(os.path.join(out, "verify.json"), "rb") as f:
            outs.append(f.read())
    assert outs[0] == outs[1]


def test_moser_csv_product_limit(tmp_path):
    out = str(tmp_path)
    assert main(["moser", "--out", out, "--n", "2", "--a", "1.0",
                 "--kmax", "60"]) == 0
    with open(os.path.join(out, "moser.csv")) as f:
        rows = list(csv.DictReader(f))
    assert len(rows) == 60
    assert float(rows[-1]["b_product"]) == pytest.approx(2.0, abs=1e-6)
    sums = [float(r["log_a_sum"]) for r in rows]
    assert abs(sums[-1] - sums[-5]) < 1e-6


def test_hessian_reports_gap(tmp_path):
    out = str(tmp_path)
    assert main(["hessian", "--out", out, "--eps", "1.0",
                 "--point", "0.1,0.2,0.3,0.4", "--h", "1e-3"]) == 0
    report = read_json(os.path.join(out, "hessian.json"))
    assert report["max_entry_gap"] < 1e-5


def test_solve_small_grid(tmp_path):
    out = str(tmp_path)
    assert main(["solve", "--out", out, "--eps", "1.0", "--points", "9"]) == 0
    report = read_json(os.path.join(out, "report.json"))
    assert report["final_residual"] < 1e-10
    assert os.path.exists(os.path.join(out, "solution.csv"))


def test_solve_nonconverged_writes_failure(tmp_path):
    out = str(tmp_path)
    assert main(["solve", "--out", out, "--eps", "1", "--points", "9",
                 "--max-iters", "1"]) == 1
    failure = read_json(os.path.join(out, "failure.json"))
    assert failure["invariant"] == "newton residual below tolerance"
    assert failure["detail"]["iterations"] == 1
    assert failure["detail"]["final_residual"] > 1e-10


def test_solve_inner_solve_failure_writes_failure(tmp_path, monkeypatch):
    def broken_bicgstab(A, b, **kwargs):
        return b * float("nan"), 1

    monkeypatch.setattr(spla, "bicgstab", broken_bicgstab)
    out = str(tmp_path)
    assert main(["solve", "--out", out, "--eps", "1", "--points", "9"]) == 1
    failure = read_json(os.path.join(out, "failure.json"))
    assert failure["invariant"] == "inner Krylov solve returned a finite direction"
    detail = failure["detail"]
    assert detail["iterations"] == 1
    assert detail["final_residual"] > 0
    assert detail["inner_info"] == [1]
    assert detail["inner_iterations"] == [0]
    # the step that failed made no line search
    with open(os.path.join(out, "run.log")) as f:
        lines = [ln.split(" ", 1)[1] for ln in f.read().splitlines()]
    assert {"inner_info=1", "psolves=0", "halvings=", "psh_rejects="} <= set(lines)


def test_solve_logs_inner_info(tmp_path, monkeypatch):
    real = spla.bicgstab

    def short_bicgstab(A, b, **kwargs):
        d, _ = real(A, b, **kwargs)
        return d, 1

    monkeypatch.setattr(spla, "bicgstab", short_bicgstab)
    out = str(tmp_path)
    assert main(["solve", "--out", out, "--eps", "1", "--points", "9"]) == 0
    report = read_json(os.path.join(out, "report.json"))
    with open(os.path.join(out, "run.log")) as f:
        lines = f.read().splitlines()
    logged = [ln.split(" ", 1)[1] for ln in lines if " inner_info=" in ln]
    assert logged == ["inner_info=" + ",".join(["1"] * report["iterations"])]
    assert "inner_info" not in report
    psolves = [ln.split(" ", 1)[1] for ln in lines if " psolves=" in ln]
    assert len(psolves) == 1
    counts = [int(c) for c in psolves[0][len("psolves="):].split(",")]
    assert len(counts) == report["iterations"] and all(c >= 1 for c in counts)
    assert "psolves" not in report


def test_solve_logs_line_search_halvings(tmp_path):
    out = str(tmp_path)
    assert main(["solve", "--out", out, "--eps", "1", "--points", "9"]) == 0
    report = read_json(os.path.join(out, "report.json"))
    with open(os.path.join(out, "run.log")) as f:
        lines = f.read().splitlines()
    for key in ("halvings", "psh_rejects"):
        logged = [ln.split(" ", 1)[1] for ln in lines if f" {key}=" in ln]
        assert len(logged) == 1
        counts = [int(c) for c in logged[0][len(key) + 1:].split(",")]
        assert len(counts) == report["iterations"] and all(c >= 0 for c in counts)
        assert key not in report


def test_solve_grid_above_max_nodes_exits_2(tmp_path, capsys):
    out = str(tmp_path)
    # 9^4 = 6561 nodes
    assert main(["solve", "--out", out, "--eps", "1", "--points", "9",
                 "--max-nodes", "100"]) == 2
    assert "cap of 100" in capsys.readouterr().err
    assert not os.path.exists(os.path.join(out, "failure.json"))
    with open(os.path.join(out, "run.log")) as f:
        assert f.read().splitlines()[-1].endswith(" exit=2")
    assert main(["solve", "--out", out, "--eps", "1", "--points", "9",
                 "--max-nodes", "0"]) == 2
    assert "max_nodes" in capsys.readouterr().err
    assert main(["solve", "--out", out, "--eps", "1", "--points", "9",
                 "--max-nodes", "6561"]) == 0


def test_solve_not_plurisubharmonic_writes_failure(tmp_path, monkeypatch):
    # default_init finds no plurisubharmonic initial guess
    out = str(tmp_path / "init")
    assert main(["solve", "--out", out, "--eps", "0.05", "--points", "17"]) == 1
    failure = read_json(os.path.join(out, "failure.json"))
    assert "positive definite" in failure["invariant"]
    assert "default initialization" in failure["detail"]["message"]
    assert "at node" not in failure["detail"]["message"]
    # no step length is allowed, so the line search finds no step
    monkeypatch.setattr(cli, "NewtonConfig",
                        functools.partial(cli.NewtonConfig, min_step=2.0))
    out = str(tmp_path / "line_search")
    assert main(["solve", "--out", out, "--eps", "1", "--points", "9"]) == 1
    failure = read_json(os.path.join(out, "failure.json"))
    assert "positive definite" in failure["invariant"]
    assert "line search" in failure["detail"]["message"]


def test_solve_line_search_failure_logs_inner_solves(tmp_path, monkeypatch):
    # no step length is allowed: the first line search fails with no halving
    monkeypatch.setattr(cli, "NewtonConfig",
                        functools.partial(cli.NewtonConfig, min_step=2.0))
    out = str(tmp_path)
    assert main(["solve", "--out", out, "--eps", "1", "--points", "9"]) == 1
    with open(os.path.join(out, "run.log")) as f:
        lines = [ln.split(" ", 1)[1] for ln in f.read().splitlines()]
    logged = {ln.split("=", 1)[0]: ln.split("=", 1)[1] for ln in lines
              if ln.split("=", 1)[0] in ("inner_info", "psolves", "halvings",
                                         "psh_rejects")}
    assert set(logged) == {"inner_info", "psolves", "halvings", "psh_rejects"}
    assert logged["halvings"] == "0" and logged["psh_rejects"] == "0"
    assert int(logged["psolves"]) >= 1


def test_viscosity_no_upper_touch(tmp_path):
    out = str(tmp_path)
    assert main(["viscosity", "--out", out, "--attempts", "50"]) == 0
    report = read_json(os.path.join(out, "viscosity.json"))
    assert not report["found"]
    assert report["witnesses"] == 50


def test_run_log_names_threads_and_kernels(tmp_path, monkeypatch, capsys):
    # BLAS reads its thread count from the environment at process start;
    # run.log names it from there, OPENBLAS_NUM_THREADS first
    out = str(tmp_path)
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.setenv("OMP_NUM_THREADS", "3")
    assert main(["solve", "--out", out, "--eps", "1.0", "--points", "9"]) == 0
    monkeypatch.delenv("OPENBLAS_NUM_THREADS")
    assert main(["verify", "--out", out, "--points", "10"]) == 0
    with open(os.path.join(out, "run.log")) as f:
        starts = [ln for ln in f if " subcommand=" in ln]
    assert " threads=1 " in starts[0] and " threads=3 " in starts[1]
    assert " kernels=c " in starts[0] or " kernels=numpy (" in starts[0]
    assert main(["solve", "--out", out, "--points", "9", "--threads", "1"]) == 2
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"threads": 2}))
    capsys.readouterr()
    assert main(["solve", "--out", out, "--points", "9", "--config", str(cfg)]) == 2
    assert "OPENBLAS_NUM_THREADS" in capsys.readouterr().err


@pytest.mark.parametrize("eps", ["nan", "inf"])
def test_non_finite_eps_exits_2(tmp_path, capsys, eps):
    out = str(tmp_path)
    assert main(["solve", "--out", out, "--eps", eps, "--points", "5"]) == 2
    assert "eps must be a finite number in (0, 1e3]" in capsys.readouterr().err
    assert not os.path.exists(os.path.join(out, "failure.json"))


@pytest.mark.parametrize("argv, message, output", [
    pytest.param(["hessian", "--point", "1,0,1,0", "--h", "nan"],
                 "h must be a finite number in [1e-6, 1]", "hessian.json", id="hessian-h-nan"),
    pytest.param(["hessian", "--point", "1,0,1,0", "--h", "inf"],
                 "h must be a finite number in [1e-6, 1]", "hessian.json", id="hessian-h-inf"),
    pytest.param(["hessian", "--point", "1,nan,1,0"],
                 "point must be a list of finite numbers", "hessian.json", id="hessian-point-nan"),
    pytest.param(["solve", "--eps", "1", "--points", "5", "--half-width", "nan"],
                 "half_width must be a finite number in [1e-3, 1e3]", "report.json",
                 id="solve-half-width-nan"),
    pytest.param(["solve", "--eps", "1", "--points", "5", "--half-width", "inf"],
                 "half_width must be a finite number in [1e-3, 1e3]", "report.json",
                 id="solve-half-width-inf"),
    pytest.param(["viscosity", "--attempts", "5", "--radius", "nan"],
                 "radius must be a finite number in [1e-9, 1e6]", "viscosity.json", id="viscosity-radius-nan"),
    pytest.param(["viscosity", "--attempts", "5", "--radius", "0"],
                 "radius must be a finite number in [1e-9, 1e6]", "viscosity.json", id="viscosity-radius-0"),
    pytest.param(["viscosity", "--attempts", "5", "--radius", "-0.1"],
                 "radius must be a finite number in [1e-9, 1e6]", "viscosity.json",
                 id="viscosity-radius-negative"),
    pytest.param(["verify", "--points", "10", "--min-w", "2"],
                 "min_w must be a finite number in [0, 1)", "verify.json", id="verify-min-w-2"),
    pytest.param(["verify", "--points", "10", "--min-w", "nan"],
                 "min_w must be a finite number in [0, 1)", "verify.json", id="verify-min-w-nan"),
    pytest.param(["verify", "--points", "10", "--tol", "nan"],
                 "tol must be a finite number in (0, inf)", "verify.json", id="verify-tol-nan"),
    pytest.param(["verify", "--points", "10", "--tol", "0"],
                 "tol must be a finite number in (0, inf)", "verify.json", id="verify-tol-0"),
    pytest.param(["verify", "--points", "10", "--tol", "-1"],
                 "tol must be a finite number in (0, inf)", "verify.json", id="verify-tol-negative"),
    pytest.param(["moser", "--a", "nan"],
                 "a must be a finite number in (0, inf)", "moser.csv", id="moser-a-nan"),
    pytest.param(["moser", "--a", "inf"],
                 "a must be a finite number in (0, inf)", "moser.csv", id="moser-a-inf"),
    pytest.param(["moser", "--C", "nan", "--kmax", "3"],
                 "C must be a finite number in (0, inf)", "moser.csv", id="moser-C-nan"),
    pytest.param(["moser", "--C", "inf", "--kmax", "3"],
                 "C must be a finite number in (0, inf)", "moser.csv", id="moser-C-inf"),
    pytest.param(["moser", "--kmax", "500"],
                 "kmax must be an integer in [1, 200]", "moser.csv", id="moser-kmax-500"),
    pytest.param(["moser", "--a", "1e308"],
                 "p_1 overflows double precision", "moser.csv", id="moser-a-1e308"),
    pytest.param(["moser", "--n", "3", "--a", "1e308", "--kmax", "1"],
                 "2 p_1 overflows double precision", "moser.csv", id="moser-n3-a-1e308"),
    pytest.param(["solve", "--eps", "1", "--points", "9", "--tol-residual", "inf"],
                 "tol_residual must be a finite number in (0, 1e-3]", "report.json",
                 id="solve-tol-residual-inf"),
    pytest.param(["solve", "--eps", "1", "--points", "9", "--tol-residual", "nan"],
                 "tol_residual must be a finite number in (0, 1e-3]", "report.json",
                 id="solve-tol-residual-nan"),
    pytest.param(["solve", "--config", {"Lambda": math.nan, "eps": 1, "points": 9}],
                 "Lambda must be a finite number in (0, inf)", "report.json", id="solve-Lambda-nan"),
    pytest.param(["probe", "--refinements", "1"],
                 "refinements must be an integer in [2, 16]", "probe.json", id="probe-refinements-1"),
    pytest.param(["probe", "--growth", "inf"],
                 "growth must be a finite number in (1, 2]", "probe.json", id="probe-growth-inf"),
    pytest.param(["viscosity", "--attempts", "0"],
                 "attempts must be an integer in [1, inf)", "viscosity.json", id="viscosity-attempts-0"),
    pytest.param(["verify", "--points", "0"],
                 "points must be an integer in [1, inf)", "verify.json", id="verify-points-0"),
    # scale settings that gave false results: a false witness (exit 1) or a
    # vacuous pass after overflow for the radius, an overflow traceback or
    # shrinking grids for the growth, the initial guess as the solution, NaN
    # in hessian.json and "Singular matrix"
    *(pytest.param(["viscosity", "--attempts", "5", "--radius", r],
                   "radius must be a finite number in [1e-9, 1e6]", "viscosity.json",
                   id=f"viscosity-radius-{r}") for r in ("1e-20", "1e-100", "1e-200", "1e150")),
    *(pytest.param(["probe", "--growth", g], "growth must be a finite number in (1, 2]",
                   "probe.json", id=f"probe-growth-{g}") for g in ("1e300", "0.5", "-2")),
    pytest.param(["solve", "--eps", "1", "--points", "9", "--tol-residual", "1e300"],
                 "tol_residual must be a finite number in (0, 1e-3]", "report.json",
                 id="solve-tol-residual-1e300"),
    pytest.param(["hessian", "--point", "0,0,0.5,0", "--h", "1e-300"],
                 "h must be a finite number in [1e-6, 1]", "hessian.json", id="hessian-h-1e-300"),
    pytest.param(["solve", "--eps", "1", "--points", "9", "--half-width", "1e-300"],
                 "half_width must be a finite number in [1e-3, 1e3]", "report.json",
                 id="solve-half-width-1e-300"),
    pytest.param(["verify", "--points", "10", "--seed", "-1"],
                 "seed must be an integer in [0, inf)", "verify.json", id="verify-seed--1"),
    # cross-setting checks: the base or point against the family and dim
    pytest.param(["viscosity", "--attempts", "5", "--base", "0,0,0.5,0"],
                 "base point must lie on {w = 0}", "viscosity.json",
                 id="viscosity-base-off-singular-set"),
    pytest.param(["hessian", "--point", "0.1,0.2"],
                 "expected 4 real coordinates, got 2", "hessian.json",
                 id="hessian-point-dimension-mismatch"),
    pytest.param(["verify", "--points", "10", "--family", "theorem_v"],
                 "theorem_v has no closed-form complex Hessian", "verify.json",
                 id="verify-family-without-closed-form"),
    pytest.param(["solve", "--eps", "1", "--points", "5", "--family", "blocki", "--dim", "3"],
                 "blocki has no closed-form rhs", "report.json", id="solve-family-without-rhs"),
    pytest.param(["solve", "--points", "9"], "error: eps is required: a finite number in "
                 "(0, 1e3]", "report.json", id="solve-eps-missing"),
    pytest.param(["hessian"], "error: point is required: a list of finite numbers",
                 "hessian.json", id="hessian-point-missing"),
])
def test_out_of_range_input_exits_2(tmp_path, capsys, argv, message, output):
    # a config error: exit 2, logged, and neither the command's output nor
    # a failure report; a dict in argv stands for a config file holding it
    out = str(tmp_path)
    cfg = tmp_path / "cfg.json"
    for arg in argv:
        if isinstance(arg, dict):
            cfg.write_text(json.dumps(arg))
    argv = [str(cfg) if isinstance(arg, dict) else arg for arg in argv]
    assert main(argv + ["--out", out]) == 2
    assert message in capsys.readouterr().err
    for name in (output, "failure.json"):
        assert not os.path.exists(os.path.join(out, name))
    with open(os.path.join(out, "run.log")) as f:
        assert f.read().splitlines()[-1].endswith(" exit=2")


# settings that make each command valid, so that a bad value is the only fault
_VALID = {"solve": {"eps": 1, "points": 5}, "hessian": {"point": [0.1, 0.2, 0.3, 0.4]}}


def _admits(row, value) -> bool:
    """Whether the row's declared domain holds `value`, a number or a string."""
    if isinstance(value, str):
        return row.kind is str and (row.domain is None or value in row.domain)
    if row.kind not in (int, float, list) or not math.isfinite(value):
        return False
    lo, hi = (float(end) for end in row.domain[1:-1].split(","))
    return ((row.kind is not int or float(value).is_integer())
            and (lo < value if row.domain[0] == "(" else lo <= value)
            and (value < hi if row.domain[-1] == ")" else value <= hi))


def _outside(row) -> list:
    """nan, inf, -inf, 0, -1, a non-integral value for an int and the
    value just past each finite edge of an interval, less those it admits."""
    values = [math.nan, math.inf, -math.inf, 0, -1] + [1.5] * (row.kind is int)
    if isinstance(row.domain, str):
        lo, hi = (float(end) for end in row.domain[1:-1].split(","))
        for end, is_open, outward in ((lo, row.domain[0] == "(", -1),
                                      (hi, row.domain[-1] == ")", 1)):
            if math.isfinite(end):
                past = end + outward if row.kind is int else math.nextafter(end, outward * math.inf)
                values.append(end if is_open else past)
    return [v for v in values if not _admits(row, v)]


# `config` is a path, and only its flag reads it
@pytest.mark.parametrize("command, row", [
    pytest.param(name, row, id=f"{name}-{row.key}")
    for name, rows in cli._TABLES.items() for row in cli._COMMON + rows
    if row.key != "config"])
def test_setting_outside_its_domain_exits_2(tmp_path, monkeypatch, capsys, command, row):
    # every value outside the row's domain, from the config file and from
    # the flag: exit 2 before any work, naming the setting; no output file
    monkeypatch.chdir(tmp_path)
    cases = [({row.key: [v] if row.kind is list else v}, []) for v in _outside(row)]
    if row.flag:
        cases += [({}, [f"--{row.key.replace('_', '-')}={v}"]) for v in _outside(row)
                  if not _admits(row, str(v))]
    assert cases
    for i, (bad, flags) in enumerate(cases):
        out = tmp_path / str(i)
        cfg = tmp_path / f"cfg{i}.json"
        cfg.write_text(json.dumps({**_VALID.get(command, {}), **bad}))
        argv = [command, "--config", str(cfg)] + flags
        assert main(argv + ([] if "out" in bad else ["--out", str(out)])) == 2, argv
        assert capsys.readouterr().err.startswith(f"error: {row.key} must be "), argv
        if "out" in bad:   # no directory to log to, and nothing written
            assert all(p.name.startswith("cfg") for p in tmp_path.iterdir()), argv
            continue
        assert os.listdir(out) == ["run.log"], argv
        with open(out / "run.log") as f:
            assert f.read().splitlines()[-1].endswith(" exit=2")


@pytest.mark.parametrize("command", sorted(cli._TABLES))
def test_help_lists_every_domain(capsys, command):
    assert main([command, "--help"]) == 0
    text = " ".join(capsys.readouterr().out.split())
    for row in cli._COMMON + cli._TABLES[command]:
        name = "--" + row.key.replace("_", "-") if row.flag else row.key + ":"
        assert f"{name} " in text and cli._describe(row) in text, row.key
        # a default of None marks a required setting
        tail = "required" if row.default is None else "default "
        assert f"{cli._describe(row)}; {tail}" in text, row.key


@pytest.mark.parametrize("command", sorted(cli._TABLES))
def test_every_default_is_required_or_in_its_domain(command):
    # None marks a required setting; every other default, a computed one
    # too, is a value of the row's own domain (_checked raises otherwise)
    settings = {}
    for row in cli._COMMON + cli._TABLES[command]:
        default = row.default(settings) if callable(row.default) else row.default
        if default is not None:
            settings[row.key] = cli._checked(row, default)


def test_out_of_memory_exits_2(tmp_path, monkeypatch, capsys):
    # a size setting beyond the machine's memory is a fault of the
    # settings; the command is stubbed, so no large array is asked for
    def exhausted(settings):
        raise MemoryError("Unable to allocate 119. GiB")

    monkeypatch.setitem(cli._COMMANDS, "verify", exhausted)
    assert main(["verify", "--points", "10", "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == "error: out of memory: Unable to allocate 119. GiB\n"
    assert os.listdir(tmp_path) == ["run.log"]
    with open(tmp_path / "run.log") as f:
        assert f.read().splitlines()[-1].endswith(" exit=2")


def test_library_check_failure_writes_failure(tmp_path, monkeypatch, capsys):
    # a CmaLabError raised inside a command: exit 1 and a failure report
    def broken(fam, pt):
        raise IdentityViolated("Hermitian determinant (nan+nanj) is not real")

    monkeypatch.setattr(cli, "verify_identity", broken)
    assert main(["verify", "--points", "10", "--out", str(tmp_path)]) == 1
    assert "check failed: Hermitian determinant" in capsys.readouterr().err
    assert read_json(tmp_path / "failure.json") == {
        "invariant": "no IdentityViolated",
        "detail": "Hermitian determinant (nan+nanj) is not real"}
    assert sorted(os.listdir(tmp_path)) == ["failure.json", "run.log"]
    with open(tmp_path / "run.log") as f:
        assert f.read().splitlines()[-1].endswith(" exit=1")


def _strict_json(path):
    def refuse(constant):
        raise ValueError(f"{constant} is not JSON")

    with open(path) as f:
        return json.load(f, parse_constant=refuse)


@pytest.mark.parametrize("argv, module, name, value, output, key", [
    (["verify", "--points", "10"], cli, "verify_identity", {"abs_gap": math.nan},
     "verify.json", "max_gap"),
    (["moser", "--kmax", "3"], cli.moser, "b_term", math.inf, "moser.csv", "b_k.0"),
])
def test_non_finite_output_exits_1(tmp_path, monkeypatch, argv, module, name, value,
                                   output, key):
    # a computed NaN or infinity is written nowhere: exit 1, and the report
    # names the entry and is itself valid JSON
    monkeypatch.setattr(module, name, lambda *args: value)
    assert main(argv + ["--out", str(tmp_path)]) == 1
    failure = _strict_json(tmp_path / "failure.json")
    assert failure["invariant"] == "finite outputs"
    assert f"{output}: {key} = " in failure["detail"]
    assert not (tmp_path / output).exists()

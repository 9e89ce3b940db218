import csv
import functools
import json
import os

import pytest
import scipy.sparse.linalg as spla

from cmalab import cli
from cmalab.cli import main


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
    detail = read_json(os.path.join(out, "failure.json"))["detail"]
    assert detail["iterations"] == 1
    assert detail["final_residual"] > 0
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


def test_run_log_names_threads_and_kernels(tmp_path):
    out = str(tmp_path)
    assert main(["solve", "--out", out, "--eps", "1.0", "--points", "9",
                 "--threads", "1"]) == 0
    with open(os.path.join(out, "run.log")) as f:
        first = f.readline()
    assert " threads=1 " in first
    assert " kernels=c " in first or " kernels=numpy (" in first
    assert main(["solve", "--out", out, "--points", "9", "--threads", "0"]) == 2

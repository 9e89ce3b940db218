"""Tests of the figures the benchmark derives from its spans and outcomes.

Run from the repository root:

    python3 -m pytest -q perfbench/tests

The solves here are on 9^4 grids and take a second or two each.
"""

import os
import sys

import numpy as np
import pytest
import scipy.sparse.linalg as spla

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(os.path.dirname(BENCH), "src"))
sys.path.insert(0, BENCH)

import tracing  # noqa: E402
import workloads  # noqa: E402
from cmalab import families, grid, kernels, solver  # noqa: E402
from tracing import Span  # noqa: E402


def _spans(rows):
    """Spans from (name, parent, t0, t1, exc, origin) rows."""
    return [Span(*row) for row in rows]


# ---------------------------------------------------------------------------
# derivations on hand-built spans

def test_linesearch_retries_and_rejects_from_residual_calls():
    spans = _spans([
        ("solver.newton_solve", -1, 0.0, 10.0),
        ("solver.default_init", 0, 0.1, 0.5),
        ("solver.residual", 0, 0.5, 1.0),                              # initial
        ("solver.assemble", 0, 1.0, 1.5),
        ("solver.krylov", 0, 1.5, 3.0),
        ("solver.residual", 0, 3.0, 3.5, "NotPlurisubharmonic", 5),    # rejected
        ("solver.residual", 0, 3.5, 4.0),                              # accepted
        ("solver.assemble", 0, 4.0, 4.5),
        ("solver.krylov", 0, 4.5, 6.0),
        ("solver.residual", 0, 6.0, 6.5),                              # accepted
    ])
    stats = tracing.solve_stats(spans, tracing.children_of(spans), 0)
    assert stats == {"newton_iters": 2, "linesearch_retries": 1,
                     "psh_rejects": 1, "stage": None}


def test_linesearch_retries_is_zero_when_init_fails_before_any_residual():
    spans = _spans([
        ("solver.newton_solve", -1, 0.0, 1.0, "NotPlurisubharmonic", 1),
        ("solver.default_init", 0, 0.0, 1.0, "NotPlurisubharmonic", 1),
    ])
    stats = tracing.solve_stats(spans, tracing.children_of(spans), 0)
    assert stats["linesearch_retries"] == 0
    assert stats["stage"] == "default_init"


def test_krylov_self_time_subtracts_direct_children_only():
    spans = _spans([
        ("solver.krylov", -1, 0.0, 10.0),
        ("solver.matvec", 0, 1.0, 3.0),
        ("kernels.apply_linearization", 1, 1.5, 2.5),   # inside the matvec
        ("solver.psolve", 0, 4.0, 5.0),
    ])
    assert tracing.krylov_self_s(spans, tracing.children_of(spans)) == pytest.approx(7.0)
    metrics = tracing.layer_metrics(spans)
    assert metrics["solver.krylov_s"] == pytest.approx(10.0)
    assert metrics["solver.krylov_self_s"] == pytest.approx(7.0)


@pytest.mark.parametrize("rows, stage", [
    # raised in newton_solve's body right after a Krylov solve
    ([("solver.newton_solve", -1, 0, 3, "NonConverged", 0),
      ("solver.residual", 0, 0, 1), ("solver.assemble", 0, 1, 2),
      ("solver.krylov", 0, 2, 3)], "inner_solve"),
    # NotPlurisubharmonic raised in the body after rejected candidates
    ([("solver.newton_solve", -1, 0, 4, "NotPlurisubharmonic", 0),
      ("solver.residual", 0, 0, 1), ("solver.assemble", 0, 1, 2),
      ("solver.krylov", 0, 2, 3),
      ("solver.residual", 0, 3, 4, "NotPlurisubharmonic", 4)], "line_search"),
    # NonConverged raised in the body after an accepted step
    ([("solver.newton_solve", -1, 0, 4, "NonConverged", 0),
      ("solver.residual", 0, 0, 1), ("solver.assemble", 0, 1, 2),
      ("solver.krylov", 0, 2, 3), ("solver.residual", 0, 3, 4)], "tolerance"),
])
def test_failure_stage_from_where_the_exception_was_raised(rows, stage):
    spans = _spans(rows)
    assert tracing.failure_stage(spans, tracing.children_of(spans), 0) == stage


def test_ok_per_s_counts_failures_as_misses():
    outcomes = [{"ok": True}, {"ok": False}, {"ok": True}, {"ok": False}]
    assert workloads.ok_per_s(outcomes, 2.0) == pytest.approx(1.0)
    assert workloads.ok_per_s([{"ok": False}], 2.0) == 0.0


def test_max_err_ignores_failed_calls():
    outcomes = [{"ok": True, "err": 1e-3}, {"ok": False, "err": 5.0}, {"ok": True}]
    assert workloads.max_err(outcomes) == 1e-3


# ---------------------------------------------------------------------------
# the same derivations on traced 9^4 solves

def _problem(eps=1.0, points=9):
    fam = families.SolutionFamily("pogorelov2", 2, eps)
    dom = grid.GridDomain(np.zeros(4), np.ones(4), (points,) * 4)
    oracle = grid.sample(dom, fam.value)
    rhs = grid.GridField(dom, np.log(
        families.eval_rhs(fam, dom.node_coords_flat())).reshape(dom.shape))
    return solver.DirichletProblem(dom, rhs, oracle)


def _traced_solve(cfg):
    """Run newton_solve under the tracer; return (result or exception, spans)."""
    prob = _problem()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        out = solver.newton_solve(prob, cfg)
    except Exception as exc:   # the failure is what the caller inspects
        out = exc
    finally:
        tracer.uninstall()
    return out, tracer.take()


def test_traced_solve_counts_match_the_solver_result():
    out, spans = _traced_solve(solver.NewtonConfig(tol_residual=1e-9))
    kids = tracing.children_of(spans)
    assert spans[0].name == "solver.newton_solve"
    stats = tracing.solve_stats(spans, kids, 0)
    metrics = tracing.layer_metrics(spans)
    residual_calls = metrics["solver.residual_calls"]
    assert stats["newton_iters"] == out["iterations"]
    assert stats["linesearch_retries"] == residual_calls - out["iterations"] - 1 >= 0
    assert stats["stage"] is None
    assert metrics["solver.krylov_iters"] == sum(out["inner_iterations"])
    assert metrics["solver.matvec_calls"] > 0
    assert 0.0 <= metrics["solver.krylov_self_s"] <= metrics["solver.krylov_s"]
    assert metrics["kernels.apply_linearization_calls"] == metrics["solver.matvec_calls"]
    # five input grids read and one output grid written per call
    grid_bytes = 8 * 9 ** 4
    assert metrics["kernels.apply_linearization_bytes"] == \
        6 * grid_bytes * metrics["kernels.apply_linearization_calls"]


@pytest.mark.parametrize("cfg, stage, exc_name", [
    # psd guard no initial guess can meet: default_init gives up
    (solver.NewtonConfig(psd_guard=1e6), "default_init", "NotPlurisubharmonic"),
    # one Newton step cannot reach the tolerance
    (solver.NewtonConfig(tol_residual=1e-12, max_iters=1), "tolerance", "NonConverged"),
])
def test_failure_stage_of_real_solves(cfg, stage, exc_name):
    exc, spans = _traced_solve(cfg)
    assert type(exc).__name__ == exc_name
    assert tracing.failure_stage(spans, tracing.children_of(spans), 0) == stage


def test_line_search_failure_is_not_read_from_its_message():
    # no step length allowed, so the line search finds no step;
    # NotPlurisubharmonic formats that reason as if it were a node
    exc, spans = _traced_solve(solver.NewtonConfig(min_step=2.0))
    assert "at node 'line search" in str(exc)
    assert tracing.failure_stage(spans, tracing.children_of(spans), 0) == "line_search"


def test_inner_solve_failure_stage(monkeypatch):
    def broken_bicgstab(A, b, **kwargs):
        return np.full_like(b, np.nan), 1

    monkeypatch.setattr(spla, "bicgstab", broken_bicgstab)
    exc, spans = _traced_solve(solver.NewtonConfig())
    assert type(exc).__name__ == "NonConverged"
    kids = tracing.children_of(spans)
    assert tracing.failure_stage(spans, kids, 0) == "inner_solve"
    assert tracing.layer_metrics(spans)["solver.krylov_info_nonzero"] == 1


def test_coverage_check_fails_when_a_wrapper_is_bypassed():
    prob = _problem()
    tracer = tracing.Tracer()
    tracer.install()
    # as if the solver had bound the kernel by name before tracing began
    wrapper = kernels.apply_linearization
    kernels.apply_linearization = wrapper.__wrapped__
    try:
        solver.newton_solve(prob, solver.NewtonConfig(tol_residual=1e-9))
    finally:
        kernels.apply_linearization = wrapper
        tracer.uninstall()
    counts = tracing.span_counts(tracer.take())
    problems = tracing.check_coverage(counts, workloads.WORKLOADS["solve-c2"].active)
    assert problems == ["span kernels.apply_linearization declared active but "
                        "recorded no call"]
    assert tracing.check_coverage(counts, workloads.WORKLOADS["solve-c3"].active) == \
        ["span kernels.hessian_fields declared idle but recorded "
         f"{counts['kernels.hessian_fields']} calls"]

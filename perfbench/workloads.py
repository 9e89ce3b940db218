"""The four benchmark workloads: inputs made from a seed, one timed pass,
and the correctness check of every library call in it.

Every library call goes through a module attribute (`solver.newton_solve`,
`probe.holder_fit`, ...) so that the tracer's wrappers see it.

Each workload declares the spans its set-up and its passes must fire;
every other traced span must stay idle.

A pass returns one outcome per library call:
    {"op": label, "ok": bool, "wrong": bool, ...}
`ok` is False for a failed call: a raised exception, a residual above
tolerance, an error above its bound or a wrong probe verdict.  `wrong`
marks the failures that are wrong outputs rather than raised errors; a
pass with any wrong output is not correct.
"""

from __future__ import annotations

import math
import time
import traceback

import numpy as np

from cmalab import families, grid, moser, probe, solver, viscosity
from cmalab.errors import CmaLabError

# Box-centre offsets are drawn in [-OFFSET, OFFSET] per real axis.  The
# eps-ladder's 17^4, eps = 0.3 case sits on the edge of default_init:
# offsets of 5e-3 or more flip it between success and failure from seed
# to seed, which would make the ladder's figures measure the seed.  At
# 1e-3 every seed gives the same outcomes.
OFFSET = 1e-3

# Newton settings of acceptance criterion 5
TOL = 1e-9
MAX_ITERS = 12

_SOLVER_SPANS = ("solver.newton_solve", "solver.default_init", "solver.residual",
                 "solver.assemble", "solver.matvec", "solver.psolve", "solver.krylov")
_KERNEL_SPANS = ("kernels.apply_linearization", "kernels.hessian_fields")


def _raised_in(exc):
    """Innermost cmalab function in the traceback of exc."""
    frames = [f for f in traceback.extract_tb(exc.__traceback__)
              if "cmalab" in f.filename.replace("\\", "/").split("/")]
    return frames[-1].name if frames else None


# ---------------------------------------------------------------------------
# solve workloads

def error_bound(h, eps):
    """Accepted max |u - oracle| of a converged solve: 0.5 h^2 / eps.

    The 3-point scheme is second order; at eps = 1 the measured error is
    about 0.11 h^2, so the bound leaves a factor of about 4, and the
    1/eps factor covers the measured growth of the constant as eps falls
    (0.22 h^2 at eps = 0.3).
    """
    return 0.5 * h * h / eps


class SolveWorkload:
    """Dirichlet solves of closed-form families on boxes, the oracle being
    the family itself."""

    setup_active = ("grid.sample", "families.eval_rhs")

    def __init__(self, cases, kernels_active=True):
        self.cases = cases          # (kind, dim, eps, points per axis)
        self.active = _SOLVER_SPANS + (_KERNEL_SPANS if kernels_active else ())

    def grid_bytes(self):
        return max(8 * p ** (2 * d) for _, d, _, p in self.cases)

    def setup(self, seed):
        rng = np.random.default_rng(seed)
        prepared = []
        for kind, dim, eps, points in self.cases:
            fam = families.SolutionFamily(kind, dim, eps)
            centre = rng.uniform(-OFFSET, OFFSET, size=2 * dim)
            dom = grid.GridDomain(centre, np.ones(2 * dim), (points,) * (2 * dim))
            oracle = grid.sample(dom, fam.value)
            rhs = grid.GridField(dom, np.log(
                families.eval_rhs(fam, dom.node_coords_flat())).reshape(dom.shape))
            prob = solver.DirichletProblem(dom, rhs, oracle)
            label = f"{kind} eps={eps:g} {points}^{2 * dim}"
            prepared.append((label, prob, oracle, error_bound(float(dom.spacings[0]), eps)))
        return prepared

    def run_pass(self, prepared):
        cfg = solver.NewtonConfig(tol_residual=TOL, max_iters=MAX_ITERS)
        outcomes = []
        for label, prob, oracle, bound in prepared:
            outcomes.append(self._solve_one(label, prob, oracle, bound, cfg))
        return outcomes

    def _solve_one(self, label, prob, oracle, bound, cfg):
        t0 = time.perf_counter()
        try:
            out = solver.newton_solve(prob, cfg)
        except CmaLabError as exc:
            return {"op": label, "ok": False, "wrong": False, "t_s": time.perf_counter() - t0,
                    "exception": type(exc).__name__, "raised_in": _raised_in(exc)}
        t_s = time.perf_counter() - t0
        err = float(np.max(np.abs(out["solution"].values - oracle.values)))
        rec = {"op": label, "t_s": t_s, "err": err, "bound": bound,
               "iterations": out["iterations"],
               "inner_iterations": list(out["inner_iterations"])}
        if not out["final_residual"] <= TOL:
            rec.update(ok=False, wrong=True, stage="tolerance")
        elif not err <= bound:
            rec.update(ok=False, wrong=True, stage="error_bound")
        else:
            rec.update(ok=True, wrong=False)
        return rec


# ---------------------------------------------------------------------------
# probe workload

def _random_points(rng, dim, count, min_w):
    pts = rng.uniform(-1.0, 1.0, size=(count, 2 * dim))
    bad = np.hypot(pts[:, -2], pts[:, -1]) <= min_w
    while np.any(bad):
        pts[bad, -2:] = rng.uniform(-1.0, 1.0, size=(int(np.sum(bad)), 2))
        bad = np.hypot(pts[:, -2], pts[:, -1]) <= min_w
    return pts


_BASES2 = ((0.0, 0.0), (0.3, 0.0), (0.0, -0.4), (0.2, 0.2), (-0.5, 0.1))

# (family, p list, scan options): the three integrability flips of
# acceptance criterion 7, each expected "bounded" then "divergent"
_SCANS = (
    (("pogorelov2", 2, 0.0), (1.0, 3.0), {"base_points": 49}),
    (("theorem_v", 3, 0.0), (0.5, 2.0), {"base_points": 33}),
    (("blocki", 3, 0.0), (4.0, 12.0),
     {"base_points": 13, "growth": 1.26, "refinements": 4, "use_laplacian": True}),
)

_HOLDER = ((("pogorelov2", 2, 0.0), 1.0), (("pogorelov_n", 3, 0.0), 2.0 / 3.0))


class ProbeWorkload:
    """The library calls behind acceptance criteria 1, 4, 6 and 7."""

    active = ("families.verify_identity", "families.eval_rhs", "hermitian.herm_det",
              "hermitian.psd_report", "moser.third_order_check_batch",
              "viscosity.search_touch_above", "viscosity.check_touch_below",
              "probe.w2p_divergence_scan", "probe.holder_fit", "grid.sample",
              "grid.second_derivative_magnitude", "grid.complex_laplacian_fd")
    setup_active = ()

    def grid_bytes(self):
        # largest scan grid: theorem_v on C^3, 5^4 regular nodes times the
        # third refinement of 33 singular-axis points
        counts = [33]
        for _ in range(2):
            counts.append(int(round((counts[-1] - 1) * math.sqrt(2.0))) + 1)
        return 8 * 5 ** 4 * counts[-1] ** 2

    def setup(self, seed):
        rng = np.random.default_rng(seed)
        fams = [families.SolutionFamily("pogorelov2", 2, e) for e in (1.0, 0.3, 0.05)]
        fams += [families.SolutionFamily("pogorelov_n", m, 1.0) for m in (3, 4)]
        identity = [(f, _random_points(rng, f.dim, 1000, 1e-3)) for f in fams]
        third = [moser.random_third_order_samples(n, 100_000, rng) for n in (2, 3, 4)]
        jets = []
        for _ in range(1000):
            a = rng.normal(size=(4, 4))
            jets.append(viscosity.QuadraticJet(np.zeros(4), 0.0, np.zeros(4), -(a @ a.T)))
        bases2 = [np.array([x, y, 0.0, 0.0]) for x, y in _BASES2]
        bases3 = [np.pad(b, (0, 2)) for b in bases2]
        return {"identity": identity, "third": third, "jets": jets,
                "upper": [(("pogorelov2", 2, 0.0), b) for b in bases2]
                + [(("pogorelov_n", 3, 0.0), b) for b in bases3],
                "call_seed": int(rng.integers(2 ** 31))}

    def run_pass(self, state):
        out = []
        seed = state["call_seed"]
        for fam, pts in state["identity"]:
            for k, p in enumerate(pts):
                gap = families.verify_identity(fam, p)["abs_gap"]
                out.append(_verdict(f"identity {fam.kind} eps={fam.eps:g} #{k}",
                                    gap < 1e-10, gap=gap))
        for d, t in state["third"]:
            res = moser.third_order_check_batch(d, t)
            out.append(_verdict(f"third-order n={d.shape[1]}", res["failures"] == 0,
                                failures=res["failures"]))
        for fam_args, base in state["upper"]:
            res = viscosity.search_touch_above(families.SolutionFamily(*fam_args), base,
                                               radius=0.1, attempts=1000, seed=seed)
            out.append(_verdict(f"upper jets {fam_args[0]} at {base.tolist()}",
                                not res["found"] and res["witnesses"] == 1000,
                                witnesses=res["witnesses"]))
        u0 = families.SolutionFamily("pogorelov2", 2, 0.0)
        touching = 0
        for k, q in enumerate(state["jets"]):
            res = viscosity.check_touch_below(u0, q, radius=0.1, samples=2000, seed=seed)
            touching += res["touches"]
            out.append(_verdict(f"lower jet #{k}", not res["touches"] or res["verdict"]))
        # a lower-jet check that no jet touched is vacuous, which is wrong too
        out.append(_verdict("lower jets touching", touching > 0, touching=touching))
        for fam_args, p_list, opts in _SCANS:
            scan = probe.w2p_divergence_scan(families.SolutionFamily(*fam_args),
                                             list(p_list), **opts)
            verdicts = [e.verdict for e in scan]
            out.append(_verdict(f"w2p scan {fam_args[0]}",
                                verdicts == ["bounded", "divergent"], verdicts=verdicts))
        radii = np.logspace(-4, -1, 10)
        for fam_args, alpha in _HOLDER:
            fam = families.SolutionFamily(*fam_args)
            fit = probe.holder_fit(fam, np.zeros(2 * fam.dim), radii)["alpha"]
            err = abs(fit - alpha)
            out.append(_verdict(f"holder {fam_args[0]}", err < 0.05, err=err))
        return out


def _verdict(op, ok, **detail):
    rec = {"op": op, "ok": bool(ok), "wrong": not ok}
    if not ok:
        rec["stage"] = "verdict"
    rec.update(detail)
    return rec


WORKLOADS = {
    "solve-c2": SolveWorkload([("pogorelov2", 2, 1.0, 33)]),
    "solve-c3": SolveWorkload([("pogorelov_n", 3, 1.0, 9)], kernels_active=False),
    "eps-ladder": SolveWorkload([("pogorelov2", 2, eps, pts) for pts in (17, 25)
                                 for eps in (1.0, 0.7, 0.5, 0.3, 0.1, 0.05)]),
    "probe-suite": ProbeWorkload(),
}


def max_err(outcomes):
    """Largest error against an exact answer over the calls that passed:
    |u - oracle| of converged solves, |alpha - exact| of Holder fits."""
    errs = [o["err"] for o in outcomes if o["ok"] and "err" in o]
    return max(errs) if errs else math.nan


def ok_per_s(outcomes, run_s):
    """Calls that passed their checks per second; a failure counts as a miss."""
    return sum(1 for o in outcomes if o["ok"]) / run_s

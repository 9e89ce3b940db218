"""Spans around the public entry points of each cmalab layer.

The tracer swaps module and class attributes for timing wrappers, so it
sees exactly the calls that look those attributes up at call time.  A
call that bypasses an attribute (for example a kernel imported by name
into another module) is invisible; `check_coverage` turns that into a
loud failure instead of a reported zero.

Spans are kept in memory as a flat list with parent indices and are
reduced to per-layer metrics by the pure functions at the end of this
file, which the benchmark's tests exercise directly.
"""

from __future__ import annotations

import importlib
import statistics
import time

# (module, class or None, attribute, span name).  Where a module imported
# a name from another layer, the importing module's attribute is wrapped
# too, under the span name of the layer that defines it.
SITES = (
    ("cmalab.solver", None, "newton_solve", "solver.newton_solve"),
    ("cmalab.solver", None, "default_init", "solver.default_init"),
    ("cmalab.solver", None, "residual", "solver.residual"),
    ("cmalab.solver", None, "assemble_linearization", "solver.assemble"),
    ("cmalab.solver", "WirtingerOperator", "apply", "solver.matvec"),
    ("cmalab.solver", "_DstPreconditioner", "solve", "solver.psolve"),
    ("scipy.sparse.linalg", None, "bicgstab", "solver.krylov"),
    ("cmalab.kernels", None, "apply_linearization", "kernels.apply_linearization"),
    ("cmalab.kernels", None, "hessian_fields", "kernels.hessian_fields"),
    ("cmalab.grid", None, "sample", "grid.sample"),
    ("cmalab.probe", None, "sample", "grid.sample"),
    ("cmalab.grid", None, "second_derivative_magnitude", "grid.second_derivative_magnitude"),
    ("cmalab.probe", None, "second_derivative_magnitude", "grid.second_derivative_magnitude"),
    ("cmalab.grid", None, "complex_laplacian_fd", "grid.complex_laplacian_fd"),
    ("cmalab.probe", None, "complex_laplacian_fd", "grid.complex_laplacian_fd"),
    ("cmalab.families", None, "eval_rhs", "families.eval_rhs"),
    ("cmalab.families", None, "verify_identity", "families.verify_identity"),
    ("cmalab.hermitian", None, "herm_det", "hermitian.herm_det"),
    ("cmalab.families", None, "herm_det", "hermitian.herm_det"),
    ("cmalab.viscosity", None, "herm_det", "hermitian.herm_det"),
    ("cmalab.hermitian", None, "psd_report", "hermitian.psd_report"),
    ("cmalab.viscosity", None, "psd_report", "hermitian.psd_report"),
    ("cmalab.probe", None, "w2p_divergence_scan", "probe.w2p_divergence_scan"),
    ("cmalab.probe", None, "holder_fit", "probe.holder_fit"),
    ("cmalab.viscosity", None, "search_touch_above", "viscosity.search_touch_above"),
    ("cmalab.viscosity", None, "check_touch_below", "viscosity.check_touch_below"),
    ("cmalab.moser", None, "third_order_check_batch", "moser.third_order_check_batch"),
)

SPAN_NAMES = tuple(sorted({site[3] for site in SITES}))


class Span:
    __slots__ = ("name", "parent", "t0", "t1", "exc", "origin", "nbytes", "iters", "info")

    def __init__(self, name, parent, t0=0.0, t1=0.0, exc=None, origin=None):
        self.name = name
        self.parent = parent      # index of the enclosing span, -1 at top level
        self.t0 = t0
        self.t1 = t1
        self.exc = exc            # class name of an exception that left the span
        self.origin = origin      # index of the innermost span that exception left
        self.nbytes = 0           # computed bytes read and written (kernels)
        self.iters = 0            # Krylov iterations (bicgstab callback calls)
        self.info = 0             # bicgstab info code

    @property
    def duration(self):
        return self.t1 - self.t0


def _kernel_bytes(span, args, out):
    """Computed bytes: each input grid read once, each output grid written once."""
    grids = [a for a in args if hasattr(a, "nbytes") and getattr(a, "ndim", 0) == 4]
    outs = out if isinstance(out, tuple) else (out,)
    span.nbytes = sum(a.nbytes for a in grids) + sum(o.nbytes for o in outs)


def _krylov_before(span, kwargs):
    user_cb = kwargs.get("callback")

    def counting(xk):
        span.iters += 1
        if user_cb is not None:
            user_cb(xk)

    kwargs["callback"] = counting


def _krylov_after(span, args, out):
    span.info = int(out[1])


_BEFORE = {"solver.krylov": _krylov_before}
_AFTER = {"solver.krylov": _krylov_after,
          "kernels.apply_linearization": _kernel_bytes,
          "kernels.hessian_fields": _kernel_bytes}


class Tracer:
    """Installs wrappers on every site in SITES and records spans."""

    def __init__(self):
        self.spans = []
        self._open = []
        self._saved = []

    def install(self):
        if self._saved:
            raise RuntimeError("tracer already installed")
        for mod_name, cls_name, attr, name in SITES:
            owner = importlib.import_module(mod_name)
            if cls_name is not None:
                owner = getattr(owner, cls_name)
            original = getattr(owner, attr)  # AttributeError: the site moved
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name))

    def uninstall(self):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved = []

    def take(self):
        """Return the spans recorded so far and start a new list."""
        if self._open:
            raise RuntimeError("spans still open")
        spans, self.spans = self.spans, []
        return spans

    def _wrap(self, original, name):
        before = _BEFORE.get(name)
        after = _AFTER.get(name)
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            span = Span(name, self._open[-1] if self._open else -1)
            idx = len(self.spans)
            self.spans.append(span)
            self._open.append(idx)
            if before is not None:
                before(span, kwargs)
            span.t0 = clock()
            try:
                out = original(*args, **kwargs)
            except BaseException as exc:
                span.t1 = clock()
                span.exc = type(exc).__name__
                # the first wrapper an exception leaves is where it was raised
                if not hasattr(exc, "_perfbench_origin"):
                    exc._perfbench_origin = idx
                span.origin = exc._perfbench_origin
                raise
            finally:
                self._open.pop()
            span.t1 = clock()
            if after is not None:
                after(span, args, out)
            return out

        wrapper.__wrapped__ = original
        return wrapper


# ---------------------------------------------------------------------------
# reductions over one pass's spans

def children_of(spans):
    kids = [[] for _ in spans]
    for i, s in enumerate(spans):
        if s.parent >= 0:
            kids[s.parent].append(i)
    return kids


def self_time(spans, kids, i):
    """Span duration minus the time its direct children cover."""
    return spans[i].duration - sum(spans[k].duration for k in kids[i])


_STAGE_OF_SPAN = {"solver.default_init": "default_init",
                  "solver.krylov": "inner_solve"}


def failure_stage(spans, kids, i):
    """Stage of a failed newton_solve span, from where its exception was raised.

    An exception that left a child span was raised inside that layer.
    In newton_solve's own body, NotPlurisubharmonic is raised only when
    the line search finds no step, and NonConverged either right after a
    Krylov solve (the inner solve failed) or after the last accepted
    step (the residual is still above tolerance).
    """
    span = spans[i]
    if span.exc is None:
        return None
    if span.origin is not None and span.origin != i:
        origin = span.origin
        while spans[origin].parent != i:   # climb to the direct child of the solve
            origin = spans[origin].parent
        return _STAGE_OF_SPAN.get(spans[origin].name, spans[origin].name)
    if span.exc == "NotPlurisubharmonic":
        return "line_search"
    if kids[i] and spans[kids[i][-1]].name == "solver.krylov":
        return "inner_solve"
    return "tolerance"


def solve_stats(spans, kids, i):
    """Newton iterations, line-search retries and rejected candidates of one solve.

    Each Newton iteration assembles once.  Every residual call beyond the
    initial one and one accepted candidate per iteration is a retry.
    """
    direct = [spans[k] for k in kids[i]]
    iters = sum(1 for s in direct if s.name == "solver.assemble")
    residuals = [s for s in direct if s.name == "solver.residual"]
    retries = len(residuals) - iters - 1 if residuals else 0
    rejects = sum(1 for s in residuals if s.exc == "NotPlurisubharmonic")
    return {"newton_iters": iters, "linesearch_retries": retries,
            "psh_rejects": rejects, "stage": failure_stage(spans, kids, i)}


def layer_total(spans, name):
    """Summed duration and number of the spans called name."""
    ss = [s for s in spans if s.name == name]
    return sum(s.duration for s in ss), len(ss)


def krylov_self_s(spans, kids):
    """BiCGStab wall time minus the matvecs and preconditioner solves inside it."""
    return sum(self_time(spans, kids, i) for i, s in enumerate(spans)
               if s.name == "solver.krylov")


def layer_metrics(spans):
    """Per-layer times (inclusive seconds) and counts of one pass."""
    kids = children_of(spans)
    out = {}
    for name in ("solver.psolve", "solver.matvec", "solver.residual", "solver.assemble",
                 "kernels.apply_linearization", "kernels.hessian_fields", "grid.sample",
                 "hermitian.herm_det"):
        out[name + "_s"], out[name + "_calls"] = layer_total(spans, name)
    for name in ("solver.default_init", "grid.second_derivative_magnitude",
                 "grid.complex_laplacian_fd", "families.eval_rhs",
                 "families.verify_identity", "probe.w2p_divergence_scan",
                 "probe.holder_fit", "viscosity.search_touch_above",
                 "viscosity.check_touch_below", "moser.third_order_check_batch"):
        out[name + "_s"] = layer_total(spans, name)[0]
    krylov = [s for s in spans if s.name == "solver.krylov"]
    out["solver.krylov_s"] = sum(s.duration for s in krylov)
    out["solver.krylov_self_s"] = krylov_self_s(spans, kids)
    out["solver.krylov_iters"] = sum(s.iters for s in krylov)
    out["solver.krylov_info_nonzero"] = sum(1 for s in krylov if s.info != 0)
    for key in ("newton_iters", "linesearch_retries", "psh_rejects"):
        out["solver." + key] = 0
    for i, s in enumerate(spans):
        if s.name == "solver.newton_solve":
            stats = solve_stats(spans, kids, i)
            for key in ("newton_iters", "linesearch_retries", "psh_rejects"):
                out["solver." + key] += stats[key]
    for name in ("apply_linearization", "hessian_fields"):
        out[f"kernels.{name}_bytes"] = sum(
            s.nbytes for s in spans if s.name == "kernels." + name)
    t = out["kernels.apply_linearization_s"]
    out["kernels.apply_linearization_gbps"] = (
        out["kernels.apply_linearization_bytes"] / t / 1e9 if t > 0 else 0.0)
    return out


def span_counts(spans):
    counts = dict.fromkeys(SPAN_NAMES, 0)
    for s in spans:
        counts[s.name] += 1
    return counts


def check_coverage(counts, active):
    """Problems with a workload's declared span coverage (empty when fine).

    Every span in `active` must have fired at least once; every other
    traced span must have fired never.
    """
    problems = [f"span {name} is not a traced site"
                for name in active if name not in SPAN_NAMES]
    for name in SPAN_NAMES:
        if name in active and counts[name] == 0:
            problems.append(f"span {name} declared active but recorded no call")
        elif name not in active and counts[name] != 0:
            problems.append(f"span {name} declared idle but recorded {counts[name]} calls")
    return problems


def median_metrics(per_pass):
    """Median of each metric over passes."""
    return {k: statistics.median(p[k] for p in per_pass) for k in per_pass[0]}

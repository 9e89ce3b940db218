"""One workload in one process: set up, then timed passes in a closed loop.

Started by run.py; not meant to be run by hand.  The last stdout line is
a JSON object for run.py.

    python3 perfbench/worker.py --workload W --seed N --seconds S --trace 0|1
                                --t0 T [--setup-only]

--t0 is the CLOCK_MONOTONIC reading run.py took just before starting
this process, so set-up time covers interpreter start and imports.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import statistics
import sys
import time

import tracing
from run import THREAD_VARS, monotonic

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

# Hard ceiling on the measuring loop, so a slow machine still finishes
# inside the 180 s a run may take.
LOOP_CEILING_S = 120.0

FAIL_STAGES = ("default_init", "line_search", "inner_solve", "tolerance", "error_bound")


_SC_LEVEL3_CACHE_SIZE = 194   # glibc <bits/confname.h>; os.sysconf_names lacks it


def last_level_cache_bytes():
    """Level-3 cache size the C library reports, or None where it reports none."""
    try:
        sysconf = ctypes.CDLL(None).sysconf
    except (OSError, AttributeError):
        return None
    sysconf.argtypes = [ctypes.c_int]
    sysconf.restype = ctypes.c_long
    size = sysconf(_SC_LEVEL3_CACHE_SIZE)
    return size if size > 0 else None


def environment(wl):
    import numpy
    import scipy
    import scipy.fft

    from cmalab import kernels
    llc = last_level_cache_bytes()
    grid_bytes = wl.grid_bytes()
    return {
        "kernels_impl": kernels.IMPL,
        "CMA_LAB_FORCE_FALLBACK": os.environ.get("CMA_LAB_FORCE_FALLBACK"),
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "scipy_fft_workers": scipy.fft.get_workers(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "llc_bytes": llc,
        "grid_bytes": grid_bytes,
        "grid_over_llc": grid_bytes / llc if llc else None,
    }


def fail_counts(outcomes):
    counts = {f"solver.fail_{stage}": 0 for stage in FAIL_STAGES}
    counts["probe.fail_verdict"] = 0
    for o in outcomes:
        stage = o.get("stage")
        if stage == "verdict":
            counts["probe.fail_verdict"] += 1
        elif stage is not None:
            counts[f"solver.fail_{stage}"] += 1
    return counts


def attach_stages(spans, outcomes):
    """Give each failed solve of a traced pass the stage its spans show."""
    kids = tracing.children_of(spans)
    solves = [i for i, s in enumerate(spans)
              if s.name == "solver.newton_solve" and s.parent == -1]
    stats = [tracing.solve_stats(spans, kids, i) for i in solves]
    solve_outcomes = [o for o in outcomes if "raised_in" in o or "iterations" in o]
    if len(stats) != len(solve_outcomes):
        raise RuntimeError(f"{len(solve_outcomes)} solves but {len(stats)} newton_solve spans")
    for o, st in zip(solve_outcomes, stats):
        if not o["ok"] and "stage" not in o:
            o["stage"] = st["stage"]


def run(args):
    sys.path.insert(0, SRC)
    import cmalab
    if os.path.dirname(os.path.abspath(cmalab.__file__)) != os.path.join(SRC, "cmalab"):
        raise SystemExit(f"cmalab imported from {cmalab.__file__}, not from {SRC}")
    import workloads   # imports cmalab, so only once src/ is on the path

    wl = workloads.WORKLOADS[args.workload]
    tracer = tracing.Tracer() if args.trace else None
    if tracer:
        tracer.install()
    state = wl.setup(args.seed)
    setup_s = monotonic() - args.t0
    if args.setup_only:
        return {"setup_s": setup_s}

    result = {"setup_s": setup_s}
    if tracer:
        setup_spans = tracer.take()
        tracer.uninstall()
        problems = tracing.check_coverage(tracing.span_counts(setup_spans), wl.setup_active)
        problems = [f"set-up: {p}" for p in problems]
        setup_metrics = {"setup.grid.sample_s": tracing.layer_total(setup_spans, "grid.sample")[0],
                         "setup.families.eval_rhs_s":
                             tracing.layer_total(setup_spans, "families.eval_rhs")[0]}

    # Closed loop, one library call in flight.  Passes repeat until the
    # next one would overrun --seconds, with at least two, so a slow first
    # pass never stands alone.  A traced run starts with an untraced
    # warm-up pass, then alternates traced and untraced passes (at least
    # one of each); the tracing overhead is taken between those two kinds.
    min_passes = 3 if tracer else 2
    plain_times, traced_times, layer, outcomes_all = [], [], [], []
    coverage = dict.fromkeys(tracing.SPAN_NAMES, 0)
    loop_t0 = time.perf_counter()
    while True:
        traced = tracer is not None and len(outcomes_all) % 2 == 1
        if traced:
            tracer.install()
        t0 = time.perf_counter()
        outcomes = wl.run_pass(state)
        dt = time.perf_counter() - t0
        if traced:
            tracer.uninstall()
            spans = tracer.take()
            attach_stages(spans, outcomes)
            for name, n in tracing.span_counts(spans).items():
                coverage[name] += n
            metrics = tracing.layer_metrics(spans)
            metrics.update(fail_counts(outcomes))
            layer.append(metrics)
            traced_times.append(dt)
        else:
            plain_times.append(dt)
        outcomes_all.append((dt, outcomes))
        elapsed = time.perf_counter() - loop_t0
        typical = statistics.median(t for t, _ in outcomes_all)
        if len(outcomes_all) >= min_passes and (elapsed + typical > args.seconds
                                                or elapsed + typical > LOOP_CEILING_S):
            break

    flat = [o for _, outs in outcomes_all for o in outs]
    result.update({
        "pass_times": [t for t, _ in outcomes_all],
        "attempted": len(flat),
        "failed": sum(1 for o in flat if not o["ok"]),
        "correct": not any(o["wrong"] for o in flat),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "env": environment(wl),
    })
    measured = outcomes_all[1::2] if tracer else outcomes_all
    result["run_s"] = statistics.median(t for t, _ in measured)
    result["ok_per_s"] = statistics.median(workloads.ok_per_s(outs, t) for t, outs in measured)
    result["ok_ratio"] = sum(1 for o in flat if o["ok"]) / len(flat)
    result["max_err"] = workloads.max_err(flat)
    failures = {}
    for o in flat:
        if not o["ok"]:
            rec = {k: o[k] for k in ("stage", "exception", "raised_in") if k in o}
            failures.setdefault(o["op"], rec).update(rec)
    result["failures"] = [{"op": op, **rec} for op, rec in failures.items()]
    if tracer:
        problems += tracing.check_coverage(coverage, wl.active)
        if problems:
            result["coverage_problems"] = problems
        per_layer = tracing.median_metrics(layer)
        per_layer.update(setup_metrics)
        per_layer["trace.run_s"] = statistics.median(traced_times)
        per_layer["trace.overhead_s"] = (per_layer["trace.run_s"]
                                         - statistics.median(plain_times[1:]))
        result["per_layer"] = per_layer
    return result


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)
    result = run(args)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

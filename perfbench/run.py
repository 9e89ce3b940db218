"""cmalab benchmark: one workload per invocation.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see workloads.py and README.md): solve-c2, solve-c3,
eps-ladder, probe-suite.  Run from a checkout of the repository; the
package is imported from its src/ directory, nothing is installed.

The workload runs in a process of its own with one library call in
flight at a time; BLAS and OpenMP threads are capped at the number of
usable cores.  The process is started SETUP_SAMPLES times in all, each
time timed from process start to the end of its set-up, and setup_s is
the median; only the last start goes on to the timed passes.

With --trace 0 the result carries the end-to-end metrics, with --trace 1
the per-layer ones, by the names and units BENCHMARK.json declares.
Human-readable lines come first; the last stdout line is one JSON object
{"correct", "attempted", "failed", "metrics"}.
A full record of the run (environment, pass times, failures) is written
to perfbench/results/.  Exit status is 0 with a result, 2 when the
checkout has no src/cmalab, 3 when a worker fails, times out or a traced
span-coverage check fails.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
RESULTS = os.path.join(HERE, "results")

SETUP_SAMPLES = 3
DEADLINE_S = 170.0   # a run must end within 180 s

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


class BenchError(Exception):
    pass


def declared_metrics(trace):
    """(name, unit) of the metrics BENCHMARK.json declares for this mode."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return [(m["name"], m["unit"]) for m in spec["per_layer" if trace else "end_to_end"]]


def child_env():
    """The caller's environment with thread pools capped at the usable cores."""
    env = dict(os.environ)
    nproc = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        try:
            n = int(env.get(var, ""))
        except ValueError:
            n = 0
        env[var] = str(n if 1 <= n <= nproc else nproc)
    return env


def monotonic():
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def spawn(args, env, deadline, setup_only=False):
    t0 = monotonic()
    cmd = [sys.executable, WORKER, "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--t0", repr(t0)]
    if setup_only:
        cmd.append("--setup-only")
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, cwd=ROOT)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError("worker exceeded the run deadline")
    except BaseException:   # interrupted: never leave the worker running
        proc.kill()
        proc.wait()
        raise
    if proc.returncode != 0:
        raise BenchError(f"worker exited with status {proc.returncode}")
    lines = out.decode().strip().splitlines()
    if not lines:
        raise BenchError("worker printed no result")
    return json.loads(lines[-1])


def finite_or_none(x):
    return x if isinstance(x, (int, float)) and math.isfinite(x) else None


def report(args, res, setups):
    mode = "traced" if args.trace else "untraced"
    times = " ".join(f"{t:.3f}" for t in res["pass_times"])
    print(f"perfbench {args.workload} seed={args.seed} {mode}: "
          f"{len(res['pass_times'])} passes ({times} s), {len(setups)} set-ups")
    values = res["per_layer"] if args.trace else res
    metrics = {n: {"value": finite_or_none(values[n]), "unit": u}
               for n, u in declared_metrics(args.trace)}
    for name, m in metrics.items():
        print(f"  {name:<40} {m['value']!r:>24} {m['unit']}")
    for f in res["failures"]:
        print("  failed: " + ", ".join(f"{k}={v}" for k, v in f.items()))
    print("env " + json.dumps(res["env"], sort_keys=True))
    return metrics


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "cmalab", "__init__.py")):
        print(f"perfbench: no src/cmalab package under {ROOT}", file=sys.stderr)
        return 2
    env = child_env()
    deadline = monotonic() + DEADLINE_S
    try:
        setups = [spawn(args, env, deadline, setup_only=True)["setup_s"]
                  for _ in range(SETUP_SAMPLES - 1)]
        res = spawn(args, env, deadline)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 3
    if res.get("coverage_problems"):
        for p in res["coverage_problems"]:
            print(f"perfbench: span coverage: {p}", file=sys.stderr)
        return 3
    setups.append(res["setup_s"])
    res["setup_samples"] = setups
    res["setup_s"] = statistics.median(setups)

    metrics = report(args, res, setups)
    os.makedirs(RESULTS, exist_ok=True)
    path = os.path.join(RESULTS, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as f:
        json.dump(res, f, indent=1)
    print(json.dumps({"correct": res["correct"], "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

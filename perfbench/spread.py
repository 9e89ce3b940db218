"""Run-to-run spread of the end-to-end metrics, for choosing and checking bounds.

    python3 perfbench/spread.py --workloads solve-c2,eps-ladder --seeds 1-10 --seconds 25

Runs run.py once per workload and seed, one after another, and prints
for every end-to-end metric its median over the seeds and the distance
between the first and third quartiles as a share of that median (the
figure each metric's bound in BENCHMARK.json is compared against).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seeds_of(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", default="25")
    args = ap.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bounds = {m["name"]: m["bound"] for m in json.load(f)["end_to_end"]}
    worst = 0.0
    for wl in args.workloads.split(","):
        values = {}
        for seed in seeds_of(args.seeds):
            out = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", wl,
                 "--seed", str(seed), "--seconds", args.seconds, "--trace", "0"],
                cwd=ROOT, check=True, stdout=subprocess.PIPE, text=True).stdout
            res = json.loads(out.strip().splitlines()[-1])
            print(f"{wl} seed {seed}: " + " ".join(
                f"{k}={m['value']:.6g}" for k, m in res["metrics"].items()), flush=True)
            for k, m in res["metrics"].items():
                values.setdefault(k, []).append(m["value"])
        for k, vals in values.items():
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            share = (q3 - q1) / med
            if k != "setup_s":
                worst = max(worst, share / bounds[k])
            print(f"{wl:<12} {k:<12} median {med:<12.6g} spread {share:7.4f} "
                  f"bound {bounds[k]}")
    print(f"largest spread/bound (setup_s aside): {worst:.3f}")


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Steadiness of the benchmark: run one workload N times with N different
seeds and print, for each end-to-end metric, the median, the quartiles and
the quartile spread as a share of the median, next to the metric's bound in
BENCHMARK.json. With --other DIR it alternates runs of this checkout and of
the checkout at DIR (another build of the program), which one goes first
changing every pair, and prints both sides.

    python3 perfbench/steady.py --workload euclid --runs 10
    python3 perfbench/steady.py --workload text --runs 10 --other ../parent
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(root, workload, seed, seconds):
    cmd = [sys.executable, os.path.join(root, "perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    t0 = time.time()
    proc = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit("run failed (exit %d): %s" % (proc.returncode, " ".join(cmd)))
    res = json.loads(lines[-1])
    res["wall_s"] = time.time() - t0
    return res


def summary(name, runs, metrics):
    print("== %s: %d runs, attempted %s, failed %s, wall %.0f-%.0f s" % (
        name, len(runs), sorted({r["attempted"] for r in runs}), sorted({r["failed"] for r in runs}),
        min(r["wall_s"] for r in runs), max(r["wall_s"] for r in runs)))
    print("%-18s %12s %12s %12s %8s %7s" % ("metric", "q1", "median", "q3", "spread", "bound"))
    for m in metrics:
        vals = [r["metrics"][m["name"]]["value"] for r in runs]
        q1, med, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (vals[0],) * 3
        spread = (q3 - q1) / med
        flag = "" if spread < m["bound"] / 3 else "  <-- above bound/3"
        print("%-18s %12.5g %12.5g %12.5g %7.1f%% %6.0f%%%s" % (
            m["name"], q1, med, q3, 100 * spread, 100 * m["bound"], flag))


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed0", type=int, default=1, help="seeds are seed0 .. seed0+runs-1")
    ap.add_argument("--other", help="root of another checkout to alternate with")
    a = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    seconds, metrics = bench["run_seconds"], bench["end_to_end"]
    sides = [("this", ROOT)] + ([("other", os.path.abspath(a.other))] if a.other else [])
    runs = {name: [] for name, _ in sides}
    for i in range(a.runs):
        order = sides if i % 2 == 0 else sides[::-1]
        for name, root in order:
            r = run_once(root, a.workload, a.seed0 + i, seconds)
            runs[name].append(r)
            print("run %d %s seed %d: %.0f s, failed %d/%d: %s" % (
                i + 1, name, a.seed0 + i, r["wall_s"], r["failed"], r["attempted"],
                " ".join("%s=%.4g" % (m["name"], r["metrics"][m["name"]]["value"]) for m in metrics)),
                file=sys.stderr)
    for name, _ in sides:
        summary("%s %s" % (a.workload, name), runs[name], metrics)


if __name__ == "__main__":
    main()

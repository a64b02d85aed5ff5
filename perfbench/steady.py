"""Run each workload repeatedly in fresh processes and report how steady
its end-to-end metrics are.

    python3 perfbench/steady.py [--workload NAME ...] [--trace]

Each workload runs once per seed 1..10 for BENCHMARK.json's `run_seconds`.
For each metric of BENCHMARK.json's `end_to_end` list it prints the median,
the quartiles of `statistics.quantiles(values, n=4)` and the spread
(q3 - q1) / median, and whether that spread fits the metric's bound and a
third of it; it exits 1 unless every spread fits its bound.  It also
prints each workload's share of failed operations, which must not vary.
With `--trace` every seed also gets a traced run, and the tracing overhead
(1 - traced / untraced median `ops_per_s`) is printed per workload.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDS = range(1, 11)


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    wall = time.perf_counter() - t0
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    record = json.loads((HERE / "out" / f"{workload}-seed{seed}-trace{trace}.json").read_text())
    result["ops_per_s"] = record["end_to_end"]["ops_per_s"]["value"]
    result["wall_s"] = wall
    return result


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", action="append",
                    choices=[w["name"] for w in bench["workloads"]])
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args(argv)

    steady = True
    for workload in args.workload or [w["name"] for w in bench["workloads"]]:
        seconds = bench["run_seconds"]
        runs = [run_once(workload, s, seconds, 0) for s in SEEDS]
        shares = {r["failed"] / r["attempted"] for r in runs}
        walls = [r["wall_s"] for r in runs]
        print(f"\n{workload}: {len(runs)} runs, seeds {SEEDS.start}..{SEEDS.stop - 1}, "
              f"failed share {sorted(shares)}, wall time per run "
              f"{statistics.median(walls):.1f} s (max {max(walls):.1f} s)")
        steady &= len(shares) == 1
        print(f"{'metric':<16}{'median':>14}{'q1':>14}{'q3':>14}{'spread':>9}"
              f"{'bound':>7}  fits")
        for m in bench["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            fits = spread <= m["bound"]
            steady &= fits
            verdict = ("third" if spread < m["bound"] / 3 else "yes") if fits else "NO"
            print(f"{m['name']:<16}{med:>14.4f}{q1:>14.4f}{q3:>14.4f}"
                  f"{spread:>9.4f}{m['bound']:>7}  {verdict}")
        if args.trace:
            traced = [run_once(workload, s, seconds, 1)["ops_per_s"] for s in SEEDS]
            plain = statistics.median(r["ops_per_s"] for r in runs)
            print(f"tracing overhead: traced {statistics.median(traced):.2f} ops/s vs "
                  f"untraced {plain:.2f} ops/s = "
                  f"{1 - statistics.median(traced) / plain:.1%} slower")
    print("\nsteady" if steady else "\nNOT steady")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())

"""Steadiness self-check: two sets of runs of the same code must agree.

    python3 perfbench/steady.py

Run from the root of a checkout.  For each workload in BENCHMARK.json it
makes two sets of ten untraced runs of perfbench/run.py for BENCHMARK.json's
``run_seconds``, each with its own seed, and prints every end-to-end
metric's median and quartiles per set.  It flags a metric
whose spread (quartile distance over median) exceeds its bound in
BENCHMARK.json, and one whose median in the second set is worse than in the
first by more than the bound.  Exit status 1 if anything is flagged or a
run fails its output check.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path.cwd()
SETS = 2
RUNS = 10


def run_once(workload: str, seed: int, seconds: int) -> tuple[dict, dict, float]:
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    elapsed = time.perf_counter() - start
    if proc.returncode:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}: {proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    stamp = json.loads(next(l for l in lines if l.startswith("stamp "))[6:])
    return json.loads(lines[-1]), stamp, elapsed


def worse_by(first: float, later: float, better: str) -> float:
    change = (later - first) / first
    return change if better == "lower" else -change


def main() -> int:
    argparse.ArgumentParser(description=__doc__.splitlines()[0]).parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    names = [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    flagged = []
    for name in names:
        sets, durations = [], []
        for s in range(SETS):
            results = []
            for i in range(RUNS):
                result, stamp, elapsed = run_once(name, 1000 * s + i, seconds)
                durations.append(elapsed)
                if not result["correct"]:
                    flagged.append(f"{name}: seed {1000 * s + i} failed {result['failed']} items")
                results.append(result["metrics"])
            sets.append(results)
        print(f"stamp {json.dumps(stamp)}")
        first_median = {}
        print(f"{name}: {SETS} x {RUNS} runs of {seconds} s, longest run {max(durations):.1f} s")
        for metric, m in bounds.items():
            for s, results in enumerate(sets):
                values = [r[metric]["value"] for r in results]
                q1, med, q3 = statistics.quantiles(values, n=4)
                spread = (q3 - q1) / med
                note = ""
                if spread > m["bound"]:
                    note = f"  SPREAD > bound {m['bound']}"
                    flagged.append(f"{name} {metric} set {s}: spread {spread:.4f} > {m['bound']}")
                elif spread > m["bound"] / 3:
                    note = f"  (spread above a third of bound {m['bound']})"
                if s == 0:
                    first_median[metric] = med
                else:
                    drift = worse_by(first_median[metric], med, m["better"])
                    if drift > m["bound"]:
                        note += f"  WORSE than set 0 by {drift:.4f}"
                        flagged.append(f"{name} {metric} set {s}: worse by {drift:.4f} > {m['bound']}")
                print(
                    f"  {metric:12s} set {s}: median {med:<12.6g} q1 {q1:<12.6g} q3 {q3:<12.6g}"
                    f" spread {spread:.4f} {m['unit']}{note}"
                )
    for line in flagged:
        print(f"FLAGGED {line}")
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())

"""Run one benchmark workload against the qde sources of this checkout.

    python3 perfbench/run.py --workload sweep|large|curves --seed N --seconds S --trace 0|1

Run from the root of a checkout.  It repeats passes over the workload for
at most ``--seconds`` (at least one pass), each pass in a fresh worker
process (worker.py).  With ``--trace 0`` it also samples set-up time (a
fresh interpreter importing qde and building the CLI parser) before every
pass and prints the end-to-end metrics.  With ``--trace 1`` it alternates
untraced and traced passes and prints the per-layer metrics of the traced
ones.  Every item's output is checked.  The last line of stdout is one JSON
object with the keys "correct", "attempted", "failed" and "metrics".
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import curvegen

ROOT = Path.cwd()
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent
SETUP_SAMPLES_PER_PASS = 3
CHILD_TIMEOUT_S = 170
# The span self times of a traced pass add up to at most its item time,
# taken outside the tracer, and fall short by at most this share of it: the
# gap is the cost of entering and leaving each item span (about 0.5% on
# sweep, whose items are shortest).
SPAN_SUM_TOLERANCE = 0.02

# Set-up as a user pays it on every `qde` call: import the package and build
# the CLI parser (`qde --help` builds it and prints nothing else).
SETUP_CODE = """
import contextlib, io, time
start = time.perf_counter()
import qde, qde.cli
with contextlib.redirect_stdout(io.StringIO()):
    try:
        qde.cli.main(["--help"])
    except SystemExit:
        pass
print(repr(time.perf_counter() - start))
"""

# Per-layer time metric -> the span whose self time it reports.
LAYER_SPANS = {
    "quadratic.parse_theta.ms": "quadratic.parse_theta",
    "quadratic.cf_expand.ms": "quadratic.cf_expand",
    "quadratic.fundamental_unit.ms": "quadratic.fundamental_unit",
    "classgroup.class_number_maximal.ms": "classgroup.class_number_maximal",
    "classgroup.unit_index.ms": "classgroup.unit_index",
    "classgroup.class_number_order.ms": "classgroup.class_number_order",
    "classgroup.class_group_structure.ms": "classgroup.class_group_structure",
    "lattice.companion_tori.ms": "lattice.companion_tori",
    "lattice.endomorphism_ring.ms": "lattice.endomorphism_ring",
    "ktheory.crossed_product_k0.ms": "ktheory.crossed_product_k0",
    "predict.predict.ms": "predict.predict",
    "harness.parse_curves.csv.ms": "harness.parse_curves.csv",
    "harness.parse_curves.json.ms": "harness.parse_curves.json",
    "harness.validate.jobs1.ms": "harness.validate.jobs1",
    "harness.validate.jobs2.ms": "harness.validate.jobs2",
    "cli.emit.ms": "cli.main",  # time in cli.main outside every library span
    "trace.uncovered.ms": "item",  # the benchmark's own code inside traced items
}
LAYER_COUNTS = (
    "quadratic.cf_expand.period_len",
    "quadratic.fundamental_unit.unit_bits",
    "lattice.companion_tori.count",
    "classgroup.h_total",
    "harness.records",
    "harness.violations",
)


def stamp(numpy_version: str) -> dict:
    """Commit, Python, numpy and CPU count of this run."""
    commit = "unknown"
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        commit = head.read_text().strip()
        ref = ROOT / ".git" / commit.removeprefix("ref: ")
        if commit.startswith("ref: ") and ref.is_file():
            commit = ref.read_text().strip()
    return {
        "commit": commit,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
    }


def run_child(argv: list[str]) -> str:
    """Run a Python child from the checkout root; its last stdout line."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, *argv], cwd=ROOT, env=env, capture_output=True, text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode:
        raise RuntimeError(f"{' '.join(argv[:2])} exited {proc.returncode}: {proc.stderr[-3000:]}")
    return proc.stdout.strip().splitlines()[-1]


def setup_sample() -> float:
    return float(run_child(["-c", SETUP_CODE]))


def run_pass(args, workdir: Path, traced: bool) -> dict:
    return json.loads(
        run_child([
            str(HERE / "worker.py"), "--workload", args.workload, "--seed", str(args.seed),
            "--workdir", str(workdir), "--trace", str(int(traced)),
        ])
    )


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100 * len(ordered)) - 1)]


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(passes: list[dict], setup_times: list[float]) -> dict:
    latencies = [t for p in passes for t in p["latencies"]]
    walls = [p["wall"] for p in passes]
    return {
        "setup_s": metric(statistics.median(setup_times), "s"),
        "wall_s": metric(statistics.median(walls), "s"),
        "items_per_s": metric(sum(p["attempted"] for p in passes) / sum(walls), "1/s"),
        "item_ms_p50": metric(1000 * statistics.median(latencies), "ms"),
        "item_ms_p99": metric(1000 * percentile(latencies, 99), "ms"),
        "peak_rss_mb": metric(statistics.median(p["peak_rss_mb"] for p in passes), "MB"),
    }


def per_layer(untraced: list[dict], traced: list[dict]) -> dict:
    """Mean self time per span over the traced passes, sizes, and overhead.

    Checks that every span is reported and that the self times add up to
    the pass's item time measured outside the tracer: spans that overlap,
    are left open or are timed twice would break the sum.
    """
    n = len(traced)
    self_s: dict[str, float] = {}
    for p in traced:
        for name, seconds in p["self_s"].items():
            self_s[name] = self_s.get(name, 0.0) + seconds / n
    wall = sum(p["wall"] for p in traced) / n
    unreported = set(self_s) - set(LAYER_SPANS.values())
    if unreported:
        raise RuntimeError(f"spans without a metric: {sorted(unreported)}")
    covered = sum(self_s.values())
    if not -1e-9 * wall <= wall - covered <= SPAN_SUM_TOLERANCE * wall:
        raise RuntimeError(f"span self times add up to {covered} s, the traced items took {wall} s")
    counts = traced[-1]["counts"]
    metrics = {name: metric(1000 * self_s.get(span, 0.0), "ms") for name, span in LAYER_SPANS.items()}
    metrics.update({name: metric(counts.get(name, 0), "count") for name in LAYER_COUNTS})
    metrics["trace.wall.ms"] = metric(1000 * wall, "ms")
    overhead = statistics.median(p["wall"] for p in traced) / statistics.median(
        p["wall"] for p in untraced
    )
    metrics["trace.overhead_frac"] = metric(overhead - 1, "frac")
    return metrics


def report(args, passes: list[dict], metrics: dict, stamp_info: dict) -> None:
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    for p in passes:
        for line in p["failures"]:
            print(f"FAILED {line}", file=sys.stderr)
    print(f"stamp {json.dumps(stamp_info)}")
    print(
        f"workload {args.workload} seed {args.seed} trace {args.trace}: {len(passes)} passes "
        f"of {passes[0]['items']} items, latency per {passes[0]['latency_unit']}, "
        f"{sum(len(p['latencies']) for p in passes)} latency samples"
    )
    for name, m in metrics.items():
        print(f"  {name:40s} {m['value']:<14.6g} {m['unit']}")
    print(f"  {'failed_frac':40s} {failed / attempted:<14.6g} ({failed} of {attempted} items)")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("sweep", "large", "curves"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "qde" / "__init__.py").is_file():
        print(f"error: no qde sources under {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        if args.workload == "curves":
            curvegen.generate(args.seed, workdir)
        numpy_version = run_child(
            ["-c", "import sys, qde; print(getattr(sys.modules.get('numpy'), '__version__', 'none'))"]
        )  # also writes the bytecode caches before any timing
        untraced, traced, setup_times = [], [], []
        start = time.perf_counter()
        while True:
            if args.trace:
                untraced.append(run_pass(args, workdir, traced=False))
                traced.append(run_pass(args, workdir, traced=True))
            else:
                setup_times += [setup_sample() for _ in range(SETUP_SAMPLES_PER_PASS)]
                untraced.append(run_pass(args, workdir, traced=False))
            elapsed = time.perf_counter() - start
            if elapsed * (len(untraced) + 1) / len(untraced) > args.seconds:
                break  # another round of the same length would overrun --seconds
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    metrics = per_layer(untraced, traced) if args.trace else end_to_end(untraced, setup_times)
    report(args, untraced + traced, metrics, stamp(numpy_version))
    return 0


if __name__ == "__main__":
    sys.exit(main())

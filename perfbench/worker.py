"""One pass of a workload in a fresh process, printed as one JSON line.

    python3 perfbench/worker.py --workload W --seed N --workdir DIR --trace 0|1

run.py starts one worker per pass, from the root of a checkout, so that
every pass starts with empty caches and its own memory layout, and its peak
resident memory is its own.
"""

import argparse
import json
import resource
import sys
from pathlib import Path

sys.path.insert(0, str(Path.cwd() / "src"))

import workloads  # noqa: E402  (imports qde from src)

MAX_FAILURES_SHOWN = 20


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    workload = workloads.build(args.workload, args.seed, Path(args.workdir))
    result = workloads.run_pass(workload, traced=bool(args.trace))
    out = {
        "items": len(workload.items),
        "latency_unit": workload.latency_unit,
        "wall": result.wall,
        "latencies": result.latencies,
        "attempted": result.attempted,
        "failed": result.failed,
        "failures": result.failures[:MAX_FAILURES_SHOWN],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if result.tracer is not None:
        out["self_s"] = result.tracer.self_times()
        out["counts"] = result.tracer.count_totals()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())

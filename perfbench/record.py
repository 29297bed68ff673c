"""Record the expected output of every ``sweep`` and ``large`` item.

    PYTHONPATH=src python3 perfbench/record.py

Run from the root of a checkout at the commit whose outputs are the
reference; it rewrites perfbench/expected.json.  ``curves`` needs no record:
its expected report comes from the generator (curvegen.py).
"""

import json
import sys

import workloads


def main() -> int:
    recorded = {}
    for name in ("sweep", "large"):
        workload = workloads.build(name, 0, None, expected={})
        workloads.clear_caches()
        results = {}
        for item in workload.items:
            if workload.cold_items:
                workloads.clear_caches()
            results[workload.key(item)] = workload.run_item(workloads._untraced, item, False)
        recorded[name] = dict(sorted(results.items()))
        print(f"{name}: {len(results)} items", file=sys.stderr)
    with open(workloads.EXPECTED_PATH, "w", encoding="utf-8") as handle:
        json.dump(recorded, handle, separators=(",", ":"))
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

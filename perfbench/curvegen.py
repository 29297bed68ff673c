"""Seeded curve-data files for the ``curves`` workload, and their expected report.

The generator writes the same records as CSV and as JSON.  It knows which
records it made inconsistent, so it also writes the exact ``qde validate
--json`` output those files must produce (the report schema documented in
qde.schemas), without calling qde.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

RECORDS = 200_000
RANK_WEIGHTS = (45, 38, 13, 4)  # ranks 0..3
VIOLATION_SHARE = 0.24
COLUMNS = ("label", "rank", "sha_order", "torsion_order", "conductor")
CSV_NAME, JSON_NAME, EXPECTED_NAME = "curves.csv", "curves.json", "expected.out"


def _class_letters(n: int) -> str:
    letters = ""
    n += 1
    while n:
        n, r = divmod(n - 1, 26)
        letters = chr(ord("a") + r) + letters
    return letters


def generate(seed: int, directory: Path) -> None:
    """Write curves.csv, curves.json and expected.out under ``directory``.

    expected.out is the exact stdout of ``qde validate --json`` on either file.
    Labels are unique; torsion_order is blank in about 10% of rows and
    conductor in about 5%; about a quarter of the rows violate
    |Sha| = (1 + rank)**2.
    """
    rng = random.Random(seed)
    csv_path = directory / CSV_NAME
    json_path = directory / JSON_NAME
    by_rank = {rank: [0, 0] for rank in range(len(RANK_WEIGHTS))}
    violations = []
    with open(csv_path, "w", encoding="utf-8", newline="") as csv_out, open(
        json_path, "w", encoding="utf-8"
    ) as json_out:
        csv_out.write(f"# synthetic curve data, perfbench seed {seed}, {RECORDS} records\n")
        csv_out.write(",".join(COLUMNS) + "\n")
        json_out.write("[\n")
        for i in range(RECORDS):
            conductor = rng.randrange(11, 500_000)
            label = f"{conductor}{_class_letters(i)}{rng.randrange(1, 9)}"
            rank = rng.choices(range(len(RANK_WEIGHTS)), RANK_WEIGHTS)[0]
            predicted = (1 + rank) ** 2
            sha = predicted
            if rng.random() < VIOLATION_SHARE:
                sha = rng.choice([s * s for s in range(1, 7) if s * s != predicted])
                violations.append((label, rank, sha, predicted))
            torsion = rng.randrange(1, 17) if rng.random() >= 0.10 else None
            cond = conductor if rng.random() >= 0.05 else None
            by_rank[rank][0] += 1
            by_rank[rank][1] += sha == predicted
            cells = (label, rank, sha, torsion, cond)
            csv_out.write(",".join("" if v is None else str(v) for v in cells) + "\n")
            obj = {k: v for k, v in zip(COLUMNS, cells) if v is not None}
            json_out.write(("," if i else "") + json.dumps(obj) + "\n")
        json_out.write("]\n")
    violations.sort()
    report = {
        "total": RECORDS,
        "consistent": RECORDS - len(violations),
        "violations": len(violations),
        "violation_rows": [
            {"label": label, "rank": rank, "sha_order": sha, "predicted": predicted}
            for label, rank, sha, predicted in violations
        ],
        "by_rank": {
            str(rank): {"total": total, "consistent": consistent}
            for rank, (total, consistent) in sorted(by_rank.items())
            if total
        },
    }
    with open(directory / EXPECTED_NAME, "w", encoding="utf-8") as out:
        out.write(json.dumps(report, separators=(",", ":")) + "\n")

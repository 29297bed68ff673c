"""Curve-data ingestion and the square-rank consistency report.

A curve record carries an analytic rank and an analytic |Sha| as supplied by
the data source.  Validation marks a record consistent exactly when
|Sha| = (1 + rank)**2 and aggregates the outcome per rank.  Records are never
matched to any particular quadratic irrational.
"""

from __future__ import annotations

import csv
import json
import warnings
from dataclasses import dataclass

from .errors import CurveDataError

__all__ = ["CurveRecord", "ValidationReport", "parse_curves", "validate"]

_BASE_COLUMNS = ("label", "rank", "sha_order")
_OPTIONAL_COLUMNS = ("torsion_order", "conductor")


@dataclass(frozen=True)
class CurveRecord:
    """One data row: an opaque curve label with its analytic invariants.

    The label is a nonempty str and every count an int (a bool is refused).
    """

    label: str
    rank: int
    sha_order: int
    torsion_order: int | None = None
    conductor: int | None = None

    def __post_init__(self):
        if not isinstance(self.label, str):
            raise TypeError(f"label must be a string, got {self.label!r}")
        if not self.label:
            raise ValueError("label must be nonempty")
        if type(self.rank) is not int or type(self.sha_order) is not int:
            raise TypeError(
                f"rank and sha_order must be int, got {self.rank!r} and {self.sha_order!r}"
            )
        if self.rank < 0:
            raise ValueError(f"rank must be >= 0, got {self.rank}")
        if self.sha_order < 1:
            raise ValueError(f"sha_order must be >= 1, got {self.sha_order}")
        for name in _OPTIONAL_COLUMNS:
            value = getattr(self, name)
            if value is None:
                continue
            if type(value) is not int:
                raise TypeError(f"{name} must be int or None, got {value!r}")
            if value < 1:
                raise ValueError(f"{name} must be >= 1, got {value}")


@dataclass(frozen=True)
class ValidationReport:
    """Aggregate outcome of the |Sha| = (1 + rank)**2 check over a dataset."""

    total: int
    consistent: int
    violations: int
    violation_rows: tuple[tuple[str, int, int, int], ...]
    by_rank: tuple[tuple[int, int, int], ...]  # (rank, total, consistent)

    def __post_init__(self):
        if self.consistent + self.violations != self.total:
            raise ValueError("consistent + violations must equal total")

    def __str__(self) -> str:
        lines = [
            f"records: {self.total}, consistent: {self.consistent}, "
            f"violations: {self.violations}"
        ]
        for rank, total, consistent in self.by_rank:
            lines.append(f"  rank {rank}: {consistent}/{total} consistent")
        for label, rank, sha, predicted in self.violation_rows:
            lines.append(
                f"  violation: {label} has rank {rank}, |Sha| {sha}, predicted {predicted}"
            )
        return "\n".join(lines)

    def to_json_dict(self) -> dict:
        return {
            "total": self.total,
            "consistent": self.consistent,
            "violations": self.violations,
            "violation_rows": [
                {"label": label, "rank": rank, "sha_order": sha, "predicted": predicted}
                for label, rank, sha, predicted in self.violation_rows
            ],
            "by_rank": {
                str(rank): {"total": total, "consistent": consistent}
                for rank, total, consistent in self.by_rank
            },
        }


def _check_header(header: list[str], line_num: int) -> list[str]:
    valid = [
        list(_BASE_COLUMNS),
        list(_BASE_COLUMNS) + ["torsion_order"],
        list(_BASE_COLUMNS) + ["conductor"],
        list(_BASE_COLUMNS) + list(_OPTIONAL_COLUMNS),
    ]
    if header not in valid:
        raise CurveDataError(
            [
                f"line {line_num}: header {','.join(header)!r} is not one of the "
                f"accepted layouts label,rank,sha_order[,torsion_order][,conductor]"
            ]
        )
    return header


def _build_record(fields: dict, where: str, problems: list[str], seen: set[str]):
    label = fields.get("label", "")
    ints: dict[str, int | None] = {}
    for name in ("rank", "sha_order") + _OPTIONAL_COLUMNS:
        raw = fields.get(name)
        if raw is None or raw == "":
            ints[name] = None
            continue
        if isinstance(raw, int) and not isinstance(raw, bool):
            ints[name] = raw
            continue
        try:
            ints[name] = int(str(raw).strip(), 10)
        except ValueError:
            problems.append(f"{where}: column {name!r} is not a base-10 integer: {raw!r}")
            return None
    for name in ("rank", "sha_order"):
        if ints[name] is None:
            problems.append(f"{where}: column {name!r} is required")
            return None
    if not isinstance(label, str):
        problems.append(f"{where}: label must be a string, got {label!r}")
        return None
    if label in seen:
        problems.append(f"{where}: duplicate label {label!r}")
        return None
    try:
        record = CurveRecord(
            label=label,
            rank=ints["rank"],
            sha_order=ints["sha_order"],
            torsion_order=ints["torsion_order"],
            conductor=ints["conductor"],
        )
    except ValueError as exc:
        problems.append(f"{where}: {exc}")
        return None
    seen.add(label)
    return record


def _parse_csv(path: str) -> list[CurveRecord]:
    problems: list[str] = []
    records: list[CurveRecord] = []
    seen: set[str] = set()
    header: list[str] | None = None
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        for row in reader:
            if not row or row[0].lstrip().startswith("#"):
                continue  # provenance comments and blank lines
            cells = [cell.strip() for cell in row]
            if header is None:
                header = _check_header(cells, reader.line_num)
                continue
            where = f"line {reader.line_num}"
            if len(cells) != len(header):
                problems.append(
                    f"{where}: expected {len(header)} columns, found {len(cells)}"
                )
                continue
            record = _build_record(dict(zip(header, cells)), where, problems, seen)
            if record is not None:
                records.append(record)
    if header is None:
        raise CurveDataError(["line 1: missing header row"])
    if problems:
        raise CurveDataError(problems)
    if not records:
        warnings.warn(f"{path}: no data rows found", stacklevel=2)
    return records


def _parse_json(path: str) -> list[CurveRecord]:
    with open(path, encoding="utf-8") as handle:
        try:
            data = json.load(handle)
        except json.JSONDecodeError as exc:
            raise CurveDataError([f"line {exc.lineno}: {exc.msg}"]) from exc
    if not isinstance(data, list):
        raise CurveDataError(["row 0: top-level JSON value must be an array of objects"])
    problems: list[str] = []
    records: list[CurveRecord] = []
    seen: set[str] = set()
    allowed = set(_BASE_COLUMNS) | set(_OPTIONAL_COLUMNS)
    for i, item in enumerate(data):
        data[i] = None  # drop each parsed row once read, so rows and records never all coexist
        where = f"row {i}"
        if not isinstance(item, dict):
            problems.append(f"{where}: expected an object")
            continue
        unknown = set(item) - allowed
        if unknown:
            problems.append(f"{where}: unknown keys {sorted(unknown)}")
            continue
        record = _build_record(item, where, problems, seen)
        if record is not None:
            records.append(record)
    if problems:
        raise CurveDataError(problems)
    if not records:
        warnings.warn(f"{path}: no data rows found", stacklevel=2)
    return records


def parse_curves(path: str, format: str = "csv") -> list[CurveRecord]:
    """Read curve records from a CSV or JSON file.

    CSV needs a header row ``label,rank,sha_order[,torsion_order][,conductor]``;
    lines starting with ``#`` are treated as comments.  JSON is an array of
    objects with the same keys.  All rows must parse; otherwise a
    CurveDataError carrying every line-numbered problem is raised.
    """
    if format == "csv":
        return _parse_csv(path)
    if format == "json":
        return _parse_json(path)
    raise ValueError(f"unknown format {format!r}, expected 'csv' or 'json'")


def validate(records, jobs: int = 1) -> ValidationReport:
    """Mark each record consistent iff sha_order = (1 + rank)**2 and aggregate.

    The check is one comparison per record and always runs serially; jobs
    (at least 1) is accepted for compatibility and does not change the report.
    """
    records = list(records)
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    by_rank: dict[int, list[int]] = {}
    violation_rows = []
    for r in records:
        stats = by_rank.setdefault(r.rank, [0, 0])
        stats[0] += 1
        predicted = (1 + r.rank) ** 2
        if r.sha_order == predicted:
            stats[1] += 1
        else:
            violation_rows.append((r.label, r.rank, r.sha_order, predicted))
    violation_rows.sort()
    return ValidationReport(
        total=len(records),
        consistent=len(records) - len(violation_rows),
        violations=len(violation_rows),
        violation_rows=tuple(violation_rows),
        by_rank=tuple((rank, t, c) for rank, (t, c) in sorted(by_rank.items())),
    )

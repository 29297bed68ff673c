"""Curve-data ingestion and the square-rank consistency report.

A curve record carries an analytic rank and an analytic |Sha| as supplied by
the data source.  Validation marks a record consistent exactly when
|Sha| = (1 + rank)**2 and aggregates the outcome per rank.  Records are never
matched to any particular quadratic irrational.

`parse_curves` is the one loop that turns rows into records: a per-format
reader (`_csv_rows`, `_json_rows`) yields each row with its line or row
number, `_build_record` checks it, and every bad row's problem is collected
before one CurveDataError is raised.  A UTF-8 byte-order mark is accepted in
either format, and the warning for a file without data rows names the line
that called `parse_curves`.
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


def _build_record(fields: dict, seen: set[str]) -> CurveRecord:
    """The record of one row; a bad row raises ValueError naming its problem."""
    label = fields.get("label", "")
    ints: dict[str, int | None] = {}
    for name in ("rank", "sha_order") + _OPTIONAL_COLUMNS:
        raw = fields.get(name)
        if raw is None or raw == "":
            ints[name] = None
        elif isinstance(raw, int) and not isinstance(raw, bool):
            ints[name] = raw
        else:
            text = str(raw).strip()
            try:
                # int() alone would also take digit-group underscores and non-ASCII digits
                if not text.isascii() or "_" in text:
                    raise ValueError
                ints[name] = int(text, 10)
            except ValueError:
                raise ValueError(f"column {name!r} is not a base-10 integer: {raw!r}") from None
    for name in ("rank", "sha_order"):
        if ints[name] is None:
            raise ValueError(f"column {name!r} is required")
    if not isinstance(label, str):
        raise ValueError(f"label must be a string, got {label!r}")
    if label in seen:
        raise ValueError(f"duplicate label {label!r}")
    record = CurveRecord(label, **ints)
    seen.add(label)
    return record


def _csv_rows(handle):
    """(where, fields) per data line; a ValueError stands in for a malformed row."""
    reader = csv.reader(handle)
    header: list[str] | None = None
    for row in reader:
        if not row or row[0].lstrip().startswith("#"):
            continue  # provenance comments and blank lines
        cells = [cell.strip() for cell in row]
        if header is None:
            header = _check_header(cells, reader.line_num)
        elif len(cells) != len(header):
            yield f"line {reader.line_num}", ValueError(
                f"expected {len(header)} columns, found {len(cells)}"
            )
        else:
            yield f"line {reader.line_num}", dict(zip(header, cells))
    if header is None:
        raise CurveDataError(["line 1: missing header row"])


def _json_rows(handle):
    """(where, fields) per array element; a ValueError stands in for a malformed row."""
    try:
        data = json.load(handle)
    except json.JSONDecodeError as exc:
        raise CurveDataError([f"line {exc.lineno}: {exc.msg}"]) from exc
    if not isinstance(data, list):
        raise CurveDataError(["row 0: top-level JSON value must be an array of objects"])
    allowed = set(_BASE_COLUMNS) | set(_OPTIONAL_COLUMNS)
    for i, item in enumerate(data):
        data[i] = None  # drop each parsed row once read, so rows and records never all coexist
        if not isinstance(item, dict):
            item = ValueError("expected an object")
        elif unknown := set(item) - allowed:
            item = ValueError(f"unknown keys {sorted(unknown)}")
        yield f"row {i}", item


def parse_curves(path: str, format: str = "csv") -> list[CurveRecord]:
    """Read curve records from a CSV or JSON file.

    CSV needs a header row ``label,rank,sha_order[,torsion_order][,conductor]``;
    lines starting with ``#`` are treated as comments.  JSON is an array of
    objects with the same keys.  Either file may start with a UTF-8 byte-order
    mark.  Both formats feed one loop that builds the records, so all rows
    must parse; otherwise a CurveDataError carrying every line-numbered
    problem is raised.  A file with no data rows warns at the caller's line.
    """
    rows = {"csv": _csv_rows, "json": _json_rows}.get(format)
    if rows is None:
        raise ValueError(f"unknown format {format!r}, expected 'csv' or 'json'")
    problems: list[str] = []
    records: list[CurveRecord] = []
    seen: set[str] = set()
    # csv wants newline=""; JSON keeps universal newlines for its error line numbers
    newline = "" if format == "csv" else None
    with open(path, newline=newline, encoding="utf-8-sig") as handle:
        for where, fields in rows(handle):
            try:
                if isinstance(fields, ValueError):
                    raise fields
                records.append(_build_record(fields, seen))
            except ValueError as exc:
                problems.append(f"{where}: {exc}")
    if problems:
        raise CurveDataError(problems)
    if not records:
        warnings.warn(f"{path}: no data rows found", stacklevel=2)
    return records


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

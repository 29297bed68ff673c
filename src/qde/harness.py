"""Curve-data ingestion and the square-rank consistency report.

A curve record carries an analytic rank and an analytic |Sha| as supplied by
the data source.  Validation marks a record consistent exactly when
|Sha| = (1 + rank)**2 and aggregates the outcome per rank.  Records are never
matched to any particular quadratic irrational.

`parse_curves` reads a file once, in chunks of rows.  One reader per format
(`_csv_chunks`, `_json_chunks`) yields each chunk with the line or row number
of every row.  A bulk check per format (`_csv_chunk`, `_json_chunk`) takes a
clean chunk column by column with builtins and builds its records in one
call; `CurveRecord` makes every type and range check.  The rows of a chunk the
bulk check refuses go one by one to `_build_record`, which names each bad
row's problem, and the next chunk goes back to the bulk check.  Every problem
is collected before one CurveDataError is raised.  Row by row is the
reference: the bulk check takes only rows `_build_record` accepts, and builds
the same records.  A UTF-8 byte-order mark is accepted in either format, and
the warning for a file without data rows names the line that called
`parse_curves`.

Both `parse_curves` and `validate` set two process-wide switches while they
run, and set them back afterwards.  They pause the cyclic collector while
they build objects: those hold only str, int and None, so they make no
cycles.  And they cap int conversion at 4,300 digits, whatever the caller's
limit, so a long count is refused at once instead of converted in time
quadratic in its length.
"""

from __future__ import annotations

import csv
import gc
import json
import sys
import warnings
from contextlib import contextmanager
from dataclasses import dataclass
from functools import partial
from itertools import islice, repeat

from .errors import CurveDataError
from .quadratic import _MAX_DIGITS

__all__ = ["CurveRecord", "ValidationReport", "parse_curves", "validate"]

_BASE_COLUMNS = ("label", "rank", "sha_order")
_OPTIONAL_COLUMNS = ("torsion_order", "conductor")
_COLUMNS = _BASE_COLUMNS + _OPTIONAL_COLUMNS
_COUNT_COLUMNS = _COLUMNS[1:]
_LAYOUTS = [
    list(_BASE_COLUMNS),
    list(_BASE_COLUMNS) + ["torsion_order"],
    list(_BASE_COLUMNS) + ["conductor"],
    list(_BASE_COLUMNS) + list(_OPTIONAL_COLUMNS),
]
_CHUNK_ROWS = 8192  # rows read and checked at once


@dataclass(frozen=True, slots=True)
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


@contextmanager
def _process_switches():
    """Pause the cyclic collector and cap int conversion at _MAX_DIGITS digits
    for the block; restore the caller's digit limit, and the collector only if
    it ran before."""
    enabled = gc.isenabled()
    digits = getattr(sys, "get_int_max_str_digits", lambda: None)()
    gc.disable()
    if digits is not None:
        sys.set_int_max_str_digits(_MAX_DIGITS)
    try:
        yield
    finally:
        if digits is not None:
            sys.set_int_max_str_digits(digits)
        if enabled:
            gc.enable()


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


class _LongJsonInt:
    """A JSON integer literal past the digit cap: `_build_record` refuses it
    with its row, as it refuses such a count in CSV."""

    def __init__(self, text: str):
        self.text = text

    def __repr__(self) -> str:
        return self.text


def _json_int(text: str):
    try:
        return int(text)
    except ValueError:
        return _LongJsonInt(text)


def _decode_json(text: str, **options):
    try:
        return json.loads(text, **options)
    except json.JSONDecodeError as exc:
        raise CurveDataError([f"line {exc.lineno}: {exc.msg}"]) from exc
    except RecursionError:
        raise CurveDataError(["row 0: top-level JSON value is nested too deeply to decode"]) from None


def _load_json(handle) -> list:
    """The top-level array of a JSON curve file."""
    text = handle.read()
    try:
        data = _decode_json(text)
    except ValueError:  # an integer literal past the digit cap; _build_record names its row
        data = _decode_json(text, parse_int=_json_int)
    if not isinstance(data, list):
        raise CurveDataError(["row 0: top-level JSON value must be an array of objects"])
    return data


def _csv_header(reader) -> list[str]:
    """The header of a CSV curve file: its first line that is neither blank
    nor a comment."""
    try:
        for row in reader:
            if row and not row[0].lstrip().startswith("#"):
                break
        else:
            raise CurveDataError(["line 1: missing header row"])
    except csv.Error as exc:
        raise CurveDataError([f"line {reader.line_num}: {exc}"]) from None
    header = [cell.strip() for cell in row]
    if header not in _LAYOUTS:
        raise CurveDataError(
            [
                f"line {reader.line_num}: header {','.join(header)!r} is not one of the "
                f"accepted layouts label,rank,sha_order[,torsion_order][,conductor]"
            ]
        )
    return header


def _csv_chunks(reader):
    """(line numbers, rows) for each chunk of CSV rows past the header.

    A row the reader cannot read, like one with a cell past
    csv.field_size_limit(), ends the file: a ValueError stands in for it, and
    the bulk check refuses its chunk (a ValueError has no len).
    """
    while True:
        numbers, rows = [], []
        try:
            for row in islice(reader, _CHUNK_ROWS):
                rows.append(row)
                numbers.append(reader.line_num)
        except csv.Error as exc:
            yield numbers + [reader.line_num], rows + [ValueError(str(exc))]
            return
        if not rows:
            return
        yield numbers, rows


def _csv_fields(header: list[str], row) -> dict | None:
    """The fields of one CSV row, or None for a blank or comment line; a bad
    row raises ValueError."""
    if isinstance(row, ValueError):
        raise row
    if not row or row[0].lstrip().startswith("#"):
        return None  # provenance comments and blank lines
    cells = [cell.strip() for cell in row]
    if len(cells) != len(header):
        raise ValueError(f"expected {len(header)} columns, found {len(cells)}")
    return dict(zip(header, cells))


def _csv_counts(cells: list[str], name: str) -> list[int | None] | None:
    """The counts of one stripped CSV column, or None unless every cell is plain
    ASCII digits (or blank, where the column is optional)."""
    text = "".join(cells)
    if text and not (text.isascii() and text.isdigit()):
        return None
    if all(cells):
        return list(map(int, cells))
    if name in _BASE_COLUMNS:
        return None
    return [int(cell) if cell else None for cell in cells]


def _csv_chunk(header: list[str], rows: list, seen: set[str]) -> list[CurveRecord] | None:
    """The records of a clean chunk of CSV rows, or None.

    Clean: rows of the header's width, blank lines aside; labels unique here
    and new to seen, none starting with ``#``; counts of plain ASCII digits.
    CurveRecord refuses an empty label or a zero count, and int() a count past
    the digit cap, with a ValueError.  The chunk's labels join seen only once
    its records are built.
    """
    rows = list(filter(None, rows))  # blank lines
    if set(map(len, rows)) != {len(header)}:
        return None
    cells = {name: list(map(str.strip, column)) for name, column in zip(header, zip(*rows))}
    labels = cells.pop("label")
    new = set(labels)
    if len(new) != len(labels) or not seen.isdisjoint(new) or any(
        map(str.startswith, labels, repeat("#"))
    ):
        return None
    counts = []
    for name in _COUNT_COLUMNS:
        column = _csv_counts(cells[name], name) if name in cells else repeat(None)
        if column is None:
            return None
        counts.append(column)
    records = list(map(CurveRecord, labels, *counts))
    seen.update(new)
    return records


def _json_chunks(data: list):
    """(row numbers, rows) for each chunk of a JSON array."""
    for start in range(0, len(data), _CHUNK_ROWS):
        stop = start + _CHUNK_ROWS
        rows = data[start:stop]
        data[start:stop] = repeat(None, len(rows))  # the rows go as their records come
        yield range(start, stop), rows


def _json_fields(item) -> dict:
    """The fields of one JSON row; a row that is not an object of known keys
    raises ValueError."""
    if not isinstance(item, dict):
        raise ValueError("expected an object")
    if unknown := set(item).difference(_COLUMNS):
        raise ValueError(f"unknown keys {sorted(unknown)}")
    return item


def _json_chunk(rows: list, seen: set[str]) -> list[CurveRecord] | None:
    """The records of a clean chunk of JSON rows, or None.

    Clean: objects with known keys only, whose values CurveRecord takes (it
    raises TypeError or ValueError on any other), with labels unique here and
    new to seen.  The chunk's labels join seen once its records are built.
    """
    if set(map(type, rows)) != {dict} or not set().union(*rows) <= set(_COLUMNS):
        return None
    labels = list(map(dict.get, rows, repeat("label")))
    columns = (map(dict.get, rows, repeat(name)) for name in _COUNT_COLUMNS)
    records = list(map(CurveRecord, labels, *columns))
    new = set(labels)  # every label is a str once its record is built
    if len(new) != len(labels) or not seen.isdisjoint(new):
        return None
    seen.update(new)
    return records


def _not_utf8(path: str, exc: UnicodeDecodeError) -> CurveDataError:
    """The error for a file that is not UTF-8 text, naming the line of its
    first undecodable byte (the reader's error counts bytes from the start of
    the block it was decoding, not of the file)."""
    with open(path, "rb") as raw:
        data = raw.read()
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as whole:
        exc = whole
    line = data.count(b"\n", 0, exc.start) + 1
    return CurveDataError([f"line {line}: not UTF-8 text ({exc.reason})"])


def parse_curves(path: str, format: str = "csv") -> list[CurveRecord]:
    """Read curve records from a CSV or JSON file.

    CSV needs a header row ``label,rank,sha_order[,torsion_order][,conductor]``;
    lines starting with ``#`` are treated as comments.  JSON is an array of
    objects with the same keys.  Either file may start with a UTF-8 byte-order
    mark.  The file is read once, in chunks of rows: a bulk check takes each
    clean chunk, and the rows of any other chunk are checked one by one.  All
    rows must parse; otherwise a CurveDataError carrying every line-numbered
    problem is raised.  A count of more than 4,300 digits is refused, whatever
    the caller's int digit limit.  A file with no data rows warns at the
    caller's line.
    """
    if format not in ("csv", "json"):
        raise ValueError(f"unknown format {format!r}, expected 'csv' or 'json'")
    # csv wants newline=""; JSON keeps universal newlines for its error line numbers
    newline = "" if format == "csv" else None
    records: list[CurveRecord] = []
    seen: set[str] = set()
    problems: list[str] = []
    try:
        with _process_switches(), open(path, newline=newline, encoding="utf-8-sig") as handle:
            if format == "csv":
                reader = csv.reader(handle)
                header = _csv_header(reader)
                chunks, where = _csv_chunks(reader), "line"
                bulk, fields_of = partial(_csv_chunk, header), partial(_csv_fields, header)
            else:
                chunks, where = _json_chunks(_load_json(handle)), "row"
                bulk, fields_of = _json_chunk, _json_fields
            for numbers, rows in chunks:
                try:  # CurveRecord and int() refuse a bad value, len() the reader's error
                    new = bulk(rows, seen)
                except (TypeError, ValueError):
                    new = None
                if new is not None:
                    records.extend(new)
                    continue
                for number, row in zip(numbers, rows):
                    try:
                        if (fields := fields_of(row)) is not None:
                            records.append(_build_record(fields, seen))
                    except ValueError as exc:
                        problems.append(f"{where} {number}: {exc}")
    except UnicodeDecodeError as exc:
        raise _not_utf8(path, exc) from None
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
    with _process_switches():
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

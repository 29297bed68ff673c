"""Curve-data ingestion and the square-rank consistency report.

A curve record carries an analytic rank and an analytic |Sha| as supplied by
the data source.  Validation marks a record consistent exactly when
|Sha| = (1 + rank)**2 and aggregates the outcome per rank.  Records are never
matched to any particular quadratic irrational.

`parse_curves` reads a file in two stages.  A bulk check per format
(`_csv_bulk`, `_json_bulk`) reads a clean file in chunks of rows, checks each
chunk column by column with builtins and builds its records in one call.
At the first chunk the bulk check refuses, the row loop takes over with the
records and labels read so far: a per-format reader (`_csv_rows`,
`_json_rows`) yields each row from there with its line or row number,
`_build_record` checks it, and every bad row's problem is collected before
one CurveDataError is raised.  The row loop is the reference: the bulk check
takes only rows the loop accepts, and builds the same records.  A UTF-8
byte-order mark is accepted in either format, and the warning for a file
without data rows names the line that called `parse_curves`.

Both `parse_curves` and `validate` pause the cyclic collector while they
build objects: those hold only str, int and None, so they make no cycles.
"""

from __future__ import annotations

import csv
import gc
import json
import warnings
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import islice, repeat

from .errors import CurveDataError

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
_CHUNK_ROWS = 8192  # rows the bulk check holds at once


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
def _collector_paused():
    """Pause the cyclic collector for the block; restore it only if it ran before."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def _check_header(header: list[str], line_num: int) -> list[str]:
    if header not in _LAYOUTS:
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


class _LongJsonInt:
    """A JSON integer literal past ``sys.get_int_max_str_digits()``: the row
    loop refuses it with its row, as it refuses such a count in CSV."""

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
    except ValueError:  # an integer literal past the digit limit; the row loop names its row
        data = _decode_json(text, parse_int=_json_int)
    if not isinstance(data, list):
        raise CurveDataError(["row 0: top-level JSON value must be an array of objects"])
    return data


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


def _csv_chunk(header: list[str], rows: list[list[str]], seen: set[str]) -> list[CurveRecord] | None:
    """The records of a clean chunk of CSV rows, or None.

    Clean: rows of the header's width; labels unique here and new to seen,
    none starting with ``#``; counts of plain ASCII digits.  CurveRecord
    refuses an empty label or a zero count with a ValueError.  The chunk's
    labels join seen only once its records are built.
    """
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


def _csv_bulk(handle, records: list[CurveRecord], seen: set[str]) -> int | None:
    """Read a CSV file's clean chunks of rows into records, and their labels into seen.

    Returns None once the whole file is read.  Otherwise returns the number of
    the last line before the first chunk that is not clean (0 before a known
    header), and the row loop reads the file past it.  A ValueError, like an
    int past the digit limit, or a csv.Error also ends the bulk check there.
    Only one chunk of cells is held at a time.
    """
    reader = csv.reader(handle)
    done = 0
    try:
        for row in reader:
            if row and not row[0].lstrip().startswith("#"):
                break
        else:
            return 0
        header = [cell.strip() for cell in row]
        if header not in _LAYOUTS:
            return 0
        while True:
            done = reader.line_num
            chunk = list(islice(reader, _CHUNK_ROWS))
            if not chunk:
                return None
            rows = list(filter(None, chunk))  # blank lines
            if rows:
                new = _csv_chunk(header, rows, seen)
                if new is None:
                    return done
                records.extend(new)
    except (ValueError, csv.Error):
        return done


def _json_chunk(rows: list, seen: set[str]) -> list[CurveRecord] | None:
    """The records of a clean chunk of JSON rows, or None.

    Clean: objects with known keys only; nonempty str labels, unique here and
    new to seen; int counts (no bool) within their bounds, the optional ones
    int or null.  The chunk's labels join seen once its records are built.
    """
    if set(map(type, rows)) != {dict} or not set().union(*rows) <= set(_COLUMNS):
        return None
    labels = list(map(dict.get, rows, repeat("label")))
    if set(map(type, labels)) != {str} or not all(labels):
        return None
    new = set(labels)
    if len(new) != len(labels) or not seen.isdisjoint(new):
        return None
    counts = []
    for name in _COUNT_COLUMNS:
        column = list(map(dict.get, rows, repeat(name)))
        types = set(map(type, column))
        floor = 0 if name == "rank" else 1
        if name in _BASE_COLUMNS:
            clean = types == {int} and min(column) >= floor
        else:  # None is a missing count; a set of the values could outgrow the file's text
            clean = types <= {int, type(None)} and 0 not in column
            clean = clean and min(filter(None, column), default=floor) >= floor
        if not clean:
            return None
        counts.append(column)
    records = list(map(CurveRecord, labels, *counts))
    seen.update(new)
    return records


def _json_bulk(data: list, records: list[CurveRecord], seen: set[str]) -> int | None:
    """Read a JSON array's clean chunks of rows into records, and their labels into seen.

    Returns None once the whole array is read, or else the index of the first
    row of the first chunk that is not clean: the row loop reads from there.
    """
    for start in range(0, len(data), _CHUNK_ROWS):
        stop = start + _CHUNK_ROWS
        new = _json_chunk(data[start:stop], seen)
        if new is None:
            return start
        data[start:stop] = repeat(None, len(new))  # the rows go as their records come
        records.extend(new)
    return None


def _csv_rows(handle, done: int):
    """(where, fields) per data line past line ``done``; a ValueError stands in
    for a malformed row."""
    reader = csv.reader(handle)
    header: list[str] | None = None
    try:
        for row in reader:
            if not row or row[0].lstrip().startswith("#"):
                continue  # provenance comments and blank lines
            if header is not None and reader.line_num <= done:
                continue  # read by the bulk check
            cells = [cell.strip() for cell in row]
            if header is None:
                header = _check_header(cells, reader.line_num)
            elif len(cells) != len(header):
                yield f"line {reader.line_num}", ValueError(
                    f"expected {len(header)} columns, found {len(cells)}"
                )
            else:
                yield f"line {reader.line_num}", dict(zip(header, cells))
    except csv.Error as exc:  # e.g. a cell past csv.field_size_limit(); reading stops here
        yield f"line {reader.line_num}", ValueError(str(exc))
        return
    if header is None:
        raise CurveDataError(["line 1: missing header row"])


def _json_rows(data: list, done: int):
    """(where, fields) per array element from index ``done``; a ValueError
    stands in for a malformed row."""
    allowed = set(_COLUMNS)
    for i in range(done, len(data)):
        item, data[i] = data[i], None  # drop each row once read, so rows and records never all coexist
        if not isinstance(item, dict):
            item = ValueError("expected an object")
        elif unknown := set(item) - allowed:
            item = ValueError(f"unknown keys {sorted(unknown)}")
        yield f"row {i}", item


def _row_loop(rows, records: list[CurveRecord], seen: set[str]) -> None:
    """Add the record of every row to records, or raise one CurveDataError
    naming every bad row."""
    problems: list[str] = []
    for where, fields in rows:
        try:
            if isinstance(fields, ValueError):
                raise fields
            records.append(_build_record(fields, seen))
        except ValueError as exc:
            problems.append(f"{where}: {exc}")
    if problems:
        raise CurveDataError(problems)


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
    mark.  A bulk check reads clean chunks of rows; from the first other
    chunk on, one row loop reads the file, so all rows must parse; otherwise
    a CurveDataError carrying every line-numbered problem is raised.  A file with no data rows warns at
    the caller's line.
    """
    if format not in ("csv", "json"):
        raise ValueError(f"unknown format {format!r}, expected 'csv' or 'json'")
    # csv wants newline=""; JSON keeps universal newlines for its error line numbers
    newline = "" if format == "csv" else None
    records: list[CurveRecord] = []
    seen: set[str] = set()
    try:
        with _collector_paused(), open(path, newline=newline, encoding="utf-8-sig") as handle:
            if format == "csv":
                done = _csv_bulk(handle, records, seen)
                if done is not None:
                    handle.seek(0)
                    _row_loop(_csv_rows(handle, done), records, seen)
            else:
                data = _load_json(handle)
                done = _json_bulk(data, records, seen)
                if done is not None:
                    _row_loop(_json_rows(data, done), records, seen)
    except UnicodeDecodeError as exc:
        raise _not_utf8(path, exc) from None
    if not records:
        warnings.warn(f"{path}: no data rows found", stacklevel=2)
    return records


def validate(records, jobs: int = 1) -> ValidationReport:
    """Mark each record consistent iff sha_order = (1 + rank)**2 and aggregate.

    The check is one comparison per record and always runs serially; jobs
    (at least 1) is accepted for compatibility and does not change the report.
    """
    with _collector_paused():
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

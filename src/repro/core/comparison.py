"""Result comparison: validating actual query results against expectations.

The comparison rules implement both the SLT conventions (value-wise results,
``I``/``R``/``T`` type strings, ``rowsort``/``valuesort`` sort modes, hashed
results, NULL rendered as ``NULL`` and the empty string as ``(empty)``) and
row-wise comparison for the DuckDB / MySQL / PostgreSQL formats.

Two float-comparison modes exist because of the paper's Listing 10 finding:
SQuaLity demands exact matches (``float_tolerance=0``), whereas DuckDB's own
runner accepts a 1% relative deviation.  The ablation benchmark quantifies the
difference.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Any

from repro.adapters.base import ExecutionOutcome
from repro.core.records import QueryRecord, ResultFormat, SortMode
from repro.perf import cache as perf_cache


@dataclass
class ComparisonResult:
    """Outcome of comparing one query's actual result against its expectation."""

    matches: bool
    reason: str = ""
    expected_preview: list[str] = field(default_factory=list)
    actual_preview: list[str] = field(default_factory=list)
    mismatch_kind: str = ""  # "row_count" | "value" | "hash" | "format"


def normalize_value(value: Any, type_code: str = "T") -> str:
    """Render one actual result value the way SQuaLity's connector-based runner does.

    Integer-typed (``I``) columns render integers as integers — but a *float*
    coming back from the connector stays a float (``-31.0``), exactly like the
    Python connectors the paper uses.  This is deliberate: it is what makes
    every ``/`` query of SLT fail on DuckDB/MySQL (the paper's 104K semantic
    failures), because those dialects return decimal results for integer
    division.  ``R`` columns are formatted to three decimals (the SLT
    convention) and empty text renders as ``(empty)``.
    """
    if value is None:
        return "NULL"
    if isinstance(value, bool):
        value = int(value)
    if type_code == "I":
        if isinstance(value, int):
            return str(value)
        if isinstance(value, float):
            return repr(value)
        try:
            return str(int(str(value)))
        except (TypeError, ValueError):
            return str(value)
    if type_code == "R":
        try:
            return f"{float(value):.3f}"
        except (TypeError, ValueError):
            return str(value)
    if isinstance(value, float):
        return repr(value)
    text = str(value)
    if text == "":
        return "(empty)"
    return text


def _actual_values(outcome: ExecutionOutcome, type_string: str) -> list[list[str]]:
    """Canonicalise the actual rows using the record's type string.

    The per-position type code is resolved once per row *shape* instead of per
    cell (the seed re-indexed ``type_string`` with two bounds checks for every
    value of every row).
    """
    state = outcome.__dict__
    normalize = normalize_value
    default_code = type_string[-1] if type_string else "T"
    typed = len(type_string)
    if "rows" not in state:
        # the codec's columnar backing state: normalise whole columns (one
        # type code per column), then zip into rows — no reassembly before
        count = state.get("_row_count")
        if count is not None:
            columns = state.get("_row_columns")
            if columns is None or not count:
                return [[] for _ in range(count)]
            normalized_columns = [
                [normalize(value, type_string[position] if position < typed else default_code) for value in column]
                for position, column in enumerate(columns)
            ]
            return [list(row) for row in zip(*normalized_columns)]
    rows = outcome.rows
    if not rows:
        return []
    codes: list[str] = []
    normalized_rows: list[list[str]] = []
    for row in rows:
        if len(row) != len(codes):
            codes = [type_string[position] if position < typed else default_code for position in range(len(row))]
        normalized_rows.append([normalize(value, code) for value, code in zip(row, codes)])
    return normalized_rows


def _expected_values_str(record: QueryRecord) -> list[str]:
    """``str()`` of every expected value, memoized on the record.

    Every record is compared once per host per campaign flavour (8+ times in
    a full matrix), and the expectation never changes after parsing.  The memo
    rides on the record object itself (a non-field attribute: invisible to
    dataclass equality, ``canonical_bytes``, and the store keys) and is
    bypassed — not just cold — when caching is globally disabled, keeping the
    seed-equivalent path honest.
    """
    if not perf_cache.caching_enabled():
        return [str(value) for value in record.expected_values]
    cached = getattr(record, "_expected_values_str", None)
    if cached is None:
        cached = [str(value) for value in record.expected_values]
        record._expected_values_str = cached
    return cached


def _expected_rows_str(record: QueryRecord, rowsort: bool) -> list[list[str]]:
    """Stringified (optionally row-sorted) expected rows, memoized per record."""
    if not perf_cache.caching_enabled():
        rows = [[str(cell) for cell in row] for row in record.expected_rows]
        return sorted(rows) if rowsort else rows
    attribute = "_expected_rows_sorted" if rowsort else "_expected_rows_str"
    cached = getattr(record, attribute, None)
    if cached is None:
        cached = [[str(cell) for cell in row] for row in record.expected_rows]
        if rowsort:
            cached = sorted(cached)
        setattr(record, attribute, cached)
    return cached


def _apply_sort(rows: list[list[str]], sort_mode: SortMode) -> list[str]:
    """Flatten rows to a value list after applying the SLT sort mode."""
    if sort_mode is SortMode.ROWSORT:
        rows = sorted(rows, key=lambda row: [str(cell) for cell in row])
        return [value for row in rows for value in row]
    values = [value for row in rows for value in row]
    if sort_mode is SortMode.VALUESORT:
        return sorted(values, key=str)
    return values


def result_hash(values: list[str]) -> str:
    """MD5 over the canonical value list, newline-terminated (SLT convention)."""
    payload = "\n".join(values) + "\n"
    return hashlib.md5(payload.encode()).hexdigest()


def _floats_close(expected: str, actual: str, tolerance: float) -> bool:
    """Numeric comparison used only when a tolerance is configured.

    With ``tolerance=0`` (SQuaLity's exact mode) this never fires: values must
    match as strings, so ``31`` vs ``31.0`` is a failure — reproducing the
    client/semantic discrepancies the paper reports.  A positive tolerance
    models DuckDB's native runner (1% relative deviation accepted).
    """
    if tolerance <= 0:
        return False
    try:
        expected_number = float(expected)
        actual_number = float(actual)
    except ValueError:
        return False
    if expected_number == actual_number:
        return True
    scale = max(abs(expected_number), abs(actual_number), 1e-12)
    return abs(expected_number - actual_number) / scale <= tolerance


def compare_query_result(
    record: QueryRecord,
    outcome: ExecutionOutcome,
    float_tolerance: float = 0.0,
) -> ComparisonResult:
    """Compare the actual ``outcome`` of a query against ``record``'s expectation."""
    actual_rows = _actual_values(outcome, record.type_string)

    if record.result_format is ResultFormat.HASH:
        values = _apply_sort(actual_rows, record.sort_mode)
        if len(values) != record.expected_hash_count:
            return ComparisonResult(
                matches=False,
                reason=f"expected {record.expected_hash_count} values, got {len(values)}",
                mismatch_kind="row_count",
            )
        digest = result_hash(values)
        if digest != record.expected_hash:
            return ComparisonResult(matches=False, reason="hash mismatch", mismatch_kind="hash")
        return ComparisonResult(matches=True)

    if record.result_format is ResultFormat.ROW_WISE or record.expected_rows:
        rowsort = record.sort_mode is SortMode.ROWSORT
        expected_rows = _expected_rows_str(record, rowsort)
        # _actual_values already rendered every cell to str: no re-copy needed
        candidate_rows = sorted(actual_rows) if rowsort else actual_rows
        if len(expected_rows) != len(candidate_rows):
            return ComparisonResult(
                matches=False,
                reason=f"expected {len(expected_rows)} rows, got {len(candidate_rows)}",
                expected_preview=["\t".join(row) for row in expected_rows[:5]],
                actual_preview=["\t".join(row) for row in candidate_rows[:5]],
                mismatch_kind="row_count",
            )
        for expected_row, actual_row in zip(expected_rows, candidate_rows):
            if len(expected_row) != len(actual_row):
                return ComparisonResult(
                    matches=False,
                    reason=f"expected {len(expected_row)} columns, got {len(actual_row)}",
                    mismatch_kind="format",
                )
            for expected_cell, actual_cell in zip(expected_row, actual_row):
                if expected_cell == actual_cell:
                    continue
                if _floats_close(expected_cell, actual_cell, float_tolerance):
                    continue
                return ComparisonResult(
                    matches=False,
                    reason=f"value mismatch: expected {expected_cell!r}, got {actual_cell!r}",
                    expected_preview=["\t".join(row) for row in expected_rows[:5]],
                    actual_preview=["\t".join(row) for row in candidate_rows[:5]],
                    mismatch_kind="value",
                )
        return ComparisonResult(matches=True)

    # value-wise comparison (the original SLT form)
    expected_values = _expected_values_str(record)
    actual_values = _apply_sort(actual_rows, record.sort_mode)
    if record.sort_mode is not SortMode.NOSORT:
        expected_values = sorted(expected_values, key=str) if record.sort_mode is SortMode.VALUESORT else expected_values
    if len(expected_values) != len(actual_values):
        return ComparisonResult(
            matches=False,
            reason=f"expected {len(expected_values)} values, got {len(actual_values)}",
            expected_preview=expected_values[:10],
            actual_preview=actual_values[:10],
            mismatch_kind="row_count",
        )
    for expected_value, actual_value in zip(expected_values, actual_values):
        if expected_value == actual_value:
            continue
        if _floats_close(expected_value, actual_value, float_tolerance):
            continue
        return ComparisonResult(
            matches=False,
            reason=f"value mismatch: expected {expected_value!r}, got {actual_value!r}",
            expected_preview=expected_values[:10],
            actual_preview=actual_values[:10],
            mismatch_kind="value",
        )
    return ComparisonResult(matches=True)

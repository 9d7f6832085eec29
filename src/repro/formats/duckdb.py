"""DuckDB's test format (an extended sqllogictest dialect).

DuckDB specifies its tests in the SLT format with additional runner commands
(``require``, ``load``, ``loop``/``endloop``, ``mode``, ``restart``,
``statement error`` with expected message) and *row-wise* expected results:
each expected-result line is one row with values separated by tabs (Listing 3).

The parser subclasses :class:`~repro.formats.slt.SLTFormat`: blocks are parsed
with the shared SLT machinery, then query expectations are re-interpreted
row-wise (splitting each expected line on tabs), and ``loop``/``endloop``
blocks are expanded by substituting the loop variable into the templated
records (the paper notes DuckDB's runner provides execution-flow control
beyond plain SLT).
"""

from __future__ import annotations

import copy
import re

from repro.core.records import (
    ControlRecord,
    QueryRecord,
    Record,
    ResultFormat,
    StatementRecord,
    TestFile,
)
from repro.formats.registry import register_format
from repro.formats.slt import SLTFormat

_LOOP_PATTERN = re.compile(r"^loop\s+(\w+)\s+(-?\d+)\s+(-?\d+)$", re.IGNORECASE)
_EXTENSION_COMMANDS = re.compile(r"^(require|load|loop|endloop|mode|restart|reconnect)\b", re.IGNORECASE)
_QUERY_HEADER = re.compile(r"^query\s+([A-Z]+)\b")
_NUMERIC_TOKEN = re.compile(r"^([-+]?\d+(\.\d+)?([eE][-+]?\d+)?|NULL)$")


@register_format
class DuckDBFormat(SLTFormat):
    """SLT dialect with DuckDB runner extensions and row-wise results."""

    name = "duckdb"
    aliases = ()
    extensions = (".test", ".test_slow")
    description = "DuckDB sqllogictest dialect, row-wise results + loops"

    def parse_text(
        self,
        text: str,
        companion: str | None = None,
        path: str = "<memory>",
        suite: str | None = None,
    ) -> TestFile:
        test_file = self.new_test_file(text, path, suite, companion)
        raw_records: list[Record] = []
        for start_line, lines in self.iter_blocks(text):
            raw_records.extend(self.parse_block(lines, start_line, path))

        for record in raw_records:
            if isinstance(record, QueryRecord) and record.result_format is ResultFormat.VALUE_WISE:
                rows = [line.split("\t") if "\t" in line else line.split() for line in record.expected_values]
                if record.expected_values and all(len(row) == max(len(record.type_string), 1) for row in rows):
                    record.result_format = ResultFormat.ROW_WISE
                    record.expected_rows = rows
                    record.expected_values = []

        test_file.records = _expand_loops(raw_records)
        return test_file

    def sniff(self, text: str) -> float:
        """SLT base score, boosted by DuckDB-only markers.

        A DuckDB file containing only single-column queries and no extension
        commands is textually indistinguishable from plain SLT; such files
        deliberately detect as ``slt`` (the far more common format).  That
        tie-break is harmless for execution — value-wise and row-wise
        expectations coincide for single-column results — but directories of
        marker-free DuckDB files should be loaded with an explicit
        ``suite_format="duckdb"`` to keep the donor label right.
        """
        base = super().sniff(text)
        if base <= 0.0:
            return 0.0
        extensions = 0
        row_wise_records = 0
        total = 0
        for _start, lines in self.iter_blocks(text):
            total += len(lines)
            width = 0
            results: list[str] | None = None
            for raw_line in lines:
                line = raw_line.strip()
                if line == "----" and results is None:
                    results = []
                    continue
                if results is not None:
                    results.append(raw_line)
                    continue
                header = _QUERY_HEADER.match(line)
                if header:
                    width = len(header.group(1))
                elif _EXTENSION_COMMANDS.match(line):
                    extensions += 1
            if not results:
                continue
            # a record reads as row-wise only when EVERY expected line is one
            # row: tabbed (DuckDB's canonical rendering), or — for a
            # multi-column query — exactly one *numeric* whitespace-separated
            # value per column.  The numeric restriction keeps value-wise SLT
            # text values that merely contain spaces ('hello world') from
            # masquerading as rows.
            if any("\t" in line for line in results):
                row_wise_records += 1
            elif width > 1 and all(
                len(line.split()) == width and all(_NUMERIC_TOKEN.match(token) for token in line.split())
                for line in results
            ):
                row_wise_records += 1
        if extensions == 0 and row_wise_records == 0:
            # plain SLT content: defer to the SLT format (strictly lower score)
            return base * 0.5
        return base + (extensions + row_wise_records) / max(total, 1)


def _expand_loops(records: list[Record]) -> list[Record]:
    """Expand ``loop var start end`` ... ``endloop`` blocks by substitution."""
    expanded: list[Record] = []
    index = 0
    while index < len(records):
        record = records[index]
        if isinstance(record, ControlRecord) and record.command == "loop":
            match = _LOOP_PATTERN.match(record.raw.strip()) if record.raw else None
            if match is None and len(record.arguments) == 3:
                variable, start_text, end_text = record.arguments
            elif match is not None:
                variable, start_text, end_text = match.group(1), match.group(2), match.group(3)
            else:
                expanded.append(record)
                index += 1
                continue
            # find the matching endloop (loops do not nest in practice)
            body: list[Record] = []
            cursor = index + 1
            while cursor < len(records):
                candidate = records[cursor]
                if isinstance(candidate, ControlRecord) and candidate.command == "endloop":
                    break
                body.append(candidate)
                cursor += 1
            expanded.append(record)  # keep the control record for RQ1 statistics
            for value in range(int(start_text), int(end_text)):
                for template in body:
                    expanded.append(_substitute(template, variable, value))
            if cursor < len(records):
                expanded.append(records[cursor])  # the endloop record
            index = cursor + 1
            continue
        expanded.append(record)
        index += 1
    return expanded


def _substitute(record: Record, variable: str, value: int) -> Record:
    """Return a copy of ``record`` with ``${var}`` occurrences substituted."""
    clone = copy.deepcopy(record)
    needle = "${" + variable + "}"
    if isinstance(clone, (StatementRecord, QueryRecord)):
        clone.sql = clone.sql.replace(needle, str(value))
    if isinstance(clone, QueryRecord):
        clone.expected_values = [entry.replace(needle, str(value)) for entry in clone.expected_values]
        clone.expected_rows = [[cell.replace(needle, str(value)) for cell in row] for row in clone.expected_rows]
    return clone


__all__ = ["DuckDBFormat"]

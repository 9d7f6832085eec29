"""The sqllogictest (SLT) format used by SQLite's test suite.

Format reference: https://www.sqlite.org/sqllogictest/doc/trunk/about.wiki

A test file is a sequence of *records* separated by blank lines.  Each record
is either::

    statement ok            |  statement error
    <SQL statement, possibly spanning several lines>

or::

    query <type-string> [sort-mode] [label]
    <SQL query>
    ----
    <expected result, one value per line>

Records may be preceded by ``skipif <dbms>`` / ``onlyif <dbms>`` condition
lines, and the file may contain ``halt`` and ``hash-threshold <n>`` control
records.  Large expected results are given in hash form::

    30 values hashing to 3c13dee48d9356ae19af2515e05e6b54
"""

from __future__ import annotations

import re

from repro.core.records import (
    Condition,
    QueryRecord,
    Record,
    ResultFormat,
    SortMode,
    StatementRecord,
    TestFile,
)
from repro.errors import TestFormatError
from repro.formats.base import SLT_CONTROL_COMMANDS, SLT_DIRECTIVE_PATTERN, FormatParser
from repro.formats.registry import register_format

_HASH_RESULT = re.compile(r"^(\d+)\s+values\s+hashing\s+to\s+([0-9a-f]{32})$")
#: directives beyond the shared record headers that also mark SLT content
_EXTRA_DIRECTIVES = re.compile(r"^(skipif\s+\S+|onlyif\s+\S+|hash-threshold\s+\d+|halt\b)")


@register_format
class SLTFormat(FormatParser):
    """Plain sqllogictest, value-wise expected results."""

    name = "slt"
    aliases = ("sqlite",)
    extensions = (".test", ".slt")
    description = "sqllogictest (SQLite), value-wise results"

    def parse_text(
        self,
        text: str,
        companion: str | None = None,
        path: str = "<memory>",
        suite: str | None = None,
    ) -> TestFile:
        test_file = self.new_test_file(text, path, suite, companion)
        for start_line, lines in self.iter_blocks(text):
            test_file.records.extend(self.parse_block(lines, start_line, path))
        return test_file

    def sniff(self, text: str) -> float:
        lines = [line.strip() for line in text.splitlines() if line.strip()]
        if not lines:
            return 0.0
        directives = sum(1 for line in lines if SLT_DIRECTIVE_PATTERN.match(line) or _EXTRA_DIRECTIVES.match(line))
        separators = sum(1 for line in lines if line == "----")
        if directives == 0:
            return 0.0
        return (directives + separators) / len(lines)

    # -- record assembly (shared with the DuckDB subclass) -----------------------------

    def parse_block(self, lines: list[str], start_line: int, path: str) -> list[Record]:
        """Parse one blank-line-delimited block into records."""
        conditions: list[Condition] = []
        index = 0
        records: list[Record] = []

        while index < len(lines):
            line = self.strip_comment(lines[index]).strip()
            if not line:
                index += 1
                continue
            words = line.split()
            head = words[0].lower()

            condition = self.parse_condition(words)
            if condition is not None:
                conditions.append(condition)
                index += 1
                continue

            if head == "statement":
                records.append(self._parse_statement(lines, index, words, conditions, start_line, path))
                return records

            if head == "query":
                records.append(self._parse_query(lines, index, words, conditions, start_line))
                return records

            # Known control commands — and unknown directives, which are kept
            # as control records so RQ1's feature census sees them rather than
            # silently dropping them.
            records.append(self.control_record(start_line + index, line, conditions, words))
            conditions = []
            index += 1
        return records

    def _parse_statement(
        self,
        lines: list[str],
        index: int,
        words: list[str],
        conditions: list[Condition],
        start_line: int,
        path: str,
    ) -> StatementRecord:
        if len(words) < 2:
            raise TestFormatError("statement record missing ok/error", path=path, line=start_line + index)
        expect_ok = words[1].lower() == "ok"
        sql_lines = lines[index + 1 :]
        expected_error = None
        if "----" in [entry.strip() for entry in sql_lines]:
            separator = [entry.strip() for entry in sql_lines].index("----")
            expected_error = "\n".join(sql_lines[separator + 1 :]).strip() or None
            sql_lines = sql_lines[:separator]
        return StatementRecord(
            line=start_line + index,
            raw="\n".join(lines),
            conditions=list(conditions),
            sql="\n".join(sql_lines).strip(),
            expect_ok=expect_ok,
            expected_error=expected_error,
        )

    def _parse_query(
        self,
        lines: list[str],
        index: int,
        words: list[str],
        conditions: list[Condition],
        start_line: int,
    ) -> QueryRecord:
        type_string = words[1] if len(words) > 1 else ""
        sort_mode = SortMode.NOSORT
        label = None
        for word in words[2:]:
            lowered = word.lower()
            if lowered in ("nosort", "rowsort", "valuesort"):
                sort_mode = SortMode(lowered)
            else:
                label = word
        body = lines[index + 1 :]
        stripped_body = [entry.strip() for entry in body]
        if "----" in stripped_body:
            separator = stripped_body.index("----")
            sql_lines = body[:separator]
            result_lines = [entry.rstrip() for entry in body[separator + 1 :]]
        else:
            sql_lines = body
            result_lines = []
        record = QueryRecord(
            line=start_line + index,
            raw="\n".join(lines),
            conditions=list(conditions),
            sql="\n".join(sql_lines).strip(),
            type_string=type_string,
            sort_mode=sort_mode,
            label=label,
        )
        if len(result_lines) == 1 and _HASH_RESULT.match(result_lines[0].strip()):
            match = _HASH_RESULT.match(result_lines[0].strip())
            record.result_format = ResultFormat.HASH
            record.expected_hash_count = int(match.group(1))
            record.expected_hash = match.group(2)
        else:
            record.result_format = ResultFormat.VALUE_WISE
            record.expected_values = [entry for entry in result_lines if entry != ""]
        return record


__all__ = ["SLTFormat", "SLT_CONTROL_COMMANDS"]

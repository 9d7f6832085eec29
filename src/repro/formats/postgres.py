"""PostgreSQL regression tests (``.sql`` scripts + ``.out`` transcripts).

A PostgreSQL regression test is a psql script: SQL statements interleaved with
psql meta-commands (lines starting with a backslash) and comments.  The
expected output is a separate ``.out`` file containing a transcript — every
statement echoed, followed by its result rendered in psql's table format::

    SELECT a, b FROM t1 WHERE c > a;
     a | b
    ---+---
     2 | 4
     3 | 1
    (2 rows)

The native runner compares the *whole file* transcript.  SQuaLity instead
extracts a per-statement expectation (the paper's statement-by-statement
methodology): the ``.out`` transcript is aligned with the statements of the
``.sql`` file, and each statement's result block is converted into row-wise
expected values.  When no ``.out`` file is available the statements are
imported with "expect success" semantics only.
"""

from __future__ import annotations

import re

from repro.core.records import (
    ControlRecord,
    QueryRecord,
    ResultFormat,
    SortMode,
    StatementRecord,
    TestFile,
)
from repro.formats.base import MTR_COMMAND_WORDS, SLT_DIRECTIVE_PATTERN, FormatParser
from repro.formats.registry import register_format
from repro.sqlparser.statements import classify_statement, split_statements

_ROW_COUNT = re.compile(r"^\((\d+) rows?\)$")
_ERROR_LINE = re.compile(r"^(ERROR|FATAL|PANIC):")


@register_format
class PostgresFormat(FormatParser):
    """psql regression scripts with table-format expected transcripts."""

    name = "postgres"
    aliases = ("postgresql",)
    extensions = (".sql",)
    description = "PostgreSQL regression scripts (.sql + .out transcripts)"
    companion_suffix = ".out"
    companion_dirs = ("expected",)

    def parse_text(
        self,
        text: str,
        companion: str | None = None,
        path: str = "<memory>",
        suite: str | None = None,
    ) -> TestFile:
        test_file = self.new_test_file(text, path, suite, companion)
        expectations = _parse_out_file(companion) if companion else {}

        statement_index = 0
        for fragment in _split_script(text):
            line_number = fragment.line
            statement_text = fragment.text.strip()
            if not statement_text:
                continue
            if statement_text.startswith("\\"):
                words = statement_text[1:].split()
                test_file.records.append(
                    ControlRecord(
                        line=line_number,
                        raw=statement_text,
                        command="psql:" + (words[0] if words else ""),
                        arguments=words[1:],
                    )
                )
                continue
            info = classify_statement(statement_text)
            expectation = expectations.get(statement_index)
            statement_index += 1
            if info.is_query and expectation is not None and expectation.rows is not None:
                test_file.records.append(
                    QueryRecord(
                        line=line_number,
                        raw=statement_text,
                        sql=statement_text,
                        type_string="T" * (len(expectation.columns) or 1),
                        sort_mode=SortMode.NOSORT,
                        result_format=ResultFormat.ROW_WISE,
                        expected_rows=expectation.rows,
                        expected_column_names=expectation.columns,
                    )
                )
            else:
                expect_ok = True
                expected_error = None
                if expectation is not None and expectation.error is not None:
                    expect_ok = False
                    expected_error = expectation.error
                test_file.records.append(
                    StatementRecord(
                        line=line_number,
                        raw=statement_text,
                        sql=statement_text,
                        expect_ok=expect_ok,
                        expected_error=expected_error,
                    )
                )
        return test_file

    def sniff(self, text: str) -> float:
        lines = [line.strip() for line in text.splitlines() if line.strip()]
        if not lines:
            return 0.0
        if any(SLT_DIRECTIVE_PATTERN.match(line) for line in lines):
            return 0.0  # SLT-family content, not a psql script
        meta = sum(1 for line in lines if line.startswith("\\"))
        comments = sum(1 for line in lines if line.startswith("--") and (len(line) == 2 or not line[2:].lstrip() or line[2] in " -"))
        # mtr commands are written flush against the dashes (--error, not
        # "-- error"); a psql prose comment that happens to start with such a
        # word must keep counting as a comment
        mtr_commands = sum(
            1
            for line in lines
            if line.startswith("--")
            and not line[2:3].isspace()
            and line[2:].split()
            and line[2:].split()[0].lower() in MTR_COMMAND_WORDS
        )
        if mtr_commands > comments / 2 and mtr_commands > meta:
            return 0.0  # MySQL Test Framework commands dominate
        terminated = sum(1 for line in lines if line.endswith(";"))
        if terminated == 0 and meta == 0:
            return 0.0
        return (terminated + 2 * meta + comments) / (2 * len(lines))


# ---------------------------------------------------------------------------
# .sql script splitting (keeps line numbers and psql meta-commands)
# ---------------------------------------------------------------------------


class _Fragment:
    __slots__ = ("text", "line")

    def __init__(self, text: str, line: int):
        self.text = text
        self.line = line


def _split_script(sql_text: str) -> list[_Fragment]:
    fragments: list[_Fragment] = []
    buffer: list[str] = []
    buffer_start = 1
    for number, line in enumerate(sql_text.splitlines(), start=1):
        stripped = line.strip()
        if stripped.startswith("--") and not buffer:
            continue
        if stripped.startswith("\\") and not buffer:
            fragments.append(_Fragment(stripped, number))
            continue
        if not buffer:
            buffer_start = number
        buffer.append(line)
        if stripped.endswith(";"):
            text = "\n".join(buffer)
            for statement in split_statements(text):
                fragments.append(_Fragment(statement, buffer_start))
            buffer = []
    if buffer:
        text = "\n".join(buffer)
        for statement in split_statements(text):
            fragments.append(_Fragment(statement, buffer_start))
    return fragments


# ---------------------------------------------------------------------------
# .out transcript parsing
# ---------------------------------------------------------------------------


class _Expectation:
    __slots__ = ("columns", "rows", "error")

    def __init__(self, columns: list[str] | None = None, rows: list[list[str]] | None = None, error: str | None = None):
        self.columns = columns or []
        self.rows = rows
        self.error = error


def _parse_out_file(out_text: str) -> dict[int, _Expectation]:
    """Extract per-statement expectations from a psql transcript.

    Statements are echoed verbatim in the transcript; anything between one
    echoed statement's terminating semicolon and the next echoed statement is
    that statement's output block.
    """
    expectations: dict[int, _Expectation] = {}
    lines = out_text.splitlines()
    index = 0
    statement_index = 0
    current_statement_open = False
    block: list[str] = []

    def flush() -> None:
        nonlocal statement_index, block
        if not current_statement_open:
            return
        expectations[statement_index] = _interpret_block(block)
        statement_index += 1
        block = []

    while index < len(lines):
        line = lines[index]
        stripped = line.strip()
        if _looks_like_statement_echo(stripped):
            flush()
            current_statement_open = True
            # multi-line statements: keep consuming echo lines until a semicolon
            while not stripped.endswith(";") and index + 1 < len(lines):
                index += 1
                stripped = lines[index].strip()
                if _looks_like_result_line(stripped):
                    index -= 1
                    break
        elif stripped.startswith("\\"):
            pass  # psql meta-command echo: its output belongs to no statement
        else:
            block.append(line)
        index += 1
    flush()
    return expectations


def _looks_like_statement_echo(line: str) -> bool:
    if not line or line.startswith("--"):
        return False
    from repro.sqlparser.statements import statement_type

    first_word = line.split()[0].upper() if line.split() else ""
    known_starts = {
        "SELECT", "INSERT", "UPDATE", "DELETE", "CREATE", "DROP", "ALTER", "BEGIN", "COMMIT", "ROLLBACK",
        "SET", "RESET", "SHOW", "EXPLAIN", "COPY", "WITH", "VALUES", "TRUNCATE", "GRANT", "REVOKE",
        "ANALYZE", "VACUUM", "PREPARE", "EXECUTE", "DECLARE", "FETCH", "START", "SAVEPOINT", "RELEASE",
    }
    return first_word in known_starts or statement_type(line) in known_starts


def _looks_like_result_line(line: str) -> bool:
    return bool(_ROW_COUNT.match(line) or _ERROR_LINE.match(line) or set(line) <= set("-+ ") and "-" in line)


def _interpret_block(block: list[str]) -> _Expectation:
    """Turn one psql output block into an expectation."""
    meaningful = [line for line in block if line.strip()]
    if not meaningful:
        return _Expectation(rows=None)
    first = meaningful[0].strip()
    if _ERROR_LINE.match(first):
        return _Expectation(error="\n".join(line.strip() for line in meaningful))
    # table format: header / ---+--- separator / rows / (N rows)
    separator_index = None
    for position, line in enumerate(meaningful):
        bare = line.strip()
        if bare and set(bare) <= set("-+") and "-" in bare:
            separator_index = position
            break
    if separator_index is None or separator_index == 0:
        return _Expectation(rows=None)
    columns = [name.strip() for name in meaningful[separator_index - 1].split("|")]
    rows: list[list[str]] = []
    for line in meaningful[separator_index + 1 :]:
        bare = line.strip()
        if _ROW_COUNT.match(bare):
            break
        rows.append([cell.strip() for cell in line.split("|")])
    return _Expectation(columns=columns, rows=rows)


__all__ = ["PostgresFormat"]

"""The MySQL Test Framework format (``.test`` + ``.result`` files).

A MySQL test file mixes SQL statements (terminated by the current delimiter,
``;`` by default) with runner commands.  Runner commands appear either as
lines starting with ``--`` (``--disable_warnings``, ``--error ER_NO_SUCH_TABLE``,
``--echo text``, ``--source file``) or as bare command words (``let``,
``eval``, ``sleep``, ``connect``, ``disconnect``, ``connection``, ...).

The result file is a transcript: each statement echoed, followed by a
column-header line and tab-separated result rows (Listing 2).  As for
PostgreSQL, SQuaLity aligns the transcript with the statements to derive a
per-statement expectation.
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
from repro.sqlparser.statements import classify_statement

#: Bare (non ``--``-prefixed) words the MySQL test runner treats as commands.
BARE_COMMANDS = {
    "let",
    "eval",
    "inc",
    "dec",
    "sleep",
    "echo",
    "exit",
    "skip",
    "die",
    "connect",
    "connection",
    "disconnect",
    "source",
    "while",
    "if",
    "delimiter",
    "use",
    "perl",
    "end",
    "reap",
    "send",
    "sync_slave_with_master",
    "save_master_pos",
}

_ERROR_DIRECTIVE = re.compile(r"^--\s*error\s+(.+)$", re.IGNORECASE)
#: sniffing requires the command flush against the dashes (``--error``): a
#: psql prose comment like ``-- error cases follow`` must not look like mtr.
#: Parsing (_ERROR_DIRECTIVE above) stays lenient.
_MTR_COMMAND = re.compile(
    r"^--(" + "|".join(sorted(MTR_COMMAND_WORDS)) + r")\b",
    re.IGNORECASE,
)


@register_format
class MySQLFormat(FormatParser):
    """mysqltest scripts with transcript-style expected results."""

    name = "mysql"
    aliases = ("mariadb",)
    extensions = (".test",)
    description = "MySQL Test Framework scripts (.test + .result transcripts)"
    companion_suffix = ".result"
    companion_dirs = ("r",)

    def parse_text(
        self,
        text: str,
        companion: str | None = None,
        path: str = "<memory>",
        suite: str | None = None,
    ) -> TestFile:
        test_file = self.new_test_file(text, path, suite, companion)
        expectations = _parse_result_file(companion) if companion else {}

        expecting_error: str | None = None
        statement_index = 0
        buffer: list[str] = []
        buffer_start = 1

        def flush_statement(line_number: int) -> None:
            nonlocal buffer, expecting_error, statement_index
            statement_text = "\n".join(buffer).strip().rstrip(";").strip()
            buffer = []
            if not statement_text:
                return
            info = classify_statement(statement_text)
            expectation = expectations.get(statement_index)
            statement_index += 1
            if expecting_error is not None:
                test_file.records.append(
                    StatementRecord(
                        line=line_number,
                        raw=statement_text,
                        sql=statement_text,
                        expect_ok=False,
                        expected_error=expecting_error,
                    )
                )
                expecting_error = None
                return
            if info.is_query and expectation is not None and expectation["rows"] is not None:
                test_file.records.append(
                    QueryRecord(
                        line=line_number,
                        raw=statement_text,
                        sql=statement_text,
                        type_string="T" * max(len(expectation["columns"]), 1),
                        sort_mode=SortMode.NOSORT,
                        result_format=ResultFormat.ROW_WISE,
                        expected_rows=expectation["rows"],
                        expected_column_names=expectation["columns"],
                    )
                )
            else:
                test_file.records.append(
                    StatementRecord(line=line_number, raw=statement_text, sql=statement_text, expect_ok=True)
                )

        for number, line in enumerate(text.splitlines(), start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            if stripped.startswith("--"):
                error_match = _ERROR_DIRECTIVE.match(stripped)
                if error_match:
                    expecting_error = error_match.group(1).strip()
                words = stripped[2:].strip().split()
                command = words[0].lower() if words else ""
                test_file.records.append(ControlRecord(line=number, raw=stripped, command=command, arguments=words[1:]))
                continue
            first_word = stripped.split()[0].lower() if stripped.split() else ""
            if not buffer and first_word in BARE_COMMANDS and first_word != "use":
                words = stripped.rstrip(";").split()
                test_file.records.append(
                    ControlRecord(line=number, raw=stripped, command=words[0].lower(), arguments=words[1:])
                )
                continue
            if not buffer:
                buffer_start = number
            buffer.append(line)
            if stripped.endswith(";"):
                flush_statement(buffer_start)
        if buffer:
            flush_statement(buffer_start)
        return test_file

    def sniff(self, text: str) -> float:
        lines = [line.strip() for line in text.splitlines() if line.strip()]
        if not lines:
            return 0.0
        if any(SLT_DIRECTIVE_PATTERN.match(line) for line in lines):
            return 0.0  # SLT-family directives: not an mtr script
        commands = sum(1 for line in lines if _MTR_COMMAND.match(line))
        bare = sum(
            1
            for line in lines
            if line.split() and line.split()[0].lower() in BARE_COMMANDS and line.split()[0].lower() != "use"
        )
        terminated = sum(1 for line in lines if line.endswith(";"))
        if commands + bare == 0:
            # a pure-SQL script (every statement ';'-terminated, no SLT
            # directives) is a valid mysqltest file: claim it weakly, so it
            # still loses to any format with positive structural markers
            return terminated / (4 * len(lines))
        return (2 * (commands + bare) + terminated) / (2 * len(lines))


def _parse_result_file(result_text: str) -> dict[int, dict]:
    """Align a ``.result`` transcript with statement indexes.

    Returns ``{statement_index: {"columns": [...], "rows": [[...]] | None}}``.
    """
    expectations: dict[int, dict] = {}
    lines = result_text.splitlines()
    index = 0
    statement_index = -1
    block: list[str] = []

    def flush() -> None:
        nonlocal block
        if statement_index < 0:
            block = []
            return
        expectations[statement_index] = _interpret_block(block)
        block = []

    while index < len(lines):
        stripped = lines[index].strip()
        if _looks_like_statement_echo(stripped):
            flush()
            statement_index += 1
            while not stripped.endswith(";") and index + 1 < len(lines) and not _looks_like_statement_echo(lines[index + 1].strip()):
                index += 1
                stripped = lines[index].strip()
        else:
            block.append(lines[index])
        index += 1
    flush()
    return expectations


def _looks_like_statement_echo(line: str) -> bool:
    if not line:
        return False
    first_word = line.split()[0].upper() if line.split() else ""
    return first_word in {
        "SELECT", "INSERT", "UPDATE", "DELETE", "CREATE", "DROP", "ALTER", "BEGIN", "COMMIT", "ROLLBACK",
        "SET", "SHOW", "EXPLAIN", "WITH", "VALUES", "TRUNCATE", "GRANT", "REVOKE", "USE", "ANALYZE",
        "START", "SAVEPOINT", "RELEASE", "LOCK", "UNLOCK", "REPLACE",
    }


def _interpret_block(block: list[str]) -> dict:
    meaningful = [line for line in block if line.strip()]
    if not meaningful:
        return {"columns": [], "rows": None}
    if meaningful[0].startswith("ERROR"):
        return {"columns": [], "rows": None, "error": meaningful[0]}
    columns = meaningful[0].split("\t")
    rows = [line.split("\t") for line in meaningful[1:]]
    return {"columns": columns, "rows": rows}


__all__ = ["MySQLFormat", "BARE_COMMANDS"]

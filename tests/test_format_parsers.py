"""Native test-format parsers: SLT, DuckDB, PostgreSQL, MySQL."""

import textwrap

import pytest

from repro.core.records import ControlRecord, QueryRecord, ResultFormat, SortMode, StatementRecord
from repro.formats import available_formats, parse_test_text


LISTING1 = textwrap.dedent(
    """\
    statement ok
    CREATE TABLE t1(a INTEGER, b INTEGER, c INTEGER)

    statement ok
    INSERT INTO t1(c,b,a) VALUES (3,4,2), (5,1,3), (1,6,4)

    query I rowsort
    SELECT a, b FROM t1 WHERE c > a;
    ----
    2
    4
    3
    1
    """
)

LISTING4 = textwrap.dedent(
    """\
    onlyif mysql # DIV for integer division:
    query I rowsort label-11
    SELECT ALL 62 DIV ( + - 2 )
    ----
    -31

    skipif mysql # not compatible
    query I rowsort label-11
    SELECT ALL 62 / ( + - 2 )
    ----
    -31
    """
)


class TestSLTParser:
    def test_listing1_roundtrip(self):
        test_file = parse_test_text(LISTING1, "slt")
        assert len(test_file.records) == 3
        statement, insert, query = test_file.records
        assert isinstance(statement, StatementRecord) and statement.expect_ok
        assert isinstance(query, QueryRecord)
        assert query.sort_mode is SortMode.ROWSORT
        assert query.expected_values == ["2", "4", "3", "1"]
        assert query.type_string == "I"

    def test_listing4_conditions_and_labels(self):
        test_file = parse_test_text(LISTING4, "slt")
        first, second = test_file.records
        assert first.conditions[0].kind == "onlyif" and first.conditions[0].dbms == "mysql"
        assert second.conditions[0].kind == "skipif"
        assert first.label == "label-11"
        assert not first.runs_on("sqlite")
        assert first.runs_on("mysql")
        assert second.runs_on("postgres")
        assert not second.runs_on("mysql")

    def test_statement_error_record(self):
        test_file = parse_test_text("statement error\nSELECT * FROM missing\n", "slt")
        record = test_file.records[0]
        assert isinstance(record, StatementRecord) and not record.expect_ok

    def test_hash_threshold_and_halt_controls(self):
        text = "hash-threshold 8\n\nhalt\n\nstatement ok\nSELECT 1\n"
        test_file = parse_test_text(text, "slt")
        controls = [record for record in test_file.records if isinstance(record, ControlRecord)]
        assert [control.command for control in controls] == ["hash-threshold", "halt"]

    def test_hashed_result(self):
        text = "query III rowsort\nSELECT a, b, c FROM t1\n----\n30 values hashing to 3c13dee48d9356ae19af2515e05e6b54\n"
        record = parse_test_text(text, "slt").records[0]
        assert record.result_format is ResultFormat.HASH
        assert record.expected_hash_count == 30

    def test_comment_lines_ignored(self):
        test_file = parse_test_text("# a comment\n\nstatement ok\nSELECT 1\n", "slt")
        assert len(test_file.records) == 1


class TestDuckDBParser:
    def test_row_wise_results(self):
        text = "query II\nSELECT a, b FROM t1;\n----\n2\t4\n3\t1\n"
        record = parse_test_text(text, "duckdb").records[0]
        assert record.result_format is ResultFormat.ROW_WISE
        assert record.expected_rows == [["2", "4"], ["3", "1"]]

    def test_require_control(self):
        text = "require icu\n\nstatement ok\nSELECT 1\n"
        records = parse_test_text(text, "duckdb").records
        assert isinstance(records[0], ControlRecord) and records[0].command == "require"

    def test_loop_expansion(self):
        text = "loop i 0 3\n\nstatement ok\nINSERT INTO t VALUES (${i})\n\nendloop\n"
        records = parse_test_text(text, "duckdb").records
        statements = [record.sql for record in records if isinstance(record, StatementRecord)]
        assert statements == ["INSERT INTO t VALUES (0)", "INSERT INTO t VALUES (1)", "INSERT INTO t VALUES (2)"]

    def test_statement_error_with_expected_message(self):
        text = "statement error\nSELECT * FROM missing\n----\nTable with name missing does not exist\n"
        record = parse_test_text(text, "duckdb").records[0]
        assert not record.expect_ok
        assert "does not exist" in record.expected_error


class TestPostgresParser:
    SQL = "SELECT 1 AS one;\nCREATE TABLE t(a int);\n\\d t\nSELECT * FROM missing;\n"
    OUT = textwrap.dedent(
        """\
        SELECT 1 AS one;
         one
        -----
         1
        (1 row)

        CREATE TABLE t(a int);
        SELECT * FROM missing;
        ERROR:  relation "missing" does not exist
        """
    )

    def test_statements_and_cli_commands(self):
        test_file = parse_test_text(self.SQL, "postgres")
        commands = [record for record in test_file.records if isinstance(record, ControlRecord)]
        assert len(commands) == 1 and commands[0].command.startswith("psql:")
        assert len(test_file.sql_records()) == 3

    def test_out_file_gives_query_expectations(self):
        test_file = parse_test_text(self.SQL, "postgres", companion=self.OUT)
        first = test_file.records[0]
        assert isinstance(first, QueryRecord)
        assert first.expected_rows == [["1"]]
        assert first.expected_column_names == ["one"]

    def test_out_file_gives_error_expectations(self):
        test_file = parse_test_text(self.SQL, "postgres", companion=self.OUT)
        last = test_file.sql_records()[-1]
        assert isinstance(last, StatementRecord)
        assert not last.expect_ok
        assert "does not exist" in last.expected_error


class TestMySQLParser:
    TEST = textwrap.dedent(
        """\
        --disable_warnings
        CREATE TABLE t1(a INTEGER, b INTEGER, c INTEGER);
        INSERT INTO t1(c,b,a) VALUES (3,4,2), (5,1,3), (1,6,4);
        --error ER_NO_SUCH_TABLE
        SELECT * FROM missing;
        SELECT a, b FROM t1 WHERE c > a;
        let $x = 10;
        """
    )
    RESULT = textwrap.dedent(
        """\
        CREATE TABLE t1(a INTEGER, b INTEGER, c INTEGER);
        INSERT INTO t1(c,b,a) VALUES (3,4,2), (5,1,3), (1,6,4);
        SELECT * FROM missing;
        SELECT a, b FROM t1 WHERE c > a;
        a\tb
        2\t4
        3\t1
        """
    )

    def test_runner_commands_extracted(self):
        test_file = parse_test_text(self.TEST, "mysql")
        commands = [record.command for record in test_file.control_records()]
        assert "disable_warnings" in commands
        assert "error" in commands
        assert "let" in commands

    def test_error_directive_marks_statement(self):
        test_file = parse_test_text(self.TEST, "mysql")
        failing = [record for record in test_file.sql_records() if isinstance(record, StatementRecord) and not record.expect_ok]
        assert len(failing) == 1
        assert "missing" in failing[0].sql

    def test_result_file_gives_expectations(self):
        test_file = parse_test_text(self.TEST, "mysql", companion=self.RESULT)
        queries = [record for record in test_file.records if isinstance(record, QueryRecord)]
        assert queries
        assert queries[-1].expected_rows == [["2", "4"], ["3", "1"]]
        assert queries[-1].expected_column_names == ["a", "b"]


class TestSuiteLoader:
    def test_supported_formats(self):
        assert {"slt", "duckdb", "postgres", "mysql"} <= set(available_formats(include_aliases=True))

    def test_parse_test_text_dispatch(self):
        assert len(parse_test_text(LISTING1, "slt").records) == 3
        assert parse_test_text(LISTING1, "duckdb").suite == "duckdb"

    def test_unknown_format_raises(self):
        import pytest
        from repro.errors import TestFormatError

        with pytest.raises(TestFormatError):
            parse_test_text("x", "oracle")

    def test_load_suite_from_directory(self, tmp_path):
        from repro.core.suite import load_suite
        from repro.corpus import write_corpus

        write_corpus(str(tmp_path / "slt"), "slt", file_count=2)
        suite = load_suite(str(tmp_path / "slt"), "slt")
        assert len(suite.files) == 2
        assert suite.total_sql_records > 0

    def test_load_postgres_suite_pairs_out_files(self, tmp_path):
        from repro.core.suite import load_suite
        from repro.corpus import write_corpus

        write_corpus(str(tmp_path / "pg"), "postgres", file_count=2)
        suite = load_suite(str(tmp_path / "pg"), "postgres")
        assert len(suite.files) == 2
        assert any(isinstance(record, QueryRecord) and record.expected_rows for test_file in suite.files for record in test_file.records)

"""Unit tests for statement splitting, typing, and standard-compliance."""

import pytest

from repro.analysis.statements import file_statement_profile
from repro.core.records import StatementRecord, TestFile
from repro.sqlparser.statements import (
    classify_statement,
    is_standard_statement,
    split_statements,
    statement_type,
)


class TestStatementType:
    @pytest.mark.parametrize(
        "sql,expected",
        [
            ("SELECT * FROM t0", "SELECT"),
            ("select 1", "SELECT"),
            ("INSERT INTO t VALUES (1)", "INSERT"),
            ("UPDATE t SET a = 1", "UPDATE"),
            ("DELETE FROM t", "DELETE"),
            ("CREATE TABLE t(a INT)", "CREATE TABLE"),
            ("CREATE TEMP TABLE t(a INT)", "CREATE TABLE"),
            ("CREATE UNIQUE INDEX i ON t(a)", "CREATE INDEX"),
            ("CREATE OR REPLACE VIEW v AS SELECT 1", "CREATE VIEW"),
            ("DROP TABLE IF EXISTS t", "DROP TABLE"),
            ("ALTER TABLE t ADD COLUMN b INT", "ALTER TABLE"),
            ("PRAGMA foreign_keys = ON", "PRAGMA"),
            ("SET search_path TO public", "SET"),
            ("EXPLAIN SELECT 1", "EXPLAIN"),
            ("BEGIN", "BEGIN"),
            ("START TRANSACTION", "START TRANSACTION"),
            ("COMMIT", "COMMIT"),
            ("ROLLBACK", "ROLLBACK"),
            ("WITH x AS (SELECT 1) SELECT * FROM x", "WITH"),
            ("VALUES (1), (2)", "VALUES"),
            ("COPY t FROM 'file.csv'", "COPY"),
            ("SHOW tables", "SHOW"),
            ("VACUUM", "VACUUM"),
        ],
    )
    def test_common_statement_types(self, sql, expected):
        assert statement_type(sql) == expected

    def test_cli_command(self):
        assert statement_type("\\d mytable") == "CLI_COMMAND"

    def test_empty_statement(self):
        assert statement_type("   ") == "EMPTY"

    def test_intentionally_broken_statement_keeps_literal_type(self):
        # the paper observes "SELEC" in DuckDB test cases being kept as-is
        assert statement_type("SELEC 1") == "SELEC"

    def test_parenthesised_select_keeps_prefix(self):
        # mirrors the paper's "(((((select * from int8_tbl)))))" observation
        assert statement_type("(((((select * from int8_tbl)))))") == "(((((SELECT"


class TestStandardCompliance:
    def test_select_and_insert_are_standard(self):
        assert is_standard_statement("SELECT")
        assert is_standard_statement("INSERT")
        assert is_standard_statement("CREATE TABLE")

    def test_create_index_is_not_standard(self):
        assert not is_standard_statement("CREATE INDEX")

    def test_pragma_set_explain_are_not_standard(self):
        for stype in ("PRAGMA", "SET", "EXPLAIN", "COPY", "SHOW", "BEGIN"):
            assert not is_standard_statement(stype)

    def test_classify_statement_flags(self):
        info = classify_statement("SELECT to_json(date '2014-05-28')")
        assert info.statement_type == "SELECT"
        assert info.is_standard
        assert info.is_query

    def test_widely_supported_nonstandard(self):
        sql = "CREATE INDEX i ON t(a)"
        assert not classify_statement(sql).is_standard
        # only Table 3's relaxed variant counts it as standard
        profile = file_statement_profile(TestFile(path="x", suite="slt", records=[StatementRecord(sql=sql)]))
        assert (profile["standard"], profile["standard_relaxed"]) == (0, 1)


class TestSplitStatements:
    def test_split_on_top_level_semicolons(self):
        parts = split_statements("SELECT 1; SELECT 2; SELECT 3")
        assert len(parts) == 3

    def test_semicolon_inside_string_does_not_split(self):
        parts = split_statements("SELECT 'a;b'; SELECT 2")
        assert len(parts) == 2
        assert "a;b" in parts[0]

    def test_semicolon_inside_parentheses_does_not_split(self):
        parts = split_statements("CREATE TABLE t(a INT); INSERT INTO t VALUES (1)")
        assert len(parts) == 2

    def test_empty_fragments_dropped(self):
        assert split_statements(";;;SELECT 1;;") == ["SELECT 1"]

    def test_comments_do_not_confuse_splitting(self):
        parts = split_statements("SELECT 1; -- comment with ; inside\nSELECT 2")
        assert len(parts) == 2

    def test_classify_script(self):
        script = "CREATE TABLE t(a INT); INSERT INTO t VALUES (1); SELECT * FROM t"
        infos = [classify_statement(statement) for statement in split_statements(script)]
        assert [info.statement_type for info in infos] == ["CREATE TABLE", "INSERT", "SELECT"]

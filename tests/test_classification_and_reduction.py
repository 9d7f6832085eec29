"""Failure classification (RQ3/RQ4 taxonomies) and delta-debugging reduction."""

from repro.adapters.minidb_adapter import MiniDBAdapter
from repro.core.classification import (
    DependencyCategory,
    IncompatibilityCategory,
    DifficultyCategory,
    category_histogram,
    classify_dependency,
    classify_failures,
    classify_incompatibility,
    classify_difficulty,
    sample_failures,
)
from repro.core.records import QueryRecord, StatementRecord
from repro.core.runner import RecordOutcome, RecordResult
from repro.core.comparison import ComparisonResult
from repro.core.reducer import make_crash_predicate, make_error_predicate, reduce_statements


def failed(sql, error="", error_type="", reason="", comparison=None, is_query=False):
    record = QueryRecord(sql=sql) if is_query else StatementRecord(sql=sql)
    return RecordResult(record=record, outcome=RecordOutcome.FAIL, error=error, error_type=error_type, reason=reason, comparison=comparison)


class TestIncompatibilityClassification:
    def test_unsupported_statement(self):
        result = failed("PRAGMA x = 1", error="PostgreSQL (MiniDB) does not support PRAGMA statements", error_type="UnsupportedStatementError")
        assert classify_incompatibility(result) is IncompatibilityCategory.STATEMENTS

    def test_unsupported_function(self):
        result = failed("SELECT pg_typeof(1)", error="no such function: pg_typeof", error_type="UnsupportedFunctionError")
        assert classify_incompatibility(result) is IncompatibilityCategory.FUNCTIONS

    def test_unsupported_type(self):
        result = failed("CREATE TABLE t(s VARCHAR)", error="VARCHAR requires a length in this dialect", error_type="UnsupportedTypeError")
        assert classify_incompatibility(result) is IncompatibilityCategory.TYPES

    def test_unsupported_operator(self):
        result = failed("SELECT 1::TEXT", error="the :: cast operator is not supported", error_type="UnsupportedOperatorError")
        assert classify_incompatibility(result) is IncompatibilityCategory.OPERATORS

    def test_configuration(self):
        result = failed("SET default_null_order='nulls_first'", error='unrecognized configuration parameter "default_null_order"', error_type="ConfigurationError")
        assert classify_incompatibility(result) is IncompatibilityCategory.CONFIGURATIONS

    def test_semantic_result_mismatch(self):
        comparison = ComparisonResult(matches=False, reason="value mismatch: expected '31', got '31.0'", mismatch_kind="value")
        result = failed("SELECT 62 / 2", reason=comparison.reason, comparison=comparison, is_query=True)
        assert classify_incompatibility(result) is IncompatibilityCategory.SEMANTIC

    def test_sqlite3_message_patterns(self):
        result = failed("SELECT md5('x')", error="no such function: md5", error_type="OperationalError")
        assert classify_incompatibility(result) is IncompatibilityCategory.FUNCTIONS
        result = failed("SELECT 1::TEXT", error='near "::": syntax error', error_type="OperationalError")
        assert classify_incompatibility(result) is IncompatibilityCategory.OPERATORS


class TestDependencyClassification:
    def test_file_paths(self):
        result = failed("COPY t FROM '/home/postgres/data/t.data'", error="could not open file")
        assert classify_dependency(result) is DependencyCategory.FILE_PATHS

    def test_extension(self):
        result = failed("CREATE FUNCTION f(internal) RETURNS void AS 'regresslib', 'f' LANGUAGE C", error="does not support CREATE FUNCTION", error_type="UnsupportedStatementError")
        assert classify_dependency(result) is DependencyCategory.EXTENSION

    def test_setting_via_show(self):
        comparison = ComparisonResult(matches=False, reason="value mismatch: expected 'Postgres, DMY', got 'NULL'", mismatch_kind="value")
        result = failed("SHOW datestyle", reason=comparison.reason, comparison=comparison, is_query=True)
        assert classify_dependency(result) is DependencyCategory.SETTING

    def test_setup_missing_table(self):
        result = failed("SELECT count(*) FROM onek", error="no such table: onek", error_type="CatalogError")
        assert classify_dependency(result) is DependencyCategory.SETUP

    def test_setup_cascaded_mismatch(self):
        comparison = ComparisonResult(matches=False, reason="expected 3 rows, got 0", mismatch_kind="row_count")
        result = failed("SELECT a FROM t1", reason=comparison.reason, comparison=comparison, is_query=True)
        assert classify_dependency(result) is DependencyCategory.SETUP

    def test_client_format(self):
        comparison = ComparisonResult(matches=False, reason="value mismatch: expected \"['1', '2']\", got '[1, 2]'", mismatch_kind="value")
        result = failed("SELECT [1, 2]", reason=comparison.reason, comparison=comparison, is_query=True)
        assert classify_dependency(result) is DependencyCategory.CLIENT_FORMAT

    def test_client_numeric(self):
        comparison = ComparisonResult(matches=False, reason="value mismatch: expected '4999', got '4999.5'", mismatch_kind="value")
        result = failed("SELECT 9999 / 2.0", reason=comparison.reason, comparison=comparison, is_query=True)
        assert classify_dependency(result) is DependencyCategory.CLIENT_NUMERIC

    def test_runner_directive(self):
        result = failed("hash-threshold 100", error="syntax error", error_type="SQLSyntaxError")
        assert classify_dependency(result) is DependencyCategory.RUNNER


class TestDifficultyAndHelpers:
    def test_difficulty_rollup(self):
        semantic = failed("SELECT 62 / 2", reason="value mismatch", comparison=ComparisonResult(matches=False, reason="value mismatch: expected '31', got '31.0'", mismatch_kind="value"), is_query=True)
        assert classify_difficulty(semantic) is DifficultyCategory.SEMANTIC
        feature = failed("PRAGMA x=1", error="does not support PRAGMA statements", error_type="UnsupportedStatementError")
        assert classify_difficulty(feature) is DifficultyCategory.DIALECT_FEATURE

    def test_classify_failures_filters_passes(self):
        passing = RecordResult(record=StatementRecord(sql="SELECT 1"), outcome=RecordOutcome.PASS)
        failing = failed("PRAGMA x=1", error_type="UnsupportedStatementError", error="unsupported")
        classified = classify_failures([passing, failing])
        assert len(classified) == 1

    def test_category_histogram(self):
        failures = [failed("PRAGMA x=1", error_type="UnsupportedStatementError", error="unsupported") for _ in range(3)]
        histogram = category_histogram(classify_failures(failures))
        assert histogram[IncompatibilityCategory.STATEMENTS] == 3

    def test_sample_failures_is_deterministic(self):
        failures = [failed(f"SELECT {i}", error="x", error_type="DatabaseError") for i in range(300)]
        first = sample_failures(failures, sample_size=50, seed=1)
        second = sample_failures(failures, sample_size=50, seed=1)
        assert [result.sql for result in first] == [result.sql for result in second]
        assert len(first) == 50


class TestReducer:
    def test_reduce_crash_sequence_to_minimum(self):
        statements = [
            "CREATE TABLE a (b INTEGER)",
            "INSERT INTO a VALUES (0)",
            "SELECT * FROM a",
            "BEGIN",
            "INSERT INTO a VALUES (1)",
            "UPDATE a SET b = b + 10",
            "COMMIT",
            "SELECT count(*) FROM a",
            "UPDATE a SET b = b + 10",
        ]
        predicate = make_crash_predicate(lambda: MiniDBAdapter("duckdb"))
        reduced = reduce_statements(statements, predicate)
        assert predicate(reduced)
        assert len(reduced) < len(statements)
        # the essential transaction skeleton must survive reduction
        assert any(statement.startswith("UPDATE") for statement in reduced)

    def test_reduce_single_statement_crash(self):
        statements = ["SELECT 1", "ALTER SCHEMA a RENAME TO b", "SELECT 2"]
        predicate = make_crash_predicate(lambda: MiniDBAdapter("duckdb"))
        reduced = reduce_statements(statements, predicate)
        assert reduced == ["ALTER SCHEMA a RENAME TO b"]

    def test_non_failing_input_returned_unchanged(self):
        statements = ["SELECT 1", "SELECT 2"]
        predicate = make_crash_predicate(lambda: MiniDBAdapter("duckdb"))
        assert reduce_statements(statements, predicate) == statements

    def test_error_predicate(self):
        predicate = make_error_predicate(lambda: MiniDBAdapter("postgres"), "division by zero")
        reduced = reduce_statements(["SELECT 1", "SELECT 1 / 0", "SELECT 2"], predicate)
        assert reduced == ["SELECT 1 / 0"]

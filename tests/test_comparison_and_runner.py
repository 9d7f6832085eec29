"""Result comparison and unified runner behaviour."""

import textwrap

import pytest

from repro.adapters.base import ExecutionOutcome, ExecutionStatus
from repro.adapters.registry import create_adapter
from repro.core.comparison import compare_query_result, normalize_value, result_hash
from repro.core.records import QueryRecord, ResultFormat, SortMode
from repro.core.runner import RecordOutcome, SuiteResult, TestRunner
from repro.formats import parse_test_text


def make_outcome(rows, columns=None):
    return ExecutionOutcome(status=ExecutionStatus.OK, columns=columns or [f"c{i}" for i in range(len(rows[0]) if rows else 0)], rows=rows)


class TestNormalization:
    def test_null_and_empty(self):
        assert normalize_value(None) == "NULL"
        assert normalize_value("", "T") == "(empty)"

    def test_integer_formatting(self):
        assert normalize_value(42, "I") == "42"
        assert normalize_value(True, "I") == "1"

    def test_float_under_integer_type_keeps_decimal(self):
        # this is what makes DuckDB's decimal division fail SLT's I columns
        assert normalize_value(31.0, "I") == "31.0"

    def test_real_formatting_three_decimals(self):
        assert normalize_value(2.5, "R") == "2.500"

    def test_hash_is_stable(self):
        assert result_hash(["1", "2"]) == result_hash(["1", "2"])
        assert result_hash(["1", "2"]) != result_hash(["2", "1"])


class TestCompareQueryResult:
    def test_value_wise_match_with_rowsort(self):
        record = QueryRecord(sql="", type_string="II", sort_mode=SortMode.ROWSORT, expected_values=["2", "4", "3", "1"])
        assert compare_query_result(record, make_outcome([[3, 1], [2, 4]])).matches

    def test_value_wise_mismatch(self):
        record = QueryRecord(sql="", type_string="I", expected_values=["31"])
        result = compare_query_result(record, make_outcome([[31.0]]))
        assert not result.matches
        assert result.mismatch_kind == "value"

    def test_float_tolerance_mode(self):
        record = QueryRecord(sql="", type_string="I", expected_values=["4999"])
        outcome = make_outcome([[4999.5]])
        assert not compare_query_result(record, outcome).matches
        assert compare_query_result(record, outcome, float_tolerance=0.01).matches

    def test_row_count_mismatch(self):
        record = QueryRecord(sql="", type_string="I", expected_values=["1", "2"])
        result = compare_query_result(record, make_outcome([[1]]))
        assert not result.matches and result.mismatch_kind == "row_count"

    def test_row_wise_comparison(self):
        record = QueryRecord(sql="", type_string="II", result_format=ResultFormat.ROW_WISE, expected_rows=[["2", "4"], ["3", "1"]])
        assert compare_query_result(record, make_outcome([[2, 4], [3, 1]])).matches
        assert not compare_query_result(record, make_outcome([[2, 4], [3, 2]])).matches

    def test_hash_comparison(self):
        values = ["1", "2", "3"]
        record = QueryRecord(
            sql="", type_string="I", result_format=ResultFormat.HASH, expected_hash=result_hash(values), expected_hash_count=3
        )
        assert compare_query_result(record, make_outcome([[1], [2], [3]])).matches
        assert not compare_query_result(record, make_outcome([[1], [2], [4]])).matches

    def test_valuesort_mode(self):
        record = QueryRecord(sql="", type_string="I", sort_mode=SortMode.VALUESORT, expected_values=["3", "1", "2"])
        assert compare_query_result(record, make_outcome([[2], [3], [1]])).matches


SLT_FILE = textwrap.dedent(
    """\
    statement ok
    CREATE TABLE t1(a INTEGER, b INTEGER)

    statement ok
    INSERT INTO t1 VALUES (1, 10), (2, 20)

    query I rowsort
    SELECT a FROM t1
    ----
    1
    2

    statement error
    SELECT * FROM missing

    onlyif oracle
    query I nosort
    SELECT 999
    ----
    999

    query I nosort
    SELECT b FROM t1 WHERE a = 2
    ----
    20
    """
)


class TestUnifiedRunner:
    @pytest.mark.parametrize("host", ["sqlite", "sqlite-mini", "postgres", "duckdb", "mysql"])
    def test_slt_file_passes_on_every_host(self, host):
        test_file = parse_test_text(SLT_FILE, "slt")
        adapter = create_adapter(host)
        adapter.connect()
        result = TestRunner(adapter, host_name=host).run_file(test_file)
        assert result.failed == 0
        assert result.skipped == 1  # the onlyif-oracle record
        assert result.passed == 5

    def test_statement_error_expectation(self):
        text = "statement error\nSELECT 1\n"
        test_file = parse_test_text(text, "slt")
        adapter = create_adapter("sqlite")
        adapter.connect()
        result = TestRunner(adapter).run_file(test_file)
        assert result.failed == 1
        assert result.results[0].reason == "statement unexpectedly succeeded"

    def test_mode_skip_region(self):
        text = "mode skip\n\nstatement ok\nSELECT 1\n\nmode unskip\n\nstatement ok\nSELECT 2\n"
        test_file = parse_test_text(text, "duckdb")
        adapter = create_adapter("duckdb")
        adapter.connect()
        result = TestRunner(adapter, host_name="duckdb").run_file(test_file)
        assert result.skipped == 1 and result.passed == 1

    def test_require_prefilters_rest_of_file(self):
        text = "statement ok\nSELECT 1\n\nrequire icu\n\nstatement ok\nSELECT 2\n\nstatement ok\nSELECT 3\n"
        test_file = parse_test_text(text, "duckdb")
        adapter = create_adapter("duckdb")
        adapter.connect()
        result = TestRunner(adapter, host_name="duckdb").run_file(test_file)
        assert result.passed == 1 and result.skipped == 2
        runner_with_extension = TestRunner(adapter, host_name="duckdb", available_extensions={"icu"})
        assert runner_with_extension.run_file(test_file).passed == 3

    def test_halt_skips_rest(self):
        text = "statement ok\nSELECT 1\n\nhalt\n\nstatement ok\nSELECT 2\n"
        test_file = parse_test_text(text, "slt")
        adapter = create_adapter("sqlite")
        adapter.connect()
        result = TestRunner(adapter).run_file(test_file)
        assert result.passed == 1 and result.skipped == 1

    def test_crash_marks_rest_of_file_skipped(self):
        text = "statement ok\nALTER SCHEMA a RENAME TO b\n\nstatement ok\nSELECT 1\n"
        test_file = parse_test_text(text, "postgres" if False else "slt")
        adapter = create_adapter("duckdb")
        adapter.connect()
        result = TestRunner(adapter, host_name="duckdb").run_file(test_file)
        assert result.crashes == 1
        assert result.skipped == 1

    def test_division_fails_on_decimal_hosts(self):
        text = "query I nosort\nSELECT 62 / 2\n----\n31\n"
        test_file = parse_test_text(text, "slt")
        for host, expected_fail in (("sqlite", 0), ("postgres", 0), ("duckdb", 1), ("mysql", 1)):
            adapter = create_adapter(host)
            adapter.connect()
            result = TestRunner(adapter, host_name=host).run_file(test_file)
            assert result.failed == expected_fail, host

    def test_translate_dialect_recovers_division(self):
        text = "query I nosort\nSELECT 62 / 2\n----\n31\n"
        test_file = parse_test_text(text, "slt")
        adapter = create_adapter("duckdb")
        adapter.connect()
        runner = TestRunner(adapter, host_name="duckdb", translate_dialect=True, donor_dialect="sqlite")
        assert runner.run_file(test_file).failed == 0

    def test_suite_result_aggregation(self, small_slt_suite):
        adapter = create_adapter("sqlite")
        adapter.connect()
        runner = TestRunner(adapter, host_name="sqlite")
        suite_result = SuiteResult(suite=small_slt_suite.name, host="sqlite")
        suite_result.files.extend(runner.run_file(test_file) for test_file in small_slt_suite.files)
        assert suite_result.total_cases == sum(len(file_result.results) for file_result in suite_result.files)
        assert 0.0 <= suite_result.success_rate <= 1.0
        assert suite_result.failed_cases == 0


class TestFileResultCounters:
    def _results(self, outcomes):
        from repro.core.records import StatementRecord
        from repro.core.runner import RecordResult

        return [RecordResult(record=StatementRecord(sql="SELECT 1"), outcome=outcome) for outcome in outcomes]

    def test_counts_survive_list_replacement_with_reused_id(self):
        from repro.core.runner import FileResult, RecordOutcome

        file_result = FileResult(path="p", suite="slt", host="sqlite")
        file_result.results = self._results([RecordOutcome.PASS, RecordOutcome.PASS])
        assert file_result.passed == 2
        # replace the list repeatedly: CPython frequently reuses the freed
        # list's id(), which an id-based staleness check mistakes for the
        # already-counted list
        for _ in range(8):
            file_result.results = self._results([RecordOutcome.FAIL, RecordOutcome.FAIL, RecordOutcome.FAIL])
            assert file_result.passed == 0
            assert file_result.failed == 3

    def test_counts_follow_truncation_and_append(self):
        from repro.core.runner import FileResult, RecordOutcome

        file_result = FileResult(path="p", suite="slt", host="sqlite")
        file_result.results.extend(self._results([RecordOutcome.PASS, RecordOutcome.FAIL]))
        assert (file_result.passed, file_result.failed) == (1, 1)
        del file_result.results[1:]
        assert (file_result.passed, file_result.failed) == (1, 0)
        file_result.results.extend(self._results([RecordOutcome.SKIP]))
        assert file_result.skipped == 1

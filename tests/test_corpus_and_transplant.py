"""Corpus generation, transplanting, coverage, and reporting — integration level."""

import pytest

from repro.core.classification import DependencyCategory, category_histogram, classify_failures
from repro.core.coverage import CoverageReport, combine_reports, feature_universe, measure_coverage
from repro.core.report import format_heatmap, format_percentage, format_table
from repro.core.transplant import DONOR_OF_SUITE, run_matrix, run_transplant
from repro.corpus import PAPER_PROFILES, generate_corpus
from repro.corpus.datagen import SchemaState, make_table, render_create_table, render_insert, render_predicate
from repro.sqlparser.analyzer import predicate_bucket, where_token_count


class TestDatagen:
    def test_make_table_and_create(self):
        state = SchemaState()
        table = make_table(state, __import__("random").Random(0))
        sql = render_create_table(table)
        assert sql.startswith("CREATE TABLE t1(")
        assert len(table.columns) >= 2

    def test_insert_tracks_row_count(self):
        import random

        state = SchemaState()
        table = make_table(state, random.Random(0))
        render_insert(table, random.Random(0), row_count=4)
        assert table.row_count == 4

    @pytest.mark.parametrize("bucket", ["1-2", "3-10", "11-100", "100+"])
    def test_predicates_land_in_their_bucket(self, bucket):
        import random

        state = SchemaState()
        table = make_table(state, random.Random(3))
        predicate = render_predicate(table, random.Random(3), bucket)
        tokens = where_token_count(f"SELECT * FROM {table.name} WHERE {predicate}")
        assert predicate_bucket(tokens) == bucket


class TestCorpusGeneration:
    def test_generation_is_deterministic(self):
        first = generate_corpus("slt", file_count=2, records_per_file=20, seed=3)
        second = generate_corpus("slt", file_count=2, records_per_file=20, seed=3)
        assert [item.primary_text for item in first] == [item.primary_text for item in second]

    def test_different_seeds_differ(self):
        first = generate_corpus("slt", file_count=1, records_per_file=20, seed=1)[0].primary_text
        second = generate_corpus("slt", file_count=1, records_per_file=20, seed=2)[0].primary_text
        assert first != second

    def test_postgres_corpus_has_out_files(self):
        generated = generate_corpus("postgres", file_count=1, records_per_file=15, seed=0)
        assert generated[0].expected_text is not None
        assert "ERROR" in generated[0].expected_text or "rows)" in generated[0].expected_text

    def test_profiles_exist_for_all_suites(self):
        assert set(PAPER_PROFILES) == {"slt", "postgres", "duckdb", "mysql"}
        for profile in PAPER_PROFILES.values():
            assert abs(sum(profile.statement_mix.values()) - 1.0) < 0.25

    def test_slt_suite_mostly_standard(self, small_slt_suite):
        from repro.analysis.statements import standard_compliance

        summary = standard_compliance(small_slt_suite)
        assert summary.standard_share > 0.9

    def test_duckdb_suite_contains_require(self, small_duckdb_suite):
        commands = [record.command for test_file in small_duckdb_suite.files for record in test_file.control_records()]
        assert "require" in commands


class TestDonorRuns:
    def test_slt_on_donor_has_no_failures(self, small_slt_suite):
        result = run_transplant(small_slt_suite, "sqlite")
        assert result.result.failed_cases == 0
        assert result.result.crash_cases == 0
        assert result.result.skipped_cases > 0  # skipif/onlyif pre-filtering

    def test_postgres_on_donor_failures_are_dependencies(self, small_postgres_suite):
        result = run_transplant(small_postgres_suite, "postgres")
        failures = result.result.all_failures()
        assert failures, "the PostgreSQL corpus injects dependency failures"
        histogram = category_histogram(classify_failures(failures, scheme="dependency"))
        assert set(histogram) <= set(DependencyCategory)
        environment = (
            histogram.get(DependencyCategory.SETUP, 0)
            + histogram.get(DependencyCategory.FILE_PATHS, 0)
            + histogram.get(DependencyCategory.SETTING, 0)
        )
        assert environment >= histogram.get(DependencyCategory.CLIENT_FORMAT, 0)

    def test_duckdb_prefiltering(self, small_duckdb_suite):
        result = run_transplant(small_duckdb_suite, "duckdb")
        assert result.result.skipped_cases > 0


class TestCrossExecution:
    @pytest.fixture(scope="class")
    def matrix(self, small_slt_suite, small_postgres_suite, small_duckdb_suite):
        suites = {"slt": small_slt_suite, "postgres": small_postgres_suite, "duckdb": small_duckdb_suite}
        return run_matrix(suites)

    def test_slt_is_most_compatible(self, matrix):
        # Compare against the other suites only on hosts that are foreign to
        # them too (a donor trivially scores highest on its own suite).
        for host in ("sqlite", "postgres", "duckdb", "mysql"):
            slt_rate = matrix.success_rate("slt", host)
            if host != "postgres":
                assert slt_rate >= matrix.success_rate("postgres", host)
            if host != "duckdb":
                assert slt_rate >= matrix.success_rate("duckdb", host)

    def test_donor_runs_have_highest_rate_for_their_suite(self, matrix):
        for suite in ("slt", "postgres", "duckdb"):
            donor = DONOR_OF_SUITE[suite]
            donor_rate = matrix.success_rate(suite, donor)
            for host in ("sqlite", "postgres", "duckdb", "mysql"):
                assert donor_rate >= matrix.success_rate(suite, host) - 1e-9

    def test_crashes_are_found_on_duckdb_and_mysql_only(self, matrix):
        summary = matrix.fault_summary()
        crash_hosts = {report.dbms for report in summary.crashes}
        assert crash_hosts <= {"duckdb", "mysql"}
        assert summary.unique_crashes() >= 2

    def test_matrix_accessors(self, matrix):
        assert set(matrix.suites()) == {"slt", "postgres", "duckdb"}
        assert set(matrix.hosts()) == {"sqlite", "postgres", "duckdb", "mysql"}
        entry = matrix.get("slt", "duckdb")
        assert entry.donor == "sqlite"
        assert not entry.is_donor_run


class TestCoverageModel:
    def test_universe_is_dialect_specific(self):
        assert "function.pg_typeof" in feature_universe("postgres")
        assert "function.pg_typeof" not in feature_universe("mysql")
        assert "statement.pragma" in feature_universe("sqlite")
        assert "statement.pragma" not in feature_universe("postgres")

    def test_measure_and_combine(self):
        basic = measure_coverage("sqlite", [["CREATE TABLE t(a INTEGER)", "INSERT INTO t VALUES (1)", "SELECT a FROM t"]])
        assert 0 < basic.branch_coverage < 1
        extra = measure_coverage("sqlite", [["SELECT abs(-1), upper('x')"]])
        union = combine_reports("sqlite", [basic, extra])
        assert union.branch_coverage >= basic.branch_coverage
        assert union.line_coverage >= basic.line_coverage

    def test_line_coverage_at_least_branch(self):
        report = measure_coverage("duckdb", [["SELECT 1 + 1", "SELECT range(3)"]])
        assert report.line_coverage >= report.branch_coverage

    def test_empty_report(self):
        report = CoverageReport(dialect="sqlite")
        assert report.branch_coverage == 0.0


class TestReportFormatting:
    def test_format_table_alignment(self):
        text = format_table(["Name", "Value"], [["a", 1], ["long-name", 2.5]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert "long-name" in lines[3]

    def test_format_percentage(self):
        assert format_percentage(0.5145) == "51.45%"

    def test_format_heatmap(self):
        text = format_heatmap(["slt"], ["sqlite", "mysql"], {("slt", "sqlite"): 1.0, ("slt", "mysql"): 0.9999})
        assert "100.00%" in text and "99.99%" in text

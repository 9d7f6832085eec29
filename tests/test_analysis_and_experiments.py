"""RQ1/RQ2 analysis modules and the per-table/figure experiment drivers."""

import pytest

from repro.analysis import (
    count_runner_commands,
    file_size_distribution,
    join_usage,
    predicate_distribution,
    runner_feature_matrix,
    size_summary,
    standard_compliance,
    statement_type_distribution,
)
from repro.experiments import EXPERIMENTS, ExperimentContext, run_experiment


class TestAnalysis:
    def test_runner_feature_matrix_matches_table2(self):
        matrix = runner_feature_matrix()
        assert matrix["sqlite"]["runner_commands"] == 4
        assert matrix["mysql"]["runner_commands"] == 112
        assert matrix["postgres"]["cli_commands"] == 114
        assert matrix["duckdb"]["runner_commands"] == 16

    def test_count_runner_commands_on_corpora(self, small_slt_suite, small_duckdb_suite):
        slt_census = count_runner_commands(small_slt_suite)
        assert "Skiptest" in slt_census["feature_families"]
        duckdb_census = count_runner_commands(small_duckdb_suite)
        assert duckdb_census["distinct_commands"] >= 1

    def test_statement_distribution_sums_to_one(self, small_postgres_suite):
        distribution = statement_type_distribution(small_postgres_suite)
        assert abs(sum(distribution.values()) - 1.0) < 1e-6
        assert "SELECT" in distribution

    def test_standard_compliance_ordering(self, small_slt_suite, small_postgres_suite):
        slt = standard_compliance(small_slt_suite)
        postgres = standard_compliance(small_postgres_suite)
        assert slt.standard_share > postgres.standard_share

    def test_predicate_distribution(self, small_slt_suite):
        distribution = predicate_distribution(small_slt_suite)
        assert abs(sum(distribution.values()) - 1.0) < 1e-6
        assert distribution["0"] > 0.4  # most SELECTs have no WHERE clause

    def test_join_usage(self, small_slt_suite):
        usage = join_usage(small_slt_suite)
        assert usage.total_selects > 0
        assert 0.0 <= usage.join_share <= 1.0

    def test_file_sizes(self, small_slt_suite, small_duckdb_suite):
        slt_summary = size_summary(small_slt_suite)
        duckdb_summary = size_summary(small_duckdb_suite)
        assert slt_summary.mean > duckdb_summary.mean
        assert len(file_size_distribution(small_slt_suite)) == len(small_slt_suite.files)


class TestAnalysisBugfixes:
    """Regression pins for the RQ1/RQ2 scanner bugfixes."""

    def test_conditions_are_censused_separately_from_commands(self):
        # skipif/onlyif are guards on SQL records, not runner commands: they
        # must not inflate distinct_commands, but still witness Skiptest
        from repro.core.records import Condition, ControlRecord, StatementRecord, TestFile, TestSuite

        test_file = TestFile(path="crafted.test", suite="slt", source_lines=4)
        test_file.records = [
            ControlRecord(command="hash-threshold", arguments="8"),
            StatementRecord(sql="SELECT 1", conditions=[Condition(kind="skipif", dbms="mysql")]),
            StatementRecord(sql="SELECT 2", conditions=[Condition(kind="onlyif", dbms="sqlite")]),
            StatementRecord(sql="SELECT 3", conditions=[Condition(kind="skipif", dbms="oracle")]),
        ]
        census = count_runner_commands(TestSuite(name="slt", files=[test_file]))
        assert census["distinct_commands"] == 1
        assert census["command_counts"] == {"hash-threshold": 1}
        assert census["condition_counts"] == {"skipif": 2, "onlyif": 1}
        assert "Skiptest" in census["feature_families"]

    def test_log_histogram_gives_zero_line_files_a_bucket(self):
        from repro.analysis.filesize import log_histogram

        sizes = [0, 0, 1, 9, 10, 150, 0]
        histogram = log_histogram(sizes)
        assert histogram["0"] == 3
        assert histogram["1-10"] == 2
        # per-bucket sums always account for every file
        assert sum(histogram.values()) == len(sizes)
        assert sum(log_histogram([]).values()) == 0

    def test_all_empty_suite_geometric_mean_is_zero(self):
        from repro.analysis.filesize import summarize_sizes

        # no positive sizes -> no typical size, not a typical size of one line
        assert summarize_sizes("empty", [0, 0, 0]).geometric_mean == 0.0
        assert summarize_sizes("none", []).geometric_mean == 0.0
        assert summarize_sizes("mixed", [0, 10, 1000]).geometric_mean == pytest.approx(100.0)

    def test_as_row_rounds_float_cells(self):
        from repro.analysis.filesize import SizeSummary

        summary = SizeSummary(
            suite="s", file_count=3, minimum=1, maximum=20, mean=7.9, median=6.7, geometric_mean=5.0
        )
        # 6.7 -> 7 and 7.9 -> 8; truncation would report 6 and 7
        assert summary.as_row() == ["s", 3, 1, 7, 8, 20]


@pytest.fixture(scope="module")
def tiny_context():
    # A very small campaign: enough to exercise every experiment end-to-end.
    return ExperimentContext(scale=0.12, seed=11)


class TestExperiments:
    def test_registry_covers_every_table_and_figure(self):
        expected = {f"table{i}" for i in range(1, 9)} | {f"figure{i}" for i in range(1, 5)} | {"bugs", "ablations"}
        assert expected == set(EXPERIMENTS)

    def test_unknown_experiment_raises(self):
        with pytest.raises(KeyError):
            run_experiment("table99")

    @pytest.mark.parametrize("experiment_id", ["table1", "table2", "figure1", "figure2", "table3", "figure3"])
    def test_static_experiments_run(self, tiny_context, experiment_id):
        result = run_experiment(experiment_id, tiny_context)
        assert result.text
        assert result.data

    @pytest.mark.parametrize("experiment_id", ["table4", "table5", "figure4", "table6", "table7", "bugs"])
    def test_execution_experiments_run(self, tiny_context, experiment_id):
        result = run_experiment(experiment_id, tiny_context)
        assert result.text
        assert result.data

    def test_figure4_shape(self, tiny_context):
        result = run_experiment("figure4", tiny_context)
        measured = result.data["measured"]
        assert measured["slt->duckdb"] > measured["postgres->duckdb"]
        assert measured["slt->mysql"] > measured["duckdb->mysql"]

    def test_bugs_experiment_finds_crashes_and_hangs(self, tiny_context):
        result = run_experiment("bugs", tiny_context)
        assert result.data["crash_count"] >= 2
        assert result.data["hang_count"] >= 2

    def test_table8_union_covers_at_least_original(self, tiny_context):
        result = run_experiment("table8", tiny_context)
        for engine, entry in result.data.items():
            original_line, original_branch = entry["measured"]["original"]
            union_line, union_branch = entry["measured"]["squality"]
            assert union_line >= original_line
            assert union_branch >= original_branch

    def test_cli_main_list(self, capsys):
        from repro.experiments.__main__ import main

        assert main(["--list"]) == 0
        captured = capsys.readouterr()
        assert "table4" in captured.out

    def test_storeless_ablations_write_nothing_to_the_default_store(self, tmp_path, monkeypatch):
        """The float-tolerance cell runs with the context's store: under
        ``use_store=False`` (the CLI's ``--no-store``) the process-default
        store — ``REPRO_STORE_DIR`` — must stay untouched."""
        from repro.store import set_default_store

        default_root = tmp_path / "default-store"
        monkeypatch.setenv("REPRO_STORE_DIR", str(default_root))
        previous = set_default_store(None)  # re-created lazily from the environment
        try:
            with ExperimentContext(scale=0.05, seed=11, use_store=False) as context:
                result = run_experiment("ablations", context)
        finally:
            set_default_store(previous)
        assert result.data["float_tolerance"]["tolerant_failed"] <= result.data["float_tolerance"]["exact_failed"]
        assert not default_root.exists() or not any(path.is_file() for path in default_root.rglob("*"))

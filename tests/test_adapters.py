"""Adapter layer tests: sqlite3, MiniDB adapters, registry, fault reports."""

import pytest

from repro.adapters import (
    ExecutionStatus,
    MiniDBAdapter,
    SQLite3Adapter,
    available_adapters,
    create_adapter,
)
from repro.adapters.faults import FaultReport, FaultSummary
from repro.core.records import StatementRecord, TestFile
from repro.core.runner import SuiteResult, TestRunner
from repro.dialects import ALL_DIALECTS
from repro.errors import AdapterNotFoundError
from repro.store.codec import fault_reports_for


class TestRegistry:
    def test_available_adapters_contains_all_hosts(self):
        names = available_adapters()
        for name in ("sqlite", "postgres", "duckdb", "mysql", "sqlite-mini"):
            assert name in names

    def test_create_adapter_unknown_raises(self):
        with pytest.raises(AdapterNotFoundError):
            create_adapter("oracle")

    def test_create_adapter_returns_correct_dialect(self):
        adapter = create_adapter("duckdb")
        assert adapter.dialect.name == "duckdb"
        adapter = create_adapter("sqlite")
        assert isinstance(adapter, SQLite3Adapter)


class TestSQLite3Adapter:
    def test_query_and_statement(self, sqlite3_adapter):
        assert sqlite3_adapter.execute("CREATE TABLE t(a INTEGER)").ok
        assert sqlite3_adapter.execute("INSERT INTO t VALUES (1), (2)").ok
        outcome = sqlite3_adapter.execute("SELECT a FROM t ORDER BY a")
        assert outcome.ok and outcome.columns
        assert outcome.rows == [[1], [2]]
        assert outcome.rendered == [["1"], ["2"]]

    def test_error_is_reported_not_raised(self, sqlite3_adapter):
        outcome = sqlite3_adapter.execute("SELECT * FROM missing")
        assert outcome.status is ExecutionStatus.ERROR
        assert "no such table" in outcome.error

    def test_reset_clears_state(self, sqlite3_adapter):
        sqlite3_adapter.execute("CREATE TABLE t(a INTEGER)")
        sqlite3_adapter.reset()
        assert sqlite3_adapter.execute("SELECT * FROM t").status is ExecutionStatus.ERROR

    def test_integer_division_matches_paper(self, sqlite3_adapter):
        assert sqlite3_adapter.execute("SELECT 62 / -2").rows == [[-31]]

    def test_context_manager(self):
        with SQLite3Adapter() as adapter:
            assert adapter.execute("SELECT 1").rows == [[1]]


class TestMiniDBAdapter:
    def test_execute_and_render(self, duckdb_adapter):
        duckdb_adapter.execute("CREATE TABLE t(a INTEGER)")
        duckdb_adapter.execute("INSERT INTO t VALUES (1)")
        outcome = duckdb_adapter.execute("SELECT a, a / 2 FROM t")
        assert outcome.rows == [[1, 0.5]]

    def test_error_outcome(self, duckdb_adapter):
        outcome = duckdb_adapter.execute("SELECT nonexistent_function_xyz(1)")
        assert outcome.status is ExecutionStatus.ERROR
        assert outcome.error_type == "UnsupportedFunctionError"

    def test_crash_outcome_and_reset(self):
        adapter = MiniDBAdapter("duckdb")
        adapter.connect()
        outcome = adapter.execute("ALTER SCHEMA a RENAME TO b")
        assert outcome.status is ExecutionStatus.CRASH
        adapter.reset()
        assert adapter.execute("SELECT 1").ok

    def test_hang_outcome(self):
        adapter = MiniDBAdapter("mysql")
        adapter.connect()
        adapter.execute("CREATE TABLE tj(a INTEGER)")
        adapter.execute("INSERT INTO tj VALUES (1)")
        aliases = ", ".join(f"tj AS a{i}" for i in range(1, 43))
        outcome = adapter.execute(f"SELECT count(*) FROM {aliases}")
        assert outcome.status is ExecutionStatus.HANG

    def test_syntax_error_outcome(self, duckdb_adapter):
        outcome = duckdb_adapter.execute("SELEC 1")
        assert outcome.status is ExecutionStatus.ERROR

    def test_execute_after_a_crash_finds_the_connection_gone(self):
        adapter = MiniDBAdapter("duckdb")
        adapter.connect()
        assert adapter.execute("SELECT 1").ok
        assert adapter.execute("ALTER SCHEMA a RENAME TO b").status is ExecutionStatus.CRASH
        gone = adapter.execute("SELECT 2")
        assert gone.status is ExecutionStatus.CRASH
        assert "gone" in gone.error

    def test_features_exercised_accumulate(self, duckdb_adapter):
        duckdb_adapter.execute("SELECT 1 + 1")
        assert "operator.+" in duckdb_adapter.features_exercised


class TestFaultReporting:
    def test_known_fault_signatures_cover_paper_listings(self):
        signatures = {name: profile.fault_signatures for name, profile in ALL_DIALECTS.items() if profile.fault_signatures}
        assert sorted(signatures) == ["duckdb", "mysql", "sqlite"]
        assert len(signatures["duckdb"]) == 3
        assert len(signatures["mysql"]) == 2
        assert len(signatures["sqlite"]) == 1
        kinds = [signature.kind for signature in signatures["duckdb"]]
        assert kinds.count("crash") == 2 and kinds.count("hang") == 1

    def test_collect_fault_reports(self):
        statements = ["SELECT 1", "ALTER SCHEMA a RENAME TO b", "SELECT 2"]
        test_file = TestFile(path="a.test", suite="duckdb", records=[StatementRecord(sql=sql) for sql in statements])
        result = SuiteResult("duckdb", "duckdb")
        result.files.append(TestRunner(MiniDBAdapter("duckdb"), host_name="duckdb").run_file(test_file))
        crashes, hangs = fault_reports_for(result, "duckdb")
        assert [(report.kind, report.statement) for report in crashes] == [("crash", "ALTER SCHEMA a RENAME TO b")]
        assert hangs == []

    def test_fault_summary_deduplicates(self):
        summary = FaultSummary()
        summary.add(FaultReport(dbms="duckdb", kind="crash", statement="s1", message="same"))
        summary.add(FaultReport(dbms="duckdb", kind="crash", statement="s2", message="same"))
        summary.add(FaultReport(dbms="mysql", kind="hang", statement="s3", message="other"))
        assert summary.unique_crashes() == 1
        assert summary.unique_hangs() == 1


class TestRegistryReRegistration:
    def test_re_registering_a_name_retargets_its_aliases(self):
        from repro.adapters.registry import _ENTRIES, _NAMES, get_adapter_entry, register_adapter
        from repro.adapters.minidb_adapter import MiniDBAdapter

        register_adapter("temp-db", lambda **kwargs: MiniDBAdapter("sqlite", **kwargs), aliases=("tempdb",))
        try:
            first = get_adapter_entry("tempdb")
            register_adapter("temp-db", lambda **kwargs: MiniDBAdapter("duckdb", **kwargs), aliases=("tempdb",))
            # the alias must follow the replacement, not the stale entry
            assert get_adapter_entry("tempdb") is not first
            assert create_adapter("tempdb").dialect.name == "duckdb"
            assert create_adapter("temp-db").dialect.name == "duckdb"
        finally:
            _ENTRIES.pop("temp-db", None)
            _NAMES.pop("temp-db", None)
            _NAMES.pop("tempdb", None)

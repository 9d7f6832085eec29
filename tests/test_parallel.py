"""Tests for sharded suite execution (repro.core.parallel).

The satellite requirement: ``workers=1`` and ``workers=4`` must produce
byte-identical results — canonical serialization, not just matching
aggregates — on an SLT→duckdb and a postgres→mysql transplant.  The
comparison itself is the shared differential harness
(:func:`test_differential.assert_equivalent`); this file covers the
shard/merge machinery, fallbacks, and worker bookkeeping around it.
"""

from __future__ import annotations

import errno

import pytest

from test_differential import assert_equivalent

from repro.adapters.base import DBMSAdapter, ExecutionOutcome, ExecutionStatus
from repro.core.parallel import (
    RunnerSpec,
    WorkerPool,
    _is_pool_infra_error,
    run_suite_sharded,
    runner_spec_for,
)
from repro.core.runner import TestRunner
from repro.core.transplant import CellKey, run_cells, run_transplant
from repro.corpus import build_suite
from repro.perf import cache as perf_cache


@pytest.fixture(autouse=True)
def _fresh_caches():
    perf_cache.clear_caches()
    yield
    perf_cache.clear_caches()


class TestShardedParity:
    # store=None throughout: a persisted matrix cell would serve the second
    # run wholesale and the shard/merge machinery under test would never run

    @pytest.mark.parametrize("executor", ["thread", "process", "auto"])
    def test_slt_on_duckdb_workers_4_matches_serial(self, executor):
        suite = build_suite("slt", file_count=4, records_per_file=30, seed=11)
        with perf_cache.caching_disabled():
            serial = run_transplant(suite, "duckdb", store=None)
        assert_equivalent(
            {
                "serial-uncached": serial,
                "workers-4": lambda: run_transplant(suite, "duckdb", workers=4, executor=executor, store=None),
            }
        )

    def test_postgres_suite_on_mysql_with_translation(self):
        suite = build_suite("postgres", file_count=4, records_per_file=30, seed=5)
        with perf_cache.caching_disabled():
            serial = run_transplant(suite, "mysql", translate_dialect=True, store=None)
        assert_equivalent(
            {
                "serial-uncached": serial,
                "workers-4": lambda: run_transplant(suite, "mysql", translate_dialect=True, workers=4, store=None),
            }
        )

    def test_per_file_ordering_is_preserved(self):
        suite = build_suite("slt", file_count=5, records_per_file=20, seed=3)
        parallel = run_transplant(suite, "duckdb", workers=3, executor="thread", store=None)
        assert [f.path for f in parallel.result.files] == [tf.path for tf in suite.files]

    def test_more_workers_than_files(self):
        suite = build_suite("slt", file_count=2, records_per_file=15, seed=9)
        assert_equivalent(
            {
                "serial": lambda: run_transplant(suite, "duckdb", store=None),
                "workers-8": lambda: run_transplant(suite, "duckdb", workers=8, executor="thread", store=None),
            }
        )


class TestShardedRunReport:
    def test_workers_1_runs_serially(self):
        """One worker runs the whole suite as a single shard, file after file."""
        suite = build_suite("slt", file_count=2, records_per_file=10, seed=1)
        spec = RunnerSpec(adapter_name="duckdb", host_name="duckdb", donor_dialect="slt")
        report = run_suite_sharded(suite, spec, workers=1, executor="thread")
        assert report.workers == 1
        assert [file_result.path for file_result in report.result.files] == [test_file.path for test_file in suite.files]
        assert report.result.total_cases == suite.total_records - sum(
            len(tf.control_records()) for tf in suite.files
        )

    def test_thread_pool_reports_cache_stats(self):
        suite = build_suite("slt", file_count=3, records_per_file=15, seed=2)
        spec = RunnerSpec(adapter_name="duckdb", host_name="duckdb", donor_dialect="slt")
        report = run_suite_sharded(suite, spec, workers=3, executor="thread")
        assert report.executor == "thread"
        assert "plan" in report.cache_stats
        assert report.cache_stats["plan"]["misses"] > 0

    def test_process_pool_worker_stats_are_absorbed_by_parent(self):
        suite = build_suite("slt", file_count=3, records_per_file=15, seed=2)
        spec = RunnerSpec(adapter_name="duckdb", host_name="duckdb", donor_dialect="slt")
        report = run_suite_sharded(suite, spec, workers=3, executor="process")
        parent = perf_cache.cache_stats()
        if report.executor == "process":
            # worker-side cache activity must be visible in the parent's stats
            assert parent["plan"]["hits"] + parent["plan"]["misses"] > 0
        else:  # pool bootstrap degraded (sandboxed env): thread stats are global anyway
            assert parent["plan"]["misses"] > 0


class _UnforkableAdapter(DBMSAdapter):
    """An adapter the registry cannot rebuild (fork_config -> None)."""

    name = "unforkable"

    def __init__(self):
        from repro.dialects import ALL_DIALECTS

        self.dialect = ALL_DIALECTS["sqlite"]

    def fork_config(self):
        return None

    def connect(self) -> None:
        pass

    def reset(self) -> None:
        pass

    def close(self) -> None:
        pass

    def execute(self, sql: str) -> ExecutionOutcome:
        return ExecutionOutcome(status=ExecutionStatus.OK, statement=sql)


class TestFallbacks:
    def test_unforkable_adapter_falls_back_to_serial(self):
        suite = build_suite("slt", file_count=2, records_per_file=10, seed=4)
        adapter = _UnforkableAdapter()
        assert runner_spec_for(TestRunner(adapter, host_name="sqlite")) is None
        # no worker can rebuild the adapter: the cell runs serially on it
        result = run_transplant(suite, "sqlite", adapter=adapter, workers=4).result
        assert len(result.files) == len(suite.files)
        assert result.total_cases > 0

    def test_unregistered_adapter_name_falls_back_to_serial(self):
        class Named(_UnforkableAdapter):
            def fork_config(self):
                return ("no-such-adapter", {})

        runner = TestRunner(Named(), host_name="sqlite")
        assert runner_spec_for(runner) is None


class TestMatrixDonorReuse:
    def test_translated_matrix_reuses_donor_entries_when_cached(self):
        suite = build_suite("slt", file_count=2, records_per_file=15, seed=6)
        suites = {"slt": suite}
        cells = [CellKey("slt", host, translate) for translate in (False, True) for host in ("sqlite", "duckdb")]
        plain_donor, plain_duckdb, translated_donor, translated_duckdb = run_cells(suites, cells)
        # donor == sqlite for the slt suite: the entry is reused by reference
        assert translated_donor is plain_donor
        assert translated_duckdb is not plain_duckdb

    def test_donor_reuse_is_disabled_with_caching_off(self):
        suite = build_suite("slt", file_count=2, records_per_file=15, seed=6)
        suites = {"slt": suite}
        with perf_cache.caching_disabled():
            plain, translated = run_cells(suites, [CellKey("slt", "sqlite"), CellKey("slt", "sqlite", translate=True)])
            assert translated is not plain
            # and the recomputed donor run is still identical
            assert_equivalent(
                {
                    "plain-donor-run": plain.result,
                    "recomputed-donor-run": translated.result,
                }
            )


def _raise_eio(value):
    raise OSError(errno.EIO, "user code hit a failing disk")


class TestPoolInfraClassification:
    """Only pool-infrastructure OSErrors may trigger the thread fallback."""

    def test_user_code_oserror_is_reported_not_retried_as_infra(self):
        # a genuine I/O failure raised *by the task* must propagate with its
        # errno intact — and must not degrade the pool, which would silently
        # re-run the failing work on threads
        pool = WorkerPool(2, "process")
        try:
            with pytest.raises(OSError) as excinfo:
                pool.map_tasks(_raise_eio, [(1,), (2,)])
            assert excinfo.value.errno == errno.EIO
            assert pool.flavour == "process"
        finally:
            pool.shutdown()

    def test_errno_whitelist_is_narrow(self):
        # bootstrap breakage in sandboxes: recoverable by degrading
        assert _is_pool_infra_error(OSError(errno.ENOSYS, "sem_open unavailable"))
        assert _is_pool_infra_error(OSError(errno.EPERM, "fork forbidden"))
        # real-world I/O failures: genuine errors, never infra
        assert not _is_pool_infra_error(OSError(errno.EIO, "disk failing"))
        assert not _is_pool_infra_error(OSError(errno.ENOSPC, "disk full"))
        assert not _is_pool_infra_error(OSError("no errno at all"))

"""Tests for sharded suite execution (repro.core.parallel).

The satellite requirement: a run without a worker pool and one on a
four-worker pool must produce byte-identical results — canonical
serialization, not just matching aggregates — on an SLT→duckdb and a
postgres→mysql transplant.  The comparison itself is the shared
differential harness (:func:`test_differential.assert_equivalent`); this
file covers the shard/merge machinery, fallbacks, and worker-pool
bookkeeping around it.
"""

from __future__ import annotations

import errno
import os

import pytest

from test_differential import assert_equivalent, on_pool

from repro.adapters.base import DBMSAdapter, ExecutionOutcome, ExecutionStatus
from repro.adapters import registry
from repro.adapters.pool import AdapterPool
from repro.core import parallel
from repro.core.parallel import WorkerPool, _is_pool_infra_error, fan_out, runner_spec_for
from repro.core.resilience import ResiliencePolicy
from repro.core.runner import TestRunner
from repro.core.transplant import CellKey, run_cells, run_transplant
from repro.corpus import build_suite
from repro.experiments import ExperimentContext
from repro.experiments.stream import run_batch
from repro.perf import cache as perf_cache


@pytest.fixture(autouse=True)
def _fresh_caches():
    perf_cache.clear_caches()
    yield
    perf_cache.clear_caches()


class TestShardedParity:
    # store=None throughout: a persisted matrix cell would serve the second
    # run wholesale and the shard/merge machinery under test would never run

    # "process" shards over a four-worker pool; "thread" also arms the
    # per-file watchdog, so every file executes on a watchdog helper thread
    # inside its worker
    @pytest.mark.parametrize("lane", ["thread", "process"])
    def test_slt_on_duckdb_workers_4_matches_serial(self, lane):
        suite = build_suite("slt", file_count=4, records_per_file=30, seed=11)
        with perf_cache.caching_disabled():
            serial = run_transplant(suite, "duckdb", store=None)
        resilience = ResiliencePolicy(watchdog_seconds=60.0) if lane == "thread" else None
        with WorkerPool(4) as pool:
            assert_equivalent(
                {
                    "serial-uncached": serial,
                    "workers-4": lambda: run_transplant(
                        suite, "duckdb", worker_pool=pool, store=None, resilience=resilience
                    ),
                }
            )
            assert not pool.in_process

    def test_postgres_suite_on_mysql_with_translation(self):
        suite = build_suite("postgres", file_count=4, records_per_file=30, seed=5)
        with perf_cache.caching_disabled():
            serial = run_transplant(suite, "mysql", translate_dialect=True, store=None)
        assert_equivalent(
            {
                "serial-uncached": serial,
                "workers-4": lambda: on_pool(4, run_transplant, suite, "mysql", translate_dialect=True, store=None),
            }
        )

    def test_per_file_ordering_is_preserved(self):
        suite = build_suite("slt", file_count=5, records_per_file=20, seed=3)
        parallel = on_pool(3, run_transplant, suite, "duckdb", store=None)
        assert [f.path for f in parallel.result.files] == [tf.path for tf in suite.files]

    def test_more_workers_than_files(self):
        suite = build_suite("slt", file_count=2, records_per_file=15, seed=9)
        assert_equivalent(
            {
                "serial": lambda: run_transplant(suite, "duckdb", store=None),
                "workers-8": lambda: on_pool(8, run_transplant, suite, "duckdb", store=None),
            }
        )


class TestShardedRunReport:
    def test_process_pool_worker_stats_are_absorbed_by_parent(self):
        suite = build_suite("slt", file_count=3, records_per_file=15, seed=2)
        perf_cache.clear_caches()  # drop what building the corpus counted here
        with WorkerPool(3) as pool:
            run_transplant(suite, "duckdb", worker_pool=pool, store=None)
            assert not pool.in_process
        # the shards ran in worker processes, whose cache activity must be
        # visible in the parent's stats
        parent = perf_cache.cache_stats()
        assert parent["plan"]["hits"] + parent["plan"]["misses"] > 0


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
    def test_unforkable_adapter_falls_back_to_serial(self, monkeypatch, tmp_path):
        from repro.store import ArtifactStore

        monkeypatch.setattr(registry, "_ENTRIES", dict(registry._ENTRIES))
        monkeypatch.setattr(registry, "_NAMES", dict(registry._NAMES))
        registry.register_adapter("unforkable", _UnforkableAdapter)
        suite = build_suite("slt", file_count=2, records_per_file=10, seed=4, store=None)
        assert runner_spec_for(TestRunner(_UnforkableAdapter(), host_name="sqlite")) is None
        store = ArtifactStore(root=tmp_path / "store", fingerprint="unforkable-fp")
        # no worker can rebuild the adapter and no key can name its results:
        # the cell runs in this process, storeless
        result = on_pool(4, run_transplant, suite, "unforkable", store=store).result
        assert len(result.files) == len(suite.files)
        assert result.total_cases > 0
        assert store.stats.lookups == 0
        assert not (store.root / "file-results").exists()

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
    """Only pool-infrastructure OSErrors may send the pool's work in-process."""

    def test_user_code_oserror_is_reported_not_retried_as_infra(self):
        # a genuine I/O failure raised *by the task* must propagate with its
        # errno intact — and must not move the pool in-process, which would
        # silently re-run the failing work here
        pool = WorkerPool(2)
        try:
            with pytest.raises(OSError) as excinfo:
                pool.map_tasks(_raise_eio, [(1,), (2,)])
            assert excinfo.value.errno == errno.EIO
            assert not pool.in_process
        finally:
            pool.shutdown()

    def test_pool_that_cannot_start_finishes_in_process(self, monkeypatch):
        def no_semaphores(*args, **kwargs):
            raise OSError(errno.ENOSYS, "sem_open unavailable")

        suite = build_suite("slt", file_count=3, records_per_file=10, seed=12)
        serial = run_transplant(suite, "duckdb", store=None)
        monkeypatch.setattr(parallel, "ProcessPoolExecutor", no_semaphores)
        live: list[DBMSAdapter] = []
        setup, teardown = DBMSAdapter.setup, DBMSAdapter.teardown
        monkeypatch.setattr(DBMSAdapter, "setup", lambda adapter: (setup(adapter), live.append(adapter)))
        monkeypatch.setattr(DBMSAdapter, "teardown", lambda adapter: (teardown(adapter), live.remove(adapter)))
        pool = WorkerPool(2)
        adapters = AdapterPool()
        try:
            assert_equivalent(
                {
                    "serial": serial,
                    "unstartable-pool": lambda: run_transplant(suite, "duckdb", worker_pool=pool, store=None),
                    "in-process-pool": lambda: run_transplant(
                        suite, "duckdb", worker_pool=pool, pool=adapters, store=None
                    ),
                }
            )
            assert pool.in_process
            # the shards finished here left no live adapter behind, and a
            # later cell ran its misses on the campaign's own adapter pool
            assert adapters.created == 1 and len(live) == 1
            adapters.close()
            assert live == []
        finally:
            adapters.close()
            pool.shutdown()

    def test_errno_whitelist_is_narrow(self):
        # bootstrap breakage in sandboxes: recoverable by finishing in-process
        assert _is_pool_infra_error(OSError(errno.ENOSYS, "sem_open unavailable"))
        assert _is_pool_infra_error(OSError(errno.EPERM, "fork forbidden"))
        # real-world I/O failures: genuine errors, never infra
        assert not _is_pool_infra_error(OSError(errno.EIO, "disk failing"))
        assert not _is_pool_infra_error(OSError(errno.ENOSPC, "disk full"))
        assert not _is_pool_infra_error(OSError("no errno at all"))


@pytest.fixture
def executors(monkeypatch):
    """Every ``ProcessPoolExecutor`` the worker pools build, in build order."""
    built = []
    real = parallel.ProcessPoolExecutor

    def counting(*args, **kwargs):
        executor = real(*args, **kwargs)
        built.append(executor)
        return executor

    monkeypatch.setattr(parallel, "ProcessPoolExecutor", counting)
    return built


class TestOnePool:
    """The worker pool is the one parallelism input, and it forks only to fan out."""

    def test_fan_out_without_a_pool_or_with_one_task_runs_here(self, executors):
        here = os.getpid()
        assert fan_out(None, os.getpid, [(), (), ()]) == [here] * 3
        with WorkerPool(2) as pool:
            assert fan_out(pool, os.getpid, [()]) == [here]
            assert fan_out(pool, os.getpid, []) == []
        assert executors == []

    def test_context_that_runs_nothing_starts_no_process(self, executors):
        with ExperimentContext(scale=0.06, seed=7, workers=2, use_store=False) as context:
            assert context.worker_pool.workers == 2
        assert executors == []
        with ExperimentContext(workers=1) as serial:
            assert serial.worker_pool is None

    def test_storeless_batch_shares_one_executor(self, executors, monkeypatch):
        fanned = []
        map_tasks = WorkerPool.map_tasks

        def counting(pool, fn, tasks, retry_tasks=None):
            fanned.append(fn.__name__)
            return map_tasks(pool, fn, tasks, retry_tasks=retry_tasks)

        monkeypatch.setattr(WorkerPool, "map_tasks", counting)
        with ExperimentContext(scale=0.06, seed=7, workers=2, use_store=False) as context:
            results = run_batch(["table2", "table4"], context)
        assert [result.experiment_id for result in results] == ["table2", "table4"]
        # donor recording and every cell's shards ran on the context's pool,
        # which built its executor once
        assert {"_generate_file", "_run_shard"} <= set(fanned)
        assert len(executors) == 1

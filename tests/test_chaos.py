"""Chaos tests: the resilience layer under deterministic injected faults.

Every schedule here is seeded from ``REPRO_CHAOS_SEED`` (default 0) so a CI
failure reproduces exactly by exporting the printed seed.  The acceptance
gates of the resilience layer live here:

* recoverable (transient) faults are *invisible*: the campaign retries and the
  result is byte-identical to a fault-free run, serial and sharded alike;
* unrecoverable faults degrade gracefully: the campaign completes with the
  broken adapter quarantined, the affected cells partial, and structured
  ``infra_failures`` describing what happened;
* a wedged adapter is cut off by the watchdog and surfaces as HANG;
* artifact-store I/O errors demote the campaign to storeless mode without
  changing a single result byte;
* re-running a degraded campaign against its store re-executes only the
  degraded cells' files.

Chaos campaigns run without a worker pool unless a test says otherwise: a
forked worker process inherits the injected chaos factories but counts
faults on its own copy of the schedule, which the parent never sees.
"""

from __future__ import annotations

import logging
import os
import time
from contextlib import ExitStack, nullcontext
from types import SimpleNamespace

import pytest

from test_differential import assert_equivalent, on_pool

from repro.adapters.pool import AdapterPool, adapter_breaker, pool_key
from repro.core.parallel import WorkerPool
from repro.core.records import TestSuite
from repro.core.resilience import (
    InfraFailure,
    ResiliencePolicy,
    RetryPolicy,
    configured_watchdog_seconds,
    default_policy,
    default_timeout_seconds,
    run_with_deadline,
    set_default_timeout,
)
from repro.core.runner import RecordOutcome
from repro.core.transplant import run_matrix, run_transplant
from repro.corpus import build_suite
from repro.errors import AdapterQuarantinedError, WatchdogTimeout
from repro.store import ArtifactStore, decode_document, encode_document
from repro.testing.chaos import ChaosAdapter, ChaosError, ChaosStore, FaultSchedule, FaultSpec, inject_adapter

#: export REPRO_CHAOS_SEED=<n> to replay a CI failure exactly
CHAOS_SEED = int(os.environ.get("REPRO_CHAOS_SEED", "0"))

#: near-zero backoff so retry schedules don't slow the test suite down
FAST_RETRY = RetryPolicy(attempts=3, base_delay=0.001, max_delay=0.002, jitter=0.0, seed=CHAOS_SEED)
FAST_POLICY = ResiliencePolicy(retry=FAST_RETRY, quarantine_after=3)


@pytest.fixture(autouse=True)
def _resilience_hygiene():
    """Chaos must never leak into (or inherit from) neighbouring tests."""
    adapter_breaker().reset()
    set_default_timeout(None)
    yield
    adapter_breaker().reset()
    set_default_timeout(None)


@pytest.fixture(scope="module")
def slt_suite():
    return build_suite("slt", file_count=4, records_per_file=20, seed=23, store=None)


@pytest.fixture(scope="module")
def postgres_suite():
    return build_suite("postgres", file_count=3, records_per_file=15, seed=23, store=None)


class TestRecoverableFaults:
    """Transient faults retry to byte-identical results (the equivalence gate)."""

    def test_transient_execute_fault_is_invisible_serial_and_sharded(self, slt_suite, tmp_path, monkeypatch):
        # worker processes fire faults on their own copy of the schedule, so
        # every fired fault also leaves a line in a file the parent can read
        witness = tmp_path / "injected"
        tick = FaultSchedule.tick

        def witnessed_tick(schedule, op):
            fault = tick(schedule, op)
            if fault is not None:
                with open(witness, "a", encoding="utf-8") as handle:
                    handle.write(f"{os.getpid()} {op}\n")
            return fault

        monkeypatch.setattr(FaultSchedule, "tick", witnessed_tick)

        def chaos_run(workers=None):
            schedule = FaultSchedule([FaultSpec(op="execute", at=7)], seed=CHAOS_SEED)

            def invoke():
                witness.unlink(missing_ok=True)
                # the pool forks inside the injection block, so its workers
                # inherit the chaos factory
                with inject_adapter("duckdb", schedule), WorkerPool(workers) if workers else nullcontext() as pool:
                    result = run_transplant(slt_suite, "duckdb", store=None, worker_pool=pool, resilience=FAST_POLICY)
                assert witness.exists(), "the scheduled fault never fired"
                assert not result.infra_failures, "a recovered fault must leave no failure record"
                return result

            return invoke

        assert_equivalent(
            {
                "fault-free-serial": lambda: run_transplant(slt_suite, "duckdb", store=None),
                "chaos-serial": chaos_run(),
                "chaos-workers-4": chaos_run(workers=4),
            }
        )

    def test_transient_setup_fault_is_invisible(self, slt_suite):
        schedule = FaultSchedule([FaultSpec(op="setup", at=1)], seed=CHAOS_SEED)

        def chaos():
            with inject_adapter("duckdb", schedule):
                return run_transplant(slt_suite, "duckdb", store=None, resilience=FAST_POLICY)

        results = assert_equivalent(
            {
                "fault-free": lambda: run_transplant(slt_suite, "duckdb", store=None),
                "chaos-setup": chaos,
            }
        )
        assert schedule.injected
        assert not results["chaos-setup"].infra_failures


class TestUnrecoverableFaults:
    """Permanent breakage quarantines the adapter and degrades the campaign."""

    def test_permanently_broken_adapter_completes_with_partial_results(self, slt_suite, postgres_suite):
        suites = {"slt": slt_suite, "postgres": postgres_suite}
        schedule = FaultSchedule([FaultSpec(op="execute", at=1, every=True)], seed=CHAOS_SEED)
        # attempts < quarantine_after so the first broken cell exhausts its
        # retries and the second trips the breaker
        policy = ResiliencePolicy(
            retry=RetryPolicy(attempts=2, base_delay=0.001, max_delay=0.002, jitter=0.0, seed=CHAOS_SEED),
            quarantine_after=3,
        )
        with inject_adapter("duckdb", schedule):
            matrix = run_matrix(suites, hosts=("duckdb", "mysql"), store=None, resilience=policy)

        # the campaign finished: every cell is present
        assert set(matrix.entries) == {(s, h) for s in suites for h in ("duckdb", "mysql")}
        assert not matrix.is_complete()
        assert matrix.incomplete_cells() == [("postgres", "duckdb"), ("slt", "duckdb")]
        kinds = {failure.kind for failure in matrix.infra_failures()}
        assert kinds == {"retry-exhausted", "adapter-quarantined"}
        assert all(failure.host == "duckdb" for failure in matrix.infra_failures())
        assert adapter_breaker().is_quarantined(pool_key("duckdb", {}))

        # degraded cells are partial, not missing: every record reports SKIP
        degraded = matrix.get("slt", "duckdb")
        assert degraded.result.total_cases > 0
        assert degraded.result.skipped_cases == degraded.result.total_cases
        # healthy hosts are untouched
        clean = matrix.get("slt", "mysql")
        assert clean.is_complete and clean.result.total_cases > 0

    def test_unrecovered_fault_degrades_only_its_file(self):
        suite = build_suite("slt", file_count=3, records_per_file=10, seed=31, store=None)
        policy = ResiliencePolicy(retry=RetryPolicy(attempts=1, base_delay=0.001, jitter=0.0, seed=CHAOS_SEED))
        # reset runs once per file: the second call is the second file's
        schedule = FaultSchedule([FaultSpec(op="reset", at=2)], seed=CHAOS_SEED)
        fault_free = run_transplant(suite, "duckdb", store=None)
        with inject_adapter("duckdb", schedule):
            degraded = run_transplant(suite, "duckdb", store=None, resilience=policy)
        assert [(failure.kind, failure.path) for failure in degraded.infra_failures] == [
            ("retry-exhausted", suite.files[1].path)
        ]
        hit = degraded.result.files[1]
        assert hit.results and all(result.outcome is RecordOutcome.SKIP for result in hit.results)
        # the fault's neighbours keep their real results
        kept = [0, 2]
        assert_equivalent(
            {
                "fault-free": [fault_free.result.files[index] for index in kept],
                "degraded": [degraded.result.files[index] for index in kept],
            }
        )

    def test_every_cell_an_experiment_reads_reports_its_failures(self):
        """The ablation's exact and 1%-tolerant DuckDB donor cells both run in
        the streaming pass, so each degraded file of each reaches
        ``infra_failures()`` (and the CLI's exit code 2)."""
        from repro.experiments import ExperimentContext
        from repro.experiments.stream import run_batch

        schedule = FaultSchedule([FaultSpec(op="execute", at=1, every=True)], seed=CHAOS_SEED)
        with ExperimentContext(scale=0.05, seed=11, use_store=False, resilience=FAST_POLICY) as context:
            # donor recording executes on duckdb too: build the corpora first
            files = len(context.suites["duckdb"].files)
            with inject_adapter("duckdb", schedule):
                run_batch(["ablations"], context)
            donor_failures = [failure for failure in context.infra_failures() if (failure.suite, failure.host) == ("duckdb", "duckdb")]
        assert files > 0
        assert len(donor_failures) == 2 * files
        assert len({failure.path for failure in donor_failures}) == files

    def test_quarantined_acquire_raises(self):
        breaker = adapter_breaker()
        key = pool_key("duckdb", {})
        for _ in range(3):
            breaker.record_failure(key, detail="chaos")
        pool = AdapterPool()
        with pytest.raises(AdapterQuarantinedError):
            pool.acquire("duckdb")

    def test_non_transient_errors_propagate_immediately(self, slt_suite, monkeypatch):
        class _Bug(RuntimeError):
            pass

        schedule = FaultSchedule([FaultSpec(op="execute", at=1)], seed=CHAOS_SEED)

        def raise_bug(adapter, op):
            fault = adapter.schedule.tick(op)
            if fault is not None:
                raise _Bug("programming error, not infrastructure")

        # make the injected fault non-transient
        monkeypatch.setattr(ChaosAdapter, "_maybe_fault", raise_bug)
        with inject_adapter("duckdb", schedule):
            with pytest.raises(_Bug):
                run_transplant(slt_suite, "duckdb", store=None, resilience=FAST_POLICY)
        assert schedule.calls("execute") == 1, "a non-transient error must not be retried"


class TestWatchdog:
    """A wedged adapter becomes a HANG outcome, not a stuck campaign."""

    def test_serial_wedge_cut_off_as_hang(self, slt_suite):
        schedule = FaultSchedule([FaultSpec(op="execute", at=3, kind="hang", seconds=2.0)], seed=CHAOS_SEED)
        policy = ResiliencePolicy(retry=FAST_RETRY, watchdog_seconds=0.1)
        started = time.monotonic()
        with inject_adapter("duckdb", schedule):
            result = run_transplant(slt_suite, "duckdb", store=None, resilience=policy)
        assert time.monotonic() - started < 2.0, "the watchdog must not wait out the wedge"
        # the watchdog is per file: the record names the wedged file
        assert [(failure.kind, failure.path) for failure in result.infra_failures] == [
            ("watchdog-timeout", slt_suite.files[0].path)
        ]
        assert result.result.hang_cases >= 1
        assert result.hangs, "the watchdog HANG must surface as a fault report"
        # the other files of the suite still executed normally
        fault_free = run_transplant(slt_suite, "duckdb", store=None)
        assert_equivalent({"fault-free": fault_free.result.files[1:], "after-the-wedge": result.result.files[1:]})
        assert result.result.passed_cases > 0

    def test_sharded_wedge_degrades_one_file(self, slt_suite, tmp_path, monkeypatch):
        # every worker process counts on its own copy of the schedule and
        # would wedge its own 5th statement: the first to create the claim
        # file takes the wedge, every other worker's fault is dropped
        claim = tmp_path / "wedged"
        tick = FaultSchedule.tick

        def tick_once(schedule, op):
            fault = tick(schedule, op)
            if fault is None:
                return None
            try:
                os.close(os.open(claim, os.O_CREAT | os.O_EXCL | os.O_WRONLY))
            except FileExistsError:
                return None
            return fault

        monkeypatch.setattr(FaultSchedule, "tick", tick_once)
        schedule = FaultSchedule([FaultSpec(op="execute", at=5, kind="hang", seconds=2.0)], seed=CHAOS_SEED)
        policy = ResiliencePolicy(retry=FAST_RETRY, watchdog_seconds=0.2)
        with inject_adapter("duckdb", schedule):
            result = on_pool(4, run_transplant, slt_suite, "duckdb", store=None, resilience=policy)
        assert claim.exists(), "the scheduled wedge never fired"
        kinds = [failure.kind for failure in result.infra_failures]
        assert kinds == ["watchdog-timeout"]
        wedged = result.infra_failures[0].path
        assert wedged, "sharded watchdog failures are per-file"
        assert result.result.hang_cases >= 1
        # the other files of the suite still executed normally
        fault_free = run_transplant(slt_suite, "duckdb", store=None)
        others = [index for index, test_file in enumerate(slt_suite.files) if test_file.path != wedged]
        assert len(others) == len(slt_suite.files) - 1
        assert_equivalent(
            {
                "fault-free": [fault_free.result.files[index] for index in others],
                "after-the-wedge": [result.result.files[index] for index in others],
            }
        )
        assert result.result.passed_cases > 0


class TestQuarantineServesStoredFiles:
    """A quarantined host keeps every file the store serves; only misses degrade."""

    #: run_transplant pool arguments per execution mode (built per run so
    #: each run gets its own pools)
    MODES = {
        "serial": lambda: {},
        "adapter-pool": lambda: {"pool": AdapterPool()},
        "workers-2": lambda: {"worker_pool": WorkerPool(2)},
    }

    def _run(self, suite, store, mode):
        """``run_transplant`` on ``mode``'s pools, closed when it returns."""
        with ExitStack() as stack:
            pools = {name: stack.enter_context(pool) for name, pool in self.MODES[mode]().items()}
            return run_transplant(suite, "duckdb", store=store, resilience=FAST_POLICY, **pools)

    @pytest.fixture(scope="class")
    def suite(self):
        return build_suite("slt", file_count=3, records_per_file=10, seed=29, store=None)

    @staticmethod
    def _quarantine_duckdb():
        for _ in range(FAST_POLICY.quarantine_after):
            adapter_breaker().record_failure(pool_key("duckdb", {}), detail="chaos", threshold=FAST_POLICY.quarantine_after)
        assert adapter_breaker().is_quarantined(pool_key("duckdb", {}))

    @pytest.mark.parametrize("mode", sorted(MODES))
    def test_fully_warm_cell_is_served_while_quarantined(self, suite, tmp_path, mode):
        store = ArtifactStore(root=tmp_path / "store", fingerprint="quarantine-fp")
        cold = self._run(suite, store, mode)
        self._quarantine_duckdb()
        results = assert_equivalent({"cold": cold, "warm-quarantined": lambda: self._run(suite, store, mode)})
        assert results["warm-quarantined"].infra_failures == []

    @pytest.mark.parametrize("mode", sorted(MODES))
    def test_only_the_missing_file_degrades(self, suite, tmp_path, mode):
        store = ArtifactStore(root=tmp_path / "store", fingerprint="quarantine-fp")
        stored = TestSuite(name=suite.name, files=suite.files[:2])
        self._run(stored, store, mode)
        reference = run_transplant(suite, "duckdb", store=None)
        self._quarantine_duckdb()

        partial = self._run(suite, store, mode)
        assert_equivalent({"stored": reference.result.files[:2], "served": partial.result.files[:2]})
        missing = partial.result.files[2]
        assert missing.results and all(result.outcome is RecordOutcome.SKIP for result in missing.results)
        assert [(failure.kind, failure.path) for failure in partial.infra_failures] == [
            ("adapter-quarantined", suite.files[2].path)
        ]
        assert adapter_breaker().is_quarantined(pool_key("duckdb", {}))


class TestResume:
    """Re-running a degraded campaign on its store re-enters only the gaps."""

    def test_resume_executes_only_gaps(self, slt_suite, tmp_path):
        suites = {"slt": slt_suite}
        hosts = ("duckdb", "mysql")
        store = ArtifactStore(root=tmp_path / "store", fingerprint="chaos-resume-fp")
        schedule = FaultSchedule([FaultSpec(op="execute", at=1, every=True)], seed=CHAOS_SEED)
        with inject_adapter("duckdb", schedule):
            degraded = run_matrix(suites, hosts=hosts, store=store, resilience=FAST_POLICY)
        assert degraded.incomplete_cells() == [("slt", "duckdb")]

        adapter_breaker().reset()  # operator fixed the infrastructure
        store.stats.reset()
        pool = AdapterPool()
        healed = run_matrix(suites, hosts=hosts, store=store, adapter_pool=pool, resilience=FAST_POLICY)
        assert healed.is_complete()
        # the clean cell loaded every file it persisted; only the degraded
        # cell's files (none of which persisted) executed
        files = len(slt_suite.files)
        assert store.stats.by_namespace["file-results"] == {"hits": files, "misses": files}
        assert pool.stats()["created"] == 1, "the re-run must build an adapter only for the gap"
        # and the healed matrix matches a fresh fault-free campaign exactly
        assert_equivalent(
            {
                "healed": healed,
                "fault-free": lambda: run_matrix(suites, hosts=hosts, store=None),
            }
        )


class TestStoreDegradation:
    """I/O errors demote the store to storeless mode without changing results."""

    def test_io_errors_degrade_store_but_not_results(self, slt_suite, tmp_path, caplog):
        schedule = FaultSchedule(
            [FaultSpec(op="read", at=1, every=True), FaultSpec(op="write", at=1, every=True)],
            seed=CHAOS_SEED,
        )
        store = ChaosStore(root=tmp_path / "store", fingerprint="chaos-fp", schedule=schedule)
        with caplog.at_level(logging.WARNING, logger="repro.store.artifacts"):
            results = assert_equivalent(
                {
                    "storeless": lambda: run_transplant(slt_suite, "duckdb", store=None),
                    "eio-store": lambda: run_transplant(slt_suite, "duckdb", store=store, resilience=FAST_POLICY),
                }
            )
        assert store.degraded
        snapshot = store.snapshot()
        assert snapshot["degraded"] is True
        assert snapshot["io_errors"] >= store.degrade_after
        warnings = [record for record in caplog.records if "degraded to storeless mode" in record.getMessage()]
        assert len(warnings) == 1, "degradation must be announced exactly once"
        assert not results["eio-store"].infra_failures

    def test_degraded_store_stops_touching_the_filesystem(self, tmp_path):
        schedule = FaultSchedule([FaultSpec(op="write", at=1, every=True)], seed=CHAOS_SEED)
        store = ChaosStore(root=tmp_path / "store", fingerprint="chaos-fp", schedule=schedule, degrade_after=2)
        frame = encode_document("ns", {"value": "value"})
        assert store.save("ns", {"k": 1}, frame) is False
        assert store.save("ns", {"k": 2}, frame) is False
        assert store.degraded
        writes_before = schedule.calls("write")
        assert store.save("ns", {"k": 3}, frame) is False
        assert store.load("ns", {"k": 1}, decode_document, "ns") is None
        assert schedule.calls("write") == writes_before, "a degraded store must not reach the I/O layer"


class TestChaosHarness:
    """The harness itself: determinism and injection mechanics."""

    def test_schedule_is_deterministic(self):
        def fire(schedule):
            fired = []
            for call in range(6):
                fault = schedule.tick("execute")
                fired.append(None if fault is None else fault.kind)
            return fired

        faults = [FaultSpec(op="execute", at=2), FaultSpec(op="execute", at=5, kind="hang")]
        assert fire(FaultSchedule(faults, seed=CHAOS_SEED)) == fire(FaultSchedule(faults, seed=CHAOS_SEED))

    def test_injection_restores_registry(self):
        from repro.adapters.registry import create_adapter, get_adapter_entry

        original = get_adapter_entry("duckdb").factory
        with inject_adapter("duckdb", FaultSchedule([], seed=CHAOS_SEED)):
            from repro.testing.chaos import ChaosAdapter

            assert isinstance(create_adapter("duckdb"), ChaosAdapter)
            # aliases retarget with the canonical name
            assert get_adapter_entry("duckdb").factory is not original
        assert get_adapter_entry("duckdb").factory is original

    def test_chaos_error_is_transient(self):
        from repro.core.resilience import is_transient_error

        assert is_transient_error(ChaosError(5, "boom"))
        assert not is_transient_error(TypeError("bug"))


class TestTimeoutConfiguration:
    """REPRO_TIMEOUT_SECONDS / set_default_timeout / --timeout, end to end."""

    def test_env_var_feeds_adapter_and_watchdog(self, monkeypatch):
        from repro.adapters.sqlite_adapter import SQLite3Adapter

        monkeypatch.setenv("REPRO_TIMEOUT_SECONDS", "1.25")
        assert default_timeout_seconds() == 1.25
        assert configured_watchdog_seconds() == 1.25
        assert SQLite3Adapter().timeout_seconds == 1.25
        assert default_policy().watchdog_seconds == 1.25

    def test_override_beats_env(self, monkeypatch):
        from repro.adapters.sqlite_adapter import SQLite3Adapter

        monkeypatch.setenv("REPRO_TIMEOUT_SECONDS", "1.25")
        set_default_timeout(0.5)
        assert default_timeout_seconds() == 0.5
        assert SQLite3Adapter().timeout_seconds == 0.5
        assert default_policy().watchdog_seconds == 0.5

    def test_unconfigured_watchdog_stays_disarmed(self, monkeypatch):
        monkeypatch.delenv("REPRO_TIMEOUT_SECONDS", raising=False)
        assert default_timeout_seconds() == 5.0
        assert configured_watchdog_seconds() is None
        assert default_policy().watchdog_seconds is None

    def test_run_with_deadline_contract(self):
        assert run_with_deadline(lambda: 42, 1.0) == 42
        with pytest.raises(WatchdogTimeout):
            run_with_deadline(lambda: time.sleep(0.5), 0.05)

        def _bug():
            raise ValueError("propagates unchanged")

        with pytest.raises(ValueError):
            run_with_deadline(_bug, 1.0)


class TestCliExitCodes:
    """Exit 2 = campaign finished with partial results; distinct from 0 and 1."""

    def _fake_cli(self, monkeypatch, failures):
        import repro.experiments.__main__ as cli

        created = {}

        class _FakeContext:
            def __init__(self, **kwargs):
                created.update(kwargs)

            def __enter__(self):
                return self

            def __exit__(self, *exc_info):
                return None

            def infra_failures(self):
                return failures

        monkeypatch.setattr(cli, "ExperimentContext", _FakeContext)
        monkeypatch.setattr(cli, "run_batch", lambda selected, context: [SimpleNamespace(text="ok")])
        monkeypatch.setattr(cli, "stream_experiments", lambda selected, context: iter([SimpleNamespace(text="ok")]))
        return cli, created

    def test_clean_campaign_exits_zero(self, monkeypatch, capsys):
        cli, _ = self._fake_cli(monkeypatch, [])
        assert cli.main(["table4"]) == 0

    def test_degraded_campaign_exits_two(self, monkeypatch, capsys):
        failure = InfraFailure(kind="adapter-quarantined", suite="slt", host="duckdb", detail="chaos", attempts=3)
        cli, _ = self._fake_cli(monkeypatch, [failure])
        assert cli.main(["table4"]) == 2
        stderr = capsys.readouterr().err
        assert "adapter-quarantined" in stderr and "slt->duckdb" in stderr
        # the store is the resume record: re-running the same command resumes
        assert "resume with: python -m repro.experiments table4" in stderr

    def test_degraded_storeless_campaign_offers_no_resume(self, monkeypatch, capsys):
        failure = InfraFailure(kind="shutdown-drain", suite="slt", host="duckdb", detail="drain", attempts=0)
        cli, _ = self._fake_cli(monkeypatch, [failure])
        assert cli.main(["table4", "--no-store"]) == 2
        stderr = capsys.readouterr().err
        assert "shutdown-drain" in stderr
        # nothing persisted, so there is nothing to resume from
        assert "resume with:" not in stderr

    def test_timeout_flag_reaches_context(self, monkeypatch, capsys):
        cli, created = self._fake_cli(monkeypatch, [])
        assert cli.main(["table4", "--timeout", "2.5"]) == 0
        assert created["timeout_seconds"] == 2.5

    def test_timeout_flag_must_be_positive(self, monkeypatch, capsys):
        # every usage error exits 1; 2 would read as "campaign degraded"
        cli, _ = self._fake_cli(monkeypatch, [])
        for argv in (
            ["table4", "--timeout", "0"],
            ["table4", "--workers", "0"],
            ["table4", "--workers", "-3"],
            ["table4", "--scale", "0"],
            ["table4", "--scale", "-1"],
            ["table4", "--resume-from", "x"],
            ["store", "gc", "--max-bytes", "0"],
        ):
            with pytest.raises(SystemExit) as exited:
                cli.main(argv)
            assert exited.value.code == 1, argv
            assert "error:" in capsys.readouterr().err

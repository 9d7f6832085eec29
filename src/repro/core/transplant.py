"""Transplanting test suites: running a donor's suite on host DBMSs.

The paper's RQ3 executes each suite on its *donor* (the DBMS it was written
for) and RQ4 executes each suite on every *host*.  :func:`run_transplant`
produces one :class:`TransplantResult` per (suite, host) pair, and
:func:`run_matrix` produces the full matrix behind Figure 4 / Tables 4 and 6.
"""

from __future__ import annotations

import logging
import os
import time
from dataclasses import dataclass, field

from repro.adapters.base import DBMSAdapter
from repro.adapters.faults import FaultReport, FaultSummary
from repro.adapters.pool import AdapterPool, adapter_breaker, pool_key
from repro.adapters.registry import create_adapter
from repro.core import shutdown
from repro.core.journal import CampaignJournal, campaign_spec, open_campaign_journal
from repro.core.parallel import assemble_suite_result, runner_spec_for
from repro.core.records import TestSuite
from repro.core.resilience import InfraFailure, ResiliencePolicy, default_policy, run_with_deadline
from repro.core.runner import RecordOutcome, SuiteResult, TestRunner, _synthesize_file_result
from repro.errors import AdapterQuarantinedError, WatchdogTimeout
from repro.killpoints import kill_point
from repro.perf import cache as perf_cache
from repro.store import artifacts as artifact_store
from repro.store import codec as result_codec
from repro.store.keys import FILE_RESULTS_NAMESPACE, file_result_key, key_digest

logger = logging.getLogger(__name__)

#: Host names used throughout the experiments, in the paper's column order.
DEFAULT_HOSTS = ("sqlite", "postgres", "duckdb", "mysql")

#: Which adapter acts as the donor for each suite.
DONOR_OF_SUITE = {
    "slt": "sqlite",
    "sqlite": "sqlite",
    "postgres": "postgres",
    "postgresql": "postgres",
    "duckdb": "duckdb",
    "mysql": "mysql",
}

#: Extensions available on each donor when running its own suite (the DuckDB
#: suite pre-filters on ``require``; the paper reports 26.2% pre-filtered).
DEFAULT_EXTENSIONS = {
    "sqlite": {"series", "json1"},
    "postgres": {"plpgsql"},
    "duckdb": {"json", "parquet"},
    "mysql": set(),
}


@dataclass
class TransplantResult:
    """Outcome of running one donor suite on one host."""

    suite: str
    host: str
    donor: str
    result: SuiteResult
    crashes: list[FaultReport] = field(default_factory=list)
    hangs: list[FaultReport] = field(default_factory=list)
    #: unrecovered infrastructure faults (:class:`repro.core.resilience.InfraFailure`
    #: records) that degraded this cell to a partial result; empty for clean
    #: runs *and* for runs whose transient faults were recovered by retry
    infra_failures: list = field(default_factory=list)

    @property
    def is_complete(self) -> bool:
        """True when no infrastructure fault degraded this cell."""
        return not self.infra_failures

    @property
    def is_donor_run(self) -> bool:
        return DONOR_OF_SUITE.get(self.suite, self.suite) == self.host

    @property
    def success_rate(self) -> float:
        return self.result.success_rate


def _synthesize_suite_result(suite: TestSuite, host: str, outcome: "RecordOutcome", reason: str) -> SuiteResult:
    """A stand-in :class:`SuiteResult` for a cell infrastructure would not run."""
    suite_result = SuiteResult(suite=suite.name, host=host)
    suite_result.files = [_synthesize_file_result(host, test_file, outcome, reason) for test_file in suite.files]
    return suite_result


def run_transplant(
    suite: TestSuite,
    host: str,
    adapter: DBMSAdapter | None = None,
    float_tolerance: float = 0.0,
    translate_dialect: bool = False,
    available_extensions: set[str] | None = None,
    max_records_per_file: int | None = None,
    workers: int = 1,
    executor: str = "auto",
    pool: AdapterPool | None = None,
    worker_pool=None,
    store: "artifact_store.ArtifactStore | str | None" = artifact_store.DEFAULT,
    resilience: ResiliencePolicy | None = None,
    journal: CampaignJournal | None = None,
) -> TransplantResult:
    """Run ``suite`` on ``host`` and collect results plus crash/hang reports.

    Every cell takes one path, :func:`repro.core.parallel.assemble_suite_result`:
    with an artifact store active (and no caller-built ``adapter``), each file
    is served from the ``file-results`` namespace when any earlier run — this
    process or another one — persisted it, and only the misses execute and
    persist.  Payloads are compact codec frames (:mod:`repro.store.codec`)
    keyed by file content plus runner configuration, and records are
    reattached from the live suite on load, so a warm campaign replays the
    full matrix without touching an adapter and editing one file of an
    N-file suite costs ~1/N of a cold run.  ``store=None`` or
    :func:`repro.store.store_disabled` makes every file a miss and persists
    nothing.

    Translation is the identity when donor == host (the runner returns the
    SQL unchanged), so ``translate_dialect`` is treated as off there: a
    translated donor cell gets the plain cell's runner spec, and therefore
    loads the plain cell's files.

    ``workers > 1`` shards the misses across a worker pool (see
    :mod:`repro.core.parallel`); the merged result is identical to the serial
    run.  ``executor`` selects the pool flavour (``"process"``, ``"thread"``,
    or ``"auto"``).  ``pool`` (an :class:`AdapterPool`) serves the serial
    path's host adapter from a reusable lease instead of a fresh build, and
    ``worker_pool`` (a :class:`repro.core.parallel.WorkerPool`) keeps sharded
    workers — and their per-worker adapters — alive across the transplants of
    one campaign; ``run_matrix`` wires up both.  The host adapter is acquired
    when the first file must execute in this process — a fully warm cell
    neither leases nor connects one — and released on every exit.

    ``resilience`` (defaulting to :func:`repro.core.resilience.default_policy`)
    arms the campaign resilience layer: transient infrastructure failures of
    the serial path retry the whole cell on a **rebuilt** adapter (with
    backoff and deterministic jitter), sharded execution retries per file
    inside the workers, and a configuration the circuit breaker quarantined —
    or a cell that exhausted its retries / hit its watchdog deadline — becomes
    a *partial* cell: every record reports SKIP (or HANG for watchdog cuts),
    the fault is recorded in ``TransplantResult.infra_failures``, and the
    stand-in files are never persisted, so a later run re-enters them.
    Recovered faults leave no trace in the result, keeping recovered
    campaigns byte-identical to fault-free ones.  Caller-provided ``adapter``
    instances opt out of cell-level retry (no rebuild is possible on a
    foreign instance).

    ``journal`` (a :class:`~repro.core.journal.CampaignJournal`, normally
    wired by :func:`run_matrix`) records this cell's start and finish as
    durable write-ahead events: ``cell-start`` lands before any execution
    (including a warm store hit), ``cell-finish`` — with the cell's per-file
    artifact digests — after its files persisted.  A process killed between
    the two leaves the cell visibly in flight, which is exactly what a
    crash-resume re-enters.
    """
    donor = DONOR_OF_SUITE.get(suite.name, suite.name)
    if donor == host:
        translate_dialect = False
    if available_extensions is None:
        available_extensions = DEFAULT_EXTENSIONS.get(host, set()) if donor == host else set()
    backing = artifact_store.active_store(store) if adapter is None else None
    sharded = workers > 1 and len(suite.files) > 1
    policy = resilience if resilience is not None else default_policy()

    def _runner() -> TestRunner:
        # the adapter stays unconnected: it describes the runner spec (and
        # with it every store key) until a file must execute here
        return TestRunner(
            adapter if adapter is not None else create_adapter(host),
            host_name=host,
            available_extensions=available_extensions,
            float_tolerance=float_tolerance,
            translate_dialect=translate_dialect,
            donor_dialect=donor,
            max_records_per_file=max_records_per_file,
        )

    def _execute_cell() -> SuiteResult:
        """One attempt at the cell: load what the store holds, execute the rest.

        The attempt acquires its adapter once, when the first file must run
        on this process — a pool lease when a pool is passed, otherwise its
        own build's ``setup()`` — and releases it on every exit: a lease goes
        back to the pool (or is discarded when the attempt raised, so no
        consumer inherits a failed instance) and a build is torn down.
        """
        runner = _runner()
        acquired: list[DBMSAdapter] = []

        def _acquire() -> None:
            if pool is not None:
                runner.adapter = pool.acquire(host)
                acquired.append(runner.adapter)
            else:
                acquired.append(runner.adapter)
                runner.adapter.setup()

        succeeded = False
        try:
            suite_result = assemble_suite_result(
                suite,
                runner,
                backing,
                workers=workers,
                executor=executor,
                worker_pool=worker_pool,
                prepare_runner=_acquire if adapter is None else None,
                policy=policy,
            )
            succeeded = True
            return suite_result
        finally:
            for live in acquired:
                if pool is None:
                    try:
                        live.teardown()
                    except Exception:
                        # best effort: a failed close must not fail (or
                        # retry) a cell whose results are already in hand
                        logger.debug("teardown of the %s adapter failed", host, exc_info=True)
                elif succeeded:
                    pool.release(live)
                else:
                    pool.discard(live)

    if journal is not None:
        journal.cell_started(suite.name, host)
        kill_point("cell-start")
    cell_failures: list[InfraFailure] = []
    if adapter is not None:
        # caller-managed adapter: single attempt — the caller owns the
        # lifecycle, so no rebuild (and hence no cell-level retry) is possible
        suite_result = _execute_cell()
    else:
        breaker = pool.breaker if pool is not None else adapter_breaker()
        breaker_key = pool_key(host, {})
        cell_token = f"{suite.name}:{host}"
        deadline = None
        if policy.watchdog_seconds is not None and not sharded:
            # sharded execution arms a per-file watchdog inside the workers;
            # the serial cell gets one deadline scaled to the suite's size
            deadline = policy.watchdog_seconds * max(1, len(suite.files))
        attempt = 0
        suite_result = None
        while True:
            attempt += 1
            if breaker.is_quarantined(breaker_key):
                detail = breaker.quarantine_detail(breaker_key)
                reason = f"adapter {host!r} quarantined" + (f": {detail}" if detail else "")
                suite_result = _synthesize_suite_result(suite, host, RecordOutcome.SKIP, reason)
                cell_failures.append(
                    InfraFailure(
                        kind="adapter-quarantined",
                        suite=suite.name,
                        host=host,
                        detail=detail,
                        attempts=max(1, attempt - 1),
                    )
                )
                break
            try:
                if deadline is not None:
                    suite_result = run_with_deadline(_execute_cell, deadline, label=cell_token)
                else:
                    suite_result = _execute_cell()
            except WatchdogTimeout as error:
                # a wedged execution would wedge again: no retry, the cell
                # degrades to a HANG-shaped partial result immediately
                breaker.record_failure(breaker_key, detail=str(error), threshold=policy.quarantine_after)
                suite_result = _synthesize_suite_result(suite, host, RecordOutcome.HANG, str(error))
                cell_failures.append(
                    InfraFailure(kind="watchdog-timeout", suite=suite.name, host=host, detail=str(error), attempts=attempt)
                )
                break
            except AdapterQuarantinedError:
                continue  # tripped between check and acquire: reported at the top of the loop
            except Exception as error:
                detail = f"{type(error).__name__}: {error}"
                breaker.record_failure(breaker_key, detail=detail, threshold=policy.quarantine_after)
                if not policy.retry.retryable(error):
                    raise
                if policy.retry.should_retry(error, attempt) and not breaker.is_quarantined(breaker_key):
                    delay = policy.retry.delay_for(attempt, token=cell_token)
                    logger.warning(
                        "transient infrastructure failure on cell %s (attempt %d/%d): %s; retrying in %.3fs",
                        cell_token, attempt, policy.retry.attempts, detail, delay,
                    )
                    time.sleep(delay)
                    continue
                if breaker.is_quarantined(breaker_key):
                    continue
                suite_result = _synthesize_suite_result(suite, host, RecordOutcome.SKIP, f"infrastructure failure: {detail}")
                cell_failures.append(
                    InfraFailure(kind="retry-exhausted", suite=suite.name, host=host, detail=detail, attempts=attempt)
                )
                break
            else:
                breaker.record_success(breaker_key)
                break

    if cell_failures:
        suite_result.infra_failures = list(suite_result.infra_failures) + cell_failures

    crashes, hangs = result_codec.fault_reports_for(suite_result, host)
    transplant_result = TransplantResult(
        suite=suite.name,
        host=host,
        donor=donor,
        result=suite_result,
        crashes=crashes,
        hangs=hangs,
        infra_failures=list(suite_result.infra_failures),
    )
    if journal is not None:
        clean = not transplant_result.infra_failures
        files = None
        spec = runner_spec_for(_runner()) if (backing is not None and clean) else None
        if spec is not None:
            # the artifact digests assembly (or its workers) really wrote
            files = [
                {
                    "path": test_file.path,
                    "artifact": key_digest(FILE_RESULTS_NAMESPACE, file_result_key(spec, test_file), backing.fingerprint),
                }
                for test_file in suite.files
            ]
        journal.cell_finished(suite.name, host, complete=clean, files=files)
        kill_point("cell-finish")
    return transplant_result


@dataclass
class TransplantMatrix:
    """All (suite, host) transplant results of one campaign."""

    entries: dict[tuple[str, str], TransplantResult] = field(default_factory=dict)

    def add(self, result: TransplantResult) -> None:
        self.entries[(result.suite, result.host)] = result

    def get(self, suite: str, host: str) -> TransplantResult:
        return self.entries[(suite, host)]

    def suites(self) -> list[str]:
        return sorted({suite for suite, _ in self.entries})

    def hosts(self) -> list[str]:
        return sorted({host for _, host in self.entries})

    def success_rate(self, suite: str, host: str) -> float:
        return self.entries[(suite, host)].success_rate

    def fault_summary(self) -> FaultSummary:
        summary = FaultSummary()
        for entry in self.entries.values():
            for report in entry.crashes:
                summary.add(report)
            for report in entry.hangs:
                summary.add(report)
        return summary

    def infra_failures(self) -> list:
        """Every unrecovered infrastructure fault of the campaign, in cell order."""
        return [failure for entry in self.entries.values() for failure in entry.infra_failures]

    def incomplete_cells(self) -> list[tuple[str, str]]:
        """(suite, host) keys of cells degraded by infrastructure faults."""
        return sorted(key for key, entry in self.entries.items() if entry.infra_failures)

    def is_complete(self) -> bool:
        """True when no cell was degraded to a partial result."""
        return not any(entry.infra_failures for entry in self.entries.values())

    def is_full_grid(self, suites, hosts) -> bool:
        """True when every (suite, host) pair of the given grid has a cell."""
        return all((suite, host) in self.entries for suite in suites for host in hosts)


def run_matrix(
    suites: dict[str, TestSuite],
    hosts: tuple[str, ...] = DEFAULT_HOSTS,
    float_tolerance: float = 0.0,
    translate_dialect: bool = False,
    max_records_per_file: int | None = None,
    workers: int = 1,
    executor: str = "auto",
    reuse_donor_runs_from: TransplantMatrix | None = None,
    adapter_pool: AdapterPool | None = None,
    worker_pool=None,
    store: "artifact_store.ArtifactStore | str | None" = artifact_store.DEFAULT,
    resilience: ResiliencePolicy | None = None,
    journal: "CampaignJournal | str | os.PathLike | bool | None" = None,
) -> TransplantMatrix:
    """Run every suite on every host (the Figure 4 campaign).

    Adapters are reused across the campaign instead of rebuilt per transplant:
    the serial path leases each host's adapter from one :class:`AdapterPool`,
    and the sharded path keeps one persistent
    :class:`~repro.core.parallel.WorkerPool` whose workers pool their own
    adapters across suites.  Callers may pass either pool to extend the reuse
    beyond a single matrix (see :class:`~repro.experiments.context.ExperimentContext`);
    pools created here are closed here.

    ``reuse_donor_runs_from`` lets a translated campaign reuse the donor-on-
    donor entries of an already-computed plain matrix: translation is the
    identity when donor == host (the runner skips it outright), so those runs
    are exactly equal and re-executing them is pure redundancy.  The reuse is
    part of the cache layer and honours the global cache switch.  Entries are
    copied as-is — the donor matrix must have been computed with the same
    ``float_tolerance`` / ``max_records_per_file`` as this campaign (as
    :class:`~repro.experiments.context.ExperimentContext` guarantees), or the
    reused cells reflect the old parameters.

    ``store`` extends that reuse across processes: *every* cell — donor runs
    and cross-host transplants alike — is assembled from the persistent
    artifact store's per-file ``file-results`` (see :func:`run_transplant`),
    so a repeated campaign with all files persisted replays the whole matrix
    without executing anything, and a campaign over an *edited* suite
    re-executes only the changed files of every cell.

    ``resilience`` is threaded into every cell (see :func:`run_transplant`).
    Degraded cells persist none of their stand-in files, so re-running the
    same campaign against the same store after a fault re-executes **only the
    gaps** — every file that did persist loads.

    ``journal`` extends that recovery across *process death*: pass ``True``
    to keep a durable write-ahead journal under the store
    (``<store root>/journals/``), a directory to keep it there, a ``.jsonl``
    path (or existing file) to name the file outright, or an already-open
    :class:`~repro.core.journal.CampaignJournal`.  Every cell's start and
    finish is fsync'd before the campaign moves on, so a SIGKILL'd campaign
    can be re-run with the same arguments: the journal validates that it is
    the same campaign (same suites/hosts/parameters/store fingerprint — a
    mismatch raises :class:`~repro.errors.JournalMismatchError`), warm cells
    replay from the store, and only work that was genuinely in flight
    re-executes.  Journals a path resolved here are closed here.

    When a drain has been requested (:mod:`repro.core.shutdown` — typically
    by SIGINT/SIGTERM under ``signal_aware_shutdown``), cells not yet started
    degrade to SKIP partials carrying an ``InfraFailure`` of kind
    ``"shutdown-drain"`` instead of executing, so the campaign flows out
    through the ordinary partial-results path (exit code 2, resumable).
    """
    from repro.core.parallel import WorkerPool

    # resolve once so every transplant of the campaign hits the same store
    store = artifact_store.active_store(store)
    owned_journal = None
    if journal is False:
        journal = None
    elif journal is not None and not isinstance(journal, CampaignJournal):
        if store is None:
            raise ValueError("run_matrix(journal=...) requires an artifact store (the campaign id embeds its fingerprint)")
        spec = campaign_spec(
            suites,
            tuple(hosts),
            float_tolerance=float_tolerance,
            translate_dialect=translate_dialect,
            max_records_per_file=max_records_per_file,
        )
        journal = owned_journal = open_campaign_journal(journal, store, spec)
    if journal is not None and journal.replay.incomplete_cells():
        logger.info(
            "journal %s: resuming campaign %s... — %d cell(s) in flight at last exit",
            journal.path, journal.campaign[:16], len(journal.replay.incomplete_cells()),
        )

    owns_adapter_pool = adapter_pool is None
    if adapter_pool is None:
        adapter_pool = AdapterPool()
    owns_worker_pool = worker_pool is None and workers > 1
    if worker_pool is None and workers > 1:
        worker_pool = WorkerPool(workers, executor)

    matrix = TransplantMatrix()
    try:
        for suite in suites.values():
            for host in hosts:
                donor = DONOR_OF_SUITE.get(suite.name, suite.name)
                if shutdown.draining():
                    # a drained cell never starts (and is never journaled as
                    # started): it degrades to a SKIP partial so the campaign
                    # reports incomplete and a resume re-enters exactly here
                    reason = shutdown.drain_reason() or "shutdown drain"
                    suite_result = _synthesize_suite_result(
                        suite, host, RecordOutcome.SKIP, f"shutdown drain: {reason}"
                    )
                    failure = InfraFailure(
                        kind=shutdown.SHUTDOWN_DRAIN_KIND, suite=suite.name, host=host, detail=reason
                    )
                    suite_result.infra_failures = [failure]
                    matrix.add(
                        TransplantResult(
                            suite=suite.name, host=host, donor=donor, result=suite_result, infra_failures=[failure]
                        )
                    )
                    continue
                if reuse_donor_runs_from is not None and perf_cache.caching_enabled():
                    if donor == host and (suite.name, host) in reuse_donor_runs_from.entries:
                        carried = reuse_donor_runs_from.get(suite.name, host)
                        matrix.add(carried)
                        if (
                            journal is not None
                            and not carried.infra_failures
                            and not journal.is_cell_complete(suite.name, host)
                        ):
                            journal.cell_finished(suite.name, host, complete=True)
                        continue
                matrix.add(
                    run_transplant(
                        suite,
                        host,
                        float_tolerance=float_tolerance,
                        translate_dialect=translate_dialect,
                        max_records_per_file=max_records_per_file,
                        workers=workers,
                        executor=executor,
                        pool=adapter_pool,
                        worker_pool=worker_pool,
                        store=store,
                        resilience=resilience,
                        journal=journal,
                    )
                )
    finally:
        if owns_worker_pool and worker_pool is not None:
            worker_pool.shutdown()
        if owns_adapter_pool:
            adapter_pool.close()
        if owned_journal is not None:
            owned_journal.close()
    return matrix

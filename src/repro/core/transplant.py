"""Transplanting test suites: running a donor's suite on host DBMSs.

The paper's RQ3 executes each suite on its *donor* (the DBMS it was written
for) and RQ4 executes each suite on every *host*.  :func:`run_transplant`
produces one :class:`TransplantResult` per (suite, host) pair,
:func:`run_cells` is the one campaign loop over an ordered list of
:class:`CellKey` cells, and :func:`run_matrix` wraps it to produce the full
matrix behind Figure 4 / Tables 4 and 6.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator

from repro.adapters.faults import FaultReport, FaultSummary
from repro.adapters.pool import AdapterPool
from repro.adapters.registry import create_adapter
from repro.core.parallel import RunnerSpec, WorkerPool, assemble_suite_result, runner_spec_for
from repro.core.records import DONOR_OF_SUITE, TestSuite
from repro.core.resilience import ResiliencePolicy, default_policy
from repro.core.runner import SuiteResult, TestRunner
from repro.killpoints import kill_point
from repro.perf import cache as perf_cache
from repro.store import artifacts as artifact_store
from repro.store import codec as result_codec

#: Host names used throughout the experiments, in the paper's column order.
DEFAULT_HOSTS = ("sqlite", "postgres", "duckdb", "mysql")

#: Extensions available on each donor when running its own suite (the DuckDB
#: suite pre-filters on ``require``; the paper reports 26.2% pre-filtered).
DEFAULT_EXTENSIONS = {
    "sqlite": {"series", "json1"},
    "postgres": {"plpgsql"},
    "duckdb": {"json", "parquet"},
    "mysql": set(),
}


@dataclass(frozen=True, order=True)
class CellKey:
    """Identity of one campaign-matrix cell: run ``suite`` on ``host``.

    ``translate`` runs every statement through the dialect translator first;
    ``tolerance`` is the relative float tolerance of result comparison (0.0
    is SQuaLity's exact comparison).
    """

    suite: str
    host: str
    translate: bool = False
    tolerance: float = 0.0

    @property
    def is_donor_run(self) -> bool:
        return DONOR_OF_SUITE.get(self.suite, self.suite) == self.host


def plain_alias(cell: CellKey) -> CellKey:
    """The cell whose result serves ``cell``: the one aliasing rule of a campaign.

    Translation is the identity when donor == host (the runner skips it), so
    a translated donor-on-donor cell is served by its plain sibling.  The
    aliasing is part of the cache layer and honours the global cache switch
    (:func:`repro.perf.cache.caching_enabled`): with caching off every cell
    stands for itself and executes.
    """
    if cell.translate and cell.is_donor_run and perf_cache.caching_enabled():
        return CellKey(cell.suite, cell.host, tolerance=cell.tolerance)
    return cell


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


def run_transplant(
    suite: TestSuite,
    host: str,
    float_tolerance: float = 0.0,
    translate_dialect: bool = False,
    pool: AdapterPool | None = None,
    worker_pool: WorkerPool | None = None,
    store: "artifact_store.ArtifactStore | str | None" = artifact_store.DEFAULT,
    resilience: ResiliencePolicy | None = None,
) -> TransplantResult:
    """Run ``suite`` on ``host`` and collect results plus crash/hang reports.

    Every cell takes one path, :func:`repro.core.parallel.assemble_suite_result`:
    with an artifact store active, each file is served from the
    ``file-results`` namespace when any earlier run — this process or another
    one — persisted it, and only the misses execute and persist.  Payloads
    are compact codec frames (:mod:`repro.store.codec`) keyed by file content
    plus runner configuration, and records are reattached from the live
    suite on load, so a warm campaign replays the full matrix without
    touching an adapter and editing one file of an N-file suite costs ~1/N
    of a cold run.  ``store=None`` makes every file a miss and persists
    nothing.  An adapter the registry cannot rebuild from its
    ``fork_config`` (a third-party registration, say) runs in this process,
    storeless and unsharded: no key can name its results.

    Translation is the identity when donor == host (the runner returns the
    SQL unchanged), so ``translate_dialect`` is treated as off there: a
    translated donor cell gets the plain cell's runner spec, and therefore
    loads the plain cell's files.

    The misses run through :func:`repro.core.parallel.execute_files`: in
    this process on ``pool`` (an :class:`AdapterPool`; a private one when
    None), whose adapter is leased when the first file must execute — a
    fully warm cell neither leases nor connects one — or, given a
    ``worker_pool`` (a :class:`repro.core.parallel.WorkerPool`, which keeps
    workers and their adapters alive across the transplants of one
    campaign), in its process shards; the merged result is identical to the
    serial run.

    ``resilience`` (defaulting to :func:`repro.core.resilience.default_policy`)
    arms the campaign resilience layer per file: a transient infrastructure
    failure retries the file on a **rebuilt** adapter (with backoff and
    deterministic jitter), and a file that exhausted its retries or hit its
    watchdog deadline becomes a stand-in whose records report SKIP (or HANG
    for watchdog cuts), with its own record in
    ``TransplantResult.infra_failures``.  The cell's other files keep their
    real results, and stand-ins are never persisted, so a later run re-enters
    them.  A quarantined host keeps every file the store serves, and each
    miss becomes a SKIP stand-in with its own ``adapter-quarantined`` record.
    Recovered faults leave no trace in the result, keeping recovered
    campaigns byte-identical to fault-free ones.
    """
    donor = DONOR_OF_SUITE.get(suite.name, suite.name)
    if donor == host:
        translate_dialect = False
    available_extensions = DEFAULT_EXTENSIONS.get(host, set()) if donor == host else set()
    # the adapter stays unconnected: it only names the recipe (fork_config)
    # every worker and store key rebuilds the runner from
    runner = TestRunner(
        create_adapter(host),
        host_name=host,
        available_extensions=available_extensions,
        float_tolerance=float_tolerance,
        translate_dialect=translate_dialect,
        donor_dialect=donor,
    )
    spec = runner_spec_for(runner)
    backing = artifact_store.active_store(store)
    if spec is None:
        spec = RunnerSpec.of(runner, host, {})
        backing, worker_pool = None, None
    policy = resilience if resilience is not None else default_policy()

    kill_point("cell-start")
    adapters = pool if pool is not None else AdapterPool()
    try:
        suite_result = assemble_suite_result(suite, spec, backing, policy, adapters, worker_pool=worker_pool)
    finally:
        if pool is None:
            adapters.close()

    kill_point("cell-finish")
    crashes, hangs = result_codec.fault_reports_for(suite_result, host)
    return TransplantResult(
        suite=suite.name,
        host=host,
        donor=donor,
        result=suite_result,
        crashes=crashes,
        hangs=hangs,
        infra_failures=list(suite_result.infra_failures),
    )


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


def run_cells(
    suites: dict[str, TestSuite],
    cells: Iterable[CellKey],
    adapter_pool: AdapterPool | None = None,
    worker_pool: WorkerPool | None = None,
    store: "artifact_store.ArtifactStore | str | None" = artifact_store.DEFAULT,
    resilience: ResiliencePolicy | None = None,
) -> Iterator[TransplantResult]:
    """Run ``cells`` in order, yielding one :class:`TransplantResult` per cell.

    The one campaign loop: :func:`run_matrix` and the experiments' streaming
    pass (:mod:`repro.experiments.stream`) both drive their cells through it.
    ``suites`` maps each cell's ``suite`` name to its corpus.  Every cell runs
    through :func:`run_transplant` against one resolved store, with one
    :class:`AdapterPool` (created and closed here when None) and the
    caller's ``worker_pool`` (None runs every miss in this process).  A
    translated donor cell whose plain sibling ran earlier in the same call
    is served from that result (see :func:`plain_alias`).

    ``store`` lets a repeated campaign replay from the artifact store's
    per-file ``file-results``: only files no earlier run persisted execute,
    so an edited suite re-executes only its changed files, and a campaign
    degraded by infrastructure faults re-enters only the gaps.  The store is
    also the resume record: every file persists the moment it finishes, so a
    killed campaign re-run with the same arguments loads what persisted and
    re-executes only the work that was in flight.

    A drain requested through :mod:`repro.core.shutdown` needs no check
    here: :func:`repro.core.parallel.execute_files` turns every file not yet
    started into a ``shutdown-drain`` stand-in, so the campaign flows out through the
    ordinary partial-results path (exit code 2, resumable).
    """
    cells = list(cells)
    store = artifact_store.active_store(store)
    owns_adapter_pool = adapter_pool is None
    if adapter_pool is None:
        adapter_pool = AdapterPool()
    try:
        served: dict[CellKey, TransplantResult] = {}
        for cell in cells:
            alias = plain_alias(cell)
            if alias not in served:
                served[alias] = run_transplant(
                    suites[cell.suite],
                    cell.host,
                    float_tolerance=cell.tolerance,
                    translate_dialect=cell.translate,
                    pool=adapter_pool,
                    worker_pool=worker_pool,
                    store=store,
                    resilience=resilience,
                )
            yield served[alias]
    finally:
        if owns_adapter_pool:
            adapter_pool.close()


def run_matrix(
    suites: dict[str, TestSuite],
    hosts: tuple[str, ...] = DEFAULT_HOSTS,
    adapter_pool: AdapterPool | None = None,
    worker_pool: WorkerPool | None = None,
    store: "artifact_store.ArtifactStore | str | None" = artifact_store.DEFAULT,
    resilience: ResiliencePolicy | None = None,
) -> TransplantMatrix:
    """Run every suite on every host (the Figure 4 campaign), suites outer.

    A thin loop over :func:`run_cells`, which documents every parameter;
    translated cells go through :func:`run_cells` with their :class:`CellKey`.
    """
    cells = [CellKey(name, host) for name in suites for host in hosts]
    matrix = TransplantMatrix()
    for result in run_cells(
        suites,
        cells,
        adapter_pool=adapter_pool,
        worker_pool=worker_pool,
        store=store,
        resilience=resilience,
    ):
        matrix.add(result)
    return matrix

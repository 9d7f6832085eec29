"""Per-file suite execution: the one executor every store miss runs through.

Test files are independent by construction — the runner resets the adapter
before every file — so a cell executes file by file, and its files can be
split into shards that run concurrently and merge back in file order.  The
merged :class:`~repro.core.runner.SuiteResult` is identical to a serial run:
same per-file ordering, same per-record outcomes.

:func:`assemble_suite_result` is the one path every matrix cell takes: it
probes the ``file-results`` store namespace per file and hands the misses to
:func:`execute_files` — in this process, on the campaign's
:class:`~repro.adapters.pool.AdapterPool`, when there is no
:class:`WorkerPool`, and inside its process shards otherwise.
:func:`execute_files` owns every per-file rule: retry of transient faults on
a rebuilt adapter, the watchdog deadline, circuit-breaker accounting, the
drain check and the persist of each executed file.

Worker processes rebuild the adapter from the registry (a
:class:`RunnerSpec`), so nothing stateful is pickled: only the test files and
the returned results travel.  Each worker keeps one :class:`AdapterPool` for
its lifetime, so consecutive shards — and, when a campaign shares one
:class:`WorkerPool` across its transplants (see
:func:`repro.core.transplant.run_cells`), consecutive suites — reuse the same
live adapter; reset-on-acquire keeps every file starting from a pristine
database.  Workers re-open the campaign's store from a picklable
:class:`StoreSpec` and persist every file they execute, so the results they
write are exactly what a later campaign loads.

A persisted file leaves :func:`execute_files` as the codec frame it was
stored as, not as its :class:`FileResult`: a worker ships those bytes home,
and :func:`assemble_suite_result` decodes each frame's head against the
suite's own :class:`TestFile`, so serial and sharded cells hold the same
lazy, head-only results a warm replay loads, over the suite's own records.
A file with no frame — a storeless run, a stand-in, a value the codec
rejects, a save the store dropped — travels and rests as its
:class:`FileResult`: encoding a file only to transport it costs more than
pickling it.

One determinism caveat: a MiniDB session's random() state persists across
the files one adapter runs but is re-seeded in each worker's fresh adapter.
The generated corpora never invoke nondeterministic SQL functions, so shard
merges are byte-identical; suites that do use random() should run without
a worker pool.
"""

from __future__ import annotations

import errno
import logging
import pickle
import time
from concurrent.futures import BrokenExecutor
from dataclasses import dataclass

from repro.adapters.base import DBMSAdapter
from repro.adapters.pool import AdapterPool, CircuitBreaker, PoolKey, pool_key
from repro.adapters.registry import available_adapters
from repro.core import shutdown
from repro.core.records import TestFile, TestSuite
from repro.core.resilience import InfraFailure, ResiliencePolicy, run_with_deadline
from repro.core.runner import (
    FileResult,
    RecordOutcome,
    SuiteResult,
    TestRunner,
    _drained_file_result,
    _synthesize_file_result,
)
from repro.errors import AdapterNotFoundError, ShardExecutionError, WatchdogTimeout
from repro.killpoints import kill_point
from repro.perf import cache as perf_cache
from repro.store import codec as result_codec
from repro.store.artifacts import ArtifactStore
from repro.store.codec import save_checked
from repro.store.keys import FILE_RESULTS_NAMESPACE, file_result_key

logger = logging.getLogger(__name__)

#: one file's outcome: its index in the suite, its result — the codec frame
#: it was stored as, or the FileResult itself when it has none — and the
#: unrecovered fault that made the result a stand-in (None for real results)
FileOutcome = tuple[int, FileResult | bytes, InfraFailure | None]

#: exception types that signal worker-pool *infrastructure* failure (rather
#: than a genuine error inside a shard); the pool finishes such a batch in
#: this process.  ``BrokenExecutor`` is the base of the process pool's
#: ``BrokenProcessPool``, importable without the pool itself.
#: ``AdapterNotFoundError`` is re-raised unwrapped by the
#: shard on purpose — a worker process that cannot rebuild an adapter
#: registered after it forked is an infrastructure gap this process (whose
#: registry has it) recovers from.  Bare ``OSError`` is deliberately *not* in
#: this tuple: classifying every OSError as pool breakage would swallow
#: genuine store I/O bugs from user task code (``map_tasks`` runs
#: arbitrary callables, not just :func:`_run_shard`'s wrapped work) — only the
#: errnos pool bootstrap actually produces count (see
#: :func:`_is_pool_infra_error`).
_POOL_INFRA_ERRORS = (BrokenExecutor, pickle.PicklingError, NotImplementedError, ImportError, AdapterNotFoundError)

#: ``OSError`` errnos that pool *bootstrap* produces: missing/forbidden
#: semaphores in sandboxes (ENOSYS, EPERM, EACCES) and fork exhaustion
#: (EAGAIN, ENOMEM).  An OSError with any other errno — EIO from a failing
#: disk, ENOSPC from a full one — is a genuine error to report, not pool
#: infrastructure to silently retry in this process.
_POOL_INFRA_OS_ERRNOS = frozenset({errno.ENOSYS, errno.EPERM, errno.EACCES, errno.EAGAIN, errno.ENOMEM})


def ProcessPoolExecutor(*args, **kwargs):
    """A new ``concurrent.futures.ProcessPoolExecutor``, imported on first use.

    A campaign that never fans out — every warm replay — thus never imports
    ``concurrent.futures.process`` or ``multiprocessing``.  :class:`WorkerPool`
    builds its executor through this module attribute, which tests replace.
    """
    from concurrent.futures.process import ProcessPoolExecutor as executor_class

    return executor_class(*args, **kwargs)


def _is_pool_infra_error(error: BaseException) -> bool:
    """Whether ``error`` is worker-pool infrastructure breakage.

    Infrastructure failures (broken fork, sandboxed semaphores, unpicklable
    payloads, a killed worker) are recoverable by finishing the work in this
    process; anything else — including most ``OSError``s — is a genuine
    failure of the submitted work and must propagate to the caller.
    """
    if isinstance(error, _POOL_INFRA_ERRORS):
        return True
    return isinstance(error, OSError) and error.errno in _POOL_INFRA_OS_ERRNOS


@dataclass(frozen=True)
class StoreSpec:
    """A picklable recipe for re-opening a campaign's :class:`ArtifactStore`.

    Live stores hold locks and cannot travel to process-pool workers; the
    spec carries just the addressing inputs (root, budget, and — crucially —
    the submitting process's code fingerprint, so workers and parent address
    identical keys even under a test fingerprint override).
    """

    root: str
    max_bytes: int
    fingerprint: str


def store_spec_for(store: "ArtifactStore | None") -> StoreSpec | None:
    """Describe ``store`` for shipping to workers (None stays None)."""
    if store is None:
        return None
    return StoreSpec(root=str(store.root), max_bytes=store.max_bytes, fingerprint=store.fingerprint)


#: per-process cache of worker-side stores, keyed by spec: every shard of a
#: campaign — and every campaign aimed at the same root — shares one instance
_WORKER_STORES: dict[StoreSpec, ArtifactStore] = {}


def _worker_store(spec: StoreSpec | None) -> ArtifactStore | None:
    if spec is None:
        return None
    store = _WORKER_STORES.get(spec)
    if store is None:
        store = _WORKER_STORES[spec] = ArtifactStore(root=spec.root, max_bytes=spec.max_bytes, fingerprint=spec.fingerprint)
    return store


@dataclass(frozen=True)
class RunnerSpec:
    """A picklable recipe for rebuilding an equivalent :class:`TestRunner`."""

    adapter_name: str
    host_name: str
    adapter_kwargs: tuple = ()            # sorted (key, value) pairs
    available_extensions: tuple = ()
    float_tolerance: float = 0.0
    translate_dialect: bool = False
    donor_dialect: str | None = None
    max_records_per_file: int | None = None

    @classmethod
    def of(cls, runner: TestRunner, adapter_name: str, adapter_kwargs: dict) -> "RunnerSpec":
        """``runner``'s configuration around the adapter ``adapter_name(**adapter_kwargs)``."""
        return cls(
            adapter_name=adapter_name,
            host_name=runner.host_name,
            adapter_kwargs=tuple(sorted(adapter_kwargs.items())),
            available_extensions=tuple(sorted(runner.available_extensions)),
            float_tolerance=runner.float_tolerance,
            translate_dialect=runner.translate_dialect,
            donor_dialect=runner.donor_dialect,
            max_records_per_file=runner.max_records_per_file,
        )

    def make_runner(self, adapter: DBMSAdapter) -> TestRunner:
        """Wrap an already-live adapter in an equivalent :class:`TestRunner`."""
        return TestRunner(
            adapter,
            host_name=self.host_name,
            available_extensions=set(self.available_extensions),
            float_tolerance=self.float_tolerance,
            translate_dialect=self.translate_dialect,
            donor_dialect=self.donor_dialect,
            max_records_per_file=self.max_records_per_file,
        )


def runner_spec_for(runner: TestRunner) -> RunnerSpec | None:
    """Describe ``runner`` as a :class:`RunnerSpec`, or None if its adapter
    cannot be re-created from the registry."""
    config = runner.adapter.fork_config()
    if config is None or config[0].lower() not in available_adapters():
        return None
    return RunnerSpec.of(runner, *config)


def _quarantined_file_result(
    host_name: str, test_file: TestFile, adapter_name: str, detail: str, attempts: int = 1
) -> tuple[FileResult, InfraFailure]:
    """``(stand-in FileResult, InfraFailure)`` for a file a quarantined adapter would not run."""
    failure = InfraFailure(
        kind="adapter-quarantined",
        suite=test_file.suite,
        host=host_name,
        path=test_file.path,
        detail=detail,
        attempts=attempts,
    )
    reason = f"adapter {adapter_name!r} quarantined"
    return _synthesize_file_result(host_name, test_file, RecordOutcome.SKIP, reason), failure


def _execute_file(
    spec: RunnerSpec,
    test_file: TestFile,
    policy: ResiliencePolicy,
    ensure_runner,
    drop_adapter,
    breaker: CircuitBreaker,
    breaker_key: PoolKey,
) -> tuple[FileResult, bool, InfraFailure | None]:
    """Run one file under the campaign's resilience policy.

    Returns ``(file_result, persistable, failure)``: ``persistable`` is False
    for synthesized stand-ins (which must never enter the store), ``failure``
    is the :class:`InfraFailure` record when the fault could not be recovered.
    Transient errors retry on a fresh adapter (the suspect one is discarded,
    its failure counted against the circuit breaker); non-transient errors
    propagate unchanged on the first attempt.  A watchdog timeout is not
    retried — a wedged execution would in all likelihood wedge again, doubling
    the wall-clock cost of the deadline for nothing.
    """
    attempt = 0
    while True:
        attempt += 1
        if breaker.is_quarantined(breaker_key):
            file_result, failure = _quarantined_file_result(
                spec.host_name, test_file, breaker_key[0], breaker.quarantine_detail(breaker_key), max(1, attempt - 1)
            )
            return file_result, False, failure
        try:
            runner = ensure_runner()
            if policy.watchdog_seconds is not None:
                file_result = run_with_deadline(
                    lambda: runner.run_file(test_file),
                    policy.watchdog_seconds,
                    label=f"{spec.host_name}:{test_file.path}",
                )
            else:
                file_result = runner.run_file(test_file)
        except WatchdogTimeout as error:
            # the execution is still wedged on its abandoned helper thread;
            # the adapter it holds must never be re-pooled
            drop_adapter()
            breaker.record_failure(breaker_key, detail=str(error), threshold=policy.quarantine_after)
            failure = InfraFailure(
                kind="watchdog-timeout",
                suite=test_file.suite,
                host=spec.host_name,
                path=test_file.path,
                detail=str(error),
                attempts=attempt,
            )
            return _synthesize_file_result(spec.host_name, test_file, RecordOutcome.HANG, str(error)), False, failure
        except Exception as error:
            drop_adapter()
            detail = f"{type(error).__name__}: {error}"
            breaker.record_failure(breaker_key, detail=detail, threshold=policy.quarantine_after)
            if not policy.retry.retryable(error):
                raise
            if policy.retry.should_retry(error, attempt) and not breaker.is_quarantined(breaker_key):
                time.sleep(policy.retry.delay_for(attempt, token=test_file.path))
                continue
            if breaker.is_quarantined(breaker_key):
                continue  # the top of the loop synthesizes the quarantine record
            failure = InfraFailure(
                kind="retry-exhausted",
                suite=test_file.suite,
                host=spec.host_name,
                path=test_file.path,
                detail=detail,
                attempts=attempt,
            )
            return _synthesize_file_result(spec.host_name, test_file, RecordOutcome.SKIP, f"infrastructure failure: {detail}"), False, failure
        breaker.record_success(breaker_key)
        return file_result, True, None


def _checked_frame(blob: bytes, test_file: TestFile) -> bytes:
    """``blob`` itself, once its head decodes against ``test_file``.

    The reader of a store probe: a corrupt frame is a miss where it is
    loaded, and an intact one travels as it was stored.
    """
    result_codec.decode_file_result(blob, test_file)
    return blob


def execute_files(
    spec: RunnerSpec,
    files: list[tuple[int, TestFile]],
    store: "ArtifactStore | None",
    policy: ResiliencePolicy,
    adapters: AdapterPool,
    probe_store: bool = False,
) -> list[FileOutcome]:
    """Execute ``files`` (``(index, file)`` pairs) in order: the one way a store miss runs.

    The files share one adapter from ``adapters``, acquired when the first
    file executes and released at the end.  Each file runs under ``policy``
    (see :func:`_execute_file`): a transient fault retries the file on a
    rebuilt adapter, the watchdog cuts off a wedged file, every failure
    counts against ``adapters.breaker`` under ``pool_key(spec.adapter_name,
    {})``, and once that key is quarantined no file executes.  An adapter
    that failed — or was in use when this call raised — is discarded, never
    re-pooled.  A drain requested through :mod:`repro.core.shutdown` turns
    every file not yet started into a resumable stand-in.

    With a ``store``, every executed file persists under its
    ``file-results`` key before the next one starts; stand-ins never
    persist, so a later run re-enters them.  ``probe_store=True`` first
    serves each file the store already holds: a shard re-dispatched after a
    worker crash loads what the killed worker persisted.

    Returns one ``(index, result, InfraFailure or None)`` per file, in the
    order given; the failure is the unrecovered fault that made the result a
    stand-in.  A file the store holds — persisted here, or served by the
    probe — comes back as its codec frame (bytes), every other one as its
    :class:`FileResult`.
    """
    breaker_key = pool_key(spec.adapter_name, {})
    runner: TestRunner | None = None

    def _ensure_runner() -> TestRunner:
        nonlocal runner
        if runner is None:
            runner = spec.make_runner(adapters.acquire(spec.adapter_name, **dict(spec.adapter_kwargs)))
        return runner

    def _drop_adapter() -> None:
        # an adapter whose execution blew up (or timed out) is not
        # trustworthy: tear it down instead of re-pooling it
        nonlocal runner
        if runner is not None:
            adapters.discard(runner.adapter)
            runner = None

    outcomes: list[FileOutcome] = []
    try:
        for index, test_file in files:
            if shutdown.draining():
                # the file that was executing when the drain was requested
                # has finished (and persisted); every later one degrades to
                # a resumable stand-in
                outcomes.append((index, *_drained_file_result(spec.host_name, test_file)))
                continue
            key = file_result_key(spec, test_file) if store is not None else None
            if key is not None and probe_store:
                frame = store.load(FILE_RESULTS_NAMESPACE, key, _checked_frame, test_file)
                if frame is not None:
                    outcomes.append((index, frame, None))
                    continue
            file_result, persistable, failure = _execute_file(
                spec, test_file, policy, _ensure_runner, _drop_adapter, adapters.breaker, breaker_key
            )
            frame = None
            if key is not None and persistable:
                frame = save_checked(store, FILE_RESULTS_NAMESPACE, key, result_codec.encode_file_result, file_result, test_file)
            outcomes.append((index, file_result if frame is None else frame, failure))
            kill_point("file-finish")
    except BaseException:
        _drop_adapter()
        raise
    if runner is not None:
        adapters.release(runner.adapter)
    return outcomes


#: the adapter pool of a :class:`WorkerPool` worker process, set by
#: :func:`_enter_worker` when the worker starts; None in every other process
_WORKER_ADAPTERS: AdapterPool | None = None


def _enter_worker() -> None:
    """Process-pool initializer: give the new worker its one adapter pool."""
    global _WORKER_ADAPTERS
    _WORKER_ADAPTERS = AdapterPool()


def _stats_delta(before: dict[str, dict], after: dict[str, dict]) -> dict[str, dict]:
    """Per-cache counter increase between two :func:`perf.cache_stats` calls."""
    return {
        name: {counter: stats[counter] - before.get(name, {}).get(counter, 0) for counter in ("hits", "misses", "evictions")}
        for name, stats in after.items()
    }


def _run_shard(
    spec: RunnerSpec,
    shard: list[tuple[int, TestFile]],
    caching: bool,
    store_spec: StoreSpec | None,
    probe_store: bool,
    policy: ResiliencePolicy,
) -> tuple[list[FileOutcome], dict]:
    """Worker entry point: run one shard through :func:`execute_files`.

    ``caching`` mirrors the submitting process's global cache switch into
    the worker; the store is re-opened from its :class:`StoreSpec`; the files
    execute on the worker's one adapter pool, so a persistent worker serves
    its next shard — or next suite — on the same live adapter, and the
    worker ships the frames it stored (see :func:`execute_files`) and its
    cache-counter delta home for the parent to absorb.  Run
    in the submitting process itself (a pool finishing in-process), the
    shard executes on an adapter pool of its own, closed before it returns
    so no live adapter outlives the call, and ships no delta: the counters
    are already home.

    Every error raised by shard work leaves as :class:`ShardExecutionError`,
    so the submitter's :func:`_is_pool_infra_error` can never mistake an
    in-shard ``OSError`` for pool breakage (which would silently re-execute
    the batch).  The one exception is :class:`AdapterNotFoundError`: a worker
    that cannot rebuild the adapter *is* an infrastructure gap, and finishing
    in the submitting process, whose registry has it, is the recovery.
    """
    try:
        perf_cache.set_caching(caching)
        store = _worker_store(store_spec)
        if _WORKER_ADAPTERS is None:
            with AdapterPool() as adapters:
                return execute_files(spec, shard, store, policy, adapters, probe_store), {}
        before = perf_cache.cache_stats()
        outcomes = execute_files(spec, shard, store, policy, _WORKER_ADAPTERS, probe_store)
        return outcomes, _stats_delta(before, perf_cache.cache_stats())
    except (ShardExecutionError, AdapterNotFoundError):
        raise
    except Exception as error:
        raise ShardExecutionError(f"{type(error).__name__}: {error}") from error


class WorkerPool:
    """A persistent process pool shared across the suites of one campaign.

    A campaign's owner (:class:`~repro.experiments.context.ExperimentContext`,
    a test, a benchmark) creates one of these and threads it through corpus
    generation, analysis and every ``run_transplant``: the executor (and
    therefore each worker process, and each worker's adapter pool) survives
    from one suite to the next, which is what makes per-worker adapter reuse
    span a whole campaign instead of a single sharded run.  Creating the pool
    starts no process; the first :meth:`map_tasks` does, and :meth:`shutdown`
    (or leaving a ``with`` block) stops them — the pool stays usable and
    starts afresh on its next batch.  A pool that cannot start, or that
    breaks again after its one rebuild, sets :attr:`in_process`: it finishes
    its tasks in this process and stays there, so a campaign does not
    re-probe a broken fork on every suite.
    """

    def __init__(self, max_workers: int):
        #: the pool's width: worker processes, and shards per sharded cell
        self.workers = max(1, max_workers)
        #: sticky: True once the process pool failed for good, after which
        #: every task runs in this process
        self.in_process = False
        self._pool = None  # the executor, built at the first batch

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()

    def map_tasks(self, fn, tasks, retry_tasks=None):
        """Run ``fn(*task)`` for every argument tuple; results in task order.

        ``fn`` must be a module-level callable (it travels by pickle).

        **Worker-crash containment**: a task whose future dies of pool
        infrastructure breakage (a ``kill -9``'d worker breaks the whole
        ``ProcessPoolExecutor`` — every pending future raises
        ``BrokenProcessPool``) does not fail the batch.  Results that
        already arrived are kept; the pool is rebuilt once and only the
        unfinished tasks are re-dispatched.  If the rebuilt pool breaks too —
        or the breakage cannot be rebuilt away (no fork support, sandboxed
        semaphores, pickling errors) — the remaining tasks finish in this
        process, and so does every later batch (:attr:`in_process`).
        ``retry_tasks``, when given, replaces the argument tuples used for
        re-dispatch (same length/order as ``tasks``); sharded assembly uses
        it to turn store probing on so a crashed worker's persisted files are
        loaded, not re-executed.  Genuine errors raised by ``fn`` propagate
        unchanged.
        """
        results: list = [None] * len(tasks)
        pending = list(range(len(tasks)))
        dispatch = list(tasks)
        rebuilt = False
        while pending and not self.in_process:
            try:
                if self._pool is None:
                    self._pool = ProcessPoolExecutor(max_workers=self.workers, initializer=_enter_worker)
                futures = {index: self._pool.submit(fn, *dispatch[index]) for index in pending}
            except Exception as error:
                # bootstrap/submission failure: nothing of this round ran
                if not _is_pool_infra_error(error):
                    raise
                self._stay_in_process(error)
                break
            unfinished: list[int] = []
            last_infra: BaseException | None = None
            for index in pending:
                try:
                    results[index] = futures[index].result()
                except Exception as error:
                    if not _is_pool_infra_error(error):
                        raise
                    unfinished.append(index)
                    last_infra = error
            pending = unfinished
            if not pending:
                break
            if retry_tasks is not None:
                dispatch = list(retry_tasks)
            if isinstance(last_infra, BrokenExecutor) and not rebuilt:
                # a killed worker broke the pool; the completed futures kept
                # their results — rebuild once and re-dispatch only the rest
                rebuilt = True
                logger.warning(
                    "worker pool broke mid-batch (%s); rebuilding and re-dispatching %d unfinished task(s)",
                    last_infra, len(pending),
                )
                self.shutdown()
            else:
                self._stay_in_process(last_infra)
        for index in pending:
            results[index] = fn(*dispatch[index])
        return results

    def _stay_in_process(self, error: BaseException) -> None:
        logger.warning("worker pool unavailable (%s); running its tasks in this process from now on", error)
        self.shutdown()
        self.in_process = True

    def shutdown(self) -> None:
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None


def fan_out(worker_pool: WorkerPool | None, fn, tasks: list) -> list:
    """``fn(*task)`` for every task, in task order: fanned out over ``worker_pool``
    when there is one and at least two tasks, run in this process otherwise.

    The one "fan the misses out or run them inline" rule of corpus
    generation and analysis; ``fn`` must be module-level when a pool may
    receive it.
    """
    if worker_pool is not None and len(tasks) > 1:
        return worker_pool.map_tasks(fn, tasks)
    return [fn(*task) for task in tasks]


def _execute_sharded(
    spec: RunnerSpec,
    missing: list[tuple[int, TestFile]],
    store: "ArtifactStore | None",
    policy: ResiliencePolicy,
    worker_pool: WorkerPool,
) -> list[FileOutcome]:
    """Run ``missing`` through :func:`_run_shard` as round-robin shards, one per worker."""
    width = worker_pool.workers
    shards = [shard for shard in (missing[offset::width] for offset in range(width)) if shard]
    caching = perf_cache.caching_enabled()
    store_spec = store_spec_for(store)
    # probe_store=False: assembly just probed (and counted) every file, so
    # workers only execute and persist — except when a shard is re-dispatched
    # after a worker crash, whose persisted files must load, not re-execute
    tasks = [(spec, shard, caching, store_spec, False, policy) for shard in shards]
    retry_tasks = [(spec, shard, caching, store_spec, True, policy) for shard in shards] if store is not None else None
    outcomes: list[FileOutcome] = []
    for shard_outcome, stats in worker_pool.map_tasks(_run_shard, tasks, retry_tasks=retry_tasks):
        # worker processes counted cache activity in their own address
        # space; fold it into this process's counters
        perf_cache.absorb_stats(stats)
        outcomes.extend(shard_outcome)
    return outcomes


def assemble_suite_result(
    suite: TestSuite,
    spec: RunnerSpec,
    store: "ArtifactStore | None",
    policy: ResiliencePolicy,
    adapters: AdapterPool,
    worker_pool: WorkerPool | None = None,
) -> SuiteResult:
    """Assemble a suite result file by file — the one path every matrix cell takes.

    With a ``store``, every file of ``suite`` is probed in the
    ``file-results`` namespace first and only the misses execute, so a
    campaign whose suite changed in one file re-executes that one file and
    loads the other N-1 — at ~1/N of a cold run's cost while staying
    byte-identical to full re-execution (per-file results are exactly what
    serial execution produces; the merge preserves file order).  A
    corrupted, truncated, or version-bumped frame falls back to executing
    *that one file* (the store deletes it, never trusts it).  Without a
    store every file is a miss and nothing persists.

    When a file missed, the circuit breaker is consulted once, under
    ``pool_key(spec.adapter_name, {})``: a quarantined adapter keeps every
    loaded file, and each miss becomes a SKIP stand-in with its own
    ``adapter-quarantined`` record.  Otherwise the misses run through
    :func:`execute_files` — in this process on ``adapters`` when there is
    no ``worker_pool``, a single file missed or the pool already runs
    in-process, else as round-robin shards on ``worker_pool``.  An
    unrecovered fault degrades only the files it hit:
    ``SuiteResult.infra_failures`` holds one record per such file, in file
    order.

    Every file that comes back as a frame is decoded here, head only,
    against ``suite``'s own :class:`TestFile`.  That frame was stored a
    moment ago, so one that does not decode is an encoder bug, not a stale
    entry: its :class:`~repro.store.codec.CodecError` propagates.
    """
    outcomes: list[FileOutcome] = []
    missing: list[tuple[int, TestFile]] = []
    for index, test_file in enumerate(suite.files):
        if store is not None:
            key = file_result_key(spec, test_file)
            file_result = store.load(FILE_RESULTS_NAMESPACE, key, result_codec.decode_file_result, test_file)
            if file_result is not None:
                outcomes.append((index, file_result, None))
                continue
        missing.append((index, test_file))
    breaker_key = pool_key(spec.adapter_name, {})
    if missing and not shutdown.draining() and adapters.breaker.is_quarantined(breaker_key):
        detail = adapters.breaker.quarantine_detail(breaker_key)
        for index, test_file in missing:
            outcomes.append((index, *_quarantined_file_result(spec.host_name, test_file, breaker_key[0], detail)))
        missing = []
    if worker_pool is not None and len(missing) > 1 and not worker_pool.in_process:
        outcomes.extend(_execute_sharded(spec, missing, store, policy, worker_pool))
    else:
        outcomes.extend(execute_files(spec, missing, store, policy, adapters))
    outcomes.sort(key=lambda outcome: outcome[0])
    merged = SuiteResult(suite=suite.name, host=spec.host_name)
    merged.files = [
        result_codec.decode_file_result(result, suite.files[index]) if type(result) is bytes else result
        for index, result, _ in outcomes
    ]
    merged.infra_failures = [failure for _, _, failure in outcomes if failure is not None]
    return merged

"""Shared state for experiment drivers: corpora and execution results."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.adapters.pool import AdapterPool
from repro.analysis.incremental import SuiteAnalyzer
from repro.core.parallel import WorkerPool
from repro.core.records import TestSuite
from repro.core.resilience import ResiliencePolicy, set_default_timeout
from repro.core.transplant import CellKey, TransplantResult
from repro.corpus import build_all_suites, build_suite
from repro.store import ArtifactStore
from repro.store import artifacts as artifact_store


@dataclass
class ExperimentResult:
    """Output of one experiment: a formatted report plus raw data."""

    experiment_id: str
    title: str
    text: str
    data: dict[str, Any] = field(default_factory=dict)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.text


class ExperimentContext:
    """Caches corpora and cross-execution results shared by the experiments.

    ``scale`` scales the number of generated test files per suite (1.0 is the
    laptop-sized default documented in EXPERIMENTS.md); ``seed`` makes the
    whole campaign deterministic.

    ``store_dir`` points the persistent artifact store somewhere other than
    the default (``REPRO_STORE_DIR`` or ``~/.cache/repro-store``);
    ``use_store=False`` runs the whole campaign storeless (the CLI's
    ``--no-store``).  With the store on, corpora and per-file donor
    recordings load from disk when a previous campaign — in any process —
    already produced them, and every matrix cell assembles file by file: a
    cell whose suite changed re-executes only the changed files and loads
    the rest from the ``file-results`` namespace.

    ``workers`` (the CLI's ``--workers``) above 1 gives the context one
    :class:`~repro.core.parallel.WorkerPool` of that width, which donor
    recording, analysis and every campaign share; it starts its processes
    at the first batch it fans out and stops them in :meth:`close`.

    ``timeout_seconds`` (the CLI's ``--timeout``) sets the process-wide
    statement/watchdog timeout (see
    :func:`repro.core.resilience.set_default_timeout`); ``resilience``
    overrides the whole campaign resilience policy, which is threaded into
    every matrix cell.  :meth:`infra_failures` reports the unrecovered
    infrastructure faults of every cell computed so far — the CLI maps a
    non-empty list to its "partial results" exit code.
    """

    def __init__(
        self,
        scale: float = 1.0,
        seed: int = 0,
        workers: int = 1,
        store_dir: str | None = None,
        use_store: bool = True,
        timeout_seconds: float | None = None,
        resilience: ResiliencePolicy | None = None,
    ):
        self.scale = scale
        self.seed = seed
        if timeout_seconds is not None:
            set_default_timeout(timeout_seconds)
        self.timeout_seconds = timeout_seconds
        #: campaign resilience policy; None means every cell resolves
        #: :func:`repro.core.resilience.default_policy` at execution time
        self.resilience = resilience
        #: resolved artifact-store argument threaded through every corpus
        #: build and campaign: an explicit store, the process default
        #: (``DEFAULT``), or ``None`` for storeless
        self.store: "ArtifactStore | str | None"
        if not use_store:
            self.store = None
        elif store_dir is not None:
            self.store = ArtifactStore(root=store_dir)
        else:
            self.store = artifact_store.DEFAULT
        #: the context's one process pool (None: everything runs in this
        #: process); every table/figure driver inherits it through the
        #: shared corpora, analysis and cells
        self.worker_pool = WorkerPool(workers) if workers > 1 else None
        self._suites: dict[str, TestSuite] | None = None
        self._mysql_suite: TestSuite | None = None
        #: campaign-lifetime adapter pool: every cell of every streaming pass
        #: shares leased adapters instead of rebuilding them per transplant
        self.adapter_pool = AdapterPool()
        #: the campaign's incremental analyzer: every analysis-driven
        #: experiment (tables 2-3 and 8, figures 1-3) reads suites through it
        #: instead of re-scanning or re-executing whole suites — per-file
        #: partials are served from the store's ``file-analysis`` namespace,
        #: only changed files are re-analyzed, fanned over the worker pool,
        #: and a storeless context analyzes every file (value-identical)
        self.analysis = SuiteAnalyzer(store=self.store, worker_pool=self.worker_pool)
        #: the one place a cell lives: every cell a streaming pass
        #: (:mod:`repro.experiments.stream`) executed, keyed by its
        #: :func:`~repro.core.transplant.plain_alias`.  Experiments read their
        #: cells from here, and a later pass on this context serves them
        #: without re-running anything
        self.cells: dict[CellKey, TransplantResult] = {}

    def close(self) -> None:
        """Release pooled adapters and shut down campaign workers.

        The context stays usable afterwards: the next campaign simply starts
        from an empty adapter pool and restarts the worker processes.
        """
        if self.worker_pool is not None:
            self.worker_pool.shutdown()
        self.adapter_pool.close()
        self.adapter_pool = AdapterPool()

    def __enter__(self) -> "ExperimentContext":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- corpora -------------------------------------------------------------------

    @property
    def suites(self) -> dict[str, TestSuite]:
        """The three executable suites (SLT, PostgreSQL, DuckDB).

        Donor recording of any files the store cannot serve is sharded over
        the context's worker pool, the same pool the campaigns execute on.
        """
        if self._suites is None:
            self._suites = build_all_suites(
                seed=self.seed, scale=self.scale, store=self.store, worker_pool=self.worker_pool
            )
        return self._suites

    @property
    def mysql_suite(self) -> TestSuite:
        """The MySQL corpus (analysed for RQ1/Figure 1, not executed)."""
        if self._mysql_suite is None:
            from repro.corpus.generate import DEFAULT_FILE_COUNT

            file_count = max(3, int(round(DEFAULT_FILE_COUNT["mysql"] * self.scale)))
            self._mysql_suite = build_suite(
                "mysql",
                file_count=file_count,
                seed=self.seed,
                store=self.store,
                worker_pool=self.worker_pool,
            )
        return self._mysql_suite

    def all_suites_with_mysql(self) -> dict[str, TestSuite]:
        suites = dict(self.suites)
        suites["mysql"] = self.mysql_suite
        return suites

    # -- execution results -----------------------------------------------------------

    def note_stream_cell(self, key: CellKey, result: TransplantResult) -> None:
        """Record one cell a streaming pass executed in :attr:`cells`."""
        self.cells[key] = result

    def infra_failures(self) -> list:
        """Unrecovered infrastructure faults of every cell computed so far.

        Only work that already happened is consulted — asking for failures
        must not trigger a campaign.
        """
        return [failure for result in self.cells.values() for failure in result.infra_failures]

"""Shared state for experiment drivers: corpora and execution results."""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.adapters.pool import AdapterPool
from repro.core.journal import JOURNAL_DIRNAME
from repro.core.records import TestSuite
from repro.core.resilience import ResiliencePolicy, set_default_timeout
from repro.core.transplant import DEFAULT_HOSTS, TransplantMatrix, run_matrix
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

    ``timeout_seconds`` (the CLI's ``--timeout``) sets the process-wide
    statement/watchdog timeout (see
    :func:`repro.core.resilience.set_default_timeout`); ``resilience``
    overrides the whole campaign resilience policy, which is threaded into
    every matrix cell.  :meth:`infra_failures` reports the unrecovered
    infrastructure faults of every matrix computed so far — the CLI maps a
    non-empty list to its "partial results" exit code.
    """

    def __init__(
        self,
        scale: float = 1.0,
        seed: int = 0,
        hosts: tuple[str, ...] = DEFAULT_HOSTS,
        workers: int = 1,
        executor: str = "auto",
        store_dir: str | None = None,
        use_store: bool = True,
        timeout_seconds: float | None = None,
        resilience: ResiliencePolicy | None = None,
        journal: "bool | str | os.PathLike | None" = None,
    ):
        self.scale = scale
        self.seed = seed
        self.hosts = hosts
        if timeout_seconds is not None:
            set_default_timeout(timeout_seconds)
        self.timeout_seconds = timeout_seconds
        #: campaign resilience policy; None means every cell resolves
        #: :func:`repro.core.resilience.default_policy` at execution time
        self.resilience = resilience
        #: write-ahead journal setting threaded into every campaign
        #: (see :func:`repro.core.transplant.run_matrix`): ``True`` journals
        #: under the store, a path journals there, ``None`` disables.  The
        #: plain and translated matrices are distinct campaigns and keep
        #: distinct journal files.
        self.journal = journal
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
        #: worker-pool width used for every cross-execution campaign; all
        #: table/figure drivers inherit it through the shared matrices
        self.workers = workers
        self.executor = executor
        self._suites: dict[str, TestSuite] | None = None
        self._mysql_suite: TestSuite | None = None
        self._matrix: TransplantMatrix | None = None
        self._translated_matrix: TransplantMatrix | None = None
        #: campaign-lifetime adapter pool: the plain and translated matrices
        #: (and any driver-level transplants routed through the context) share
        #: leased adapters instead of rebuilding them per transplant
        self.adapter_pool = AdapterPool()
        self._worker_pool = None
        self._analysis = None
        #: cells resolved by streaming passes (:mod:`repro.experiments.stream`)
        #: that are not part of a full adopted matrix; keyed by
        #: :class:`~repro.experiments.base.CellKey`
        self._stream_cells: dict = {}

    @property
    def worker_pool(self):
        """The context's persistent sharded-execution pool (``workers > 1``)."""
        if self.workers > 1 and self._worker_pool is None:
            from repro.core.parallel import WorkerPool

            self._worker_pool = WorkerPool(self.workers, self.executor)
        return self._worker_pool

    @property
    def analysis(self):
        """The campaign's incremental analyzer (store- and pool-backed).

        Every analysis-driven experiment (tables 2-3 and 8, figures 1-3)
        reads suites through this
        :class:`~repro.analysis.incremental.SuiteAnalyzer` instead of
        re-scanning or re-executing whole suites: per-file partials are
        served from the store's ``file-analysis`` namespace and only changed
        files are re-analyzed, fanned over the same worker pool the
        campaigns execute on.  Storeless contexts (``use_store=False``)
        analyze every file — value-identical either way.
        """
        if self._analysis is None:
            from repro.analysis.incremental import SuiteAnalyzer

            self._analysis = SuiteAnalyzer(
                store=self.store,
                workers=self.workers,
                executor=self.executor,
                # resolved per call: analysis shares the campaign's persistent
                # pool, including one created after the analyzer was built
                worker_pool=lambda: self.worker_pool,
            )
        return self._analysis

    def close(self) -> None:
        """Release pooled adapters and shut down campaign workers.

        The context stays usable afterwards: the next campaign simply starts
        from an empty pool.
        """
        if self._worker_pool is not None:
            self._worker_pool.shutdown()
            self._worker_pool = None
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
        the context's persistent worker pool (``workers > 1``), the same pool
        the campaigns execute on.
        """
        if self._suites is None:
            self._suites = build_all_suites(
                seed=self.seed,
                scale=self.scale,
                store=self.store,
                workers=self.workers,
                executor=self.executor,
                worker_pool=self.worker_pool,
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
                workers=self.workers,
                executor=self.executor,
                worker_pool=self.worker_pool,
            )
        return self._mysql_suite

    def all_suites_with_mysql(self) -> dict[str, TestSuite]:
        suites = dict(self.suites)
        suites["mysql"] = self.mysql_suite
        return suites

    # -- execution results -----------------------------------------------------------

    @property
    def matrix(self) -> TransplantMatrix:
        """The full cross-execution matrix (every suite on every host)."""
        if self._matrix is None:
            self._matrix = run_matrix(
                self.suites,
                hosts=self.hosts,
                workers=self.workers,
                executor=self.executor,
                adapter_pool=self.adapter_pool,
                worker_pool=self.worker_pool,
                store=self.store,
                resilience=self.resilience,
                journal=self.journal,
            )
        return self._matrix

    @property
    def translated_matrix(self) -> TransplantMatrix:
        """The same matrix with the cross-dialect translator enabled (ablation)."""
        if self._translated_matrix is None:
            self._translated_matrix = run_matrix(
                self.suites,
                hosts=self.hosts,
                translate_dialect=True,
                workers=self.workers,
                executor=self.executor,
                # donor-on-donor runs are translation no-ops: reuse them from
                # the plain matrix when it has already been computed
                reuse_donor_runs_from=self._matrix,
                # both matrices share the context's pools: host adapters and
                # sharded workers survive from the plain campaign into this one
                adapter_pool=self.adapter_pool,
                worker_pool=self.worker_pool,
                store=self.store,
                resilience=self.resilience,
                journal=self.journal,
            )
        return self._translated_matrix

    def journal_location(self) -> str | None:
        """Where this context's campaign journals live, or None when off.

        ``journal=True`` resolves to the store's ``journals/`` directory;
        a path setting is returned as given.  Used by the CLI to print the
        exact ``--resume-from`` target on degraded exits.
        """
        if self.journal is None or self.journal is False:
            return None
        if self.journal is True:
            store = artifact_store.active_store(self.store)
            if store is None:
                return None
            return str(Path(store.root) / JOURNAL_DIRNAME)
        return str(self.journal)

    def donor_result(self, suite: str):
        """The donor-on-donor transplant result for one suite."""
        from repro.core.transplant import DONOR_OF_SUITE

        return self.matrix.get(suite, DONOR_OF_SUITE[suite])

    def suite_names(self) -> tuple[str, ...]:
        """The executable suite names in corpus (and campaign) order."""
        return tuple(self.suites)

    def built_suite_names(self) -> tuple[str, ...]:
        """Suite names if the corpora are already built, else () — never builds."""
        return tuple(self._suites) if self._suites is not None else ()

    # -- streaming-pass cell cache ---------------------------------------------------

    def peek_cell(self, key):
        """The already-computed result for one matrix cell, or None.

        Consulted by the streaming engine before executing a cell: earlier
        streaming passes and already-computed full matrices both count, so a
        warm context resolves cells without re-running anything.  Never
        triggers a campaign.
        """
        result = self._stream_cells.get(key)
        if result is not None:
            return result
        matrix = self._translated_matrix if key.translate else self._matrix
        if matrix is not None:
            return matrix.entries.get((key.suite, key.host))
        return None

    def note_stream_cell(self, key, result) -> None:
        """Record one cell executed by a streaming pass (see :meth:`peek_cell`)."""
        self._stream_cells[key] = result

    def adopt_matrix(self, matrix: TransplantMatrix, translated: bool = False) -> None:
        """Install a full-grid matrix assembled by a streaming pass.

        Later reads of :attr:`matrix` / :attr:`translated_matrix` (and
        :meth:`donor_result`) then resolve from the pass instead of launching
        a fresh campaign.  A matrix the context already computed wins — the
        pass drew its cells from it anyway.
        """
        names = self.built_suite_names()
        if not names or not matrix.is_full_grid(names, self.hosts):
            return
        if translated:
            if self._translated_matrix is None:
                self._translated_matrix = matrix
        elif self._matrix is None:
            self._matrix = matrix

    def infra_failures(self) -> list:
        """Unrecovered infrastructure faults across every computed matrix.

        Streaming passes contribute the cells they executed; fault reports
        shared between a matrix and the stream cache (adopted matrices,
        donor-cell reuse) are counted once.  Only work that already happened
        is consulted — asking for failures must not trigger a campaign.
        """
        failures: list = []
        seen: set[int] = set()
        for matrix in (self._matrix, self._translated_matrix):
            if matrix is not None:
                for failure in matrix.infra_failures():
                    seen.add(id(failure))
                    failures.append(failure)
        for result in self._stream_cells.values():
            for failure in result.infra_failures:
                if id(failure) not in seen:
                    seen.add(id(failure))
                    failures.append(failure)
        return failures

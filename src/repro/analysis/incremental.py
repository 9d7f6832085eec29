"""Incremental, store-backed analysis passes (RQ1/RQ2 scans and Table 8 coverage).

Execution became incremental in the campaign layer (``file-results``:
per-file artifacts, suite answers assembled from them), but the analysis
scanners behind Tables 2-3 and Figures 1-3, and the coverage runs behind
Table 8, still re-read whole suites in every process.  This module closes
that gap: every analysis is a per-file partial (see the ``file_*`` functions
in the scanner modules and :mod:`repro.core.coverage`) plus an associative
merge, so suite-level answers assemble from cached partials and editing 1 of
N files re-analyzes exactly 1 file.

The store contract mirrors ``file-results``:

* one artifact per ``(file content hash, analysis pass)`` in the
  ``file-analysis`` namespace (:func:`repro.store.keys.analysis_file_key`;
  the code fingerprint joins every key, so a scanner change orphans all
  partials),
* payloads are versioned codec frames
  (:func:`repro.store.codec.encode_analysis_partial`) — magic, version byte,
  payload digest — and any frame the codec rejects is invalidated and
  re-scanned, never trusted,
* misses fan out over the campaign's :class:`~repro.core.parallel.WorkerPool`
  (scans are pure; the parent persists, so store stats stay with the live
  store), and a storeless run degrades to scanning every file — the merge is
  the whole-suite scan, value-identical by construction.

:class:`SuiteAnalyzer` binds a store/worker configuration once (an
:class:`~repro.experiments.context.ExperimentContext` holds one) and exposes
the familiar scanner signatures.
"""

from __future__ import annotations

from collections import Counter
from typing import Callable

from repro.analysis import features, filesize, predicates, statements
from repro.core import coverage
from repro.core.records import TestFile, TestSuite
from repro.store import artifacts as artifact_store
from repro.store import codec as result_codec
from repro.store.keys import FILE_ANALYSIS_NAMESPACE, analysis_file_key

#: The analysis passes: pass id -> module-level per-file scan function.
#: Scans are pure functions of the file (picklable, so process-pool workers
#: can receive them); the pass id is the store-key component that keeps one
#: file's partials apart.  ``coverage`` executes the file on each Table 8
#: engine; the others only read it.
ANALYSIS_PASSES: dict[str, Callable[[TestFile], dict]] = {
    "features": features.file_command_census,
    "statements": statements.file_statement_profile,
    "predicates": predicates.file_predicate_profile,
    "filesize": filesize.file_size_profile,
    "coverage": coverage.file_coverage_partial,
}


def _load_partial(store: "artifact_store.ArtifactStore", key: dict, pass_id: str):
    """One partial from the store, or None — the ``file-results`` corrupt-blob
    protocol: a frame the codec rejects is invalidated (deleted, its lookup
    demoted to a miss) and reported as absent, never trusted."""
    cached = store.load(FILE_ANALYSIS_NAMESPACE, key)
    if cached is None:
        return None
    try:
        return result_codec.decode_analysis_partial(cached, pass_id)
    except result_codec.CodecError:
        store.invalidate(FILE_ANALYSIS_NAMESPACE, key)
        return None


def _scan_file(pass_id: str, test_file: TestFile) -> dict:
    """Worker-side scan of one file (module-level so process pools can pickle it)."""
    return ANALYSIS_PASSES[pass_id](test_file)


def suite_partials(
    suite: TestSuite,
    pass_id: str,
    store: "artifact_store.ArtifactStore | str | None" = artifact_store.DEFAULT,
    workers: int = 1,
    executor: str = "auto",
    worker_pool=None,
) -> list[dict]:
    """Per-file partials of ``pass_id`` over ``suite``, in file order.

    Every file is probed in the store first and only the misses are scanned
    — serially, or over a worker pool when several files miss at once
    (``worker_pool`` reuses a campaign's persistent pool; ``workers > 1``
    without one shards over an ephemeral pool).  Fresh partials are
    persisted by the parent, so the next assembly — in any process — finds
    them.  ``store=None`` (or the global store switch) scans every file.
    """
    scan = ANALYSIS_PASSES[pass_id]  # unknown pass ids fail here, before any I/O
    backing = artifact_store.active_store(store)
    if backing is None:
        return [scan(test_file) for test_file in suite.files]
    keys = [analysis_file_key(pass_id, test_file) for test_file in suite.files]
    partials: dict[int, dict] = {}
    missing: list[tuple[int, TestFile]] = []
    for index, test_file in enumerate(suite.files):
        loaded = _load_partial(backing, keys[index], pass_id)
        if loaded is not None:
            partials[index] = loaded
            continue
        missing.append((index, test_file))
    if missing:
        tasks = [(pass_id, test_file) for _, test_file in missing]
        if workers > 1 and len(missing) > 1:
            from repro.core.parallel import WorkerPool, map_over_pool

            owns_pool = worker_pool is None
            if worker_pool is None:
                worker_pool = WorkerPool(min(workers, len(missing)), executor)
            try:
                produced = map_over_pool(worker_pool, _scan_file, tasks)
            finally:
                if owns_pool:
                    worker_pool.shutdown()
        else:
            produced = [_scan_file(*task) for task in tasks]
        for (index, _), partial in zip(missing, produced):
            partials[index] = partial
            try:
                blob = result_codec.encode_analysis_partial(pass_id, partial)
            except result_codec.CodecError:
                continue  # unencodable partial: reuse simply does not extend to it
            backing.save(FILE_ANALYSIS_NAMESPACE, keys[index], blob)
    return [partials[index] for index in range(len(suite.files))]


class SuiteAnalyzer:
    """Store-backed, incremental versions of the RQ1/RQ2 scanners and Table 8 coverage.

    Binds the store/worker configuration once; every method probes the
    ``file-analysis`` namespace per file and assembles the suite-level
    answer from the partials — value-identical to the direct whole-suite
    scanners (partials merge in file order, reproducing the scan's counter
    insertion order exactly, on top of the canonical serialization's
    key-order independence).

    ``worker_pool`` may be a live :class:`~repro.core.parallel.WorkerPool`
    or a zero-argument callable returning one (an
    :class:`~repro.experiments.context.ExperimentContext` passes its lazy
    pool property that way, so analysis alone never forces pool creation).
    """

    def __init__(
        self,
        store: "artifact_store.ArtifactStore | str | None" = artifact_store.DEFAULT,
        workers: int = 1,
        executor: str = "auto",
        worker_pool=None,
    ):
        self.store = store
        self.workers = workers
        self.executor = executor
        self.worker_pool = worker_pool

    def partials(self, suite: TestSuite, pass_id: str) -> list[dict]:
        """Per-file partials of one pass (see :func:`suite_partials`)."""
        pool = self.worker_pool() if callable(self.worker_pool) else self.worker_pool
        return suite_partials(
            suite, pass_id, store=self.store, workers=self.workers, executor=self.executor, worker_pool=pool
        )

    # -- features (Table 2) --------------------------------------------------------

    def command_census(self, suite: TestSuite) -> dict:
        """Incremental :func:`repro.analysis.features.count_runner_commands`."""
        return features.merge_command_censuses(suite.name, self.partials(suite, "features"))

    # -- statements (Figure 2, Table 3) --------------------------------------------

    def statement_type_distribution(self, suite: TestSuite, top: int | None = None) -> dict[str, float]:
        """Incremental :func:`repro.analysis.statements.statement_type_distribution`."""
        merged = statements.merge_statement_profiles(self.partials(suite, "statements"))
        return statements.distribution_from_profiles(merged, top)

    def statement_type_counts(self, suite: TestSuite) -> Counter:
        """Incremental :func:`repro.analysis.statements.statement_type_counts`."""
        return statements.merge_statement_profiles(self.partials(suite, "statements"))["counts"]

    def standard_compliance(self, suite: TestSuite, count_create_index_as_standard: bool = False):
        """Incremental :func:`repro.analysis.statements.standard_compliance`."""
        merged = statements.merge_statement_profiles(self.partials(suite, "statements"))
        return statements.compliance_from_profiles(suite.name, merged, count_create_index_as_standard)

    # -- predicates (Figure 3) -----------------------------------------------------

    def predicate_distribution(self, suite: TestSuite) -> dict[str, float]:
        """Incremental :func:`repro.analysis.predicates.predicate_distribution`."""
        merged = predicates.merge_predicate_profiles(self.partials(suite, "predicates"))
        return predicates.distribution_from_profiles(merged)

    def join_usage(self, suite: TestSuite):
        """Incremental :func:`repro.analysis.predicates.join_usage`."""
        merged = predicates.merge_predicate_profiles(self.partials(suite, "predicates"))
        return predicates.join_usage_from_profiles(suite.name, merged)

    # -- file sizes (Figure 1) -----------------------------------------------------

    def file_size_distribution(self, suite: TestSuite) -> list[int]:
        """Incremental :func:`repro.analysis.filesize.file_size_distribution`."""
        return filesize.sizes_from_profiles(self.partials(suite, "filesize"))

    def size_summary(self, suite: TestSuite):
        """Incremental :func:`repro.analysis.filesize.size_summary`."""
        return filesize.summarize_sizes(suite.name, self.file_size_distribution(suite))

    # -- engine feature coverage (Table 8) -----------------------------------------

    def coverage_reports(self, suite: TestSuite) -> dict[str, coverage.CoverageReport]:
        """Incremental :func:`repro.core.coverage.measure_coverage` of ``suite`` on
        every engine in :data:`~repro.core.coverage.COVERAGE_DIALECTS`."""
        merged = coverage.merge_coverage_partials(self.partials(suite, "coverage"))
        return {dialect: coverage.CoverageReport(dialect, set(exercised)) for dialect, exercised in merged.items()}

    # -- everything at once --------------------------------------------------------

    def full_report(self, suite: TestSuite) -> dict:
        """Every suite-level analysis answer, one store probe per pass.

        The one-call shape the differential tests and the
        ``pipeline_analysis_warm`` benchmark compare against the direct
        whole-suite scanners (see :func:`direct_report`).
        """
        census = features.merge_command_censuses(suite.name, self.partials(suite, "features"))
        stmts = statements.merge_statement_profiles(self.partials(suite, "statements"))
        preds = predicates.merge_predicate_profiles(self.partials(suite, "predicates"))
        sizes = filesize.sizes_from_profiles(self.partials(suite, "filesize"))
        return _assemble_report(suite.name, census, stmts, preds, sizes, self.coverage_reports(suite))


def direct_report(suite: TestSuite) -> dict:
    """The :meth:`SuiteAnalyzer.full_report` shape from the direct scanners.

    The storeless reference the equivalence tests pin assembly against.
    """
    return _assemble_report(
        suite.name,
        features.count_runner_commands(suite),
        statements.merge_statement_profiles(statements.file_statement_profile(test_file) for test_file in suite.files),
        predicates.merge_predicate_profiles(predicates.file_predicate_profile(test_file) for test_file in suite.files),
        filesize.file_size_distribution(suite),
        {
            dialect: coverage.measure_coverage(dialect, [test_file.statements() for test_file in suite.files])
            for dialect in coverage.COVERAGE_DIALECTS
        },
    )


def _assemble_report(
    suite_name: str, census: dict, stmts: dict, preds: dict, sizes: list[int], coverage_reports: dict
) -> dict:
    return {
        "command_census": census,
        "statement_distribution": statements.distribution_from_profiles(stmts),
        "statement_counts": dict(stmts["counts"]),
        "compliance": statements.compliance_from_profiles(suite_name, stmts),
        "compliance_relaxed": statements.compliance_from_profiles(suite_name, stmts, count_create_index_as_standard=True),
        "predicate_distribution": predicates.distribution_from_profiles(preds),
        "join_usage": predicates.join_usage_from_profiles(suite_name, preds),
        "size_summary": filesize.summarize_sizes(suite_name, sizes),
        "size_histogram": filesize.log_histogram(sizes),
        "sizes": list(sizes),
        "coverage": coverage_reports,
    }

"""Incremental, store-backed analysis passes (RQ2 scans and Table 8 coverage).

Execution became incremental in the campaign layer (``file-results``:
per-file artifacts, suite answers assembled from them); this module does the
same for the analyses that cost more than a store probe.  Each stored pass
is a per-file partial (see the ``file_*`` functions in the scanner modules
and :mod:`repro.core.coverage`) plus an associative merge, so suite-level
answers assemble from cached partials and editing 1 of N files re-analyzes
exactly 1 file.

Only three passes are stored: ``statements`` (Figure 2, Table 3),
``predicates`` (Figure 3) and ``coverage`` (Table 8).  The Table 2 command
census and the Figure 1 line counts cost less to compute than one store
load (see docs/STORE.md), so they are scanned from the in-memory suite
(:func:`repro.analysis.features.count_runner_commands`,
:func:`repro.analysis.filesize.file_size_distribution`) and never persisted.

The store contract mirrors ``file-results``:

* one artifact per ``(file content hash, analysis pass)`` in the
  ``file-analysis`` namespace (:func:`repro.store.keys.analysis_file_key`;
  the code fingerprint joins every key, so a scanner change orphans all
  partials),
* payloads are codec documents
  (:func:`repro.store.codec.encode_document`) carrying the pass id beside
  the partial — magic, version byte, payload digest — and any frame the
  codec rejects, or one of another pass, is a miss the store deletes and the
  pass re-scans, never trusts,
* misses fan out over the campaign's :class:`~repro.core.parallel.WorkerPool`
  (scans are pure; the parent persists, so store stats stay with the live
  store), and a storeless run degrades to scanning every file — the merge is
  the whole-suite scan, value-identical by construction.

:class:`SuiteAnalyzer` binds a store and worker pool once (an
:class:`~repro.experiments.context.ExperimentContext` holds one) and keeps
one merged profile per (suite files, stored pass), so a context probes each
partial once however many experiments read it (Figure 2 and Table 3 share
the ``statements`` profile), and derives every view from that profile.
"""

from __future__ import annotations

from typing import Callable

from repro.analysis import features, filesize, predicates, statements
from repro.core import coverage
from repro.core.parallel import WorkerPool, fan_out
from repro.core.records import TestFile, TestSuite
from repro.errors import CodecError
from repro.store import artifacts as artifact_store
from repro.store import codec as result_codec
from repro.store.keys import FILE_ANALYSIS_NAMESPACE, analysis_file_key, content_hash

#: The stored analysis passes: pass id -> module-level per-file scan
#: function.  Scans are pure functions of the file (picklable, so
#: process-pool workers can receive them); the pass id is the store-key
#: component that keeps one file's partials apart.  ``coverage`` executes the
#: file on each Table 8 engine; the others only read it.
ANALYSIS_PASSES: dict[str, Callable[[TestFile], dict]] = {
    "statements": statements.file_statement_profile,
    "predicates": predicates.file_predicate_profile,
    "coverage": coverage.file_coverage_partial,
}


def _scan_file(pass_id: str, test_file: TestFile) -> dict:
    """Worker-side scan of one file (module-level so process pools can pickle it)."""
    return ANALYSIS_PASSES[pass_id](test_file)


def suite_partials(
    suite: TestSuite,
    pass_id: str,
    store: "artifact_store.ArtifactStore | str | None" = artifact_store.DEFAULT,
    worker_pool: WorkerPool | None = None,
) -> list[dict]:
    """Per-file partials of ``pass_id`` over ``suite``, in file order.

    Every file is probed in the store first and only the misses are scanned
    — in this process, or over ``worker_pool`` when several files miss at
    once (see :func:`repro.core.parallel.fan_out`).  Fresh partials are
    persisted by the parent, so the next assembly — in any process — finds
    them.  ``store=None`` scans every file.
    """
    scan = ANALYSIS_PASSES[pass_id]  # unknown pass ids fail here, before any I/O
    backing = artifact_store.active_store(store)
    if backing is None:
        return [scan(test_file) for test_file in suite.files]
    keys = [analysis_file_key(pass_id, test_file) for test_file in suite.files]
    partials: dict[int, dict] = {}
    missing: list[tuple[int, TestFile]] = []
    for index, test_file in enumerate(suite.files):
        loaded = backing.load(FILE_ANALYSIS_NAMESPACE, keys[index], _stored_partial, pass_id)
        if loaded is not None:
            partials[index] = loaded
            continue
        missing.append((index, test_file))
    produced = fan_out(worker_pool, _scan_file, [(pass_id, test_file) for _, test_file in missing])
    for (index, _), partial in zip(missing, produced):
        partials[index] = partial
        document = {"pass": pass_id, "partial": partial}
        backing.save(FILE_ANALYSIS_NAMESPACE, keys[index], result_codec.encode_document(FILE_ANALYSIS_NAMESPACE, document))
    return [partials[index] for index in range(len(suite.files))]


def _stored_partial(blob: bytes, pass_id: str) -> dict:
    """The partial a stored frame holds for ``pass_id``; a frame of another pass is a :class:`CodecError`."""
    document = result_codec.decode_document(blob, FILE_ANALYSIS_NAMESPACE)
    partial = document.get("partial")
    if document.get("pass") != pass_id or not isinstance(partial, dict):
        raise CodecError(f"file-analysis frame does not hold a {pass_id!r} partial")
    return partial


class SuiteAnalyzer:
    """Store-backed, incremental RQ2 profiles and Table 8 coverage.

    Binds the store and worker pool once; the first request for a pass over
    a suite probes the ``file-analysis`` namespace once per file and merges
    the partials — value-identical to the direct whole-suite scan (partials
    merge in file order, reproducing the scan's counter insertion order
    exactly, on top of the canonical serialization's key-order
    independence).  The merged profile is kept under the pass and the
    content hashes of the suite's files, so later requests reuse it and a
    suite with a replaced file misses.  Callers read merged profiles and
    never mutate them.
    """

    def __init__(
        self,
        store: "artifact_store.ArtifactStore | str | None" = artifact_store.DEFAULT,
        worker_pool: WorkerPool | None = None,
    ):
        self.store = store
        self.worker_pool = worker_pool
        self._merged: dict[tuple, dict] = {}

    def partials(self, suite: TestSuite, pass_id: str) -> list[dict]:
        """Per-file partials of one pass (see :func:`suite_partials`)."""
        return suite_partials(suite, pass_id, store=self.store, worker_pool=self.worker_pool)

    def _merged_profile(self, suite: TestSuite, pass_id: str, merge: Callable[[list[dict]], dict]) -> dict:
        key = (pass_id, tuple(map(content_hash, suite.files)))
        merged = self._merged.get(key)
        if merged is None:
            merged = self._merged[key] = merge(self.partials(suite, pass_id))
        return merged

    def statement_profile(self, suite: TestSuite) -> dict:
        """The merged statement profile behind Figure 2 and both Table 3 variants
        (views: :func:`~repro.analysis.statements.distribution_from_profiles`,
        :func:`~repro.analysis.statements.compliance_from_profiles`)."""
        return self._merged_profile(suite, "statements", statements.merge_statement_profiles)

    def predicate_profile(self, suite: TestSuite) -> dict:
        """The merged predicate profile behind Figure 3 and its join usage
        (views: :func:`~repro.analysis.predicates.distribution_from_profiles`,
        :func:`~repro.analysis.predicates.join_usage_from_profiles`)."""
        return self._merged_profile(suite, "predicates", predicates.merge_predicate_profiles)

    def coverage_reports(self, suite: TestSuite) -> dict[str, coverage.CoverageReport]:
        """Incremental :func:`repro.core.coverage.measure_coverage` of ``suite`` on
        every engine in :data:`~repro.core.coverage.COVERAGE_DIALECTS`."""
        merged = self._merged_profile(suite, "coverage", coverage.merge_coverage_partials)
        return {dialect: coverage.CoverageReport(dialect, set(exercised)) for dialect, exercised in merged.items()}

    def full_report(self, suite: TestSuite) -> dict:
        """Every suite-level analysis answer, one store probe per stored pass.

        The one-call shape the differential tests and the
        ``pipeline_analysis_warm`` benchmark compare against the direct
        whole-suite scanners (see :func:`direct_report`).
        """
        return _assemble_report(
            suite.name,
            features.count_runner_commands(suite),
            self.statement_profile(suite),
            self.predicate_profile(suite),
            filesize.file_size_distribution(suite),
            self.coverage_reports(suite),
        )


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

"""The unified test runner: executes unified-format test files on any adapter.

Execution follows the paper's methodology: statement-by-statement, with every
record validated individually against its expectation.  Crashes and hangs are
recorded separately from ordinary failures (they are *never* expected), and
records can be skipped for three reasons that the RQ3/RQ4 analyses
distinguish: ``skipif``/``onlyif`` conditions, an unmet ``require`` (the
DuckDB pre-filtering), and ``mode skip`` regions.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Iterable

from repro.adapters.base import DBMSAdapter, ExecutionOutcome, ExecutionStatus
from repro.core import shutdown
from repro.core.commands import RunnerState, apply_control_record
from repro.core.comparison import ComparisonResult, compare_query_result
from repro.core.records import (
    DONOR_OF_SUITE,
    ControlRecord,
    QueryRecord,
    Record,
    StatementRecord,
    TestFile,
    canonical_dbms,
)
from repro.dialects.translator import translate
from repro.dialects import ALL_DIALECTS


class RecordOutcome(enum.Enum):
    """Per-record verdict."""

    PASS = "pass"
    FAIL = "fail"
    SKIP = "skip"
    CRASH = "crash"
    HANG = "hang"


@dataclass
class RecordResult:
    """Result of running one record.

    A FAIL record built from a store frame also holds ``_categories``, its
    (Table 6, Table 7) categories as the encoder classified them (see
    :func:`repro.core.classification.failure_categories`); it is not a field,
    so equality and the canonical bytes do not see it.
    """

    record: Record
    outcome: RecordOutcome
    reason: str = ""
    error: str = ""
    error_type: str = ""
    comparison: ComparisonResult | None = None
    execution: ExecutionOutcome | None = None

    @property
    def sql(self) -> str:
        return getattr(self.record, "sql", "")


@dataclass
class FileResult:
    """Results of running one test file on one host.

    Outcome counts are accumulated incrementally instead of re-scanning
    ``results`` on every property access (the seed behaviour): counters are
    caught up lazily with whatever was appended since the last access, so the
    properties stay O(1) amortized while ``results`` remains a plain,
    append-to-able list.  Replacing ``results`` wholesale (any length) and
    truncation are detected; only in-place element *overwrites* (which no
    caller performs) would go unnoticed.

    A result loaded from the store (:func:`repro.store.codec.decode_file_result`)
    starts without ``results``: its ``_frame`` answers the counters,
    :attr:`total` and :meth:`select` from the frame head, and ``results`` is
    built on first access.
    """

    path: str
    suite: str
    host: str
    results: list[RecordResult] = field(default_factory=list)
    _outcome_counts: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _counted: int = field(default=0, init=False, repr=False, compare=False)
    # strong reference, not id(): CPython reuses ids of dead objects, which
    # would make a replacement list silently pass for the counted one
    _counted_list: list | None = field(default=None, init=False, repr=False, compare=False)

    def __getattr__(self, name: str):
        # Lazy materialisation, the ExecutionOutcome idiom: the frame builds
        # every RecordResult once and is then dropped.  It is plain data, so
        # a lazy result pickles and stays lazy on the other side.
        state = self.__dict__
        if name == "results" and "_frame" in state:
            results = state["results"] = state["_frame"].results()
            state.pop("_frame", None)
            return results
        raise AttributeError(name)

    def _refresh_counts(self) -> dict:
        frame = self.__dict__.get("_frame")
        if frame is not None:
            return frame.counts
        results = self.results
        if self._counted > len(results) or self._counted_list is not results:
            # results was truncated or the list object replaced: recount
            self._outcome_counts = {}
            self._counted = 0
            self._counted_list = results
        if self._counted < len(results):
            counts = self._outcome_counts
            for result in results[self._counted :]:
                outcome = result.outcome
                counts[outcome] = counts.get(outcome, 0) + 1
            self._counted = len(results)
        return self._outcome_counts

    def count(self, outcome: RecordOutcome) -> int:
        return self._refresh_counts().get(outcome, 0)

    @property
    def total(self) -> int:
        """Number of record results."""
        frame = self.__dict__.get("_frame")
        return frame.total if frame is not None else len(self.results)

    @property
    def executed(self) -> int:
        return self.total - self.count(RecordOutcome.SKIP)

    @property
    def passed(self) -> int:
        return self.count(RecordOutcome.PASS)

    @property
    def failed(self) -> int:
        return self.count(RecordOutcome.FAIL)

    @property
    def skipped(self) -> int:
        return self.count(RecordOutcome.SKIP)

    @property
    def crashes(self) -> int:
        return self.count(RecordOutcome.CRASH)

    @property
    def hangs(self) -> int:
        return self.count(RecordOutcome.HANG)

    def select(self, *outcomes: RecordOutcome) -> list[RecordResult]:
        """The results whose outcome is one of ``outcomes``, in record order."""
        frame = self.__dict__.get("_frame")
        if frame is not None:
            return frame.select(outcomes)
        return [result for result in self.results if result.outcome in outcomes]

    def failures(self) -> list[RecordResult]:
        return self.select(RecordOutcome.FAIL)


@dataclass
class SuiteResult:
    """Aggregated results of running a whole suite on one host."""

    suite: str
    host: str
    files: list[FileResult] = field(default_factory=list)
    #: unrecovered infrastructure faults
    #: (:class:`repro.core.resilience.InfraFailure` records) — empty for clean
    #: runs *and* for runs whose transient faults were recovered by retry, so
    #: a recovered campaign stays byte-identical to a fault-free one
    infra_failures: list = field(default_factory=list)

    @property
    def is_complete(self) -> bool:
        """True when no infrastructure fault degraded this result."""
        return not self.infra_failures

    @property
    def total_cases(self) -> int:
        return sum(file_result.total for file_result in self.files)

    @property
    def executed_cases(self) -> int:
        return sum(file_result.executed for file_result in self.files)

    @property
    def passed_cases(self) -> int:
        return sum(file_result.passed for file_result in self.files)

    @property
    def failed_cases(self) -> int:
        return sum(file_result.failed for file_result in self.files)

    @property
    def skipped_cases(self) -> int:
        return sum(file_result.skipped for file_result in self.files)

    @property
    def crash_cases(self) -> int:
        return sum(file_result.crashes for file_result in self.files)

    @property
    def hang_cases(self) -> int:
        return sum(file_result.hangs for file_result in self.files)

    @property
    def success_rate(self) -> float:
        """Passed / executed, excluding crashes and hangs (Figure 4's metric)."""
        comparable = self.executed_cases - self.crash_cases - self.hang_cases
        if comparable <= 0:
            return 0.0
        return self.passed_cases / comparable

    def all_failures(self) -> list[RecordResult]:
        failures: list[RecordResult] = []
        for file_result in self.files:
            failures.extend(file_result.failures())
        return failures


def _synthesize_file_result(host_name: str, test_file: TestFile, outcome: RecordOutcome, reason: str) -> FileResult:
    """A stand-in :class:`FileResult` for a file infrastructure would not run.

    The first SQL record carries the terminal ``outcome`` (HANG for watchdog
    cutoffs, SKIP for quarantines, exhausted retries, and shutdown drains)
    and the rest are SKIPped, mirroring how the runner reports a mid-file
    engine crash.  These results are never persisted to the store — on
    resume the file re-executes.
    """
    file_result = FileResult(path=test_file.path, suite=test_file.suite, host=host_name)
    position = 0
    for record in test_file.records:
        if isinstance(record, ControlRecord):
            continue
        if position == 0:
            file_result.results.append(RecordResult(record=record, outcome=outcome, reason=reason, error=reason))
        else:
            file_result.results.append(RecordResult(record=record, outcome=RecordOutcome.SKIP, reason=reason))
        position += 1
    return file_result


def _drained_file_result(host_name: str, test_file: TestFile):
    """``(stand-in FileResult, InfraFailure)`` for a file a drain skipped.

    The failure record is what routes a drained campaign through the
    existing partial-results machinery: the stand-in is never persisted, the
    CLI exits 2, and resume re-enters exactly this file.
    """
    from repro.core.resilience import InfraFailure

    reason = f"shutdown drain: {shutdown.drain_reason()}" if shutdown.drain_reason() else "shutdown drain"
    failure = InfraFailure(
        kind=shutdown.SHUTDOWN_DRAIN_KIND,
        suite=test_file.suite,
        host=host_name,
        path=test_file.path,
        detail=shutdown.drain_reason(),
    )
    return _synthesize_file_result(host_name, test_file, RecordOutcome.SKIP, reason), failure


class TestRunner:
    """Runs unified-format test files on a DBMS adapter."""

    # not a pytest test class, despite the name
    __test__ = False

    def __init__(
        self,
        adapter: DBMSAdapter,
        host_name: str | None = None,
        available_extensions: Iterable[str] = (),
        float_tolerance: float = 0.0,
        translate_dialect: bool = False,
        donor_dialect: str | None = None,
    ):
        self.adapter = adapter
        self.host_name = host_name or adapter.name
        self.available_extensions = {extension.lower() for extension in available_extensions}
        self.float_tolerance = float_tolerance
        self.translate_dialect = translate_dialect
        self.donor_dialect = donor_dialect
        #: (source, target) dialect profiles every statement is translated
        #: between, or None when statements run as written
        self._translation = None
        if translate_dialect and donor_dialect is not None:
            donor = donor_dialect.lower()
            source = ALL_DIALECTS.get(DONOR_OF_SUITE.get(donor, donor))
            target = ALL_DIALECTS.get(canonical_dbms(self.host_name))
            if source is not None and target is not None and source.name != target.name:
                self._translation = (source, target)

    # -- public API -------------------------------------------------------------------

    def run_file(self, test_file: TestFile) -> FileResult:
        """Execute one test file from a clean database."""
        self.adapter.reset()
        state = RunnerState(host=self.host_name, available_extensions=set(self.available_extensions))
        file_result = FileResult(path=test_file.path, suite=test_file.suite, host=self.host_name)

        crashed = False
        for record in test_file.records:
            if crashed:
                file_result.results.append(RecordResult(record=record, outcome=RecordOutcome.SKIP, reason="previous crash"))
                continue
            if isinstance(record, ControlRecord):
                effect = apply_control_record(record, state)
                if effect.reset_connection:
                    self.adapter.reset()
                continue
            if state.halted or state.prefiltered:
                file_result.results.append(
                    RecordResult(record=record, outcome=RecordOutcome.SKIP, reason="halted" if state.halted else "require not satisfied")
                )
                continue
            if state.skipping:
                file_result.results.append(RecordResult(record=record, outcome=RecordOutcome.SKIP, reason="mode skip"))
                continue
            if not record.runs_on(self.host_name):
                file_result.results.append(RecordResult(record=record, outcome=RecordOutcome.SKIP, reason="skipif/onlyif"))
                continue
            result = self._run_sql_record(record, state)
            file_result.results.append(result)
            if result.outcome is RecordOutcome.CRASH:
                crashed = True
        return file_result

    # -- internals ---------------------------------------------------------------------

    def _prepare_sql(self, record: Record, state: RunnerState) -> str:
        sql = state.substitute(getattr(record, "sql", ""))
        if self._translation is None:
            return sql
        return translate(sql, *self._translation).sql

    def _run_sql_record(self, record: Record, state: RunnerState) -> RecordResult:
        sql = self._prepare_sql(record, state)
        outcome = self.adapter.execute(sql)

        if outcome.status is ExecutionStatus.CRASH:
            return RecordResult(
                record=record, outcome=RecordOutcome.CRASH, reason="engine crashed", error=outcome.error, error_type=outcome.error_type, execution=outcome
            )
        if outcome.status is ExecutionStatus.HANG:
            return RecordResult(
                record=record, outcome=RecordOutcome.HANG, reason="engine hang / timeout", error=outcome.error, error_type=outcome.error_type, execution=outcome
            )

        if isinstance(record, StatementRecord):
            if record.expect_ok and outcome.status is ExecutionStatus.ERROR:
                return RecordResult(
                    record=record,
                    outcome=RecordOutcome.FAIL,
                    reason="statement unexpectedly failed",
                    error=outcome.error,
                    error_type=outcome.error_type,
                    execution=outcome,
                )
            if not record.expect_ok and outcome.status is ExecutionStatus.OK:
                return RecordResult(
                    record=record,
                    outcome=RecordOutcome.FAIL,
                    reason="statement unexpectedly succeeded",
                    execution=outcome,
                )
            return RecordResult(record=record, outcome=RecordOutcome.PASS, execution=outcome)

        assert isinstance(record, QueryRecord)
        if outcome.status is ExecutionStatus.ERROR:
            return RecordResult(
                record=record,
                outcome=RecordOutcome.FAIL,
                reason="query unexpectedly failed",
                error=outcome.error,
                error_type=outcome.error_type,
                execution=outcome,
            )
        comparison = compare_query_result(record, outcome, float_tolerance=self.float_tolerance)
        if comparison.matches:
            return RecordResult(record=record, outcome=RecordOutcome.PASS, comparison=comparison, execution=outcome)
        return RecordResult(
            record=record,
            outcome=RecordOutcome.FAIL,
            reason=comparison.reason,
            comparison=comparison,
            execution=outcome,
        )

"""SQuaLity core: unified test-case representation and runner.

This is the paper's primary contribution: test cases from the SQLite (SLT),
PostgreSQL, DuckDB, and MySQL test suites are parsed into a common internal
representation (:mod:`repro.core.records`), and a unified runner
(:mod:`repro.core.runner`) executes them on any registered DBMS adapter,
validating results statement-by-statement.  The native-format parsers live in
the registry-driven :mod:`repro.formats` subsystem.

High-level entry points:

* :func:`repro.core.suite.load_suite` / :func:`repro.core.suite.parse_test_file`
  — turn native-format test files into the unified IR (auto-detecting the
  format via :func:`repro.formats.detect_format` when none is named),
* :class:`repro.core.runner.TestRunner` — execute a test file / suite on an
  adapter,
* :func:`repro.core.transplant.run_transplant` — the donor-on-host execution
  matrix behind Figure 4 and Tables 4-7,
* :mod:`repro.core.classification` — RQ3/RQ4 failure taxonomies,
* :mod:`repro.core.reducer` — delta-debugging reduction of failing test files.
"""

from repro.core.records import (
    Condition,
    ControlRecord,
    QueryRecord,
    Record,
    RecordType,
    SortMode,
    StatementRecord,
    TestFile,
    TestSuite,
)
from repro.core.resilience import InfraFailure, ResiliencePolicy, RetryPolicy, default_policy
from repro.core.runner import RecordOutcome, RecordResult, FileResult, SuiteResult, TestRunner
from repro.core.suite import load_suite, parse_test_file

__all__ = [
    "Condition",
    "ControlRecord",
    "QueryRecord",
    "Record",
    "RecordType",
    "SortMode",
    "StatementRecord",
    "TestFile",
    "TestSuite",
    "InfraFailure",
    "ResiliencePolicy",
    "RetryPolicy",
    "default_policy",
    "RecordOutcome",
    "RecordResult",
    "FileResult",
    "SuiteResult",
    "TestRunner",
    "load_suite",
    "parse_test_file",
]

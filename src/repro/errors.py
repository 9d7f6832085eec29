"""Exception hierarchy shared across the SQuaLity reproduction library.

Every package in :mod:`repro` raises exceptions derived from
:class:`ReproError` so that callers can catch library failures without
accidentally swallowing programming errors such as ``TypeError``.

The DBMS-facing part of the hierarchy deliberately mirrors the taxonomy the
paper uses when classifying failed test cases (RQ4, Table 6): unsupported
statements, functions, types, operators, configuration problems, and semantic
mismatches each have a dedicated exception type, which lets the failure
classifier work from exception types rather than brittle message matching
whenever the engine is one of ours.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


# ---------------------------------------------------------------------------
# Parsing-related errors (test-file formats and SQL text)
# ---------------------------------------------------------------------------


class TestFormatError(ReproError):
    """A test file could not be parsed in its declared native format."""

    def __init__(self, message: str, path: str | None = None, line: int | None = None):
        super().__init__(message)
        self.path = path
        self.line = line

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        location = ""
        if self.path is not None:
            location = f" [{self.path}"
            if self.line is not None:
                location += f":{self.line}"
            location += "]"
        return super().__str__() + location


class SQLSyntaxError(ReproError):
    """The SQL text could not be tokenized or parsed."""


# ---------------------------------------------------------------------------
# Engine/adapter errors, mirroring the RQ4 failure taxonomy
# ---------------------------------------------------------------------------


class DatabaseError(ReproError):
    """Base class for errors reported by a DBMS adapter or by MiniDB."""


class UnsupportedStatementError(DatabaseError):
    """The host DBMS does not support this statement (RQ4 ``Statements``)."""


class UnsupportedFunctionError(DatabaseError):
    """The host DBMS does not provide the referenced function (``Functions``)."""


class UnsupportedTypeError(DatabaseError):
    """The host DBMS does not support the referenced data type (``Types``)."""


class UnsupportedOperatorError(DatabaseError):
    """The host DBMS does not support the operator / operand pair (``Operators``)."""


class ConfigurationError(DatabaseError):
    """An unknown setting or configuration variable was referenced (``Configurations``)."""


class ConstraintViolationError(DatabaseError):
    """A constraint (NOT NULL, PRIMARY KEY, CHECK) was violated."""


class CatalogError(DatabaseError):
    """A referenced table, view, index, column, or schema does not exist (or already exists)."""


class TransactionError(DatabaseError):
    """Invalid transaction state transition (e.g. COMMIT without BEGIN)."""


class ConversionError(DatabaseError):
    """A value could not be converted to the requested type."""


class EngineCrash(DatabaseError):
    """The engine terminated unexpectedly while executing a statement.

    Used by the fault-emulation layer to reproduce the crash bugs reported in
    the paper (Listings 12-14).  A crash is *never* an expected outcome for a
    test case, so the runner records it separately from ordinary failures.
    """


class EngineHang(DatabaseError):
    """The engine exceeded its execution time budget (Listings 15-16)."""

    def __init__(self, message: str, elapsed: float | None = None):
        super().__init__(message)
        self.elapsed = elapsed


# ---------------------------------------------------------------------------
# Runner-level errors
# ---------------------------------------------------------------------------


class RunnerError(ReproError):
    """The unified test runner hit an unrecoverable problem (not a test failure)."""


class AdapterNotFoundError(RunnerError):
    """No adapter is registered under the requested name."""


class ShardExecutionError(RunnerError):
    """A genuine error occurred inside a parallel worker shard.

    Distinguishes in-shard failures from worker-pool *infrastructure*
    failures (broken fork, pickling, sandboxed semaphores): infrastructure
    failures make the pool finish its tasks in the submitting process, while
    this error propagates to the caller instead of silently re-executing the
    shard.
    """


class WatchdogTimeout(RunnerError):
    """A unit of work exceeded its watchdog deadline (wedged adapter).

    Raised by :func:`repro.core.resilience.run_with_deadline` when one
    file's execution does not finish within its deadline.  The campaign
    layer converts it into a HANG outcome plus an
    :class:`~repro.core.resilience.InfraFailure` record instead of letting a
    wedged adapter block its worker forever.
    """

    def __init__(self, message: str, deadline: float | None = None):
        super().__init__(message)
        self.deadline = deadline


class UnknownExperimentError(ReproError, KeyError):
    """No experiment is registered under the requested id.

    Subclasses :class:`KeyError` because the pre-registry lookup raised one —
    callers catching ``KeyError`` keep working.  The message carries near-miss
    suggestions plus the full list of known ids.
    """

    def __str__(self) -> str:
        # KeyError's repr-quoting would mangle the multi-part message
        return str(self.args[0]) if self.args else ""


class AdapterQuarantinedError(RunnerError):
    """The requested adapter configuration is quarantined by the circuit
    breaker (:class:`repro.adapters.pool.CircuitBreaker`) after repeated
    consecutive infrastructure failures.  Campaigns turn the files that would
    have run on it into partial results instead of retrying a known-bad
    adapter forever.  ``detail`` is the failure that tripped the breaker.
    """

    def __init__(self, message: str, detail: str = ""):
        super().__init__(message)
        self.detail = detail


# ---------------------------------------------------------------------------
# Store errors
# ---------------------------------------------------------------------------


class CodecError(ReproError):
    """A stored payload cannot be encoded or decoded.

    Raised by :mod:`repro.store.codec` and by the readers of store clients;
    :meth:`repro.store.artifacts.ArtifactStore.load` treats it as a miss.
    """

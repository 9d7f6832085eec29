"""Adapter backed by the real SQLite engine (Python's ``sqlite3`` module).

This is the one genuine DBMS available in the offline environment; executing
the SLT-style corpora on it exercises the same code path the paper's SQuaLity
used for SQLite (a Python connector to a real engine).
"""

from __future__ import annotations

import sqlite3
from typing import Any

from repro.adapters.base import DBMSAdapter, ExecutionOutcome, ExecutionStatus
from repro.dialects.sqlite import SQLITE


class SQLite3Adapter(DBMSAdapter):
    """Executes statements on an in-memory ``sqlite3`` database."""

    name = "sqlite3"
    dialect = SQLITE

    def __init__(self, timeout_seconds: float | None = None):
        if timeout_seconds is None:
            # resolved at construction time from the resilience configuration
            # (set_default_timeout / REPRO_TIMEOUT_SECONDS / the built-in 5s),
            # so fork_config() ships the *resolved* value to workers
            from repro.core.resilience import default_timeout_seconds

            timeout_seconds = default_timeout_seconds()
        self.timeout_seconds = timeout_seconds
        self.connection: sqlite3.Connection | None = None

    def fork_config(self) -> tuple[str, dict]:
        return (self.name, {"timeout_seconds": self.timeout_seconds})

    def connect(self) -> None:
        # check_same_thread=False: the watchdog (repro.core.resilience) hands
        # execution to a helper thread while the owner waits on the deadline —
        # a sequential handoff, never concurrent access to the connection
        self.connection = sqlite3.connect(":memory:", check_same_thread=False)
        self.connection.isolation_level = None  # autocommit; BEGIN/COMMIT pass through
        # Interrupt very long statements so hang-inducing queries surface as
        # HANG outcomes instead of blocking the whole run.
        self.connection.set_progress_handler(self._make_progress_guard(), 1_000_000)
        self._interrupted = False

    def _make_progress_guard(self):
        import time

        started = {"at": time.monotonic()}

        def guard() -> int:
            if time.monotonic() - started["at"] > self.timeout_seconds:
                self._interrupted = True
                return 1  # non-zero interrupts the statement
            return 0

        self._progress_started = started
        return guard

    def reset(self) -> None:
        self.close()
        self.connect()

    def close(self) -> None:
        if self.connection is not None:
            self.connection.close()
            self.connection = None

    def execute(self, sql: str) -> ExecutionOutcome:
        if self.connection is None:
            self.connect()
        assert self.connection is not None
        import time

        self._interrupted = False
        self._progress_started["at"] = time.monotonic()
        cursor = self.connection.cursor()
        try:
            cursor.execute(sql)
        except sqlite3.OperationalError as error:
            if self._interrupted or "interrupted" in str(error).lower():
                return ExecutionOutcome(status=ExecutionStatus.HANG, error=f"statement exceeded {self.timeout_seconds}s", error_type="Timeout", statement=sql)
            return ExecutionOutcome(status=ExecutionStatus.ERROR, error=str(error), error_type="OperationalError", statement=sql)
        except sqlite3.DatabaseError as error:
            return ExecutionOutcome(status=ExecutionStatus.ERROR, error=str(error), error_type=type(error).__name__, statement=sql)
        except (OverflowError, ValueError) as error:
            return ExecutionOutcome(status=ExecutionStatus.ERROR, error=str(error), error_type=type(error).__name__, statement=sql)

        if cursor.description is None:
            return ExecutionOutcome(status=ExecutionStatus.OK, statement=sql)
        columns = [entry[0] for entry in cursor.description]
        raw_rows = cursor.fetchall()
        rows: list[list[Any]] = [list(row) for row in raw_rows]
        outcome = ExecutionOutcome(
            status=ExecutionStatus.OK,
            columns=columns,
            rows=rows,
            statement=sql,
        )
        # render lazily, same as the MiniDB adapter (see ExecutionOutcome.__getattr__)
        del outcome.rendered
        outcome._render_style = "python"
        return outcome

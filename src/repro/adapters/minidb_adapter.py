"""Adapter running statements on a MiniDB session with a dialect profile."""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.adapters.base import DBMSAdapter, ExecutionOutcome, ExecutionStatus
from repro.dialects.base import DialectProfile, get_dialect
from repro.errors import (
    DatabaseError,
    EngineCrash,
    EngineHang,
    ReproError,
    SQLSyntaxError,
)

if TYPE_CHECKING:
    from repro.engine.session import Session


class MiniDBAdapter(DBMSAdapter):
    """Executes statements on the MiniDB emulation of one DBMS dialect."""

    def __init__(self, dialect: DialectProfile | str, enable_faults: bool = True, seed: int = 0):
        self.dialect = get_dialect(dialect) if isinstance(dialect, str) else dialect
        self.name = self.dialect.name
        self.enable_faults = enable_faults
        self.seed = seed
        self.session: Session | None = None

    def fork_config(self) -> tuple[str, dict]:
        # registry name "sqlite" builds the real sqlite3 adapter; the MiniDB
        # emulation of the sqlite dialect is registered as "sqlite-mini"
        registry_name = "sqlite-mini" if self.name == "sqlite" else self.name
        return (registry_name, {"enable_faults": self.enable_faults, "seed": self.seed})

    def connect(self) -> None:
        # the engine is imported by the first session, so a run that executes
        # nothing on MiniDB (a warm replay) never loads it
        from repro.engine.session import Session

        self.session = Session(dialect=self.dialect, enable_faults=self.enable_faults, seed=self.seed)

    def reset(self) -> None:
        if self.session is None or self.session.crashed:
            self.connect()
        else:
            self.session.reset()

    def close(self) -> None:
        if self.session is not None:
            self.session.close()
            self.session = None

    @property
    def features_exercised(self) -> set[str]:
        """Engine feature/branch identifiers touched so far (Table 8 coverage)."""
        return set(self.session.features) if self.session is not None else set()

    def execute(self, sql: str) -> ExecutionOutcome:
        if self.session is None:
            self.connect()
        assert self.session is not None
        try:
            result = self.session.execute(sql)
        except EngineCrash as error:
            return ExecutionOutcome(status=ExecutionStatus.CRASH, error=str(error), error_type="EngineCrash", statement=sql)
        except EngineHang as error:
            return ExecutionOutcome(status=ExecutionStatus.HANG, error=str(error), error_type="EngineHang", statement=sql)
        except SQLSyntaxError as error:
            return ExecutionOutcome(status=ExecutionStatus.ERROR, error=f"syntax error: {error}", error_type="SQLSyntaxError", statement=sql)
        except (DatabaseError, ReproError) as error:
            return ExecutionOutcome(status=ExecutionStatus.ERROR, error=str(error), error_type=type(error).__name__, statement=sql)
        except RecursionError as error:  # deep expressions: report as an engine error
            return ExecutionOutcome(status=ExecutionStatus.ERROR, error=f"expression too deep: {error}", error_type="RecursionError", statement=sql)
        outcome = ExecutionOutcome(
            status=ExecutionStatus.OK,
            columns=result.columns if result.is_query else [],
            rows=result.rows,
            statement=sql,
        )
        # render lazily: comparisons consume the raw rows, so the text form is
        # only built when something (codec, SLT value lists) actually asks
        del outcome.rendered
        outcome._render_style = "python"
        return outcome

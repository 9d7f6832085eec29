"""DBMS adapters: the connector layer SQuaLity executes statements through.

The paper stresses that SQuaLity uses the *Python DBMS connectors* (not the
CLI clients) so that results can be compared consistently across systems.  We
mirror that: every adapter implements :class:`~repro.adapters.base.DBMSAdapter`
and returns :class:`~repro.adapters.base.ExecutionOutcome` objects with
connector-style rendered values.

Four adapters are provided:

* ``sqlite`` — the real ``sqlite3`` standard-library engine (the one genuine
  DBMS available offline),
* ``sqlite-mini``, ``postgres``, ``duckdb``, ``mysql`` — MiniDB sessions
  configured with the corresponding dialect profile (the substitution for the
  real client/server systems; see DESIGN.md).

Adapters resolve through the registry (:func:`create_adapter` /
:func:`register_adapter`), follow an explicit lifecycle
(``setup``/``reset``/``teardown``, context-manager supported), and are reused
across runs via :class:`AdapterPool` (see docs/ARCHITECTURE.md).
"""

from repro.adapters.base import DBMSAdapter, ExecutionOutcome, ExecutionStatus
from repro.adapters.minidb_adapter import MiniDBAdapter
from repro.adapters.sqlite_adapter import SQLite3Adapter
from repro.adapters.registry import (
    AdapterEntry,
    adapter_entries,
    available_adapters,
    create_adapter,
    get_adapter_entry,
    register_adapter,
)
from repro.adapters.pool import AdapterPool, CircuitBreaker, adapter_breaker
from repro.adapters.faults import FaultReport

__all__ = [
    "DBMSAdapter",
    "ExecutionOutcome",
    "ExecutionStatus",
    "MiniDBAdapter",
    "SQLite3Adapter",
    "AdapterEntry",
    "AdapterPool",
    "CircuitBreaker",
    "adapter_breaker",
    "adapter_entries",
    "available_adapters",
    "create_adapter",
    "get_adapter_entry",
    "register_adapter",
    "FaultReport",
]

"""``AdapterPool`` — reuse live adapters instead of rebuilding them per run.

Building an adapter is cheap for MiniDB but not free (dialect profile, fault
tables, function registry, expression evaluator), and the transplant pipeline
used to rebuild one per ``run_transplant`` call — for a ``run_matrix``
campaign that means suites × hosts rebuilds of the same four adapters.  The
pool keys idle adapters by ``(registry name, constructor kwargs)`` and hands
back a **reset** live instance on a hit, so a campaign touches each adapter
configuration exactly once.

Reset-on-acquire is the pool's state-leak guarantee: a leased adapter always
starts from a pristine database, whatever the previous lease did (committed
tables, dangling transactions, settings, even an emulated crash —
``MiniDBAdapter.reset`` reconnects a crashed session).  The only state that
survives a reuse is the session RNG, the same caveat the per-file executor
documents; the generated corpora never invoke nondeterministic SQL.

The pool is thread-safe: concurrent ``acquire`` calls receive distinct
instances (a new one is built when no idle adapter of that key is available).
A campaign's serial cells all lease from its one pool, and each worker
process of a sharded campaign keeps one pool for its lifetime (see
:func:`repro.core.parallel.execute_files`), so an adapter is built once per
configuration per process, not once per cell.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Iterator

from repro.adapters.base import DBMSAdapter
from repro.adapters.registry import create_adapter, get_adapter_entry
from repro.errors import AdapterNotFoundError, AdapterQuarantinedError

#: key identifying one adapter configuration
PoolKey = tuple[str, tuple[tuple[str, object], ...]]


def pool_key(name: str, kwargs: dict) -> PoolKey:
    """Canonical pool key: aliases collapse onto their registry entry, so
    ``acquire("postgres")`` and ``acquire("postgresql")`` share one adapter."""
    try:
        canonical = get_adapter_entry(name).name
    except AdapterNotFoundError:
        canonical = name.lower()  # acquire() will raise when it tries to build
    return (canonical, tuple(sorted(kwargs.items())))


class CircuitBreaker:
    """Quarantine adapter configurations that keep failing.

    The per-file executor (:func:`repro.core.parallel.execute_files`) records
    one failure per failed execution attempt and one success per cleanly
    finished file under the adapter's canonical name, ``pool_key(name, {})``,
    whatever the configuration, and checks that key before every file.
    ``threshold`` *consecutive* failures quarantine the key: campaigns turn
    every file they have not executed yet into a partial (SKIP) result
    instead of handing work to an adapter that demonstrably cannot do it.
    :meth:`AdapterPool.acquire` refuses, with
    :class:`~repro.errors.AdapterQuarantinedError`, a configuration whose own
    :func:`pool_key` is quarantined.  Any success resets the streak, so a
    one-off transient fault never trips the breaker.

    Thread-safe; one process-global instance (:func:`adapter_breaker`) is
    shared by every pool by default, so a broken adapter configuration is
    broken for every pool of the process.
    """

    def __init__(self, threshold: int = 3) -> None:
        self.threshold = threshold
        self._lock = threading.Lock()
        self._consecutive: dict[PoolKey, int] = {}
        self._quarantined: dict[PoolKey, str] = {}  # key -> last failure detail

    def record_failure(self, key: PoolKey, detail: str = "", threshold: int | None = None) -> bool:
        """Count one failure; returns True when this call quarantines ``key``."""
        limit = self.threshold if threshold is None else threshold
        with self._lock:
            if key in self._quarantined:
                return False
            streak = self._consecutive.get(key, 0) + 1
            self._consecutive[key] = streak
            if streak >= limit:
                self._quarantined[key] = detail
                return True
        return False

    def record_success(self, key: PoolKey) -> None:
        """A clean unit of work on ``key`` resets its failure streak."""
        with self._lock:
            self._consecutive.pop(key, None)

    def is_quarantined(self, key: PoolKey) -> bool:
        with self._lock:
            return key in self._quarantined

    def quarantined_keys(self) -> list[PoolKey]:
        with self._lock:
            return sorted(self._quarantined)

    def quarantine_detail(self, key: PoolKey) -> str:
        with self._lock:
            return self._quarantined.get(key, "")

    def reset(self) -> None:
        """Clear every streak and quarantine (tests; operator reset)."""
        with self._lock:
            self._consecutive.clear()
            self._quarantined.clear()


#: the process-global breaker every pool consults unless handed its own
_GLOBAL_BREAKER = CircuitBreaker()


def adapter_breaker() -> CircuitBreaker:
    """The process-global adapter circuit breaker."""
    return _GLOBAL_BREAKER


class AdapterPool:
    """A keyed pool of live, reusable DBMS adapters."""

    def __init__(self, breaker: CircuitBreaker | None = None) -> None:
        self._lock = threading.Lock()
        self._idle: dict[PoolKey, list[DBMSAdapter]] = {}
        self._leased: dict[int, tuple[PoolKey, DBMSAdapter]] = {}
        self._closed = False
        self.breaker = breaker if breaker is not None else _GLOBAL_BREAKER
        self.created = 0
        self.reused = 0

    # -- core protocol -----------------------------------------------------------------

    def acquire(self, name: str, **kwargs) -> DBMSAdapter:
        """A live adapter for ``name``: a reset idle one, or a fresh setup.

        The returned adapter is connected and pristine; hand it back with
        :meth:`release` (or use :meth:`lease`).  A configuration the circuit
        breaker has quarantined raises
        :class:`~repro.errors.AdapterQuarantinedError` instead of building an
        adapter that demonstrably cannot do work.
        """
        key = pool_key(name, kwargs)
        if self.breaker.is_quarantined(key):
            detail = self.breaker.quarantine_detail(key)
            raise AdapterQuarantinedError(
                f"adapter {key[0]!r} is quarantined after repeated infrastructure failures"
                + (f": {detail}" if detail else ""),
                detail=detail,
            )
        with self._lock:
            if self._closed:
                raise RuntimeError("AdapterPool is closed")
            idle = self._idle.get(key)
            adapter = idle.pop() if idle else None
        if adapter is not None:
            try:
                adapter.reset()
            except Exception:
                # a reset failure must not leak the popped adapter (it is
                # neither idle nor leased at this point); the reset error is
                # the one that explains the failure, so a teardown error on
                # top of it is suppressed
                try:
                    adapter.teardown()
                except Exception:
                    pass
                raise
            with self._lock:
                self.reused += 1
                self._leased[id(adapter)] = (key, adapter)
            return adapter
        adapter = create_adapter(name, **kwargs)
        adapter.setup()
        with self._lock:
            self.created += 1
            self._leased[id(adapter)] = (key, adapter)
        return adapter

    def release(self, adapter: DBMSAdapter) -> None:
        """Return a leased adapter to the pool for reuse."""
        with self._lock:
            entry = self._leased.pop(id(adapter), None)
            if entry is None or self._closed:
                torn_down = True
            else:
                self._idle.setdefault(entry[0], []).append(adapter)
                torn_down = False
        if torn_down:
            adapter.teardown()

    def discard(self, adapter: DBMSAdapter) -> None:
        """Tear down a leased adapter instead of returning it (e.g. after an
        unrecoverable failure)."""
        with self._lock:
            self._leased.pop(id(adapter), None)
        adapter.teardown()

    @contextmanager
    def lease(self, name: str, **kwargs) -> Iterator[DBMSAdapter]:
        """``with pool.lease("duckdb") as adapter: ...`` — acquire + release."""
        adapter = self.acquire(name, **kwargs)
        try:
            yield adapter
        finally:
            self.release(adapter)

    # -- lifecycle and introspection ---------------------------------------------------

    def close(self) -> None:
        """Tear down every idle adapter; leased ones are torn down on release.

        Best-effort, never raises: close() runs from ``finally`` blocks
        (``run_cells``, ``ExperimentContext.close``) where a teardown error
        would mask the in-flight failure that actually matters.  Per-adapter
        isolation means one bad teardown (e.g. a thread-affine sqlite3
        connection closed from another thread) cannot leak the rest; anything
        that refuses to tear down is left to garbage collection.
        """
        with self._lock:
            self._closed = True
            idle = [adapter for adapters in self._idle.values() for adapter in adapters]
            self._idle.clear()
        for adapter in idle:
            try:
                adapter.teardown()
            except Exception:
                pass

    def __enter__(self) -> "AdapterPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    @property
    def idle_count(self) -> int:
        with self._lock:
            return sum(len(adapters) for adapters in self._idle.values())

    @property
    def leased_count(self) -> int:
        with self._lock:
            return len(self._leased)

    def stats(self) -> dict[str, int]:
        """Lifetime counters: builds avoided = ``reused``."""
        with self._lock:
            return {
                "created": self.created,
                "reused": self.reused,
                "idle": sum(len(adapters) for adapters in self._idle.values()),
                "leased": len(self._leased),
            }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        stats = self.stats()
        return f"<AdapterPool created={stats['created']} reused={stats['reused']} idle={stats['idle']} leased={stats['leased']}>"

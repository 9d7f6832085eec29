"""Statement-level caches for the parse → translate → plan hot path.

Every experiment driver replays the same suites — once per record, per suite,
per target host — so the pipeline's pure stages (tokenizing, dialect
translation, statement planning, fault-signature matching) recompute identical
work thousands of times.  This module provides the shared infrastructure those
stages memoize through:

* :class:`LRUCache` — a small, thread-safe LRU map with hit/miss statistics.
  Thread safety matters because the watchdog
  (:func:`repro.core.resilience.run_with_deadline`) runs each guarded file on
  a helper thread, and a wedged one it abandoned keeps using the same global
  caches while the next file executes.
* a process-wide registry so benchmarks can report hit rates
  (:func:`cache_stats`) and reset state between measurements
  (:func:`clear_caches`).
* a global enable switch (:func:`set_caching`, :func:`caching_disabled`) so
  benchmarks can compare the memoized pipeline against the seed-equivalent
  uncached path on identical inputs.

The module is deliberately dependency-free (stdlib only): the tokenizer, the
translator, and the engine session all import it without cycles.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from contextlib import contextmanager
from typing import Any, Iterator

__all__ = [
    "CacheStats",
    "LRUCache",
    "absorb_stats",
    "cache_stats",
    "caching_disabled",
    "caching_enabled",
    "clear_caches",
    "registered_caches",
    "set_caching",
]

_MISSING = object()

#: Process-wide switch; ``False`` routes every consumer down its uncached
#: (seed-equivalent) code path.
_ENABLED = True

_REGISTRY: "OrderedDict[str, LRUCache]" = OrderedDict()
_REGISTRY_LOCK = threading.Lock()


class CacheStats:
    """Hit/miss/eviction counters for one cache."""

    __slots__ = ("hits", "misses", "evictions")

    def __init__(self) -> None:
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        lookups = self.lookups
        return self.hits / lookups if lookups else 0.0

    def reset(self) -> None:
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def snapshot(self) -> dict[str, Any]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "hit_rate": round(self.hit_rate, 4),
        }


class LRUCache:
    """A bounded least-recently-used map with statistics.

    Keys and values are caller-defined; values are returned by reference, so
    consumers must treat cached values as immutable (or copy on return, as the
    tokenizer does).
    """

    def __init__(self, name: str, maxsize: int = 4096, register: bool = True):
        if maxsize <= 0:
            raise ValueError("maxsize must be positive")
        self.name = name
        self.maxsize = maxsize
        self.stats = CacheStats()
        self._data: "OrderedDict[Any, Any]" = OrderedDict()
        self._lock = threading.Lock()
        if register:
            with _REGISTRY_LOCK:
                _REGISTRY[name] = self

    def __len__(self) -> int:
        return len(self._data)

    def peek(self, key: Any, default: Any = None) -> Any:
        """Lock-free read without a recency update.

        For hot memos of *pure* functions the full LRU bookkeeping (lock,
        ``move_to_end``) costs more than the lookup; ``peek`` trades exact
        recency for speed — eviction degrades toward insertion order — and a
        racing eviction merely surfaces as a miss and a recompute.
        """
        value = self._data.get(key, _MISSING)
        if value is _MISSING:
            self.stats.misses += 1
            return default
        self.stats.hits += 1
        return value

    def get(self, key: Any, default: Any = None) -> Any:
        with self._lock:
            value = self._data.get(key, _MISSING)
            if value is _MISSING:
                self.stats.misses += 1
                return default
            self._data.move_to_end(key)
            self.stats.hits += 1
            return value

    def put(self, key: Any, value: Any) -> None:
        with self._lock:
            if key in self._data:
                self._data.move_to_end(key)
            self._data[key] = value
            if len(self._data) > self.maxsize:
                self._data.popitem(last=False)
                self.stats.evictions += 1

    def clear(self) -> None:
        with self._lock:
            self._data.clear()
            self.stats.reset()


# -- global switch ------------------------------------------------------------------


def caching_enabled() -> bool:
    """Whether the pipeline caches are active."""
    return _ENABLED


def set_caching(enabled: bool) -> bool:
    """Set the global cache switch; returns the previous value."""
    global _ENABLED
    previous = _ENABLED
    _ENABLED = bool(enabled)
    return previous


@contextmanager
def caching_disabled() -> Iterator[None]:
    """Run a block down the uncached, seed-equivalent pipeline path."""
    previous = set_caching(False)
    try:
        yield
    finally:
        set_caching(previous)


# -- registry-wide operations --------------------------------------------------------


def registered_caches() -> dict[str, LRUCache]:
    with _REGISTRY_LOCK:
        return dict(_REGISTRY)


def clear_caches() -> None:
    """Empty every registered cache and reset its statistics."""
    for cache in registered_caches().values():
        cache.clear()


def cache_stats() -> dict[str, dict[str, Any]]:
    """Statistics snapshot for every registered cache, keyed by cache name."""
    return {name: cache.stats.snapshot() for name, cache in registered_caches().items()}


def absorb_stats(snapshot: dict[str, dict[str, Any]]) -> None:
    """Fold a workers' stats snapshot into this process's registered caches.

    Process-pool workers accumulate cache activity in their own address
    space; absorbing their deltas keeps :func:`cache_stats` in the parent an
    accurate account of total pipeline activity, sharded or not.
    """
    caches = registered_caches()
    for name, stats in snapshot.items():
        cache = caches.get(name)
        if cache is None:
            continue
        cache.stats.hits += stats.get("hits", 0)
        cache.stats.misses += stats.get("misses", 0)
        cache.stats.evictions += stats.get("evictions", 0)

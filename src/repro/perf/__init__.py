"""Performance subsystem: statement-level caches and pipeline instrumentation.

See :mod:`repro.perf.cache` for the memoization layer shared by the tokenizer,
the dialect translator, and the MiniDB engine, and
:mod:`repro.core.parallel` for the per-file suite executor built on top of it.
"""

from repro.perf.cache import (
    LRUCache,
    cache_stats,
    caching_disabled,
    caching_enabled,
    clear_caches,
    set_caching,
)

__all__ = [
    "LRUCache",
    "cache_stats",
    "caching_disabled",
    "caching_enabled",
    "clear_caches",
    "set_caching",
]

"""``ArtifactStore`` — a content-addressed, disk-backed artifact store.

The pipeline's two most expensive one-shot stages — generating a corpus
(plan + donor recording + serialization) and recording donor runs — used to
repeat per process: every campaign, every benchmark round, every test session
regenerated identical artifacts from the same ``(profile, seed, scale)``
inputs.  The store persists those artifacts on disk so they are computed once
per *machine*, not once per process:

* **Content addressing** — an artifact lives at
  ``<root>/<namespace>/<aa>/<digest>.pkl`` where ``digest`` is the SHA-256 of
  the canonical key (see :mod:`repro.store.keys`) plus the code-version
  fingerprint (:mod:`repro.store.fingerprint`).  Changing any ``repro``
  source invalidates every entry without a deletion pass.
* **Bytes, not objects** — the store writes and reads the bytes it is
  given: one :mod:`repro.store.codec` frame per file, whose kind is its
  namespace (the ``.pkl`` suffix predates frames; keeping it lets eviction,
  ``gc``, ``audit`` and ``clear`` see files older versions wrote).  A load
  runs the caller's reader over those bytes.
* **Atomic writes** — payloads are written to a temp file in the target
  directory and ``os.replace``-d into place, so concurrent writers (parallel
  campaigns, simultaneous CI jobs on one machine) can race on the same key
  and readers still only ever observe complete artifacts.
* **Corruption tolerance** — an artifact whose frame or reader raises
  :class:`~repro.errors.CodecError` (truncated, garbled, another format
  version, another kind) is deleted and counted once as a miss.  The store
  must never be able to fail a pipeline that would have succeeded without it.
* **LRU/size eviction** — reads freshen an artifact's mtime; writes evict
  oldest-first once the store exceeds ``max_bytes``
  (``REPRO_STORE_MAX_BYTES``, default 1 GiB).
* **Storeless path** — every consumer takes ``store=None`` to run without
  the store; ``--no-store`` on the experiments CLI passes it for a run.

Stats are surfaced like ``AdapterPool.stats`` so benchmarks can report hit
rates (see ``benchmarks/bench_pipeline.py``).
"""

from __future__ import annotations

import logging
import os
import tempfile
import threading
import time
from pathlib import Path
from typing import Any, Callable

from repro.errors import CodecError
from repro.killpoints import kill_point
from repro.store.fingerprint import code_fingerprint
from repro.store.keys import key_digest

logger = logging.getLogger(__name__)

#: Age (seconds) past which a ``.tmp-`` file cannot belong to a live writer,
#: so the store's tree walk (:meth:`ArtifactStore._artifact_files`) reclaims it.
STALE_TMP_SECONDS = 3600.0

#: Default store location (overridable via ``REPRO_STORE_DIR`` / CLI).
DEFAULT_ROOT = "~/.cache/repro-store"

#: Default size budget before LRU eviction kicks in.
DEFAULT_MAX_BYTES = 1 << 30  # 1 GiB

#: Sentinel meaning "use the process default store" in consumer signatures
#: (``store=None`` means "no store", matching ``--no-store``).
DEFAULT = "default"


class StoreStats:
    """Hit/miss/write/eviction/error counters for one store.

    Besides the store-wide totals, hits and misses are bucketed per
    *namespace* (``by_namespace``): incremental assembly reads per-file
    artifacts (``file-results``, ``file-donor``) and its effectiveness — how
    much of a campaign was assembled rather than executed — is exactly those
    namespaces' hit rates, which the pipeline benchmarks report.
    """

    __slots__ = ("hits", "misses", "writes", "evictions", "errors", "io_errors", "by_namespace")

    def __init__(self) -> None:
        self.hits = 0
        self.misses = 0
        self.writes = 0
        self.evictions = 0
        self.errors = 0
        #: I/O failures of the backing filesystem (as opposed to ``errors``,
        #: which also counts corruption and values that cannot be written); the
        #: degradation trigger counts *consecutive* ones separately
        self.io_errors = 0
        #: namespace -> {"hits": int, "misses": int}; mutated under the
        #: owning store's lock
        self.by_namespace: dict[str, dict[str, int]] = {}

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        lookups = self.lookups
        return self.hits / lookups if lookups else 0.0

    def count_lookup(self, namespace: str, hit: bool) -> None:
        """Record one load outcome (caller holds the owning store's lock)."""
        if hit:
            self.hits += 1
        else:
            self.misses += 1
        bucket = self.by_namespace.get(namespace)
        if bucket is None:
            bucket = self.by_namespace[namespace] = {"hits": 0, "misses": 0}
        bucket["hits" if hit else "misses"] += 1

    def reset(self) -> None:
        self.hits = self.misses = self.writes = self.evictions = self.errors = 0
        self.io_errors = 0
        self.by_namespace = {}

    def namespace_hit_rates(self) -> dict[str, dict[str, Any]]:
        """Per-namespace lookup counters plus derived hit rates."""
        rates: dict[str, dict[str, Any]] = {}
        for namespace, bucket in self.by_namespace.items():
            lookups = bucket["hits"] + bucket["misses"]
            rates[namespace] = {
                "hits": bucket["hits"],
                "misses": bucket["misses"],
                "hit_rate": round(bucket["hits"] / lookups, 4) if lookups else 0.0,
            }
        return rates

    def snapshot(self) -> dict[str, Any]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "writes": self.writes,
            "evictions": self.evictions,
            "errors": self.errors,
            "io_errors": self.io_errors,
            "hit_rate": round(self.hit_rate, 4),
            # distinct from ArtifactStore.namespace_stats(), which reports
            # disk footprint: these are this process's lookup counters
            "namespace_lookups": self.namespace_hit_rates(),
        }


class ArtifactStore:
    """A disk-backed, content-addressed store for expensive pipeline artifacts."""

    def __init__(
        self,
        root: str | os.PathLike | None = None,
        max_bytes: int | None = None,
        fingerprint: str | None = None,
        degrade_after: int = 3,
    ):
        if root is None:
            root = os.environ.get("REPRO_STORE_DIR") or DEFAULT_ROOT
        self.root = Path(root).expanduser()
        if max_bytes is None:
            max_bytes = int(os.environ.get("REPRO_STORE_MAX_BYTES", DEFAULT_MAX_BYTES))
        if max_bytes <= 0:
            raise ValueError("max_bytes must be positive")
        self.max_bytes = max_bytes
        if degrade_after <= 0:
            raise ValueError("degrade_after must be positive")
        #: consecutive I/O errors before the store demotes itself to
        #: storeless mode (graceful degradation; see :meth:`_record_io_error`)
        self.degrade_after = degrade_after
        #: code-version component of every key; explicit only in tests
        self.fingerprint = fingerprint if fingerprint is not None else code_fingerprint()
        self.stats = StoreStats()
        self._lock = threading.Lock()
        self._io_error_streak = 0
        self._degraded = False
        #: running estimate of on-disk bytes, seeded by one full scan on the
        #: first write and bumped per save, so the under-budget fast path
        #: never walks the tree; None = not yet seeded
        self._approx_bytes: int | None = None

    # -- addressing --------------------------------------------------------------------

    def path_for(self, namespace: str, key: Any) -> Path:
        digest = key_digest(namespace, key, self.fingerprint)
        return self.root / namespace / digest[:2] / f"{digest}.pkl"

    # -- I/O layer (overridable; the chaos harness injects faults here) ----------------

    def _read(self, path: Path) -> bytes:
        """Read one artifact file; raises ``OSError`` on any I/O problem."""
        return path.read_bytes()

    def _write(self, path: Path, payload: bytes) -> None:
        """Atomically write one artifact file; raises on failure.

        The temp file never survives a failed write — whatever raises, the
        ``.tmp-`` file is unlinked before the error propagates.
        """
        path.parent.mkdir(parents=True, exist_ok=True)
        handle = tempfile.NamedTemporaryFile(
            mode="wb", dir=path.parent, prefix=".tmp-", suffix=".pkl", delete=False
        )
        try:
            with handle:
                handle.write(payload)
            kill_point("store-tmp")
            os.replace(handle.name, path)
            kill_point("store-write")
        except BaseException:
            self._discard(Path(handle.name))
            raise

    # -- graceful degradation ----------------------------------------------------------

    @property
    def degraded(self) -> bool:
        """True once repeated I/O errors demoted this store to storeless mode."""
        with self._lock:
            return self._degraded

    def _record_io_error(self, operation: str, error: BaseException) -> None:
        """Count one backing-filesystem failure; degrade after a streak.

        Corruption is *not* an I/O error (a garbled artifact says nothing
        about the disk) — only ``OSError``s from the I/O layer land here.
        After ``degrade_after`` consecutive ones the store stops touching the
        filesystem entirely: every load misses, every save is dropped, and
        the campaign continues exactly as if it had been started storeless.
        """
        with self._lock:
            self.stats.io_errors += 1
            self._io_error_streak += 1
            newly_degraded = not self._degraded and self._io_error_streak >= self.degrade_after
            if newly_degraded:
                self._degraded = True
        if newly_degraded:
            logger.warning(
                "artifact store %s degraded to storeless mode after %d consecutive I/O errors "
                "(last: %s on %s); the campaign continues without persistence",
                self.root, self.degrade_after, error, operation,
            )

    def _note_io_success(self) -> None:
        with self._lock:
            self._io_error_streak = 0

    # -- core protocol -----------------------------------------------------------------

    def load(self, namespace: str, key: Any, read: Callable[..., Any], *args: Any) -> Any:
        """``read(stored bytes, *args)`` for the artifact at ``key``, or None on any kind of miss.

        The reader decodes the artifact's frame.  A file whose frame or
        reader raises :class:`~repro.errors.CodecError` — truncated,
        garbled, another format version, another kind — is deleted and
        counted once as a miss; any other exception from ``read`` is a bug
        and propagates.  I/O errors of the backing filesystem count toward
        graceful degradation instead of being treated as corruption (the
        artifact may be perfectly fine).
        """
        with self._lock:
            if self._degraded:
                self.stats.count_lookup(namespace, hit=False)
                return None
        path = self.path_for(namespace, key)
        try:
            data = self._read(path)
        except FileNotFoundError:
            self._note_io_success()  # the filesystem answered; the entry just isn't there
            with self._lock:
                self.stats.count_lookup(namespace, hit=False)
            return None
        except OSError as error:
            self._record_io_error(f"load {path}", error)
            with self._lock:
                self.stats.count_lookup(namespace, hit=False)
            return None
        self._note_io_success()
        try:
            value = read(data, *args)
        except CodecError:
            # behave as if it never existed; the deletion is subtracted from
            # the running byte estimate, so it stays in step with disk truth
            self._discard_counted(path)
            with self._lock:
                self.stats.errors += 1
                self.stats.count_lookup(namespace, hit=False)
            return None
        try:
            os.utime(path)  # freshen for LRU eviction
        except OSError:
            pass
        with self._lock:
            self.stats.count_lookup(namespace, hit=True)
        return value

    def save(self, namespace: str, key: Any, value: bytes) -> bool:
        """Persist the frame ``value`` atomically; returns False (and stays silent) on failure.

        A store write failure (read-only filesystem, disk full, a value that
        is not bytes) must not fail the pipeline that produced the value.
        Filesystem failures additionally count toward graceful degradation:
        once the store demotes itself, saves return False without touching
        the disk.
        """
        with self._lock:
            if self._degraded:
                return False
        path = self.path_for(namespace, key)
        try:
            self._write(path, value)
        except OSError as error:
            self._record_io_error(f"save {path}", error)
            with self._lock:
                self.stats.errors += 1
            return False
        except Exception:
            with self._lock:
                self.stats.errors += 1
            return False
        self._note_io_success()
        try:
            written = path.stat().st_size
        except OSError:
            written = 0
        with self._lock:
            self.stats.writes += 1
        self._evict_if_needed(added=written)
        return True

    # -- maintenance -------------------------------------------------------------------

    def _artifact_files(self) -> list[tuple[float, int, Path]]:
        """(mtime, size, path) for every artifact currently on disk.

        The walk also reclaims the ``.tmp-`` leftovers of killed writers it
        passes: one older than :data:`STALE_TMP_SECONDS` cannot belong to a
        live writer, and a younger one (an in-flight write) is skipped.  A
        process's first save seeds the byte estimate with this walk, so the
        reclaim costs no walk of its own.
        """
        entries: list[tuple[float, int, Path]] = []
        if not self.root.exists():
            return entries
        stale_before = time.time() - STALE_TMP_SECONDS
        for path in self.root.rglob("*.pkl"):
            try:
                stat = path.stat()
            except OSError:
                continue
            if not path.name.startswith(".tmp-"):
                entries.append((stat.st_mtime, stat.st_size, path))
            elif stat.st_mtime < stale_before:
                self._discard(path)
        return entries

    def _evict_if_needed(self, added: int = 0, budget: int | None = None) -> int:
        """Delete oldest artifacts until the store fits ``budget``
        (``max_bytes`` unless a one-off override is passed, e.g. by ``gc``).

        The full tree walk is amortized: a running byte estimate (seeded by
        one scan on the first write, bumped per save) keeps the under-budget
        fast path O(1); the tree is only re-scanned — and the estimate
        corrected — when the estimate crosses the budget.  External deletions
        make the estimate overshoot, which merely triggers a correcting scan;
        concurrent external *writers* can delay a sweep by at most their own
        unseen bytes.

        The newest artifact always survives the sweep (the budget may be
        exceeded by that one entry): evicting the artifact a save just wrote
        would turn an undersized budget into pure thrashing.
        """
        if budget is None:
            budget = self.max_bytes
        with self._lock:
            if self._approx_bytes is not None:
                self._approx_bytes += added
                if self._approx_bytes <= budget:
                    return 0
        entries = self._artifact_files()
        total = sum(size for _, size, _ in entries)
        evicted = 0
        if total > budget:
            for _, size, path in sorted(entries)[:-1]:
                if total <= budget:
                    break
                self._discard(path)
                total -= size
                evicted += 1
        with self._lock:
            self._approx_bytes = total
            if evicted:
                self.stats.evictions += evicted
        return evicted

    @staticmethod
    def _discard(path: Path) -> None:
        try:
            path.unlink()
        except OSError:
            pass

    def _discard_counted(self, path: Path) -> None:
        """Delete an artifact and subtract its size from the byte estimate."""
        try:
            size = path.stat().st_size
        except OSError:
            size = 0
        self._discard(path)
        if size:
            with self._lock:
                if self._approx_bytes is not None:
                    self._approx_bytes = max(0, self._approx_bytes - size)

    def recount(self) -> int:
        """Re-seed the running byte estimate from disk truth; returns it.

        The estimate is amortized (seeded once, bumped per save, decremented
        per internal deletion); external writers and deleters still make it
        drift.  ``gc`` recounts first so eviction decisions are made against
        what is actually on disk.
        """
        total = sum(size for _, size, _ in self._artifact_files())
        with self._lock:
            self._approx_bytes = total
        return total

    def gc(self, max_bytes: int | None = None) -> dict[str, int]:
        """Recount from disk, then evict oldest-first down to the budget.

        ``max_bytes`` overrides the store's budget for this sweep only
        (``repro.experiments store gc --max-bytes`` uses it to trim harder
        than the steady-state budget).  Returns a summary of the sweep.
        """
        bytes_before = self.recount()
        entries_before = self.entry_count
        budget = self.max_bytes if max_bytes is None else max_bytes
        if budget <= 0:
            raise ValueError("max_bytes must be positive")
        evicted = 0
        if bytes_before > budget:
            # the override is passed down, never written to self.max_bytes: a
            # concurrent save's eviction must keep seeing the steady budget
            evicted = self._evict_if_needed(budget=budget)
        with self._lock:
            bytes_after = self._approx_bytes if self._approx_bytes is not None else 0
        return {
            "bytes_before": bytes_before,
            "bytes_after": bytes_after,
            "entries_before": entries_before,
            "entries_after": entries_before - evicted,
            "evicted": evicted,
            "max_bytes": budget,
        }

    def sweep_tmp(self, max_age_seconds: float = 0.0) -> int:
        """Delete ``.tmp-`` leftovers of killed writers; returns the count.

        A ``.tmp-`` file is only ever transient — :meth:`_write` replaces it
        into place or unlinks it — so one found on disk belongs either to a
        writer that died mid-save or to a live concurrent writer whose
        ``os.replace`` has not landed yet.  ``max_age_seconds`` tells the two
        apart (no live write lasts :data:`STALE_TMP_SECONDS`, the age past
        which :meth:`_artifact_files` reclaims a leftover on its own walk);
        :meth:`audit` — an operator action, run when no writer is active —
        sweeps unconditionally.
        """
        if not self.root.exists():
            return 0
        now = time.time()
        removed = 0
        for path in self.root.rglob(".tmp-*"):
            try:
                if now - path.stat().st_mtime < max_age_seconds:
                    continue
            except OSError:
                continue
            try:
                path.unlink()
            except OSError:
                continue
            removed += 1
        if removed:
            logger.info("store %s: swept %d stale tmp file(s)", self.root, removed)
        return removed

    def audit(self, sweep: bool = True) -> dict[str, Any]:
        """Verify every artifact on disk, deleting what fails; returns a summary.

        Each file must be a frame of the current codec version whose digest
        holds and whose kind is the namespace directory it sits in — the
        checks every reader runs first.  Audit decodes nothing a frame
        holds, so it never unpickles.  Failures are deleted
        (corruption-as-miss, applied eagerly instead of at first read) and
        listed in the summary.  ``sweep`` additionally removes every
        ``.tmp-`` leftover regardless of age: audit is for quiescent stores,
        e.g. after a crash, before resuming a campaign.
        """
        # lazy: codec imports the result types (core.runner et al.), and the
        # store must stay importable from the bottom of the dependency graph
        from repro.store.codec import unframe

        # sweep before the walk, which would reclaim stale leftovers uncounted
        swept = self.sweep_tmp(max_age_seconds=0.0) if sweep else 0
        verified = 0
        corrupt: list[str] = []
        for _, _, path in self._artifact_files():
            namespace = path.relative_to(self.root).parts[0]
            try:
                unframe(self._read(path), namespace)
            except (OSError, CodecError) as error:
                logger.warning("store audit: deleting corrupt artifact %s (%s)", path, error)
                self._discard_counted(path)
                with self._lock:
                    self.stats.errors += 1
                corrupt.append(str(path.relative_to(self.root)))
            else:
                verified += 1
        return {
            "root": str(self.root),
            "verified": verified,
            "corrupt": len(corrupt),
            "corrupt_paths": sorted(corrupt),
            "tmp_swept": swept,
        }

    def clear(self) -> None:
        """Delete every artifact (the directory tree is left in place)."""
        for _, _, path in self._artifact_files():
            self._discard(path)
        with self._lock:
            self._approx_bytes = 0
            self._io_error_streak = 0
            self._degraded = False
        self.stats.reset()

    # -- introspection -----------------------------------------------------------------

    @property
    def entry_count(self) -> int:
        return len(self._artifact_files())

    @property
    def total_bytes(self) -> int:
        return sum(size for _, size, _ in self._artifact_files())

    @property
    def estimated_bytes(self) -> int | None:
        """The running byte estimate (None until the first write seeds it)."""
        with self._lock:
            return self._approx_bytes

    def namespace_stats(self) -> dict[str, dict[str, int]]:
        """Per-namespace entry/byte footprint, sorted by bytes descending."""
        per_namespace: dict[str, dict[str, int]] = {}
        for _, size, path in self._artifact_files():
            try:
                namespace = path.relative_to(self.root).parts[0]
            except (ValueError, IndexError):
                continue
            bucket = per_namespace.setdefault(namespace, {"entries": 0, "bytes": 0})
            bucket["entries"] += 1
            bucket["bytes"] += size
        return dict(sorted(per_namespace.items(), key=lambda item: -item[1]["bytes"]))

    def snapshot(self) -> dict[str, Any]:
        """Lifetime counters plus current on-disk footprint (cf. ``AdapterPool.stats``)."""
        entries = self._artifact_files()
        payload = self.stats.snapshot()
        payload["entries"] = len(entries)
        payload["bytes"] = sum(size for _, size, _ in entries)
        payload["root"] = str(self.root)
        payload["degraded"] = self.degraded
        return payload

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        stats = self.stats
        return f"<ArtifactStore root={self.root} hits={stats.hits} misses={stats.misses} writes={stats.writes}>"


# -- process default ---------------------------------------------------------------

_DEFAULT_STORE: ArtifactStore | None = None
_DEFAULT_LOCK = threading.Lock()


def get_default_store() -> ArtifactStore:
    """The lazily-created process default store (``REPRO_STORE_DIR`` or ``~/.cache``)."""
    global _DEFAULT_STORE
    with _DEFAULT_LOCK:
        if _DEFAULT_STORE is None:
            _DEFAULT_STORE = ArtifactStore()
        return _DEFAULT_STORE


def set_default_store(store: ArtifactStore | None) -> ArtifactStore | None:
    """Replace the process default store; returns the previous one.

    ``None`` resets to lazy re-creation from the environment on next use.
    """
    global _DEFAULT_STORE
    with _DEFAULT_LOCK:
        previous = _DEFAULT_STORE
        _DEFAULT_STORE = store
        return previous


def active_store(store: "ArtifactStore | str | None" = DEFAULT) -> ArtifactStore | None:
    """Resolve a consumer's ``store`` argument.

    ``DEFAULT`` → the process default store; ``None`` → storeless; an
    :class:`ArtifactStore` instance → itself.

    Any other value raises: a path string must not silently fall back to the
    user-level default store (pass ``ArtifactStore(root=path)`` instead).
    """
    if store is None:
        return None
    if isinstance(store, ArtifactStore):
        return store
    if store == DEFAULT:
        return get_default_store()
    raise TypeError(
        f"store must be an ArtifactStore, None, or repro.store.DEFAULT, not {store!r}; "
        "for a custom directory pass ArtifactStore(root=...)"
    )

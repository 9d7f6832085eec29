"""Canonical serialization for store keys and result-identity checks.

Artifacts are addressed by the SHA-256 of a *canonical* rendering of their
key, and suites are identified by the canonical rendering of their parsed
records — not by ``pickle`` bytes, whose layout can vary with incidental
object state (memo tables, lazily-populated counters).  The canonical form
walks dataclasses field by field, skips private (``_``-prefixed) fields,
renders enums by value, and emits sorted-key JSON, so two structurally equal
objects always produce the same bytes in any process.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
import weakref
from typing import Any


def _jsonable(value: Any) -> Any:
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        payload: dict[str, Any] = {"__dataclass__": type(value).__name__}
        for field in dataclasses.fields(value):
            if field.name.startswith("_"):
                continue  # internal caches (e.g. FileResult counters) are not identity
            payload[field.name] = _jsonable(getattr(value, field.name))
        return payload
    if isinstance(value, enum.Enum):
        return {"__enum__": type(value).__name__, "value": value.value}
    if isinstance(value, dict):
        return {str(key): _jsonable(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(item) for item in value]
    if isinstance(value, (set, frozenset)):
        return {"__set__": sorted(str(item) for item in value)}
    if isinstance(value, float):
        return {"__float__": value.hex()}  # exact, locale-independent
    if value is None or isinstance(value, (str, int, bool)):
        return value
    return {"__repr__": repr(value)}


def canonical_bytes(value: Any) -> bytes:
    """Deterministic bytes for a (possibly nested dataclass) value."""
    return json.dumps(_jsonable(value), sort_keys=True, separators=(",", ":")).encode("utf-8")


def key_digest(namespace: str, key: Any, fingerprint: str) -> str:
    """Content address of one artifact: namespace + key + code fingerprint."""
    digest = hashlib.sha256()
    digest.update(namespace.encode("utf-8"))
    digest.update(b"\0")
    digest.update(fingerprint.encode("utf-8"))
    digest.update(b"\0")
    digest.update(canonical_bytes(key))
    return digest.hexdigest()


#: Per-object memo for :func:`content_hash`: a campaign hashes each suite
#: once per *cell* (suites x hosts x {plain, translated}) and each test file
#: once per sharded run, and the canonical walk is the single most expensive
#: part of a warm lookup.  Keyed by ``id`` because the record containers
#: (eq-bearing dataclasses) are unhashable; the stored weakref both guards
#: against id reuse and evicts the entry when the object is collected.
_CONTENT_HASH_MEMO: dict[int, tuple["weakref.ref", str]] = {}


def content_hash(value: Any) -> str:
    """Stable content hash of a (possibly nested dataclass) value.

    The hash is memoized per *object* (suites and test files are immutable
    once built; callers that mutate one after hashing it would address stale
    artifacts, so don't).
    """
    memo_key = id(value)
    entry = _CONTENT_HASH_MEMO.get(memo_key)
    if entry is not None:
        ref, digest = entry
        if ref() is value:
            return digest
    digest = hashlib.sha256(canonical_bytes(value)).hexdigest()
    try:
        ref = weakref.ref(value, lambda _ref, _key=memo_key: _CONTENT_HASH_MEMO.pop(_key, None))
    except TypeError:
        return digest  # unweakrefable stand-ins (tests): skip the memo
    _CONTENT_HASH_MEMO[memo_key] = (ref, digest)
    return digest


#: Per-object memo for :func:`suite_content_hash` (separate from the generic
#: :func:`content_hash` memo: the two functions hash the same object to
#: different digests, so they must not share entries).
_SUITE_HASH_MEMO: dict[int, tuple["weakref.ref", str]] = {}


def suite_content_hash(suite: Any) -> str:
    """Stable content hash of a parsed :class:`~repro.core.records.TestSuite`.

    Two suites generated from the same profile/seed/scale in different
    processes hash identically, which is what lets a campaign journal written
    by one process be resumed by the next (see
    :func:`repro.core.journal.campaign_spec`).

    The digest is derived from the suite's name and its files' *per-file*
    content hashes — the same hashes that key the ``file-results`` assembly
    artifacts — rather than one canonical walk over every record.  Editing
    one file of a campaign's suite therefore re-hashes only that file (the
    others are served from the per-object memo).
    """
    memo_key = id(suite)
    entry = _SUITE_HASH_MEMO.get(memo_key)
    if entry is not None:
        ref, digest = entry
        if ref() is suite:
            return digest
    payload = canonical_bytes({"name": suite.name, "files": [content_hash(test_file) for test_file in suite.files]})
    digest = hashlib.sha256(payload).hexdigest()
    try:
        ref = weakref.ref(suite, lambda _ref, _key=memo_key: _SUITE_HASH_MEMO.pop(_key, None))
    except TypeError:
        return digest  # unweakrefable stand-ins (tests): skip the memo
    _SUITE_HASH_MEMO[memo_key] = (ref, digest)
    return digest


# -- assembly namespaces and keys -------------------------------------------------
#
# Campaigns assemble every suite-level answer from file-level artifacts, so
# the file-level namespaces and their key layouts are shared contracts
# between the writers (sharded workers, the serial assembly path, the corpus
# generator) and the readers (assembly in ``repro.core.parallel``,
# ``repro.corpus.generate``).  They live here so every party addresses
# byte-identical keys.

#: Per-file execution results (compact codec frames), written by store-aware
#: workers and the serial assembly path alike.
FILE_RESULTS_NAMESPACE = "file-results"

#: Per-file donor recordings (serialized corpus file texts), written by
#: ``repro.corpus.generate`` so corpus edits regenerate only changed files.
FILE_DONOR_NAMESPACE = "file-donor"

#: Per-file analysis partials (compact codec frames), written by the
#: incremental RQ1/RQ2 scanners (``repro.analysis.incremental``) so suite
#: edits re-analyze only changed files.
FILE_ANALYSIS_NAMESPACE = "file-analysis"


def file_result_key(spec: Any, test_file: Any) -> dict:
    """Store key of one file's results under one runner configuration.

    Keyed on the *file's* content (not the whole suite's), so a campaign
    whose suite gained, lost, or edited files still reuses every unchanged
    file — the unit of incremental assembly.  ``spec`` is a
    :class:`~repro.core.parallel.RunnerSpec` (or an equivalent mapping); it
    joins the key because the same file produces different results under a
    different host, tolerance, or translation setting.  ``content_hash``
    memoizes per file object, so repeat runs in one process hash each file
    once.
    """
    if dataclasses.is_dataclass(spec) and not isinstance(spec, type):
        spec_payload: Any = dataclasses.asdict(spec)
    else:
        spec_payload = dict(spec)
    return {"file_hash": content_hash(test_file), "spec": spec_payload}


def analysis_file_key(pass_id: str, test_file: Any) -> dict:
    """Store key of one file's partial result under one analysis pass.

    Mirrors :func:`file_result_key`: keyed on the *file's* content hash (not
    the suite's), so analysis reuse survives suite recomposition, plus the
    analysis-pass id — the same file yields different partials under the
    feature census and the statement profile.  The code fingerprint joins
    every key automatically (:func:`key_digest`), so a scanner change orphans
    all partials at once.
    """
    return {"file_hash": content_hash(test_file), "pass": pass_id}


def donor_file_key(suite: str, records_per_file: int, seed: int, index: int) -> dict:
    """Store key of one donor-recorded corpus file.

    Deliberately independent of the corpus's ``file_count``: the per-file
    generator seed depends only on ``(suite, seed, index)``, so growing a
    corpus from N to N+k files reuses all N existing recordings.
    """
    return {
        "suite": suite,
        "records_per_file": records_per_file,
        "seed": seed,
        "index": index,
    }

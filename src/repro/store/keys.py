"""Canonical serialization for store keys and result-identity checks.

Artifacts are addressed by the SHA-256 of a *canonical* rendering of their
key.  Parsed test files are identified by a digest of their source bytes
(:func:`content_hash`); anything else by the canonical rendering of its
fields — not by ``pickle`` bytes, whose layout can vary with incidental
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


def content_hash(value: Any) -> str:
    """Stable content hash of a (possibly nested dataclass) value.

    A parsed :class:`~repro.core.records.TestFile` is hashed by the digest
    of its source bytes, domain-separated, without walking its records;
    everything else, hand-built files included, by the canonical walk.
    """
    source = getattr(value, "_source_digest", None)
    if source is not None:
        return hashlib.sha256(b"repro.test-file-source\0" + source).hexdigest()
    return hashlib.sha256(canonical_bytes(value)).hexdigest()


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
#: incremental RQ2 scanners and Table 8 coverage
#: (``repro.analysis.incremental``) so suite edits re-analyze only changed
#: files.
FILE_ANALYSIS_NAMESPACE = "file-analysis"


def _spec_digest(spec: Any) -> str:
    """Digest of a runner spec's fields; a mapping digests like the dataclass it spells.

    A frozen dataclass spec never changes, so its digest is computed once and
    kept in the instance ``__dict__``, where neither its fields, its equality
    nor :func:`canonical_bytes` see it: a cell digests its spec once, not once
    per file.
    """
    if not dataclasses.is_dataclass(spec) or isinstance(spec, type):
        return hashlib.sha256(canonical_bytes(dict(spec))).hexdigest()
    digest = spec.__dict__.get("_spec_digest")
    if digest is None:
        digest = hashlib.sha256(canonical_bytes(dataclasses.asdict(spec))).hexdigest()
        if type(spec).__dataclass_params__.frozen:
            spec.__dict__["_spec_digest"] = digest
    return digest


def file_result_key(spec: Any, test_file: Any) -> dict:
    """Store key of one file's results under one runner configuration.

    Keyed on the *file's* content (not the whole suite's), so a campaign
    whose suite gained, lost, or edited files still reuses every unchanged
    file — the unit of incremental assembly.  ``spec`` is a
    :class:`~repro.core.parallel.RunnerSpec` (or an equivalent mapping); it
    joins the key, as the digest of its fields, because the same file
    produces different results under a different host, tolerance, or
    translation setting.
    """
    return {"file_hash": content_hash(test_file), "spec": _spec_digest(spec)}


def analysis_file_key(pass_id: str, test_file: Any) -> dict:
    """Store key of one file's partial result under one analysis pass.

    Mirrors :func:`file_result_key`: keyed on the *file's* content hash (not
    the suite's), so analysis reuse survives suite recomposition, plus the
    analysis-pass id — the same file yields different partials under the
    statement and the predicate profile.  The code fingerprint joins
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

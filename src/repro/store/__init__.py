"""Persistent artifact store: cross-process reuse of corpora and results.

Every artifact is one :mod:`repro.store.codec` frame whose kind is its
namespace.  Four clients ride on the store (see docs/STORE.md):

* :mod:`repro.corpus.generate` persists per-file donor recordings
  (``file-donor``) and parsed suites (``corpus-suites``) so ``build_suite``
  loads instead of regenerating across processes and campaigns,
* :mod:`repro.core.parallel` persists every matrix cell file by file in
  ``file-results``, keyed by ``(file content hash, runner spec)``, so
  ``run_matrix`` executes only the files no earlier run persisted,
* :mod:`repro.analysis.incremental` persists per-file RQ2 and Table 8
  partials in ``file-analysis``, and
* the ``bugs`` experiment persists its engine probes in ``bug-probes``.
"""

from repro.store.artifacts import (
    DEFAULT,
    DEFAULT_MAX_BYTES,
    DEFAULT_ROOT,
    ArtifactStore,
    StoreStats,
    active_store,
    get_default_store,
    set_default_store,
)
from repro.store.codec import (
    CODEC_VERSION,
    CodecError,
    decode_document,
    decode_file_result,
    encode_document,
    encode_file_result,
)
from repro.store.fingerprint import code_fingerprint, reset_fingerprint_cache
from repro.store.keys import (
    FILE_ANALYSIS_NAMESPACE,
    FILE_DONOR_NAMESPACE,
    FILE_RESULTS_NAMESPACE,
    analysis_file_key,
    canonical_bytes,
    content_hash,
    donor_file_key,
    file_result_key,
    key_digest,
)

__all__ = [
    "CODEC_VERSION",
    "CodecError",
    "DEFAULT",
    "DEFAULT_MAX_BYTES",
    "DEFAULT_ROOT",
    "FILE_ANALYSIS_NAMESPACE",
    "FILE_DONOR_NAMESPACE",
    "FILE_RESULTS_NAMESPACE",
    "ArtifactStore",
    "StoreStats",
    "active_store",
    "analysis_file_key",
    "canonical_bytes",
    "code_fingerprint",
    "content_hash",
    "donor_file_key",
    "file_result_key",
    "decode_document",
    "decode_file_result",
    "encode_document",
    "encode_file_result",
    "get_default_store",
    "key_digest",
    "reset_fingerprint_cache",
    "set_default_store",
]

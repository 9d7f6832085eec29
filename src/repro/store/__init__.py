"""Persistent artifact store: cross-process reuse of corpora and results.

Three clients ride on the store (see docs/STORE.md):

* :mod:`repro.corpus.generate` persists generated suites keyed by
  ``(suite, seed, scale, generator fingerprint)`` so ``build_suite`` loads
  instead of regenerating across processes and campaigns,
* :mod:`repro.core.parallel` persists every matrix cell file by file in
  ``file-results``, keyed by ``(file content hash, runner spec)``, so
  ``run_matrix`` executes only the files no earlier run persisted, and
* :mod:`repro.analysis.incremental` persists per-file RQ1/RQ2 partials in
  ``file-analysis``.
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
    decode_analysis_partial,
    decode_file_result,
    encode_analysis_partial,
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
    "decode_analysis_partial",
    "decode_file_result",
    "encode_analysis_partial",
    "encode_file_result",
    "get_default_store",
    "key_digest",
    "reset_fingerprint_cache",
    "set_default_store",
]

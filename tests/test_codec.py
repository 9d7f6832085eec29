"""The compact result codec and the full-matrix cell reuse built on it.

Pinned invariants:

* **Roundtrip fidelity** — for every suite format (SLT, PostgreSQL, DuckDB,
  MySQL) and for donor *and* cross-host cells, ``decode(encode(x))`` is
  byte-identical to ``x`` under the canonical serialization the store keys
  use.  This is the property that lets warm campaigns replace execution.
* **Version/corruption rejection** — a bumped codec version, a truncated
  frame, flipped payload bytes, or a pre-codec pickle all read as a *miss*
  (``CodecError`` → recompute), never as plausible results.
* **Warm-cell parity** — a warm full matrix equals a storeless run byte for
  byte with ``workers=1`` and ``workers=4``, and store-aware workers serve
  per-file results without executing.
* **Compactness** — a cell's per-file codec frames undercut the PR 3
  whole-object pickle by the documented margin (>=5x) on a representative
  cell.
"""

from __future__ import annotations

import pickle

import pytest

from test_differential import assert_equivalent

from repro.core.runner import SuiteResult
from repro.core.transplant import DONOR_OF_SUITE, TransplantResult, run_matrix, run_transplant
from repro.corpus import build_suite
from repro.store import (
    ArtifactStore,
    CodecError,
    canonical_bytes,
    decode_file_result,
    encode_file_result,
    store_disabled,
)
from repro.store import codec as codec_module


@pytest.fixture
def store(tmp_path) -> ArtifactStore:
    return ArtifactStore(root=tmp_path / "store", fingerprint="codec-fp")


#: (suite name, host for the cross-host leg) per format; small sizes keep the
#: four-format sweep fast while covering every result shape (value-wise,
#: row-wise, hash, table; errors; skips).
FORMAT_WORKLOADS = (
    ("slt", "duckdb"),
    ("postgres", "mysql"),
    ("duckdb", "sqlite"),
    ("mysql", "postgres"),
)


def _suite_for(name: str):
    return build_suite(name, file_count=2, records_per_file=20, seed=13, store=None)


def _encode_cell(result: TransplantResult, suite) -> list[bytes]:
    """A matrix cell as the store persists it: one frame per file."""
    return [encode_file_result(file_result, test_file) for file_result, test_file in zip(result.result.files, suite.files)]


def _decode_cell(frames: list[bytes], result: TransplantResult, suite, verify: bool = False) -> TransplantResult:
    """Reassemble a cell from its frames, re-deriving the fault reports."""
    suite_result = SuiteResult(suite=result.result.suite, host=result.result.host)
    suite_result.files = [decode_file_result(frame, test_file, verify=verify) for frame, test_file in zip(frames, suite.files)]
    crashes, hangs = codec_module.fault_reports_for(suite_result, result.host)
    return TransplantResult(
        suite=result.suite, host=result.host, donor=result.donor, result=suite_result, crashes=crashes, hangs=hangs
    )


class TestRoundtrip:
    @pytest.mark.parametrize("suite_name,cross_host", FORMAT_WORKLOADS)
    def test_transplant_roundtrip_all_formats(self, suite_name, cross_host):
        suite = _suite_for(suite_name)
        for host, translate in ((cross_host, False), (cross_host, True), (None, False)):
            target = host or DONOR_OF_SUITE[suite_name]  # None -> donor-on-donor
            result = run_transplant(suite, target, translate_dialect=translate, store=None)
            # verify=True re-checks every per-section column digest on top of
            # the frame digest: any encode/decode asymmetry fails loudly here
            decoded = _decode_cell(_encode_cell(result, suite), result, suite, verify=True)
            assert canonical_bytes(decoded) == canonical_bytes(result), (suite_name, target, translate)
            # fault reports are re-derived, not stored: still identical
            assert canonical_bytes(decoded.crashes) == canonical_bytes(result.crashes)
            assert canonical_bytes(decoded.hangs) == canonical_bytes(result.hangs)

    def test_suite_result_roundtrip(self):
        """A suite result reassembles from its per-file frames, file order kept."""
        suite = _suite_for("slt")
        result = run_transplant(suite, "duckdb", store=None)
        decoded = _decode_cell(_encode_cell(result, suite), result, suite, verify=True).result
        assert [file_result.path for file_result in decoded.files] == [test_file.path for test_file in suite.files]
        assert canonical_bytes(decoded) == canonical_bytes(result.result)

    def test_file_result_roundtrip(self):
        suite = _suite_for("postgres")
        result = run_transplant(suite, "postgres", store=None).result
        for file_result, test_file in zip(result.files, suite.files):
            blob = encode_file_result(file_result, test_file)
            decoded = decode_file_result(blob, test_file, verify=True)
            assert canonical_bytes(decoded) == canonical_bytes(file_result)
            # records are reattached, not copied: identity with the live suite
            for record_result in decoded.results:
                assert any(record_result.record is record for record in test_file.records)

    def test_section_digest_catches_mangled_sections(self):
        """verify=True must reject a section whose columns were altered after
        framing (the frame digest is recomputed here to sneak the edit past
        it, exactly the scenario the section digests exist to catch)."""
        import hashlib
        import json
        import zlib

        suite = _suite_for("slt")
        result = run_transplant(suite, "duckdb", store=None)
        test_file = suite.files[0]
        blob = encode_file_result(result.result.files[0], test_file)
        header_len = len(codec_module.MAGIC) + 1 + 8
        document = json.loads(zlib.decompress(blob[header_len:]))
        section = document["f"]
        section["oc"] = ("P" if section["oc"][0] != "P" else "F") + section["oc"][1:]
        payload = json.dumps(document, ensure_ascii=False, separators=(",", ":")).encode("utf-8")
        reframed = (
            codec_module.MAGIC
            + bytes([codec_module.CODEC_VERSION])
            + hashlib.sha256(payload).digest()[:8]
            + zlib.compress(payload)
        )
        # the frame digest alone cannot see the edit...
        decode_file_result(reframed, test_file)
        # ...the section digest can
        with pytest.raises(CodecError, match="digest"):
            decode_file_result(reframed, test_file, verify=True)

    def test_roundtrip_against_an_equal_rebuilt_suite(self):
        """Decoding against a content-identical suite built by another process."""
        suite = _suite_for("slt")
        twin = _suite_for("slt")
        assert suite is not twin
        result = run_transplant(suite, "duckdb", store=None)
        decoded = _decode_cell(_encode_cell(result, suite), result, twin)
        assert canonical_bytes(decoded) == canonical_bytes(result)

    def test_codec_payload_at_least_5x_smaller_than_pickle(self):
        suite = build_suite("slt", file_count=3, records_per_file=40, seed=13, store=None)
        result = run_transplant(suite, "duckdb", store=None)
        encoded = sum(len(frame) for frame in _encode_cell(result, suite))
        pickled = pickle.dumps(result, protocol=pickle.HIGHEST_PROTOCOL)
        assert len(pickled) >= 5 * encoded, (
            f"codec payload ({encoded}B) must be >=5x smaller than the pickle ({len(pickled)}B)"
        )


class TestRejection:
    @pytest.fixture(scope="class")
    def encoded(self):
        suite = _suite_for("slt")
        result = run_transplant(suite, "duckdb", store=None)
        test_file = suite.files[0]
        return test_file, result.result.files[0], encode_file_result(result.result.files[0], test_file)

    def test_version_bump_is_rejected(self, encoded):
        test_file, _result, blob = encoded
        bumped = blob[: len(codec_module.MAGIC)] + bytes([codec_module.CODEC_VERSION + 1]) + blob[len(codec_module.MAGIC) + 1 :]
        with pytest.raises(CodecError, match="version"):
            decode_file_result(bumped, test_file)

    def test_bad_magic_is_rejected(self, encoded):
        test_file, _result, blob = encoded
        with pytest.raises(CodecError, match="magic"):
            decode_file_result(b"XXX" + blob[3:], test_file)

    def test_truncated_frame_is_rejected(self, encoded):
        test_file, _result, blob = encoded
        with pytest.raises(CodecError):
            decode_file_result(blob[: len(blob) // 2], test_file)

    @pytest.mark.parametrize("stub", [b"", b"RRC", b"RRC\x01", b"RRC\x01short"])
    def test_header_stubs_are_rejected_not_crashes(self, encoded, stub):
        test_file, _result, _blob = encoded
        with pytest.raises(CodecError):
            decode_file_result(stub, test_file)

    def test_flipped_payload_bytes_are_rejected(self, encoded):
        test_file, _result, blob = encoded
        corrupt = bytearray(blob)
        corrupt[-10] ^= 0xFF
        with pytest.raises(CodecError):
            decode_file_result(bytes(corrupt), test_file)

    def test_pre_codec_pickle_is_rejected(self, encoded):
        test_file, result, _blob = encoded
        with pytest.raises(CodecError):
            decode_file_result(pickle.dumps(result), test_file)

    def test_mismatched_suite_shape_is_rejected(self, encoded):
        test_file, _result, blob = encoded
        smaller = build_suite("slt", file_count=1, records_per_file=2, seed=13, store=None).files[0]
        assert len(smaller.records) < len(test_file.records)
        with pytest.raises(CodecError):
            decode_file_result(blob, smaller)

    def test_stale_store_blob_is_a_miss_not_garbage(self, store):
        """An undecodable store payload recomputes (and overwrites) the file."""
        suite = _suite_for("slt")
        reference = run_transplant(suite, "duckdb", store=store)
        # replace one stored file with a pre-codec pickle (a PR 3 leftover)
        victim = sorted((store.root / "file-results").rglob("*.pkl"))[0]
        payload = pickle.loads(victim.read_bytes())
        victim.write_bytes(pickle.dumps((payload[0], payload[1], pickle.dumps(reference))))
        recomputed = run_transplant(suite, "duckdb", store=store)
        assert canonical_bytes(recomputed) == canonical_bytes(reference)
        # and the overwrite leaves a decodable file behind
        store.stats.reset()
        warm = run_transplant(suite, "duckdb", store=store)
        assert store.stats.by_namespace["file-results"] == {"hits": len(suite.files), "misses": 0}
        assert canonical_bytes(warm) == canonical_bytes(reference)


class TestWarmCellParity:
    def test_warm_matrix_matches_storeless_with_workers_1_and_4(self, store):
        suites = {"slt": build_suite("slt", file_count=4, records_per_file=25, seed=31, store=None)}
        with store_disabled():
            reference = run_matrix(suites, store=store)
        results = assert_equivalent(
            {
                "storeless": reference,
                "cold": lambda: run_matrix(suites, store=store),
                "warm-serial": lambda: run_matrix(suites, store=store),
                "warm-workers-4": lambda: run_matrix(suites, store=store, workers=4, executor="thread"),
            }
        )
        assert store.stats.hits >= len(results["storeless"].entries), (
            "warm campaigns must serve every cell from the store"
        )

    def test_store_aware_workers_persist_and_reuse_file_results(self, store):
        suite = build_suite("slt", file_count=4, records_per_file=20, seed=32, store=None)
        cold = run_transplant(suite, "duckdb", workers=4, executor="thread", store=store)
        file_entries = list((store.root / "file-results").rglob("*.pkl"))
        assert len(file_entries) == len(suite.files), "every shard file must persist its results"
        # the warm sharded run avoids execution by serving per-file results
        warm = run_transplant(suite, "duckdb", workers=4, executor="thread", store=store)
        assert canonical_bytes(warm) == canonical_bytes(cold)

    def test_workers_see_the_fingerprint_of_the_submitting_store(self, store):
        """Worker-side stores must address the same keys as the parent's."""
        from repro.core.parallel import store_spec_for, _worker_store

        spec = store_spec_for(store)
        assert spec.fingerprint == store.fingerprint
        worker_side = _worker_store(spec)
        assert worker_side.fingerprint == store.fingerprint
        assert str(worker_side.root) == str(store.root)

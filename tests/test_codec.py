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
  byte without a worker pool and on a four-worker pool, and store-aware
  workers serve per-file results without executing.
* **Lazy loads** — a load parses only the frame head; a warm campaign
  answers every experiment from the heads and builds no record result.
* **Stored files rest as frames** — a file a cold cell executes and stores,
  serially or on a worker, is held as its decoded frame head over the
  suite's own records; a stored frame that does not decode fails the cell.
* **Compactness** — a cell's per-file codec frames undercut the PR 3
  whole-object pickle by the documented margin (>=5x) on a representative
  cell.
* **Stored categories** — every FAIL record built from a frame carries the
  Table 6 / Table 7 categories the classifiers compute for the record it was
  encoded from, answers with them without tokenizing, and a head whose
  category column does not decode is a miss.
"""

from __future__ import annotations

import json
import pickle

import pytest

from test_differential import assert_equivalent, on_pool

from repro.core import classification
from repro.core.classification import classify_difficulty, classify_incompatibility, failure_categories
from repro.core.runner import SuiteResult
from repro.core.transplant import DONOR_OF_SUITE, TransplantResult, run_matrix, run_transplant
from repro.corpus import build_suite
from repro.store import (
    ArtifactStore,
    CodecError,
    canonical_bytes,
    decode_file_result,
    encode_file_result,
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
        suite = _suite_for("slt")
        result = run_transplant(suite, "duckdb", store=None)
        test_file = suite.files[0]
        blob = encode_file_result(result.result.files[0], test_file)

        def edit(head):
            head["oc"] = ("P" if head["oc"][0] != "P" else "F") + head["oc"][1:]

        reframed = _reframed(blob, edit)
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
        # replace one stored file with what the pickle-envelope store format
        # wrote: a (version, namespace, value) pickle around a pickled result
        victim = sorted((store.root / "file-results").rglob("*.pkl"))[0]
        victim.write_bytes(pickle.dumps((1, "file-results", pickle.dumps(reference))))
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
        results = assert_equivalent(
            {
                "storeless": run_matrix(suites, store=None),
                "cold": lambda: run_matrix(suites, store=store),
                "warm-serial": lambda: run_matrix(suites, store=store),
                "warm-workers-4": lambda: on_pool(4, run_matrix, suites, store=store),
            }
        )
        assert store.stats.hits >= len(results["storeless"].entries), (
            "warm campaigns must serve every cell from the store"
        )

    def test_store_aware_workers_persist_and_reuse_file_results(self, store):
        suite = build_suite("slt", file_count=4, records_per_file=20, seed=32, store=None)
        cold = on_pool(4, run_transplant, suite, "duckdb", store=store)
        file_entries = list((store.root / "file-results").rglob("*.pkl"))
        assert len(file_entries) == len(suite.files), "every shard file must persist its results"
        # the warm sharded run avoids execution by serving per-file results
        warm = on_pool(4, run_transplant, suite, "duckdb", store=store)
        assert canonical_bytes(warm) == canonical_bytes(cold)

    def test_workers_see_the_fingerprint_of_the_submitting_store(self, store):
        """Worker-side stores must address the same keys as the parent's."""
        from repro.core.parallel import store_spec_for, _worker_store

        spec = store_spec_for(store)
        assert spec.fingerprint == store.fingerprint
        worker_side = _worker_store(spec)
        assert worker_side.fingerprint == store.fingerprint
        assert str(worker_side.root) == str(store.root)

    def test_warm_replay_reads_only_heads(self, tmp_path):
        """A warm campaign answers every experiment from the frame heads: no
        cell's file result builds its records, and the output still equals
        the storeless run's."""
        from repro.experiments import ExperimentContext
        from repro.experiments.stream import run_batch

        def batch(**kwargs):
            context = ExperimentContext(scale=0.06, seed=7, **kwargs)
            return run_batch(None, context), context

        reference, _ = batch(use_store=False)
        store_dir = str(tmp_path / "store")
        batch(use_store=True, store_dir=store_dir)
        warm, context = batch(use_store=True, store_dir=store_dir)
        built = [
            (key, file_result.path)
            for key, cell in context.cells.items()
            for file_result in cell.result.files
            if "results" in file_result.__dict__
        ]
        assert context.cells and built == []
        assert canonical_bytes(warm) == canonical_bytes(reference)


def assert_frames_over_suite(suite_result: SuiteResult, suite) -> None:
    """Every file result stays unbuilt until ``.results`` is read, then holds
    ``suite``'s own record objects."""
    assert len(suite_result.files) == len(suite.files)
    assert all("_frame" in vars(file_result) for file_result in suite_result.files)
    for file_result, test_file in zip(suite_result.files, suite.files):
        own = {id(record) for record in test_file.records}  # the file keeps each one alive
        built = file_result.results
        assert built and all(id(record_result.record) in own for record_result in built)
        assert "_frame" not in vars(file_result)


def _cell(suite, store, workers: int) -> TransplantResult:
    """``suite`` on DuckDB, in this process or on a fresh ``WorkerPool(workers)``."""
    if workers == 1:
        return run_transplant(suite, "duckdb", store=store)
    return on_pool(workers, run_transplant, suite, "duckdb", store=store)


class TestStoredFilesRestAsFrames:
    """A file a cell executed and stored is held as the frame it was stored
    as — lazy, head only, over the suite's own records — whether it ran in
    this process or on a worker."""

    @pytest.fixture
    def suite(self):
        return build_suite("slt", file_count=4, records_per_file=20, seed=7, store=None)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_cold_cell_holds_frames_over_the_suites_records(self, store, suite, workers):
        reference = run_transplant(suite, "duckdb", store=None)
        cold = _cell(suite, store, workers)
        assert store.stats.by_namespace["file-results"] == {"hits": 0, "misses": len(suite.files)}
        assert_frames_over_suite(cold.result, suite)
        assert canonical_bytes(cold) == canonical_bytes(reference)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_a_stored_frame_that_does_not_decode_raises(self, store, suite, workers, monkeypatch):
        """The frame a cell just stored is not a stale entry: one that does
        not decode is an encoder bug, and the cell fails instead of serving
        or re-executing it."""
        encode = codec_module.encode_file_result

        def garbled(file_result, test_file):
            frame = bytearray(encode(file_result, test_file))
            frame[-1] ^= 0xFF
            return bytes(frame)

        monkeypatch.setattr(codec_module, "encode_file_result", garbled)
        with pytest.raises(CodecError):
            _cell(suite, store, workers)


def _reframed(blob: bytes, edit) -> bytes:
    """``blob`` with ``edit(head)`` applied to its head, framed again (a fresh frame digest)."""
    head_bytes, body_bytes = codec_module.unframe(blob, "file-results").split(b"\n")
    head = json.loads(head_bytes)
    edit(head)
    return codec_module.frame("file-results", json.dumps(head, ensure_ascii=False).encode("utf-8"), body_bytes)


class TestStoredCategories:
    """Each FAIL record's Table 6 and Table 7 categories travel in the frame head."""

    @pytest.fixture(scope="class")
    def encoded(self):
        suite = _suite_for("postgres")
        result = run_transplant(suite, "mysql", store=None)
        files = list(zip(result.result.files, suite.files))
        return [(file_result, test_file, encode_file_result(file_result, test_file)) for file_result, test_file in files]

    @pytest.mark.parametrize("suite_name,host", [("postgres", "mysql"), ("slt", "duckdb"), ("duckdb", "sqlite")])
    def test_stored_categories_equal_the_recomputed_ones(self, suite_name, host, monkeypatch):
        suite = _suite_for(suite_name)
        result = run_transplant(suite, host, store=None)
        pairs = []
        for file_result, test_file in zip(result.result.files, suite.files):
            decoded = decode_file_result(encode_file_result(file_result, test_file), test_file)
            assert len(decoded.failures()) == len(file_result.failures())
            pairs.extend(zip(decoded.failures(), file_result.failures()))
        assert pairs, f"{suite_name}->{host} has no FAIL record to check"
        expected = [failure_categories(fresh) for _stored, fresh in pairs]
        # a stored record answers from its head: tokenizing it would raise
        for name in ("statement_type", "uses_cast_operator", "extract_function_names", "referenced_settings"):
            monkeypatch.setattr(classification, name, lambda *args: pytest.fail("a stored failure was re-tokenized"))
        for (stored, _fresh), (incompatibility, difficulty) in zip(pairs, expected):
            assert vars(stored)["_categories"] == (incompatibility, difficulty)
            assert classify_incompatibility(stored) is incompatibility
            assert classify_difficulty(stored) is difficulty

    @pytest.mark.parametrize(
        "codes",
        [(7, 0), (0, 3), (-1, 0), ("x", 0), (0, None), (0,)],
        ids=["incompatibility-out-of-range", "difficulty-out-of-range", "negative", "unknown", "missing", "short"],
    )
    def test_a_category_column_that_does_not_decode_is_a_miss(self, encoded, codes, store):
        _file_result, test_file, blob = next(item for item in encoded if item[0].failures())

        def edit(head):
            head["fc"][0] = [head["fc"][0][0], *codes]

        tampered = _reframed(blob, edit)
        with pytest.raises(CodecError):
            decode_file_result(tampered, test_file)
        key = {"file": test_file.path}
        store.save("file-results", key, tampered)
        assert store.load("file-results", key, decode_file_result, test_file) is None
        assert not store.path_for("file-results", key).exists()  # deleted
        assert (store.stats.hits, store.stats.misses, store.stats.errors) == (0, 1, 1)

    def test_a_head_without_its_category_column_is_a_miss(self, encoded):
        _file_result, test_file, blob = encoded[0]
        with pytest.raises(CodecError):
            decode_file_result(_reframed(blob, lambda head: head.pop("fc")), test_file)

"""The persistent artifact store: correctness, resilience, and its two clients.

The invariants pinned here are the ones that make disk-backed reuse safe to
leave on by default:

* corrupt or truncated artifacts are treated as misses (regenerate, never
  crash) and are removed from disk,
* a code-fingerprint bump invalidates every old entry,
* concurrent writers cannot clobber each other (tmp + rename),
* a warm ``run_matrix`` reproduces the storeless results byte-for-byte
  (canonical serialization), and
* ``store=None`` really does force the storeless path.
"""

from __future__ import annotations

import base64
import concurrent.futures
import dataclasses
import hashlib
import os
import pickle
import random
import subprocess
import sys
import threading

import pytest

from repro.core.parallel import RunnerSpec
from repro.core.records import TestSuite
from repro.core.transplant import CellKey, run_cells, run_matrix, run_transplant
from repro.corpus import build_all_suites, build_suite
from repro.formats import parse_test_text
from repro.store import (
    CODEC_VERSION,
    ArtifactStore,
    CodecError,
    canonical_bytes,
    content_hash,
    decode_document,
    encode_document,
    file_result_key,
)
from repro.store import keys as store_keys


_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

#: a PostgreSQL regression script and its expected-output companion
_PG_TEXT = "CREATE TABLE t (a int);\nINSERT INTO t VALUES (1);\nSELECT a FROM t;\n"
_PG_OUT = "CREATE TABLE t (a int);\nINSERT INTO t VALUES (1);\nSELECT a FROM t;\n a \n---\n 1\n(1 row)\n\n"


@pytest.fixture
def store(tmp_path) -> ArtifactStore:
    return ArtifactStore(root=tmp_path / "store", fingerprint="test-fp")


def _put(store: ArtifactStore, namespace: str, key, value) -> bool:
    """Save ``value`` as the document frame ``{"value": value}`` of ``namespace``."""
    return store.save(namespace, key, encode_document(namespace, {"value": value}))


def _get(store: ArtifactStore, namespace: str, key):
    """The value :func:`_put` stored at ``key``, or None on a miss."""
    document = store.load(namespace, key, decode_document, namespace)
    return None if document is None else document["value"]


def _noise(size: int) -> str:
    """A string that frames to about ``size`` bytes: base85 of random bytes does not compress."""
    return base64.b85encode(random.Random(size).randbytes(size)).decode("ascii")


def _bump_version(blob: bytes) -> bytes:
    """``blob`` as a frame of the next codec version."""
    return blob[:3] + bytes([CODEC_VERSION + 1]) + blob[4:]


# -- core store behaviour ----------------------------------------------------------


class TestArtifactStore:
    def test_round_trip(self, store):
        key = {"suite": "slt", "seed": 7}
        assert _get(store, "ns", key) is None
        assert _put(store, "ns", key, {"value": [1, 2, 3]})
        assert _get(store, "ns", key) == {"value": [1, 2, 3]}
        assert store.stats.hits == 1
        assert store.stats.misses == 1
        assert store.stats.writes == 1

    def test_distinct_keys_and_namespaces(self, store):
        _put(store, "a", {"k": 1}, "first")
        _put(store, "a", {"k": 2}, "second")
        _put(store, "b", {"k": 1}, "third")
        assert _get(store, "a", {"k": 1}) == "first"
        assert _get(store, "a", {"k": 2}) == "second"
        assert _get(store, "b", {"k": 1}) == "third"

    def test_key_order_is_canonical(self, store):
        _put(store, "ns", {"a": 1, "b": 2}, "value")
        assert _get(store, "ns", {"b": 2, "a": 1}) == "value"

    def test_truncated_artifact_is_a_miss(self, store):
        key = {"seed": 1}
        _put(store, "ns", key, list(range(1000)))
        path = store.path_for("ns", key)
        path.write_bytes(path.read_bytes()[:20])  # truncate mid-frame
        assert _get(store, "ns", key) is None
        assert store.stats.errors == 1
        assert not path.exists(), "corrupt artifact must be removed"
        # and the slot is usable again
        assert _put(store, "ns", key, "regenerated")
        assert _get(store, "ns", key) == "regenerated"

    def test_garbage_artifact_is_a_miss(self, store):
        key = {"seed": 2}
        _put(store, "ns", key, "value")
        store.path_for("ns", key).write_bytes(b"not a frame at all")
        assert _get(store, "ns", key) is None
        assert store.stats.errors == 1

    def test_wrong_header_is_a_miss(self, store):
        """A frame of another codec version, or of another kind, is deleted as a miss."""
        key = {"seed": 3}
        path = store.path_for("ns", key)
        path.parent.mkdir(parents=True, exist_ok=True)
        frame = encode_document("ns", {"value": "value"})
        for planted in (_bump_version(frame), encode_document("other-ns", {"value": "value"})):
            path.write_bytes(planted)
            assert _get(store, "ns", key) is None
            assert not path.exists()
        assert (store.stats.hits, store.stats.misses, store.stats.errors) == (0, 2, 2)

    def test_a_reader_bug_propagates_and_keeps_the_file(self, store):
        """Only a CodecError is corruption: any other exception from a reader is a bug."""
        key = {"seed": 4}
        _put(store, "ns", key, "value")

        def broken(blob):
            raise KeyError("reader bug")

        with pytest.raises(KeyError, match="reader bug"):
            store.load("ns", key, broken)
        assert store.path_for("ns", key).exists()
        assert store.stats.errors == 0
        assert _get(store, "ns", key) == "value"

    def test_fingerprint_bump_invalidates(self, tmp_path):
        root = tmp_path / "store"
        old = ArtifactStore(root=root, fingerprint="version-1")
        _put(old, "ns", {"seed": 7}, "old-artifact")
        new = ArtifactStore(root=root, fingerprint="version-2")
        assert _get(new, "ns", {"seed": 7}) is None, "new fingerprint must not see old entries"
        assert _get(old, "ns", {"seed": 7}) == "old-artifact", "old entries stay addressable by old code"
        _put(new, "ns", {"seed": 7}, "new-artifact")
        assert _get(new, "ns", {"seed": 7}) == "new-artifact"
        assert _get(old, "ns", {"seed": 7}) == "old-artifact"

    def test_concurrent_writers_do_not_clobber(self, store):
        barrier = threading.Barrier(8)

        def writer(worker: int):
            barrier.wait()
            for round_number in range(10):
                _put(store, "ns", {"slot": round_number % 3}, {"worker": worker, "round": round_number})
            return True

        with concurrent.futures.ThreadPoolExecutor(max_workers=8) as pool:
            assert all(pool.map(writer, range(8)))
        # whatever write won each slot, the artifact must be complete and valid
        for slot in range(3):
            value = _get(store, "ns", {"slot": slot})
            assert isinstance(value, dict) and set(value) == {"worker", "round"}
        assert store.stats.errors == 0
        # no temp files left behind
        leftovers = [path for path in (store.root).rglob(".tmp-*") if path.is_file()]
        assert leftovers == []

    def test_lru_eviction_drops_oldest(self, tmp_path):
        store = ArtifactStore(root=tmp_path / "store", max_bytes=1, fingerprint="fp")
        _put(store, "ns", {"k": 1}, "x" * 100)  # immediately over budget
        _put(store, "ns", {"k": 2}, "y" * 100)
        assert store.stats.evictions >= 1
        # the newest entry survives each sweep
        assert _get(store, "ns", {"k": 2}) == "y" * 100

    def test_eviction_keeps_recently_read_entries(self, tmp_path):
        store = ArtifactStore(root=tmp_path / "store", max_bytes=10_000, fingerprint="fp")
        _put(store, "ns", {"k": "old"}, _noise(3000))
        _put(store, "ns", {"k": "mid"}, _noise(3000))
        older = store.path_for("ns", {"k": "old"})
        middle = store.path_for("ns", {"k": "mid"})
        os.utime(older, (1_000_000, 1_000_000))
        os.utime(middle, (2_000_000, 2_000_000))
        # a read freshens "old", so "mid" is now the LRU victim
        assert _get(store, "ns", {"k": "old"}) is not None
        _put(store, "ns", {"k": "new"}, _noise(6000))  # pushes past max_bytes
        assert not middle.exists()
        assert older.exists()

    def test_snapshot_shape(self, store):
        _put(store, "ns", "k", "v")
        _get(store, "ns", "k")
        snapshot = store.snapshot()
        assert snapshot["entries"] == 1
        assert snapshot["bytes"] > 0
        assert snapshot["hits"] == 1 and snapshot["writes"] == 1
        assert 0.0 <= snapshot["hit_rate"] <= 1.0

    def test_clear(self, store):
        _put(store, "ns", "k", "v")
        store.clear()
        assert store.entry_count == 0
        assert _get(store, "ns", "k") is None

    def test_corruption_deletions_keep_the_byte_estimate_honest(self, store):
        """Corruption-as-miss deletions must decrement the amortized byte
        estimate (they used to leave it above disk truth by one artifact per
        corrupt read, drifting until the next over-budget sweep)."""
        keys = [{"seed": n} for n in range(6)]
        for key in keys:
            _put(store, "ns", key, _noise(2000))
        assert store.estimated_bytes == store.total_bytes
        garbage = b"g" * 500
        for key in keys[:3]:  # corrupt half, read them back as misses
            store.path_for("ns", key).write_bytes(garbage)
        estimate_before = store.estimated_bytes
        for key in keys[:3]:
            assert _get(store, "ns", key) is None
        assert store.stats.errors == 3
        # each corrupt read deleted its (garbage-sized) file AND subtracted
        # that size from the estimate — without the decrement the estimate
        # would still equal estimate_before
        assert store.estimated_bytes == estimate_before - 3 * len(garbage)
        # recount() then restores exact disk truth (the external overwrites
        # themselves are invisible to the running estimate by design)
        assert store.recount() == store.total_bytes
        assert store.estimated_bytes == store.total_bytes

    def test_gc_recounts_and_evicts_to_budget(self, store):
        for n in range(8):
            _put(store, "ns", {"k": n}, _noise(4000))
        # delete some entries behind the store's back: the estimate is stale
        victims = [store.path_for("ns", {"k": n}) for n in range(2)]
        for victim in victims:
            victim.unlink()
        summary = store.gc()
        assert summary["bytes_before"] == summary["bytes_after"] == store.total_bytes
        assert summary["evicted"] == 0
        assert store.estimated_bytes == store.total_bytes
        # now force a trim below the current footprint
        summary = store.gc(max_bytes=store.total_bytes // 2)
        assert summary["evicted"] >= 1
        assert store.total_bytes <= summary["max_bytes"] or store.entry_count == 1
        assert store.estimated_bytes == store.total_bytes
        # the steady-state budget is untouched by the override
        assert store.max_bytes != summary["max_bytes"]

    def test_namespace_stats(self, store):
        _put(store, "alpha", {"k": 1}, _noise(5000))
        _put(store, "alpha", {"k": 2}, _noise(5000))
        _put(store, "beta", {"k": 1}, "b")
        stats = store.namespace_stats()
        assert list(stats) == ["alpha", "beta"]  # sorted by bytes descending
        assert stats["alpha"]["entries"] == 2
        assert stats["beta"]["entries"] == 1
        assert stats["alpha"]["bytes"] > stats["beta"]["bytes"] > 0

    def test_active_store_rejects_path_strings(self, store):
        from repro.store import DEFAULT, active_store

        assert active_store(None) is None
        assert active_store(store) is store
        assert active_store(DEFAULT) is not None
        with pytest.raises(TypeError):
            # a path string must not silently become the user-level default
            active_store("/tmp/some-store-dir")


# -- canonical serialization -------------------------------------------------------


class TestCanonicalBytes:
    @staticmethod
    def _file_hashes(suite):
        # per-file content hashes are the ``file-results`` key inputs a
        # re-run resumes from
        return [content_hash(test_file) for test_file in suite.files]

    def test_equal_suites_hash_equal(self):
        first = build_suite("slt", file_count=2, records_per_file=15, seed=11, store=None)
        second = build_suite("slt", file_count=2, records_per_file=15, seed=11, store=None)
        assert first is not second
        assert self._file_hashes(first) == self._file_hashes(second)

    def test_different_seeds_hash_differently(self):
        first = build_suite("slt", file_count=2, records_per_file=15, seed=11, store=None)
        second = build_suite("slt", file_count=2, records_per_file=15, seed=12, store=None)
        assert self._file_hashes(first) != self._file_hashes(second)

    def test_private_fields_do_not_change_identity(self):
        from repro.core.records import StatementRecord
        from repro.core.runner import FileResult, RecordOutcome, RecordResult
        from repro.store import decode_file_result, encode_file_result

        record = StatementRecord(line=1, sql="SELECT 1")
        untouched = FileResult(path="p", suite="slt", host="sqlite")
        counted = FileResult(path="p", suite="slt", host="sqlite")
        for file_result in (untouched, counted):
            file_result.results.append(RecordResult(record=record, outcome=RecordOutcome.PASS))
        assert counted.passed == 1  # populates the private counter state
        assert counted._outcome_counts and not untouched._outcome_counts
        assert canonical_bytes(untouched) == canonical_bytes(counted)

        # a decoded result that has not built its records yet carries only
        # lazy state besides its public fields: identity ignores it too
        suite = build_suite("slt", file_count=1, records_per_file=15, seed=11, store=None)
        eager = run_transplant(suite, "duckdb", store=None).result.files[0]
        lazy = decode_file_result(encode_file_result(eager, suite.files[0]), suite.files[0])
        assert "results" not in lazy.__dict__
        assert canonical_bytes(lazy) == canonical_bytes(eager)

    def test_parsed_file_hash_survives_pickle(self):
        test_file = build_suite("postgres", file_count=1, records_per_file=15, seed=11, store=None).files[0]
        assert test_file._source_digest is not None
        clone = pickle.loads(pickle.dumps(test_file))
        assert clone is not test_file
        assert content_hash(clone) == content_hash(test_file)

    def test_parsed_file_hash_is_stable_across_hash_seeds(self):
        script = (
            "from repro.formats import parse_test_text\n"
            "from repro.store import content_hash\n"
            f"print(content_hash(parse_test_text({_PG_TEXT!r}, 'postgres', path='a.sql', companion={_PG_OUT!r})))\n"
        )
        expected = content_hash(parse_test_text(_PG_TEXT, "postgres", path="a.sql", companion=_PG_OUT))
        for hash_seed in ("1", "2"):
            environment = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=_SRC)
            output = subprocess.run(
                [sys.executable, "-c", script], env=environment, capture_output=True, text=True, check=True
            )
            assert output.stdout.strip() == expected

    def test_every_source_input_changes_the_hash(self):
        def digest(text=_PG_TEXT, companion=_PG_OUT, path="a.sql", suite=None, suite_format="postgres"):
            return content_hash(parse_test_text(text, suite_format, path=path, companion=companion, suite=suite))

        baseline = digest()
        variants = [
            digest(text=_PG_TEXT + "\n"),
            digest(companion=_PG_OUT + "\n"),
            digest(companion=None),
            digest(path="b.sql"),
            digest(suite="postgres-copy"),
            digest(suite_format="mysql", suite="postgres"),
        ]
        assert baseline not in variants
        assert len(set(variants)) == len(variants)

    def test_hand_built_files_keep_the_canonical_walk(self):
        from repro.core.records import Condition, QueryRecord, StatementRecord, TestFile

        hand_built = TestFile(
            path="hand.test",
            suite="slt",
            records=[
                StatementRecord(line=1, raw="statement ok\nCREATE TABLE t(a INTEGER)", sql="CREATE TABLE t(a INTEGER)"),
                QueryRecord(
                    line=4,
                    raw="query I\nSELECT a FROM t",
                    sql="SELECT a FROM t",
                    type_string="I",
                    expected_values=["1"],
                    conditions=[Condition("skipif", "mysql")],
                ),
            ],
            source_lines=7,
        )
        assert hand_built._source_digest is None
        assert content_hash(hand_built) == hashlib.sha256(canonical_bytes(hand_built)).hexdigest()
        # the value content_hash gave this file before parsed files had digests
        assert content_hash(hand_built) == "9830e10b225d8e42cb4cb7ce1dcddfec19002d15e1ca7b73779844f458e17fbb"

    def test_parser_outside_repro_keeps_the_walk(self):
        from repro.formats.slt import SLTFormat

        class OutsideSLT(SLTFormat):
            name = "slt"

        text = "statement ok\nCREATE TABLE t(a INTEGER)\n\nquery I\nSELECT a FROM t\n----\n"
        outside = OutsideSLT().parse_text(text, path="x.test")
        shipped = parse_test_text(text, "slt", path="x.test")
        assert outside == shipped
        assert outside._source_digest is None and shipped._source_digest is not None
        assert content_hash(outside) == hashlib.sha256(canonical_bytes(outside)).hexdigest()

    def test_no_two_distinct_corpus_files_share_a_hash(self):
        by_hash: dict[str, bytes] = {}
        for seed in (0, 1):
            suites = build_all_suites(seed=seed, scale=0.25, include_mysql=True, store=None)
            assert sorted(suites) == ["duckdb", "mysql", "postgres", "slt"]
            for suite in suites.values():
                for test_file in suite.files:
                    identity = canonical_bytes(test_file)
                    assert by_hash.setdefault(content_hash(test_file), identity) == identity

    def test_floats_are_exact(self):
        assert canonical_bytes(0.1) != canonical_bytes(0.1 + 1e-17) or (0.1 == 0.1 + 1e-17)
        assert canonical_bytes(1.5) == canonical_bytes(1.5)


class TestFileResultKey:
    """A ``file-results`` key holds the file's content hash and one digest of the runner spec."""

    SPEC = RunnerSpec(
        adapter_name="duckdb",
        host_name="duckdb",
        adapter_kwargs=(("seed", 0),),
        available_extensions=("json",),
        float_tolerance=0.0,
        translate_dialect=False,
        donor_dialect="sqlite",
        max_records_per_file=None,
    )

    #: one different value per RunnerSpec field
    CHANGED = {
        "adapter_name": "postgres",
        "host_name": "postgres",
        "adapter_kwargs": (("seed", 1),),
        "available_extensions": (),
        "float_tolerance": 0.01,
        "translate_dialect": True,
        "donor_dialect": "duckdb",
        "max_records_per_file": 5,
    }

    @pytest.fixture(scope="class")
    def test_file(self):
        return build_suite("slt", file_count=1, records_per_file=15, seed=11, store=None).files[0]

    def test_every_spec_field_changes_the_key_and_a_mapping_keys_like_its_dataclass(self, test_file):
        assert set(self.CHANGED) == {field.name for field in dataclasses.fields(RunnerSpec)}
        base = file_result_key(self.SPEC, test_file)
        # the key embeds one digest of the spec's fields, not the fields
        assert base["spec"] == hashlib.sha256(canonical_bytes(dataclasses.asdict(self.SPEC))).hexdigest()
        mapping = dataclasses.asdict(self.SPEC)
        assert file_result_key(mapping, test_file) == base
        for name, value in self.CHANGED.items():
            changed = file_result_key(dataclasses.replace(self.SPEC, **{name: value}), test_file)
            assert changed != base, name
            assert file_result_key({**mapping, name: value}, test_file) == changed, name

    def test_a_spec_is_digested_once(self, monkeypatch):
        spec = dataclasses.replace(self.SPEC)
        files = build_suite("slt", file_count=3, records_per_file=15, seed=11, store=None).files
        digested = []
        canonical = store_keys.canonical_bytes
        monkeypatch.setattr(store_keys, "canonical_bytes", lambda value: (digested.append(value), canonical(value))[1])
        keys = [file_result_key(spec, test_file) for test_file in files]
        # parsed files hash by their source digest, so the spec is the one walk
        assert len(digested) == 1
        assert len({key["file_hash"] for key in keys}) == 3 and len({key["spec"] for key in keys}) == 1
        # a pickled spec carries its digest: a worker keys without walking it
        assert file_result_key(pickle.loads(pickle.dumps(spec)), files[0]) == keys[0]
        assert len(digested) == 1


# -- the corpus client -------------------------------------------------------------


class TestCorpusStore:
    def test_build_suite_loads_instead_of_regenerating(self, store):
        first = build_suite("slt", file_count=2, records_per_file=20, seed=5, store=store)
        assert store.stats.writes >= 1
        second = build_suite("slt", file_count=2, records_per_file=20, seed=5, store=store)
        assert store.stats.hits >= 1
        assert canonical_bytes(first) == canonical_bytes(second)
        assert isinstance(second, TestSuite)

    def test_different_parameters_miss(self, store):
        build_suite("slt", file_count=2, records_per_file=20, seed=5, store=store)
        hits_before = store.stats.hits
        # a different seed (or records_per_file) shares nothing — every
        # namespace, including the per-file donor recordings, misses
        build_suite("slt", file_count=2, records_per_file=20, seed=6, store=store)
        assert store.stats.hits == hits_before

    def test_grown_corpus_reuses_per_file_recordings(self, store):
        """file_count is *not* part of the per-file key: growing a corpus
        regenerates only the new files (incremental corpus recording)."""
        build_suite("slt", file_count=2, records_per_file=20, seed=5, store=store)
        store.stats.reset()
        grown = build_suite("slt", file_count=3, records_per_file=20, seed=5, store=store)
        file_donor = store.stats.by_namespace["file-donor"]
        assert file_donor == {"hits": 2, "misses": 1}
        reference = build_suite("slt", file_count=3, records_per_file=20, seed=5, store=None)
        assert canonical_bytes(grown) == canonical_bytes(reference)

    def test_corrupt_suite_artifact_regenerates(self, store):
        reference = build_suite("slt", file_count=2, records_per_file=20, seed=5, store=store)
        for path in store.root.rglob("*.pkl"):
            path.write_bytes(b"corrupt")
        rebuilt = build_suite("slt", file_count=2, records_per_file=20, seed=5, store=store)
        assert canonical_bytes(rebuilt) == canonical_bytes(reference)
        assert store.stats.errors >= 1


# -- the transplant client ---------------------------------------------------------


class TestDonorRunStore:
    @pytest.fixture(scope="class")
    def suite(self):
        return build_suite("slt", file_count=2, records_per_file=25, seed=9, store=None)

    def test_donor_run_is_memoized(self, store, suite):
        first = run_transplant(suite, "sqlite", store=store)
        # one file-results entry per file, nothing at the suite level
        assert store.stats.writes == len(suite.files)
        second = run_transplant(suite, "sqlite", store=store)
        assert store.stats.hits == len(suite.files)
        assert store.stats.writes == len(suite.files)
        assert canonical_bytes(first) == canonical_bytes(second)

    def test_cross_host_cells_are_memoized(self, store, suite):
        first = run_transplant(suite, "duckdb", store=store)
        assert store.stats.writes == len(suite.files)
        second = run_transplant(suite, "duckdb", store=store)
        assert store.stats.hits == len(suite.files)
        assert canonical_bytes(first) == canonical_bytes(second)
        # cross-host cells persist file by file, like donor runs
        assert [path.name for path in store.root.iterdir() if path.is_dir()] == ["file-results"]

    def test_translated_and_plain_cells_key_separately(self, store, suite):
        plain = run_transplant(suite, "duckdb", store=store)
        translated = run_transplant(suite, "duckdb", translate_dialect=True, store=store)
        files = list((store.root / "file-results").rglob("*.pkl"))
        assert len(files) == 2 * len(suite.files), "translate_dialect must address different files"
        warm_plain = run_transplant(suite, "duckdb", store=store)
        warm_translated = run_transplant(suite, "duckdb", translate_dialect=True, store=store)
        assert canonical_bytes(warm_plain) == canonical_bytes(plain)
        assert canonical_bytes(warm_translated) == canonical_bytes(translated)

    def test_warm_matrix_byte_identical_to_storeless(self, store, suite):
        suites = {suite.name: suite}
        reference = run_matrix(suites, store=None)
        cold = run_matrix(suites, store=store)
        warm = run_matrix(suites, store=store)
        assert store.stats.hits >= 1, "second campaign must hit the stored donor run"
        assert set(reference.entries) == set(cold.entries) == set(warm.entries)
        for key in reference.entries:
            expected = canonical_bytes(reference.entries[key].result)
            assert canonical_bytes(cold.entries[key].result) == expected
            assert canonical_bytes(warm.entries[key].result) == expected

    def test_warm_translated_matrix_reuses_stored_donor_runs(self, store, suite):
        suites = {suite.name: suite}
        cells = run_cells(suites, [CellKey(suite.name, "sqlite"), CellKey(suite.name, "sqlite", translate=True)], store=store)
        plain = next(cells)
        hits_before = store.stats.hits
        translated = next(cells)
        # the translated donor cell is served by its plain sibling in the
        # same campaign, not the store; the store hit count is unchanged
        assert store.stats.hits == hits_before
        assert translated.result.total_cases == plain.result.total_cases
        assert list(cells) == []


# -- the store CLI -----------------------------------------------------------------


class TestStoreCLI:
    @pytest.fixture
    def populated(self, tmp_path):
        root = tmp_path / "cli-store"
        store = ArtifactStore(root=root, fingerprint="cli-fp")
        _put(store, "corpus-suites", {"k": 1}, _noise(2000))
        _put(store, "file-results", {"k": 1}, _noise(3000))
        return root, store

    def _run(self, *argv) -> tuple[int, str]:
        import contextlib
        import io

        from repro.experiments.__main__ import main

        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            status = main(list(argv))
        return status, buffer.getvalue()

    def test_stats(self, populated):
        root, _store = populated
        status, output = self._run("store", "stats", "--store-dir", str(root))
        assert status == 0
        assert "entries:     2" in output
        assert "file-results" in output and "corpus-suites" in output
        # the command reads no artifact: it prints no lookup counters
        assert "hits" not in output and "misses" not in output

    def test_stats_json(self, populated):
        import json

        root, _store = populated
        status, output = self._run("store", "stats", "--store-dir", str(root), "--json")
        assert status == 0
        payload = json.loads(output)
        assert set(payload) == {"root", "entries", "bytes", "max_bytes", "namespaces"}
        assert payload["entries"] == 2
        assert payload["bytes"] == sum(bucket["bytes"] for bucket in payload["namespaces"].values())
        assert set(payload["namespaces"]) == {"corpus-suites", "file-results"}

    def test_gc_trims_to_requested_budget(self, populated):
        root, store = populated
        status, output = self._run("store", "gc", "--store-dir", str(root), "--max-bytes", "2500")
        assert status == 0
        assert "evicted" in output
        assert store.total_bytes <= 3500  # oldest entry went; newest survives
        assert store.entry_count == 1

    def test_clear(self, populated):
        root, store = populated
        status, output = self._run("store", "clear", "--store-dir", str(root))
        assert status == 0
        assert "cleared 2" in output
        assert store.entry_count == 0

    def test_default_store_is_the_process_default(self, tmp_path):
        """Without --store-dir the CLI talks to get_default_store() (which the
        test session redirects to a temp dir, proving the indirection)."""
        from repro.store import get_default_store

        default_root = str(get_default_store().root)
        status, output = self._run("store", "stats")
        assert status == 0
        assert default_root in output


# -- failure-path hygiene and graceful degradation --------------------------------


class TestFailurePathHygiene:
    """A failed save must leave no temp files behind in the store tree."""

    def _tmp_leftovers(self, store):
        return [path for path in store.root.rglob(".tmp-*")]

    def test_failed_rename_leaves_no_tmp_files(self, store, monkeypatch):
        def _broken_replace(src, dst):
            raise OSError(5, "injected EIO on rename")

        monkeypatch.setattr(os, "replace", _broken_replace)
        assert _put(store, "ns", {"k": 1}, "value") is False
        assert self._tmp_leftovers(store) == []
        assert store.stats.errors == 1
        assert store.stats.io_errors == 1

    def test_non_bytes_value_leaves_no_tmp_files(self, store):
        # the store writes the bytes it is given: anything else fails the write
        assert store.save("ns", {"k": 1}, "not bytes") is False
        assert self._tmp_leftovers(store) == []
        # a client bug is a corruption-class error, not a disk fault
        assert store.stats.errors == 1
        assert store.stats.io_errors == 0


class TestStoreDegradation:
    """Consecutive I/O errors demote the store to storeless mode, once, loudly."""

    def _failing(self, tmp_path, degrade_after=3):
        store = ArtifactStore(root=tmp_path / "sick", fingerprint="test-fp", degrade_after=degrade_after)

        def _eio_read(path):
            raise OSError(5, "injected EIO")

        def _eio_write(path, payload):
            raise OSError(5, "injected EIO")

        store._read = _eio_read
        store._write = _eio_write
        return store

    def test_streak_of_io_errors_degrades_with_one_warning(self, tmp_path, caplog):
        store = self._failing(tmp_path, degrade_after=3)
        with caplog.at_level("WARNING", logger="repro.store.artifacts"):
            for index in range(5):
                assert _put(store, "ns", {"k": index}, "value") is False
        assert store.degraded
        warnings = [record for record in caplog.records if "degraded to storeless mode" in record.message]
        assert len(warnings) == 1
        # degraded short-circuit: only the first 3 saves reached the I/O layer
        assert store.stats.io_errors == 3
        assert store.snapshot()["degraded"] is True
        assert store.snapshot()["io_errors"] == 3

    def test_degraded_store_short_circuits_loads(self, tmp_path):
        store = self._failing(tmp_path, degrade_after=2)
        _get(store, "ns", {"k": 1})
        _get(store, "ns", {"k": 2})
        assert store.degraded
        misses_before = store.stats.misses
        assert _get(store, "ns", {"k": 3}) is None
        assert store.stats.misses == misses_before + 1
        assert store.stats.io_errors == 2  # the third load never hit _read

    def test_success_resets_the_streak(self, store, monkeypatch):
        real_write = type(store)._write
        calls = {"n": 0}

        def _flaky_write(self, path, payload):
            calls["n"] += 1
            if calls["n"] != 3:
                raise OSError(5, "injected EIO")
            real_write(self, path, payload)

        monkeypatch.setattr(type(store), "_write", _flaky_write)
        _put(store, "ns", {"k": 1}, "v")  # streak 1
        _put(store, "ns", {"k": 2}, "v")  # streak 2
        assert _put(store, "ns", {"k": 3}, "v") is True  # streak reset
        _put(store, "ns", {"k": 4}, "v")  # streak 1 again
        _put(store, "ns", {"k": 5}, "v")  # streak 2 — still below 3
        assert not store.degraded

    def test_missing_artifact_is_not_an_io_error(self, store):
        assert _get(store, "ns", {"k": "absent"}) is None
        assert store.stats.io_errors == 0
        assert not store.degraded

    def test_clear_rearms_a_degraded_store(self, tmp_path):
        store = self._failing(tmp_path, degrade_after=1)
        _get(store, "ns", {"k": 1})
        assert store.degraded
        store.clear()
        assert not store.degraded


# -- audit and stale-tmp sweep -----------------------------------------------------


class TestAuditAndSweep:
    """``audit()`` verifies every artifact a reader would trust, eagerly."""

    def _artifact_paths(self, store):
        return [path for _, _, path in store._artifact_files()]

    def test_clean_store_audits_clean(self, store):
        _put(store, "ns", {"k": 1}, "value")
        _put(store, "other", {"k": 2}, [1, 2, 3])
        report = store.audit()
        assert report["verified"] == 2
        assert report["corrupt"] == 0
        assert report["corrupt_paths"] == []

    def test_truncated_frame_is_deleted_and_reported(self, store):
        _put(store, "ns", {"k": 1}, "value")
        (path,) = self._artifact_paths(store)
        path.write_bytes(path.read_bytes()[:-7])
        report = store.audit()
        assert report["corrupt"] == 1
        assert report["corrupt_paths"] == [str(path.relative_to(store.root))]
        assert not path.exists()
        assert store.stats.errors == 1

    def test_bad_codec_frame_digest_is_caught(self, store):
        import zlib

        from repro.store.codec import MAGIC

        # header, kind and zlib stream are flawless; only the digest lies —
        # what bit rot under an intact compressed stream would look like
        forged = MAGIC + bytes([CODEC_VERSION]) + b"12345678" + zlib.compress(b"file-results\npayload")
        store.save("file-results", {"k": 1}, forged)
        report = store.audit()
        assert report["corrupt"] == 1
        assert report["verified"] == 0

    def test_intact_codec_frames_pass(self, store):
        from repro.adapters import create_adapter
        from repro.core.runner import TestRunner
        from repro.store.codec import encode_file_result, unframe

        suite = build_suite("slt", file_count=1, records_per_file=3, seed=9)
        result = TestRunner(create_adapter("sqlite"), host_name="sqlite").run_suite(suite)
        blob = encode_file_result(result.files[0], suite.files[0])
        assert unframe(blob, "file-results")
        for bad, kind in [
            (blob[:-1] + bytes([blob[-1] ^ 0xFF]), "file-results"),
            (b"garbage", "file-results"),
            (None, "file-results"),
            (blob, "file-analysis"),
        ]:
            with pytest.raises(CodecError):
                unframe(bad, kind)
        store.save("file-results", {"k": 1}, blob)
        assert store.audit()["verified"] == 1

    def test_namespace_mismatch_is_caught(self, store):
        _put(store, "ns", {"k": 1}, "value")
        (path,) = self._artifact_paths(store)
        impostor_dir = store.root / "other-ns"
        impostor_dir.mkdir()
        path.rename(impostor_dir / path.name)
        report = store.audit()
        assert report["corrupt"] == 1
        assert report["corrupt_paths"][0].startswith("other-ns/")

    def test_wrong_format_version_is_caught(self, store):
        _put(store, "ns", {"k": 1}, "value")
        (path,) = self._artifact_paths(store)
        store._write(path, _bump_version(path.read_bytes()))
        report = store.audit()
        assert report["corrupt"] == 1

    def test_audit_sweeps_tmp_unconditionally(self, store):
        _put(store, "ns", {"k": 1}, "value")
        leftover = store.root / "ns" / ".tmp-killed-writer"
        leftover.write_bytes(b"partial")
        report = store.audit()
        assert report["tmp_swept"] == 1
        assert not leftover.exists()
        assert store.audit(sweep=False)["tmp_swept"] == 0

    def test_sweep_tmp_age_threshold_spares_live_writers(self, store):
        _put(store, "ns", {"k": 1}, "value")
        fresh = store.root / "ns" / ".tmp-live-writer"
        fresh.write_bytes(b"in flight")
        assert store.sweep_tmp(max_age_seconds=3600) == 0
        assert fresh.exists()
        assert store.sweep_tmp(max_age_seconds=0) == 1
        assert not fresh.exists()

    def test_open_time_sweep_removes_stale_tmp(self, tmp_path):
        import time as _time

        root = tmp_path / "store"
        first = ArtifactStore(root=root, fingerprint="test-fp")
        _put(first, "ns", {"k": 1}, "value")
        stale = root / "ns" / ".tmp-dead-writer"
        stale.write_bytes(b"partial")
        two_hours_ago = _time.time() - 7200
        os.utime(stale, (two_hours_ago, two_hours_ago))
        reopened = ArtifactStore(root=root, fingerprint="test-fp")
        assert not stale.exists()
        assert _get(reopened, "ns", {"k": 1}) == "value"

    def test_cli_audit(self, tmp_path):
        import contextlib
        import io

        from repro.experiments.__main__ import main

        root = tmp_path / "cli-store"
        store = ArtifactStore(root=root, fingerprint="cli-fp")
        _put(store, "ns", {"k": 1}, "value")
        _put(store, "ns", {"k": 2}, "other")
        path = [p for _, _, p in store._artifact_files()][0]
        path.write_bytes(b"not a frame")

        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            status = main(["store", "audit", "--store-dir", str(root)])
        assert status == 0
        output = buffer.getvalue()
        assert "verified" in output and "corrupt" in output

    def test_cli_audit_json(self, tmp_path):
        import contextlib
        import io
        import json

        from repro.experiments.__main__ import main

        root = tmp_path / "cli-store"
        _put(ArtifactStore(root=root, fingerprint="cli-fp"), "ns", {"k": 1}, "value")
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            status = main(["store", "audit", "--store-dir", str(root), "--json"])
        assert status == 0
        payload = json.loads(buffer.getvalue())
        assert payload["verified"] == 1
        assert payload["corrupt"] == 0


# -- planted pickles ---------------------------------------------------------------


class _RunsOnUnpickle:
    """A pickle that creates the directory ``path`` when it is loaded."""

    def __init__(self, path) -> None:
        self.path = str(path)

    def __reduce__(self):
        return (os.mkdir, (self.path,))


def _readers() -> dict:
    """namespace -> (the reader its client loads with, the reader's extra arguments)."""
    from repro.analysis import incremental
    from repro.corpus import generate
    from repro.experiments import bugs
    from repro.store import codec

    test_file = build_suite("slt", file_count=1, records_per_file=5, seed=9, store=None).files[0]
    return {
        "file-results": (codec.decode_file_result, (test_file,)),
        "file-analysis": (incremental._stored_partial, ("features",)),
        "file-donor": (generate._recording, ()),
        bugs.PROBES_NAMESPACE: (bugs._read_probes, ()),
    }


class TestPlantedPickle:
    """A store file holding a pickle is never unpickled, on load or in audit.

    Every store file must be a codec frame of its namespace's kind, and a
    pickle is not one, so readers and audit reject it before anything could
    unpickle it.  ``corpus-suites`` is left out: its frame body is still a
    pickled ``TestSuite``, which its reader unpickles once the frame's
    digest, version and kind check out, so a forged frame of that kind would
    still run its pickle until that namespace is deleted (ROADMAP item 5).
    """

    def test_the_planted_pickle_runs_when_unpickled(self, tmp_path):
        marker = tmp_path / "unpickled"
        pickle.loads(pickle.dumps(_RunsOnUnpickle(marker)))
        assert marker.exists()

    @pytest.mark.parametrize("namespace", ["file-results", "file-analysis", "file-donor", "bug-probes"])
    def test_planted_pickle_is_a_miss_and_never_runs(self, store, tmp_path, namespace):
        read, args = _readers()[namespace]
        marker = tmp_path / "unpickled"
        key = {"planted": namespace}
        path = store.path_for(namespace, key)
        path.parent.mkdir(parents=True, exist_ok=True)
        # the (version, namespace, value) envelope of the pickle store format
        planted = pickle.dumps((1, namespace, _RunsOnUnpickle(marker)))

        path.write_bytes(planted)
        assert store.load(namespace, key, read, *args) is None
        assert not path.exists()
        assert (store.stats.hits, store.stats.misses, store.stats.errors) == (0, 1, 1)

        path.write_bytes(planted)
        report = store.audit()
        assert (report["verified"], report["corrupt"]) == (0, 1)
        assert not path.exists()
        assert not marker.exists(), "the planted pickle ran"

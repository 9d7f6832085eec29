"""Incremental campaign assembly: per-file reuse, fallbacks, and corpus sharding.

What must hold (and is pinned here):

* every cell assembles its result from per-file ``file-results`` artifacts
  and executes *only* the files with no usable artifact,
* a corrupted / truncated / version-bumped per-file blob falls back to
  executing that one file — never aborting the suite, never serving garbage —
  and the bad blob is discarded,
* a translated donor cell loads the plain donor cell's files,
* corpus generation is incremental too: per-file donor recordings persist in
  ``file-donor`` and sharded generation is byte-identical to serial.

Byte-level equivalence across whole campaign variants lives in
test_differential.py; these tests pin the mechanics and the counters.
"""

from __future__ import annotations

import pytest

from test_differential import assert_equivalent, on_pool

from repro.core.parallel import WorkerPool
from repro.core.records import TestSuite
from repro.core.transplant import run_transplant
from repro.corpus import build_suite
from repro.corpus.generate import generate_corpus
from repro.store import ArtifactStore, canonical_bytes


@pytest.fixture
def store(tmp_path) -> ArtifactStore:
    return ArtifactStore(root=tmp_path / "store", fingerprint="incremental-fp")


def _wipe(store: ArtifactStore, *namespaces: str) -> None:
    """Delete every artifact of the given namespaces (forces re-derivation)."""
    for namespace in namespaces:
        for path in (store.root / namespace).rglob("*.pkl"):
            path.unlink()


def _edit_file(base: TestSuite, donor: TestSuite, index: int) -> TestSuite:
    """The suite with file ``index`` replaced by another seed's file (an "edit")."""
    files = list(base.files)
    files[index] = donor.files[index]
    return TestSuite(name=base.name, files=files)


class TestAssembly:
    def test_single_file_edit_executes_only_that_file(self, store):
        base = build_suite("slt", file_count=4, records_per_file=15, seed=61, store=None)
        donor = build_suite("slt", file_count=4, records_per_file=15, seed=62, store=None)
        edited = _edit_file(base, donor, 2)
        run_transplant(base, "duckdb", store=store)
        store.stats.reset()
        incremental = run_transplant(edited, "duckdb", store=store)
        assert store.stats.by_namespace["file-results"] == {"hits": 3, "misses": 1}
        reference = run_transplant(edited, "duckdb", store=None)
        assert canonical_bytes(incremental) == canonical_bytes(reference)

    def test_fully_warm_assembly_executes_nothing(self, store):
        suite = build_suite("slt", file_count=3, records_per_file=15, seed=61, store=None)
        cold = run_transplant(suite, "duckdb", store=store)
        store.stats.reset()
        warm = run_transplant(suite, "duckdb", store=store)
        # the per-file artifacts alone reconstitute the cell: no execution,
        # so nothing is written either
        assert store.stats.by_namespace["file-results"] == {"hits": 3, "misses": 0}
        assert store.stats.writes == 0
        assert canonical_bytes(warm) == canonical_bytes(cold)

    def test_fully_warm_assembly_never_leases_an_adapter(self, store):
        """A rebuild with every file warm must not acquire (and reset) a
        pooled adapter it will never execute on; a partial rebuild must."""
        from repro.adapters.pool import AdapterPool

        base = build_suite("slt", file_count=3, records_per_file=15, seed=68, store=None)
        donor = build_suite("slt", file_count=3, records_per_file=15, seed=69, store=None)
        cold = run_transplant(base, "duckdb", store=store)
        pool = AdapterPool()
        try:
            warm = run_transplant(base, "duckdb", store=store, pool=pool)
            stats = pool.stats()
            assert stats["created"] == 0 and stats["reused"] == 0
            assert canonical_bytes(warm) == canonical_bytes(cold)
            # an edit forces one execution, which does lease from the pool
            edited = _edit_file(base, donor, 1)
            run_transplant(edited, "duckdb", store=store, pool=pool)
            assert pool.stats()["created"] == 1
        finally:
            pool.close()

    def test_assembly_spans_hosts_and_worker_counts(self, store):
        """Per-file artifacts written by sharded workers serve the serial
        assembly path and vice versa (same keys, same namespace)."""
        suite = build_suite("slt", file_count=4, records_per_file=15, seed=63, store=None)
        sharded_cold = on_pool(4, run_transplant, suite, "duckdb", store=store)
        store.stats.reset()
        serial_warm = run_transplant(suite, "duckdb", store=store)
        assert store.stats.by_namespace["file-results"] == {"hits": 4, "misses": 0}
        assert canonical_bytes(serial_warm) == canonical_bytes(sharded_cold)

    def test_truncated_file_blob_falls_back_to_executing_that_file(self, store):
        """Regression: a garbled ``file-results`` payload mid-assembly must
        execute that one file, not abort the suite or poison the result."""
        suite = build_suite("slt", file_count=3, records_per_file=15, seed=64, store=None)
        cold = run_transplant(suite, "duckdb", store=store)
        # truncate one per-file codec frame: the store reads its bytes fine,
        # only the frame check can notice
        victim = sorted((store.root / "file-results").rglob("*.pkl"))[0]
        blob = victim.read_bytes()
        victim.write_bytes(blob[: len(blob) // 2])
        store.stats.reset()
        warm = run_transplant(suite, "duckdb", store=store)
        assert canonical_bytes(warm) == canonical_bytes(cold)
        # the unusable blob counts as a miss (and was re-executed)
        assert store.stats.by_namespace["file-results"] == {"hits": 2, "misses": 1}
        assert store.stats.errors >= 1
        # the fallback overwrote the bad blob: the next assembly is all-hit
        store.stats.reset()
        rewarmed = run_transplant(suite, "duckdb", store=store)
        assert store.stats.by_namespace["file-results"] == {"hits": 3, "misses": 0}
        assert canonical_bytes(rewarmed) == canonical_bytes(cold)

    def test_version_bumped_file_blob_is_a_miss_not_an_abort(self, store, monkeypatch):
        suite = build_suite("slt", file_count=3, records_per_file=15, seed=64, store=None)
        cold = run_transplant(suite, "duckdb", store=store)
        victim = sorted((store.root / "file-results").rglob("*.pkl"))[0]
        blob = victim.read_bytes()
        victim.write_bytes(blob[:3] + bytes([blob[3] + 1]) + blob[4:])  # magic "RRC" + version byte
        warm = run_transplant(suite, "duckdb", store=store)
        assert canonical_bytes(warm) == canonical_bytes(cold)

    def test_sharded_assembly_counts_each_missing_file_once(self, store):
        """Sharded execution of assembly misses must not re-probe (and
        re-count) the files assembly already looked up."""
        base = build_suite("slt", file_count=4, records_per_file=15, seed=66, store=None)
        donor = build_suite("slt", file_count=4, records_per_file=15, seed=67, store=None)
        edited = _edit_file(_edit_file(base, donor, 1), donor, 3)
        on_pool(4, run_transplant, base, "duckdb", store=store)
        store.stats.reset()
        incremental = on_pool(4, run_transplant, edited, "duckdb", store=store)
        assert store.stats.by_namespace["file-results"] == {"hits": 2, "misses": 2}
        reference = run_transplant(edited, "duckdb", store=None)
        assert canonical_bytes(incremental) == canonical_bytes(reference)

    @pytest.mark.parametrize("workers", [1, 4])
    def test_cold_cell_persists_only_file_results(self, store, workers):
        """A cold cell probes, executes and persists each file exactly once —
        serially or inside sharded workers — and writes nothing else; the
        warm replay is served from those files alone."""
        suite = build_suite("slt", file_count=3, records_per_file=15, seed=65, store=None)

        def cell():
            if workers == 1:
                return run_transplant(suite, "duckdb", store=store)
            return on_pool(workers, run_transplant, suite, "duckdb", store=store)

        cold = cell()
        assert store.stats.by_namespace == {"file-results": {"hits": 0, "misses": 3}}
        written = [path.relative_to(store.root).parts[0] for path in store.root.rglob("*.pkl")]
        assert written == ["file-results"] * 3
        store.stats.reset()
        warm = cell()
        assert store.stats.by_namespace == {"file-results": {"hits": 3, "misses": 0}}
        assert canonical_bytes(warm) == canonical_bytes(cold)

    def test_translated_donor_cell_loads_the_plain_cells_files(self, store):
        """Translation is the identity donor-on-donor, so the translated
        donor cell shares the plain cell's runner spec — and its files."""
        suite = build_suite("slt", file_count=3, records_per_file=15, seed=70, store=None)
        plain = run_transplant(suite, "sqlite", store=store)
        store.stats.reset()
        translated = run_transplant(suite, "sqlite", translate_dialect=True, store=store)
        assert store.stats.by_namespace["file-results"] == {"hits": 3, "misses": 0}
        assert store.stats.writes == 0
        assert canonical_bytes(translated) == canonical_bytes(plain)


class TestIncrementalAnalysis:
    """``file-analysis`` mirrors the ``file-results`` mechanics: probe per
    file, re-scan only the misses, never trust a frame the codec rejects.
    Whole-lattice value identity lives in test_differential.py; these pin the
    corrupt-blob protocol and the counters."""

    def test_truncated_analysis_blob_rescans_only_that_file(self, store):
        from repro.analysis.incremental import ANALYSIS_PASSES, SuiteAnalyzer, direct_report

        suite = build_suite("postgres", file_count=3, records_per_file=12, seed=81, store=None)
        analyzer = SuiteAnalyzer(store=store)
        cold = analyzer.full_report(suite)
        # truncate one per-file codec frame: the store reads its bytes fine,
        # only the frame check can notice
        victim = sorted((store.root / "file-analysis").rglob("*.pkl"))[0]
        blob = victim.read_bytes()
        victim.write_bytes(blob[: len(blob) // 2])
        store.stats.reset()
        warm = analyzer.full_report(suite)
        total = len(suite.files) * len(ANALYSIS_PASSES)
        assert store.stats.by_namespace["file-analysis"] == {"hits": total - 1, "misses": 1}
        assert store.stats.errors >= 1
        assert_equivalent({"direct": direct_report(suite), "cold": cold, "after-corruption": warm})
        # the re-scan overwrote the bad blob: the next assembly is all-hit
        store.stats.reset()
        assert canonical_bytes(analyzer.full_report(suite)) == canonical_bytes(cold)
        assert store.stats.by_namespace["file-analysis"] == {"hits": total, "misses": 0}

    def test_version_bumped_analysis_blob_is_a_miss_not_an_abort(self, store):
        from repro.analysis.incremental import SuiteAnalyzer, direct_report

        suite = build_suite("slt", file_count=3, records_per_file=12, seed=82, store=None)
        analyzer = SuiteAnalyzer(store=store)
        cold = analyzer.full_report(suite)
        victim = sorted((store.root / "file-analysis").rglob("*.pkl"))[0]
        blob = victim.read_bytes()
        victim.write_bytes(blob[:3] + bytes([blob[3] + 1]) + blob[4:])  # magic "RRC" + version byte
        warm = analyzer.full_report(suite)
        assert_equivalent({"direct": direct_report(suite), "cold": cold, "after-bump": warm})

    def test_frame_from_another_pass_is_invalidated(self, store):
        """Defense in depth: the pass id is part of the key, but a frame that
        *decodes* yet belongs to another pass must still read as a miss."""
        from repro.analysis import count_runner_commands
        from repro.analysis.incremental import SuiteAnalyzer
        from repro.store import analysis_file_key, encode_document

        suite = build_suite("slt", file_count=3, records_per_file=12, seed=83, store=None)
        analyzer = SuiteAnalyzer(store=store)
        analyzer.partials(suite, "features")
        store.save(
            "file-analysis",
            analysis_file_key("features", suite.files[0]),
            encode_document("file-analysis", {"pass": "statements", "partial": {"counts": {}}}),
        )
        store.stats.reset()
        census = analyzer.command_census(suite)
        assert store.stats.by_namespace["file-analysis"] == {"hits": 2, "misses": 1}
        assert store.stats.errors >= 1
        assert canonical_bytes(census) == canonical_bytes(count_runner_commands(suite))


class TestIncrementalCorpus:
    def test_sharded_generation_matches_serial(self):
        serial = generate_corpus("postgres", file_count=4, records_per_file=12, seed=71, store=None)
        sharded = on_pool(3, generate_corpus, "postgres", file_count=4, records_per_file=12, seed=71, store=None)
        assert_equivalent({"serial": serial, "workers-3": sharded})

    # "process" hands in a campaign's persistent pool
    @pytest.mark.parametrize("lane", ["process"])
    def test_process_pool_generation_matches_serial(self, lane):
        serial = generate_corpus("slt", file_count=3, records_per_file=10, seed=72, store=None)
        with WorkerPool(2) as pool:
            sharded = generate_corpus("slt", file_count=3, records_per_file=10, seed=72, store=None, worker_pool=pool)
            assert not pool.in_process
        assert_equivalent({"serial": serial, "workers-2": sharded})

    def test_per_file_recordings_make_corpus_growth_incremental(self, store):
        generate_corpus("slt", file_count=3, records_per_file=10, seed=73, store=store)
        store.stats.reset()
        grown = generate_corpus("slt", file_count=5, records_per_file=10, seed=73, store=store)
        assert store.stats.by_namespace["file-donor"] == {"hits": 3, "misses": 2}
        reference = generate_corpus("slt", file_count=5, records_per_file=10, seed=73, store=None)
        assert_equivalent({"grown-incrementally": grown, "storeless": reference})

    def test_build_suite_threads_workers_through(self, store):
        sharded = on_pool(3, build_suite, "slt", file_count=4, records_per_file=10, seed=74, store=store)
        reference = build_suite("slt", file_count=4, records_per_file=10, seed=74, store=None)
        assert canonical_bytes(sharded) == canonical_bytes(reference)
        # every file's donor recording was persisted individually
        assert len(list((store.root / "file-donor").rglob("*.pkl"))) == 4

    def test_foreign_payload_at_donor_key_is_invalidated(self, store):
        """A frame that decodes but holds no recording must be discarded and
        count as a miss, like any corrupt artifact."""
        from repro.store import donor_file_key, encode_document

        generate_corpus("slt", file_count=2, records_per_file=10, seed=76, store=store)
        _wipe(store, "corpus-suites")
        # a recording-shaped dict with an extra key must also be rejected:
        # GeneratedFile(**entry) would crash on the unknown field
        store.save(
            "file-donor",
            donor_file_key("slt", 10, 76, 0),
            encode_document("file-donor", {"name": "x.test", "primary_text": "", "expected_text": None, "extra": 1}),
        )
        store.stats.reset()
        rebuilt = generate_corpus("slt", file_count=2, records_per_file=10, seed=76, store=store)
        assert store.stats.by_namespace["file-donor"] == {"hits": 1, "misses": 1}
        assert store.stats.errors >= 1
        reference = generate_corpus("slt", file_count=2, records_per_file=10, seed=76, store=None)
        assert_equivalent({"rebuilt": rebuilt, "storeless": reference})

    def test_corrupt_per_file_recording_regenerates_only_that_file(self, store):
        reference = generate_corpus("slt", file_count=3, records_per_file=10, seed=75, store=store)
        # drop the whole-corpus entries so the per-file path is exercised
        _wipe(store, "corpus-suites")
        victim = sorted((store.root / "file-donor").rglob("*.pkl"))[0]
        victim.write_bytes(b"corrupt")
        store.stats.reset()
        rebuilt = generate_corpus("slt", file_count=3, records_per_file=10, seed=75, store=store)
        assert store.stats.by_namespace["file-donor"] == {"hits": 2, "misses": 1}
        assert_equivalent(
            {
                "reference": reference,
                "rebuilt": rebuilt,
            }
        )

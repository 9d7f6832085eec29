"""Benchmarks of the heavy pipeline stages themselves.

These measure what the per-table benchmarks deliberately exclude: generating a
corpus (plan + donor recording + serialization + re-parsing), executing suites
with the unified runner, and — the headline measurement — the full
cross-execution campaign (suite analyses + plain matrix + translated matrix)
run once down the serial seed-equivalent path (caches disabled, no worker
pool) and once down the parallel, cache-aware path (a four-worker pool),
plus an engine-only micro-benchmark of MiniDB's executor throughput.

The campaign benchmark asserts that both paths produce identical
``SuiteResult`` aggregates and writes a machine-readable report to
``benchmarks/BENCH_pipeline.json`` (schema in benchmarks/README.md) so future
changes have a trajectory to regress against (see scripts/bench_compare.py).
"""

import gc
import hashlib
import itertools
import os
import pickle
import random
import time
from contextlib import nullcontext

from _harness import update_pipeline_report

from repro.analysis.predicates import join_usage, predicate_distribution
from repro.analysis.statements import standard_compliance, statement_type_distribution
from repro.core.parallel import WorkerPool
from repro.core.records import TestSuite
from repro.core.transplant import DEFAULT_HOSTS, CellKey, TransplantMatrix, run_cells, run_transplant
from repro.corpus import build_suite
from repro.engine.session import Session
from repro.perf import cache as perf_cache
from repro.store import FILE_RESULTS_NAMESPACE, ArtifactStore, canonical_bytes

#: Campaign workload: one suite, analysed and cross-executed on every host,
#: plain and with the dialect translator (the tables 1-6 / figure 4 pipeline).
CAMPAIGN_SUITE = "slt"
CAMPAIGN_FILES = 6
CAMPAIGN_RECORDS_PER_FILE = 80
CAMPAIGN_SEED = 42
CAMPAIGN_WORKERS = 4

#: Regression floor enforced here and recorded in BENCH_pipeline.json.
#: Override with BENCH_MIN_SPEEDUP for heavily loaded / constrained machines.
MIN_SPEEDUP = float(os.environ.get("BENCH_MIN_SPEEDUP", "2.0"))

#: Absolute campaign-throughput floor (records / parallel wall second), set
#: when compiled column programs landed at ~2x the row-at-a-time baseline
#: (10330 rec/s).  Being an absolute wall-clock number on shared
#: hardware, the benchmark grants itself extra best-of rounds only when a
#: measurement lands below the floor (noise absorption, not a loosened gate);
#: override with BENCH_MIN_RECORDS_PER_SEC on genuinely slower machines.
MIN_RECORDS_PER_SEC = float(os.environ.get("BENCH_MIN_RECORDS_PER_SEC", "20000"))

#: Floor for the warm-artifact-store campaign (second invocation vs cold).
MIN_STORE_SPEEDUP = float(os.environ.get("BENCH_MIN_STORE_SPEEDUP", "1.5"))

#: Workload of the warm-vs-cold store benchmark: two suites so both donor
#: flavours (real sqlite3 for SLT, MiniDB recording for PostgreSQL) weigh in.
STORE_CAMPAIGN_SUITES = (("slt", 6, 80), ("postgres", 4, 40))
STORE_CAMPAIGN_SEED = 42

#: Floor for the warm *full-matrix* replay (every cell persisted) vs the cold
#: pass, and for how much smaller codec payloads must be than whole-object
#: pickles of the same cells.
MIN_MATRIX_WARM_SPEEDUP = float(os.environ.get("BENCH_MIN_MATRIX_WARM_SPEEDUP", "3.0"))
MIN_CODEC_COMPRESSION = float(os.environ.get("BENCH_MIN_CODEC_COMPRESSION", "5.0"))

#: Workload and floor of the streaming-engine benchmark: the full registry
#: (all 14 experiments) run through one serial streaming pass vs serial
#: per-experiment batch runs, cold store both sides.  The pass pays by
#: executing each unique matrix cell once and fanning the live result out.
STREAMING_SCALE = 0.35
STREAMING_SEED = 42
MIN_STREAMING_SPEEDUP = float(os.environ.get("BENCH_MIN_STREAMING_SPEEDUP", "1.3"))

#: Workload and floor of the incremental-campaign benchmark: after editing one
#: file of an INCREMENTAL_FILES-file suite, the warm incremental rebuild
#: (assemble N-1 files from the store, execute 1) must beat cold full
#: re-execution by this factor.  The PostgreSQL-suite-on-MySQL translated
#: cell is the workload: per-record execution (translate + run + compare) is
#: the dominant cost there, which is exactly the work assembly avoids.
INCREMENTAL_SUITE = "postgres"
INCREMENTAL_HOST = "mysql"
INCREMENTAL_FILES = 8
INCREMENTAL_RECORDS_PER_FILE = 150
#: Which file the edit replaces: index 2's replacement costs about the
#: per-file average to execute, so the measured ratio reflects a
#: representative edit rather than the cheapest or dearest file.
INCREMENTAL_EDIT_INDEX = 2
MIN_INCREMENTAL_SPEEDUP = float(os.environ.get("BENCH_MIN_INCREMENTAL_SPEEDUP", "5.0"))

#: Floor of the incremental-*analysis* benchmark (same edit-1-of-8 workload):
#: the full analysis report — the three stored passes (statements,
#: predicates, Table 8 coverage) assembled from warm ``file-analysis``
#: partials, re-analyzing only the edited file, plus the in-memory census and
#: file sizes — must beat the direct whole-suite re-analysis by this factor
#: in process CPU time.  The ideal ratio is INCREMENTAL_FILES (analyze 1
#: file instead of 8), so the floor leaves room for the partial-frame decode
#: overhead without letting the win evaporate.
#: The files are deeper than the execution benchmark's: loading a partial
#: frame costs the same regardless of file depth, so deeper files amortize
#: the fixed per-artifact overhead and the ratio approaches the ideal.
ANALYSIS_RECORDS_PER_FILE = 300
MIN_ANALYSIS_SPEEDUP = float(os.environ.get("BENCH_MIN_ANALYSIS_SPEEDUP", "5.0"))


def _analysis_pass(suite):
    """The RQ1/RQ2-style whole-suite scans the table drivers re-derive."""
    statement_type_distribution(suite)
    standard_compliance(suite)
    predicate_distribution(suite)
    join_usage(suite)


def _pooled(workers, call, *args, **kwargs):
    """``call(*args, **kwargs)`` on a ``WorkerPool(workers)`` of its own when
    ``workers > 1``, else in this process: each timed campaign pays its own
    pool start-up and shutdown."""
    with WorkerPool(workers) if workers > 1 else nullcontext() as pool:
        return call(*args, worker_pool=pool, **kwargs)


def _plain_and_translated(suites, **kwargs):
    """The plain and translated matrices from one ``run_cells`` campaign, so
    each translated donor cell is served by its plain sibling."""
    cells = [CellKey(name, host, translate) for translate in (False, True) for name in suites for host in DEFAULT_HOSTS]
    matrices = (TransplantMatrix(), TransplantMatrix())
    for cell, result in zip(cells, run_cells(suites, cells, **kwargs)):
        matrices[cell.translate].add(result)
    return matrices


def _campaign(suite, workers):
    """Analyses + plain matrix + translated matrix for one suite, storeless."""
    _analysis_pass(suite)
    matrices = _pooled(workers, _plain_and_translated, {suite.name: suite}, store=None)
    # post-execution drivers (compliance and predicate tables) re-scan the suite
    _analysis_pass(suite)
    return matrices


def _matrix_counts(matrix):
    return {
        key: (
            entry.result.total_cases,
            entry.result.executed_cases,
            entry.result.passed_cases,
            entry.result.failed_cases,
            entry.result.skipped_cases,
            entry.result.crash_cases,
            entry.result.hang_cases,
        )
        for key, entry in matrix.entries.items()
    }


def _campaign_counts(matrices):
    plain, translated = matrices
    return (_matrix_counts(plain), _matrix_counts(translated))


def _total_records(matrices):
    return sum(entry.result.total_cases for matrix in matrices for entry in matrix.entries.values())


def _timed_min_of(runs, fn):
    """Best-of-``runs`` wall time; returns (seconds, last result)."""
    best = float("inf")
    result = None
    for _ in range(runs):
        started = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - started)
    return best, result


def test_corpus_generation(benchmark):
    suite = benchmark.pedantic(lambda: build_suite("slt", file_count=3, records_per_file=60, seed=42), rounds=1, iterations=1)
    assert suite.total_sql_records > 100


def test_cross_execution_slt_on_duckdb(benchmark):
    suite = build_suite("slt", file_count=3, records_per_file=60, seed=42)
    result = benchmark.pedantic(lambda: run_transplant(suite, "duckdb"), rounds=1, iterations=1)
    assert 0.0 < result.success_rate <= 1.0


def test_cross_execution_postgres_suite_on_mysql(benchmark):
    suite = build_suite("postgres", file_count=3, records_per_file=40, seed=42)
    result = benchmark.pedantic(lambda: run_transplant(suite, "mysql"), rounds=1, iterations=1)
    assert result.result.executed_cases > 0


def test_pipeline_campaign_parallel_speedup(benchmark):
    """A four-worker pool + caches vs the serial seed path, same suite.

    Both paths run storeless (``store=None``): this benchmark measures
    parallelism + in-process caches against the seed pipeline, and a stored donor run would let the "serial seed" side skip
    execution entirely.  The store's own contribution is measured by
    :func:`test_pipeline_store_warm_vs_cold`; the engine-only share of the
    win by :func:`test_engine_executor`.
    """
    suite = build_suite(
        CAMPAIGN_SUITE,
        file_count=CAMPAIGN_FILES,
        records_per_file=CAMPAIGN_RECORDS_PER_FILE,
        seed=CAMPAIGN_SEED,
        store=None,
    )

    # serial seed path: caches off, no worker pool — every statement is
    # parsed and its expressions compiled on every execution
    perf_cache.clear_caches()
    with perf_cache.caching_disabled():
        serial_wall, serial_result = _timed_min_of(2, lambda: _campaign(suite, workers=1))

    # parallel, cache-aware path (benchmark.pedantic may only run once, so
    # the first round goes through it and the best-of-two is timed manually)
    perf_cache.clear_caches()

    def parallel_campaign():
        return _campaign(suite, workers=CAMPAIGN_WORKERS)

    started = time.perf_counter()
    parallel_result = benchmark.pedantic(parallel_campaign, rounds=1, iterations=1)
    first_wall = time.perf_counter() - started
    second_wall, parallel_result = _timed_min_of(1, parallel_campaign)
    parallel_wall = min(first_wall, second_wall)

    # the throughput floor is an absolute number on shared hardware:
    # grant extra best-of rounds only when a window lands below it, so
    # one scheduler hiccup doesn't fail a run that the very next round
    # measures comfortably above the floor
    records = _total_records(parallel_result)
    for _ in range(3):
        if parallel_wall and records / parallel_wall >= MIN_RECORDS_PER_SEC:
            break
        retry_wall, parallel_result = _timed_min_of(1, parallel_campaign)
        parallel_wall = min(parallel_wall, retry_wall)

    assert _campaign_counts(serial_result) == _campaign_counts(parallel_result), (
        "sharded, cached campaign must reproduce the serial seed results exactly"
    )

    stats = perf_cache.cache_stats()
    records_per_sec = records / parallel_wall if parallel_wall else float("inf")
    speedup = serial_wall / parallel_wall if parallel_wall else float("inf")
    update_pipeline_report(
        {
            "pipeline_campaign": {
                "suite": CAMPAIGN_SUITE,
                "hosts": list(DEFAULT_HOSTS),
                "files": CAMPAIGN_FILES,
                "records": records,
                "workers": CAMPAIGN_WORKERS,
                "serial_seed_wall_s": round(serial_wall, 4),
                "parallel_wall_s": round(parallel_wall, 4),
                "speedup_vs_serial": round(speedup, 3),
                "records_per_sec": round(records_per_sec, 1),
                "min_speedup_required": MIN_SPEEDUP,
                "min_records_per_sec_required": MIN_RECORDS_PER_SEC,
                "cache_hit_rates": {name: entry["hit_rate"] for name, entry in stats.items()},
                "cache_stats": stats,
            }
        }
    )
    print(
        f"\npipeline campaign: serial(seed) {serial_wall:.3f}s, "
        f"workers={CAMPAIGN_WORKERS} {parallel_wall:.3f}s, speedup {speedup:.2f}x, "
        f"{records_per_sec:.0f} records/s"
    )
    assert speedup >= MIN_SPEEDUP, (
        f"parallel cache-aware pipeline must be at least {MIN_SPEEDUP}x faster than "
        f"the serial seed path (got {speedup:.2f}x)"
    )
    assert records_per_sec >= MIN_RECORDS_PER_SEC, (
        f"campaign throughput must stay at or above {MIN_RECORDS_PER_SEC:.0f} records/s "
        f"(got {records_per_sec:.0f})"
    )


#: Workload of the engine micro-benchmark: a synthetic wide table driven
#: straight through :class:`repro.engine.session.Session`, isolating the
#: executor from parsing/translation/comparison (plans and programs are
#: memoized after the warm-up pass).
EXECUTOR_ROWS = 3000
EXECUTOR_SEED = 7
EXECUTOR_STATEMENTS = (
    "SELECT a, b, r FROM wide WHERE b < 250",
    "SELECT a + b, c FROM wide WHERE t = 'alpha'",
    "SELECT DISTINCT d FROM wide",
    "SELECT a, t FROM wide ORDER BY r DESC, a LIMIT 50",
    "SELECT d, count(*), sum(a) FROM wide GROUP BY d ORDER BY 1",
    "SELECT a, u FROM wide WHERE u LIKE 'br%' OR b >= 400",
)


#: sha256 of the canonical bytes of one ``_executor_pass``, frozen when both
#: of MiniDB's engine modes (compiled programs and the AST interpreter)
#: produced it: the pass must keep returning exactly these relations.
EXECUTOR_DIGEST = "9f9f8e2f931e762755470643ff1939fce646f163476c18c1f84c995fa39759e8"


def _executor_session():
    """One session holding the populated synthetic wide table."""
    session = Session("sqlite", enable_faults=False)
    session.execute(
        "CREATE TABLE wide(a INTEGER, b INTEGER, c INTEGER, d INTEGER, "
        "t VARCHAR(20), u VARCHAR(20), r REAL, s REAL)"
    )
    rng = random.Random(EXECUTOR_SEED)
    words = ("alpha", "bravo", "charlie", "delta", "echo", "foxtrot")
    chunk = []
    for _ in range(EXECUTOR_ROWS):
        chunk.append(
            f"({rng.randint(-500, 500)}, {rng.randint(0, 500)}, {rng.randint(0, 50)}, "
            f"{rng.randint(0, 12)}, '{rng.choice(words)}', '{rng.choice(words)}{rng.randint(0, 9)}', "
            f"{rng.uniform(-100, 100):.4f}, {rng.uniform(0, 1):.6f})"
        )
        if len(chunk) == 250:
            session.execute("INSERT INTO wide VALUES " + ", ".join(chunk))
            chunk = []
    if chunk:
        session.execute("INSERT INTO wide VALUES " + ", ".join(chunk))
    return session


def _executor_pass(session):
    """Filter / project / DISTINCT / ORDER BY / aggregate over the wide table."""
    return [(result.columns, result.rows) for result in map(session.execute, EXECUTOR_STATEMENTS)]


def test_engine_executor(benchmark):
    """MiniDB's executor throughput on compiled column programs.

    Plans and programs are memoized after the warm-up pass, so the timed
    passes measure execution alone.  Records/sec counts table rows scanned
    per statement (rows x statements / wall), the executor-level analogue of
    the campaign's records/sec.  The pass must return the relations frozen
    in ``EXECUTOR_DIGEST``.
    """
    session = _executor_session()

    _executor_pass(session)  # warm-up: compile and memoize the column programs
    started = time.perf_counter()
    result = benchmark.pedantic(lambda: _executor_pass(session), rounds=1, iterations=1)
    first_wall = time.perf_counter() - started
    second_wall, result = _timed_min_of(4, lambda: _executor_pass(session))
    wall = min(first_wall, second_wall)
    assert hashlib.sha256(canonical_bytes(result)).hexdigest() == EXECUTOR_DIGEST, (
        "the executor pass must return the relations frozen in EXECUTOR_DIGEST"
    )

    records = EXECUTOR_ROWS * len(EXECUTOR_STATEMENTS)
    records_per_sec = records / wall if wall else float("inf")
    update_pipeline_report(
        {
            "engine_executor": {
                "rows": EXECUTOR_ROWS,
                "statements": len(EXECUTOR_STATEMENTS),
                "records": records,
                "executor_wall_s": round(wall, 4),
                "records_per_sec": round(records_per_sec, 1),
            }
        }
    )
    print(f"\nengine executor: {wall * 1000:.1f}ms, {records_per_sec:.0f} records/s")


def _store_campaign(store):
    """Corpus build + plain and translated matrices for the store benchmark."""
    suites = {}
    for name, file_count, records_per_file in STORE_CAMPAIGN_SUITES:
        suites[name] = build_suite(
            name, file_count=file_count, records_per_file=records_per_file, seed=STORE_CAMPAIGN_SEED, store=store
        )
    return _plain_and_translated(suites, store=store)


def _matrix_result_bytes(matrices):
    """Canonical bytes of every SuiteResult, keyed for comparison."""
    payload = {}
    for label, matrix in zip(("plain", "translated"), matrices):
        for (suite, host), entry in matrix.entries.items():
            payload[(label, suite, host)] = canonical_bytes(entry.result)
    return payload


def test_pipeline_store_warm_vs_cold(benchmark, tmp_path):
    """The same campaign invoked twice: cold store, then warm.

    This models a fresh process running the identical campaign twice.  The
    first invocation starts from nothing — corpora are generated (donor-
    recorded), donor runs executed, everything persisted; statement caches are
    cleared beforehand so session warmth from earlier benchmarks cannot
    flatter it.  The second invocation loads corpora and donor runs from the
    store and — like any real repeat invocation — also enjoys the warm
    in-process statement caches.  ``warm_cold_caches_wall_s`` isolates the
    store's share: the same warm-store pass with statement caches cleared
    (what a *new* process with a warm store sees).

    The warm results must be byte-identical (canonical serialization) to a
    storeless run, and at least ``MIN_STORE_SPEEDUP`` faster than cold.
    """
    store = ArtifactStore(root=tmp_path / "repro-store")

    perf_cache.clear_caches()
    cold_wall, cold_result = _timed_min_of(1, lambda: _store_campaign(store))

    warm_first, warm_result = _timed_min_of(1, lambda: _store_campaign(store))
    started = time.perf_counter()
    warm_result = benchmark.pedantic(lambda: _store_campaign(store), rounds=1, iterations=1)
    warm_wall = min(warm_first, time.perf_counter() - started)

    # store-only contribution: warm store, fresh statement caches
    perf_cache.clear_caches()
    warm_cold_caches_wall, _ = _timed_min_of(1, lambda: _store_campaign(store))

    storeless_result = _store_campaign(store=None)

    assert _matrix_result_bytes(warm_result) == _matrix_result_bytes(storeless_result), (
        "warm-store campaign must reproduce the storeless results byte-for-byte"
    )
    assert _campaign_counts(cold_result) == _campaign_counts(warm_result)

    snapshot = store.snapshot()
    snapshot.pop("root", None)  # a tmp path would churn the report between runs
    speedup = cold_wall / warm_wall if warm_wall else float("inf")
    update_pipeline_report(
        {
            "pipeline_store": {
                "suites": [name for name, _, _ in STORE_CAMPAIGN_SUITES],
                "records": _total_records(warm_result),
                "cold_wall_s": round(cold_wall, 4),
                "warm_wall_s": round(warm_wall, 4),
                "warm_cold_caches_wall_s": round(warm_cold_caches_wall, 4),
                "speedup_warm_vs_cold": round(speedup, 3),
                "min_speedup_required": MIN_STORE_SPEEDUP,
                "store_hit_rate": snapshot["hit_rate"],
                "store_stats": snapshot,
            }
        }
    )
    print(f"\nstore campaign: cold {cold_wall:.3f}s, warm {warm_wall:.3f}s, speedup {speedup:.2f}x")
    assert speedup >= MIN_STORE_SPEEDUP, (
        f"warm-store campaign must be at least {MIN_STORE_SPEEDUP}x faster than the "
        f"cold pass (got {speedup:.2f}x)"
    )


def test_pipeline_matrix_warm_full_matrix(benchmark, tmp_path):
    """The headline PR 4 measurement: a warm **full matrix** replays every
    cell — donor runs *and* cross-host transplants, plain *and* translated —
    from the store without touching an adapter.

    Asserted here (and recorded as ``pipeline_matrix_warm``):

    * the warm replay is >= ``MIN_MATRIX_WARM_SPEEDUP`` faster than the cold
      execution pass,
    * codec payloads undercut whole-object pickles of the same cells by
      >= ``MIN_CODEC_COMPRESSION``,
    * warm results are byte-identical (canonical serialization) to storeless
      runs without a worker pool and on a four-worker pool.
    """
    store = ArtifactStore(root=tmp_path / "repro-store")
    suites = {
        name: build_suite(name, file_count=file_count, records_per_file=records, seed=STORE_CAMPAIGN_SEED, store=None)
        for name, file_count, records in STORE_CAMPAIGN_SUITES
    }

    def full_matrix(workers=1, store=store):
        return _pooled(workers, _plain_and_translated, suites, store=store)

    perf_cache.clear_caches()
    cold_wall, cold_result = _timed_min_of(1, full_matrix)

    warm_first, _ = _timed_min_of(1, full_matrix)
    started = time.perf_counter()
    warm_result = benchmark.pedantic(full_matrix, rounds=1, iterations=1)
    warm_wall = min(warm_first, time.perf_counter() - started)

    warm_sharded_wall, warm_sharded_result = _timed_min_of(1, lambda: full_matrix(workers=CAMPAIGN_WORKERS))

    storeless_result = full_matrix(store=None)

    reference = _matrix_result_bytes(storeless_result)
    assert _matrix_result_bytes(warm_result) == reference, (
        "warm full-matrix replay (no worker pool) must be byte-identical to the storeless run"
    )
    assert _matrix_result_bytes(warm_sharded_result) == reference, (
        f"warm full-matrix replay ({CAMPAIGN_WORKERS} workers) must be byte-identical to the storeless run"
    )
    assert _campaign_counts(cold_result) == _campaign_counts(warm_result)

    # payload compactness: stored codec bytes vs pickles of the same cells.
    # Cells are deduped by stored-artifact identity first: a donor cell runs
    # with translation off (translation is the identity there), so the
    # translated matrix's donor cells reuse the plain matrix's per-file
    # artifacts and must not be pickled twice on the comparison side.
    distinct_cells = {}
    for translated, matrix in zip((False, True), cold_result):
        for entry in matrix.entries.values():
            artifact_key = (entry.suite, entry.host, False if entry.is_donor_run else translated)
            distinct_cells[artifact_key] = entry
    cell_count = len(distinct_cells)
    # store-backed cells hold each file as its lazy frame: build every file's
    # records first, so the pickle side is the eager result graphs
    for entry in distinct_cells.values():
        for file_result in entry.result.files:
            file_result.results  # noqa: B018 - materialise the records
    pickle_bytes = sum(len(pickle.dumps(entry, protocol=pickle.HIGHEST_PROTOCOL)) for entry in distinct_cells.values())
    namespaces = store.namespace_stats()
    codec_bytes = namespaces.get(FILE_RESULTS_NAMESPACE, {}).get("bytes", 0)
    compression = pickle_bytes / codec_bytes if codec_bytes else float("inf")

    speedup = cold_wall / warm_wall if warm_wall else float("inf")
    update_pipeline_report(
        {
            "pipeline_matrix_warm": {
                "suites": [name for name, _, _ in STORE_CAMPAIGN_SUITES],
                "hosts": list(DEFAULT_HOSTS),
                "cells": cell_count,
                "records": _total_records(cold_result),
                "cold_wall_s": round(cold_wall, 4),
                "warm_wall_s": round(warm_wall, 4),
                "warm_sharded_wall_s": round(warm_sharded_wall, 4),
                "speedup_warm_vs_cold": round(speedup, 3),
                "min_speedup_required": MIN_MATRIX_WARM_SPEEDUP,
                "payload_bytes_per_cell": round(codec_bytes / cell_count) if cell_count else None,
                "pickle_bytes_per_cell": round(pickle_bytes / cell_count) if cell_count else None,
                "speedup_codec_vs_pickle_bytes": round(compression, 3),
                "min_codec_compression_required": MIN_CODEC_COMPRESSION,
                "store_stats": {key: value for key, value in store.snapshot().items() if key != "root"},
            }
        }
    )
    print(
        f"\nfull matrix ({cell_count} cells): cold {cold_wall:.3f}s, warm {warm_wall:.3f}s "
        f"(speedup {speedup:.2f}x); codec {codec_bytes}B vs pickle {pickle_bytes}B ({compression:.1f}x smaller)"
    )
    assert speedup >= MIN_MATRIX_WARM_SPEEDUP, (
        f"warm full-matrix replay must be at least {MIN_MATRIX_WARM_SPEEDUP}x faster "
        f"than cold (got {speedup:.2f}x)"
    )
    assert compression >= MIN_CODEC_COMPRESSION, (
        f"codec payloads must be at least {MIN_CODEC_COMPRESSION}x smaller than "
        f"whole-object pickles (got {compression:.2f}x)"
    )


def test_pipeline_streaming(benchmark, tmp_path):
    """One streaming pass vs serial per-experiment batch runs, cold store.

    The batch side is the pre-streaming workflow: every registered experiment
    runs as its own serial invocation (fresh context and cleared statement
    caches per experiment — fresh-process semantics), sharing campaign work
    only through the artifact store, which starts cold.  The streaming side is
    one serial :func:`stream_experiments` pass over the same registry on its
    own cold store: the unioned-needs planner executes each unique matrix
    cell exactly once in memory and fans the live result out to every
    subscriber, so the per-experiment store round-trips and matrix
    re-assembly disappear.  Every
    round gets a fresh cold store.  The streamed results must be
    byte-identical to the per-experiment batch results — same
    accumulate/finalize computation, different schedule — and the single pass
    must pay at least ``MIN_STREAMING_SPEEDUP``; below-floor measurements earn
    extra best-of rounds (noise absorption, same policy as the throughput
    floor above).
    """
    from repro.corpus.generate import build_all_suites, scaled_file_count
    from repro.experiments.context import ExperimentContext
    from repro.experiments.registry import available_experiments, run_experiment
    from repro.experiments.stream import stream_experiments

    suites = build_all_suites(seed=STREAMING_SEED, scale=STREAMING_SCALE, store=None)
    mysql_suite = build_suite("mysql", file_count=scaled_file_count("mysql", STREAMING_SCALE), seed=STREAMING_SEED, store=None)
    store_serial = itertools.count()

    def fresh_context(store_dir):
        context = ExperimentContext(scale=STREAMING_SCALE, seed=STREAMING_SEED, store_dir=str(store_dir))
        context._suites = dict(suites)
        context._mysql_suite = mysql_suite
        return context

    def cold_store_dir():
        return tmp_path / f"store-{next(store_serial)}"

    def batch_campaign():
        store_dir = cold_store_dir()
        results = []
        for experiment_id in available_experiments():
            perf_cache.clear_caches()
            with fresh_context(store_dir) as context:
                results.append(run_experiment(experiment_id, context))
        return results

    def streaming_campaign():
        perf_cache.clear_caches()
        with fresh_context(cold_store_dir()) as context:
            return list(stream_experiments(None, context))

    batch_wall, batch_result = _timed_min_of(2, batch_campaign)

    started = time.perf_counter()
    streamed_result = benchmark.pedantic(streaming_campaign, rounds=1, iterations=1)
    first_wall = time.perf_counter() - started
    second_wall, streamed_result = _timed_min_of(1, streaming_campaign)
    streaming_wall = min(first_wall, second_wall)
    for _ in range(3):
        if streaming_wall and batch_wall / streaming_wall >= MIN_STREAMING_SPEEDUP:
            break
        retry_wall, streamed_result = _timed_min_of(1, streaming_campaign)
        streaming_wall = min(streaming_wall, retry_wall)

    order = {experiment_id: index for index, experiment_id in enumerate(available_experiments())}
    streamed_ordered = sorted(streamed_result, key=lambda result: order[result.experiment_id])
    assert canonical_bytes(streamed_ordered) == canonical_bytes(batch_result), (
        "streamed results must be byte-identical to the serial batch (only yield order may differ)"
    )

    speedup = batch_wall / streaming_wall if streaming_wall else float("inf")
    update_pipeline_report(
        {
            "pipeline_streaming": {
                "experiments": len(batch_result),
                "scale": STREAMING_SCALE,
                "batch_mode": "serial per-experiment runs, cold shared store",
                "batch_wall_s": round(batch_wall, 4),
                "streaming_wall_s": round(streaming_wall, 4),
                "speedup_streaming_vs_batch": round(speedup, 3),
                "min_speedup_required": MIN_STREAMING_SPEEDUP,
            }
        }
    )
    print(
        f"\nstreaming engine ({len(batch_result)} experiments): per-experiment batch {batch_wall:.3f}s, "
        f"single pass {streaming_wall:.3f}s, speedup {speedup:.2f}x"
    )
    assert speedup >= MIN_STREAMING_SPEEDUP, (
        f"one streaming pass must be at least {MIN_STREAMING_SPEEDUP}x faster than "
        f"serial per-experiment batch runs on a cold store (got {speedup:.2f}x)"
    )


def test_pipeline_incremental_single_file_edit(benchmark, tmp_path):
    """The incremental-campaign measurement: edit one file of an 8-file suite.

    A cold campaign seeds per-file ``file-results`` artifacts; then one file
    is "edited" (replaced with a file generated from another seed — same
    path, different content, so the suite hash and that file's hash change).
    The warm incremental rebuild must assemble the 7 untouched files from the
    store and execute exactly the edited one; the cold side is the same
    invocation into a fresh, empty store, which executes, encodes and
    persists all 8 files.  Both sides run best-of-three with cleared statement caches
    — fresh-process semantics — and the warm side's fresh artifacts are
    removed between rounds so every round is a true first rebuild after the
    edit.

    Enforced: speedup >= ``MIN_INCREMENTAL_SPEEDUP`` measured in **process
    CPU time** (what the rebuild avoids is work; the warm side's wall is a
    few tens of milliseconds, where a single scheduler gap on a shared
    single-core runner can halve the wall ratio without any code running
    slower — both walls are still reported), a 7-hit/1-miss ``file-results``
    lookup profile, and byte-identical results against storeless runs without
    a worker pool and on a four-worker pool.
    """
    store = ArtifactStore(root=tmp_path / "repro-store")
    base = build_suite(
        INCREMENTAL_SUITE,
        file_count=INCREMENTAL_FILES,
        records_per_file=INCREMENTAL_RECORDS_PER_FILE,
        seed=CAMPAIGN_SEED,
        store=None,
    )
    variant = build_suite(
        INCREMENTAL_SUITE,
        file_count=INCREMENTAL_FILES,
        records_per_file=INCREMENTAL_RECORDS_PER_FILE,
        seed=CAMPAIGN_SEED + 1,
        store=None,
    )
    edited_files = list(base.files)
    edited_files[INCREMENTAL_EDIT_INDEX] = variant.files[INCREMENTAL_EDIT_INDEX]
    edited = TestSuite(name=base.name, files=edited_files)

    def transplant(**kwargs):
        return run_transplant(edited, INCREMENTAL_HOST, translate_dialect=True, **kwargs)

    perf_cache.clear_caches()
    run_transplant(base, INCREMENTAL_HOST, translate_dialect=True, store=store)  # seed per-file artifacts

    # cold full execution into a fresh, empty store per round, so a later
    # round cannot be served by an earlier round's files
    cold_wall = cold_cpu = float("inf")
    cold_result = None
    for round_index in range(3):
        baseline_store = ArtifactStore(root=tmp_path / f"baseline-{round_index}")
        perf_cache.clear_caches()
        gc.collect()  # an unlucky mid-round collection would skew the min
        started = time.perf_counter()
        started_cpu = time.process_time()
        cold_result = transplant(store=baseline_store)
        cold_cpu = min(cold_cpu, time.process_time() - started_cpu)
        cold_wall = min(cold_wall, time.perf_counter() - started)

    # warm incremental rebuild; the artifact the rebuild writes (the edited
    # file's entry) is removed between rounds so each round is the first
    # rebuild after the edit
    preexisting = set(store.root.rglob("*.pkl"))
    perf_cache.clear_caches()
    gc.collect()
    store.stats.reset()
    started = time.perf_counter()
    started_cpu = time.process_time()
    warm_result = benchmark.pedantic(lambda: transplant(store=store), rounds=1, iterations=1)
    warm_cpu = time.process_time() - started_cpu
    warm_wall = time.perf_counter() - started
    file_lookups = dict(store.stats.by_namespace["file-results"])
    for _ in range(2):
        for fresh in set(store.root.rglob("*.pkl")) - preexisting:
            fresh.unlink()
        perf_cache.clear_caches()
        gc.collect()
        started = time.perf_counter()
        started_cpu = time.process_time()
        warm_result = transplant(store=store)
        warm_cpu = min(warm_cpu, time.process_time() - started_cpu)
        warm_wall = min(warm_wall, time.perf_counter() - started)

    serial_reference = transplant(store=None)
    sharded_reference = _pooled(CAMPAIGN_WORKERS, transplant, store=None)

    reference = canonical_bytes(serial_reference)
    assert canonical_bytes(warm_result) == reference, (
        "incremental rebuild must be byte-identical to the storeless serial run"
    )
    assert canonical_bytes(cold_result) == reference
    assert canonical_bytes(sharded_reference) == reference, (
        f"storeless {CAMPAIGN_WORKERS}-worker run must be byte-identical to serial"
    )
    assert file_lookups == {"hits": INCREMENTAL_FILES - 1, "misses": 1}, (
        f"the rebuild must load {INCREMENTAL_FILES - 1} files and execute 1, got {file_lookups}"
    )

    records = cold_result.result.total_cases
    speedup = cold_cpu / warm_cpu if warm_cpu else float("inf")
    wall_speedup = cold_wall / warm_wall if warm_wall else float("inf")
    update_pipeline_report(
        {
            "pipeline_incremental": {
                "suite": INCREMENTAL_SUITE,
                "host": INCREMENTAL_HOST,
                "translate": True,
                "files": INCREMENTAL_FILES,
                "edited_files": 1,
                "records": records,
                "cold_full_wall_s": round(cold_wall, 4),
                "warm_incremental_wall_s": round(warm_wall, 4),
                "cold_full_cpu_s": round(cold_cpu, 4),
                "warm_incremental_cpu_s": round(warm_cpu, 4),
                "speedup_incremental_vs_cold": round(speedup, 3),
                "speedup_incremental_wall": round(wall_speedup, 3),
                "min_speedup_required": MIN_INCREMENTAL_SPEEDUP,
                "assembly_hit_rate": round(
                    file_lookups["hits"] / (file_lookups["hits"] + file_lookups["misses"]), 4
                ),
                "store_stats": {key: value for key, value in store.snapshot().items() if key != "root"},
            }
        }
    )
    print(
        f"\nincremental (1/{INCREMENTAL_FILES} files edited): cold full {cold_cpu:.3f}s cpu "
        f"({cold_wall:.3f}s wall), warm rebuild {warm_cpu:.3f}s cpu ({warm_wall:.3f}s wall), "
        f"speedup {speedup:.2f}x cpu / {wall_speedup:.2f}x wall"
    )
    assert speedup >= MIN_INCREMENTAL_SPEEDUP, (
        f"warm incremental rebuild must be at least {MIN_INCREMENTAL_SPEEDUP}x faster "
        f"(process CPU time) than cold full re-execution (got {speedup:.2f}x)"
    )


def test_pipeline_analysis_warm(benchmark, tmp_path):
    """The incremental-analysis measurement: edit one file of an 8-file suite.

    A cold :meth:`SuiteAnalyzer.full_report` seeds one ``file-analysis``
    partial per (file, stored pass); then one file is "edited" (replaced with
    a file generated from another seed).  The warm assembly must load the 7
    untouched files' partials for the three stored passes — statements,
    predicates and Table 8's per-engine coverage — and re-analyze exactly
    the edited file (the census and file sizes are scanned in memory on
    both sides); the cold side is the direct whole-suite re-analysis
    (:func:`direct_report`, what every table/figure driver did before the
    analysis layer went incremental).  Both sides run best-of-three with
    cleared statement caches; every warm round uses a fresh analyzer (an
    analyzer keeps the profiles it merged) and the warm side's fresh
    artifacts are removed between rounds, so every round is a true first
    assembly after the edit.

    Enforced: speedup >= ``MIN_ANALYSIS_SPEEDUP`` in **process CPU time**
    (the warm side's wall is single-digit milliseconds, where one scheduler
    gap on a shared runner swamps the ratio; both walls are still reported),
    a 7-hit/1-miss-per-pass ``file-analysis`` profile in every warm round,
    and byte-identical reports against the storeless scan without a worker
    pool and on a four-worker pool.
    """
    from repro.analysis.incremental import ANALYSIS_PASSES, SuiteAnalyzer, direct_report

    store = ArtifactStore(root=tmp_path / "repro-store")
    base = build_suite(
        INCREMENTAL_SUITE,
        file_count=INCREMENTAL_FILES,
        records_per_file=ANALYSIS_RECORDS_PER_FILE,
        seed=CAMPAIGN_SEED,
        store=None,
    )
    variant = build_suite(
        INCREMENTAL_SUITE,
        file_count=INCREMENTAL_FILES,
        records_per_file=ANALYSIS_RECORDS_PER_FILE,
        seed=CAMPAIGN_SEED + 1,
        store=None,
    )
    edited_files = list(base.files)
    edited_files[INCREMENTAL_EDIT_INDEX] = variant.files[INCREMENTAL_EDIT_INDEX]
    edited = TestSuite(name=base.name, files=edited_files)

    perf_cache.clear_caches()
    SuiteAnalyzer(store=store).full_report(base)  # seed per-file analysis partials

    # cold direct whole-suite re-scan (the pre-incremental path)
    cold_wall = cold_cpu = float("inf")

    def cold_round():
        nonlocal cold_cpu, cold_wall
        perf_cache.clear_caches()
        gc.collect()  # an unlucky mid-round collection would skew the min
        started = time.perf_counter()
        started_cpu = time.process_time()
        result = direct_report(edited)
        cold_cpu = min(cold_cpu, time.process_time() - started_cpu)
        cold_wall = min(cold_wall, time.perf_counter() - started)
        return result

    for _ in range(3):
        cold_result = cold_round()

    # warm assembly; each round builds a fresh analyzer, which holds no merged
    # profile, and the artifacts a round writes (the edited file's partials)
    # are removed before the next, so each round is the first assembly after
    # the edit and probes the store (its lookups are checked below)
    preexisting = set(store.root.rglob("*.pkl"))
    warm_wall = warm_cpu = float("inf")
    warm_lookups = []

    def warm_round(assemble):
        nonlocal warm_cpu, warm_wall
        for fresh in set(store.root.rglob("*.pkl")) - preexisting:
            fresh.unlink()
        analyzer = SuiteAnalyzer(store=store)
        perf_cache.clear_caches()
        gc.collect()
        store.stats.reset()
        started = time.perf_counter()
        started_cpu = time.process_time()
        result = assemble(analyzer)
        warm_cpu = min(warm_cpu, time.process_time() - started_cpu)
        warm_wall = min(warm_wall, time.perf_counter() - started)
        warm_lookups.append(dict(store.stats.by_namespace.get("file-analysis", {})))
        return result

    warm_result = warm_round(
        lambda analyzer: benchmark.pedantic(lambda: analyzer.full_report(edited), rounds=1, iterations=1)
    )
    for _ in range(2):
        warm_result = warm_round(lambda analyzer: analyzer.full_report(edited))

    # the measured quantities are small (tens of ms cold, ~10ms warm), so a
    # shared runner's scheduler noise can dent either min; grant extra
    # best-of rounds only when a measurement lands below the floor — noise
    # absorption, not a loosened gate
    for _ in range(3):
        if warm_cpu and cold_cpu / warm_cpu >= MIN_ANALYSIS_SPEEDUP:
            break
        cold_result = cold_round()
        warm_result = warm_round(lambda analyzer: analyzer.full_report(edited))

    serial_reference = SuiteAnalyzer(store=None).full_report(edited)
    with WorkerPool(CAMPAIGN_WORKERS) as pool:
        sharded_reference = SuiteAnalyzer(store=None, worker_pool=pool).full_report(edited)

    reference = canonical_bytes(cold_result)
    assert canonical_bytes(warm_result) == reference, (
        "warm assembly must be byte-identical to the direct whole-suite scan"
    )
    assert canonical_bytes(serial_reference) == reference
    assert canonical_bytes(sharded_reference) == reference, (
        f"storeless {CAMPAIGN_WORKERS}-worker analysis must be byte-identical to serial"
    )
    passes = len(ANALYSIS_PASSES)
    expected_lookups = {"hits": (INCREMENTAL_FILES - 1) * passes, "misses": passes}
    assert warm_lookups == [expected_lookups] * len(warm_lookups), (
        f"every warm round must load {INCREMENTAL_FILES - 1} files and re-scan 1 per pass, got {warm_lookups}"
    )
    analysis_lookups = warm_lookups[0]

    speedup = cold_cpu / warm_cpu if warm_cpu else float("inf")
    wall_speedup = cold_wall / warm_wall if warm_wall else float("inf")
    update_pipeline_report(
        {
            "pipeline_analysis_warm": {
                "suite": INCREMENTAL_SUITE,
                "files": INCREMENTAL_FILES,
                "records_per_file": ANALYSIS_RECORDS_PER_FILE,
                "edited_files": 1,
                "passes": passes,
                "cold_scan_wall_s": round(cold_wall, 4),
                "warm_assembly_wall_s": round(warm_wall, 4),
                "cold_scan_cpu_s": round(cold_cpu, 4),
                "warm_assembly_cpu_s": round(warm_cpu, 4),
                "speedup_analysis_vs_cold": round(speedup, 3),
                "speedup_analysis_wall": round(wall_speedup, 3),
                "min_speedup_required": MIN_ANALYSIS_SPEEDUP,
                "assembly_hit_rate": round(
                    analysis_lookups["hits"] / (analysis_lookups["hits"] + analysis_lookups["misses"]), 4
                ),
            }
        }
    )
    print(
        f"\nanalysis (1/{INCREMENTAL_FILES} files edited, {passes} passes): cold scan {cold_cpu:.3f}s cpu "
        f"({cold_wall:.3f}s wall), warm assembly {warm_cpu:.3f}s cpu ({warm_wall:.3f}s wall), "
        f"speedup {speedup:.2f}x cpu / {wall_speedup:.2f}x wall"
    )
    assert speedup >= MIN_ANALYSIS_SPEEDUP, (
        f"warm analysis assembly must be at least {MIN_ANALYSIS_SPEEDUP}x faster "
        f"(process CPU time) than the direct whole-suite re-scan (got {speedup:.2f}x)"
    )

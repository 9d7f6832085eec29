"""Differential test harness: campaign variants that must be byte-identical.

The incremental-campaign machinery rests on a family of equality guarantees —
incremental == full re-execution, warm store == cold == storeless, workers 1
== workers 4 — and every one of them is
"byte-identical under the canonical serialization"
(:func:`repro.store.canonical_bytes`), not merely "same aggregates".  :func:`assert_equivalent` is the single reusable way to
pin such guarantees: hand it labelled campaign variants and it asserts that
every one produces the same canonical bytes.  test_parallel.py and
test_codec.py build their parity checks on it instead of copy-pasting
aggregate comparisons.
"""

from __future__ import annotations

import pytest

from repro.analysis import ANALYSIS_PASSES
from repro.analysis.incremental import SuiteAnalyzer, direct_report
from repro.core import coverage
from repro.core.parallel import WorkerPool
from repro.core.records import TestSuite
from repro.core.transplant import run_transplant
from repro.corpus import build_suite
from repro.experiments import ExperimentContext, run_experiment
from repro.experiments.context import ExperimentResult
from repro.store import ArtifactStore, canonical_bytes


def assert_equivalent(campaign_variants):
    """Assert that every labelled campaign variant is byte-identical.

    ``campaign_variants`` maps a label to either a zero-argument callable
    producing a result or an already-computed result.  Results may be
    anything the canonical serialization can walk — ``TransplantResult``,
    ``SuiteResult``, ``TransplantMatrix``, lists of them, ...  Variants run
    in mapping order (so a "cold" variant can populate a store that a later
    "warm" variant reads), the first is the reference, and any divergence
    fails with the offending labels.  Returns label -> result so callers can
    make additional variant-specific assertions.
    """
    if not campaign_variants:
        raise ValueError("assert_equivalent needs at least one campaign variant")
    results = {}
    reference_label = None
    reference_bytes = None
    for label, variant in campaign_variants.items():
        value = variant() if callable(variant) else variant
        results[label] = value
        rendered = canonical_bytes(value)
        if reference_bytes is None:
            reference_label, reference_bytes = label, rendered
        else:
            assert rendered == reference_bytes, (
                f"campaign variant {label!r} diverges from {reference_label!r}"
            )
    return results


def on_pool(workers, call, *args, **kwargs):
    """``call(*args, **kwargs)`` on a fresh ``WorkerPool(workers)``, shut down after.

    Each call owns its pool the way a campaign does, so the workers fork
    inside the caller's scopes (``caching_disabled``, say), which a pool
    shared across variants would not see.
    """
    with WorkerPool(workers) as pool:
        return call(*args, worker_pool=pool, **kwargs)


#: The two transplant legs the parity satellites have always pinned: the SLT
#: suite on DuckDB (plain) and the PostgreSQL suite on MySQL (translated).
WORKLOADS = (
    ("slt", "duckdb", False),
    ("postgres", "mysql", True),
)


class TestCampaignVariants:
    """The full equivalence lattice on both reference workloads."""

    @pytest.mark.parametrize("suite_name,host,translate", WORKLOADS)
    def test_incremental_warm_sharded_and_full_all_match(self, suite_name, host, translate, tmp_path):
        suite = build_suite(suite_name, file_count=4, records_per_file=20, seed=23, store=None)
        store = ArtifactStore(root=tmp_path / "store", fingerprint="diff-fp")
        sharded_store = ArtifactStore(root=tmp_path / "sharded-store", fingerprint="diff-fp")

        def run(workers=None, **kwargs):
            if workers is not None:
                return lambda: on_pool(workers, run_transplant, suite, host, translate_dialect=translate, **kwargs)
            return lambda: run_transplant(suite, host, translate_dialect=translate, **kwargs)

        variants = assert_equivalent(
            {
                "storeless-serial": run(store=None),
                "storeless-workers-4": run(store=None, workers=4),
                # cold runs execute and persist every file (serially, or
                # inside the workers); warm ones assemble from those files
                "incremental-cold": run(store=store),
                "sharded-cold": run(store=sharded_store, workers=4),
                "warm-replay": run(store=store),
                "warm-workers-4": run(store=store, workers=4),
                "warm-from-sharded": run(store=sharded_store),
            }
        )
        assert variants["warm-replay"].result.total_cases > 0

    @pytest.mark.parametrize("suite_name,host,translate", WORKLOADS)
    def test_single_file_edit_matches_full_re_execution(self, suite_name, host, translate, tmp_path):
        base = build_suite(suite_name, file_count=4, records_per_file=20, seed=23, store=None)
        donor = build_suite(suite_name, file_count=4, records_per_file=20, seed=24, store=None)
        # "edit" file 2: same path, different content (a donor file from
        # another seed), exactly what a hand-edited scenario file looks like
        edited = TestSuite(name=base.name, files=[*base.files[:2], donor.files[2], *base.files[3:]])
        assert edited.files[2].path == base.files[2].path

        store = ArtifactStore(root=tmp_path / "store", fingerprint="diff-fp")
        run_transplant(base, host, translate_dialect=translate, store=store)  # seed per-file artifacts
        store.stats.reset()

        results = assert_equivalent(
            {
                "storeless-serial": lambda: run_transplant(edited, host, translate_dialect=translate, store=None),
                "storeless-workers-4": lambda: on_pool(
                    4, run_transplant, edited, host, translate_dialect=translate, store=None
                ),
                "incremental-rebuild": lambda: run_transplant(edited, host, translate_dialect=translate, store=store),
            }
        )
        # the incremental rebuild must have loaded the three untouched files
        # and executed exactly the edited one
        lookups = store.stats.by_namespace["file-results"]
        assert lookups == {"hits": 3, "misses": 1}
        assert results["incremental-rebuild"].result.total_cases > 0


class TestAnalysisVariants:
    """Incremental analysis == the direct whole-suite scanners, byte for byte.

    The analysis counterpart of :class:`TestCampaignVariants`: every analysis
    answer (Table 2 census, Figure 2 distribution, both Table 3 variants,
    Figure 3 predicates/joins, Figure 1 sizes, Table 8 coverage) assembled
    from ``file-analysis`` partials must be byte-identical — canonical
    serialization — to the direct scan, cold store, warm store, storeless,
    and at workers 1 and 4.
    """

    @pytest.mark.parametrize("suite_name", ("slt", "postgres"))
    def test_assembled_matches_direct_across_stores_and_workers(self, suite_name, tmp_path):
        suite = build_suite(suite_name, file_count=4, records_per_file=20, seed=23, store=None)
        store = ArtifactStore(root=tmp_path / "store", fingerprint="diff-fp")

        def report(worker_pool=None, store=store):
            return SuiteAnalyzer(store=store, worker_pool=worker_pool).full_report(suite)

        assert_equivalent(
            {
                "direct-scan": lambda: direct_report(suite),
                "storeless-serial": lambda: report(store=None),
                "storeless-workers-4": lambda: on_pool(4, report, store=None),
                "assembled-cold": report,
                "assembled-warm": report,
                "assembled-warm-workers-4": lambda: on_pool(4, report),
            }
        )
        # the cold pass wrote one partial per (file, pass); both warm replays
        # then served every lookup from the store
        lookups = store.stats.by_namespace["file-analysis"]
        passes = len(ANALYSIS_PASSES)
        assert lookups == {"hits": 2 * 4 * passes, "misses": 4 * passes}

    @pytest.mark.parametrize("suite_name", ("slt", "postgres"))
    def test_single_file_edit_reanalyzes_exactly_one_file(self, suite_name, tmp_path):
        base = build_suite(suite_name, file_count=4, records_per_file=20, seed=23, store=None)
        donor = build_suite(suite_name, file_count=4, records_per_file=20, seed=24, store=None)
        edited = TestSuite(name=base.name, files=[*base.files[:2], donor.files[2], *base.files[3:]])
        assert edited.files[2].path == base.files[2].path

        store = ArtifactStore(root=tmp_path / "store", fingerprint="diff-fp")
        SuiteAnalyzer(store=store).full_report(base)  # seed per-file partials
        store.stats.reset()

        assert_equivalent(
            {
                "storeless-direct": lambda: direct_report(edited),
                "assembled-rebuild": lambda: SuiteAnalyzer(store=store).full_report(edited),
            }
        )
        # every pass loaded the three untouched files and re-scanned the edited one
        passes = len(ANALYSIS_PASSES)
        lookups = store.stats.by_namespace["file-analysis"]
        assert lookups == {"hits": 3 * passes, "misses": 1 * passes}


def whole_suite_table8(suites: dict[str, TestSuite]) -> ExperimentResult:
    """Table 8 built from whole-suite measurements: one :func:`measure_coverage`
    per (engine, suite), unioned per engine with :func:`combine_reports`.

    The reference the store-backed experiment is pinned against; it renders
    the table itself so that the experiment's assembly is checked end to end.
    """
    from repro.core.report import format_percentage, format_table
    from repro.corpus.profiles import TABLE8_COVERAGE
    from repro.dialects import ALL_DIALECTS
    from repro.experiments.table8 import EXPERIMENT_ID, TITLE

    original_suite = {"sqlite": "slt", "duckdb": "duckdb", "postgres": "postgres"}

    def measure(engine, suite_name):
        return coverage.measure_coverage(engine, [test_file.statements() for test_file in suites[suite_name].files])

    rows, data = [], {}
    for engine, own in original_suite.items():
        original = measure(engine, own)
        foreign = [measure(engine, other) for other in original_suite.values() if other != own]
        union = coverage.combine_reports(engine, [original, *foreign])
        paper = TABLE8_COVERAGE[engine]
        measured = {
            "original": (original.line_coverage, original.branch_coverage),
            "squality": (union.line_coverage, union.branch_coverage),
        }
        cells = zip((*paper["original"], *paper["squality"]), (*measured["original"], *measured["squality"]))
        rows.append(
            [ALL_DIALECTS[engine].display_name]
            + [f"{format_percentage(quoted, 1)} / {format_percentage(ours, 1)}" for quoted, ours in cells]
        )
        data[engine] = {"paper": paper, "measured": measured}
    text = format_table(
        ["Engine", "Original line (paper/measured)", "Original branch", "SQuaLity line", "SQuaLity branch"],
        rows,
        title=TITLE,
    )
    note = (
        "\nThe preserved relationships: SQuaLity's union always covers at least as much as the\n"
        "original suite, with the largest gain for SQLite (whose own SLT exercises only the\n"
        "standard-compliant core) and small gains for DuckDB and PostgreSQL."
    )
    return ExperimentResult(experiment_id=EXPERIMENT_ID, title=TITLE, text=text + note, data=data)


class TestTable8Variants:
    """Table 8 from per-file ``coverage`` partials == whole-suite measurement.

    The experiment assembles each suite's coverage through the context's
    :class:`SuiteAnalyzer`; its text and data must be byte-identical to
    :func:`whole_suite_table8` storeless, on a cold store, on a warm store
    (which executes no coverage statement at all) and with the misses fanned
    over a two-worker process pool.
    """

    SCALE, SEED = 0.06, 7

    def _table8(self, **kwargs):
        kwargs.setdefault("use_store", False)

        def run():
            with ExperimentContext(scale=self.SCALE, seed=self.SEED, **kwargs) as context:
                return run_experiment("table8", context)

        return run

    @pytest.fixture
    def measured(self, monkeypatch):
        """Engines handed to ``measure_coverage`` (by the parent process), in call order."""
        calls = []
        measure = coverage.measure_coverage

        def counting(dialect, statement_lists):
            calls.append(dialect)
            return measure(dialect, statement_lists)

        monkeypatch.setattr(coverage, "measure_coverage", counting)
        return calls

    def test_table8_matches_whole_suite_reference(self, tmp_path, measured):
        with ExperimentContext(scale=self.SCALE, seed=self.SEED, use_store=False) as context:
            suites = context.suites
        file_count = sum(len(suite.files) for suite in suites.values())
        store_dir = str(tmp_path / "store")
        calls = {}

        def counted(label, variant):
            def run():
                measured.clear()
                result = variant()
                calls[label] = len(measured)
                return result

            return run

        assert_equivalent(
            {
                "whole-suite-reference": lambda: whole_suite_table8(suites),
                "storeless": counted("storeless", self._table8()),
                "store-cold": counted("store-cold", self._table8(use_store=True, store_dir=store_dir)),
                "store-warm": counted("store-warm", self._table8(use_store=True, store_dir=store_dir)),
                "process-workers-2": self._table8(
                    use_store=True, store_dir=str(tmp_path / "sharded-store"), workers=2
                ),
            }
        )
        engines = len(coverage.COVERAGE_DIALECTS)
        # one fresh-session measurement per (file, engine) when nothing is
        # stored; a warm store serves every partial and measures nothing
        assert calls == {"storeless": engines * file_count, "store-cold": engines * file_count, "store-warm": 0}

    def test_single_file_edit_measures_one_file_per_suite(self, tmp_path, measured, monkeypatch):
        store_dir = str(tmp_path / "store")
        self._table8(use_store=True, store_dir=store_dir)()  # seed one partial per (file, pass)
        with ExperimentContext(scale=self.SCALE, seed=self.SEED + 1, use_store=False) as other:
            donors = other.suites

        with ExperimentContext(scale=self.SCALE, seed=self.SEED, store_dir=store_dir) as context:
            # "edit" file 1 of every suite: same path, another seed's content
            for name, base in list(context.suites.items()):
                edited = [base.files[0], donors[name].files[1], *base.files[2:]]
                context.suites[name] = TestSuite(name=name, files=edited)
            lookups = {}
            partials = context.analysis.partials

            def counting_partials(suite, pass_id):
                before = dict(context.store.stats.by_namespace.get("file-analysis", {"hits": 0, "misses": 0}))
                found = partials(suite, pass_id)
                after = context.store.stats.by_namespace["file-analysis"]
                lookups[suite.name] = {outcome: after[outcome] - before[outcome] for outcome in ("hits", "misses")}
                return found

            monkeypatch.setattr(context.analysis, "partials", counting_partials)
            reference = whole_suite_table8(context.suites)
            measured.clear()
            assert_equivalent(
                {"whole-suite-reference": reference, "edited-warm": lambda: run_experiment("table8", context)}
            )
            # the coverage pass loaded every untouched file and measured only
            # the edited one of each suite, on every engine
            expected = {name: {"hits": len(suite.files) - 1, "misses": 1} for name, suite in context.suites.items()}
            assert lookups == expected
            assert len(measured) == len(coverage.COVERAGE_DIALECTS) * len(context.suites)


class TestStreamingCampaignParity:
    """One streaming pass == the serial batch, byte for byte.

    The streaming engine's core guarantee: because experiments accumulate
    cells and compute everything in ``finalize``, a pass that runs on a
    sharded context (workers 4), runs with the memo caches off, or replays
    from a warm store must produce results byte-identical to the serial
    storeless batch — only the *yield order* differs from the batch's
    registry order, so variants are compared in registry order.
    """

    def _ordered(self, results):
        from repro.experiments.registry import available_experiments

        order = {experiment_id: index for index, experiment_id in enumerate(available_experiments())}
        return sorted(results, key=lambda result: order[result.experiment_id])

    def test_stream_matches_batch_across_widths_workers_and_stores(self, tmp_path):
        from repro.experiments import ExperimentContext, stream_experiments
        from repro.experiments.stream import run_batch
        from repro.perf import cache as perf_cache

        scale, seed = 0.06, 7

        def context(**kwargs):
            kwargs.setdefault("use_store", False)
            return ExperimentContext(scale=scale, seed=seed, **kwargs)

        def batch(**kwargs):
            return lambda: run_batch(None, context(**kwargs))

        def stream(**kwargs):
            return lambda: self._ordered(stream_experiments(None, context(**kwargs)))

        def cacheless_stream():
            # caching off disables the translated-donor aliasing: the pass
            # executes those cells for real and must still match
            perf_cache.set_caching(False)
            try:
                return self._ordered(stream_experiments(None, context()))
            finally:
                perf_cache.set_caching(True)

        store_dir = str(tmp_path / "store")
        results = assert_equivalent(
            {
                "batch-serial-storeless": batch(),
                "stream-serial-storeless": stream(),
                "stream-workers-4": stream(workers=4),
                "cacheless-stream-serial": cacheless_stream,
                "batch-store-cold": batch(use_store=True, store_dir=store_dir),
                "stream-store-warm": stream(use_store=True, store_dir=store_dir),
            }
        )
        assert len(results["batch-serial-storeless"]) == 14

    def test_selected_subset_stream_matches_batch(self):
        from repro.experiments import ExperimentContext, stream_experiments
        from repro.experiments.stream import run_batch

        selected = ["figure4", "table6", "bugs"]

        def context():
            return ExperimentContext(scale=0.06, seed=7, use_store=False)

        results = assert_equivalent(
            {
                "batch": lambda: run_batch(selected, context()),
                "stream": lambda: self._ordered(stream_experiments(selected, context())),
            }
        )
        assert [result.experiment_id for result in results["batch"]] == selected

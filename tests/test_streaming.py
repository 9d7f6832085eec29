"""The declarative experiment registry and the single-pass streaming engine."""

from __future__ import annotations

import pytest

from repro.errors import ReproError, UnknownExperimentError
from repro.experiments import (
    CellKey,
    Experiment,
    ExperimentContext,
    ExperimentNeeds,
    ExperimentResult,
    donor_cells,
    experiment_entries,
    matrix_cells,
    register_experiment,
    stream_experiments,
)
from repro.experiments import stream as stream_module
from repro.experiments.base import get_experiment_entry, unregister_experiment
from repro.experiments.registry import EXPERIMENTS, run_all, run_experiment

CANONICAL_IDS = [
    "table1", "figure1", "table2", "figure2", "table3", "figure3", "table4",
    "table5", "figure4", "table6", "table7", "table8", "bugs", "ablations",
]


def _tiny_context(**kwargs):
    kwargs.setdefault("use_store", False)
    return ExperimentContext(scale=0.05, seed=11, **kwargs)


class TestCellDeclarations:
    def test_cell_key_identity_and_donor_flag(self):
        assert CellKey("slt", "sqlite").is_donor_run
        assert not CellKey("slt", "mysql").is_donor_run
        assert CellKey("slt", "mysql") == CellKey("slt", "mysql")
        assert CellKey("slt", "mysql") != CellKey("slt", "mysql", translate=True)

    def test_donor_cells_diagonal(self):
        assert donor_cells("slt", "duckdb") == (CellKey("slt", "sqlite"), CellKey("duckdb", "duckdb"))

    def test_matrix_cells_campaign_order_and_donor_exclusion(self):
        cells = matrix_cells(("slt",), ("sqlite", "mysql"))
        assert cells == (CellKey("slt", "sqlite"), CellKey("slt", "mysql"))
        off_diagonal = matrix_cells(("slt",), ("sqlite", "mysql"), include_donor=False)
        assert off_diagonal == (CellKey("slt", "mysql"),)


class TestExperimentRegistry:
    def test_canonical_entries_and_declared_needs(self):
        entries = experiment_entries()
        assert [entry.id for entry in entries][: len(CANONICAL_IDS)] == CANONICAL_IDS
        by_id = {entry.id: entry for entry in entries}
        # cell-consuming drivers declare their matrix needs up front
        assert CellKey("slt", "sqlite") in by_id["table4"].needs.cells
        assert len(by_id["figure4"].needs.cells) == 12
        # analysis drivers declare corpora only
        assert by_id["table1"].needs.cells == ()
        assert "mysql" in by_id["table1"].needs.suites

    def test_experiments_compat_mapping(self):
        assert list(EXPERIMENTS)[: len(CANONICAL_IDS)] == CANONICAL_IDS
        title, runner = EXPERIMENTS["figure3"]
        assert "Figure 3" in title
        assert callable(runner)

    def test_unknown_id_raises_with_suggestion(self):
        with pytest.raises(UnknownExperimentError, match="did you mean 'table4'"):
            get_experiment_entry("tabel4")
        # compat: the error is both a ReproError and a KeyError
        with pytest.raises(KeyError):
            get_experiment_entry("nope")
        with pytest.raises(ReproError):
            run_experiment("nope")

    def test_duplicate_registration_rejected_unless_replaced(self):
        @register_experiment("tmp-dup", "tmp")
        def _run(context):
            return ExperimentResult(experiment_id="tmp-dup", title="tmp", text="a")

        try:
            with pytest.raises(ValueError, match="already registered"):
                register_experiment("tmp-dup", "tmp")(_run)
            register_experiment("tmp-dup", "tmp2", replace=True)(_run)
            assert get_experiment_entry("tmp-dup").title == "tmp2"
        finally:
            unregister_experiment("tmp-dup")
        with pytest.raises(UnknownExperimentError):
            get_experiment_entry("tmp-dup")

    def test_function_registration_streams_like_a_class(self):
        @register_experiment("tmp-fn", "function-based", description="compat wrapper")
        def _run(context):
            return ExperimentResult(experiment_id="tmp-fn", title="function-based", text="hello")

        try:
            results = list(stream_experiments(["tmp-fn"], _tiny_context()))
            assert [result.text for result in results] == ["hello"]
        finally:
            unregister_experiment("tmp-fn")

    def test_non_callable_registration_rejected(self):
        with pytest.raises(TypeError, match="Experiment subclass"):
            register_experiment("tmp-bad", "bad")(object())


class _FakeCellExperiment(Experiment):
    """Test double: collects its declared cells and reports their payloads."""

    def finalize(self) -> ExperimentResult:
        payload = ",".join(str(result) for _key, result in self.iter_cells())
        return ExperimentResult(experiment_id=self.id, title=self.title, text=payload)


def _register_fake(experiment_id, cells):
    cls = type(f"_Fake_{experiment_id}", (_FakeCellExperiment,), {})
    register_experiment(experiment_id, experiment_id, needs=ExperimentNeeds(cells=cells))(cls)
    return experiment_id


class TestStreamEngine:
    """Planner dedup, execute-once, and ordering (fake cells)."""

    @pytest.fixture
    def fake_executor(self, monkeypatch):
        calls = []

        def _fake_execute(context, key, journal):
            calls.append(key)
            return f"cell({key.suite}->{key.host})"

        monkeypatch.setattr(stream_module, "_execute_transplant", _fake_execute)
        return calls

    def test_shared_cells_execute_exactly_once(self, fake_executor):
        calls = fake_executor
        shared = (CellKey("s1", "h1"), CellKey("s1", "h2"))
        ids = [
            _register_fake("tmp-a", shared),
            _register_fake("tmp-b", shared + (CellKey("s1", "h3"),)),
        ]
        try:
            results = {r.experiment_id: r for r in stream_experiments(ids, _tiny_context())}
        finally:
            for experiment_id in ids:
                unregister_experiment(experiment_id)
        # the union has three unique cells; the overlap ran once, not twice
        assert sorted(calls) == [CellKey("s1", "h1"), CellKey("s1", "h2"), CellKey("s1", "h3")]
        assert results["tmp-a"].text == "cell(s1->h1),cell(s1->h2)"
        assert results["tmp-b"].text.endswith("cell(s1->h3)")

    def test_warm_context_executes_nothing_new(self, fake_executor):
        calls = fake_executor
        cells = (CellKey("s1", "h1"), CellKey("s1", "h2"))
        ids = [_register_fake("tmp-warm", cells)]
        try:
            context = _tiny_context()
            first = list(stream_experiments(ids, context))
            assert len(calls) == 2
            second = list(stream_experiments(ids, context))
            # every cell was served from the context's stream cache
            assert len(calls) == 2
            assert [r.text for r in first] == [r.text for r in second]
        finally:
            unregister_experiment(ids[0])

    def test_serial_yield_order_analysis_first_then_completion(self, fake_executor):
        @register_experiment("tmp-pure", "pure analysis")
        def _pure(context):
            return ExperimentResult(experiment_id="tmp-pure", title="pure", text="pure")

        ids = [
            _register_fake("tmp-late", (CellKey("s1", "h1"), CellKey("s1", "h2"))),
            _register_fake("tmp-early", (CellKey("s1", "h1"),)),
            "tmp-pure",
        ]
        try:
            yielded = [r.experiment_id for r in stream_experiments(ids, _tiny_context())]
        finally:
            for experiment_id in ids:
                unregister_experiment(experiment_id)
        # pure analysis yields before any cell executes; tmp-early completes on
        # the first cell of the campaign-ordered plan, tmp-late on the second
        assert yielded == ["tmp-pure", "tmp-early", "tmp-late"]

    def test_translated_donor_cell_aliases_to_plain(self, fake_executor):
        calls = fake_executor
        cells = (CellKey("slt", "sqlite"), CellKey("slt", "sqlite", translate=True))
        ids = [_register_fake("tmp-alias", cells)]
        try:
            results = list(stream_experiments(ids, _tiny_context()))
        finally:
            unregister_experiment(ids[0])
        # translation is the identity donor-on-donor: one execution serves both
        # declared keys, and the experiment still sees both cells delivered
        assert calls == [CellKey("slt", "sqlite")]
        assert results[0].text == "cell(slt->sqlite),cell(slt->sqlite)"

    def test_duplicate_selection_collapses(self, fake_executor):
        calls = fake_executor
        ids = [_register_fake("tmp-dupsel", (CellKey("s1", "h1"),))]
        try:
            results = list(stream_experiments(["tmp-dupsel", "tmp-dupsel"], _tiny_context()))
        finally:
            unregister_experiment(ids[0])
        assert len(results) == 1
        assert len(calls) == 1


class TestRealCampaignDedup:
    """On real experiments the planner's dedup is visible in executed cells."""

    def test_run_all_executes_each_unique_cell_once(self, monkeypatch):
        executed = []
        real_execute = stream_module._execute_transplant

        def spy(context, key, journal):
            executed.append(key)
            return real_execute(context, key, journal)

        monkeypatch.setattr(stream_module, "_execute_transplant", spy)
        run_all(_tiny_context())
        assert len(executed) == len(set(executed)), "a matrix cell executed twice in one pass"
        # the union: 12 plain grid cells + 9 translated off-diagonal cells
        # (translated donors alias to plain; table6/7 subsets overlap the grid)
        assert len(executed) == 21

    def test_adopted_matrices_serve_late_matrix_reads(self):
        context = _tiny_context()
        run_all(context)
        # the pass covered the full grid, so matrix reads resolve without a
        # second campaign — and donor_result comes from the adopted matrix
        assert context._matrix is not None
        assert context._translated_matrix is not None
        assert context.donor_result("slt").suite == "slt"


class TestStreamCli:
    def test_list_experiments_shows_needs(self, capsys):
        from repro.experiments.__main__ import main

        assert main(["--list-experiments"]) == 0
        output = capsys.readouterr().out
        assert "figure4" in output and "needs:" in output and "matrix cell(s)" in output

    def test_unknown_experiment_exits_one_with_suggestion(self, capsys):
        from repro.experiments.__main__ import main

        assert main(["tabel4"]) == 1
        stderr = capsys.readouterr().err
        assert "unknown experiment" in stderr and "table4" in stderr

    def test_stream_flag_prints_results_incrementally(self, capsys):
        from repro.experiments.__main__ import main

        assert main(["figure2", "table8", "--stream", "--scale", "0.05", "--seed", "11", "--no-store"]) == 0
        output = capsys.readouterr().out
        assert "Figure 2" in output and "Table 8" in output


class TestStreamJournaling:
    """A journaled streaming pass records its cells like run_matrix does."""

    def test_pass_journals_cells_and_replay_shows_complete(self, tmp_path):
        from repro.core.journal import replay_journal

        context = _tiny_context(use_store=True, store_dir=tmp_path / "store", journal=True)
        with context:
            results = list(stream_experiments(["table4"], context))
        assert results
        journals = sorted((tmp_path / "store" / "journals").glob("*.jsonl"))
        assert journals, "journaled pass wrote no journal"
        completed = set()
        for journal in journals:
            replay = replay_journal(journal)
            assert replay.incomplete_cells() == []
            completed |= replay.completed
        # every executed cell of the pass finished and was journaled complete
        assert completed
        assert all(suite and host for suite, host in completed)

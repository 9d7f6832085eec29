"""The traced campaign benchmark's bindings into the package.

``campaign_bench/tracer.py`` wraps layer functions by *name*: ``SPAN_TARGETS``
lists ``(module, attribute, span)`` triples and ``SPAN_HOOKS`` reads
positional call arguments (the cell's suite and host, the stream cell's
result).  A rename or a changed call shape would only surface when the traced
benchmark runs; these tests surface it in ``pytest`` instead.  The tracer
imports only the standard library, so it is loaded straight from its file,
and ``install()`` is never called: nothing gets wrapped here.
"""

from __future__ import annotations

import ast
import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

import pytest

from repro.core.records import TestSuite
from repro.core.runner import FileResult, SuiteResult
from repro.core.transplant import TransplantResult

ROOT = Path(__file__).resolve().parents[1]
TRACER_PATH = ROOT / "campaign_bench" / "tracer.py"
SOURCE_ROOT = ROOT / "src" / "repro"


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("campaign_bench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _resolve(module_name: str, attribute: str):
    target = importlib.import_module(module_name)
    for part in attribute.split("."):
        target = getattr(target, part)
    return target


def _parameters(function) -> list[str]:
    return list(inspect.signature(function).parameters)


def _calls_to(name: str) -> list[tuple[Path, ast.Call]]:
    """Every call of a function or method called ``name`` under ``src/repro``."""
    found = []
    for path in sorted(SOURCE_ROOT.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.Call):
                continue
            callee = node.func
            called = callee.id if isinstance(callee, ast.Name) else getattr(callee, "attr", None)
            if called == name:
                found.append((path, node))
    return found


class TestTracerModule:
    def test_tracer_imports_only_the_standard_library(self):
        tree = ast.parse(TRACER_PATH.read_text(encoding="utf-8"))
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module != "__future__":
                imported.add(node.module.split(".")[0])
        # repro is imported lazily inside install(), never at module level
        assert imported - {"repro"} <= set(sys.stdlib_module_names), imported

    def test_every_span_target_resolves(self, tracer):
        for module_name, attribute, span in tracer.SPAN_TARGETS:
            assert callable(_resolve(module_name, attribute)), f"{span}: {module_name}.{attribute} is gone"

    def test_module_span_modules_expose_functions(self, tracer):
        for module_name, name_of in tracer.MODULE_SPANS:
            module = importlib.import_module(module_name)
            named = [
                attribute
                for attribute, value in vars(module).items()
                if inspect.isfunction(value) and value.__module__ == module_name and name_of(attribute)
            ]
            assert named, f"{module_name} has no function the tracer would time"

    def test_store_hooks_keep_their_shapes(self):
        from repro.store.artifacts import ArtifactStore

        # install() chains onto __init__ and reads path.stat() in _write
        assert callable(ArtifactStore.__init__)
        assert _parameters(ArtifactStore._write)[:3] == ["self", "path", "payload"]
        assert _parameters(ArtifactStore.load)[:3] == ["self", "namespace", "key"]
        assert _parameters(ArtifactStore.save)[:4] == ["self", "namespace", "key", "value"]


class TestSpanHooks:
    def test_transplant_hook_reads_suite_and_host_positionally(self, tracer):
        from repro.core.transplant import run_transplant

        assert _parameters(run_transplant)[:2] == ["suite", "host"]
        assert "translate_dialect" in _parameters(run_transplant)
        context_of, counter, count_of = tracer.SPAN_HOOKS["core.transplant"]
        suite = TestSuite(name="slt")
        assert context_of((suite, "duckdb"), {"translate_dialect": True}) == "slt->duckdb+translate"
        assert context_of((suite, "duckdb"), {}) == "slt->duckdb"
        result = TransplantResult(suite="slt", host="duckdb", donor="sqlite", result=SuiteResult("slt", "duckdb"))
        assert counter == "core.transplant.infra_failures"
        assert count_of((suite, "duckdb"), result) == 0

    def test_every_transplant_call_passes_suite_and_host_positionally(self):
        calls = _calls_to("run_transplant")
        assert calls, "no run_transplant call sites found"
        for path, call in calls:
            where = f"{path.relative_to(ROOT)}:{call.lineno}"
            assert len(call.args) >= 2 and not any(isinstance(arg, ast.Starred) for arg in call.args[:2]), where
            assert len(call.args) == 2, f"{where}: translate_dialect and the rest go by keyword"

    def test_run_file_hook_counts_records(self, tracer):
        from repro.core.runner import TestRunner

        assert _parameters(TestRunner.run_file) == ["self", "test_file"]
        _context_of, counter, count_of = tracer.SPAN_HOOKS["core.runner.run_file"]
        assert counter == "core.runner.records"
        assert count_of((), FileResult(path="a.test", suite="slt", host="duckdb")) == 0

    def test_stream_cell_hook_reads_the_result_argument(self, tracer):
        from repro.experiments.context import ExperimentContext

        assert _parameters(ExperimentContext.note_stream_cell) == ["self", "key", "result"]
        for path, call in _calls_to("note_stream_cell"):
            assert len(call.args) == 2 and not call.keywords, f"{path.relative_to(ROOT)}:{call.lineno}"
        _context_of, counter, count_of = tracer.SPAN_HOOKS["experiments.cells"]
        suite_result = SuiteResult("slt", "duckdb")
        suite_result.files.append(FileResult(path="a.test", suite="slt", host="duckdb"))
        result = TransplantResult(suite="slt", host="duckdb", donor="sqlite", result=suite_result)
        assert counter == "experiments.records"
        assert count_of((None, "key", result), None) == 0

    def test_coverage_pass_measures_through_the_traced_binding(self, tracer, monkeypatch):
        """The ``coverage`` analysis pass must call ``measure_coverage`` through
        the module global the tracer wraps, or the ``core.coverage.measure``
        layer would silently read 0."""
        from repro.analysis.incremental import ANALYSIS_PASSES
        from repro.core.coverage import COVERAGE_DIALECTS
        from repro.corpus import build_suite

        (module_name, attribute), = [
            (module_name, attribute)
            for module_name, attribute, span in tracer.SPAN_TARGETS
            if span == "core.coverage.measure"
        ]
        module = importlib.import_module(module_name)
        measure = getattr(module, attribute)
        measured = []

        def counting(dialect, statement_lists):
            measured.append(dialect)
            return measure(dialect, statement_lists)

        monkeypatch.setattr(module, attribute, counting)
        test_file = build_suite("slt", file_count=1, records_per_file=10, seed=5, store=None).files[0]
        partial = ANALYSIS_PASSES["coverage"](test_file)
        assert measured == list(COVERAGE_DIALECTS)
        assert list(partial) == list(COVERAGE_DIALECTS)

    def test_finalize_hook_reads_the_experiment_id(self, tracer):
        from repro.experiments.base import Experiment

        assert "id" in vars(Experiment)
        context_of, _counter, _count_of = tracer.SPAN_HOOKS["experiments.finalize"]

        class _Probe:
            id = "table4"

        assert context_of((_Probe(),), {}) == "table4"

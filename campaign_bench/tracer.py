"""In-memory span recorder and the layer wrappers of the traced benchmark run.

The traced run calls the experiments CLI's ``main(argv)`` in-process after
:func:`install` has replaced each layer's public functions with timing
wrappers.  Nothing under ``src/`` changes: a wrapper is bound wherever the
original was visible when the run started — the defining module, every
``from X import f`` binding in another ``repro`` module, module-level dispatch
tables, and each subclass override (adapter ``reset``, experiment
``finalize``).

A span records its name, start, end, parent span and the context it ran
under: the matrix cell (``suite->host``, ``+translate`` when translated) or
the experiment id.  Spans stay in memory; :meth:`Recorder.report` turns them
into per-name counts, inclusive time and self time (a span's time minus its
child spans), and :meth:`Recorder.dump` writes them when the run ends.
Process-pool workers fork with the wrappers installed, but their spans never
leave the worker: spans cover the parent process only.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import threading
import time
from collections import Counter

# (module, attribute path, span name): the layer boundaries the benchmark times
SPAN_TARGETS = (
    ("repro.corpus.generate", "generate_corpus", "corpus.generate"),
    ("repro.formats", "parse_test_text", "formats.parse"),
    ("repro.sqlparser.tokenizer", "tokenize", "sqlparser.tokenize"),
    ("repro.dialects.translator", "translate", "dialects.translate"),
    ("repro.engine.parser", "parse_sql", "engine.parse"),
    ("repro.engine.session", "Session.execute", "engine.execute"),
    ("repro.adapters.sqlite_adapter", "SQLite3Adapter.execute", "adapters.sqlite.execute"),
    ("repro.core.runner", "TestRunner.run_file", "core.runner.run_file"),
    ("repro.core.comparison", "compare_query_result", "core.comparison.compare"),
    ("repro.core.transplant", "run_transplant", "core.transplant"),
    ("repro.core.parallel", "assemble_suite_result", "core.parallel.assemble"),
    ("repro.core.parallel", "WorkerPool.map_tasks", "core.parallel.shard"),
    ("repro.core.coverage", "measure_coverage", "core.coverage.measure"),
    ("repro.store.artifacts", "ArtifactStore.load", "store.load"),
    ("repro.store.artifacts", "ArtifactStore.save", "store.save"),
    ("repro.analysis.features", "file_command_census", "analysis.scan"),
    ("repro.analysis.statements", "file_statement_profile", "analysis.scan"),
    ("repro.analysis.predicates", "file_predicate_profile", "analysis.scan"),
    ("repro.analysis.filesize", "file_size_profile", "analysis.scan"),
    ("repro.analysis.incremental", "suite_partials", "analysis.partials"),
    ("repro.experiments.context", "ExperimentContext.note_stream_cell", "experiments.cells"),
)

# every public function of these modules is one span name
MODULE_SPANS = (
    ("repro.store.keys", lambda name: "store.keys"),
    ("repro.store.codec", lambda name: "codec.encode" if name.startswith("encode") else "codec.decode" if name.startswith("decode") else None),
)


def _records_of(suite_result) -> int:
    return sum(len(file_result.results) for file_result in suite_result.files)


def _cell_context(args, kwargs) -> str:
    suite, host = args[0], args[1]
    return f"{suite.name}->{host}" + ("+translate" if kwargs.get("translate_dialect") else "")


# span name -> (context of the call or None, counter name, count of the call)
SPAN_HOOKS = {
    "core.transplant": (_cell_context, "core.transplant.infra_failures", lambda args, result: len(result.infra_failures)),
    "core.runner.run_file": (None, "core.runner.records", lambda args, result: len(result.results)),
    "experiments.cells": (None, "experiments.records", lambda args, result: _records_of(args[2].result)),
    "experiments.finalize": (lambda args, kwargs: args[0].id, None, None),
}


class Recorder:
    """Spans of one process, kept in memory until :meth:`dump`."""

    def __init__(self) -> None:
        #: one ``[name, start_ns, end_ns, parent record or None, context]``
        #: list per span, appended at entry (list.append is atomic, so worker
        #: threads may record too)
        self.spans: list[list] = []
        self.counters: Counter = Counter()
        self.stores: list = []
        self._local = threading.local()
        self.origin_ns = time.perf_counter_ns()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn):
        context_of, counter, count_of = SPAN_HOOKS.get(name, (None, None, None))
        spans, clock, stack_of, counters = self.spans, time.perf_counter_ns, self._stack, self.counters

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = stack_of()
            parent = stack[-1] if stack else None
            context = parent[4] if parent is not None else ""
            if context_of is not None:
                context = context_of(args, kwargs)
            record = [name, clock(), 0, parent, context]
            spans.append(record)
            stack.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if counter is not None:
                counters[counter] += count_of(args, result)
            return result

        return traced

    def report(self) -> dict:
        """Per span name: calls, inclusive and self nanoseconds; plus root time."""
        child_ns: Counter = Counter()
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                child_ns[id(parent)] += end - start
        names: dict[str, dict[str, int]] = {}
        root_ns = 0
        for record in self.spans:
            name, start, end, parent, _ = record
            duration = end - start
            bucket = names.setdefault(name, {"calls": 0, "total_ns": 0, "self_ns": 0})
            bucket["calls"] += 1
            bucket["total_ns"] += duration
            bucket["self_ns"] += duration - child_ns[id(record)]
            if parent is None:
                root_ns += duration
        return {"layers": names, "root_ns": root_ns, "counters": dict(self.counters)}

    def dump(self, path: str, extra: dict) -> None:
        """Write every span (columnar, times relative to recorder start) and ``extra``."""
        index = {id(record): position for position, record in enumerate(self.spans)}
        names: dict[str, int] = {}
        contexts: dict[str, int] = {}
        rows = []
        for name, start, end, parent, context in self.spans:
            rows.append(
                (
                    names.setdefault(name, len(names)),
                    start - self.origin_ns,
                    end - self.origin_ns,
                    index[id(parent)] if parent is not None else -1,
                    contexts.setdefault(context, len(contexts)),
                )
            )
        document = dict(extra)
        document["span_columns"] = ["name", "start_ns", "end_ns", "parent", "context"]
        document["span_names"] = list(names)
        document["span_contexts"] = list(contexts)
        document["spans"] = rows
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(document, handle, separators=(",", ":"))


def _rebind(original, replacement) -> None:
    """Point every ``repro`` binding of ``original`` at ``replacement``."""
    for module_name, module in list(sys.modules.items()):
        if module is None or not module_name.startswith("repro"):
            continue
        for attribute, value in list(vars(module).items()):
            if value is original:
                setattr(module, attribute, replacement)
            elif type(value) is dict:
                for key, entry in list(value.items()):
                    if entry is original:
                        value[key] = replacement


def _subclasses(cls) -> list[type]:
    """``cls`` and every class below it, each once."""
    found, pending = [], [cls]
    while pending:
        current = pending.pop()
        if current not in found:
            found.append(current)
            pending.extend(current.__subclasses__())
    return found


def _wrap_method(recorder: Recorder, cls: type, attribute: str, name: str) -> None:
    original = cls.__dict__[attribute]
    setattr(cls, attribute, recorder.wrap(name, original))


def install(recorder: Recorder) -> None:
    """Import the layers and bind a timing wrapper at every import site."""
    importlib.import_module("repro.experiments.__main__")  # registers every experiment
    for module_name, _, _ in SPAN_TARGETS:
        importlib.import_module(module_name)
    for module_name, attribute, name in SPAN_TARGETS:
        owner = sys.modules[module_name]
        if "." in attribute:
            class_name, method = attribute.split(".")
            _wrap_method(recorder, getattr(owner, class_name), method, name)
        else:
            original = getattr(owner, attribute)
            _rebind(original, recorder.wrap(name, original))
    for module_name, name_of in MODULE_SPANS:
        module = importlib.import_module(module_name)
        for attribute, value in list(vars(module).items()):
            name = name_of(attribute)
            if name and not attribute.startswith("_") and inspect.isfunction(value) and value.__module__ == module_name:
                _rebind(value, recorder.wrap(name, value))

    from repro.adapters.base import DBMSAdapter
    from repro.experiments.base import Experiment
    from repro.store.artifacts import ArtifactStore

    for cls in _subclasses(DBMSAdapter):
        if "reset" in cls.__dict__:
            _wrap_method(recorder, cls, "reset", "adapters.reset")
    for cls in _subclasses(Experiment):
        if "finalize" in cls.__dict__:
            _wrap_method(recorder, cls, "finalize", "experiments.finalize")

    # not spans: instance registry for the store counters, and bytes written
    original_init = ArtifactStore.__init__
    original_write = ArtifactStore._write

    @functools.wraps(original_init)
    def registering_init(store, *args, **kwargs):
        original_init(store, *args, **kwargs)
        recorder.stores.append(store)

    @functools.wraps(original_write)
    def counting_write(store, path, payload):
        original_write(store, path, payload)
        recorder.counters["store.write_bytes"] += path.stat().st_size

    ArtifactStore.__init__ = registering_init
    ArtifactStore._write = counting_write

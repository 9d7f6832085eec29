"""A warm replay computes and imports only what it prints.

Pinned invariants:

* **No engine, no pool** — a second CLI run against one store imports no
  MiniDB engine module and none of the process-pool machinery
  (``concurrent.futures.process``, ``multiprocessing``), and prints exactly
  what a storeless run prints.
* **Persisted probes** — the ``bugs`` experiment's two engine probes (the
  Listing 16 hang and the ddmin reduction) load from the ``bug-probes``
  namespace: a warm context never connects a MiniDB adapter, a corrupt or
  foreign probe artifact is a miss that recomputes the same output, and
  other probe inputs key another artifact.
"""

from __future__ import annotations

import os
import subprocess
import sys

import pytest

from repro.adapters.minidb_adapter import MiniDBAdapter
from repro.experiments import ExperimentContext, run_experiment
from repro.experiments import bugs as bugs_module
from repro.store import ArtifactStore, encode_document

_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


#: ``python -m repro.experiments`` with the command line it is given, then
#: the name of every module the run loaded, one per line on stderr
_RUN_CLI_AND_LIST_MODULES = (
    "import runpy, sys\n"
    "try:\n"
    "    runpy.run_module('repro.experiments', run_name='__main__', alter_sys=True)\n"
    "finally:\n"
    "    print('\\n'.join(sorted(sys.modules)), file=sys.stderr)\n"
)


def _cli(store_dir: str, *args: str) -> subprocess.CompletedProcess:
    """One ``--scale 0.05`` CLI run in a fresh interpreter, its modules on stderr."""
    environment = dict(os.environ, PYTHONPATH=_SRC, REPRO_STORE_DIR=store_dir)
    return subprocess.run(
        [sys.executable, "-c", _RUN_CLI_AND_LIST_MODULES, "--scale", "0.05", *args],
        env=environment,
        capture_output=True,
        text=True,
        check=True,
    )


def _heavy_imports(run: subprocess.CompletedProcess) -> list[str]:
    """The engine and process-pool modules a run loaded."""
    loaded = set(run.stderr.splitlines())
    assert "repro.experiments.bugs" in loaded  # the listing covers the run
    return sorted(
        name
        for name in loaded
        if name.startswith(("repro.engine", "multiprocessing")) or name == "concurrent.futures.process"
    )


def test_second_cli_run_imports_no_engine_and_prints_the_storeless_output(tmp_path):
    store_dir = str(tmp_path / "store")
    cold = _cli(store_dir)
    warm = _cli(store_dir)
    storeless = _cli(str(tmp_path / "unused"), "--no-store")
    assert any(name.startswith("repro.engine") for name in _heavy_imports(cold))
    assert _heavy_imports(warm) == []
    assert warm.stdout == storeless.stdout == cold.stdout
    assert not (tmp_path / "unused").exists()


@pytest.fixture
def connects(monkeypatch) -> list[str]:
    """The dialect of every MiniDB adapter that connects, in order."""
    seen: list[str] = []
    connect = MiniDBAdapter.connect

    def counting(adapter: MiniDBAdapter) -> None:
        seen.append(adapter.name)
        connect(adapter)

    monkeypatch.setattr(MiniDBAdapter, "connect", counting)
    return seen


def _bugs(store_dir: str):
    with ExperimentContext(scale=0.05, seed=3, store_dir=store_dir) as context:
        return run_experiment("bugs", context), context.store


def _corrupt(blob: bytes, how: str) -> bytes:
    if how == "truncated":
        return blob[: len(blob) // 2]
    if how == "wrong-shape":
        return encode_document(bugs_module.PROBES_NAMESPACE, {"hang": 3, "reduction": []})
    return encode_document("file-analysis", {"hang": None, "reduction": []})  # another frame kind


class TestBugProbes:
    @pytest.mark.parametrize("how", ["truncated", "wrong-shape", "foreign-kind"])
    def test_warm_context_never_connects_and_a_corrupt_probe_recomputes(self, tmp_path, connects, how):
        store_dir = str(tmp_path / "store")
        cold, _ = _bugs(store_dir)
        assert connects  # the cold run probed (and ran its cells) on MiniDB
        connects.clear()
        warm, store = _bugs(store_dir)
        assert connects == []
        assert store.stats.by_namespace[bugs_module.PROBES_NAMESPACE] == {"hits": 1, "misses": 0}
        assert (warm.text, warm.data) == (cold.text, cold.data)

        [victim] = (tmp_path / "store" / bugs_module.PROBES_NAMESPACE).rglob("*.pkl")
        victim.write_bytes(_corrupt(victim.read_bytes(), how))
        recomputed, store = _bugs(store_dir)
        assert connects and set(connects) <= {"sqlite", "duckdb"}  # only the probes ran
        assert store.stats.by_namespace[bugs_module.PROBES_NAMESPACE] == {"hits": 0, "misses": 1}
        assert (recomputed.text, recomputed.data) == (cold.text, cold.data)

        connects.clear()
        again, _ = _bugs(store_dir)  # the recomputed probes were stored again
        assert connects == [] and again.text == cold.text

    def test_probes_are_keyed_by_their_inputs(self, tmp_path, connects):
        store = ArtifactStore(root=tmp_path / "store", fingerprint="probe-fp")
        hang_only = bugs_module._engine_probes(store, None)
        assert hang_only["reduction"] == [] and "Listing 16" in hang_only["hang"]
        assert connects == ["sqlite"]
        # another reduction input is another artifact: it probes again
        reduced = bugs_module._engine_probes(store, bugs_module._REDUCTION_INPUT)
        assert connects[1:2] == ["sqlite"] and set(connects[2:]) == {"duckdb"}
        assert reduced["hang"] == hang_only["hang"]
        assert 0 < len(reduced["reduction"]) < len(bugs_module._REDUCTION_INPUT)
        connects.clear()
        assert bugs_module._engine_probes(store, None) == hang_only
        assert bugs_module._engine_probes(store, bugs_module._REDUCTION_INPUT) == reduced
        assert connects == []

    def test_storeless_probes_run_every_time(self, connects):
        first = bugs_module._engine_probes(None, None)
        second = bugs_module._engine_probes(None, None)
        assert first == second and connects == ["sqlite", "sqlite"]

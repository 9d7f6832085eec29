"""Crash-safety: kill-point SIGKILLs, resume convergence, drain, containment.

Three layers of proof that a campaign survives violent death:

* **Kill-point chaos** — a real store-backed campaign runs in a subprocess
  that SIGKILLs *itself* at injected operation points (mid store write,
  between cells, after a finished file).  After every kill the store must
  audit clean, and re-running the same campaign must converge to a result
  byte-identical to a never-killed reference — with only the work that was
  genuinely in flight re-executed.
* **Graceful drain** — SIGTERM against a live campaign finishes in-flight
  files, flushes, exits with the degraded code 2 and prints the exact resume
  command; the resumed campaign is byte-identical to the reference.
* **Worker-crash containment** — SIGKILL of a process-pool *worker* costs
  exactly the tasks that never returned: the pool rebuilds once and
  re-dispatches only those; a pool that breaks again finishes in-process.
  A re-dispatched shard loads what its killed worker persisted and ships
  it home as frames, like the files it executes.

Every subprocess scenario shares one small campaign shape (suite/files/
records/seed below) so a single clean reference digest anchors all the
byte-identity assertions.
"""

from __future__ import annotations

import os
import signal

import pytest

from test_codec import assert_frames_over_suite

from repro.core import parallel
from repro.core.parallel import WorkerPool
from repro.core.transplant import run_transplant
from repro.corpus import build_suite
from repro.store import canonical_bytes
from repro.store.artifacts import ArtifactStore
from repro.testing import run_crash_campaign

#: the one campaign shape every subprocess scenario runs
CHILD_ARGS = ("--files", "3", "--records", "3", "--seed", "11")
FILES = 3


@pytest.fixture(scope="module")
def reference_digest(tmp_path_factory):
    """Digest of the campaign run cleanly, never signalled, in its own store."""
    store = tmp_path_factory.mktemp("reference-store")
    outcome = run_crash_campaign(store, child_args=CHILD_ARGS)
    assert outcome.returncode == 0, outcome.stderr
    assert outcome.summary is not None and outcome.summary["complete"]
    return outcome.summary["digest"]


class TestKillPointResume:
    #: operation points covering every durability seam: the store's tmp file,
    #: the store's publish rename, both cell edges and a finished file
    KILL_POINTS = [
        "store-tmp:1",
        "store-write:2",
        "cell-start:1",
        "cell-finish:1",
        "file-finish:2",
    ]

    @pytest.mark.parametrize("kill_point", KILL_POINTS)
    def test_sigkill_then_resume_is_byte_identical(self, tmp_path, kill_point, reference_digest):
        store_dir = tmp_path / "store"
        once_dir = tmp_path / "once"
        once_dir.mkdir()

        killed = run_crash_campaign(
            store_dir, child_args=CHILD_ARGS, kill_points=kill_point, kill_once_dir=once_dir
        )
        assert killed.killed, (
            f"kill point {kill_point} never fired (rc={killed.returncode}); "
            f"stderr: {killed.stderr[-500:]}"
        )

        # invariant 1: whatever instant the process died at, the store holds
        # only complete, digest-clean artifacts (plus sweepable tmp leftovers)
        audit = ArtifactStore(root=store_dir).audit()
        assert audit["corrupt"] == 0, audit

        # invariant 2: the resumed campaign converges to the reference result
        resumed = run_crash_campaign(store_dir, child_args=CHILD_ARGS)
        assert resumed.returncode == 0, resumed.stderr
        assert resumed.summary["complete"]
        assert resumed.summary["digest"] == reference_digest

    def test_kill_after_files_persisted_reexecutes_only_in_flight(self, tmp_path, reference_digest):
        """A kill after N files are persisted re-executes at most FILES - N."""
        store_dir = tmp_path / "store"
        once_dir = tmp_path / "once"
        once_dir.mkdir()
        persisted = 2
        killed = run_crash_campaign(
            store_dir,
            child_args=CHILD_ARGS,
            kill_points=f"file-finish:{persisted}",
            kill_once_dir=once_dir,
        )
        assert killed.killed

        resumed = run_crash_campaign(store_dir, child_args=CHILD_ARGS)
        assert resumed.returncode == 0, resumed.stderr
        assert resumed.summary["digest"] == reference_digest
        lookups = resumed.summary["store"]["namespace_lookups"].get("file-results", {})
        # the persisted files load; only the in-flight tail re-executes
        assert lookups.get("hits", 0) >= persisted
        assert lookups.get("misses", 0) <= FILES - persisted


class TestGracefulDrain:
    def test_sigterm_drains_exits_2_and_prints_resume_command(self, tmp_path, reference_digest):
        store_dir = tmp_path / "store"
        ready = tmp_path / "ready"
        drained = run_crash_campaign(
            store_dir,
            child_args=CHILD_ARGS + ("--slow", "0.05", "--ready-file", str(ready)),
            send_signal=signal.SIGTERM,
            ready_file=ready,
        )
        assert drained.returncode == 2, drained.stderr
        assert drained.summary is not None, drained.stdout
        assert drained.summary["drained"]
        assert drained.summary["failure_kinds"] == ["shutdown-drain"]
        assert "received SIGTERM: draining" in drained.stderr
        assert "resume with:" in drained.stderr

        resumed = run_crash_campaign(store_dir, child_args=CHILD_ARGS)
        assert resumed.returncode == 0, resumed.stderr
        assert resumed.summary["digest"] == reference_digest

    def test_sigint_drains_too(self, tmp_path):
        store_dir = tmp_path / "store"
        ready = tmp_path / "ready"
        drained = run_crash_campaign(
            store_dir,
            child_args=CHILD_ARGS + ("--slow", "0.05", "--ready-file", str(ready)),
            send_signal=signal.SIGINT,
            ready_file=ready,
        )
        assert drained.returncode == 2, drained.stderr
        assert drained.summary["drained"]


# -- worker-crash containment ----------------------------------------------------------


def _claim_marker(marker: str) -> bool:
    """Atomically claim a cross-process one-shot marker; True when won."""
    try:
        fd = os.open(marker, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:
        return False
    os.close(fd)
    return True


def _killable_task(value: int, markers: "tuple[str, ...]"):
    """Doubles ``value``; SIGKILLs its worker once per unclaimed marker."""
    for marker in markers:
        if _claim_marker(marker):
            os.kill(os.getpid(), signal.SIGKILL)
    return value * 2


class TestWorkerCrashContainment:
    def test_killed_worker_costs_only_unfinished_tasks(self, tmp_path):
        """SIGKILL of one worker: pool rebuilds, every task still completes."""
        marker = str(tmp_path / "kill-once")
        pool = WorkerPool(2)
        try:
            tasks = [(index, (marker,) if index == 2 else ()) for index in range(6)]
            results = pool.map_tasks(_killable_task, tasks)
            assert results == [index * 2 for index in range(6)]
            # containment rebuilt the process pool rather than moving the
            # whole campaign in-process
            assert not pool.in_process
        finally:
            pool.shutdown()

    def test_second_break_finishes_in_process(self, tmp_path):
        """A pool that keeps breaking moves in-process, sticky, instead of looping."""
        # two markers on one task: it kills the original pool, is re-dispatched
        # on the rebuilt pool and kills that too, so the pool must fall back —
        # and the in-process run finally completes it (markers exhausted)
        markers = (str(tmp_path / "kill-0"), str(tmp_path / "kill-1"))
        pool = WorkerPool(2)
        try:
            tasks = [(index, markers if index == 1 else ()) for index in range(4)]
            results = pool.map_tasks(_killable_task, tasks)
            assert results == [index * 2 for index in range(4)]
            assert pool.in_process
        finally:
            pool.shutdown()

    def test_killed_shard_reloads_what_it_persisted_as_frames(self, tmp_path, monkeypatch):
        """A shard re-run after its worker died loads the files the worker
        persisted instead of executing them again, and those files come home
        as frames too: held lazily, over the suite's own records."""
        suite = build_suite("slt", file_count=4, records_per_file=20, seed=7, store=None)
        reference = run_transplant(suite, "duckdb", store=None)
        marker = str(tmp_path / "kill-once")
        finished = tmp_path / "finished-files"
        parent = os.getpid()

        def kill_after_first_persisted_file(op: str) -> None:
            # runs in the workers (forked after the patch): one line per
            # executed and persisted file, and one worker dies after its first
            with open(finished, "a") as log:
                log.write(op + "\n")
            if os.getpid() != parent and _claim_marker(marker):
                os.kill(os.getpid(), signal.SIGKILL)

        monkeypatch.setattr(parallel, "kill_point", kill_after_first_persisted_file)
        store = ArtifactStore(root=tmp_path / "store", fingerprint="crash-fp")
        with WorkerPool(2) as pool:
            result = run_transplant(suite, "duckdb", store=store, worker_pool=pool)
            assert not pool.in_process
        assert os.path.exists(marker)
        # a file loaded on the re-run logs nothing: each file executed at most once
        assert 1 <= len(finished.read_text().splitlines()) <= len(suite.files)
        assert_frames_over_suite(result.result, suite)
        assert canonical_bytes(result) == canonical_bytes(reference)

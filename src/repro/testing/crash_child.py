"""Crash-harness child: one real store-backed campaign in a disposable process.

``python -m repro.testing.crash_child --store-dir DIR ...`` builds a small
corpus, runs a ``run_matrix`` campaign against a persistent store, and
prints a one-line JSON summary (prefixed ``CRASH-CHILD-SUMMARY``) with a
canonical-bytes digest of every cell's results plus the store's counters.

The point of being a *process* is being killable: the parent harness
(:func:`repro.testing.chaos.run_crash_campaign`) sets ``REPRO_KILL_POINTS``
so this process SIGKILLs itself inside a store write, at a cell boundary or
after a finished file — and then runs it again with the same arguments to
prove the campaign resumes from the store to a byte-identical result.  The
digest is deliberately computed from the canonical serialization
(:mod:`repro.store.keys`), the same identity notion the differential tests
use, so "byte-identical" means exactly what ``assert_equivalent`` would have
asserted in-process.

``--slow`` registers a delaying wrapper around each host adapter (every
statement sleeps), widening the window in which the parent can land a
SIGTERM mid-campaign for the graceful-drain scenario; ``--ready-file`` is
touched at the first slowed statement so the parent signals neither too
early (nothing in flight) nor too late (campaign finished).  Slow wrappers
are registered in this process after nothing has forked, so drain scenarios
run at ``--workers 1``, where every file executes in this process.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from contextlib import nullcontext
from pathlib import Path

#: stdout marker the parent harness greps for (other output may precede it)
SUMMARY_MARKER = "CRASH-CHILD-SUMMARY"


def _install_slow_adapters(hosts: tuple[str, ...], delay: float, ready_file: str | None) -> None:
    from repro.adapters.registry import get_adapter_entry, register_adapter

    for host in hosts:
        entry = get_adapter_entry(host)

        def _factory(_entry=entry, **kwargs):
            adapter = _entry.factory(**kwargs)
            inner_execute = adapter.execute

            def execute(sql):
                if ready_file:
                    Path(ready_file).touch()
                time.sleep(delay)
                return inner_execute(sql)

            adapter.execute = execute
            return adapter

        register_adapter(entry.name, _factory, aliases=entry.aliases, description=entry.description)


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m repro.testing.crash_child")
    parser.add_argument("--store-dir", required=True, help="artifact store root")
    parser.add_argument("--suite", default="slt")
    parser.add_argument("--files", type=int, default=3)
    parser.add_argument("--records", type=int, default=4)
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--hosts", default="sqlite", help="comma-separated host list")
    parser.add_argument("--workers", type=int, default=1)
    parser.add_argument("--slow", type=float, default=0.0, help="seconds each statement sleeps (widens signal windows)")
    parser.add_argument("--ready-file", default=None, help="touched at the first slowed statement")
    arguments = parser.parse_args(argv)

    from repro.core.parallel import WorkerPool
    from repro.core.shutdown import signal_aware_shutdown
    from repro.core.transplant import run_matrix
    from repro.corpus.generate import build_suite
    from repro.store.artifacts import ArtifactStore
    from repro.store.keys import canonical_bytes

    hosts = tuple(host for host in arguments.hosts.split(",") if host)
    if arguments.slow > 0:
        _install_slow_adapters(hosts, arguments.slow, arguments.ready_file)

    store = ArtifactStore(root=arguments.store_dir)
    # one pool serves the corpus build and the matrix
    worker_pool = WorkerPool(arguments.workers) if arguments.workers > 1 else None
    resume_command = "python -m repro.testing.crash_child " + " ".join(argv if argv is not None else sys.argv[1:])
    with signal_aware_shutdown(resume_command=resume_command) as state, worker_pool or nullcontext():
        suites = {
            arguments.suite: build_suite(
                arguments.suite,
                file_count=arguments.files,
                records_per_file=arguments.records,
                seed=arguments.seed,
                store=store,
                worker_pool=worker_pool,
            )
        }
        matrix = run_matrix(suites, hosts=hosts, worker_pool=worker_pool, store=store)

    digest = hashlib.sha256()
    for suite_name, host in sorted(matrix.entries):
        entry = matrix.entries[(suite_name, host)]
        digest.update(f"{suite_name}:{host}".encode("utf-8"))
        digest.update(b"\0")
        digest.update(canonical_bytes(entry.result))
        digest.update(b"\0")
    failures = matrix.infra_failures()
    summary = {
        "digest": digest.hexdigest(),
        "complete": matrix.is_complete(),
        "incomplete_cells": [list(cell) for cell in matrix.incomplete_cells()],
        "failure_kinds": sorted({failure.kind for failure in failures}),
        "drained": state.drained,
        "store": store.snapshot(),
    }
    print(SUMMARY_MARKER + " " + json.dumps(summary, sort_keys=True), flush=True)
    return 2 if failures else 0


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    sys.exit(main())

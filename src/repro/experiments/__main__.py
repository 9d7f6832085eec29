"""Command line: ``python -m repro.experiments [experiment-id ...] [--scale S] [--seed N]``.

``python -m repro.experiments store {stats,gc,audit,clear}`` manages the
persistent artifact store (inspect footprint, trim to budget, verify and
repair after a crash, wipe) without deleting ``~/.cache/repro-store``
blindly.

Campaigns run under signal-aware shutdown: the first SIGINT/SIGTERM drains —
in-flight files finish and flush, remaining work degrades to resumable
partial results (exit code 2) — and a second signal exits immediately.
Every executed file persists to the store as it finishes, so re-running the
same command resumes any stopped campaign, drained or SIGKILLed, and
re-executes only the files that never persisted.  Usage errors exit 1.
"""

from __future__ import annotations

import argparse
import gc
import json
import shlex
import sys

from repro.core.shutdown import signal_aware_shutdown
from repro.errors import UnknownExperimentError
from repro.experiments.context import ExperimentContext
from repro.experiments.registry import experiment_entries, get_experiment_entry
from repro.experiments.stream import run_batch, stream_experiments


class _ArgumentParser(argparse.ArgumentParser):
    """Usage errors exit 1: exit 2 means "campaign degraded, resume possible"."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _print_formats() -> None:
    from repro.formats import registered_parsers

    for parser in registered_parsers():
        aliases = f" (aliases: {', '.join(parser.aliases)})" if parser.aliases else ""
        extensions = ", ".join(parser.extensions)
        print(f"{parser.name:10s} {extensions:20s} {parser.description}{aliases}")


def _print_adapters() -> None:
    from repro.adapters import adapter_entries

    for entry in adapter_entries():
        aliases = f" (aliases: {', '.join(entry.aliases)})" if entry.aliases else ""
        print(f"{entry.name:12s} {entry.description}{aliases}")


def _print_experiments() -> None:
    for entry in experiment_entries():
        needs = entry.needs
        parts = []
        if needs.suites:
            parts.append(f"suites: {', '.join(needs.suites)}")
        if needs.cells:
            parts.append(f"{len(needs.cells)} matrix cell(s)")
        needs_text = "; ".join(parts) if parts else "pure analysis"
        description = f" — {entry.description}" if entry.description else ""
        print(f"{entry.id:10s} {entry.title}{description}")
        print(f"{'':10s}   needs: {needs_text}")


def _format_bytes(count: int) -> str:
    value = float(count)
    for unit in ("B", "KiB", "MiB", "GiB"):
        if value < 1024 or unit == "GiB":
            return f"{value:.1f} {unit}" if unit != "B" else f"{int(value)} B"
        value /= 1024
    return f"{int(count)} B"  # pragma: no cover - unreachable


def store_main(argv: list[str]) -> int:
    """``python -m repro.experiments store {stats,gc,audit,clear}``."""
    from repro.store import ArtifactStore, get_default_store

    parser = _ArgumentParser(
        prog="python -m repro.experiments store",
        description="Inspect and maintain the persistent artifact store (see docs/STORE.md)",
    )
    parser.add_argument("action", choices=("stats", "gc", "audit", "clear"), help="stats: footprint + counters; gc: recount and evict to budget; audit: digest-verify every artifact, delete corruption and tmp leftovers; clear: delete every artifact")
    parser.add_argument("--store-dir", default=None, metavar="PATH", help="store root (default: $REPRO_STORE_DIR or ~/.cache/repro-store)")
    parser.add_argument("--max-bytes", type=int, default=None, metavar="N", help="gc only: trim to N bytes instead of the store's steady-state budget")
    parser.add_argument("--json", action="store_true", help="machine-readable output")
    arguments = parser.parse_args(argv)
    if arguments.max_bytes is not None and arguments.max_bytes <= 0:
        parser.error("--max-bytes must be positive")

    store = ArtifactStore(root=arguments.store_dir) if arguments.store_dir else get_default_store()

    if arguments.action == "stats":
        payload = store.snapshot()
        payload["namespaces"] = store.namespace_stats()
        payload["max_bytes"] = store.max_bytes
        if arguments.json:
            print(json.dumps(payload, indent=2, sort_keys=True))
        else:
            print(f"store root:  {payload['root']}")
            print(f"entries:     {payload['entries']}")
            print(f"bytes:       {_format_bytes(payload['bytes'])} (budget {_format_bytes(store.max_bytes)})")
            print(f"this-process counters: hits={payload['hits']} misses={payload['misses']} writes={payload['writes']} evictions={payload['evictions']} errors={payload['errors']}")
            if payload["namespaces"]:
                print("namespaces:")
                for namespace, bucket in payload["namespaces"].items():
                    print(f"  {namespace:15s} {bucket['entries']:6d} entries  {_format_bytes(bucket['bytes'])}")
            else:
                print("namespaces:  (empty)")
        return 0

    if arguments.action == "audit":
        summary = store.audit()
        if arguments.json:
            print(json.dumps(summary, indent=2, sort_keys=True))
        else:
            print(
                f"audit: {summary['verified']} artifact(s) verified, {summary['corrupt']} corrupt deleted, "
                f"{summary['tmp_swept']} tmp leftover(s) swept ({summary['root']})"
            )
            for relative in summary["corrupt_paths"]:
                print(f"  deleted {relative}")
        return 0

    if arguments.action == "gc":
        summary = store.gc(max_bytes=arguments.max_bytes)
        if arguments.json:
            print(json.dumps(summary, indent=2, sort_keys=True))
        else:
            print(
                f"gc: {_format_bytes(summary['bytes_before'])} -> {_format_bytes(summary['bytes_after'])} "
                f"({summary['evicted']} evicted, budget {_format_bytes(summary['max_bytes'])})"
            )
        return 0

    # clear
    entries = store.entry_count
    store.clear()
    if arguments.json:
        print(json.dumps({"cleared": entries}))
    else:
        print(f"cleared {entries} artifact(s) from {store.root}")
    return 0


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "store":
        return store_main(argv[1:])
    parser = _ArgumentParser(description="Run SQuaLity reproduction experiments (tables and figures)")
    parser.add_argument("experiments", nargs="*", default=[], help="experiment ids (default: all); e.g. table4 figure2 bugs")
    parser.add_argument("--scale", type=float, default=1.0, help="corpus scale factor (default 1.0)")
    parser.add_argument("--seed", type=int, default=0, help="corpus generation seed (default 0)")
    parser.add_argument("--workers", type=int, default=1, help="worker-pool width for suite execution (default 1 = serial)")
    parser.add_argument(
        "--timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-statement timeout and watchdog deadline for adapters that support one "
        "(default: $REPRO_TIMEOUT_SECONDS or 5s)",
    )
    parser.add_argument(
        "--store-dir",
        default=None,
        metavar="PATH",
        help="artifact-store directory for corpora and per-file results (default: $REPRO_STORE_DIR or ~/.cache/repro-store)",
    )
    parser.add_argument(
        "--no-store",
        action="store_true",
        help="disable the persistent artifact store (regenerate corpora and re-execute every cell)",
    )
    parser.add_argument(
        "--stream",
        action="store_true",
        help="stream results as they complete: the single campaign pass prints each experiment "
        "the moment its last matrix cell lands (batch mode prints in registry order)",
    )
    parser.add_argument("--list", action="store_true", help="list available experiments and exit")
    parser.add_argument(
        "--list-experiments",
        action="store_true",
        help="list registered experiments with descriptions and declared matrix needs, and exit",
    )
    parser.add_argument("--list-formats", action="store_true", help="list registered test-suite formats and exit")
    parser.add_argument("--list-adapters", action="store_true", help="list registered DBMS adapters and exit")
    arguments = parser.parse_args(argv)

    if arguments.list:
        for entry in experiment_entries():
            print(f"{entry.id:10s} {entry.title}")
        return 0
    if arguments.list_experiments:
        _print_experiments()
        return 0
    if arguments.list_formats:
        _print_formats()
        return 0
    if arguments.list_adapters:
        _print_adapters()
        return 0

    if arguments.timeout is not None and arguments.timeout <= 0:
        parser.error("--timeout must be positive")
    if arguments.workers < 1:
        parser.error("--workers must be at least 1")
    if arguments.scale <= 0:
        parser.error("--scale must be positive")

    try:
        for experiment_id in arguments.experiments:
            get_experiment_entry(experiment_id)
    except UnknownExperimentError as error:
        # exit code 1 (usage error), like every parser error: 2 means
        # "campaign finished but degraded" here
        print(f"error: {error}", file=sys.stderr)
        return 1

    selected = arguments.experiments or None
    # the store is the resume record: re-running the same command loads every
    # file that persisted, so a storeless campaign offers no resume
    resume_command = None
    if not arguments.no_store:
        resume_command = "python -m repro.experiments " + shlex.join(argv)
    with ExperimentContext(
        scale=arguments.scale,
        seed=arguments.seed,
        workers=arguments.workers,
        store_dir=arguments.store_dir,
        use_store=not arguments.no_store,
        timeout_seconds=arguments.timeout,
    ) as context:
        # first SIGINT/SIGTERM drains (in-flight files finish and flush, the
        # rest degrades to resumable partials), a second one exits immediately
        with signal_aware_shutdown(resume_command=resume_command):
            if arguments.stream:
                # one streaming pass: results print the moment their last
                # matrix cell lands
                for result in stream_experiments(selected, context):
                    print(result.text)
                    print()
            else:
                # batch: the same single pass, printed in registry order
                for result in run_batch(selected, context):
                    print(result.text)
                    print()
        infra_failures = context.infra_failures()
    if infra_failures:
        # exit code 2: the campaign *finished* but some cells degraded to
        # partial results (quarantined adapter, exhausted retries, watchdog
        # cut, shutdown drain) — distinct from 0 (clean) and 1 (crash /
        # usage error)
        print(f"WARNING: campaign degraded — {len(infra_failures)} unrecovered infrastructure failure(s):", file=sys.stderr)
        for failure in infra_failures:
            where = f"{failure.suite}->{failure.host}" + (f":{failure.path}" if failure.path else "")
            print(f"  [{failure.kind}] {where} after {failure.attempts} attempt(s): {failure.detail}", file=sys.stderr)
        if resume_command is not None:
            print(f"resume with: {resume_command}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":  # pragma: no cover
    # Everything imported so far, and everything main() leaves behind, lives
    # until the process exits: freezing it keeps the collector from walking
    # it in full collections during the campaign (forked workers inherit the
    # frozen heap) and during interpreter shutdown.  Kept out of main() so
    # in-process callers keep their collector.
    gc.freeze()
    code = main()
    gc.freeze()
    sys.exit(code)

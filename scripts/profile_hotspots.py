#!/usr/bin/env python
"""Profile the evaluator's per-row hot spots over a representative transplant.

The pipeline-level benchmarks (``make tier2-bench``) answer "how fast is a
campaign"; this script answers "where do the remaining cycles go" so evaluator
micro-optimisations are driven by measurement instead of folklore.  It runs a
representative workload under ``cProfile`` and prints the top functions twice
— by cumulative and by self time — plus an optional filtered view of the
evaluator leaves (``engine/expressions``, ``engine/values``,
``core/comparison``).

Usage::

    PYTHONPATH=src python scripts/profile_hotspots.py                 # default workload
    PYTHONPATH=src python scripts/profile_hotspots.py --suite slt --host duckdb
    PYTHONPATH=src python scripts/profile_hotspots.py --top 40 --sort tottime
    PYTHONPATH=src python scripts/profile_hotspots.py --output /tmp/hotspots.prof
    PYTHONPATH=src python scripts/profile_hotspots.py --json benchmarks/PROFILE_hotspots.json

The workload is one cold :func:`repro.core.transplant.run_transplant` of a
generated suite (store disabled so execution is actually measured, statement
caches left on — the caches are part of the shipped hot path).  Pass
``--no-caches`` to profile the seed-equivalent uncached path instead.
"""

from __future__ import annotations

import argparse
import cProfile
import json
import pstats
import sys
from io import StringIO

#: Module substrings that make up "the evaluator hot path" for --leaves.
LEAF_MODULES = ("engine/expressions", "engine/values", "core/comparison", "engine/executor")


def build_workload(suite_name: str, host: str, file_count: int, records_per_file: int, seed: int, translate: bool):
    """Build the suite outside the profiled region; return a zero-arg campaign."""
    from repro.core.transplant import run_transplant
    from repro.corpus import build_suite

    suite = build_suite(
        suite_name,
        file_count=file_count,
        records_per_file=records_per_file,
        seed=seed,
        store=None,
    )

    def campaign():
        return run_transplant(suite, host, translate_dialect=translate, store=None)

    return campaign


def print_stats(profile: cProfile.Profile, top: int, sort: str, leaves_only: bool) -> None:
    buffer = StringIO()
    stats = pstats.Stats(profile, stream=buffer).strip_dirs() if not leaves_only else pstats.Stats(profile, stream=buffer)
    stats.sort_stats(sort)
    if leaves_only:
        stats.print_stats("|".join(LEAF_MODULES), top)
    else:
        stats.print_stats(top)
    print(buffer.getvalue())


def _stats_table(profile: cProfile.Profile, top: int, sort_key) -> list[dict]:
    """Top-``top`` functions as JSON-ready rows, sorted by ``sort_key``.

    ``pstats`` entries are ``(file, line, name) -> (cc, nc, tt, ct, callers)``;
    the rows keep both the primitive and total call counts so recursive
    frames read honestly.
    """
    entries = pstats.Stats(profile).stats.items()
    rows = sorted(entries, key=sort_key, reverse=True)[:top]
    table = []
    for (filename, line, name), (primitive_calls, calls, tottime, cumtime, _callers) in rows:
        table.append(
            {
                "function": name,
                "file": filename,
                "line": line,
                "ncalls": calls,
                "primitive_calls": primitive_calls,
                "tottime_s": round(tottime, 6),
                "cumtime_s": round(cumtime, 6),
            }
        )
    return table


def write_json_report(path: str, profile: cProfile.Profile, top: int, workload: dict) -> None:
    """One machine-readable report: workload metadata + top-N by both sorts.

    The report lands next to ``benchmarks/BENCH_pipeline.json`` in CI so a
    regression flagged by :mod:`scripts.bench_compare` comes with the
    function-level picture of where the cycles went.
    """
    report = {
        "schema": "profile_hotspots/v1",
        "workload": workload,
        "top_by_tottime": _stats_table(profile, top, sort_key=lambda item: item[1][2]),
        "top_by_cumtime": _stats_table(profile, top, sort_key=lambda item: item[1][3]),
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")
    print(f"json report written to {path}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--suite", default="slt", help="donor suite to generate (default slt)")
    parser.add_argument("--host", default="duckdb", help="host to transplant onto (default duckdb)")
    parser.add_argument("--files", type=int, default=6, help="generated files (default 6)")
    parser.add_argument("--records", type=int, default=80, help="records per file (default 80)")
    parser.add_argument("--seed", type=int, default=42, help="corpus seed (default 42)")
    parser.add_argument("--translate", action="store_true", help="profile the translated (cross-dialect) path")
    parser.add_argument("--no-caches", action="store_true", help="profile the seed-equivalent uncached path")
    parser.add_argument("--top", type=int, default=25, help="rows per stats table (default 25)")
    parser.add_argument("--sort", default="cumulative", choices=["cumulative", "tottime", "ncalls"], help="sort order")
    parser.add_argument("--output", default=None, metavar="PATH", help="also dump raw pstats data to PATH")
    parser.add_argument(
        "--json",
        default=None,
        metavar="PATH",
        help="write a machine-readable top-N report (schema profile_hotspots/v1) to PATH",
    )
    arguments = parser.parse_args(argv)

    from repro.perf import cache as perf_cache

    campaign = build_workload(
        arguments.suite, arguments.host, arguments.files, arguments.records, arguments.seed, arguments.translate
    )
    # one warm-up pass keeps one-time costs (dispatch tables, regex caches,
    # interned feature strings) out of the per-row picture
    campaign()
    perf_cache.clear_caches()
    profile = cProfile.Profile()
    if arguments.no_caches:
        with perf_cache.caching_disabled():
            profile.enable()
            result = campaign()
            profile.disable()
    else:
        profile.enable()
        result = campaign()
        profile.disable()

    print(
        f"workload: {arguments.suite} -> {arguments.host}, {arguments.files} files x "
        f"{arguments.records} records, translate={arguments.translate}, "
        f"caches={'off' if arguments.no_caches else 'on'}; "
        f"executed {result.result.executed_cases} cases, success rate {result.success_rate:.3f}\n"
    )
    print(f"== top {arguments.top} by {arguments.sort} ==")
    print_stats(profile, arguments.top, arguments.sort, leaves_only=False)
    print(f"== evaluator leaves (engine/expressions, engine/values, core/comparison, engine/executor) by tottime ==")
    print_stats(profile, arguments.top, "tottime", leaves_only=True)

    if arguments.output:
        profile.dump_stats(arguments.output)
        print(f"raw profile written to {arguments.output}")
    if arguments.json:
        write_json_report(
            arguments.json,
            profile,
            arguments.top,
            workload={
                "suite": arguments.suite,
                "host": arguments.host,
                "files": arguments.files,
                "records_per_file": arguments.records,
                "seed": arguments.seed,
                "translate": arguments.translate,
                "caches": "off" if arguments.no_caches else "on",
                "executed_cases": result.result.executed_cases,
                "success_rate": round(result.success_rate, 6),
            },
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())

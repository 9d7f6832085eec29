#!/usr/bin/env python
"""Fail lint when a generated artifact is accidentally committed.

Benchmark reports (``benchmarks/BENCH_*.json``) and artifact-store directories
(``.repro-store``, ``repro-store``) are machine-local state: the reports carry
wall times of one machine, and the store holds codec frames keyed by a
code fingerprint.  Both are gitignored — but gitignore only covers *untracked*
files, so a ``git add -f`` (or a pattern edit after the fact) silently starts
versioning them.  This check runs under ``make lint`` and in CI and fails when
``git ls-files`` reports any of them as tracked.

Exits 0 outside a git checkout (e.g. a release tarball): there is nothing
tracked to check.
"""

from __future__ import annotations

import fnmatch
import subprocess
import sys

#: Tracked paths matching any of these patterns fail the check.
FORBIDDEN_PATTERNS = (
    "benchmarks/BENCH_*.json",
    "benchmarks/PROFILE_*.json",
    ".repro-store/*",
    "*/.repro-store/*",
    "repro-store/*",
    "*/repro-store/*",
)


def tracked_files() -> list[str] | None:
    """Every path git tracks, or None when this is not a git checkout."""
    try:
        completed = subprocess.run(
            ["git", "ls-files", "-z"],
            capture_output=True,
            check=True,
            timeout=60,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return [path for path in completed.stdout.decode("utf-8", "replace").split("\0") if path]


def offending_paths(paths: list[str]) -> list[str]:
    return sorted(
        path
        for path in paths
        if any(fnmatch.fnmatch(path, pattern) for pattern in FORBIDDEN_PATTERNS)
    )


def main() -> int:
    paths = tracked_files()
    if paths is None:
        print("check_tracked_artifacts: not a git checkout, skipped")
        return 0
    offending = offending_paths(paths)
    if offending:
        print("error: generated artifacts are tracked by git (they must stay machine-local):")
        for path in offending:
            print(f"  {path}")
        print("untrack them with: git rm --cached <path>")
        return 1
    print(f"check_tracked_artifacts: {len(paths)} tracked files clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())

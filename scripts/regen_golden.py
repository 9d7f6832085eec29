#!/usr/bin/env python
"""Regenerate the golden campaign output that ``tests/test_golden.py`` pins.

Usage::

    python scripts/regen_golden.py

Runs the experiments CLI storeless at ``--scale 0.25 --seed 1`` with one
worker, in a subprocess whose ``HOME`` and ``TMPDIR`` point at a throwaway
directory, and writes its stdout to ``tests/golden/cli-scale0.25-seed1.txt``.
Every change to that file is part of a change's review: regenerate it only
when a result is meant to change, and say which one and why.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
GOLDEN_PATH = REPO_ROOT / "tests" / "golden" / "cli-scale0.25-seed1.txt"
CLI_ARGS = ("--scale", "0.25", "--seed", "1", "--workers", "1", "--no-store")
REGEN_COMMAND = "python scripts/regen_golden.py"


def campaign_stdout() -> bytes:
    """The CLI's stdout for :data:`CLI_ARGS`, from a hermetic subprocess."""
    with tempfile.TemporaryDirectory(prefix="repro-golden-") as scratch:
        env = dict(os.environ, HOME=scratch, TMPDIR=scratch, PYTHONPATH=str(REPO_ROOT / "src"))
        completed = subprocess.run(
            [sys.executable, "-m", "repro.experiments", *CLI_ARGS],
            cwd=REPO_ROOT,
            env=env,
            capture_output=True,
            check=False,
            timeout=300,
        )
    if completed.returncode != 0:
        raise RuntimeError(
            f"experiments CLI exited {completed.returncode}: {completed.stderr.decode('utf-8', 'replace')[-2000:]}"
        )
    return completed.stdout


def main() -> int:
    output = campaign_stdout()
    GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
    GOLDEN_PATH.write_bytes(output)
    print(f"wrote {GOLDEN_PATH.relative_to(REPO_ROOT)} ({len(output)} bytes)")
    return 0


if __name__ == "__main__":
    sys.exit(main())

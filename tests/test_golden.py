"""The golden campaign: CLI stdout at ``--scale 0.25 --seed 1`` pinned byte for byte.

The differential lattice proves execution variants equal to one another; a
change that moves every variant the same way passes it.  This test pins the
text of all 14 results instead, so any such change shows up as a diff that
must be reviewed (and the golden file regenerated on purpose with
``python scripts/regen_golden.py``).
"""

from __future__ import annotations

import difflib
import importlib.util
from pathlib import Path

_SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "regen_golden.py"


def _regen_module():
    spec = importlib.util.spec_from_file_location("regen_golden", _SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_cli_stdout_matches_the_golden_file():
    regen = _regen_module()
    expected = regen.GOLDEN_PATH.read_bytes()
    actual = regen.campaign_stdout()
    if actual != expected:
        diff = difflib.unified_diff(
            expected.decode("utf-8").splitlines(),
            actual.decode("utf-8").splitlines(),
            fromfile="golden",
            tofile="actual",
            lineterm="",
            n=1,
        )
        excerpt = "\n".join(list(diff)[:40])
        raise AssertionError(
            f"CLI stdout differs from {regen.GOLDEN_PATH.name}:\n{excerpt}\n"
            f"if the change is intended, regenerate with: {regen.REGEN_COMMAND}"
        )

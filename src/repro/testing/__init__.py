"""Test-support utilities shipped with the package.

:mod:`repro.testing.chaos` is the chaos-engineering harness that proves the
campaign resilience layer (:mod:`repro.core.resilience`): deterministic,
seeded fault schedules injected at the adapter and store boundaries, so
``tests/test_chaos.py`` can assert that recoverable faults leave campaigns
byte-identical to fault-free runs and unrecoverable ones degrade gracefully.
It also hosts the kill-point crash harness (:func:`~repro.testing.chaos.run_crash_campaign`
+ :mod:`repro.testing.crash_child`): real campaigns in killable subprocesses,
proving the store's crash-safety invariants in ``tests/test_crash.py``.
"""

from repro.testing.chaos import (
    ChaosAdapter,
    ChaosError,
    ChaosStore,
    CrashOutcome,
    FaultSchedule,
    FaultSpec,
    inject_adapter,
    parse_crash_summary,
    run_crash_campaign,
)

__all__ = [
    "ChaosAdapter",
    "ChaosError",
    "ChaosStore",
    "CrashOutcome",
    "FaultSchedule",
    "FaultSpec",
    "inject_adapter",
    "parse_crash_summary",
    "run_crash_campaign",
]

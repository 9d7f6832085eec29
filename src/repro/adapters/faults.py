"""Fault-emulation reporting utilities.

The crash/hang *injection* lives inside MiniDB sessions (driven by the dialect
profiles' :class:`~repro.dialects.base.FaultSignature` entries); this module
provides the reporting side used by the RQ4 experiment: one report per
observed crash or hang, and a summary of which bugs a transplanted
test-suite run rediscovered.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class FaultReport:
    """One crash or hang observed while executing transplanted test cases."""

    dbms: str
    kind: str
    statement: str
    message: str
    reference: str = ""

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"[{self.kind.upper()}] {self.dbms}: {self.message}"


@dataclass
class FaultSummary:
    """Aggregate crash/hang tally across a whole cross-execution campaign."""

    crashes: list[FaultReport] = field(default_factory=list)
    hangs: list[FaultReport] = field(default_factory=list)

    def add(self, report: FaultReport) -> None:
        if report.kind == "crash":
            self.crashes.append(report)
        else:
            self.hangs.append(report)

    def unique_crashes(self) -> int:
        """Distinct crash signatures (message text deduplicated)."""
        return len({report.message for report in self.crashes})

    def unique_hangs(self) -> int:
        return len({report.message for report in self.hangs})

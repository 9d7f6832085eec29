"""Table 2: non-SQL commands of each DBMS test runner (RQ1)."""

from __future__ import annotations

from repro.analysis.features import count_runner_commands, feature_support_row
from repro.core.report import format_table
from repro.experiments.base import Experiment, ExperimentNeeds, register_experiment
from repro.experiments.context import ExperimentContext, ExperimentResult

EXPERIMENT_ID = "table2"
TITLE = "Table 2: non-SQL commands of each DBMS test runner"

_FEATURES = ("Include", "Set Variable", "Load", "Loop", "Skiptest", "Multi-Connections", "CLI Commands", "Runner Commands")
_SUITES = ("sqlite", "mysql", "postgres", "duckdb")
_SUITE_TO_CORPUS = {"sqlite": "slt", "mysql": "mysql", "postgres": "postgres", "duckdb": "duckdb"}


@register_experiment(
    EXPERIMENT_ID,
    TITLE,
    needs=ExperimentNeeds(suites=("slt", "postgres", "duckdb", "mysql")),
    description="documented vs measured non-SQL runner commands per suite",
)
class Table2Experiment(Experiment):
    def finalize(self) -> ExperimentResult:
        return _build(self.context)


def _build(context: ExperimentContext) -> ExperimentResult:
    suites = context.all_suites_with_mysql()
    rows = []
    for feature in _FEATURES:
        row = [feature]
        for suite in _SUITES:
            row.append(feature_support_row(suite)[feature])
        rows.append(row)
    documented = format_table(["Feature"] + [name.capitalize() for name in _SUITES], rows, title=TITLE + " (documented runners)")

    empirical_rows = []
    data: dict = {"documented": {suite: feature_support_row(suite) for suite in _SUITES}, "measured": {}}
    for suite in _SUITES:
        # a census costs less than a store probe: scan the in-memory suite
        census = count_runner_commands(suites[_SUITE_TO_CORPUS[suite]])
        data["measured"][suite] = census
        empirical_rows.append([suite.capitalize(), census["distinct_commands"], census["distinct_cli_commands"], ", ".join(census["feature_families"]) or "-"])
    empirical = format_table(
        ["Suite", "Distinct runner commands", "Distinct CLI commands", "Feature families observed"],
        empirical_rows,
        title="Measured on the generated corpora",
    )
    return ExperimentResult(experiment_id=EXPERIMENT_ID, title=TITLE, text=documented + "\n\n" + empirical, data=data)

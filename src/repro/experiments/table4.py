"""Table 4: running donor test suites against their donor DBMS (RQ3)."""

from __future__ import annotations

from repro.core.records import ControlRecord
from repro.core.report import format_table
from repro.corpus.profiles import TABLE4_DONOR_EXECUTION
from repro.experiments.base import Experiment, ExperimentNeeds, donor_cells, register_experiment
from repro.experiments.context import ExperimentResult

EXPERIMENT_ID = "table4"
TITLE = "Table 4: running donor test suites against the donor"

_SUITES = {"slt": "sqlite", "postgres": "postgres", "duckdb": "duckdb"}


@register_experiment(
    EXPERIMENT_ID,
    TITLE,
    needs=ExperimentNeeds(suites=("slt", "postgres", "duckdb"), cells=donor_cells("slt", "postgres", "duckdb")),
    description="donor-on-donor execution counts (RQ3) vs the paper",
)
class Table4Experiment(Experiment):
    def finalize(self) -> ExperimentResult:
        return _build(self)


def _build(experiment: Table4Experiment) -> ExperimentResult:
    context = experiment.context
    rows = []
    data: dict = {}
    for suite_name, paper_key in _SUITES.items():
        # the paper keys double as the donor host names
        transplant = experiment.cell(suite_name, paper_key)
        result = transplant.result
        suite = context.suites[suite_name]
        # PostgreSQL "omitted" cases are psql meta-commands the runner records
        # but does not execute; SLT / DuckDB skips come from skipif / require.
        cli_records = sum(
            1
            for test_file in suite.files
            for record in test_file.records
            if isinstance(record, ControlRecord) and record.command.startswith("psql:")
        )
        total = result.total_cases + cli_records
        executed = result.executed_cases
        failed = result.failed_cases
        paper = TABLE4_DONOR_EXECUTION[paper_key]
        rows.append(
            [
                transplant.donor.capitalize(),
                paper["total"],
                paper["executed"],
                paper["failed"],
                total,
                executed,
                failed,
            ]
        )
        data[suite_name] = {
            "paper": paper,
            "measured": {
                "total": total,
                "executed": executed,
                "failed": failed,
                "skipped": result.skipped_cases + cli_records,
                "executed_share": executed / total if total else 0.0,
                "failed_share": failed / executed if executed else 0.0,
            },
        }
    text = format_table(
        ["DBMS", "Total (paper)", "Executed (paper)", "Failed (paper)", "Total (measured)", "Executed (measured)", "Failed (measured)"],
        rows,
        title=TITLE,
    )
    note = (
        "\nMeasured counts are at corpus scale; the preserved shape is the *rates*: SLT executes\n"
        "~80% of its cases with almost no failures, DuckDB pre-filters the most cases (require),\n"
        "and PostgreSQL has the highest donor failure rate (~11% of executed cases)."
    )
    return ExperimentResult(experiment_id=EXPERIMENT_ID, title=TITLE, text=text + note, data=data)

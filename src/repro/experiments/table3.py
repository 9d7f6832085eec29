"""Table 3: percentage of standard-compliant SQL statements per suite (RQ2)."""

from __future__ import annotations

from repro.analysis.statements import compliance_from_profiles
from repro.core.report import format_percentage, format_table
from repro.corpus.profiles import TABLE3_STANDARD_COMPLIANCE
from repro.experiments.base import Experiment, ExperimentNeeds, register_experiment
from repro.experiments.context import ExperimentContext, ExperimentResult

EXPERIMENT_ID = "table3"
TITLE = "Table 3: share of standard-compliant SQL statements"

_SUITES = {"slt": "sqlite", "postgres": "postgres", "duckdb": "duckdb"}


@register_experiment(
    EXPERIMENT_ID,
    TITLE,
    needs=ExperimentNeeds(suites=("slt", "postgres", "duckdb")),
    description="standard-compliance share of each suite's SQL statements",
)
class Table3Experiment(Experiment):
    def finalize(self) -> ExperimentResult:
        return _build(self.context)


def _build(context: ExperimentContext) -> ExperimentResult:
    rows = []
    data: dict = {}
    for suite_name, paper_key in _SUITES.items():
        # one store probe per file serves both variants
        suite = context.suites[suite_name]
        profile = context.analysis.statement_profile(suite)
        summary = compliance_from_profiles(suite.name, profile)
        relaxed = compliance_from_profiles(suite.name, profile, count_create_index_as_standard=True)
        paper = TABLE3_STANDARD_COMPLIANCE[paper_key]
        rows.append(
            [
                summary.suite,
                format_percentage(paper["standard_statements"]),
                format_percentage(summary.standard_share),
                format_percentage(paper["exclusively_standard_files"]),
                format_percentage(summary.exclusively_standard_share),
                format_percentage(relaxed.exclusively_standard_share),
            ]
        )
        data[suite_name] = {
            "paper_standard": paper["standard_statements"],
            "measured_standard": summary.standard_share,
            "paper_exclusive_files": paper["exclusively_standard_files"],
            "measured_exclusive_files": summary.exclusively_standard_share,
            "measured_exclusive_files_with_create_index": relaxed.exclusively_standard_share,
        }
    text = format_table(
        ["Suite", "Std stmts (paper)", "Std stmts (measured)", "Excl-std files (paper)", "Excl-std files (measured)", "... counting CREATE INDEX as std"],
        rows,
        title=TITLE,
    )
    return ExperimentResult(experiment_id=EXPERIMENT_ID, title=TITLE, text=text, data=data)

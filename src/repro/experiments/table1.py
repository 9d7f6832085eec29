"""Table 1: DBMS rankings and their test suites' information.

Table 1 is metadata about the studied systems (DB-Engines rank, GitHub stars,
versions, number of test files).  The reproduction reports the paper's values
side by side with the corresponding properties of the synthetic corpora (file
counts and collected test cases) so the scale factor is explicit.
"""

from __future__ import annotations

from repro.core.report import format_table
from repro.corpus.profiles import TABLE1_DBMS_INFO
from repro.experiments.base import Experiment, ExperimentNeeds, register_experiment
from repro.experiments.context import ExperimentContext, ExperimentResult

EXPERIMENT_ID = "table1"
TITLE = "Table 1: DBMS rankings and their test suites information"


@register_experiment(
    EXPERIMENT_ID,
    TITLE,
    needs=ExperimentNeeds(suites=("slt", "postgres", "duckdb", "mysql")),
    description="paper metadata vs generated corpus sizes per studied DBMS",
)
class Table1Experiment(Experiment):
    def finalize(self) -> ExperimentResult:
        return _build(self.context)


def _build(context: ExperimentContext) -> ExperimentResult:
    suites = context.all_suites_with_mysql()
    suite_of_dbms = {"sqlite": "slt", "postgres": "postgres", "duckdb": "duckdb", "mysql": "mysql"}
    rows = []
    data: dict = {}
    for dbms, info in TABLE1_DBMS_INFO.items():
        suite = suites.get(suite_of_dbms[dbms])
        generated_files = len(suite.files) if suite else 0
        generated_cases = suite.total_sql_records if suite else 0
        rows.append(
            [
                info.name,
                info.db_engines_rank,
                f"{info.github_stars_k}k",
                info.dbms_version,
                info.suite_version,
                info.test_files,
                generated_files,
                generated_cases,
            ]
        )
        data[dbms] = {
            "paper_test_files": info.test_files,
            "generated_test_files": generated_files,
            "generated_test_cases": generated_cases,
        }
    text = format_table(
        ["DBMS", "DB-Engines", "GitHub", "DBMS ver.", "Suite ver.", "Files (paper)", "Files (generated)", "Cases (generated)"],
        rows,
        title=TITLE,
    )
    return ExperimentResult(experiment_id=EXPERIMENT_ID, title=TITLE, text=text, data=data)

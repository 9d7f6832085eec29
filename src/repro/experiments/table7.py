"""Table 7: what makes failing test cases hard to reuse (RQ4 roll-up)."""

from __future__ import annotations

from collections import Counter

from repro.core.classification import DifficultyCategory, classify_failures
from repro.core.records import DONOR_OF_SUITE
from repro.core.report import format_percentage, format_table
from repro.corpus.profiles import TABLE7_DIFFICULTY
from repro.experiments.base import Experiment, ExperimentNeeds, matrix_cells, register_experiment
from repro.experiments.context import ExperimentResult

EXPERIMENT_ID = "table7"
TITLE = "Table 7: share of failures due to dialect features / syntax / semantics"

_SUITES = {"slt": "sqlite", "duckdb": "duckdb", "postgres": "postgres"}
_HOSTS = ("sqlite", "postgres", "duckdb", "mysql")
_CATEGORIES = (DifficultyCategory.DIALECT_FEATURE, DifficultyCategory.SYNTAX, DifficultyCategory.SEMANTIC)


@register_experiment(
    EXPERIMENT_ID,
    TITLE,
    needs=ExperimentNeeds(
        suites=("slt", "postgres", "duckdb"),
        cells=matrix_cells(("slt", "duckdb", "postgres"), _HOSTS, include_donor=False),
    ),
    description="dialect/syntax/semantics difficulty shares across hosts",
)
class Table7Experiment(Experiment):
    def finalize(self) -> ExperimentResult:
        return _build(self)


def _build(experiment: Table7Experiment) -> ExperimentResult:
    context = experiment.context
    shares: dict[str, dict[str, float]] = {}
    for suite_name, paper_key in _SUITES.items():
        counter: Counter = Counter()
        for host in _HOSTS:
            if host == DONOR_OF_SUITE[suite_name]:
                continue
            failures = experiment.cell(suite_name, host).result.all_failures()
            for classified in classify_failures(failures, scheme="difficulty"):
                counter[classified.category] += 1
        total = sum(counter.values()) or 1
        shares[suite_name] = {category.value: counter.get(category, 0) / total for category in _CATEGORIES}

    rows = []
    for category in _CATEGORIES:
        row = [category.value]
        for suite_name, paper_key in _SUITES.items():
            paper_value = TABLE7_DIFFICULTY[paper_key][category.value]
            measured = shares[suite_name][category.value]
            row.append(f"{format_percentage(paper_value, 1)} / {format_percentage(measured, 1)}")
        rows.append(row)
    text = format_table(["Difficulty (paper / measured)", "SQLite (SLT)", "DuckDB", "PostgreSQL"], rows, title=TITLE)
    note = (
        "\nShape to compare: SLT failures are overwhelmingly semantic, while the DuckDB and\n"
        "PostgreSQL suites fail mostly because of dialect-specific features."
    )
    return ExperimentResult(experiment_id=EXPERIMENT_ID, title=TITLE, text=text + note, data={"measured": shares, "paper": TABLE7_DIFFICULTY})

"""Table 5: classification of sampled donor-on-donor failures (RQ3)."""

from __future__ import annotations

from repro.core.classification import DependencyCategory, category_histogram, classify_failures, sample_failures
from repro.core.report import format_table
from repro.corpus.profiles import TABLE5_DEPENDENCY_SAMPLE
from repro.experiments.base import Experiment, ExperimentNeeds, donor_cells, register_experiment
from repro.experiments.context import ExperimentResult

EXPERIMENT_ID = "table5"
TITLE = "Table 5: dependency classification of 100 sampled donor-on-donor failures"

_SUITES = {"slt": "sqlite", "duckdb": "duckdb", "postgres": "postgres"}
_ROW_ORDER = (
    ("Environment", DependencyCategory.FILE_PATHS),
    ("Environment", DependencyCategory.SETTING),
    ("Environment", DependencyCategory.SETUP),
    ("Extension", DependencyCategory.EXTENSION),
    ("Client", DependencyCategory.CLIENT_FORMAT),
    ("Client", DependencyCategory.CLIENT_NUMERIC),
    ("Client", DependencyCategory.CLIENT_EXCEPTION),
    ("Misc", DependencyCategory.RUNNER),
)


@register_experiment(
    EXPERIMENT_ID,
    TITLE,
    needs=ExperimentNeeds(suites=("slt", "postgres", "duckdb"), cells=donor_cells("slt", "duckdb", "postgres")),
    description="dependency classification of sampled donor-on-donor failures",
)
class Table5Experiment(Experiment):
    def finalize(self) -> ExperimentResult:
        return _build(self)


def _build(experiment: Table5Experiment) -> ExperimentResult:
    context = experiment.context
    histograms: dict[str, dict] = {}
    for suite_name, paper_key in _SUITES.items():
        # the paper keys double as the donor host names
        failures = experiment.cell(suite_name, paper_key).result.all_failures()
        sampled = sample_failures(failures, sample_size=100, seed=context.seed)
        histogram = category_histogram(classify_failures(sampled, scheme="dependency"))
        histograms[suite_name] = {category.value: histogram.get(category, 0) for _, category in _ROW_ORDER}

    rows = []
    for group, category in _ROW_ORDER:
        row = [f"{group} / {category.value}"]
        for suite_name, paper_key in _SUITES.items():
            paper_value = TABLE5_DEPENDENCY_SAMPLE[paper_key][category.value]
            measured = histograms[suite_name][category.value]
            row.append(f"{paper_value} / {measured}")
        rows.append(row)
    text = format_table(
        ["Reason (paper / measured)", "SQLite", "DuckDB", "PostgreSQL"],
        rows,
        title=TITLE,
    )
    note = (
        "\nShape to compare with the paper: PostgreSQL failures are dominated by environment set-up,\n"
        "DuckDB failures by client output-format differences, and SQLite has almost none."
    )
    return ExperimentResult(experiment_id=EXPERIMENT_ID, title=TITLE, text=text + note, data={"measured": histograms, "paper": TABLE5_DEPENDENCY_SAMPLE})

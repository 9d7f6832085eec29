"""Table 6: failure-reason breakdown for cross-DBMS execution (RQ4)."""

from __future__ import annotations

from repro.core.classification import IncompatibilityCategory, category_histogram, classify_failures, sample_failures
from repro.core.report import format_table
from repro.experiments.base import CellKey, Experiment, ExperimentNeeds, register_experiment
from repro.experiments.context import ExperimentResult

EXPERIMENT_ID = "table6"
TITLE = "Table 6: reasons for failed test cases when executing suites across DBMSs"

#: (suite, host) pairs in the paper's column order (donor columns excluded).
_PAIRS = (
    ("slt", "duckdb"),
    ("slt", "postgres"),
    ("slt", "mysql"),
    ("duckdb", "sqlite"),
    ("duckdb", "postgres"),
    ("duckdb", "mysql"),
    ("postgres", "sqlite"),
    ("postgres", "duckdb"),
    ("postgres", "mysql"),
)

_CATEGORY_ORDER = (
    IncompatibilityCategory.STATEMENTS,
    IncompatibilityCategory.FUNCTIONS,
    IncompatibilityCategory.TYPES,
    IncompatibilityCategory.OPERATORS,
    IncompatibilityCategory.CONFIGURATIONS,
    IncompatibilityCategory.SEMANTIC,
    IncompatibilityCategory.MISC,
)


@register_experiment(
    EXPERIMENT_ID,
    TITLE,
    needs=ExperimentNeeds(
        suites=("slt", "postgres", "duckdb"),
        cells=tuple(CellKey(suite, host) for suite, host in _PAIRS),
    ),
    description="failure-reason breakdown for every off-diagonal matrix cell",
)
class Table6Experiment(Experiment):
    def finalize(self) -> ExperimentResult:
        return _build(self)


def _build(experiment: Table6Experiment) -> ExperimentResult:
    context = experiment.context
    columns = []
    data: dict = {}
    for suite, host in _PAIRS:
        transplant = experiment.cell(suite, host)
        failures = transplant.result.all_failures()
        # SLT failures are analysed exhaustively; the other suites are sampled
        # (100 failures per pair), following the paper's methodology.
        if suite == "slt":
            analysed = failures
        else:
            analysed = sample_failures(failures, sample_size=100, seed=context.seed)
        histogram = category_histogram(classify_failures(analysed, scheme="incompatibility"))
        column = {category.value: histogram.get(category, 0) for category in _CATEGORY_ORDER}
        column["Timeout"] = transplant.result.hang_cases
        column["Crash"] = transplant.result.crash_cases
        column["analysed"] = len(analysed)
        columns.append(((suite, host), column))
        data[f"{suite}->{host}"] = column

    headers = ["Failed reason"] + [f"{suite}->{host}" for (suite, host), _ in columns]
    rows = []
    for category in _CATEGORY_ORDER:
        rows.append([category.value] + [column[category.value] for _, column in columns])
    rows.append(["Timeout"] + [column["Timeout"] for _, column in columns])
    rows.append(["Crash"] + [column["Crash"] for _, column in columns])
    rows.append(["(analysed failures)"] + [column["analysed"] for _, column in columns])
    text = format_table(headers, rows, title=TITLE)
    note = (
        "\nShape to compare with the paper: unsupported Statements dominate the DuckDB and\n"
        "PostgreSQL suites on every host, while SLT failures are almost entirely Semantic\n"
        "(the '/' division difference); crashes appear only for DuckDB and MySQL hosts."
    )
    return ExperimentResult(experiment_id=EXPERIMENT_ID, title=TITLE, text=text + note, data=data)

"""Figure 4: cross-execution success-rate heatmap (RQ4)."""

from __future__ import annotations

from repro.core.report import format_heatmap, format_table, format_percentage
from repro.core.transplant import DONOR_OF_SUITE
from repro.corpus.profiles import FIGURE4_SUCCESS_RATES
from repro.experiments.base import Experiment, ExperimentNeeds, matrix_cells, register_experiment
from repro.experiments.context import ExperimentResult

EXPERIMENT_ID = "figure4"
TITLE = "Figure 4: share of SQL test cases that execute successfully across DBMSs"

_SUITES = ("slt", "postgres", "duckdb")
_HOSTS = ("sqlite", "postgres", "duckdb", "mysql")


@register_experiment(
    EXPERIMENT_ID,
    TITLE,
    needs=ExperimentNeeds(suites=_SUITES, cells=matrix_cells(_SUITES, _HOSTS)),
    description="donor-normalised cross-execution success-rate heatmap",
)
class Figure4Experiment(Experiment):
    def finalize(self) -> ExperimentResult:
        return _build(self)


def _build(experiment: Figure4Experiment) -> ExperimentResult:
    raw: dict[tuple[str, str], float] = {}
    normalized: dict[tuple[str, str], float] = {}
    for suite in _SUITES:
        donor_rate = experiment.cell(suite, DONOR_OF_SUITE[suite]).success_rate or 1.0
        for host in _HOSTS:
            rate = experiment.cell(suite, host).success_rate
            raw[(suite, host)] = rate
            # The paper's heatmap anchors every donor at 100%; normalising by
            # the donor rate removes donor-environment failures (RQ3) from the
            # cross-DBMS comparison, as the paper does.
            normalized[(suite, host)] = min(1.0, rate / donor_rate)

    heatmap = format_heatmap(_SUITES, _HOSTS, normalized, title=TITLE + " (measured, donor-normalised)")
    comparison_rows = []
    for suite in _SUITES:
        for host in _HOSTS:
            comparison_rows.append(
                [
                    f"{suite} on {host}",
                    format_percentage(FIGURE4_SUCCESS_RATES[(suite, host)]),
                    format_percentage(normalized[(suite, host)]),
                    format_percentage(raw[(suite, host)]),
                ]
            )
    comparison = format_table(
        ["Pair", "Paper", "Measured (normalised)", "Measured (raw)"],
        comparison_rows,
        title="Paper vs. measured success rates",
    )
    note = (
        "\nShape to compare: SLT is the most compatible suite everywhere (>94%), the PostgreSQL\n"
        "regression suite the least compatible, and MySQL is the host with the lowest success\n"
        "rate for both the PostgreSQL and DuckDB suites."
    )
    return ExperimentResult(
        experiment_id=EXPERIMENT_ID,
        title=TITLE,
        text=heatmap + "\n\n" + comparison + note,
        data={"paper": {f"{s}->{h}": v for (s, h), v in FIGURE4_SUCCESS_RATES.items()}, "measured": {f"{s}->{h}": v for (s, h), v in normalized.items()}, "raw": {f"{s}->{h}": v for (s, h), v in raw.items()}},
    )

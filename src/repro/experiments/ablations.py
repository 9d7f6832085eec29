"""Ablation experiments for the design choices called out in DESIGN.md.

* **Float tolerance** — SQuaLity compares results exactly; DuckDB's native
  runner accepts a 1% deviation (Listing 10).  The ablation quantifies how
  many donor-on-donor DuckDB failures the tolerant mode removes.
* **Dialect translation** — the paper's implications suggest syntax
  differences could be partially addressed by SQL translators; the ablation
  re-runs the cross-execution matrix with the translator enabled and reports
  the success-rate change per (suite, host) pair.
"""

from __future__ import annotations

from repro.core.report import format_percentage, format_table
from repro.core.transplant import DONOR_OF_SUITE
from repro.dialects import DUCKDB
from repro.experiments.base import CellKey, Experiment, ExperimentNeeds, donor_cells, matrix_cells, register_experiment
from repro.experiments.context import ExperimentResult

EXPERIMENT_ID = "ablations"
TITLE = "Ablations: float-tolerance comparison and cross-dialect translation"

_SUITES = ("slt", "postgres", "duckdb")
_HOSTS = ("sqlite", "postgres", "duckdb", "mysql")
#: the relative deviation DuckDB's native runner accepts (Listing 10)
_NATIVE_TOLERANCE = DUCKDB.native_float_tolerance


@register_experiment(
    EXPERIMENT_ID,
    TITLE,
    needs=ExperimentNeeds(
        suites=_SUITES,
        cells=donor_cells("duckdb")
        + (CellKey("duckdb", "duckdb", tolerance=_NATIVE_TOLERANCE),)
        + matrix_cells(_SUITES, _HOSTS, include_donor=False)
        + matrix_cells(_SUITES, _HOSTS, translate=True, include_donor=False),
    ),
    description="float-tolerance and dialect-translation ablations",
)
class AblationsExperiment(Experiment):
    def finalize(self) -> ExperimentResult:
        return _build(self)


def _build(experiment: AblationsExperiment) -> ExperimentResult:
    # -- float tolerance (DuckDB donor run, exact vs 1%) ---------------------------
    exact = experiment.cell("duckdb", "duckdb").result
    tolerant = experiment.cell("duckdb", "duckdb", tolerance=_NATIVE_TOLERANCE).result
    float_rows = [
        ["exact comparison (SQuaLity)", exact.failed_cases, format_percentage(exact.success_rate)],
        ["1% tolerance (DuckDB native runner)", tolerant.failed_cases, format_percentage(tolerant.success_rate)],
    ]
    float_table = format_table(["Comparison mode", "Failed cases", "Success rate"], float_rows, title="DuckDB donor run: result-comparison mode")

    # -- dialect translation ---------------------------------------------------------
    translation_rows = []
    translation_data: dict[str, dict[str, float]] = {}
    for suite in _SUITES:
        for host in _HOSTS:
            if host == DONOR_OF_SUITE[suite]:
                continue
            baseline = experiment.cell(suite, host).success_rate
            translated = experiment.cell(suite, host, translate=True).success_rate
            translation_rows.append(
                [f"{suite} on {host}", format_percentage(baseline), format_percentage(translated), format_percentage(translated - baseline)]
            )
            translation_data[f"{suite}->{host}"] = {"baseline": baseline, "translated": translated}
    translation_table = format_table(
        ["Pair", "Success (as-is)", "Success (translated)", "Delta"],
        translation_rows,
        title="Cross-dialect translation ablation",
    )
    note = (
        "\nTranslation recovers part of the syntax-difference failures (::, DIV, ||, PRAGMA/SET,\n"
        "VARCHAR length), consistent with the paper's implication that translators help but do\n"
        "not remove dialect-specific feature gaps."
    )
    return ExperimentResult(
        experiment_id=EXPERIMENT_ID,
        title=TITLE,
        text=float_table + "\n\n" + translation_table + note,
        data={
            "float_tolerance": {"exact_failed": exact.failed_cases, "tolerant_failed": tolerant.failed_cases},
            "translation": translation_data,
        },
    )

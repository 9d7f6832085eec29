"""Figure 1: number of test-case lines per file of each DBMS (log scale)."""

from __future__ import annotations

from repro.analysis.filesize import file_size_distribution, log_histogram, summarize_sizes
from repro.core.report import format_table
from repro.experiments.base import Experiment, ExperimentNeeds, register_experiment
from repro.experiments.context import ExperimentContext, ExperimentResult

EXPERIMENT_ID = "figure1"
TITLE = "Figure 1: lines of code per test file (per suite)"

#: Order in which the paper plots the suites.
_SUITE_ORDER = ("slt", "mysql", "postgres", "duckdb")

#: The paper's Figure 1 claims, by id, as the note words them.
_CLAIMS = {
    "slt_largest_10x": "SLT files are the largest by an order of magnitude",
    "duckdb_smallest": "DuckDB files are the smallest",
}


@register_experiment(
    EXPERIMENT_ID,
    TITLE,
    needs=ExperimentNeeds(suites=("slt", "postgres", "duckdb", "mysql")),
    description="test-file size distribution per suite (log histogram)",
)
class Figure1Experiment(Experiment):
    def finalize(self) -> ExperimentResult:
        return _build(self.context)


def _build(context: ExperimentContext) -> ExperimentResult:
    suites = context.all_suites_with_mysql()
    rows = []
    data: dict = {}
    for name in _SUITE_ORDER:
        # line counts cost less than a store probe: scan the in-memory suite
        suite = suites[name]
        sizes = file_size_distribution(suite)
        summary = summarize_sizes(suite.name, sizes)
        rows.append(summary.as_row())
        data[name] = {
            "sizes": sizes,
            "histogram": log_histogram(sizes),
            "median": summary.median,
            "mean": summary.mean,
        }
    medians = {name: data[name]["median"] for name in _SUITE_ORDER}
    data["claims"] = claims = {
        "slt_largest_10x": all(medians["slt"] >= 10 * median for name, median in medians.items() if name != "slt"),
        "duckdb_smallest": all(medians["duckdb"] < median for name, median in medians.items() if name != "duckdb"),
    }
    smallest = min(_SUITE_ORDER, key=medians.__getitem__)
    text = format_table(["Suite", "Files", "Min LoC", "Median LoC", "Mean LoC", "Max LoC"], rows, title=TITLE)
    lines = ["", "Figure 1's claims, checked on median LoC (absolute sizes are scaled down):"]
    for claim_id, words in _CLAIMS.items():
        verdict = "holds" if claims[claim_id] else f"does not hold here ({smallest} files are the smallest)"
        lines.append(f"  {words}: {verdict}")
    return ExperimentResult(experiment_id=EXPERIMENT_ID, title=TITLE, text=text + "\n".join(lines), data=data)

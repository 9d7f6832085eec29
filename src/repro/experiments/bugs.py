"""RQ4 bug findings: the crashes and hangs rediscovered by reusing test suites.

The paper reports 3 crashes and 3 hangs (Section 6, Listings 12-16).  This
experiment collects the crash/hang reports from the cross-execution matrix and
adds the ad-hoc fuzzing finding (the SQLite ``generate_series`` overflow hang,
Listing 16), which the paper found by using the suites as fuzzing seeds.  The
stdlib ``sqlite3`` build lacks the series extension, so that last hang is
exercised on the MiniDB SQLite profile, which emulates the extension and its
documented bug (see DESIGN.md, substitutions).
"""

from __future__ import annotations

from repro.adapters.faults import FaultSummary
from repro.adapters.minidb_adapter import MiniDBAdapter
from repro.adapters.base import ExecutionStatus
from repro.core.report import format_table
from repro.core.reducer import make_crash_predicate, reduce_statements
from repro.dialects import ALL_DIALECTS
from repro.experiments.base import Experiment, ExperimentNeeds, matrix_cells, register_experiment
from repro.experiments.context import ExperimentResult

EXPERIMENT_ID = "bugs"
TITLE = "RQ4 findings: crashes and hangs discovered by reusing test suites"

#: The Listing 16 statement (ad-hoc fuzzing seeded with the suites).
_SERIES_OVERFLOW = "SELECT count(*) FROM generate_series(9223372036854775807, 9223372036854775807)"

#: the paper's six crash/hang signatures, as the dialect profiles emulate them
_SIGNATURES = [
    (dialect.display_name, signature)
    for dialect in ALL_DIALECTS.values()
    for signature in dialect.fault_signatures
]


def _missing_signatures(crash_messages: list[str], hang_messages: list[str]) -> list[str]:
    """The signatures no crash or hang message of this campaign matches."""
    found = {"crash": crash_messages, "hang": hang_messages}
    return [
        f"{name} {signature.kind}: {signature.description} ({signature.reference})"
        for name, signature in _SIGNATURES
        if not any(signature.description in message for message in found[signature.kind])
    ]


@register_experiment(
    EXPERIMENT_ID,
    TITLE,
    needs=ExperimentNeeds(
        suites=("slt", "postgres", "duckdb"),
        cells=matrix_cells(("slt", "postgres", "duckdb")),
    ),
    description="crash/hang signatures plus a delta-debugged reproducer",
)
class BugsExperiment(Experiment):
    def finalize(self) -> ExperimentResult:
        return _build(self)


def _build(experiment: BugsExperiment) -> ExperimentResult:
    # fault summary over the declared cells in declaration order — the same
    # suite-outer/host-inner order run_matrix inserts, so the report matches
    # a matrix's fault_summary() byte for byte
    summary = FaultSummary()
    for _key, transplant in experiment.iter_cells():
        for report in transplant.crashes:
            summary.add(report)
        for report in transplant.hangs:
            summary.add(report)
    crash_messages = sorted({report.message for report in summary.crashes})
    hang_messages = sorted({report.message for report in summary.hangs})

    # Listing 16: the series-extension overflow hang on SQLite.
    adapter = MiniDBAdapter("sqlite")
    adapter.connect()
    outcome = adapter.execute(_SERIES_OVERFLOW)
    adapter.close()
    if outcome.status is ExecutionStatus.HANG and outcome.error not in hang_messages:
        hang_messages.append(outcome.error)

    # Reduce one representative crash with the delta-debugging reducer, as the
    # paper reduces every reported test case.
    reduction_example: list[str] = []
    for report in summary.crashes:
        if "UPDATE after COMMIT" in report.message:
            statements = [
                "CREATE TABLE a (b INTEGER)",
                "INSERT INTO a VALUES (0)",
                "SELECT * FROM a",
                "BEGIN",
                "INSERT INTO a VALUES (1)",
                "UPDATE a SET b = b + 10",
                "COMMIT",
                "SELECT count(*) FROM a",
                "UPDATE a SET b = b + 10",
            ]
            predicate = make_crash_predicate(lambda: MiniDBAdapter("duckdb"))
            reduction_example = reduce_statements(statements, predicate)
            break

    rows = [["Crashes found", len(crash_messages)], ["Hangs found", len(hang_messages)]]
    for message in crash_messages:
        rows.append(["  crash", message[:90]])
    for message in hang_messages:
        rows.append(["  hang", message[:90]])
    if reduction_example:
        rows.append(["Reduced crash reproducer (statements)", len(reduction_example)])
    text = format_table(["Finding", "Value"], rows, title=TITLE)
    missing = _missing_signatures(crash_messages, hang_messages)
    note = "\nThe paper reports 3 crashes and 3 hangs; "
    if missing:
        note += f"{len(_SIGNATURES) - len(missing)} of the six signatures are rediscovered here. Not found:"
        note += "".join(f"\n  {signature}" for signature in missing)
    else:
        note += "all six signatures are rediscovered here."
    return ExperimentResult(
        experiment_id=EXPERIMENT_ID,
        title=TITLE,
        text=text + note,
        data={
            "crashes": crash_messages,
            "hangs": hang_messages,
            "crash_count": len(crash_messages),
            "hang_count": len(hang_messages),
            "reduced_reproducer": reduction_example,
            "missing_signatures": missing,
        },
    )

"""Feature-coverage measurement over MiniDB (the Table 8 substitute).

The paper measures gcov line/branch coverage of the real DBMSs' C/C++ sources
when executing (a) each system's own test suite and (b) SQuaLity's union of
suites.  MiniDB is pure Python, so we measure an analogous quantity over a
fixed *feature universe*: every executor path, statement handler, operator,
type, and dialect-visible function the engine can exercise.  "Line" coverage
maps onto the coarse feature families (statement kinds, executor stages);
"branch" coverage maps onto the full fine-grained universe (individual
functions, operators, types, semantic branches) — preserving the relationship
line ≥ branch and the paper's key finding that the union of suites covers more
than any single suite.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from repro.adapters.minidb_adapter import MiniDBAdapter
from repro.core.records import TestFile
from repro.dialects.base import DialectProfile, get_dialect

#: Executor / statement features every dialect's engine exposes.
_COMMON_FEATURES = [
    "executor.select",
    "executor.projection",
    "executor.filter",
    "executor.table_scan",
    "executor.view_scan",
    "executor.cte_scan",
    "executor.derived_table",
    "executor.table_function",
    "executor.join.inner",
    "executor.join.left",
    "executor.join.right",
    "executor.join.cross",
    "executor.aggregate",
    "executor.group_by",
    "executor.order_by",
    "executor.limit",
    "executor.distinct",
    "executor.values",
    "executor.compound.union",
    "executor.compound.union_all",
    "executor.compound.intersect",
    "executor.compound.except",
    "executor.recursive_cte",
    "statement.insert",
    "statement.update",
    "statement.delete",
    "statement.create_table",
    "statement.create_index",
    "statement.create_view",
    "statement.alter_table",
    "statement.drop_table",
    "statement.drop_view",
    "statement.drop_index",
    "transaction.begin",
    "transaction.commit",
    "transaction.rollback",
    "expression.case",
    "expression.in",
    "expression.between",
    "expression.like",
    "expression.exists",
    "expression.scalar_subquery",
    "operator.+",
    "operator.-",
    "operator.*",
    "operator./",
    "operator.=",
    "operator.!=",
    "operator.<",
    "operator.>",
    "operator.<=",
    "operator.>=",
    "operator.||",
    "operator.cast",
    "aggregate.count",
    "aggregate.sum",
    "aggregate.avg",
    "aggregate.min",
    "aggregate.max",
]

#: The engines Table 8 measures, in the order its rows print.
COVERAGE_DIALECTS = ("sqlite", "duckdb", "postgres")


def feature_universe(dialect: DialectProfile | str) -> set[str]:
    """The full (branch-level) feature universe of one dialect's engine."""
    profile = get_dialect(dialect) if isinstance(dialect, str) else dialect
    universe = set(_COMMON_FEATURES)
    universe.update(f"function.{name}" for name in sorted(profile.functions))
    universe.update(f"type.{name.lower()}" for name in sorted(profile.types))
    if profile.supports_pragma:
        universe.add("statement.pragma")
    if profile.supports_set:
        universe.add("statement.set")
    if "SHOW" in profile.extra_statements:
        universe.add("statement.show")
    if "EXPLAIN" in profile.extra_statements or profile.name == "sqlite":
        universe.add("statement.explain")
    if "CREATE SCHEMA" in profile.extra_statements:
        universe.add("statement.create_schema")
    if profile.supports_div_operator:
        universe.add("semantic.div_operator")
    universe.add("semantic.integer_division" if profile.division.value == "integer" else "semantic.decimal_division")
    if profile.allows_string_plus_integer:
        universe.add("semantic.string_plus_integer")
    if profile.row_value_null_comparison == "true":
        universe.add("semantic.row_value_null_true")
    return universe


@dataclass
class CoverageReport:
    """Line- and branch-style coverage of one measurement."""

    dialect: str
    exercised: set[str] = field(default_factory=set)

    @property
    def branch_universe(self) -> set[str]:
        return feature_universe(self.dialect)

    @property
    def line_universe(self) -> set[str]:
        return {self._coarse(feature) for feature in self.branch_universe}

    @staticmethod
    def _coarse(feature: str) -> str:
        family, _, rest = feature.partition(".")
        if family in ("function", "type"):
            # bucket functions/types by first letter so line-coverage is coarser
            return f"{family}.{rest[:1]}"
        return feature

    @property
    def branch_coverage(self) -> float:
        universe = self.branch_universe
        if not universe:
            return 0.0
        return len(self.exercised & universe) / len(universe)

    @property
    def line_coverage(self) -> float:
        universe = self.line_universe
        if not universe:
            return 0.0
        exercised_coarse = {self._coarse(feature) for feature in self.exercised}
        return len(exercised_coarse & universe) / len(universe)


def measure_coverage(dialect: str, statement_lists: list[list[str]]) -> CoverageReport:
    """Execute every statement list on a fresh MiniDB session and union the features.

    Each inner list is one test file (executed from a clean database), matching
    how the paper measures coverage of a whole suite run.
    """
    report = CoverageReport(dialect=dialect)
    adapter = MiniDBAdapter(dialect)
    adapter.connect()
    for statements in statement_lists:
        adapter.reset()
        for statement in statements:
            adapter.execute(statement)
        report.exercised |= adapter.features_exercised
    adapter.close()
    return report


def combine_reports(dialect: str, reports: list[CoverageReport]) -> CoverageReport:
    """Union several coverage reports (the "SQuaLity" row of Table 8)."""
    combined = CoverageReport(dialect=dialect)
    for report in reports:
        combined.exercised |= report.exercised
    return combined


def file_coverage_partial(test_file: TestFile) -> dict[str, list[str]]:
    """The features one test file exercises on each Table 8 engine.

    Each engine runs the file on a fresh session, as :func:`measure_coverage`
    resets before every file of a suite, so the union of a suite's per-file
    partials is its whole-suite measurement.  ``measure_coverage`` is resolved through
    this module's globals on every call: a wrapper bound to
    ``repro.core.coverage.measure_coverage`` sees each measurement.
    """
    statements = test_file.statements()
    return {dialect: sorted(measure_coverage(dialect, [statements]).exercised) for dialect in COVERAGE_DIALECTS}


def merge_coverage_partials(partials: Iterable[dict[str, list[str]]]) -> dict[str, list[str]]:
    """Union per-file :func:`file_coverage_partial` results per engine (any order or split)."""
    merged: dict[str, set[str]] = {dialect: set() for dialect in COVERAGE_DIALECTS}
    for partial in partials:
        for dialect, features in partial.items():
            merged[dialect].update(features)
    return {dialect: sorted(features) for dialect, features in merged.items()}

"""Failure classification: the RQ3 dependency and RQ4 incompatibility taxonomies.

Two classifiers are provided, mirroring the paper's two analyses:

* :func:`classify_dependency` assigns a donor-on-donor failure to the RQ3
  categories of Table 5 — Environment (File Paths / Setting / Set Up),
  Extension, Client (Format / Numeric / Exception), and Misc (Runner).
* :func:`classify_incompatibility` assigns a cross-DBMS failure to the RQ4
  categories of Table 6 — Statements, Functions, Types, Operators,
  Configurations, Semantic, and Misc (with crashes and timeouts counted
  separately).

The classifiers combine the structured exception types raised by MiniDB with
message-pattern rules for the real ``sqlite3`` engine, following the paper's
advice that error-message patterns are a practical way to triage failures
(Section 9, "Supporting a new DBMS").
"""

from __future__ import annotations

import enum
import re
from collections import Counter
from dataclasses import dataclass

from repro.core.runner import RecordOutcome, RecordResult
from repro.sqlparser.analyzer import extract_function_names, referenced_settings, uses_cast_operator
from repro.sqlparser.statements import statement_type, is_standard_statement


class DependencyCategory(enum.Enum):
    """RQ3 (Table 5) dependency categories for donor-on-donor failures."""

    FILE_PATHS = "File Paths"
    SETTING = "Setting"
    SETUP = "Set Up"
    EXTENSION = "Extension"
    CLIENT_FORMAT = "Format"
    CLIENT_NUMERIC = "Numeric"
    CLIENT_EXCEPTION = "Exception"
    RUNNER = "Runner"


class IncompatibilityCategory(enum.Enum):
    """RQ4 (Table 6) incompatibility categories for cross-DBMS failures."""

    STATEMENTS = "Statements"
    FUNCTIONS = "Functions"
    TYPES = "Types"
    OPERATORS = "Operators"
    CONFIGURATIONS = "Configurations"
    SEMANTIC = "Semantic"
    MISC = "Misc"


class DifficultyCategory(enum.Enum):
    """RQ4 (Table 7) roll-up: what makes a failing test case hard to reuse."""

    DIALECT_FEATURE = "Dialect-specific features"
    SYNTAX = "Syntax differences"
    SEMANTIC = "Semantic differences"


@dataclass
class ClassifiedFailure:
    """A failure together with its assigned category."""

    result: RecordResult
    category: enum.Enum
    detail: str = ""


_FILE_PATTERNS = re.compile(r"no such file|could not open file|cannot open|not found.*\.csv|\.dat", re.IGNORECASE)
_EXTENSION_PATTERNS = re.compile(r"regress|extension|\.so|shared library|not loaded", re.IGNORECASE)
_SETTING_PATTERNS = re.compile(r"lc_|locale|encoding|datestyle|timezone|search_path|client_min_messages", re.IGNORECASE)
_MISSING_OBJECT = re.compile(r"no such (table|column|view|index)|does not exist|not found", re.IGNORECASE)
_SYNTAX_ERROR = re.compile(r"syntax error|unrecognized token|parse error|near \"", re.IGNORECASE)
_FUNCTION_ERROR = re.compile(r"no such function|function .* (is|are) (recognised|not)|unknown function|not a function", re.IGNORECASE)
_TYPE_ERROR = re.compile(r"unknown data type|could not convert|invalid .*type|requires a length|cannot cast|invalid boolean", re.IGNORECASE)
_CONFIG_ERROR = re.compile(r"unrecognized configuration|unrecognized pragma|does not support (SET|PRAGMA|SHOW)|unknown system", re.IGNORECASE)
_STATEMENT_ERROR = re.compile(r"does not support .* statements|not implemented|unsupported statement|must not appear within a subquery", re.IGNORECASE)


_SQL_FILE_PATTERNS = re.compile(r"read_csv|read_parquet|copy\s|from\s+'[^']*/|\.csv|\.data|\.dat\b", re.IGNORECASE)
_RUNNER_DIRECTIVE_WORDS = frozenset({"hash-threshold", "halt", "reconnect", "restart", "mode", "require", "loop", "endloop"})


def classify_dependency(result: RecordResult) -> DependencyCategory:
    """Classify a donor-on-donor failure into the RQ3 categories of Table 5."""
    error = (result.error or "").lower()
    sql = result.sql or ""
    first_word = sql.split()[0].lower() if sql.split() else ""
    stype = statement_type(sql)

    if first_word in _RUNNER_DIRECTIVE_WORDS:
        return DependencyCategory.RUNNER
    if _FILE_PATTERNS.search(error) or _SQL_FILE_PATTERNS.search(sql) or stype == "COPY":
        return DependencyCategory.FILE_PATHS
    if _EXTENSION_PATTERNS.search(error) or stype in ("CREATE FUNCTION", "CREATE EXTENSION", "LOAD"):
        return DependencyCategory.EXTENSION
    if (
        _SETTING_PATTERNS.search(error)
        or result.error_type == "ConfigurationError"
        or stype in ("SHOW", "SET", "PRAGMA")
        or referenced_settings(sql)
    ):
        return DependencyCategory.SETTING
    if result.error_type in ("CatalogError",) or _MISSING_OBJECT.search(error):
        return DependencyCategory.SETUP
    if result.outcome is RecordOutcome.FAIL and not result.error:
        # A result mismatch without an error.  If the query reads from a table,
        # the data is not what the donor environment had (earlier set-up steps
        # such as data loads did not take effect) — the paper's Set Up class.
        # Constant queries that render differently are client differences.
        references_table = " from " in f" {sql.lower()} " and "from (" not in sql.lower()
        comparison = result.comparison
        if references_table and not _looks_numeric_mismatch(result.reason):
            return DependencyCategory.SETUP
        if comparison is not None and comparison.mismatch_kind == "value" and _looks_numeric_mismatch(comparison.reason):
            return DependencyCategory.CLIENT_NUMERIC
        return DependencyCategory.CLIENT_FORMAT
    if result.error:
        return DependencyCategory.CLIENT_EXCEPTION
    return DependencyCategory.RUNNER


def _looks_numeric_mismatch(reason: str) -> bool:
    numbers = re.findall(r"-?\d+(?:\.\d+)?(?:e-?\d+)?", reason)
    if len(numbers) < 2:
        return False
    try:
        first, second = float(numbers[-2]), float(numbers[-1])
    except ValueError:
        return False
    if first == second:
        return False
    scale = max(abs(first), abs(second), 1e-12)
    return abs(first - second) / scale < 0.05


def classify_incompatibility(result: RecordResult) -> IncompatibilityCategory:
    """Classify a cross-DBMS failure into the RQ4 categories of Table 6.

    A FAIL record built from a store frame answers with its stored category
    (see :func:`failure_categories`).
    """
    stored = result.__dict__.get("_categories")
    if stored is not None:
        return stored[0]
    error = result.error or ""
    error_type = result.error_type or ""
    sql = result.sql or ""

    if error_type == "UnsupportedStatementError" or _STATEMENT_ERROR.search(error):
        return IncompatibilityCategory.STATEMENTS
    if error_type == "UnsupportedFunctionError" or _FUNCTION_ERROR.search(error):
        return IncompatibilityCategory.FUNCTIONS
    if error_type in ("UnsupportedTypeError", "ConversionError") or _TYPE_ERROR.search(error):
        return IncompatibilityCategory.TYPES
    if error_type == "UnsupportedOperatorError":
        return IncompatibilityCategory.OPERATORS
    if error_type == "ConfigurationError" or _CONFIG_ERROR.search(error):
        return IncompatibilityCategory.CONFIGURATIONS
    if error_type in ("SQLSyntaxError", "OperationalError") or _SYNTAX_ERROR.search(error):
        # syntax-level rejection: distinguish operator-ish constructs from
        # genuinely unsupported statements
        if uses_cast_operator(sql) or " div " in sql.lower() or "||" in sql:
            return IncompatibilityCategory.OPERATORS
        return IncompatibilityCategory.STATEMENTS
    if error_type in ("CatalogError",) or _MISSING_OBJECT.search(error):
        # a table/function created by an earlier, dialect-specific statement is
        # missing: the root cause is the earlier statement-level incompatibility
        if extract_function_names(sql):
            return IncompatibilityCategory.FUNCTIONS
        return IncompatibilityCategory.STATEMENTS
    if result.outcome is RecordOutcome.FAIL and not error:
        # executed fine, produced a different result: semantic difference
        if referenced_settings(sql):
            return IncompatibilityCategory.CONFIGURATIONS
        return IncompatibilityCategory.SEMANTIC
    return IncompatibilityCategory.MISC


def classify_difficulty(result: RecordResult) -> DifficultyCategory:
    """Roll a failure up into the Table 7 difficulty classes."""
    return failure_categories(result)[1]


def failure_categories(result: RecordResult) -> tuple[IncompatibilityCategory, DifficultyCategory]:
    """Both RQ4 categories of a failure: its Table 6 reason and Table 7 difficulty.

    The result codec writes this pair into the frame head for every FAIL
    record it encodes, and attaches it as ``_categories`` to each FAIL record
    it builds from a frame: such a record answers here, and in
    :func:`classify_incompatibility`, without being tokenized again.
    """
    stored = result.__dict__.get("_categories")
    if stored is not None:
        return stored
    category = classify_incompatibility(result)
    if category is IncompatibilityCategory.SEMANTIC:
        return category, DifficultyCategory.SEMANTIC
    if category in (IncompatibilityCategory.STATEMENTS, IncompatibilityCategory.FUNCTIONS, IncompatibilityCategory.TYPES, IncompatibilityCategory.CONFIGURATIONS):
        # dialect-specific feature (the host simply lacks it)
        sql = result.sql or ""
        stype = statement_type(sql)
        if is_standard_statement(stype) and category is IncompatibilityCategory.STATEMENTS:
            return category, DifficultyCategory.SYNTAX
        return category, DifficultyCategory.DIALECT_FEATURE
    return category, DifficultyCategory.SYNTAX


def classify_failures(
    results: list[RecordResult],
    scheme: str = "incompatibility",
) -> list[ClassifiedFailure]:
    """Classify every FAIL result under the chosen scheme."""
    classifier = {
        "incompatibility": classify_incompatibility,
        "dependency": classify_dependency,
        "difficulty": classify_difficulty,
    }[scheme]
    classified = []
    for result in results:
        if result.outcome is not RecordOutcome.FAIL:
            continue
        classified.append(ClassifiedFailure(result=result, category=classifier(result), detail=result.reason))
    return classified


def category_histogram(classified: list[ClassifiedFailure]) -> Counter:
    """Count failures per category (for the Table 5/6/7 rows)."""
    return Counter(failure.category for failure in classified)


def sample_failures(results: list[RecordResult], sample_size: int = 100, seed: int = 0) -> list[RecordResult]:
    """Random sample of failing results (the paper samples 100 per pair)."""
    import random

    failures = [result for result in results if result.outcome is RecordOutcome.FAIL]
    if len(failures) <= sample_size:
        return failures
    rng = random.Random(seed)
    return rng.sample(failures, sample_size)

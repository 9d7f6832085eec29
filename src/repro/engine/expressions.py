"""Expression semantics that depend on the dialect.

MiniDB evaluates every expression as a compiled column program
(:mod:`repro.engine.columnar`); the helpers here are the data-dependent
dialect rules those programs call, each in one place.  Most of the paper's
semantic incompatibilities live here or next to them:

* ``/`` on two integers truncates (SQLite, PostgreSQL) or produces a decimal
  result (MySQL, DuckDB) depending on the dialect profile,
* ``'abc' + 1`` works only where weak typing allows it,
* ``||`` is concatenation except for MySQL, where it is logical OR,
* row-value comparison with a NULL component returns NULL except in DuckDB,
* ``::`` casts exist only in PostgreSQL/DuckDB (the cast program in
  :mod:`repro.engine.columnar`),
* ``COALESCE(1, 1.0)`` keeps integer typing only in SQLite (implemented in the
  function registry).

:class:`RowContext` holds the named bindings of one row, which subqueries
and outer references resolve through.
"""

from __future__ import annotations

import re
from typing import Any, Callable

from repro.dialects.base import DialectProfile, DivisionSemantics
from repro.engine import ast_nodes as ast
from repro.engine.functions import FunctionRegistry
from repro.engine.values import compare_values, render_value, to_boolean, to_number
from repro.errors import CatalogError, ConversionError, DatabaseError, UnsupportedOperatorError
from repro.perf import cache as perf_cache


#: Sentinel marking a column name bound under more than one qualifier.
_AMBIGUOUS = object()

#: Interned "operator.<op>" feature strings (built once instead of per call).
_OPERATOR_FEATURES: dict[str, str] = {}

#: Interned "function.<name>" feature strings (cf. ``_OPERATOR_FEATURES``).
_FUNCTION_FEATURES: dict[str, str] = {}

#: Three-way-comparison verdict per comparison operator: one dict hit instead
#: of walking an ``if`` chain per row.
_COMPARISON_VERDICTS: dict[str, Callable[[int], bool]] = {
    "=": lambda r: r == 0,
    "!=": lambda r: r != 0,
    "<": lambda r: r < 0,
    ">": lambda r: r > 0,
    "<=": lambda r: r <= 0,
    ">=": lambda r: r >= 0,
}

_LOGICAL_OPERATORS = frozenset(("AND", "OR"))
_ARITHMETIC_OPERATORS = frozenset(("+", "-", "*", "/", "%", "DIV"))

#: Compiled LIKE patterns, keyed by (pattern, case_insensitive).  LIKE over a
#: table re-derives the same regex for every row; the memo collapses that to
#: one compile per distinct pattern.
_LIKE_REGEX_CACHE = perf_cache.LRUCache("like-regex", maxsize=2048)


def _like_regex(pattern: str, case_insensitive: bool) -> "re.Pattern[str]":
    """The compiled regex equivalent of one SQL LIKE pattern."""
    if not perf_cache.caching_enabled():
        return _compile_like(pattern, case_insensitive)
    key = (pattern, case_insensitive)
    compiled = _LIKE_REGEX_CACHE.peek(key)
    if compiled is None:
        compiled = _compile_like(pattern, case_insensitive)
        _LIKE_REGEX_CACHE.put(key, compiled)
    return compiled


def _compile_like(pattern: str, case_insensitive: bool) -> "re.Pattern[str]":
    # re.escape escapes % and _ as themselves (no backslash needed), handle both
    regex = "^" + re.escape(pattern).replace(r"\%", ".*").replace("%", ".*").replace("_", ".") + "$"
    return re.compile(regex, re.IGNORECASE if case_insensitive else 0)


def _predicate_truth(result: Any) -> bool:
    """WHERE/ON/CASE WHEN truth of one evaluated predicate result (NULL is false)."""
    # comparisons, AND/OR, IS, IN, LIKE ... all yield bool or None: take
    # the identity checks before any isinstance dispatch
    if result is True:
        return True
    if result is False or result is None:
        return False
    if isinstance(result, (int, float)):
        return result != 0
    if isinstance(result, str):
        try:
            return bool(to_boolean(result))
        except ConversionError:
            return False
    return bool(result)


def _as_bool(value: Any) -> bool | None:
    """Truth value for AND/OR operands (module-level: built once, not per call)."""
    if value is None:
        return None
    if isinstance(value, bool):
        return value
    if isinstance(value, (int, float)):
        return value != 0
    try:
        return to_boolean(value)
    except ConversionError:
        return None


class RowContext:
    """Column name -> value bindings of one row, which subqueries and outer
    references resolve through.

    Both bare (``a``) and qualified (``t1.a``) names are bound; ``outer`` is
    the row of the enclosing query, for correlated subqueries.  Unqualified
    lookups that have to fall back to qualified bindings are resolved
    through a suffix index built on first use (the bindings never change).
    """

    __slots__ = ("values", "outer", "_suffix_index")

    def __init__(self, values: dict[str, Any], outer: "RowContext | None" = None):
        self.values = values
        self.outer = outer
        self._suffix_index: dict[str, Any] | None = None

    def _qualified_suffix_index(self) -> dict[str, Any]:
        """Map of bare column name -> qualified binding key (or ambiguity mark)."""
        index: dict[str, Any] = {}
        for binding in self.values:
            _, dot, suffix = binding.rpartition(".")
            if not dot:
                continue
            index[suffix] = _AMBIGUOUS if suffix in index else binding
        self._suffix_index = index
        return index

    def lookup(self, name: str, table: str | None = None) -> Any:
        key = f"{table}.{name}".lower() if table else name.lower()
        values = self.values
        if key in values:
            return values[key]
        if table is None:
            # try any qualified binding that ends with .name
            index = self._suffix_index
            if index is None:
                index = self._qualified_suffix_index()
            match = index.get(key)
            if match is _AMBIGUOUS:
                raise CatalogError(f"ambiguous column name: {name}")
            if match is not None:
                return values[match]
        if self.outer is not None:
            return self.outer.lookup(name, table)
        raise CatalogError(f"no such column: {key}")


class ExpressionEvaluator:
    """The session state compiled programs evaluate against: the dialect, the
    function registry, the feature hook, the subquery executor, and
    ``outer``, the outer row of the query being executed (None at top level;
    :meth:`repro.engine.executor.SelectExecutor.execute` sets it)."""

    def __init__(
        self,
        dialect: DialectProfile,
        functions: FunctionRegistry,
        subquery_executor: Callable[[ast.SelectStatement, RowContext | None], list[list[Any]]] | None = None,
        feature_hook: Callable[[str], None] | None = None,
    ):
        self.dialect = dialect
        self.functions = functions
        self.subquery_executor = subquery_executor
        # touches go straight to the hook (for a live session,
        # ``features.add``) without an intermediate method frame
        self._touch = feature_hook or (lambda name: None)
        self.outer: RowContext | None = None

    def _numeric(self, value: Any) -> int | float | None:
        return to_number(value, strict=self.dialect.strict_types and not self.dialect.allows_string_plus_integer)

    def _logical(self, operator: str, left: Any, right: Any) -> Any:
        left_bool, right_bool = _as_bool(left), _as_bool(right)
        if operator == "AND":
            if left_bool is False or right_bool is False:
                return False
            if left_bool is None or right_bool is None:
                return None
            return True
        if left_bool is True or right_bool is True:
            return True
        if left_bool is None or right_bool is None:
            return None
        return False

    def _comparison(self, operator: str, left: Any, right: Any) -> Any:
        # Row values compare element-wise; a NULL component yields NULL except
        # in DuckDB's documented deviation (Listing 17).
        if isinstance(left, tuple) or isinstance(right, tuple):
            return self._row_value_comparison(operator, left, right)
        result = compare_values(left, right)
        if result is None:
            return None
        return _COMPARISON_VERDICTS[operator](result)

    def _row_value_comparison(self, operator: str, left: Any, right: Any) -> Any:
        left_items = list(left) if isinstance(left, tuple) else [left]
        right_items = list(right) if isinstance(right, tuple) else [right]
        has_null = any(item is None for item in left_items + right_items)
        if has_null:
            if self.dialect.row_value_null_comparison == "true":
                self._touch("semantic.row_value_null_true")
                return True
            return None
        for left_item, right_item in zip(left_items, right_items):
            item_result = compare_values(left_item, right_item)
            if item_result is None:
                return None
            if item_result != 0:
                return self._comparison(operator, item_result, 0)
        return self._comparison(operator, 0, 0)

    def _is_equal(self, left: Any, right: Any) -> bool:
        if left is None and right is None:
            return True
        if left is None or right is None:
            return False
        return compare_values(left, right) == 0

    def _concat_or_or(self, left: Any, right: Any) -> Any:
        if not self.dialect.pipes_as_concat:
            # MySQL default: || is logical OR.
            self._touch("semantic.pipes_as_or")
            return self._logical("OR", left, right)
        if left is None or right is None:
            return None

        def text_of(value: Any) -> str:
            if isinstance(value, str):
                return value
            return render_value(value)

        return text_of(left) + text_of(right)

    def _arithmetic(self, operator: str, left: Any, right: Any) -> Any:
        if left is None or right is None:
            return None
        # string + integer: allowed only on weakly-typed dialects
        if operator == "+" and (isinstance(left, str) or isinstance(right, str)):
            if not self.dialect.allows_string_plus_integer:
                raise UnsupportedOperatorError("operator + does not accept text operands in this dialect")
            self._touch("semantic.string_plus_integer")
        left_number = self._numeric(left)
        right_number = self._numeric(right)
        if left_number is None or right_number is None:
            return None
        if operator == "+":
            return left_number + right_number
        if operator == "-":
            return left_number - right_number
        if operator == "*":
            return left_number * right_number
        if operator == "%":
            if right_number == 0:
                return None
            return left_number % right_number
        if operator == "DIV":
            if not self.dialect.supports_div_operator:
                raise UnsupportedOperatorError("DIV operator is not supported in this dialect")
            if right_number == 0:
                return None
            self._touch("semantic.div_operator")
            result = abs(left_number) // abs(right_number)
            if (left_number < 0) != (right_number < 0):
                result = -result
            return int(result)
        # division
        if right_number == 0:
            if self.dialect.name in ("postgres", "duckdb"):
                raise DatabaseError("division by zero")
            return None
        both_integers = isinstance(left_number, int) and isinstance(right_number, int)
        if both_integers and self.dialect.division is DivisionSemantics.INTEGER:
            self._touch("semantic.integer_division")
            quotient = abs(left_number) // abs(right_number)
            if (left_number < 0) != (right_number < 0):
                quotient = -quotient
            return int(quotient)
        self._touch("semantic.decimal_division")
        return left_number / right_number

    # -- subqueries ----------------------------------------------------------------

    def _run_subquery(self, statement: ast.SelectStatement, context: RowContext) -> list[list[Any]]:
        if self.subquery_executor is None:
            raise DatabaseError("subqueries are not available in this context")
        return self.subquery_executor(statement, context)

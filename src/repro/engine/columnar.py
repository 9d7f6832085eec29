"""Compiled column programs: MiniDB's expression evaluator.

Every expression the engine evaluates — WHERE filters, projections, DISTINCT
and GROUP BY keys, aggregate arguments, ORDER BY keys, JOIN conditions,
UPDATE/DELETE clauses, and the free-standing expressions of INSERT VALUES,
SET, DEFAULT, LIMIT/OFFSET and table-function arguments — runs as a compiled
column program.  The work that is invariant across rows is done once: the
column an expression references sits at the same index in every row of a
materialised relation.  A program holds no dialect: the dialect-dependent
rules (division semantics, ``||`` meaning, LIKE case folding, cast
strictness) read ``ev.dialect`` when they run, so one program serves a
statement on every host.

:func:`compile_expression` therefore walks an expression once per relation
layout and produces a chain of plain closures — a *column program*
``fn(row, ev) -> value`` — in which each ``ColumnRef`` of the layout has
become a direct ``row[index]`` load.  It covers every node:

* feature-coverage touches (``ev._touch(...)``) and operand evaluation
  happen in a fixed order, so errors raised mid-expression surface at a
  fixed point;
* data-dependent semantics (arithmetic, ``||``, row-value comparison, IS
  equality) run through the :class:`~repro.engine.expressions.ExpressionEvaluator`
  helpers, the one place each dialect rule lives;
* a construct the dialect rejects — an unsupported operator, type or ``::``
  cast, ``Star`` outside a projection — compiles to a closure that raises
  when it runs, after the operands the rule needs;
* a subquery, or a column the layout does not hold (an outer reference of a
  correlated subquery, or an unknown column), compiles to a closure that
  binds the current row as a :class:`~repro.engine.expressions.RowContext`
  only when it runs, chained to ``ev.outer``, the outer row of the query
  being executed.

Programs are memoized on the AST node (plans are shared process-wide through
the statement cache, so one compile serves every execution of a statement
against relations with the same column layout).
"""

from __future__ import annotations

import operator as operator_module
from typing import Any, Callable

from repro.engine import ast_nodes as ast
from repro.engine import expressions as expr
from repro.engine.values import cast_value, compare_values
from repro.errors import ConversionError, DatabaseError, UnsupportedOperatorError, UnsupportedTypeError

#: A compiled column program: ``fn(row, ev) -> value`` where ``row`` is one
#: row list of the relation the program was compiled against and ``ev`` is the
#: session's :class:`~repro.engine.expressions.ExpressionEvaluator` (passed
#: per call so programs hold no session state and stay shareable).
Program = Callable[[list, Any], Any]

#: Native Python comparators for the exact-type fast paths in compiled
#: comparison programs.  Valid only for int/int and str/str operands, where
#: ``compare_values`` itself reduces to the native comparison (floats are
#: excluded: NaN ordering differs between Python operators and the three-way
#: compare's fallthrough).
_PY_COMPARE: dict[str, Callable[[Any, Any], bool]] = {
    "=": operator_module.eq,
    "!=": operator_module.ne,
    "<": operator_module.lt,
    ">": operator_module.gt,
    "<=": operator_module.le,
    ">=": operator_module.ge,
}


def column_positions(columns: list[tuple[str | None, str]]) -> dict[str, int]:
    """Binding-key -> column index, with ``_bind_row``'s overwrite order."""
    positions: dict[str, int] = {}
    for index, (qualifier, name) in enumerate(columns):
        positions[name.lower()] = index
        if qualifier:
            positions[f"{qualifier}.{name}".lower()] = index
    return positions


def ref_binding_key(ref: ast.ColumnRef) -> str:
    return f"{ref.table}.{ref.name}".lower() if ref.table else ref.name.lower()


def relation_layout(relation: Any) -> tuple[tuple, dict[str, int]]:
    """``(columns key, positions)`` for a relation, cached on the instance.

    A relation's columns are fixed once it is materialised, so the layout is
    computed once; relations with equal column lists share program memo
    entries (the key is the column tuple, not the relation identity).
    """
    layout = getattr(relation, "_vec_layout", None)
    if layout is None:
        columns = relation.columns
        layout = (tuple(columns), column_positions(columns))
        relation._vec_layout = layout
    return layout


# -- compilation ------------------------------------------------------------------


def _raising(error_type: type, message: str) -> Program:
    """A program that raises ``error_type(message)`` whenever it runs."""

    def fail(row: list, ev: Any) -> Any:
        raise error_type(message)

    return fail


def _row_binder(positions: dict[str, int]) -> Callable[[list, Any], "expr.RowContext"]:
    """``bind(row, ev)``: the row's bindings under the layout, chained to ``ev.outer``."""
    items = tuple(positions.items())

    def bind(row: list, ev: Any) -> "expr.RowContext":
        return expr.RowContext({key: row[index] for key, index in items}, ev.outer)

    return bind


def _membership(value: Any, candidates: list, negated: bool) -> Any:
    """``value [NOT] IN candidates`` with SQL's NULL rules."""
    if value is None:
        return None
    saw_null = False
    for candidate in candidates:
        if candidate is None:
            saw_null = True
            continue
        if compare_values(value, candidate) == 0:
            return not negated
    if saw_null:
        return None
    return negated


def compile_expression(node: ast.Expression, positions: dict[str, int]) -> Program:
    """Compile ``node`` against a column layout (binding key -> row index).

    A program is the same for every dialect: what depends on the dialect is
    read from ``ev`` when the program runs.
    """
    node_type = type(node)

    if node_type is ast.Literal:
        value = node.value
        return lambda row, ev: value

    if node_type is ast.ColumnRef:
        index = positions.get(ref_binding_key(node))
        if index is not None:
            return lambda row, ev, _i=index: row[_i]
        # not a column of this layout: RowContext resolves it (through the
        # outer rows of a correlated subquery) or raises "no such column"
        bind = _row_binder(positions)
        name, table = node.name, node.table
        return lambda row, ev: bind(row, ev).lookup(name, table)

    if node_type is ast.BinaryOp:
        return _compile_binaryop(node, positions)

    if node_type is ast.UnaryOp:
        operand = compile_expression(node.operand, positions)
        operator = node.operator
        if operator == "NOT":

            def negate(row: list, ev: Any, _operand=operand) -> Any:
                value = _operand(row, ev)
                if value is None:
                    return None
                return not bool(value)

            return negate
        if operator == "-":

            def minus(row: list, ev: Any, _operand=operand) -> Any:
                number = ev._numeric(_operand(row, ev))
                return None if number is None else -number

            return minus
        if operator == "~":

            def invert(row: list, ev: Any, _operand=operand) -> Any:
                number = ev._numeric(_operand(row, ev))
                return None if number is None else ~int(number)

            return invert
        message = f"unsupported unary operator {operator}"

        def unsupported_unary(row: list, ev: Any, _operand=operand) -> Any:
            _operand(row, ev)
            raise UnsupportedOperatorError(message)

        return unsupported_unary

    if node_type is ast.FunctionCall:
        name = node.name
        feature = expr._FUNCTION_FEATURES.get(name)
        if feature is None:
            feature = expr._FUNCTION_FEATURES[name] = "function." + name
        args = [compile_expression(arg, positions) for arg in node.args]

        def call(row: list, ev: Any, _args=args, _name=name, _feature=feature) -> Any:
            ev._touch(_feature)
            return ev.functions.call_scalar(_name, [arg(row, ev) for arg in _args])

        return call

    if node_type is ast.Cast:
        operand = compile_expression(node.operand, positions)
        type_name = node.type_name
        via_double_colon = node.via_double_colon
        base = type_name.split("(")[0].strip().upper()
        always_known = base in ("INTEGER", "TEXT", "REAL")
        unknown_type = f"unknown data type: {type_name}"

        def cast(row: list, ev: Any, _operand=operand) -> Any:
            dialect = ev.dialect
            # a dialect without ``::`` rejects the operator before its
            # operand runs, an unknown type after
            if via_double_colon and not dialect.supports_double_colon_cast:
                raise UnsupportedOperatorError("the :: cast operator is not supported in this dialect")
            ev._touch("operator.cast")
            value = _operand(row, ev)
            if not always_known and not dialect.supports_type(base):
                raise UnsupportedTypeError(unknown_type)
            strict = dialect.strict_types
            try:
                return cast_value(value, type_name, strict=strict, boolean_accepts_integers=dialect.boolean_accepts_integers)
            except UnsupportedTypeError:
                raise
            except ConversionError:
                if strict:
                    raise
                return value

        return cast

    if node_type is ast.CaseExpression:
        operand = None if node.operand is None else compile_expression(node.operand, positions)
        whens = [
            (compile_expression(condition, positions), compile_expression(result, positions))
            for condition, result in node.whens
        ]
        default = None if node.default is None else compile_expression(node.default, positions)
        truth = expr._predicate_truth

        def case(row: list, ev: Any, _operand=operand, _whens=whens, _default=default) -> Any:
            ev._touch("expression.case")
            if _operand is not None:
                subject = _operand(row, ev)
                for condition, result in _whens:
                    if compare_values(subject, condition(row, ev)) == 0:
                        return result(row, ev)
            else:
                for condition, result in _whens:
                    if truth(condition(row, ev)):
                        return result(row, ev)
            if _default is not None:
                return _default(row, ev)
            return None

        return case

    if node_type is ast.InExpression:
        operand = compile_expression(node.operand, positions)
        negated = node.negated
        if node.subquery is not None:
            statement = node.subquery
            bind = _row_binder(positions)

            def in_subquery(row: list, ev: Any, _operand=operand) -> Any:
                ev._touch("expression.in")
                value = _operand(row, ev)
                rows = ev._run_subquery(statement, bind(row, ev))
                return _membership(value, [result[0] if result else None for result in rows], negated)

            return in_subquery
        items = [compile_expression(item, positions) for item in node.items]

        def in_list(row: list, ev: Any, _operand=operand, _items=items) -> Any:
            ev._touch("expression.in")
            value = _operand(row, ev)
            return _membership(value, [item(row, ev) for item in _items], negated)

        return in_list

    if node_type is ast.ExistsExpression:
        statement = node.subquery
        bind = _row_binder(positions)
        negated = node.negated

        def exists(row: list, ev: Any) -> Any:
            ev._touch("expression.exists")
            return bool(ev._run_subquery(statement, bind(row, ev))) != negated

        return exists

    if node_type is ast.ScalarSubquery:
        statement = node.subquery
        bind = _row_binder(positions)

        def scalar_subquery(row: list, ev: Any) -> Any:
            ev._touch("expression.scalar_subquery")
            rows = ev._run_subquery(statement, bind(row, ev))
            if not rows:
                return None
            return rows[0][0] if rows[0] else None

        return scalar_subquery

    if node_type is ast.BetweenExpression:
        operand = compile_expression(node.operand, positions)
        low = compile_expression(node.low, positions)
        high = compile_expression(node.high, positions)
        negated = node.negated

        def between(row: list, ev: Any, _operand=operand, _low=low, _high=high) -> Any:
            ev._touch("expression.between")
            value = _operand(row, ev)
            low_value = _low(row, ev)
            high_value = _high(row, ev)
            if value is None or low_value is None or high_value is None:
                return None
            inside = compare_values(value, low_value) >= 0 and compare_values(value, high_value) <= 0
            return inside != negated

        return between

    if node_type is ast.LikeExpression:
        operand = compile_expression(node.operand, positions)
        pattern = compile_expression(node.pattern, positions)
        ilike = node.case_insensitive
        negated = node.negated
        like_regex = expr._like_regex

        def like(row: list, ev: Any, _operand=operand, _pattern=pattern) -> Any:
            ev._touch("expression.like")
            value = _operand(row, ev)
            pattern_value = _pattern(row, ev)
            if value is None or pattern_value is None:
                return None
            # MySQL and SQLite compare LIKE case-insensitively
            case_insensitive = ilike or ev.dialect.name in ("mysql", "sqlite")
            matched = like_regex(str(pattern_value), case_insensitive).match(str(value)) is not None
            return matched != negated

        return like

    if node_type is ast.IsNullExpression:
        operand = compile_expression(node.operand, positions)
        negated = node.negated
        return lambda row, ev, _operand=operand: (_operand(row, ev) is None) != negated

    if node_type is ast.RowValue:
        items = [compile_expression(item, positions) for item in node.items]
        return lambda row, ev, _items=items: tuple(item(row, ev) for item in _items)

    if node_type is ast.ListLiteral:
        items = [compile_expression(item, positions) for item in node.items]

        def list_literal(row: list, ev: Any, _items=items) -> Any:
            ev._touch("type.list")
            return [item(row, ev) for item in _items]

        return list_literal

    if node_type is ast.StructLiteral:
        pairs = [(key, compile_expression(value, positions)) for key, value in node.items]

        def struct_literal(row: list, ev: Any, _pairs=pairs) -> Any:
            ev._touch("type.struct")
            return {key: value(row, ev) for key, value in _pairs}

        return struct_literal

    if node_type is ast.Star:
        return _raising(DatabaseError, "* is only valid in a SELECT projection or COUNT(*)")

    return _raising(DatabaseError, f"cannot evaluate expression node {node_type.__name__}")


def _compile_binaryop(node: ast.BinaryOp, positions: dict[str, int]) -> Program:
    left = compile_expression(node.left, positions)
    right = compile_expression(node.right, positions)
    operator = node.operator
    feature = expr._OPERATOR_FEATURES.get(operator)
    if feature is None:
        feature = expr._OPERATOR_FEATURES[operator] = "operator." + operator

    verdict = expr._COMPARISON_VERDICTS.get(operator)
    if verdict is not None:
        # exact-type int/int and str/str comparisons dominate predicates; for
        # those ``compare_values`` reduces to the native Python comparison
        # (its own fast paths), so the closure answers directly and only falls
        # through to the general three-way compare for mixed or exotic types
        py_compare = _PY_COMPARE.get(operator)

        if (
            py_compare is not None
            and type(node.left) is ast.ColumnRef
            and type(node.right) is ast.Literal
            and type(node.right.value) in (int, str)
        ):
            # `column <op> literal` with an int/str literal: inline the column
            # load and pin the literal, so the common predicate shape runs
            # without the two operand-closure calls.  Same touch, same
            # fallback chain — the literal is never a tuple, and ``bool`` row
            # values miss the exact-type check just like the generic closure.
            index = positions.get(ref_binding_key(node.left))
            if index is not None:
                literal = node.right.value

                def column_literal_comparison(
                    row: list,
                    ev: Any,
                    _index=index,
                    _literal=literal,
                    _literal_type=type(literal),
                    _feature=feature,
                    _operator=operator,
                    _py=py_compare,
                    _verdict=verdict,
                    _compare=compare_values,
                ) -> Any:
                    ev._touch(_feature)
                    left_value = row[_index]
                    if type(left_value) is _literal_type:
                        return _py(left_value, _literal)
                    if isinstance(left_value, tuple):
                        return ev._row_value_comparison(_operator, left_value, _literal)
                    result = _compare(left_value, _literal)
                    if result is None:
                        return None
                    return _verdict(result)

                return column_literal_comparison

        if (
            py_compare is not None
            and type(node.left) is ast.ColumnRef
            and type(node.right) is ast.ColumnRef
        ):
            # `column <op> column` — the shape implicit-join predicates take
            # after the cross product.  Both loads inline; exact-type int/int
            # and str/str pairs answer natively (bool misses the check, same
            # as the generic closure), everything else re-joins the generic
            # fallback chain.
            left_index = positions.get(ref_binding_key(node.left))
            right_index = positions.get(ref_binding_key(node.right))
            if left_index is not None and right_index is not None:

                def column_column_comparison(
                    row: list,
                    ev: Any,
                    _li=left_index,
                    _ri=right_index,
                    _feature=feature,
                    _operator=operator,
                    _py=py_compare,
                    _verdict=verdict,
                    _compare=compare_values,
                ) -> Any:
                    ev._touch(_feature)
                    left_value = row[_li]
                    right_value = row[_ri]
                    left_type = type(left_value)
                    if left_type is type(right_value) and (left_type is int or left_type is str):
                        return _py(left_value, right_value)
                    if isinstance(left_value, tuple) or isinstance(right_value, tuple):
                        return ev._row_value_comparison(_operator, left_value, right_value)
                    result = _compare(left_value, right_value)
                    if result is None:
                        return None
                    return _verdict(result)

                return column_column_comparison

        def comparison(
            row: list,
            ev: Any,
            _left=left,
            _right=right,
            _feature=feature,
            _operator=operator,
            _py=py_compare,
            _verdict=verdict,
            _compare=compare_values,
        ) -> Any:
            ev._touch(_feature)
            left_value = _left(row, ev)
            right_value = _right(row, ev)
            left_type = type(left_value)
            right_type = type(right_value)
            if _py is not None and (
                (left_type is int and right_type is int) or (left_type is str and right_type is str)
            ):
                return _py(left_value, right_value)
            if isinstance(left_value, tuple) or isinstance(right_value, tuple):
                return ev._row_value_comparison(_operator, left_value, right_value)
            result = _compare(left_value, right_value)
            if result is None:
                return None
            return _verdict(result)

        return comparison

    if operator in expr._LOGICAL_OPERATORS:
        as_bool = expr._as_bool
        if operator == "AND":

            def logical_and(row: list, ev: Any, _left=left, _right=right) -> Any:
                ev._touch(feature)
                left_bool = as_bool(_left(row, ev))
                right_bool = as_bool(_right(row, ev))
                if left_bool is False or right_bool is False:
                    return False
                if left_bool is None or right_bool is None:
                    return None
                return True

            return logical_and

        def logical_or(row: list, ev: Any, _left=left, _right=right) -> Any:
            ev._touch(feature)
            left_bool = as_bool(_left(row, ev))
            right_bool = as_bool(_right(row, ev))
            if left_bool is True or right_bool is True:
                return True
            if left_bool is None or right_bool is None:
                return None
            return False

        return logical_or

    if operator in expr._ARITHMETIC_OPERATORS:

        def arithmetic(row: list, ev: Any, _left=left, _right=right) -> Any:
            ev._touch(feature)
            return ev._arithmetic(operator, _left(row, ev), _right(row, ev))

        return arithmetic

    if operator == "||":

        def concat(row: list, ev: Any, _left=left, _right=right) -> Any:
            ev._touch(feature)
            return ev._concat_or_or(_left(row, ev), _right(row, ev))

        return concat

    if operator in ("IS", "IS NOT"):
        want_equal = operator == "IS"

        def is_op(row: list, ev: Any, _left=left, _right=right) -> Any:
            ev._touch(feature)
            equal = ev._is_equal(_left(row, ev), _right(row, ev))
            return equal if want_equal else not equal

        return is_op

    if operator in ("IS DISTINCT FROM", "IS NOT DISTINCT FROM"):
        want_distinct = operator == "IS DISTINCT FROM"

        def distinct_op(row: list, ev: Any, _left=left, _right=right) -> Any:
            ev._touch(feature)
            equal = ev._is_equal(_left(row, ev), _right(row, ev))
            return (not equal) if want_distinct else equal

        return distinct_op

    message = f"unsupported operator {operator}"

    def unsupported(row: list, ev: Any, _left=left, _right=right) -> Any:
        ev._touch(feature)
        _left(row, ev)
        _right(row, ev)
        raise UnsupportedOperatorError(message)

    return unsupported


#: Root node types whose programs yield only True/False/None, so WHERE can
#: test ``result is True`` instead of calling ``_predicate_truth`` per row.
_BOOLEAN_NODE_TYPES = (
    ast.LikeExpression,
    ast.BetweenExpression,
    ast.InExpression,
    ast.IsNullExpression,
)

_BOOLEAN_OPERATORS = frozenset(
    set(expr._COMPARISON_VERDICTS)
    | expr._LOGICAL_OPERATORS
    | {"IS", "IS NOT", "IS DISTINCT FROM", "IS NOT DISTINCT FROM"}
)


def returns_boolean(node: ast.Expression) -> bool:
    node_type = type(node)
    if node_type in _BOOLEAN_NODE_TYPES:
        return True
    if node_type is ast.BinaryOp:
        return node.operator in _BOOLEAN_OPERATORS
    if node_type is ast.UnaryOp:
        return node.operator == "NOT"
    return False


# -- memoized entry points --------------------------------------------------------


def expression_program(node: ast.Expression, columns_key: tuple, positions: dict[str, int]) -> Program:
    """Memoized :func:`compile_expression` — one compile per column layout.

    The memo lives on the AST node because plans are shared process-wide
    through the statement cache, so one compile serves every dialect that
    runs the statement; concurrent workers may race on the dict set, which
    is benign (both compute the same program).
    """
    cache = getattr(node, "_vec_programs", None)
    if cache is None:
        cache = node._vec_programs = {}
    program = cache.get(columns_key)
    if program is None:
        program = cache[columns_key] = compile_expression(node, positions)
    return program


_NO_ROW: list = []


def evaluate_standalone(node: ast.Expression, ev: Any) -> Any:
    """Evaluate an expression outside any relation (INSERT VALUES, SET,
    DEFAULT, LIMIT/OFFSET, VALUES rows, table-function arguments): its
    program over the zero-column layout, so every column it names resolves
    through ``ev.outer``."""
    return expression_program(node, (), {})(_NO_ROW, ev)


def applied_program(node: ast.Expression) -> Program:
    """Program applying ``node``'s own operation to operand values computed
    elsewhere, given as the row.

    Aggregation evaluates a BinaryOp, UnaryOp, Cast or scalar FunctionCall
    above an aggregate operand by operand first (:func:`operands_of`), then
    applies the node to the results.  The program is compiled, once per
    node, from a shell of ``node`` whose operand ``i`` reads column ``i``.
    """
    program = getattr(node, "_applied_program", None)
    if program is None:
        arity = len(operands_of(node))
        slots = [ast.ColumnRef(f"${index}") for index in range(arity)]
        if type(node) is ast.BinaryOp:
            shell: ast.Expression = ast.BinaryOp(node.operator, *slots)
        elif type(node) is ast.UnaryOp:
            shell = ast.UnaryOp(node.operator, *slots)
        elif type(node) is ast.Cast:
            shell = ast.Cast(*slots, node.type_name, node.via_double_colon)
        else:
            shell = ast.FunctionCall(node.name, slots)
        positions = {f"${index}": index for index in range(arity)}
        program = node._applied_program = compile_expression(shell, positions)
    return program


def operands_of(node: ast.Expression) -> list[ast.Expression]:
    """The operands :func:`applied_program` takes, in evaluation order."""
    if type(node) is ast.BinaryOp:
        return [node.left, node.right]
    if type(node) is ast.FunctionCall:
        return node.args
    return [node.operand]

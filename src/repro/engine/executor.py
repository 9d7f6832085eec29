"""SELECT execution for MiniDB.

The executor materialises every intermediate relation — fine at test-suite
scale — and implements: base-table/view/subquery/table-function FROM items,
comma joins, INNER/LEFT/RIGHT/FULL/CROSS/NATURAL joins (ON and USING),
WHERE filtering, GROUP BY with aggregates and HAVING, DISTINCT, compound
operators (UNION [ALL], INTERSECT, EXCEPT), ORDER BY with dialect NULL
ordering, LIMIT/OFFSET, and (recursive) common table expressions with the
dialect-specific recursion policies the paper describes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import itemgetter
from typing import Any, Callable

from repro.dialects.base import DialectProfile, NullOrder
from repro.engine import ast_nodes as ast
from repro.engine import columnar
from repro.engine.columnar import evaluate_standalone, ref_binding_key as _ref_binding_key
from repro.engine.expressions import ExpressionEvaluator, RowContext, _predicate_truth
from repro.engine.functions import evaluate_aggregate, is_aggregate
from repro.engine.storage import Database, Table
from repro.engine.values import compare_values, render_value
from repro.errors import CatalogError, DatabaseError, EngineHang, UnsupportedStatementError

#: Iteration budget for recursive CTEs before MiniDB declares a hang.
MAX_RECURSIVE_ITERATIONS = 2000
#: Row budget for any single relation.
MAX_RELATION_ROWS = 2_000_000


@dataclass
class Relation:
    """A materialised intermediate result: ordered columns plus row lists.

    ``source_columns``/``source_rows`` optionally keep the pre-projection rows
    aligned with ``rows`` so ORDER BY can reference columns that were not
    projected (``SELECT b FROM t ORDER BY a``).
    """

    columns: list[tuple[str | None, str]] = field(default_factory=list)  # (qualifier, name)
    rows: list[list[Any]] = field(default_factory=list)
    source_columns: list[tuple[str | None, str]] | None = None
    source_rows: list[list[Any]] | None = None

    def column_names(self) -> list[str]:
        return [name for _, name in self.columns]

    def rename(self, qualifier: str) -> "Relation":
        return Relation(columns=[(qualifier, name) for _, name in self.columns], rows=self.rows)

    def with_rows(self, rows: list[list[Any]]) -> "Relation":
        """Same shape, different rows — carries the program layout over."""
        relation = Relation(columns=self.columns, rows=rows)
        layout = getattr(self, "_vec_layout", None)
        if layout is not None:
            relation._vec_layout = layout
        src_positions = getattr(self, "_src_positions", None)
        if src_positions is not None:
            relation._src_positions = src_positions
        return relation

    def column_values(self, index: int) -> list[Any]:
        """One column of the relation as a list (the lazy columnar view).

        Columns are extracted on first access and cached; only call this on
        relations that are fully materialised (the cache does not watch for
        later row appends).
        """
        cache = getattr(self, "_column_cache", None)
        if cache is None:
            cache = {}
            self._column_cache = cache
        values = cache.get(index)
        if values is None:
            values = [row[index] for row in self.rows]
            cache[index] = values
        return values

    @staticmethod
    def from_table(table: Table, qualifier: str | None = None) -> "Relation":
        # Share the table's row lists instead of copying each one: no
        # executor path hands a base-table row object to a query result
        # (projection, aggregation, VALUES, and compounds all build fresh
        # lists; INSERT..SELECT and CREATE TABLE AS copy), and statement
        # handlers replace mutated rows wholesale rather than editing them
        # in place, so the shared lists are never observed changing.
        # The column list and its program layout are likewise fixed per
        # schema, so both are built once and reused across statements.
        name = qualifier or table.name
        template = getattr(table, "_relation_template", None)
        if template is None or template[0] != table.schema_version or template[1] != name:
            columns = [(name, column.name) for column in table.columns]
            layout = (tuple(columns), columnar.column_positions(columns))
            template = (table.schema_version, name, columns, layout)
            table._relation_template = template
        relation = Relation(columns=template[2], rows=table.rows)
        relation._vec_layout = template[3]
        return relation


def _expression_name(expression: ast.Expression) -> str:
    if isinstance(expression, ast.ColumnRef):
        return expression.name
    if isinstance(expression, ast.FunctionCall):
        return expression.name
    if isinstance(expression, ast.Literal):
        return render_value(expression.value)
    if isinstance(expression, ast.Cast):
        return _expression_name(expression.operand)
    return "expr"


def _contains_aggregate(expression: ast.Expression) -> bool:
    if isinstance(expression, ast.FunctionCall):
        if is_aggregate(expression.name):
            return True
        return any(_contains_aggregate(arg) for arg in expression.args)
    if isinstance(expression, ast.BinaryOp):
        return _contains_aggregate(expression.left) or _contains_aggregate(expression.right)
    if isinstance(expression, ast.UnaryOp):
        return _contains_aggregate(expression.operand)
    if isinstance(expression, ast.Cast):
        return _contains_aggregate(expression.operand)
    if isinstance(expression, ast.CaseExpression):
        parts = [expression.operand, expression.default] if expression.operand or expression.default else []
        parts += [item for pair in expression.whens for item in pair]
        return any(_contains_aggregate(part) for part in parts if part is not None)
    return False


class SelectExecutor:
    """Executes SELECT statements against a :class:`Database`."""

    def __init__(
        self,
        database: Database,
        dialect: DialectProfile,
        evaluator: ExpressionEvaluator,
        feature_hook: Callable[[str], None] | None = None,
    ):
        self.database = database
        self.dialect = dialect
        self.evaluator = evaluator
        self._touch = feature_hook or (lambda name: None)
        self._cte_relations: dict[str, Relation] = {}

    # -- public API -----------------------------------------------------------------

    def execute(self, statement: ast.SelectStatement, outer: RowContext | None = None) -> Relation:
        """Run ``statement``; ``outer`` is the row of the enclosing query a
        correlated subquery sees (programs read it as ``evaluator.outer``)."""
        evaluator = self.evaluator
        saved_outer = evaluator.outer
        evaluator.outer = outer
        try:
            return self._select(statement)
        finally:
            evaluator.outer = saved_outer

    def _select(self, statement: ast.SelectStatement) -> Relation:
        self._touch("executor.select")
        saved_ctes = dict(self._cte_relations)
        try:
            for cte in statement.ctes:
                self._cte_relations[cte.name.lower()] = self._evaluate_cte(cte, statement.recursive)
            relation = self._execute_core(statement.core)
            for operator, core in statement.compound:
                right = self._execute_core(core)
                relation = self._apply_compound(operator, relation, right)
            if statement.order_by:
                relation = self._apply_order_by(relation, statement.order_by)
            return self._apply_limit(relation, statement)
        finally:
            self._cte_relations = saved_ctes

    def execute_rows(self, statement: ast.SelectStatement, outer: RowContext | None = None) -> list[list[Any]]:
        return self.execute(statement, outer).rows

    # -- CTEs -----------------------------------------------------------------------

    def _evaluate_cte(self, cte: ast.CommonTableExpression, recursive: bool) -> Relation:
        query = cte.query
        is_self_recursive = recursive and self._references_cte(query, cte.name)
        if not is_self_recursive:
            relation = self._select(query)
            return self._apply_cte_columns(relation, cte)

        self._touch("executor.recursive_cte")
        if self._recursive_reference_in_subquery(query, cte.name):
            # PostgreSQL/MySQL reject this pattern outright; DuckDB/SQLite run
            # it and never terminate (Listing 15).
            if self.dialect.limits_recursive_cte:
                raise DatabaseError(
                    f"recursive reference to query \"{cte.name}\" must not appear within a subquery"
                )
            raise EngineHang(
                f"recursive CTE {cte.name} with a self-reference inside a subquery does not terminate"
            )

        base_relation = self._execute_core(query.core)
        base_relation = self._apply_cte_columns(base_relation, cte)
        accumulated = Relation(columns=list(base_relation.columns), rows=[list(row) for row in base_relation.rows])
        working = base_relation
        iterations = 0
        while working.rows:
            iterations += 1
            if iterations > MAX_RECURSIVE_ITERATIONS or len(accumulated.rows) > MAX_RELATION_ROWS:
                raise EngineHang(f"recursive CTE {cte.name} exceeded the iteration budget")
            self._cte_relations[cte.name.lower()] = working
            new_rows: list[list[Any]] = []
            for operator, core in query.compound:
                delta = self._execute_core(core)
                candidate_rows = delta.rows
                if "ALL" not in operator:
                    seen = {tuple(map(render_value, row)) for row in accumulated.rows}
                    candidate_rows = [row for row in candidate_rows if tuple(map(render_value, row)) not in seen]
                new_rows.extend(candidate_rows)
            if not query.compound:
                break
            working = Relation(columns=list(base_relation.columns), rows=new_rows)
            accumulated.rows.extend(new_rows)
        self._cte_relations.pop(cte.name.lower(), None)
        return accumulated

    def _apply_cte_columns(self, relation: Relation, cte: ast.CommonTableExpression) -> Relation:
        if cte.columns:
            columns = [(cte.name, name) for name in cte.columns]
            while len(columns) < len(relation.columns):
                columns.append((cte.name, relation.columns[len(columns)][1]))
        else:
            columns = [(cte.name, name) for _, name in relation.columns]
        return Relation(columns=columns, rows=relation.rows)

    def _references_cte(self, statement: ast.SelectStatement, name: str) -> bool:
        cores = [statement.core] + [core for _, core in statement.compound]
        return any(self._core_references(core, name) for core in cores)

    def _core_references(self, core: ast.SelectCore, name: str) -> bool:
        lowered = name.lower()
        for ref in core.from_tables:
            if ref.name and ref.name.lower() == lowered:
                return True
            if ref.subquery is not None and self._references_cte(ref.subquery, name):
                return True
        if core.where is not None and self._expression_references(core.where, name):
            return True
        for item in core.items:
            if self._expression_references(item.expression, name):
                return True
        return False

    def _expression_references(self, expression: ast.Expression, name: str) -> bool:
        lowered = name.lower()
        stack: list[Any] = [expression]
        while stack:
            node = stack.pop()
            if isinstance(node, (ast.InExpression, ast.ExistsExpression, ast.ScalarSubquery)):
                subquery = getattr(node, "subquery", None)
                if subquery is not None and self._references_cte(subquery, name):
                    return True
                if isinstance(node, ast.InExpression):
                    stack.extend(node.items)
                    stack.append(node.operand)
            elif isinstance(node, ast.BinaryOp):
                stack.extend([node.left, node.right])
            elif isinstance(node, ast.UnaryOp):
                stack.append(node.operand)
            elif isinstance(node, ast.FunctionCall):
                stack.extend(node.args)
            elif isinstance(node, ast.Cast):
                stack.append(node.operand)
            elif isinstance(node, ast.ColumnRef) and node.table and node.table.lower() == lowered:
                return True
        return False

    def _recursive_reference_in_subquery(self, statement: ast.SelectStatement, name: str) -> bool:
        """Detect the Listing 15 pattern: the recursive term references the CTE inside a subquery."""
        for _, core in statement.compound:
            expressions: list[ast.Expression] = []
            if core.where is not None:
                expressions.append(core.where)
            expressions.extend(item.expression for item in core.items)
            for expression in expressions:
                stack: list[Any] = [expression]
                while stack:
                    node = stack.pop()
                    if isinstance(node, (ast.InExpression, ast.ExistsExpression, ast.ScalarSubquery)):
                        subquery = getattr(node, "subquery", None)
                        if subquery is not None and self._subquery_scans(subquery, name):
                            return True
                        if isinstance(node, ast.InExpression):
                            stack.append(node.operand)
                    elif isinstance(node, ast.BinaryOp):
                        stack.extend([node.left, node.right])
                    elif isinstance(node, ast.UnaryOp):
                        stack.append(node.operand)
        return False

    def _subquery_scans(self, statement: ast.SelectStatement, name: str) -> bool:
        lowered = name.lower()
        cores = [statement.core] + [core for _, core in statement.compound]
        for core in cores:
            for ref in core.from_tables:
                if ref.name and ref.name.lower() == lowered:
                    return True
                if ref.subquery is not None and self._subquery_scans(ref.subquery, name):
                    return True
        return False

    # -- SELECT core -------------------------------------------------------------------

    def _execute_core(self, core: ast.SelectCore) -> Relation:
        if core.values_rows is not None:
            self._touch("executor.values")
            evaluator = self.evaluator
            rows = [
                [evaluate_standalone(expression, evaluator) for expression in row_expressions]
                for row_expressions in core.values_rows
            ]
            width = max((len(row) for row in rows), default=0)
            columns = [(None, f"column{i}") for i in range(width)]
            return Relation(columns=columns, rows=rows)

        source = self._resolve_from(core.from_tables)

        if core.where is not None:
            self._touch("executor.filter")
            program = self._program_for(core.where, source)
            evaluator = self.evaluator
            if columnar.returns_boolean(core.where):
                kept = [row for row in source.rows if program(row, evaluator) is True]
            else:
                kept = [row for row in source.rows if _predicate_truth(program(row, evaluator))]
            source = source.with_rows(kept)

        has_aggregates = getattr(core, "_has_aggregates", None)
        if has_aggregates is None:
            # pure AST property; memoized on the shared plan node
            has_aggregates = bool(core.group_by) or any(_contains_aggregate(item.expression) for item in core.items)
            core._has_aggregates = has_aggregates
        if has_aggregates:
            relation = self._execute_aggregation(core, source)
        else:
            relation = self._project(core, source)

        if core.distinct:
            self._touch("executor.distinct")
            seen: set[tuple] = set()
            unique_rows = []
            unique_sources = [] if relation.source_rows is not None else None
            for index, row in enumerate(relation.rows):
                key = tuple(render_value(value) for value in row)
                if key not in seen:
                    seen.add(key)
                    unique_rows.append(row)
                    if unique_sources is not None:
                        unique_sources.append(relation.source_rows[index])
            unique = relation.with_rows(unique_rows)
            unique.source_columns = relation.source_columns
            unique.source_rows = unique_sources
            relation = unique
        return relation

    # -- FROM ----------------------------------------------------------------------------

    def _resolve_from(self, refs: list[ast.TableRef]) -> Relation:
        if not refs:
            # SELECT without FROM: a single empty row so expressions evaluate once.
            return Relation(columns=[], rows=[[]])
        relation = self._resolve_table_ref(refs[0])
        for ref in refs[1:]:
            right = self._resolve_table_ref(ref)
            join_type = ref.join_type or "cross"
            if ref.is_comma_join:
                join_type = "cross"
            self._touch(f"executor.join.{join_type}")
            relation = self._join(relation, right, join_type, ref)
            if len(relation.rows) > MAX_RELATION_ROWS:
                raise EngineHang("join result exceeds the row budget")
        return relation

    def _resolve_table_ref(self, ref: ast.TableRef) -> Relation:
        if ref.subquery is not None:
            self._touch("executor.derived_table")
            relation = self._select(ref.subquery)
            qualifier = ref.alias or "subquery"
            return relation.rename(qualifier)
        if ref.function is not None:
            self._touch("executor.table_function")
            values = evaluate_standalone(ref.function, self.evaluator)
            name = ref.alias or ref.function.name
            if not isinstance(values, list):
                values = [values]
            column_name = ref.function.name if ref.function.name in ("range", "generate_series") else "value"
            if ref.function.name == "generate_series":
                column_name = "generate_series"
            rows = [[value] for value in values]
            return Relation(columns=[(name, column_name), (name, name)] if False else [(name, column_name)], rows=rows)
        if ref.name is None:
            raise DatabaseError("invalid table reference")
        lowered = ref.name.lower()
        if lowered in self._cte_relations:
            self._touch("executor.cte_scan")
            relation = self._cte_relations[lowered]
            qualifier = ref.alias or ref.name
            return Relation(columns=[(qualifier, name) for _, name in relation.columns], rows=relation.rows)
        view = self.database.get_view(ref.name)
        if view is not None:
            self._touch("executor.view_scan")
            relation = self._select(view.query)
            qualifier = ref.alias or ref.name
            return relation.rename(qualifier)
        table = self.database.get_table(ref.name)
        self._touch("executor.table_scan")
        return Relation.from_table(table, ref.alias or ref.name)

    def _join(self, left: Relation, right: Relation, join_type: str, ref: ast.TableRef) -> Relation:
        columns = left.columns + right.columns
        combined = Relation(columns=columns, rows=[])

        condition = ref.join_condition
        using_columns = ref.using_columns
        if join_type == "natural":
            left_names = {name.lower() for _, name in left.columns}
            using_columns = [name for _, name in right.columns if name.lower() in left_names]
            join_type = "inner"

        if using_columns:
            # first column of each side with the name; a missing one raises
            # only when a row pair is actually compared
            using_pairs = [
                (column, self._index_of(left, column), self._index_of(right, column)) for column in using_columns
            ]

            def matches(left_row: list[Any], right_row: list[Any]) -> bool:
                for column, left_index, right_index in using_pairs:
                    if left_index is None or right_index is None:
                        raise CatalogError(f"no such column: {column}")
                    if compare_values(left_row[left_index], right_row[right_index]) != 0:
                        return False
                return True

        elif condition is not None:
            condition_program = self._program_for(condition, combined)
            evaluator = self.evaluator

            def matches(left_row: list[Any], right_row: list[Any]) -> bool:
                return _predicate_truth(condition_program(left_row + right_row, evaluator))

        else:

            def matches(left_row: list[Any], right_row: list[Any]) -> bool:
                return True

        if join_type in ("cross", "inner", "asof"):
            if not using_columns and condition is None:
                # pure cross product (implicit joins): every pair matches, so
                # skip the per-pair predicate call outright
                combined.rows = [
                    left_row + right_row for left_row in left.rows for right_row in right.rows
                ]
                return combined
            for left_row in left.rows:
                for right_row in right.rows:
                    if matches(left_row, right_row):
                        combined.rows.append(left_row + right_row)
            return combined
        if join_type == "left":
            for left_row in left.rows:
                matched = False
                for right_row in right.rows:
                    if matches(left_row, right_row):
                        combined.rows.append(left_row + right_row)
                        matched = True
                if not matched:
                    combined.rows.append(left_row + [None] * len(right.columns))
            return combined
        if join_type == "right":
            for right_row in right.rows:
                matched = False
                for left_row in left.rows:
                    if matches(left_row, right_row):
                        combined.rows.append(left_row + right_row)
                        matched = True
                if not matched:
                    combined.rows.append([None] * len(left.columns) + right_row)
            return combined
        if join_type == "full":
            matched_right: set[int] = set()
            for left_row in left.rows:
                matched = False
                for right_index, right_row in enumerate(right.rows):
                    if matches(left_row, right_row):
                        combined.rows.append(left_row + right_row)
                        matched = True
                        matched_right.add(right_index)
                if not matched:
                    combined.rows.append(left_row + [None] * len(right.columns))
            for right_index, right_row in enumerate(right.rows):
                if right_index not in matched_right:
                    combined.rows.append([None] * len(left.columns) + right_row)
            return combined
        raise UnsupportedStatementError(f"unsupported join type: {join_type}")

    @staticmethod
    def _index_of(relation: Relation, column: str) -> int | None:
        """First column index named ``column``, or None."""
        lowered = column.lower()
        for index, (_, name) in enumerate(relation.columns):
            if name.lower() == lowered:
                return index
        return None

    # -- projection & aggregation -----------------------------------------------------------

    def _expand_items(self, items: list[ast.SelectItem], source: Relation) -> list[tuple[ast.Expression, str]]:
        expanded: list[tuple[ast.Expression, str]] = []
        for item in items:
            if isinstance(item.expression, ast.Star):
                qualifier = item.expression.table
                for (column_qualifier, name) in source.columns:
                    if qualifier is None or (column_qualifier and column_qualifier.lower() == qualifier.lower()):
                        expanded.append((ast.ColumnRef(name=name, table=column_qualifier), name))
            else:
                expanded.append((item.expression, item.alias or _expression_name(item.expression)))
        return expanded

    def _expanded_items(self, core: ast.SelectCore, source: Relation) -> tuple:
        """Memoized :meth:`_expand_items` plus the projected relation shell.

        Star expansion synthesises fresh ColumnRef nodes per call; memoizing
        the expansion per (core, source layout) keeps those nodes stable so
        their compiled programs are reused across executions of the shared
        plan.  Non-star items do not depend on the source at all.  The output
        column list and its program layout ride along in the memo, so
        downstream clauses (ORDER BY, DISTINCT) compiling against the
        projected relation never recompute column positions.

        Returns ``(expanded, columns, layout)`` where ``layout`` is the
        ``(columns_key, positions)`` pair for the projected columns.
        """
        if not any(isinstance(item.expression, ast.Star) for item in core.items):
            cached = getattr(core, "_expanded_plain", None)
            if cached is None:
                cached = core._expanded_plain = self._expanded_shell(core, source)
            return cached
        columns_key, _ = columnar.relation_layout(source)
        cache = getattr(core, "_expanded_by_layout", None)
        if cache is None:
            cache = core._expanded_by_layout = {}
        cached = cache.get(columns_key)
        if cached is None:
            cached = self._expanded_shell(core, source)
            cache[columns_key] = cached
        return cached

    def _expanded_shell(self, core: ast.SelectCore, source: Relation) -> tuple:
        expanded = self._expand_items(core.items, source)
        columns = [(None, name) for _, name in expanded]
        layout = (tuple(columns), columnar.column_positions(columns))
        return expanded, columns, layout

    def _project(self, core: ast.SelectCore, source: Relation) -> Relation:
        self._touch("executor.projection")
        expanded, columns, layout = self._expanded_items(core, source)
        result = Relation(columns=columns, rows=[], source_columns=list(source.columns), source_rows=list(source.rows))
        result._vec_layout = layout
        source_layout = getattr(source, "_vec_layout", None)
        if source_layout is not None:
            # ORDER BY resolves unprojected columns against source_rows;
            # hand it the source positions instead of a recompute
            result._src_positions = source_layout[1]
        indices = self._projection_indices(expanded, source)
        if indices is not None:
            # plain-column projections slice rows directly
            if len(indices) == 1:
                index = indices[0]
                result.rows = [[row[index]] for row in source.rows]
            else:
                getter = itemgetter(*indices)
                result.rows = [list(getter(row)) for row in source.rows]
            return result
        programs = self._programs_for([expression for expression, _ in expanded], source)
        evaluator = self.evaluator
        result.rows = [[program(row, evaluator) for program in programs] for row in source.rows]
        return result

    @staticmethod
    def _projection_indices(expanded: list, source: Relation) -> list[int] | None:
        """Source-column positions when every projected item is a column of
        ``source`` (a later column overwrites an earlier one of the same
        name, as in a row's bindings), else None."""
        if not all(type(expression) is ast.ColumnRef for expression, _ in expanded):
            return None
        positions = columnar.relation_layout(source)[1]
        indices: list[int] = []
        for expression, _ in expanded:
            position = positions.get(_ref_binding_key(expression))
            if position is None:
                return None
            indices.append(position)
        return indices

    def _program_for(self, expression: ast.Expression, source: Relation) -> columnar.Program:
        """Compiled column program for ``expression`` over ``source``."""
        columns_key, positions = columnar.relation_layout(source)
        return columnar.expression_program(expression, columns_key, positions)

    def _programs_for(self, expressions: list, source: Relation) -> list[columnar.Program]:
        columns_key, positions = columnar.relation_layout(source)
        return [columnar.expression_program(expression, columns_key, positions) for expression in expressions]

    def _execute_aggregation(self, core: ast.SelectCore, source: Relation) -> Relation:
        self._touch("executor.aggregate")
        groups: dict[tuple, list[list[Any]]] = {}
        if core.group_by:
            self._touch("executor.group_by")
            programs = self._programs_for(core.group_by, source)
            evaluator = self.evaluator
            for row in source.rows:
                key_values = [program(row, evaluator) for program in programs]
                groups.setdefault(tuple(map(render_value, key_values)), []).append(row)
        else:
            groups[("__all__",)] = list(source.rows)

        expanded, columns, layout = self._expanded_items(core, source)
        result = Relation(columns=columns, rows=[])
        result._vec_layout = layout

        for rows in groups.values():
            representative = rows[0] if rows else [None] * len(source.columns)
            output_row = [
                self._evaluate_with_aggregates(expression, rows, source, representative) for expression, _ in expanded
            ]
            if core.having is not None:
                having_value = self._evaluate_with_aggregates(core.having, rows, source, representative)
                if having_value in (None, False, 0):
                    continue
            result.rows.append(output_row)
        return result

    def _evaluate_with_aggregates(
        self, expression: ast.Expression, group_rows: list[list[Any]], source: Relation, representative: list[Any]
    ) -> Any:
        """``expression`` over one group: aggregates reduce ``group_rows``,
        anything else reads the group's ``representative`` row."""
        evaluator = self.evaluator
        if isinstance(expression, ast.FunctionCall) and is_aggregate(expression.name):
            self._touch(f"aggregate.{expression.name}")
            if expression.is_star or not expression.args:
                values = [1] * len(group_rows)
                return evaluate_aggregate(expression.name, values, self.dialect, distinct=expression.distinct, is_star=True)
            program = self._program_for(expression.args[0], source)
            values = [program(row, evaluator) for row in group_rows]
            return evaluate_aggregate(expression.name, values, self.dialect, distinct=expression.distinct)
        if isinstance(expression, (ast.BinaryOp, ast.UnaryOp, ast.Cast, ast.FunctionCall)):
            # operands first (an aggregate among them), then the operation
            operands = [
                self._evaluate_with_aggregates(operand, group_rows, source, representative)
                for operand in columnar.operands_of(expression)
            ]
            return columnar.applied_program(expression)(operands, evaluator)
        return self._program_for(expression, source)(representative, evaluator)

    # -- compound / order / limit ---------------------------------------------------------------

    def _apply_compound(self, operator: str, left: Relation, right: Relation) -> Relation:
        self._touch(f"executor.compound.{operator.replace(' ', '_').lower()}")
        if left.columns and right.columns and len(left.columns) != len(right.columns):
            raise DatabaseError("SELECTs to the left and right of a set operation do not have the same number of result columns")
        columns = left.columns or right.columns
        if operator == "UNION ALL":
            return Relation(columns=columns, rows=left.rows + right.rows)
        left_keys = [tuple(render_value(value) for value in row) for row in left.rows]
        right_keys = {tuple(render_value(value) for value in row) for row in right.rows}
        if operator == "UNION":
            seen: set[tuple] = set()
            rows = []
            for row in left.rows + right.rows:
                key = tuple(render_value(value) for value in row)
                if key not in seen:
                    seen.add(key)
                    rows.append(row)
            return Relation(columns=columns, rows=rows)
        if operator in ("INTERSECT", "INTERSECT ALL"):
            rows = []
            seen = set()
            for key, row in zip(left_keys, left.rows):
                if key in right_keys and (operator == "INTERSECT ALL" or key not in seen):
                    seen.add(key)
                    rows.append(row)
            return Relation(columns=columns, rows=rows)
        if operator in ("EXCEPT", "EXCEPT ALL"):
            rows = []
            seen = set()
            for key, row in zip(left_keys, left.rows):
                if key not in right_keys and (operator == "EXCEPT ALL" or key not in seen):
                    seen.add(key)
                    rows.append(row)
            return Relation(columns=columns, rows=rows)
        raise UnsupportedStatementError(f"unsupported compound operator: {operator}")

    def _order_by_values(self, relation: Relation, order_by: list[ast.OrderItem], source_rows) -> list[list[Any]]:
        """Each ORDER BY item's sort value per row, one list per item.

        An output position or a column reference reads its column directly:
        output columns first, then the pre-projection ``source_rows``
        (``SELECT b FROM t ORDER BY a``).  Any other expression runs as a
        program over the source row followed by the output row, so output
        columns win on name clashes there too.  Programs run row by row, all
        items of one row before the next row, so the first error raised is
        the first in row order.
        """
        rows = relation.rows
        output_positions = columnar.relation_layout(relation)[1]
        source_positions = None
        if source_rows is not None:
            source_positions = getattr(relation, "_src_positions", None)
            if source_positions is None:
                source_positions = columnar.column_positions(relation.source_columns)
        values: list[Any] = []
        programs: list[tuple[int, ast.Expression]] = []
        for item in order_by:
            expression = item.expression
            if isinstance(expression, ast.Literal) and isinstance(expression.value, int):
                position = expression.value - 1
                values.append([row[position] if 0 <= position < len(row) else None for row in rows])
                continue
            if type(expression) is ast.ColumnRef:
                key = _ref_binding_key(expression)
                index = output_positions.get(key)
                if index is not None:
                    values.append(relation.column_values(index))
                    continue
                index = source_positions.get(key) if source_positions is not None else None
                if index is not None:
                    values.append([source_row[index] for source_row in source_rows])
                    continue
            programs.append((len(values), expression))
            values.append(None)
        if programs:
            columns = relation.columns
            if source_rows is not None:
                columns = relation.source_columns + columns
                rows = [source_row + row for source_row, row in zip(source_rows, rows)]
            columns_key, positions = tuple(columns), columnar.column_positions(columns)
            compiled = [
                columnar.expression_program(expression, columns_key, positions)
                for _, expression in programs
            ]
            evaluator = self.evaluator
            per_row = [[program(row, evaluator) for program in compiled] for row in rows]
            for offset, (item_index, _) in enumerate(programs):
                values[item_index] = [row_values[offset] for row_values in per_row]
        return values

    def _apply_order_by(self, relation: Relation, order_by: list[ast.OrderItem]) -> Relation:
        """ORDER BY as whole-column passes over each item's sort values.

        The per-item decisions (null placement, descending) are hoisted out of
        the row loop; each item's sort keys are built over its value column,
        then rows are reordered once via a stable index sort.
        """
        self._touch("executor.order_by")
        rows = relation.rows
        source_rows = relation.source_rows
        if source_rows is None or relation.source_columns is None or len(source_rows) != len(rows):
            source_rows = None
        value_columns = self._order_by_values(relation, order_by, source_rows)
        if len(order_by) == 1 and rows:
            ordered = self._order_by_single_key(relation, order_by[0], value_columns[0])
            if ordered is not None:
                return ordered
        key_columns: list[list[tuple]] = []
        for values, item in zip(value_columns, order_by):
            nulls = item.nulls
            if nulls is None:
                default_first = self.dialect.null_order is NullOrder.NULLS_FIRST
                if item.descending:
                    default_first = not default_first
                nulls = "first" if default_first else "last"
            # a key is (null rank, (kind, value)): nulls rank 0 (first) or 2
            # (last), numbers sort by their float image before text, and
            # a descending key negates the number or reverses the text.  The
            # type dispatch is exact (engine values are plain int/float/bool/
            # str/list/dict), and the two loop variants keep the per-value
            # work to one type check and one tuple build
            null_key = (0 if nulls == "first" else 2, (0, 0.0))
            keys: list[tuple] = []
            append = keys.append
            if item.descending:
                for value in values:
                    if value is None:
                        append(null_key)
                        continue
                    kind = type(value)
                    if kind is int or kind is float or kind is bool:
                        append((1, (0, -float(value))))
                    elif kind is list or kind is dict:
                        append((1, (-1, _Reversed(render_value(value)))))
                    else:
                        append((1, (-1, _Reversed(str(value)))))
            else:
                for value in values:
                    if value is None:
                        append(null_key)
                        continue
                    kind = type(value)
                    if kind is int or kind is float or kind is bool:
                        append((1, (0, float(value))))
                    elif kind is list or kind is dict:
                        append((1, (1, render_value(value))))
                    else:
                        append((1, (1, str(value))))
            key_columns.append(keys)
        if len(key_columns) == 1:
            # single key: sort on the bare keys (same order as 1-tuples)
            order = sorted(range(len(rows)), key=key_columns[0].__getitem__)
        else:
            row_keys = list(zip(*key_columns))
            order = sorted(range(len(rows)), key=row_keys.__getitem__)
        return relation.with_rows([rows[index] for index in order])

    def _order_by_single_key(self, relation: Relation, item: ast.OrderItem, values: list[Any]) -> Relation | None:
        """Single-key ORDER BY over a uniformly-typed column, or None.

        When every non-null key value is exactly ``int`` (so floats and their
        NaNs, and ``bool``, fall back) or exactly ``str``, the nested tuple
        keys of the generic pass collapse to the bare float/str keys — same
        ordering, since all non-null keys share one rank and one kind.  Ints
        still sort by their ``float()`` image (ties between distinct huge
        ints included) and nulls keep their first/last block placement.
        """
        rows = relation.rows
        uniform: Any = None
        for value in values:
            kind = type(value)
            if kind is int or kind is str:
                if uniform is None:
                    uniform = kind
                elif kind is not uniform:
                    return None
            elif value is not None:
                return None
        if uniform is None:  # all-null column: nothing to reorder cheaply
            return None
        if uniform is int:
            keys = [0.0 if value is None else float(value) for value in values]
        else:
            keys = values
        descending = item.descending
        if None not in values:
            order = sorted(range(len(rows)), key=keys.__getitem__, reverse=descending)
        else:
            nulls = item.nulls
            if nulls is None:
                default_first = self.dialect.null_order is NullOrder.NULLS_FIRST
                if descending:
                    default_first = not default_first
                nulls = "first" if default_first else "last"
            null_positions = []
            non_null = []
            for index, value in enumerate(values):
                (null_positions if value is None else non_null).append(index)
            non_null.sort(key=keys.__getitem__, reverse=descending)
            order = null_positions + non_null if nulls == "first" else non_null + null_positions
        return relation.with_rows([rows[index] for index in order])

    def _apply_limit(self, relation: Relation, statement: ast.SelectStatement) -> Relation:
        if statement.limit is None and statement.offset is None:
            return relation
        self._touch("executor.limit")
        offset = 0
        if statement.offset is not None:
            offset_value = evaluate_standalone(statement.offset, self.evaluator)
            offset = int(offset_value) if offset_value is not None else 0
        rows = relation.rows[offset:]
        if statement.limit is not None:
            limit_value = evaluate_standalone(statement.limit, self.evaluator)
            if limit_value is not None:
                rows = rows[: int(limit_value)]
        return relation.with_rows(rows)


class _Reversed:
    """Wrapper inverting comparison order for DESC sorts over strings."""

    __slots__ = ("value",)

    def __init__(self, value: Any):
        self.value = value

    def __lt__(self, other: "_Reversed") -> bool:
        return self.value > other.value

    def __eq__(self, other: object) -> bool:
        return isinstance(other, _Reversed) and self.value == other.value

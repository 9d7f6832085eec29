"""MiniDB session: the engine's public, connection-like entry point.

A :class:`Session` owns one in-memory :class:`~repro.engine.storage.Database`,
a dialect profile, the expression evaluator, and the SELECT executor.  Its
``execute`` method parses a statement, enforces dialect support rules, applies
fault emulation (the known crash/hang signatures of the studied DBMSs), and
dispatches to the appropriate handler.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Any

from repro.dialects.base import DialectProfile, get_dialect
from repro.engine import ast_nodes as ast
from repro.engine import columnar
from repro.engine.columnar import evaluate_standalone
from repro.engine.executor import Relation, SelectExecutor
from repro.engine.expressions import ExpressionEvaluator, RowContext, _predicate_truth
from repro.engine.functions import FunctionRegistry
from repro.engine.parser import parse_sql
from repro.engine.storage import Column, Database, Index, Table, View
from repro.engine.values import coerce_to_declared
from repro.perf import cache as perf_cache
from repro.errors import (
    CatalogError,
    ConfigurationError,
    DatabaseError,
    EngineCrash,
    EngineHang,
    SQLSyntaxError,
    TransactionError,
    UnsupportedStatementError,
    UnsupportedTypeError,
)


@dataclass
class QueryResult:
    """Result of executing one statement."""

    columns: list[str] = field(default_factory=list)
    rows: list[list[Any]] = field(default_factory=list)
    rowcount: int = 0
    status: str = "OK"
    statement_type: str = ""

    @property
    def is_query(self) -> bool:
        return bool(self.columns)

    def scalar(self) -> Any:
        """First column of the first row, or None for empty results."""
        if self.rows and self.rows[0]:
            return self.rows[0][0]
        return None


#: Prepared-plan cache: SQL text -> parsed statement (or the syntax error it
#: raises).  Parsing accepts a superset of every studied dialect and makes no
#: dialect- or state-dependent decisions, and execution never mutates the AST,
#: so plans are shared process-wide: replaying one suite on four hosts parses
#: each distinct statement once instead of four times.
_PLAN_CACHE = perf_cache.LRUCache("plan", maxsize=16384)

#: Marks an expression that is not a constant (see :func:`_constant_value`),
#: and an InsertStatement whose VALUES rows hold one (so the constant-row
#: memo is skipped without re-scanning the AST).
_NOT_CONSTANT = object()


def _constant_value(expression: ast.Expression) -> Any:
    """The value of a literal or of a negated int/float literal, else
    :data:`_NOT_CONSTANT`.  Both evaluate to that value on every dialect,
    with no feature touch and no error."""
    if type(expression) is ast.Literal:
        return expression.value
    if type(expression) is ast.UnaryOp and expression.operator == "-" and type(expression.operand) is ast.Literal:
        value = expression.operand.value
        if type(value) is int or type(value) is float:
            return -value
    return _NOT_CONSTANT

#: Fault-signature screening cache: ``(dialect, sql)`` -> tuple of signatures
#: whose *pattern* matches the normalized statement.  Pattern matching is a
#: pure function of the statement text; the state-dependent parts of fault
#: emulation (transaction state, settings) are evaluated on every call.
_FAULT_MATCH_CACHE = perf_cache.LRUCache("fault_match", maxsize=16384)


class Session:
    """One connection to a MiniDB database instance."""

    def __init__(self, dialect: DialectProfile | str = "sqlite", enable_faults: bool = True, seed: int = 0):
        self.dialect = get_dialect(dialect) if isinstance(dialect, str) else dialect
        self.database = Database()
        self.enable_faults = enable_faults
        self.settings: dict[str, Any] = {}
        self.features: set[str] = set()
        self._touch = self.features.add
        self.statement_count = 0
        self.crashed = False
        self._functions = FunctionRegistry(self.dialect, seed=seed)
        self._evaluator = ExpressionEvaluator(
            self.dialect,
            self._functions,
            subquery_executor=self._execute_subquery,
            feature_hook=self._touch,
        )
        self._executor = SelectExecutor(self.database, self.dialect, self._evaluator, feature_hook=self._touch)
        self._in_transaction = False
        self._snapshot: dict | None = None
        self._savepoints: list[tuple[str, dict]] = []
        # tables UPDATEd inside the most recently committed transaction; used by
        # the DuckDB UPDATE-after-COMMIT crash signature (Listing 13).
        self._recently_committed_updates: set[str] = set()
        self._transaction_updates: set[str] = set()

    # -- infrastructure -----------------------------------------------------------
    #
    # ``_touch`` is bound in ``__init__`` straight to ``self.features.add``
    # (the set object lives for the session — ``reset`` never replaces it),
    # so the executor and evaluator hooks record features without an extra
    # call frame on the hot path.

    def _execute_subquery(self, statement: ast.SelectStatement, outer: RowContext | None) -> list[list[Any]]:
        return self._executor.execute_rows(statement, outer)

    def close(self) -> None:
        """Release the database (drops everything)."""
        self.database = Database()
        self._executor.database = self.database

    def reset(self) -> None:
        """Reset to a pristine database and session state (used between test files)."""
        self.database = Database()
        self._executor.database = self.database
        self.settings.clear()
        self._in_transaction = False
        self._snapshot = None
        self._savepoints.clear()
        self._recently_committed_updates.clear()
        self._transaction_updates.clear()
        self.crashed = False

    # -- fault emulation ------------------------------------------------------------

    def _match_fault_signatures(self, sql: str) -> tuple:
        normalized = " ".join(sql.split())
        return tuple(
            signature
            for signature in self.dialect.fault_signatures
            if re.search(signature.pattern, normalized, flags=re.IGNORECASE | re.DOTALL)
        )

    def _matching_fault_signatures(self, sql: str) -> tuple:
        """Signatures whose pattern matches ``sql`` (state checks happen later)."""
        if not perf_cache.caching_enabled():
            return self._match_fault_signatures(sql)
        key = (self.dialect.name, sql)
        matched = _FAULT_MATCH_CACHE.peek(key)
        if matched is None:
            matched = self._match_fault_signatures(sql)
            _FAULT_MATCH_CACHE.put(key, matched)
        return matched

    def _check_faults(self, sql: str) -> None:
        if not self.enable_faults or not self.dialect.fault_signatures:
            return
        matched = self._matching_fault_signatures(sql)
        if not matched:
            return
        normalized = " ".join(sql.split())
        for signature in matched:
            if signature.condition == "update_after_commit":
                table_match = re.match(r"UPDATE\s+(\w+)", normalized, flags=re.IGNORECASE)
                table = table_match.group(1).lower() if table_match else ""
                if self._in_transaction or table not in self._recently_committed_updates:
                    continue
            if signature.condition == "default_search_depth":
                depth = self.settings.get("optimizer_search_depth")
                if depth is not None and int(depth) == 0:
                    continue
            if signature.kind == "crash":
                self.crashed = True
                raise EngineCrash(f"{self.dialect.display_name} crashed: {signature.description} ({signature.reference})")
            raise EngineHang(f"{self.dialect.display_name} hang: {signature.description} ({signature.reference})")

    # -- public API -------------------------------------------------------------------

    def execute(self, sql: str) -> QueryResult:
        """Parse and execute a single SQL statement."""
        if self.crashed:
            raise EngineCrash(f"{self.dialect.display_name} connection is gone (previous crash)")
        sql = sql.strip().rstrip(";").strip()
        if not sql:
            return QueryResult(status="EMPTY")
        self.statement_count += 1
        self._check_faults(sql)
        statement = self._prepare_plan(sql)
        return self._dispatch(statement, sql)

    def _prepare_plan(self, sql: str) -> Any:
        """Parse ``sql``, memoizing the plan (and syntax errors) process-wide."""
        if not perf_cache.caching_enabled():
            return parse_sql(sql)
        entry = _PLAN_CACHE.peek(sql)
        if entry is None:
            try:
                entry = (True, parse_sql(sql))
            except SQLSyntaxError as error:
                entry = (False, error)
            _PLAN_CACHE.put(sql, entry)
        ok, payload = entry
        if ok:
            return payload
        # raise a fresh instance so concurrent workers never share tracebacks
        raise type(payload)(*payload.args)

    # -- dispatch ---------------------------------------------------------------------

    def _dispatch(self, statement: Any, sql: str) -> QueryResult:
        if isinstance(statement, ast.SelectStatement):
            return self._run_select(statement)
        if isinstance(statement, ast.InsertStatement):
            return self._run_insert(statement)
        if isinstance(statement, ast.UpdateStatement):
            return self._run_update(statement)
        if isinstance(statement, ast.DeleteStatement):
            return self._run_delete(statement)
        if isinstance(statement, ast.CreateTableStatement):
            return self._run_create_table(statement)
        if isinstance(statement, ast.CreateIndexStatement):
            return self._run_create_index(statement)
        if isinstance(statement, ast.CreateViewStatement):
            return self._run_create_view(statement)
        if isinstance(statement, ast.CreateSchemaStatement):
            return self._run_create_schema(statement)
        if isinstance(statement, ast.AlterSchemaStatement):
            return self._run_alter_schema(statement)
        if isinstance(statement, ast.DropStatement):
            return self._run_drop(statement)
        if isinstance(statement, ast.AlterTableStatement):
            return self._run_alter_table(statement)
        if isinstance(statement, ast.TransactionStatement):
            return self._run_transaction(statement)
        if isinstance(statement, ast.SetStatement):
            return self._run_set(statement)
        if isinstance(statement, ast.ShowStatement):
            return self._run_show(statement)
        if isinstance(statement, ast.ExplainStatement):
            return self._run_explain(statement)
        if isinstance(statement, ast.UseStatement):
            self._touch("statement.use")
            return QueryResult(status="OK", statement_type="USE")
        if isinstance(statement, ast.CopyStatement):
            return self._run_copy(statement)
        if isinstance(statement, ast.UnparsedStatement):
            raise UnsupportedStatementError(
                f"{self.dialect.display_name} (MiniDB) does not support {statement.statement_type} statements: {statement.reason}"
            )
        raise UnsupportedStatementError(f"unsupported statement: {type(statement).__name__}")

    # -- SELECT ---------------------------------------------------------------------------

    def _run_select(self, statement: ast.SelectStatement) -> QueryResult:
        relation = self._executor.execute(statement)
        return QueryResult(
            columns=relation.column_names() or ["result"],
            rows=relation.rows,
            rowcount=len(relation.rows),
            statement_type="SELECT",
        )

    # -- DML -------------------------------------------------------------------------------

    def _run_insert(self, statement: ast.InsertStatement) -> QueryResult:
        self._touch("statement.insert")
        table = self.database.get_table(statement.table)
        rows_to_insert: list[list[Any]] = []
        if statement.select is not None:
            relation = self._executor.execute(statement.select)
            rows_to_insert = [list(row) for row in relation.rows]
        else:
            rows_to_insert = self._insert_values(statement)

        inserted = 0
        for row in rows_to_insert:
            full_row = self._arrange_insert_row(table, statement.columns, row)
            table.insert_row(
                full_row,
                strict_types=self.dialect.strict_types,
                boolean_accepts_integers=self.dialect.boolean_accepts_integers,
            )
            inserted += 1
        return QueryResult(rowcount=inserted, status=f"INSERT {inserted}", statement_type="INSERT")

    def _insert_values(self, statement: ast.InsertStatement) -> list[list[Any]]:
        """Evaluate an INSERT's VALUES rows.

        Rows of constants — literals and negative numbers, the overwhelmingly
        common case in recorded suites — are memoized on the statement AST:
        their values are dialect- and state-independent, and plans are shared
        process-wide, so replaying a suite on another host reuses the
        evaluated rows.  Values are immutable scalars and downstream code (row
        arrangement, coercion) never mutates the row lists, so sharing them
        is safe.
        """
        if perf_cache.caching_enabled():
            cached = getattr(statement, "_constant_rows", None)
            if cached is None:
                cached = [[_constant_value(expression) for expression in row] for row in statement.rows]
                if any(value is _NOT_CONSTANT for row in cached for value in row):
                    cached = _NOT_CONSTANT
                statement._constant_rows = cached
            if cached is not _NOT_CONSTANT:
                return cached
        return self._evaluate_insert_rows(statement)

    def _evaluate_insert_rows(self, statement: ast.InsertStatement) -> list[list[Any]]:
        evaluator = self._evaluator
        return [
            [evaluate_standalone(expression, evaluator) for expression in row_expressions]
            for row_expressions in statement.rows
        ]

    def _arrange_insert_row(self, table: Table, columns: list[str], values: list[Any]) -> list[Any]:
        if not columns:
            if len(values) < len(table.columns):
                values = values + [None] * (len(table.columns) - len(values))
            return values
        positions = {name.lower(): index for index, name in enumerate(columns)}
        row: list[Any] = []
        for column in table.columns:
            index = positions.get(column.name.lower())
            if index is not None and index < len(values):
                row.append(values[index])
            elif column.has_default:
                row.append(column.default)
            else:
                row.append(None)
        unknown = set(positions) - {column.name.lower() for column in table.columns}
        if unknown:
            raise CatalogError(f"no such column: {sorted(unknown)[0]}")
        return row

    def _run_update(self, statement: ast.UpdateStatement) -> QueryResult:
        self._touch("statement.update")
        table = self.database.get_table(statement.table)
        columns_key, positions = columnar.relation_layout(Relation.from_table(table, table.name))
        where = None
        if statement.where is not None:
            where = columnar.expression_program(statement.where, columns_key, positions)
        assignments = [
            (column_name, columnar.expression_program(expression, columns_key, positions))
            for column_name, expression in statement.assignments
        ]
        evaluator = self._evaluator
        strict = self.dialect.strict_types
        bool_ints = self.dialect.boolean_accepts_integers
        updated = 0
        for row_index, row in enumerate(table.rows):
            if where is not None and not _predicate_truth(where(row, evaluator)):
                continue
            # every assignment reads the *old* row; the new row replaces it
            # wholesale.  An unknown column raises only once a row matches
            new_row = list(row)
            for column_name, program in assignments:
                position = table.column_position(column_name)
                new_row[position] = coerce_to_declared(
                    program(row, evaluator), table.columns[position].type_name, strict, bool_ints
                )
            table.rows[row_index] = new_row
            updated += 1
        if updated:
            table.note_rows_mutated()
        if self._in_transaction:
            self._transaction_updates.add(table.name.lower())
        return QueryResult(rowcount=updated, status=f"UPDATE {updated}", statement_type="UPDATE")

    def _run_delete(self, statement: ast.DeleteStatement) -> QueryResult:
        self._touch("statement.delete")
        table = self.database.get_table(statement.table)
        if statement.where is None:
            doomed = range(len(table.rows))
        else:
            columns_key, positions = columnar.relation_layout(Relation.from_table(table, table.name))
            where = columnar.expression_program(statement.where, columns_key, positions)
            evaluator = self._evaluator
            doomed = [row_index for row_index, row in enumerate(table.rows) if _predicate_truth(where(row, evaluator))]
        deleted = table.delete_rows(doomed)
        return QueryResult(rowcount=deleted, status=f"DELETE {deleted}", statement_type="DELETE")

    # -- DDL --------------------------------------------------------------------------------

    def _run_create_table(self, statement: ast.CreateTableStatement) -> QueryResult:
        self._touch("statement.create_table")
        columns: list[Column] = []
        if statement.as_select is not None:
            relation = self._executor.execute(statement.as_select)
            columns = [Column(name=name) for name in relation.column_names()]
            table = Table(statement.name, columns)
            table.rows = [list(row) for row in relation.rows]
            self.database.create_table(table, if_not_exists=statement.if_not_exists)
            return QueryResult(status="CREATE TABLE", statement_type="CREATE TABLE")
        for definition in statement.columns:
            self._validate_column_type(definition)
            default_value = None
            has_default = definition.default is not None
            if has_default:
                default_value = evaluate_standalone(definition.default, self._evaluator)
            columns.append(
                Column(
                    name=definition.name,
                    type_name=definition.type_name,
                    not_null=definition.not_null,
                    primary_key=definition.primary_key or definition.name in statement.primary_key_columns,
                    unique=definition.unique,
                    default=default_value,
                    has_default=has_default,
                )
            )
        self.database.create_table(Table(statement.name, columns), if_not_exists=statement.if_not_exists)
        return QueryResult(status="CREATE TABLE", statement_type="CREATE TABLE")

    def _validate_column_type(self, definition: ast.ColumnDefinition) -> None:
        if definition.type_name is None:
            return
        type_name = definition.type_name
        base = type_name.split("(")[0].strip().upper()
        self._touch(f"type.{base.lower()}")
        if self.dialect.requires_varchar_length and base == "VARCHAR" and "(" not in type_name:
            raise UnsupportedTypeError("VARCHAR requires a length in this dialect")
        if not self.dialect.supports_type(base):
            from repro.engine.values import is_known_type

            if self.dialect.strict_types or not is_known_type(type_name):
                raise UnsupportedTypeError(f"unknown data type: {type_name}")

    def _run_create_index(self, statement: ast.CreateIndexStatement) -> QueryResult:
        self._touch("statement.create_index")
        index = Index(name=statement.name, table=statement.table, columns=statement.columns, unique=statement.unique)
        self.database.create_index(index, if_not_exists=statement.if_not_exists)
        return QueryResult(status="CREATE INDEX", statement_type="CREATE INDEX")

    def _run_create_view(self, statement: ast.CreateViewStatement) -> QueryResult:
        self._touch("statement.create_view")
        self.database.create_view(
            View(name=statement.name, query=statement.query),
            if_not_exists=statement.if_not_exists,
            or_replace=statement.or_replace,
        )
        return QueryResult(status="CREATE VIEW", statement_type="CREATE VIEW")

    def _run_create_schema(self, statement: ast.CreateSchemaStatement) -> QueryResult:
        if "CREATE SCHEMA" in self.dialect.unsupported_statements:
            raise UnsupportedStatementError(f"{self.dialect.display_name} does not support CREATE SCHEMA")
        self._touch("statement.create_schema")
        self.database.create_schema(statement.name, if_not_exists=statement.if_not_exists)
        return QueryResult(status="CREATE SCHEMA", statement_type="CREATE SCHEMA")

    def _run_alter_schema(self, statement: ast.AlterSchemaStatement) -> QueryResult:
        if "ALTER SCHEMA" in self.dialect.unsupported_statements:
            raise UnsupportedStatementError(f"{self.dialect.display_name} does not support ALTER SCHEMA")
        self._touch("statement.alter_schema")
        self.database.rename_schema(statement.name, statement.new_name)
        return QueryResult(status="ALTER SCHEMA", statement_type="ALTER SCHEMA")

    def _run_drop(self, statement: ast.DropStatement) -> QueryResult:
        self._touch(f"statement.drop_{statement.object_kind.lower()}")
        kind = statement.object_kind
        if kind == "TABLE":
            self.database.drop_table(statement.name, if_exists=statement.if_exists)
        elif kind == "VIEW":
            self.database.drop_view(statement.name, if_exists=statement.if_exists)
        elif kind == "INDEX":
            self.database.drop_index(statement.name, if_exists=statement.if_exists)
        elif kind in ("SCHEMA", "DATABASE"):
            self.database.drop_schema(statement.name, if_exists=statement.if_exists)
        else:
            raise UnsupportedStatementError(f"DROP {kind} is not supported")
        return QueryResult(status=f"DROP {kind}", statement_type=f"DROP {kind}")

    def _run_alter_table(self, statement: ast.AlterTableStatement) -> QueryResult:
        self._touch("statement.alter_table")
        table = self.database.get_table(statement.table)
        if statement.action == "add_column" and statement.column is not None:
            self._validate_column_type(statement.column)
            default_value = None
            has_default = statement.column.default is not None
            if has_default:
                default_value = evaluate_standalone(statement.column.default, self._evaluator)
            table.columns.append(
                Column(
                    name=statement.column.name,
                    type_name=statement.column.type_name,
                    not_null=statement.column.not_null,
                    default=default_value,
                    has_default=has_default,
                )
            )
            for row in table.rows:
                row.append(default_value)
            table.note_schema_changed()
        elif statement.action == "drop_column" and statement.old_column:
            position = table.column_position(statement.old_column)
            del table.columns[position]
            for row in table.rows:
                del row[position]
            table.note_schema_changed()
        elif statement.action == "rename_to" and statement.new_name:
            self.database.rename_table(statement.table, statement.new_name)
        elif statement.action == "rename_column" and statement.old_column and statement.new_name:
            position = table.column_position(statement.old_column)
            table.columns[position].name = statement.new_name
            table.note_schema_changed()
        else:
            raise UnsupportedStatementError(f"unsupported ALTER TABLE action: {statement.action}")
        return QueryResult(status="ALTER TABLE", statement_type="ALTER TABLE")

    # -- transactions ---------------------------------------------------------------------------

    def _run_transaction(self, statement: ast.TransactionStatement) -> QueryResult:
        action = statement.action
        self._touch(f"transaction.{action}")
        if action == "start_transaction" and not self.dialect.supports_start_transaction:
            raise UnsupportedStatementError(f"{self.dialect.display_name} does not support START TRANSACTION syntax")
        if action in ("begin", "start_transaction"):
            if self._in_transaction:
                if self.dialect.name == "sqlite":
                    raise TransactionError("cannot start a transaction within a transaction")
                # PostgreSQL and friends emit a warning and continue.
                return QueryResult(status="BEGIN", statement_type="BEGIN")
            self._in_transaction = True
            self._transaction_updates.clear()
            self._snapshot = self.database.snapshot()
            return QueryResult(status="BEGIN", statement_type="BEGIN")
        if action == "commit":
            if not self._in_transaction:
                if self.dialect.name in ("sqlite",):
                    raise TransactionError("cannot commit - no transaction is active")
                return QueryResult(status="COMMIT", statement_type="COMMIT")
            self._in_transaction = False
            self._snapshot = None
            self._savepoints.clear()
            self._recently_committed_updates = set(self._transaction_updates)
            self._transaction_updates.clear()
            return QueryResult(status="COMMIT", statement_type="COMMIT")
        if action == "rollback":
            if not self._in_transaction:
                if self.dialect.name in ("sqlite",):
                    raise TransactionError("cannot rollback - no transaction is active")
                return QueryResult(status="ROLLBACK", statement_type="ROLLBACK")
            if self._snapshot is not None:
                self.database.restore(self._snapshot)
                self._executor.database = self.database
            self._in_transaction = False
            self._snapshot = None
            self._savepoints.clear()
            self._transaction_updates.clear()
            return QueryResult(status="ROLLBACK", statement_type="ROLLBACK")
        if action == "savepoint":
            self._savepoints.append((statement.name or "", self.database.snapshot()))
            return QueryResult(status="SAVEPOINT", statement_type="SAVEPOINT")
        if action == "rollback_to":
            for name, snapshot in reversed(self._savepoints):
                if name == (statement.name or ""):
                    self.database.restore(snapshot)
                    self._executor.database = self.database
                    return QueryResult(status="ROLLBACK", statement_type="ROLLBACK")
            raise TransactionError(f"no such savepoint: {statement.name}")
        if action == "release":
            self._savepoints = [entry for entry in self._savepoints if entry[0] != (statement.name or "")]
            return QueryResult(status="RELEASE", statement_type="RELEASE SAVEPOINT")
        raise UnsupportedStatementError(f"unsupported transaction action: {action}")

    # -- settings -----------------------------------------------------------------------------------

    def _run_set(self, statement: ast.SetStatement) -> QueryResult:
        name = statement.name.lower()
        if statement.is_pragma:
            if not self.dialect.supports_pragma:
                raise UnsupportedStatementError(f"{self.dialect.display_name} does not support PRAGMA statements")
            self._touch("statement.pragma")
            if not self.dialect.supports_setting(name):
                if self.dialect.ignores_unknown_pragma:
                    return QueryResult(status="PRAGMA", statement_type="PRAGMA")
                raise ConfigurationError(f"unrecognized pragma: {name}")
        else:
            if not self.dialect.supports_set:
                raise UnsupportedStatementError(f"{self.dialect.display_name} does not support SET statements")
            self._touch("statement.set")
            if not self.dialect.supports_setting(name) and self.dialect.rejects_unknown_setting:
                raise ConfigurationError(f'unrecognized configuration parameter "{name}"')
        value: Any = None
        if statement.value is not None:
            value = evaluate_standalone(statement.value, self._evaluator)
        self.settings[name] = value
        if name == "seed" and value is not None:
            try:
                self._functions.reseed(int(float(value)))
            except (TypeError, ValueError):
                pass
        result_type = "PRAGMA" if statement.is_pragma else "SET"
        if statement.is_pragma and statement.value is None and self.dialect.supports_setting(name):
            # PRAGMA used as a query returns the current value.
            current = self.settings.get(name)
            return QueryResult(columns=[name], rows=[[current]], rowcount=1, statement_type="PRAGMA")
        return QueryResult(status=result_type, statement_type=result_type)

    def _run_show(self, statement: ast.ShowStatement) -> QueryResult:
        if "SHOW" not in self.dialect.extra_statements:
            raise UnsupportedStatementError(f"{self.dialect.display_name} does not support SHOW statements")
        self._touch("statement.show")
        name = statement.name.lower()
        if name in ("tables", "all tables"):
            rows = [[table] for table in sorted(self.database.tables)]
            return QueryResult(columns=["name"], rows=rows, rowcount=len(rows), statement_type="SHOW")
        value = self.settings.get(name)
        if value is None and not self.dialect.supports_setting(name):
            raise ConfigurationError(f'unrecognized configuration parameter "{name}"')
        return QueryResult(columns=[name], rows=[[value]], rowcount=1, statement_type="SHOW")

    # -- EXPLAIN / COPY -------------------------------------------------------------------------------

    def _run_explain(self, statement: ast.ExplainStatement) -> QueryResult:
        if "EXPLAIN" not in self.dialect.extra_statements and self.dialect.name != "sqlite":
            raise UnsupportedStatementError(f"{self.dialect.display_name} does not support EXPLAIN")
        self._touch("statement.explain")
        inner = statement.statement
        target = "unknown"
        if isinstance(inner, ast.SelectStatement):
            tables = [ref.name for ref in inner.core.from_tables if ref.name]
            target = ", ".join(tables) if tables else "expression"
        plan_lines = self._format_plan(target)
        return QueryResult(columns=["plan"], rows=[[line] for line in plan_lines], rowcount=len(plan_lines), statement_type="EXPLAIN")

    def _format_plan(self, target: str) -> list[str]:
        style = self.dialect.explain_style
        output_mode = str(self.settings.get("explain_output", "physical")).lower()
        if style == "postgres":
            return [f"Seq Scan on {target}  (cost=0.00..1.00 rows=1 width=4)"]
        if style == "duckdb":
            if "optimized" in output_mode:
                return ["┌───────────────────────────┐", f"│      OPTIMIZED PLAN: {target}     │", "└───────────────────────────┘"]
            return ["┌───────────────────────────┐", f"│      SEQ_SCAN {target}        │", "└───────────────────────────┘"]
        if style == "mysql":
            return [f"-> Table scan on {target}  (cost=0.35 rows=1)"]
        return [f"SCAN {target}"]

    def _run_copy(self, statement: ast.CopyStatement) -> QueryResult:
        if "COPY" in self.dialect.unsupported_statements or "COPY" not in self.dialect.extra_statements:
            raise UnsupportedStatementError(f"{self.dialect.display_name} does not support COPY")
        self._touch("statement.copy")
        # File access is environment-dependent; the paper's RQ3 classifies these
        # failures as File Paths.  MiniDB has no filesystem, so loading fails.
        raise DatabaseError(f"could not open file {statement.source!r} for {statement.direction.upper()}: no such file or directory")


def connect(dialect: DialectProfile | str = "sqlite", enable_faults: bool = True, seed: int = 0) -> Session:
    """Create a new MiniDB session for the given dialect."""
    return Session(dialect=dialect, enable_faults=enable_faults, seed=seed)

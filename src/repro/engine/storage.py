"""In-memory storage layer: columns, tables, indexes, views, schemas, catalog.

The storage model is deliberately simple — row lists guarded by a catalog —
because the reproduction's experiments stress dialect semantics and test-suite
mechanics, not storage performance.  Indexes are maintained (and used for
point-lookups) so that ``CREATE INDEX``-heavy SLT files exercise a real code
path, which matters for the Table 8 coverage experiment.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import Any, Iterable

from repro.errors import CatalogError, ConstraintViolationError
from repro.engine.values import SQLType, coerce_to_declared, declared_runtime_type, is_known_type


@dataclass
class Column:
    """Schema information for one table column."""

    name: str
    type_name: str | None = None
    not_null: bool = False
    primary_key: bool = False
    unique: bool = False
    default: Any = None
    has_default: bool = False


@dataclass
class Index:
    """A secondary index over one or more columns of a table."""

    name: str
    table: str
    columns: list[str]
    unique: bool = False
    entries: dict[tuple, list[int]] = field(default_factory=dict)

    def rebuild(self, table: "Table") -> None:
        """Recompute the key -> row-position mapping from the table's rows."""
        self.entries.clear()
        positions = [table.column_position(column) for column in self.columns]
        self._positions = positions
        self._schema_version = table.schema_version
        for row_index, row in enumerate(table.rows):
            key = tuple(row[position] for position in positions)
            self.entries.setdefault(key, []).append(row_index)

    def note_insert(self, table: "Table", row_index: int, row: list[Any]) -> None:
        """Append one row's key to :attr:`entries` without a full rebuild.

        INSERT is the index-maintenance hot path (CREATE-INDEX-heavy SLT files
        insert hundreds of rows per index); appending one entry replaces the
        seed's O(table) :meth:`rebuild` per insert.  The cached column
        positions are invalidated by schema changes (``table.schema_version``),
        in which case this falls back to :meth:`rebuild` — which re-resolves
        the indexed columns and therefore raises the same ``CatalogError`` the
        rebuild-per-insert path raised when an indexed column was renamed or
        dropped.
        """
        positions = getattr(self, "_positions", None)
        if positions is None or getattr(self, "_schema_version", None) != table.schema_version:
            self.rebuild(table)
            return
        key = tuple(row[position] for position in positions)
        self.entries.setdefault(key, []).append(row_index)

    def check_unique(self, table: "Table") -> None:
        if not self.unique:
            return
        for key, row_indexes in self.entries.items():
            if len(row_indexes) > 1 and all(part is not None for part in key):
                raise ConstraintViolationError(f"UNIQUE constraint failed on index {self.name} for key {key}")


class Table:
    """A base table: column schema plus a list of row tuples (as lists).

    Rows are the primary representation; :meth:`column_data` exposes the lazy
    columnar view (per-column value lists) the constraint checks consume.  Two
    counters invalidate the derived caches: ``version`` changes on any content
    mutation (insert, delete, update) and ``schema_version`` additionally on
    column-list changes (ALTER TABLE), which is what tells indexes their
    cached column positions are stale.
    """

    def __init__(self, name: str, columns: list[Column]):
        self.name = name
        self.columns = columns
        self.rows: list[list[Any]] = []
        self.indexes: dict[str, Index] = {}
        self.version = 0
        self.schema_version = 0
        #: (version, per-column value lists) — the lazy columnar view
        self._column_data: tuple[int, list[list[Any]]] | None = None
        #: (version, (pk positions, pk key set, {position: unique value set}))
        self._constraint_sets: tuple[int, tuple] | None = None
        #: (schema_version, per-column runtime SQLType or None) — lets
        #: insert_row skip coercion when a value's exact type already matches
        self._coerce_targets: tuple[int, list[SQLType | None]] | None = None

    def note_rows_mutated(self) -> None:
        """Invalidate content-derived caches (UPDATE edits rows in place)."""
        self.version += 1

    def note_schema_changed(self) -> None:
        """Invalidate schema-derived caches too (ALTER TABLE)."""
        self.version += 1
        self.schema_version += 1

    def column_data(self) -> list[list[Any]]:
        """Per-column value lists for the current rows (cached per version)."""
        cached = self._column_data
        if cached is not None and cached[0] == self.version:
            return cached[1]
        rows = self.rows
        data = [[row[position] for row in rows] for position in range(len(self.columns))]
        self._column_data = (self.version, data)
        return data

    def column_names(self) -> list[str]:
        return [column.name for column in self.columns]

    def column_position(self, name: str) -> int:
        lowered = name.lower()
        for position, column in enumerate(self.columns):
            if column.name.lower() == lowered:
                return position
        raise CatalogError(f"no such column: {self.name}.{name}")

    def insert_row(self, values: list[Any], strict_types: bool, boolean_accepts_integers: bool = True) -> None:
        """Insert one row after applying column coercion and constraints."""
        if len(values) != len(self.columns):
            raise ConstraintViolationError(
                f"table {self.name} has {len(self.columns)} columns but {len(values)} values were supplied"
            )
        targets = self._coerce_targets
        if targets is None or targets[0] != self.schema_version:
            resolved = [
                declared_runtime_type(column.type_name)
                if column.type_name and is_known_type(column.type_name)
                else None
                for column in self.columns
            ]
            targets = (self.schema_version, resolved)
            self._coerce_targets = targets
        coerced: list[Any] = []
        for column, target, value in zip(self.columns, targets[1], values):
            # exact-type match: coercion is the identity in both strict and
            # dynamic modes (bool, an int subclass, misses the exact check and
            # keeps its own conversion path)
            value_type = type(value)
            if (
                (value_type is int and target is SQLType.INTEGER)
                or (value_type is str and target is SQLType.TEXT)
                or (value_type is float and target is SQLType.FLOAT)
            ):
                coerced.append(value)
                continue
            converted = coerce_to_declared(value, column.type_name, strict_types, boolean_accepts_integers)
            if converted is None and (column.not_null or column.primary_key):
                raise ConstraintViolationError(f"NOT NULL constraint failed: {self.name}.{column.name}")
            coerced.append(converted)
        self._check_primary_key(coerced)
        self.rows.append(coerced)
        self.version += 1
        self._note_insert(coerced, len(self.rows) - 1)

    def _constraint_sets_current(self) -> tuple:
        """Hashed key/value sets for PK and UNIQUE checks, built per version.

        Values that cannot stand in for the seed's linear ``==`` scan are left
        out of the sets: unhashable values (lists/dicts) force a scan via the
        ``TypeError`` fallback in :meth:`_check_primary_key`, and NaNs — which
        compare unequal to themselves, so the seed scan never matches them but
        a set *would* via the identity shortcut — are excluded on both sides
        (``value == value`` is False exactly for NaN-bearing values).
        """
        cached = self._constraint_sets
        if cached is not None and cached[0] == self.version:
            return cached[1]
        key_positions = [index for index, column in enumerate(self.columns) if column.primary_key]
        unique_positions = [index for index, column in enumerate(self.columns) if column.unique]
        data = self.column_data() if (key_positions or unique_positions) else []
        pk_keys: set[tuple] = set()
        if key_positions:
            for key in zip(*(data[position] for position in key_positions)):
                try:
                    if key == key:
                        pk_keys.add(key)
                except TypeError:  # pragma: no cover - defensive
                    pass
        unique_sets: dict[int, set] = {}
        for position in unique_positions:
            values: set = set()
            for value in data[position]:
                if value is None or value != value:
                    continue
                try:
                    values.add(value)
                except TypeError:
                    pass
            unique_sets[position] = values
        sets = (key_positions, pk_keys, unique_sets)
        self._constraint_sets = (self.version, sets)
        return sets

    def _check_primary_key(self, new_row: list[Any]) -> None:
        key_positions, pk_keys, unique_sets = self._constraint_sets_current()
        if key_positions:
            new_key = tuple(new_row[position] for position in key_positions)
            if all(part is not None for part in new_key):
                if new_key == new_key:
                    try:
                        present = new_key in pk_keys
                    except TypeError:
                        present = any(
                            tuple(row[position] for position in key_positions) == new_key for row in self.rows
                        )
                else:
                    # NaN component: tuple equality short-circuits on element
                    # identity, so the seed scan *can* match when the very same
                    # NaN object is stored (INSERT .. SELECT from the same
                    # table) — replicate the scan rather than guessing
                    present = any(
                        tuple(row[position] for position in key_positions) == new_key for row in self.rows
                    )
                if present:
                    raise ConstraintViolationError(f"PRIMARY KEY constraint failed: {self.name}")
        for position, value_set in unique_sets.items():
            value = new_row[position]
            if value is None:
                continue
            if value == value:
                try:
                    present = value in value_set
                except TypeError:
                    present = any(row[position] == value for row in self.rows)
            else:
                present = False
            if present:
                raise ConstraintViolationError(f"UNIQUE constraint failed: {self.name}.{self.columns[position].name}")

    def _note_insert(self, row: list[Any], row_index: int) -> None:
        """Extend the derived caches with one appended row (no rebuilds)."""
        cached = self._constraint_sets
        if cached is not None and cached[0] == self.version - 1:
            key_positions, pk_keys, unique_sets = cached[1]
            if key_positions:
                key = tuple(row[position] for position in key_positions)
                if key == key:
                    try:
                        pk_keys.add(key)
                    except TypeError:
                        pass
            for position, value_set in unique_sets.items():
                value = row[position]
                if value is not None and value == value:
                    try:
                        value_set.add(value)
                    except TypeError:
                        pass
            self._constraint_sets = (self.version, cached[1])
        data = self._column_data
        if data is not None and data[0] == self.version - 1:
            for column_values, value in zip(data[1], row):
                column_values.append(value)
            self._column_data = (self.version, data[1])
        for index in self.indexes.values():
            index.note_insert(self, row_index, row)

    def delete_rows(self, row_indexes: Iterable[int]) -> int:
        doomed = set(row_indexes)
        before = len(self.rows)
        self.rows = [row for index, row in enumerate(self.rows) if index not in doomed]
        self.version += 1
        # deletions compact row positions, so every index entry shifts: one
        # rebuild pass per index is the same complexity as remapping
        self._refresh_indexes()
        return before - len(self.rows)

    def _refresh_indexes(self) -> None:
        for index in self.indexes.values():
            index.rebuild(self)

    def copy(self) -> "Table":
        clone = Table(self.name, copy.deepcopy(self.columns))
        clone.rows = [list(row) for row in self.rows]
        clone.indexes = copy.deepcopy(self.indexes)
        # keep the copied indexes' cached schema_version consistent
        clone.version = self.version
        clone.schema_version = self.schema_version
        return clone


@dataclass
class View:
    """A named stored query."""

    name: str
    query: Any  # ast.SelectStatement; Any avoids an import cycle


class Database:
    """The catalog: tables, views, indexes, and schemas of one database."""

    def __init__(self, name: str = "main"):
        self.name = name
        self.tables: dict[str, Table] = {}
        self.views: dict[str, View] = {}
        self.schemas: dict[str, dict] = {"main": {}}

    # -- tables ---------------------------------------------------------------

    def create_table(self, table: Table, if_not_exists: bool = False) -> None:
        key = table.name.lower()
        if key in self.tables or key in self.views:
            if if_not_exists:
                return
            raise CatalogError(f"table {table.name} already exists")
        self.tables[key] = table

    def drop_table(self, name: str, if_exists: bool = False) -> None:
        key = name.lower()
        if key not in self.tables:
            if if_exists:
                return
            raise CatalogError(f"no such table: {name}")
        del self.tables[key]

    def get_table(self, name: str) -> Table:
        try:
            return self.tables[name.lower()]
        except KeyError:
            raise CatalogError(f"no such table: {name}") from None

    def rename_table(self, old: str, new: str) -> None:
        table = self.get_table(old)
        if new.lower() in self.tables:
            raise CatalogError(f"table {new} already exists")
        del self.tables[old.lower()]
        table.name = new
        self.tables[new.lower()] = table

    # -- views ----------------------------------------------------------------

    def create_view(self, view: View, if_not_exists: bool = False, or_replace: bool = False) -> None:
        key = view.name.lower()
        if key in self.views and not or_replace:
            if if_not_exists:
                return
            raise CatalogError(f"view {view.name} already exists")
        if key in self.tables:
            raise CatalogError(f"table {view.name} already exists")
        self.views[key] = view

    def drop_view(self, name: str, if_exists: bool = False) -> None:
        key = name.lower()
        if key not in self.views:
            if if_exists:
                return
            raise CatalogError(f"no such view: {name}")
        del self.views[key]

    def get_view(self, name: str) -> View | None:
        return self.views.get(name.lower())

    # -- indexes ---------------------------------------------------------------

    def create_index(self, index: Index, if_not_exists: bool = False) -> None:
        table = self.get_table(index.table)
        for column in index.columns:
            table.column_position(column)  # raises CatalogError if missing
        existing = self.find_index(index.name)
        if existing is not None:
            if if_not_exists:
                return
            raise CatalogError(f"index {index.name} already exists")
        index.rebuild(table)
        index.check_unique(table)
        table.indexes[index.name.lower()] = index

    def drop_index(self, name: str, if_exists: bool = False) -> None:
        for table in self.tables.values():
            if name.lower() in table.indexes:
                del table.indexes[name.lower()]
                return
        if not if_exists:
            raise CatalogError(f"no such index: {name}")

    def find_index(self, name: str) -> Index | None:
        for table in self.tables.values():
            index = table.indexes.get(name.lower())
            if index is not None:
                return index
        return None

    # -- schemas ----------------------------------------------------------------

    def create_schema(self, name: str, if_not_exists: bool = False) -> None:
        key = name.lower()
        if key in self.schemas:
            if if_not_exists:
                return
            raise CatalogError(f"schema {name} already exists")
        self.schemas[key] = {}

    def drop_schema(self, name: str, if_exists: bool = False) -> None:
        key = name.lower()
        if key not in self.schemas:
            if if_exists:
                return
            raise CatalogError(f"no such schema: {name}")
        if key == "main":
            raise CatalogError("cannot drop schema main")
        del self.schemas[key]

    def rename_schema(self, old: str, new: str) -> None:
        key = old.lower()
        if key not in self.schemas:
            raise CatalogError(f"no such schema: {old}")
        self.schemas[new.lower()] = self.schemas.pop(key)

    # -- snapshots (used by the transaction manager) ------------------------------

    def snapshot(self) -> dict:
        """Deep-copy the whole catalog for transaction rollback."""
        return {
            "tables": {name: table.copy() for name, table in self.tables.items()},
            "views": dict(self.views),
            "schemas": copy.deepcopy(self.schemas),
        }

    def restore(self, snapshot: dict) -> None:
        self.tables = snapshot["tables"]
        self.views = snapshot["views"]
        self.schemas = snapshot["schemas"]

"""Synthetic corpus generation: build native-format test suites from profiles.

The pipeline per suite is:

1. *Plan* — draw a sequence of logical records (statement kind, SQL text,
   guards, injected dependency, runner commands) from the suite's
   :class:`~repro.corpus.profiles.SuiteProfile`.
2. *Record* — execute each statement on the **donor** adapter and capture the
   expected behaviour (success, error, or query result), exactly how a
   developer-recorded test suite comes to be.  Dependency-injected records are
   recorded "as in the developers' environment" instead (hard-coded paths that
   existed there, extension functions that were loaded there, the original
   client's rendering), which is what later makes them fail in SQuaLity's
   environment — reproducing the RQ3 dependency analysis.
3. *Serialize* — write the records in the suite's native on-disk format (SLT,
   DuckDB-SLT, PostgreSQL ``.sql``/``.out``, MySQL ``.test``/``.result``).

``build_suite`` then round-trips the serialized text through the corresponding
native-format parser, so every experiment downstream exercises the same
parse → run → validate pipeline the paper's SQuaLity uses.
"""

from __future__ import annotations

import pickle
import random
from dataclasses import dataclass, field
from typing import Any

from repro.adapters.base import ExecutionStatus
from repro.adapters.registry import create_adapter
from repro.core.comparison import normalize_value
from repro.core.parallel import WorkerPool, fan_out
from repro.core.records import TestSuite, canonical_dbms
from repro.errors import CodecError
from repro.store import artifacts as artifact_store
from repro.store import codec as result_codec
from repro.store.keys import FILE_DONOR_NAMESPACE, donor_file_key
from repro.corpus.datagen import (
    SchemaState,
    choose_bucket,
    constant_expression,
    division_expression,
    like_pattern,
    make_table,
    render_create_table,
    render_insert,
    render_predicate,
)
from repro.corpus.profiles import PAPER_PROFILES, SuiteProfile
from repro.formats import parse_test_text

#: Records per generated file (scaled-down versions of the paper's averages,
#: chosen so the full cross-execution matrix runs in minutes).
DEFAULT_RECORDS_PER_FILE = {"slt": 130, "postgres": 55, "duckdb": 14, "mysql": 45}

#: Default number of generated files per suite.
DEFAULT_FILE_COUNT = {"slt": 24, "postgres": 34, "duckdb": 48, "mysql": 28}

#: Extensions the DuckDB suite requires that are NOT available in SQuaLity's
#: environment (driving the pre-filtering rate of Table 4).
_UNAVAILABLE_EXTENSIONS = ("icu", "tpch", "sqlsmith", "httpfs", "spatial")


@dataclass
class LogicalRecord:
    """One planned record before expected-behaviour recording."""

    kind: str
    sql: str = ""
    is_query_hint: bool = True
    guards: list[tuple[str, str]] = field(default_factory=list)   # (skipif|onlyif, dbms)
    control: tuple[str, list[str]] | None = None                  # runner command
    dependency: str | None = None                                 # RQ3 category key
    expected_override: dict[str, Any] | None = None


@dataclass
class ResolvedRecord:
    """A logical record plus its recorded expectation."""

    logical: LogicalRecord
    kind: str = "statement"        # "statement" | "query" | "control"
    expect_ok: bool = True
    expected_error: str | None = None
    type_string: str = "T"
    expected_rows: list[list[str]] = field(default_factory=list)
    column_names: list[str] = field(default_factory=list)


@dataclass
class GeneratedFile:
    """One generated test file in native form."""

    name: str
    primary_text: str
    expected_text: str | None = None   # .out / .result counterpart


# ---------------------------------------------------------------------------
# Planning
# ---------------------------------------------------------------------------


def _plan_file(profile: SuiteProfile, rng: random.Random, records_per_file: int, file_index: int = 0) -> list[LogicalRecord]:
    schema = SchemaState()
    records: list[LogicalRecord] = []

    # DuckDB-style pre-filtering: some files require an extension that is not
    # loaded; every record after the ``require`` is skipped by the runner.
    prefilter_position: int | None = None
    if profile.name == "duckdb" and rng.random() < profile.prefilter_rate * 2.2:
        prefilter_position = rng.randint(3, max(4, (records_per_file * 2) // 3))

    # initial schema
    for _ in range(rng.randint(1, 2)):
        records.extend(_make_schema_setup(profile, schema, rng))

    # Deterministically seed the bug-triggering patterns the paper's RQ4 found
    # (Listings 12-16): they live in specific donor suites and surface only
    # when those suites are transplanted onto other hosts.
    records.extend(_bug_trigger_records(profile, file_index, schema, rng))

    kinds = list(profile.statement_mix)
    weights = [profile.statement_mix[kind] for kind in kinds]

    # SLT clusters non-standard statement kinds in a minority of files: the
    # paper reports 35.9% of SLT files contain CREATE INDEX and only those
    # files (plus a few using transactions) are not exclusively standard
    # (Table 3).  Disable those kinds for the remaining files.
    disabled_kinds: set[str] = set()
    if profile.name == "slt":
        if rng.random() >= 0.359:
            disabled_kinds.add("create_index")
        if rng.random() >= 0.08:
            disabled_kinds.add("begin_commit")
        if disabled_kinds:
            weights = [0.0 if kind in disabled_kinds else weight for kind, weight in zip(kinds, weights)]

    while _count_sql(records) < records_per_file:
        if prefilter_position is not None and _count_sql(records) >= prefilter_position:
            records.append(LogicalRecord(kind="require", control=("require", [rng.choice(_UNAVAILABLE_EXTENSIONS)])))
            prefilter_position = None
        dependency = _maybe_dependency(profile, rng)
        if dependency is not None:
            records.append(_make_dependency_record(dependency, profile, schema, rng))
            continue
        kind = rng.choices(kinds, weights=weights, k=1)[0]
        new_records = _make_records_of_kind(kind, profile, schema, rng)
        records.extend(new_records)
    return records


def _count_sql(records: list[LogicalRecord]) -> int:
    return sum(1 for record in records if record.control is None)


def _bug_trigger_records(profile: SuiteProfile, file_index: int, schema: SchemaState, rng: random.Random) -> list[LogicalRecord]:
    """Bug-triggering statements the paper's reuse campaign discovered.

    * PostgreSQL suite, file 0: ``ALTER SCHEMA .. RENAME`` (crashes DuckDB,
      Listing 12); file 1: UPDATE-after-COMMIT (crashes DuckDB, Listing 13);
      file 2: the unconstrained recursive CTE (hangs DuckDB, Listing 15) and
      the ``generate_series`` overflow (hangs SQLite's series extension,
      Listing 16).  The triggers live in separate files because a crash aborts
      the rest of its file.
    * DuckDB suite, file 0: recursive CTE mixing UNION ALL / UNION (crashes
      MySQL, Listing 14 / CVE-2024-20962).
    * SLT, file 0: a >40-way join (hangs MySQL's exhaustive join-order search).
    """
    records: list[LogicalRecord] = []
    if profile.name == "postgres" and file_index == 0:
        records.append(LogicalRecord(kind="schema_ddl", sql="CREATE SCHEMA regress_schema_a", is_query_hint=False))
        records.append(LogicalRecord(kind="schema_ddl", sql="ALTER SCHEMA regress_schema_a RENAME TO regress_schema_b", is_query_hint=False))
    if profile.name == "postgres" and file_index == 1:
        crash_table = make_table(schema, rng, column_count=2)
        schema.add(crash_table)
        integer_column = crash_table.integer_columns()[0] if crash_table.integer_columns() else crash_table.column_names()[0]
        records.append(LogicalRecord(kind="create_table", sql=render_create_table(crash_table), is_query_hint=False))
        records.append(LogicalRecord(kind="begin", sql="BEGIN", is_query_hint=False))
        records.append(LogicalRecord(kind="insert", sql=render_insert(crash_table, rng, row_count=1), is_query_hint=False))
        records.append(LogicalRecord(kind="update", sql=f"UPDATE {crash_table.name} SET {integer_column} = {integer_column} + 10", is_query_hint=False))
        records.append(LogicalRecord(kind="commit", sql="COMMIT", is_query_hint=False))
        records.append(LogicalRecord(kind="update", sql=f"UPDATE {crash_table.name} SET {integer_column} = {integer_column} + 10", is_query_hint=False))
    if profile.name == "postgres" and file_index == 2:
        records.append(
            LogicalRecord(
                kind="recursive_cte_subquery",
                sql=(
                    "WITH RECURSIVE x(n) AS (SELECT 1 UNION ALL SELECT n+1 FROM x WHERE n IN (SELECT * FROM x)) SELECT * FROM x"
                ),
            )
        )
        records.append(
            LogicalRecord(kind="series_overflow", sql="SELECT count(*) FROM generate_series(9223372036854775807, 9223372036854775807)")
        )
    if profile.name == "duckdb" and file_index == 0:
        records.append(
            LogicalRecord(
                kind="recursive_cte_union_mix",
                sql=(
                    "WITH RECURSIVE t(x) AS (SELECT 1 UNION ALL (SELECT x+1 FROM t WHERE x < 4 "
                    "UNION SELECT x*2 FROM t WHERE x >= 4 AND x < 8)) SELECT * FROM t ORDER BY x"
                ),
            )
        )
    if profile.name == "slt" and file_index == 0:
        join_table = make_table(schema, rng, column_count=2)
        schema.add(join_table)
        records.append(LogicalRecord(kind="create_table", sql=render_create_table(join_table), is_query_hint=False))
        records.append(LogicalRecord(kind="insert", sql=render_insert(join_table, rng, row_count=1), is_query_hint=False))
        aliases = ", ".join(f"{join_table.name} AS a{i}" for i in range(1, 43))
        records.append(LogicalRecord(kind="many_table_join", sql=f"SELECT count(*) FROM {aliases}"))
    return records


def _maybe_dependency(profile: SuiteProfile, rng: random.Random) -> str | None:
    for category, rate in profile.dependency_rates.items():
        if rng.random() < rate:
            return category
    return None


def _make_schema_setup(profile: SuiteProfile, schema: SchemaState, rng: random.Random) -> list[LogicalRecord]:
    """Create a table plus a few inserts.

    PostgreSQL and DuckDB test files frequently build their schemas from
    dialect-specific types (the paper's RQ2/RQ4 Types category); when they do,
    every later statement touching that table fails on hosts that reject the
    type — the cascade the paper describes.
    """
    types: tuple[str, ...] | None = None
    if profile.name == "mysql":
        types = ("INTEGER", "INTEGER", "VARCHAR(30)", "REAL")
    elif profile.name == "postgres" and rng.random() < 0.45:
        types = ("INTEGER", "TEXT", "JSONB", "UUID", "INTERVAL", "BYTEA", "NUMERIC")
    elif profile.name == "duckdb" and rng.random() < 0.35:
        types = ("INTEGER", "HUGEINT", "VARCHAR", "TINYINT", "DOUBLE", "UUID")
    table = make_table(schema, rng, types=types) if types else make_table(schema, rng)
    schema.add(table)
    records = [LogicalRecord(kind="create_table", sql=render_create_table(table), is_query_hint=False)]
    for _ in range(rng.randint(1, 3)):
        records.append(LogicalRecord(kind="insert", sql=render_insert(table, rng), is_query_hint=False))
    return records


#: Statement kinds that may carry skipif/onlyif guards.  Only self-contained
#: constant queries are guarded so that a guarded record's expected result can
#: be recorded on the guard's target DBMS without replaying the file's schema.
_GUARDABLE_KINDS = frozenset({"select_constant", "select_division", "select_pg_function", "select_duckdb_function"})


def _guards_for(profile: SuiteProfile, rng: random.Random, kind: str) -> list[tuple[str, str]]:
    if profile.name != "slt" or kind not in _GUARDABLE_KINDS or rng.random() > profile.guard_rate:
        return []
    # SLT files contain records targeted at other DBMSs (the 19.8% pre-filter):
    # onlyif for a DBMS that is not the donor means the donor skips it.
    if rng.random() < 0.55:
        return [("onlyif", rng.choice(("mssql", "oracle", "mysql", "postgresql")))]
    return [("skipif", "sqlite")]


def _make_records_of_kind(kind: str, profile: SuiteProfile, schema: SchemaState, rng: random.Random) -> list[LogicalRecord]:
    guards = _guards_for(profile, rng, kind)
    table = schema.random_table(rng)

    if kind in ("create_table", "create_table_pg_types", "create_duckdb_types"):
        if kind == "create_table_pg_types":
            types = ("INTEGER", "TEXT", "JSONB", "UUID", "INTERVAL", "BYTEA", "NUMERIC")
        elif kind == "create_duckdb_types":
            types = ("INTEGER", "HUGEINT", "VARCHAR", "TINYINT", "DOUBLE")
        else:
            types = None
        new_table = make_table(schema, rng, types=types) if types else make_table(schema, rng)
        schema.add(new_table)
        records = [LogicalRecord(kind=kind, sql=render_create_table(new_table), is_query_hint=False, guards=guards)]
        records.append(LogicalRecord(kind="insert", sql=render_insert(new_table, rng), is_query_hint=False))
        return records

    if kind == "insert":
        if table is None:
            return _make_schema_setup(profile, schema, rng)
        return [LogicalRecord(kind=kind, sql=render_insert(table, rng), is_query_hint=False, guards=guards)]

    if kind == "create_index":
        if table is None:
            return _make_schema_setup(profile, schema, rng)
        column = rng.choice(table.column_names())
        name = f"idx_{table.name}_{column}_{rng.randint(0, 999)}"
        return [LogicalRecord(kind=kind, sql=f"CREATE INDEX {name} ON {table.name}({column})", is_query_hint=False, guards=guards)]

    if kind == "drop_table":
        if table is None or len(schema.tables) <= 1:
            return []
        schema.remove(table.name)
        return [LogicalRecord(kind=kind, sql=f"DROP TABLE {table.name}", is_query_hint=False, guards=guards)]

    if kind == "alter_table":
        if table is None:
            return []
        column = f"x{rng.randint(0, 99)}"
        table.columns.append((column, "INTEGER"))
        return [LogicalRecord(kind=kind, sql=f"ALTER TABLE {table.name} ADD COLUMN {column} INTEGER", is_query_hint=False, guards=guards)]

    if kind == "update":
        if table is None:
            return []
        int_columns = table.integer_columns()
        if not int_columns:
            return []
        column = rng.choice(int_columns)
        return [LogicalRecord(kind=kind, sql=f"UPDATE {table.name} SET {column} = {column} + {rng.randint(1, 9)}", is_query_hint=False, guards=guards)]

    if kind == "delete":
        if table is None:
            return []
        int_columns = table.integer_columns()
        predicate = f"{rng.choice(int_columns)} < {rng.randint(-80, -20)}" if int_columns else "1 = 0"
        return [LogicalRecord(kind=kind, sql=f"DELETE FROM {table.name} WHERE {predicate}", is_query_hint=False, guards=guards)]

    if kind == "begin_commit":
        if table is None:
            return []
        body = LogicalRecord(kind="insert", sql=render_insert(table, rng), is_query_hint=False)
        closer = "COMMIT" if rng.random() < 0.4 else "ROLLBACK"
        if closer == "ROLLBACK":
            table.row_count -= 1  # the inserted rows are rolled back
        return [
            LogicalRecord(kind="begin", sql="BEGIN", is_query_hint=False, guards=guards),
            body,
            LogicalRecord(kind="commit", sql=closer, is_query_hint=False),
        ]

    if kind == "select_constant":
        return [LogicalRecord(kind=kind, sql=f"SELECT {constant_expression(rng)}", guards=guards)]

    if kind == "select_division":
        expression = division_expression(rng)
        if rng.random() < 0.25:
            # the Listing 4 pattern: a MySQL-only DIV variant and a skipif-mysql variant
            numerator, _, denominator = expression.partition("/")
            return [
                LogicalRecord(kind=kind, sql=f"SELECT {numerator.strip()} DIV {denominator.strip()}", guards=[("onlyif", "mysql")]),
                LogicalRecord(kind=kind, sql=f"SELECT {expression}", guards=[("skipif", "mysql")]),
            ]
        return [LogicalRecord(kind=kind, sql=f"SELECT {expression}", guards=guards)]

    if kind in ("select_table", "select_aggregate", "select_join"):
        if table is None:
            return _make_schema_setup(profile, schema, rng)
        return [_make_select(kind, profile, schema, table, rng, guards)]

    if kind == "select_like":
        # text-pattern filtering: exercises the engine's LIKE evaluation (and
        # its compiled-regex memo) over table columns rather than constants
        if table is None:
            return _make_schema_setup(profile, schema, rng)
        text_columns = table.text_columns()
        column = rng.choice(text_columns) if text_columns else table.column_names()[0]
        negated = "NOT " if rng.random() < 0.2 else ""
        sql = f"SELECT {column} FROM {table.name} WHERE {column} {negated}LIKE '{like_pattern(rng)}' ORDER BY 1"
        return [LogicalRecord(kind=kind, sql=sql, guards=guards)]

    if kind == "select_pg_function":
        expression = rng.choice(
            (
                "pg_typeof(1)",
                "pg_typeof(1.5)",
                f"generate_series(1, {rng.randint(2, 5)})",
                "current_database()",
                "version()",
                f"to_char({rng.randint(1, 999)}, '999')",
                "has_table_privilege('t1', 'SELECT')",
                f"split_part('a,b,c', ',', {rng.randint(1, 3)})",
                f"md5('{rng.randint(0, 99)}')",
            )
        )
        if expression.startswith("generate_series"):
            return [LogicalRecord(kind=kind, sql=f"SELECT * FROM {expression}", guards=guards)]
        return [LogicalRecord(kind=kind, sql=f"SELECT {expression}", guards=guards)]

    if kind == "select_duckdb_function":
        expression = rng.choice(
            (
                f"range({rng.randint(2, 5)})",
                "pg_typeof(1)",
                "typeof(1.5)",
                f"list_value({rng.randint(1, 9)}, {rng.randint(10, 99)})",
                f"greatest({rng.randint(1, 9)}, {rng.randint(1, 9)}, {rng.randint(1, 9)})",
                f"least({rng.randint(1, 9)}, {rng.randint(1, 9)})",
                "current_schema()",
                f"hash({rng.randint(1, 999)})",
            )
        )
        return [LogicalRecord(kind=kind, sql=f"SELECT {expression}", guards=guards)]

    if kind == "select_nested_types":
        variant = rng.choice(
            (
                f"SELECT [{rng.randint(1, 5)}, {rng.randint(6, 9)}, {rng.randint(10, 20)}]",
                "SELECT {'k': 'key1', 'v': 1}",
                f"SELECT list_value({rng.randint(1, 5)}, {rng.randint(6, 9)})",
            )
        )
        return [LogicalRecord(kind=kind, sql=variant, guards=guards)]

    if kind == "select_cast_operator":
        expression = rng.choice(
            (
                f"SELECT {rng.randint(1, 500)}::VARCHAR",
                f"SELECT '{rng.randint(1, 500)}'::INTEGER + {rng.randint(1, 9)}",
                f"SELECT {rng.uniform(0, 10):.2f}::INTEGER",
            )
        )
        return [LogicalRecord(kind=kind, sql=expression, guards=guards)]

    if kind == "set_config":
        settings = {
            "postgres": (("datestyle", "'ISO, MDY'"), ("extra_float_digits", "0"), ("work_mem", "'64MB'"), ("enable_seqscan", "on"), ("search_path", "public")),
            "duckdb": (("default_null_order", "'nulls_first'"), ("threads", "2"), ("memory_limit", "'1GB'"), ("preserve_insertion_order", "true")),
            "mysql": (("sql_mode", "'ANSI_QUOTES'"), ("optimizer_search_depth", "62"), ("group_concat_max_len", "2048"), ("autocommit", "1")),
            "slt": (("foreign_keys", "1"),),
        }[profile.name if profile.name in ("postgres", "duckdb", "mysql") else "slt"]
        name, value = rng.choice(settings)
        return [LogicalRecord(kind=kind, sql=f"SET {name} = {value}", is_query_hint=False, guards=guards)]

    if kind == "pragma":
        name, value = rng.choice(
            (("explain_output", "OPTIMIZED_ONLY"), ("threads", "2"), ("memory_limit", "'512MB'"), ("enable_progress_bar", "false"), ("default_null_order", "'nulls_last'"))
        )
        return [LogicalRecord(kind=kind, sql=f"PRAGMA {name} = {value}", is_query_hint=False, guards=guards)]

    if kind == "explain":
        target = table.name if table is not None else "t1"
        return [LogicalRecord(kind=kind, sql=f"EXPLAIN SELECT * FROM {target}", guards=guards)]

    if kind == "show":
        name = rng.choice(("sql_mode", "autocommit", "tables"))
        return [LogicalRecord(kind=kind, sql=f"SHOW {name}", guards=guards)]

    if kind == "cli_command":
        command = rng.choice(("\\d t1", "\\set ON_ERROR_STOP 1", "\\pset null 'NULL'", "\\timing on", "\\c regression"))
        return [LogicalRecord(kind=kind, control=("psql", command.split()), sql=command)]

    if kind == "copy":
        target = table.name if table is not None else "t1"
        return [
            LogicalRecord(
                kind=kind,
                sql=f"COPY {target} FROM '/home/postgres/regress/data/{target}.data'",
                is_query_hint=False,
                dependency="file_paths",
                expected_override={"ok": True},
            )
        ]

    if kind == "create_function":
        return [
            LogicalRecord(
                kind=kind,
                sql=(
                    "CREATE FUNCTION test_func_{0}(internal) RETURNS void AS 'regresslib', 'test_func_{0}' LANGUAGE C".format(rng.randint(0, 999))
                ),
                is_query_hint=False,
                dependency="extension",
                expected_override={"ok": True},
            )
        ]

    if kind == "create_view":
        if table is None:
            return []
        view = f"v_{table.name}_{rng.randint(0, 999)}"
        column = rng.choice(table.column_names())
        return [LogicalRecord(kind=kind, sql=f"CREATE VIEW {view} AS SELECT {column} FROM {table.name}", is_query_hint=False, guards=guards)]

    if kind == "mysql_runner_command":
        command = rng.choice(
            (("disable_warnings", []), ("enable_warnings", []), ("echo", ["running", "block"]), ("sleep", ["0"]), ("disable_query_log", []))
        )
        return [LogicalRecord(kind=kind, control=command)]

    # Unknown kind: fall back to a constant query so weights never silently vanish.
    return [LogicalRecord(kind=kind, sql=f"SELECT {constant_expression(rng)}", guards=guards)]


def _make_select(kind: str, profile: SuiteProfile, schema: SchemaState, table, rng: random.Random, guards) -> LogicalRecord:
    columns = table.column_names()
    bucket = choose_bucket(rng, profile.where_buckets)
    where = "" if bucket == "0" else f" WHERE {render_predicate(table, rng, bucket)}"

    if kind == "select_aggregate":
        int_columns = table.integer_columns() or columns
        aggregate = rng.choice(("count(*)", f"count({rng.choice(columns)})", f"sum({rng.choice(int_columns)})", f"min({rng.choice(int_columns)})", f"max({rng.choice(int_columns)})"))
        group = ""
        if rng.random() < 0.3 and len(columns) > 1:
            group_column = rng.choice(columns)
            return LogicalRecord(kind=kind, sql=f"SELECT {group_column}, {aggregate} FROM {table.name}{where} GROUP BY {group_column} ORDER BY 1", guards=guards)
        return LogicalRecord(kind=kind, sql=f"SELECT {aggregate} FROM {table.name}{where}{group}", guards=guards)

    if kind == "select_join":
        other = schema.random_table(rng) or table
        join_column_left = table.integer_columns()[0] if table.integer_columns() else columns[0]
        other_int = other.integer_columns()
        join_column_right = other_int[0] if other_int else other.column_names()[0]
        if rng.random() < profile.implicit_join_rate / max(profile.implicit_join_rate + profile.explicit_join_rate, 1e-9):
            sql = (
                f"SELECT {table.name}.{columns[0]} FROM {table.name}, {other.name} "
                f"WHERE {table.name}.{join_column_left} = {other.name}.{join_column_right} ORDER BY 1"
            )
        else:
            sql = (
                f"SELECT {table.name}.{columns[0]} FROM {table.name} INNER JOIN {other.name} "
                f"ON {table.name}.{join_column_left} = {other.name}.{join_column_right} ORDER BY 1"
            )
        return LogicalRecord(kind=kind, sql=sql, guards=guards)

    # plain table select
    selected = ", ".join(rng.sample(columns, k=min(len(columns), rng.randint(1, 3))))
    order = " ORDER BY " + selected.split(", ")[0] if rng.random() < 0.6 else ""
    sort_hint = "" if order else "rowsort"
    record = LogicalRecord(kind=kind, sql=f"SELECT {selected} FROM {table.name}{where}{order}", guards=guards)
    record.expected_override = {"sort": sort_hint} if sort_hint else None
    return record


def _make_dependency_record(category: str, profile: SuiteProfile, schema: SchemaState, rng: random.Random) -> LogicalRecord:
    """A record whose expectation reflects the donor developers' environment."""
    if category == "file_paths":
        table = schema.random_table(rng)
        target = table.name if table is not None else "t1"
        if profile.name == "duckdb":
            return LogicalRecord(
                kind="dependency_file",
                sql=f"CREATE TABLE {target}_csv AS SELECT * FROM read_csv_auto('data/csv/{target}.csv')",
                is_query_hint=False,
                dependency=category,
                expected_override={"ok": True},
            )
        return LogicalRecord(
            kind="dependency_file",
            sql=f"COPY {target} FROM '/home/postgres/regress/data/{target}.data'",
            is_query_hint=False,
            dependency=category,
            expected_override={"ok": True},
        )
    if category == "setup":
        missing = rng.choice(("onek", "tenk1", "int8_tbl", "road", "emp"))
        return LogicalRecord(
            kind="dependency_setup",
            sql=f"SELECT count(*) FROM {missing}",
            dependency=category,
            expected_override={"rows": [[str(rng.choice((100, 1000, 19, 5)))]], "types": "I"},
        )
    if category == "setting":
        name, expected = rng.choice((("datestyle", "Postgres, DMY"), ("lc_messages", "en_US.UTF-8"), ("timezone", "PST8PDT"), ("bytea_output", "escape")))
        return LogicalRecord(
            kind="dependency_setting",
            sql=f"SHOW {name}",
            dependency=category,
            expected_override={"rows": [[expected]], "types": "T"},
        )
    if category == "extension":
        return LogicalRecord(
            kind="dependency_extension",
            sql="CREATE FUNCTION test_opclass_options_func(internal) RETURNS void AS 'regresslib', 'test_opclass_options_func' LANGUAGE C",
            is_query_hint=False,
            dependency=category,
            expected_override={"ok": True},
        )
    if category == "client_format":
        variant = rng.choice(
            (
                (f"SELECT [{rng.randint(1, 5)}, {rng.randint(6, 9)}, {rng.randint(10, 30)}]", "['{0}', '{1}', '{2}']"),
                ("SELECT {'k': 'key1', 'v': 1}", "{{'k': key1, 'v': 1}}"),
                (f"SELECT list_value({rng.randint(1, 5)}, {rng.randint(6, 9)})", "{{{0},{1}}}"),
            )
        )
        sql, template = variant
        numbers = [part for part in sql.replace("[", " ").replace("]", " ").replace("(", " ").replace(")", " ").replace(",", " ").split() if part.isdigit()]
        try:
            expected = template.format(*numbers)
        except (IndexError, KeyError):
            expected = template
        return LogicalRecord(
            kind="dependency_client_format",
            sql=sql,
            dependency=category,
            expected_override={"rows": [[expected]], "types": "T"},
        )
    if category == "client_numeric":
        numerator = rng.choice((9999, 4999, 1233, 777))
        return LogicalRecord(
            kind="dependency_client_numeric",
            sql=f"SELECT {numerator} / 2.0",
            dependency=category,
            expected_override={"rows": [[str(numerator // 2)]], "types": "I"},
        )
    if category == "client_exception":
        return LogicalRecord(
            kind="dependency_client_exception",
            sql="SELECT * FROM range(1, 4) POSITIONAL JOIN range(2, 5)",
            dependency=category,
            expected_override={"rows": [["1", "2"], ["2", "3"], ["3", "4"]], "types": "II"},
        )
    # runner / misc: a runner directive that leaked into the SQL stream
    return LogicalRecord(
        kind="dependency_runner",
        sql=rng.choice(("hash-threshold 100", "halt on error", "reconnect now")),
        is_query_hint=False,
        dependency="runner",
        expected_override={"ok": True},
    )


# ---------------------------------------------------------------------------
# Recording expected behaviour on the donor
# ---------------------------------------------------------------------------


def _type_code(value: Any) -> str:
    if isinstance(value, bool):
        return "I"
    if isinstance(value, int):
        return "I"
    if isinstance(value, float):
        return "R"
    return "T"


def _resolution_host(logical: LogicalRecord, donor: str) -> str:
    """Which DBMS the expected result of this record was recorded on.

    Unguarded records are recorded on the donor.  ``onlyif <other>`` records
    were validated by the original developers on that other DBMS; ``skipif
    <donor>`` records on some DBMS that is not the donor (we use PostgreSQL, or
    DuckDB when the donor is PostgreSQL).
    """
    known = {"sqlite", "postgres", "duckdb", "mysql"}
    for kind, dbms in logical.guards:
        canonical = canonical_dbms(dbms)
        if kind == "onlyif":
            if canonical in known:
                return canonical
            return donor  # mssql/oracle: never executed by SQuaLity's hosts
        if kind == "skipif" and canonical == donor:
            return "postgres" if donor != "postgres" else "duckdb"
    return donor


def _resolve_records(records: list[LogicalRecord], donor: str, typed_values: bool = True) -> list[ResolvedRecord]:
    adapters = {donor: create_adapter(donor)}
    adapters[donor].connect()
    adapters[donor].reset()
    resolved: list[ResolvedRecord] = []
    for logical in records:
        if logical.control is not None:
            resolved.append(ResolvedRecord(logical=logical, kind="control"))
            continue
        if logical.expected_override is not None:
            resolved.append(_resolve_override(logical))
            continue
        host = _resolution_host(logical, donor)
        if host not in adapters:
            adapters[host] = create_adapter(host)
            adapters[host].connect()
            adapters[host].reset()
        adapter = adapters[host]
        outcome = adapter.execute(logical.sql)
        if outcome.status in (ExecutionStatus.CRASH, ExecutionStatus.HANG):
            adapter.reset()
            resolved.append(ResolvedRecord(logical=logical, kind="statement", expect_ok=False, expected_error=outcome.error))
            continue
        if outcome.status is ExecutionStatus.ERROR:
            resolved.append(ResolvedRecord(logical=logical, kind="statement", expect_ok=False, expected_error=outcome.error))
            continue
        if outcome.columns:
            if typed_values:
                type_string = "".join(_type_code(value) for value in (outcome.rows[0] if outcome.rows else [])) or "T" * len(outcome.columns)
            else:
                # Transcript formats (.out / .result) carry no type information,
                # so record the values exactly as the text comparison will see
                # them at run time ("T" rendering).
                type_string = "T" * len(outcome.columns)
            rows = [
                [normalize_value(value, type_string[index] if index < len(type_string) else "T") for index, value in enumerate(row)]
                for row in outcome.rows
            ]
            resolved.append(
                ResolvedRecord(
                    logical=logical,
                    kind="query",
                    type_string=type_string,
                    expected_rows=rows,
                    column_names=list(outcome.columns),
                )
            )
        else:
            resolved.append(ResolvedRecord(logical=logical, kind="statement", expect_ok=True))
    for adapter in adapters.values():
        adapter.close()
    return resolved


def _resolve_override(logical: LogicalRecord) -> ResolvedRecord:
    override = logical.expected_override or {}
    if "rows" in override:
        rows = [[str(cell) for cell in row] for row in override["rows"]]
        return ResolvedRecord(
            logical=logical,
            kind="query",
            type_string=override.get("types", "T" * (len(rows[0]) if rows else 1)),
            expected_rows=rows,
            column_names=[f"col{i}" for i in range(len(rows[0]) if rows else 1)],
        )
    return ResolvedRecord(logical=logical, kind="statement", expect_ok=bool(override.get("ok", True)))


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def _serialize_slt(resolved: list[ResolvedRecord], row_wise: bool) -> str:
    lines: list[str] = []
    for record in resolved:
        for kind, dbms in record.logical.guards:
            lines.append(f"{kind} {dbms}")
        if record.kind == "control":
            command, arguments = record.logical.control
            lines.append(" ".join([command] + list(arguments)))
            lines.append("")
            continue
        if record.kind == "statement":
            lines.append("statement ok" if record.expect_ok else "statement error")
            lines.append(record.logical.sql)
            lines.append("")
            continue
        sort_mode = "rowsort" if (record.logical.expected_override or {}).get("sort") == "rowsort" else "nosort"
        lines.append(f"query {record.type_string} {sort_mode}")
        lines.append(record.logical.sql)
        lines.append("----")
        if row_wise:
            for row in record.expected_rows:
                lines.append("\t".join(row))
        else:
            rows = sorted(record.expected_rows) if sort_mode == "rowsort" else record.expected_rows
            for row in rows:
                lines.extend(row)
        lines.append("")
    return "\n".join(lines).strip() + "\n"


def _serialize_postgres(resolved: list[ResolvedRecord]) -> tuple[str, str]:
    sql_lines: list[str] = ["-- generated PostgreSQL regression test (SQuaLity reproduction corpus)"]
    out_lines: list[str] = []
    for record in resolved:
        if record.kind == "control":
            command, arguments = record.logical.control
            if command == "psql":
                sql_lines.append(" ".join(arguments))
            continue
        statement = record.logical.sql.rstrip(";") + ";"
        sql_lines.append(statement)
        out_lines.append(statement)
        if record.kind == "query":
            columns = record.column_names or [f"col{i}" for i in range(len(record.type_string))]
            out_lines.append(" " + " | ".join(columns))
            out_lines.append("-" * max(3, len(" | ".join(columns)) + 2))
            for row in record.expected_rows:
                out_lines.append(" " + " | ".join(row))
            out_lines.append(f"({len(record.expected_rows)} rows)")
            out_lines.append("")
        elif not record.expect_ok:
            message = (record.expected_error or "error").splitlines()[0]
            out_lines.append(f"ERROR:  {message}")
            out_lines.append("")
    return "\n".join(sql_lines) + "\n", "\n".join(out_lines) + "\n"


def _serialize_mysql(resolved: list[ResolvedRecord]) -> tuple[str, str]:
    test_lines: list[str] = ["# generated MySQL test (SQuaLity reproduction corpus)"]
    result_lines: list[str] = []
    for record in resolved:
        if record.kind == "control":
            command, arguments = record.logical.control
            test_lines.append("--" + " ".join([command] + list(arguments)))
            continue
        statement = record.logical.sql.rstrip(";") + ";"
        if not record.expect_ok:
            test_lines.append("--error ER_GENERIC")
        test_lines.append(statement)
        result_lines.append(statement)
        if record.kind == "query":
            columns = record.column_names or [f"col{i}" for i in range(len(record.type_string))]
            result_lines.append("\t".join(columns))
            for row in record.expected_rows:
                result_lines.append("\t".join(row))
        elif not record.expect_ok:
            result_lines.append("ERROR HY000: " + (record.expected_error or "error").splitlines()[0])
    return "\n".join(test_lines) + "\n", "\n".join(result_lines) + "\n"


# ---------------------------------------------------------------------------
# Public API
# ---------------------------------------------------------------------------


def _corpus_key(suite: str, file_count: int, records_per_file: int, seed: int) -> dict:
    """Store key of one generated corpus (the code fingerprint is added by the
    store itself, so a generator change invalidates every persisted suite)."""
    return {
        "suite": suite,
        "file_count": file_count,
        "records_per_file": records_per_file,
        "seed": seed,
    }


def _generate_file(suite: str, records_per_file: int, seed: int, index: int) -> dict:
    """Plan, donor-record, and serialize one corpus file.

    A pure function of its arguments (the per-file rng seed depends only on
    ``(suite, seed, index)``, and recording opens fresh donor adapters), which
    is what lets :func:`generate_corpus` shard files over a worker pool and
    persist each one independently.  Module-level so process-pool workers can
    receive it by pickle; returns the :class:`GeneratedFile` fields as a plain
    dict for the same reason (and because that is the store payload shape).
    """
    profile = PAPER_PROFILES[suite]
    # hash() is salted per process; derive a stable per-file seed instead so
    # corpora are reproducible across runs.
    file_seed = (seed * 1_000_003 + index * 7919 + sum(ord(ch) for ch in suite)) & 0x7FFFFFFF
    rng = random.Random(file_seed)
    logical = _plan_file(profile, rng, records_per_file, file_index=index)
    resolved = _resolve_records(logical, profile.donor, typed_values=suite in ("slt", "duckdb"))
    if suite == "slt":
        return {"name": f"select{index + 1}.test", "primary_text": _serialize_slt(resolved, row_wise=False), "expected_text": None}
    if suite == "duckdb":
        return {"name": f"test_{index + 1:04d}.test", "primary_text": _serialize_slt(resolved, row_wise=True), "expected_text": None}
    if suite == "postgres":
        sql_text, out_text = _serialize_postgres(resolved)
        return {"name": f"regress_{index + 1:03d}.sql", "primary_text": sql_text, "expected_text": out_text}
    test_text, result_text = _serialize_mysql(resolved)
    return {"name": f"mysql_{index + 1:03d}.test", "primary_text": test_text, "expected_text": result_text}


_GENERATED_FIELDS = frozenset(("name", "primary_text", "expected_text"))

#: store namespace (and frame kind) of parsed suites; the one artifact whose
#: frame body is a pickle
SUITES_NAMESPACE = "corpus-suites"


def _recording(blob: bytes) -> dict:
    """The recording a stored ``file-donor`` frame holds, if it has the exact shape.

    Any other document at a donor key (extra keys would blow up
    ``GeneratedFile(**entry)``) raises :class:`CodecError`, so the store
    discards it like any corrupt frame.
    """
    entry = result_codec.decode_document(blob, FILE_DONOR_NAMESPACE)
    if entry.keys() == _GENERATED_FIELDS:
        return entry
    raise CodecError("file-donor document is not a recording")


def _stored_suite(blob: bytes) -> TestSuite:
    """The parsed suite a ``corpus-suites`` frame holds.

    The body is unpickled only once the frame's digest, version and kind
    check out; a body that does not unpickle to a :class:`TestSuite` raises
    :class:`CodecError`, so the store discards it like any corrupt frame.
    """
    body = result_codec.unframe(blob, SUITES_NAMESPACE)
    try:
        suite = pickle.loads(body)
    except Exception as error:  # unpickling foreign bytes can raise nearly anything
        raise CodecError(f"corpus-suites body does not unpickle: {error!r}") from error
    if not isinstance(suite, TestSuite):
        raise CodecError(f"corpus-suites body is a {type(suite).__name__}, not a TestSuite")
    return suite


def generate_corpus(
    suite: str,
    file_count: int | None = None,
    records_per_file: int | None = None,
    seed: int = 0,
    store: "artifact_store.ArtifactStore | str | None" = artifact_store.DEFAULT,
    worker_pool: WorkerPool | None = None,
) -> list[GeneratedFile]:
    """Generate native-format test files for ``suite`` (``slt``/``postgres``/...).

    Generation is expensive (every statement is recorded on the donor), so
    each file's donor recording is persisted (``file-donor``, keyed by
    ``(suite, records_per_file, seed, index)`` — deliberately *not* by
    ``file_count``, so growing a corpus reuses every already-recorded file).
    Later calls — in *any* process — load instead of regenerating, and only
    the files with no usable recording are generated.  ``store=None`` forces
    regeneration.

    The missing files' donor recording fans out over ``worker_pool`` (see
    :func:`repro.core.parallel.fan_out`) the way suite execution is sharded;
    per-file seeding keeps the output byte-identical to a serial build.
    """
    count = file_count if file_count is not None else DEFAULT_FILE_COUNT[suite]
    per_file = records_per_file if records_per_file is not None else DEFAULT_RECORDS_PER_FILE[suite]
    backing = artifact_store.active_store(store)
    payloads: dict[int, dict] = {}
    missing: list[int] = []
    for index in range(count):
        if backing is not None:
            entry = backing.load(FILE_DONOR_NAMESPACE, donor_file_key(suite, per_file, seed, index), _recording)
            if entry is not None:
                payloads[index] = entry
                continue
        missing.append(index)
    produced = fan_out(worker_pool, _generate_file, [(suite, per_file, seed, index) for index in missing])
    for index, payload in zip(missing, produced):
        payloads[index] = payload
        if backing is not None:
            frame = result_codec.encode_document(FILE_DONOR_NAMESPACE, payload)
            backing.save(FILE_DONOR_NAMESPACE, donor_file_key(suite, per_file, seed, index), frame)
    return [GeneratedFile(**payloads[index]) for index in range(count)]


def build_suite(
    suite: str,
    file_count: int | None = None,
    records_per_file: int | None = None,
    seed: int = 0,
    store: "artifact_store.ArtifactStore | str | None" = artifact_store.DEFAULT,
    worker_pool: WorkerPool | None = None,
) -> TestSuite:
    """Generate a corpus and parse it back through the native-format parsers.

    The parsed :class:`TestSuite` is itself persisted in the artifact store
    (namespace ``corpus-suites``, a frame whose body is the pickled suite),
    so a warm process skips both generation and re-parsing; a store miss
    falls through to :func:`generate_corpus`, whose
    ``file-donor`` namespace may still satisfy the generation half file by
    file.  ``worker_pool`` shards donor recording of any files that do need
    generating.
    """
    backing = artifact_store.active_store(store)
    count = file_count if file_count is not None else DEFAULT_FILE_COUNT[suite]
    per_file = records_per_file if records_per_file is not None else DEFAULT_RECORDS_PER_FILE[suite]
    key = _corpus_key(suite, count, per_file, seed)
    if backing is not None:
        cached = backing.load(SUITES_NAMESPACE, key, _stored_suite)
        if cached is not None:
            return cached
    generated = generate_corpus(
        suite,
        file_count=file_count,
        records_per_file=records_per_file,
        seed=seed,
        store=backing,
        worker_pool=worker_pool,
    )
    test_suite = TestSuite(name=suite)
    for item in generated:
        test_suite.files.append(parse_test_text(item.primary_text, suite, path=item.name, companion=item.expected_text))
    if backing is not None:
        body = pickle.dumps(test_suite, protocol=pickle.HIGHEST_PROTOCOL)
        backing.save(SUITES_NAMESPACE, key, result_codec.frame(SUITES_NAMESPACE, body))
    return test_suite


def scaled_file_count(suite: str, scale: float) -> int:
    """Files of ``suite`` at corpus ``scale``: its default count scaled, at least 3.

    ``scale`` 1.0 ≈ a few thousand test cases across the three executable
    suites — enough for the distributions to be stable while the full
    cross-execution matrix stays laptop-sized.
    """
    return max(3, int(round(DEFAULT_FILE_COUNT[suite] * scale)))


def build_all_suites(
    seed: int = 0,
    scale: float = 1.0,
    store: "artifact_store.ArtifactStore | str | None" = artifact_store.DEFAULT,
    worker_pool: WorkerPool | None = None,
) -> dict[str, TestSuite]:
    """Build the executable suites of RQ2-RQ4 at ``scale`` (see :func:`scaled_file_count`).

    ``worker_pool`` shards each suite's donor recording (see
    :func:`generate_corpus`).
    """
    return {
        name: build_suite(name, file_count=scaled_file_count(name, scale), seed=seed, store=store, worker_pool=worker_pool)
        for name in ("slt", "postgres", "duckdb")
    }


def write_corpus(
    directory: str,
    suite: str,
    seed: int = 0,
    file_count: int | None = None,
    store: "artifact_store.ArtifactStore | str | None" = artifact_store.DEFAULT,
) -> list[str]:
    """Write a generated corpus to ``directory`` in its native on-disk layout."""
    import os

    os.makedirs(directory, exist_ok=True)
    written: list[str] = []
    for item in generate_corpus(suite, file_count=file_count, seed=seed, store=store):
        primary_path = os.path.join(directory, item.name)
        with open(primary_path, "w", encoding="utf-8") as handle:
            handle.write(item.primary_text)
        written.append(primary_path)
        if item.expected_text is not None:
            if suite == "postgres":
                expected_dir = os.path.join(directory, "expected")
                os.makedirs(expected_dir, exist_ok=True)
                expected_path = os.path.join(expected_dir, os.path.splitext(item.name)[0] + ".out")
            else:
                expected_dir = os.path.join(directory, "r")
                os.makedirs(expected_dir, exist_ok=True)
                expected_path = os.path.join(expected_dir, os.path.splitext(item.name)[0] + ".result")
            with open(expected_path, "w", encoding="utf-8") as handle:
                handle.write(item.expected_text)
            written.append(expected_path)
    return written

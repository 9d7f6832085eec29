"""SQL value model: types, coercion, comparison, and rendering.

MiniDB represents SQL values with plain Python objects (``None`` for NULL,
``bool``, ``int``, ``float``, ``str``, ``list`` for DuckDB-style LIST values,
``dict`` for STRUCT values).  This module centralises the type rules so the
expression evaluator, the storage layer, and the result renderer agree:

* :func:`sql_type_of` maps a Python value onto a :class:`SQLType`,
* :func:`coerce_to_declared` applies declared-column-type coercion (strict
  dialects) or passes values through unchanged (SQLite dynamic typing),
* :func:`compare_values` implements SQL comparison including NULL propagation
  and mixed numeric/text ordering,
* :func:`render_value` renders a value the way the Python DB connectors the
  paper used do (which is what SQuaLity compares against).
"""

from __future__ import annotations

import enum
import math
from typing import Any

from repro.errors import ConversionError, UnsupportedTypeError


class SQLType(enum.Enum):
    """Runtime SQL types distinguished by MiniDB."""

    NULL = "NULL"
    INTEGER = "INTEGER"
    FLOAT = "FLOAT"
    TEXT = "TEXT"
    BOOLEAN = "BOOLEAN"
    LIST = "LIST"
    STRUCT = "STRUCT"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


#: Declared type name -> canonical runtime type.  Used when coercing inserted
#: values on strict-typing dialects and by ``typeof``/``pg_typeof``.
_DECLARED_TYPE_MAP: dict[str, SQLType] = {
    "INT": SQLType.INTEGER,
    "INTEGER": SQLType.INTEGER,
    "SMALLINT": SQLType.INTEGER,
    "BIGINT": SQLType.INTEGER,
    "TINYINT": SQLType.INTEGER,
    "MEDIUMINT": SQLType.INTEGER,
    "HUGEINT": SQLType.INTEGER,
    "INT2": SQLType.INTEGER,
    "INT4": SQLType.INTEGER,
    "INT8": SQLType.INTEGER,
    "UTINYINT": SQLType.INTEGER,
    "USMALLINT": SQLType.INTEGER,
    "UINTEGER": SQLType.INTEGER,
    "UBIGINT": SQLType.INTEGER,
    "SERIAL": SQLType.INTEGER,
    "BIGSERIAL": SQLType.INTEGER,
    "REAL": SQLType.FLOAT,
    "FLOAT": SQLType.FLOAT,
    "FLOAT4": SQLType.FLOAT,
    "FLOAT8": SQLType.FLOAT,
    "DOUBLE": SQLType.FLOAT,
    "NUMERIC": SQLType.FLOAT,
    "DECIMAL": SQLType.FLOAT,
    "CHAR": SQLType.TEXT,
    "VARCHAR": SQLType.TEXT,
    "TEXT": SQLType.TEXT,
    "CLOB": SQLType.TEXT,
    "STRING": SQLType.TEXT,
    "NAME": SQLType.TEXT,
    "TINYTEXT": SQLType.TEXT,
    "MEDIUMTEXT": SQLType.TEXT,
    "LONGTEXT": SQLType.TEXT,
    "DATE": SQLType.TEXT,
    "TIME": SQLType.TEXT,
    "DATETIME": SQLType.TEXT,
    "TIMESTAMP": SQLType.TEXT,
    "TIMESTAMPTZ": SQLType.TEXT,
    "INTERVAL": SQLType.TEXT,
    "UUID": SQLType.TEXT,
    "JSON": SQLType.TEXT,
    "JSONB": SQLType.TEXT,
    "BLOB": SQLType.TEXT,
    "BYTEA": SQLType.TEXT,
    "BOOLEAN": SQLType.BOOLEAN,
    "BOOL": SQLType.BOOLEAN,
    "LIST": SQLType.LIST,
    "STRUCT": SQLType.STRUCT,
    "UNION": SQLType.STRUCT,
    "MAP": SQLType.STRUCT,
}


def base_type_name(declared: str) -> str:
    """Strip length/precision arguments: ``VARCHAR(20)`` -> ``VARCHAR``."""
    return declared.split("(")[0].strip().upper()


#: declared-string -> SQLType memo: every INSERT/CAST re-derives the same few
#: declared type names, so the split/strip/upper normalisation runs once each.
_RUNTIME_TYPE_MEMO: dict[str, SQLType] = {}


def declared_runtime_type(declared: str) -> SQLType:
    """Map a declared column type name onto a runtime :class:`SQLType`."""
    resolved = _RUNTIME_TYPE_MEMO.get(declared)
    if resolved is not None:
        return resolved
    base = base_type_name(declared)
    try:
        resolved = _DECLARED_TYPE_MAP[base]
    except KeyError:
        raise UnsupportedTypeError(f"unknown data type: {declared}") from None
    _RUNTIME_TYPE_MEMO[declared] = resolved
    return resolved


def is_known_type(declared: str) -> bool:
    """Whether MiniDB knows how to store the declared type at all."""
    return base_type_name(declared) in _DECLARED_TYPE_MAP


def sql_type_of(value: Any) -> SQLType:
    """Runtime type of a Python value under MiniDB's value model."""
    if value is None:
        return SQLType.NULL
    if isinstance(value, bool):
        return SQLType.BOOLEAN
    if isinstance(value, int):
        return SQLType.INTEGER
    if isinstance(value, float):
        return SQLType.FLOAT
    if isinstance(value, str):
        return SQLType.TEXT
    if isinstance(value, list):
        return SQLType.LIST
    if isinstance(value, dict):
        return SQLType.STRUCT
    raise ConversionError(f"unsupported Python value of type {type(value).__name__}")


def to_number(value: Any, strict: bool = True) -> int | float | None:
    """Convert ``value`` to a number.

    With ``strict=False`` (SQLite-style weak typing) strings are parsed as far
    as possible and fall back to 0; with ``strict=True`` a non-numeric string
    raises :class:`ConversionError`.
    """
    if value is None:
        return None
    kind = type(value)
    if kind is int or kind is float:  # exact types: bool (int subclass) falls through
        return value
    if isinstance(value, bool):
        return int(value)
    if isinstance(value, (int, float)):
        return value
    if isinstance(value, str):
        text = value.strip()
        try:
            if "." in text or "e" in text.lower():
                return float(text)
            return int(text)
        except ValueError:
            if strict:
                raise ConversionError(f"could not convert {value!r} to a number") from None
            # SQLite-style prefix parse: take the leading numeric prefix or 0.
            prefix = ""
            for ch in text:
                if ch.isdigit() or (ch in "+-." and not prefix.rstrip("+-")):
                    prefix += ch
                else:
                    break
            try:
                return float(prefix) if "." in prefix else int(prefix)
            except ValueError:
                return 0
    raise ConversionError(f"could not convert {type(value).__name__} to a number")


def to_text(value: Any) -> str | None:
    """Convert a value to its TEXT form (NULL stays NULL)."""
    if value is None:
        return None
    return render_value(value)


def to_boolean(value: Any, accepts_integers: bool = True) -> bool | None:
    """Convert a value to BOOLEAN.

    ``accepts_integers=False`` models PostgreSQL's refusal to treat bare
    integers as booleans outside of literal TRUE/FALSE contexts.
    """
    if value is None:
        return None
    if isinstance(value, bool):
        return value
    if isinstance(value, (int, float)):
        if not accepts_integers:
            raise ConversionError("cannot cast numeric value to boolean in this dialect")
        return value != 0
    if isinstance(value, str):
        lowered = value.strip().lower()
        if lowered in ("t", "true", "yes", "on", "1"):
            return True
        if lowered in ("f", "false", "no", "off", "0"):
            return False
        raise ConversionError(f"invalid boolean literal: {value!r}")
    raise ConversionError(f"cannot convert {type(value).__name__} to boolean")


def cast_value(value: Any, declared: str, strict: bool = True, boolean_accepts_integers: bool = True) -> Any:
    """CAST ``value`` to the declared SQL type."""
    if value is None:
        return None
    target = declared_runtime_type(declared)
    if target is SQLType.INTEGER:
        number = to_number(value, strict=strict)
        if number is None:
            return None
        return int(number)
    if target is SQLType.FLOAT:
        number = to_number(value, strict=strict)
        if number is None:
            return None
        return float(number)
    if target is SQLType.TEXT:
        return to_text(value)
    if target is SQLType.BOOLEAN:
        return to_boolean(value, accepts_integers=boolean_accepts_integers)
    if target in (SQLType.LIST, SQLType.STRUCT):
        return value
    return value


def coerce_to_declared(value: Any, declared: str | None, strict: bool, boolean_accepts_integers: bool = True) -> Any:
    """Coerce an inserted value to its column's declared type.

    Strict dialects (PostgreSQL, MySQL, DuckDB) convert values and raise on
    impossible conversions; SQLite's dynamic typing stores the value as-is but
    still applies *numeric affinity* (a numeric-looking string inserted into an
    INTEGER column becomes a number), mirroring SQLite's documented behaviour.
    """
    if value is None or declared is None:
        return value
    if strict:
        return cast_value(value, declared, strict=True, boolean_accepts_integers=boolean_accepts_integers)
    # Dynamic typing: apply affinity but never fail.
    target = declared_runtime_type(declared) if is_known_type(declared) else SQLType.TEXT
    if target in (SQLType.INTEGER, SQLType.FLOAT) and isinstance(value, str):
        try:
            return cast_value(value, declared, strict=True)
        except ConversionError:
            return value
    if target is SQLType.INTEGER and isinstance(value, float) and value.is_integer():
        return int(value)
    return value


def compare_values(left: Any, right: Any) -> int | None:
    """Three-way compare two SQL values; ``None`` when either side is NULL.

    Mixed numeric comparison works across int/float/bool; text compares
    lexicographically; comparing text against numbers uses SQLite's type
    ordering (numbers sort before text) so ORDER BY over mixed columns is
    deterministic everywhere.
    """
    if left is None or right is None:
        return None
    # exact-type fast paths for the two dominant comparisons (int vs int in
    # predicates and ORDER BY, str vs str in text columns); ``type`` keeps
    # bools out (bool is an int subclass but must compare numerically below),
    # and native int comparison is also exact beyond 2**53 where the float
    # route rounds
    left_type = type(left)
    right_type = type(right)
    if left_type is int and right_type is int:
        if left == right:
            return 0
        return -1 if left < right else 1
    if left_type is str and right_type is str:
        if left == right:
            return 0
        return -1 if left < right else 1
    left_num = isinstance(left, (int, float, bool))
    right_num = isinstance(right, (int, float, bool))
    if left_num and right_num:
        left_value = float(left)
        right_value = float(right)
        if math.isclose(left_value, right_value, rel_tol=0.0, abs_tol=0.0):
            return 0
        return -1 if left_value < right_value else 1
    if left_num != right_num:
        # numbers order before text (SQLite's cross-type ordering)
        return -1 if left_num else 1
    if isinstance(left, list) and isinstance(right, list):
        for left_item, right_item in zip(left, right):
            item_cmp = compare_values(left_item, right_item)
            if item_cmp is None or item_cmp != 0:
                return item_cmp
        return (len(left) > len(right)) - (len(left) < len(right))
    left_text = str(left)
    right_text = str(right)
    if left_text == right_text:
        return 0
    return -1 if left_text < right_text else 1


def render_value(value: Any, style: str = "python") -> str:
    """Render a value as the Python connector string the runner compares.

    * NULL renders as ``NULL``,
    * booleans render as ``True``/``False`` (Python connector style) or
      ``t``/``f`` with ``style="psql"``,
    * floats strip a trailing ``.0`` only when the value is integral and the
      style asks for it (SLT's integer columns),
    * lists and structs render in the DuckDB Python client style
      (``[1, 2, 3]`` / ``{'k': v}``) — Listing 8's discrepancy between clients
      is reproduced by the ``style="psql"`` alternative (``{1,2,3}``).
    """
    if value is None:
        return "NULL"
    # exact-type fast paths first (TEXT and INTEGER dominate rendered results);
    # isinstance re-checks below keep subclasses on the seed behaviour
    kind = type(value)
    if kind is str:
        return value
    if kind is int:
        return str(value)
    if kind is float:
        # Python's repr: integral floats keep their .0 (10.0 -> '10.0')
        return repr(value)
    if isinstance(value, bool):
        if style == "psql":
            return "t" if value else "f"
        return "True" if value else "False"
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, int):
        return str(value)
    if isinstance(value, list):
        if style == "psql":
            return "{" + ",".join(render_value(item, style) for item in value) + "}"
        return "[" + ", ".join(render_value(item, style) for item in value) + "]"
    if isinstance(value, dict):
        inner = ", ".join(f"'{key}': {render_value(item, style)}" for key, item in value.items())
        return "{" + inner + "}"
    return str(value)

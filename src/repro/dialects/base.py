"""Declarative description of a SQL dialect.

A :class:`DialectProfile` captures every dialect property that the MiniDB
engine, the cross-dialect translator, and the failure classifier need to know
about.  The properties were chosen to cover the concrete differences the paper
reports in RQ3/RQ4 (Section 5 and 6): division semantics, operator support,
function availability, type strictness, configuration statements, NULL
ordering, and the known crash/hang signatures used for fault emulation.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.errors import ReproError


class DivisionSemantics(enum.Enum):
    """Semantics of the ``/`` operator on two integer operands.

    The paper reports this as the single largest source of semantic
    incompatibilities (all 104K semantic failures of SLT on DuckDB stem from
    it): SQLite and PostgreSQL perform integer division, while MySQL and
    DuckDB produce a decimal result.
    """

    INTEGER = "integer"
    DECIMAL = "decimal"


class NullOrder(enum.Enum):
    """Default placement of NULLs in ORDER BY ... ASC."""

    NULLS_FIRST = "nulls_first"
    NULLS_LAST = "nulls_last"


@dataclass(frozen=True)
class FaultSignature:
    """A known bug signature reproduced by the fault-emulation layer.

    ``kind`` is ``"crash"`` or ``"hang"``; ``pattern`` is a regular expression
    matched (case-insensitively) against the normalized statement text;
    ``description`` and ``reference`` document the corresponding paper listing.
    ``condition`` optionally names a session-state predicate (e.g. the
    UPDATE-after-COMMIT crash only fires after a committed transaction touched
    the same table).
    """

    kind: str
    pattern: str
    description: str
    reference: str
    condition: str | None = None


@dataclass(frozen=True)
class DialectProfile:
    """Everything the engine and translator need to know about one dialect."""

    name: str
    display_name: str
    #: Division semantics for integer ``/``.
    division: DivisionSemantics
    #: Whether ``a DIV b`` integer division is supported (MySQL).
    supports_div_operator: bool = False
    #: Whether ``expr::type`` casts are supported (PostgreSQL, DuckDB).
    supports_double_colon_cast: bool = False
    #: Whether ``||`` means string concatenation (everything but default MySQL).
    pipes_as_concat: bool = True
    #: Whether ``'abc' + 1`` works (SQLite's weak typing allows it).
    allows_string_plus_integer: bool = False
    #: Whether the engine coerces stored values to declared column types
    #: (False = SQLite-style dynamic typing).
    strict_types: bool = True
    #: Whether VARCHAR columns require an explicit length (MySQL).
    requires_varchar_length: bool = False
    #: Whether PRAGMA statements are accepted.
    supports_pragma: bool = False
    #: Whether unknown PRAGMA names are silently ignored (SQLite behaviour).
    ignores_unknown_pragma: bool = False
    #: Whether SET statements are accepted.
    supports_set: bool = True
    #: Whether unknown SET variables raise a ConfigurationError.
    rejects_unknown_setting: bool = True
    #: Whether the standard ``START TRANSACTION`` syntax is supported.
    supports_start_transaction: bool = True
    #: Result of COALESCE(1, 1.0): "integer" keeps the first argument's type,
    #: "decimal" promotes to the common super-type.
    coalesce_promotes: bool = True
    #: Row-value comparison ``(NULL, 0) > (0, 0)``: "null" (SQL semantics) or
    #: "true" (DuckDB's documented deviation, Listing 17).
    row_value_null_comparison: str = "null"
    #: Default NULL ordering in ORDER BY.
    null_order: NullOrder = NullOrder.NULLS_LAST
    #: Whether a bare integer can be stored into a BOOLEAN column.
    boolean_accepts_integers: bool = True
    #: Whether unconstrained recursive CTEs are rejected with an error
    #: (PostgreSQL/MySQL) instead of being executed until a limit (DuckDB/SQLite).
    limits_recursive_cte: bool = True
    #: Scalar functions natively available (lowercase names).
    functions: frozenset[str] = frozenset()
    #: Settings recognised by SET/PRAGMA (lowercase names).
    settings: frozenset[str] = frozenset()
    #: Data types natively available (uppercase names, base name only).
    types: frozenset[str] = frozenset()
    #: Statement types the dialect supports beyond the common core.
    extra_statements: frozenset[str] = frozenset()
    #: Statement types the dialect does NOT support even though others do.
    unsupported_statements: frozenset[str] = frozenset()
    #: Known crash/hang signatures reproduced by the fault emulation layer.
    fault_signatures: tuple[FaultSignature, ...] = ()
    #: EXPLAIN output style ("sqlite", "postgres", "duckdb", "mysql") — the
    #: formats differ, which is why EXPLAIN tests are not reusable (Section 4).
    explain_style: str = "generic"
    #: Float comparison tolerance used by the dialect's own test runner
    #: (DuckDB's runner accepts 1% deviation, Listing 10).
    native_float_tolerance: float = 0.0
    #: Names of client APIs the dialect's own test suite uses.
    native_client: str = "python"

    def supports_function(self, name: str) -> bool:
        """Whether scalar/table function ``name`` is available in this dialect."""
        return name.lower() in self.functions

    def supports_setting(self, name: str) -> bool:
        """Whether configuration variable ``name`` is known to this dialect."""
        return name.lower() in self.settings

    def supports_type(self, type_name: str) -> bool:
        """Whether the declared column type ``type_name`` is available."""
        base = type_name.split("(")[0].strip().upper()
        return base in self.types


_REGISTRY: dict[str, DialectProfile] = {}


def register_dialect(profile: DialectProfile) -> DialectProfile:
    """Register ``profile`` so :func:`get_dialect` can find it by name."""
    _REGISTRY[profile.name] = profile
    return profile


def get_dialect(name: str) -> DialectProfile:
    """Look up a dialect profile by its short name (``sqlite``, ``postgres``...)."""
    try:
        return _REGISTRY[name.lower()]
    except KeyError:
        raise ReproError(f"unknown dialect: {name!r}; known: {sorted(_REGISTRY)}") from None


#: Functions shared by (nearly) every SQL implementation; dialect modules build
#: their function sets on top of this core.
CORE_FUNCTIONS = frozenset(
    {
        "abs",
        "avg",
        "cast",
        "ceil",
        "ceiling",
        "char_length",
        "character_length",
        "coalesce",
        "count",
        "floor",
        "length",
        "lower",
        "ltrim",
        "max",
        "min",
        "mod",
        "nullif",
        "power",
        "replace",
        "round",
        "rtrim",
        "sqrt",
        "substr",
        "substring",
        "sum",
        "trim",
        "upper",
    }
)

#: Types shared by every studied dialect.
CORE_TYPES = frozenset(
    {
        "INT",
        "INTEGER",
        "SMALLINT",
        "BIGINT",
        "NUMERIC",
        "DECIMAL",
        "REAL",
        "FLOAT",
        "DOUBLE",
        "CHAR",
        "VARCHAR",
        "TEXT",
        "DATE",
        "TIMESTAMP",
        "BOOLEAN",
    }
)

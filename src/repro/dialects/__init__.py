"""SQL dialect descriptors and cross-dialect translation.

The paper's RQ4 failure analysis is driven by concrete differences between the
SQL dialects of SQLite, PostgreSQL, DuckDB, and MySQL.  This subpackage makes
those differences explicit:

* :mod:`repro.dialects.base` defines :class:`DialectProfile`, a declarative
  description of one dialect (division semantics, supported operators,
  functions, types, settings, known bug signatures, ...).
* :mod:`repro.dialects.sqlite`, :mod:`~repro.dialects.postgres`,
  :mod:`~repro.dialects.duckdb`, :mod:`~repro.dialects.mysql` instantiate the
  profiles for the four studied systems.
* :mod:`repro.dialects.translator` implements a best-effort cross-dialect SQL
  translator (the "sqlglot-like" component the paper's implications call for).
"""

from repro.dialects.base import DialectProfile, DivisionSemantics, FaultSignature, get_dialect, register_dialect
from repro.dialects.sqlite import SQLITE
from repro.dialects.postgres import POSTGRES
from repro.dialects.duckdb import DUCKDB
from repro.dialects.mysql import MYSQL
from repro.dialects.translator import translate

ALL_DIALECTS = {
    "sqlite": SQLITE,
    "postgres": POSTGRES,
    "duckdb": DUCKDB,
    "mysql": MYSQL,
}

__all__ = [
    "DialectProfile",
    "DivisionSemantics",
    "FaultSignature",
    "get_dialect",
    "register_dialect",
    "SQLITE",
    "POSTGRES",
    "DUCKDB",
    "MYSQL",
    "ALL_DIALECTS",
    "translate",
]

"""SQuaLity's unified intermediate representation for test cases.

Terminology follows the paper (Section 2): a *test case* is one SQL statement
plus a specification of its expected behaviour; a *test file* contains several
test cases (which may depend on each other); a *test suite* is a collection of
test files plus the runner.  In the IR:

* :class:`StatementRecord` — a statement expected to succeed or to fail,
* :class:`QueryRecord` — a query with an expected result (value-wise,
  row-wise, or hash form) and a sort mode,
* :class:`ControlRecord` — a non-SQL test-runner command (``skipif``,
  ``require``, ``loop``, ``mode``, psql meta-commands, MySQL ``--`` commands),
* :class:`TestFile` / :class:`TestSuite` — containers.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Iterator


class RecordType(enum.Enum):
    STATEMENT = "statement"
    QUERY = "query"
    CONTROL = "control"


class SortMode(enum.Enum):
    """SLT result sort modes."""

    NOSORT = "nosort"
    ROWSORT = "rowsort"
    VALUESORT = "valuesort"


class ResultFormat(enum.Enum):
    """How the expected result of a query record is specified."""

    VALUE_WISE = "value"   # one value per line (SLT)
    ROW_WISE = "row"       # one row per line (DuckDB, MySQL)
    HASH = "hash"          # "<count> values hashing to <md5>"
    TABLE = "table"        # psql-style table text (PostgreSQL)


@dataclass(frozen=True)
class Condition:
    """A ``skipif <dbms>`` / ``onlyif <dbms>`` guard attached to a record."""

    kind: str   # "skipif" | "onlyif"
    dbms: str

    def allows(self, host: str) -> bool:
        """Whether the guarded record should run on ``host``."""
        same = canonical_dbms(self.dbms) == canonical_dbms(host)
        if self.kind == "skipif":
            return not same
        return same


#: spellings of one DBMS in guards, adapter names and host labels
_DBMS_ALIASES = {"sqlite3": "sqlite", "sqlite-mini": "sqlite", "postgresql": "postgres", "mariadb": "mysql"}


def canonical_dbms(name: str) -> str:
    """The one name of the DBMS ``name`` spells (``"PostgreSQL"`` -> ``"postgres"``)."""
    lowered = name.lower()
    return _DBMS_ALIASES.get(lowered, lowered)


#: Which DBMS is the donor of each suite: the one it was written for.
DONOR_OF_SUITE = {
    "slt": "sqlite",
    "sqlite": "sqlite",
    "postgres": "postgres",
    "postgresql": "postgres",
    "duckdb": "duckdb",
    "mysql": "mysql",
}


@dataclass
class Record:
    """Base class for every unified-format record."""

    line: int = 0
    raw: str = ""
    conditions: list[Condition] = field(default_factory=list)

    @property
    def record_type(self) -> RecordType:
        raise NotImplementedError

    def runs_on(self, host: str) -> bool:
        """Whether the record's skipif/onlyif conditions allow ``host``."""
        return all(condition.allows(host) for condition in self.conditions)


@dataclass
class StatementRecord(Record):
    """An SQL statement with an expected execution status."""

    sql: str = ""
    expect_ok: bool = True
    expected_error: str | None = None

    @property
    def record_type(self) -> RecordType:
        return RecordType.STATEMENT


@dataclass
class QueryRecord(Record):
    """A query with an expected result."""

    sql: str = ""
    type_string: str = ""
    sort_mode: SortMode = SortMode.NOSORT
    label: str | None = None
    result_format: ResultFormat = ResultFormat.VALUE_WISE
    expected_values: list[str] = field(default_factory=list)
    expected_rows: list[list[str]] = field(default_factory=list)
    expected_hash: str | None = None
    expected_hash_count: int = 0
    expected_column_names: list[str] = field(default_factory=list)

    @property
    def record_type(self) -> RecordType:
        return RecordType.QUERY


@dataclass
class ControlRecord(Record):
    """A non-SQL test-runner command."""

    command: str = ""
    arguments: list[str] = field(default_factory=list)

    @property
    def record_type(self) -> RecordType:
        return RecordType.CONTROL


@dataclass
class TestFile:
    """All records parsed from one native-format test file.

    A parsed file is immutable: this package's format parsers record a
    digest of the parse inputs in ``_source_digest``, and
    :func:`repro.store.keys.content_hash` keys the file by that digest, so an
    edit after parsing would still address the artifacts of the source.
    Hand-built files carry no digest and are hashed by their records.
    """

    # not a pytest test class, despite the name
    __test__ = False

    path: str
    suite: str                       # donor suite: "slt" | "duckdb" | "postgres" | "mysql"
    records: list[Record] = field(default_factory=list)
    source_lines: int = 0
    # private: neither ``==`` nor ``canonical_bytes`` sees it
    _source_digest: bytes | None = field(default=None, init=False, repr=False, compare=False)

    def sql_records(self) -> list[Record]:
        """Statement and query records, in order."""
        return [record for record in self.records if record.record_type is not RecordType.CONTROL]

    def control_records(self) -> list[ControlRecord]:
        return [record for record in self.records if isinstance(record, ControlRecord)]

    def statements(self) -> list[str]:
        """The raw SQL text of every statement/query record."""
        return [record.sql for record in self.sql_records()]  # type: ignore[attr-defined]

    def __len__(self) -> int:
        return len(self.records)


@dataclass
class TestSuite:
    """A named collection of test files (one donor DBMS's suite)."""

    # not a pytest test class, despite the name
    __test__ = False

    name: str
    files: list[TestFile] = field(default_factory=list)

    def __iter__(self) -> Iterator[TestFile]:
        return iter(self.files)

    def __len__(self) -> int:
        return len(self.files)

    @property
    def total_records(self) -> int:
        return sum(len(test_file) for test_file in self.files)

    @property
    def total_sql_records(self) -> int:
        return sum(len(test_file.sql_records()) for test_file in self.files)

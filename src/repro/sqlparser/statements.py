"""Statement splitting, statement-type classification, standard compliance.

This module implements the RQ2 methodology: every SQL statement extracted from
a test file is assigned a *statement type* (the leading verb phrase such as
``SELECT``, ``CREATE TABLE``, ``PRAGMA``) and a *standard compliance* flag that
says whether the statement type is defined by the ANSI/ISO SQL standard.

The classification is best-effort by design, mirroring the paper's use of
``sqlparse``: intentionally-broken statements used to exercise DBMS parsers
(``SELEC 1``) are classified under their literal leading token, and statements
wrapped in stray parentheses keep the parenthesis prefix, exactly as the paper
describes observing (Section 4, "Infrequently used SQL statements").
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.perf import cache as perf_cache
from repro.sqlparser.tokenizer import Token, TokenType, tokenize

#: Statement types whose syntax is defined by the ANSI/ISO SQL standard [2].
#: ``CREATE INDEX`` is *not* part of the standard (the paper calls this out for
#: SLT's 35.9% of files); neither are ``PRAGMA``, ``SET``, ``EXPLAIN``,
#: ``VACUUM``, ``COPY``, ``SHOW``, or ``ATTACH``.
STANDARD_STATEMENT_TYPES = frozenset(
    {
        "SELECT",
        "INSERT",
        "UPDATE",
        "DELETE",
        "CREATE TABLE",
        "CREATE VIEW",
        "CREATE SCHEMA",
        "DROP TABLE",
        "DROP VIEW",
        "DROP SCHEMA",
        "ALTER TABLE",
        "WITH",
        "VALUES",
        "COMMIT",
        "ROLLBACK",
        "START TRANSACTION",
        "SAVEPOINT",
        "RELEASE SAVEPOINT",
        "GRANT",
        "REVOKE",
        "DECLARE",
        "FETCH",
        "CREATE FUNCTION",
        "DROP FUNCTION",
        "CREATE PROCEDURE",
        "DROP PROCEDURE",
        "CREATE TRIGGER",
        "DROP TRIGGER",
        "CREATE SEQUENCE",
        "DROP SEQUENCE",
        "TRUNCATE",
        "CASE",
    }
)

#: Two-word statement prefixes.  If the second keyword matches, the type is the
#: two-word phrase; otherwise it falls back to the first keyword.
_TWO_WORD_PREFIXES = {
    "CREATE": {
        "TABLE",
        "INDEX",
        "VIEW",
        "SCHEMA",
        "FUNCTION",
        "PROCEDURE",
        "TRIGGER",
        "SEQUENCE",
        "DATABASE",
        "TYPE",
        "MACRO",
        "EXTENSION",
        "ROLE",
        "USER",
    },
    "DROP": {
        "TABLE",
        "INDEX",
        "VIEW",
        "SCHEMA",
        "FUNCTION",
        "PROCEDURE",
        "TRIGGER",
        "SEQUENCE",
        "DATABASE",
        "TYPE",
        "MACRO",
        "EXTENSION",
        "ROLE",
        "USER",
    },
    "ALTER": {"TABLE", "INDEX", "VIEW", "SCHEMA", "SEQUENCE", "DATABASE", "TYPE", "ROLE", "USER"},
    "START": {"TRANSACTION"},
    "RELEASE": {"SAVEPOINT"},
    "LOCK": {"TABLE"},
    "REFRESH": {"MATERIALIZED"},
}

#: Modifier keywords skipped between CREATE/DROP and the object kind, e.g.
#: ``CREATE TEMP TABLE``, ``CREATE OR REPLACE VIEW``, ``CREATE UNIQUE INDEX``.
_CREATE_MODIFIERS = {
    "TEMP",
    "TEMPORARY",
    "UNIQUE",
    "OR",
    "REPLACE",
    "MATERIALIZED",
    "VIRTUAL",
    "GLOBAL",
    "LOCAL",
    "IF",
    "NOT",
    "EXISTS",
    "RECURSIVE",
}


@dataclass(frozen=True)
class StatementInfo:
    """Classification result for a single SQL statement."""

    text: str
    statement_type: str
    is_standard: bool
    is_query: bool
    is_cli_command: bool = False


def split_statements(sql: str) -> list[str]:
    """Split a SQL script into individual statements on top-level semicolons.

    String literals, quoted identifiers, comments, and dollar-quoted bodies are
    respected, so semicolons inside them do not split.  Empty fragments are
    dropped.  Statements keep their original text (without the trailing
    semicolon), preserving internal whitespace.
    """
    statements: list[str] = []
    depth = 0
    start = 0
    last_significant_end = 0
    tokens = tokenize(sql, include_whitespace=True, include_comments=True)
    for token in tokens:
        if token.type is TokenType.PUNCTUATION:
            if token.value == "(":
                depth += 1
            elif token.value == ")":
                depth = max(0, depth - 1)
            elif token.value == ";" and depth == 0:
                fragment = sql[start : token.position].strip()
                if fragment:
                    statements.append(fragment)
                start = token.position + 1
        if token.type not in (TokenType.WHITESPACE, TokenType.COMMENT):
            last_significant_end = token.position + len(token.value)
    tail = sql[start:last_significant_end].strip() if last_significant_end > start else sql[start:].strip()
    if tail:
        statements.append(tail)
    return statements


def _significant_tokens(sql: str) -> list[Token]:
    try:
        return tokenize(sql)
    except Exception:
        # Intentionally malformed statements (e.g. unterminated strings used
        # to stress DBMS parsers) still deserve a best-effort classification:
        # fall back to whitespace splitting of the raw text.
        words = sql.split()
        fake: list[Token] = []
        offset = 0
        for word in words[:4]:
            fake.append(Token(TokenType.IDENTIFIER, word, word.lower(), offset))
            offset += len(word) + 1
        return fake


#: Statement-type memo: the classification is a pure function of the SQL text
#: and every record is classified once per host per campaign flavour.
_TYPE_MEMO = perf_cache.LRUCache("statement_type", maxsize=16384)


def statement_type(sql: str) -> str:
    """Return the statement type of ``sql`` (e.g. ``"SELECT"``, ``"CREATE TABLE"``).

    psql CLI meta-commands (lines starting with a backslash) are classified as
    ``CLI_COMMAND``; completely empty inputs as ``EMPTY``.
    """
    if not perf_cache.caching_enabled():
        return _statement_type(sql)
    cached = _TYPE_MEMO.peek(sql)
    if cached is not None:
        return cached
    result = _statement_type(sql)
    _TYPE_MEMO.put(sql, result)
    return result


def _statement_type(sql: str) -> str:
    stripped = sql.lstrip()
    if not stripped:
        return "EMPTY"
    if stripped.startswith("\\"):
        return "CLI_COMMAND"
    tokens = _significant_tokens(stripped)
    if not tokens:
        return "EMPTY"

    # Preserve stray-parenthesis prefixes, as the paper observed sqlparse does.
    paren_prefix = ""
    index = 0
    while index < len(tokens) and tokens[index].value == "(":
        paren_prefix += "("
        index += 1
    if index >= len(tokens):
        return paren_prefix or "EMPTY"

    head = tokens[index]
    if head.type is TokenType.KEYWORD:
        first = head.normalized
    elif head.type is TokenType.IDENTIFIER:
        first = head.value.upper()
    else:
        first = head.value.upper()

    result = first
    expected_seconds = _TWO_WORD_PREFIXES.get(first)
    if expected_seconds:
        for token in tokens[index + 1 : index + 8]:
            word = token.normalized if token.type is TokenType.KEYWORD else token.value.upper()
            if word in expected_seconds:
                result = f"{first} {word}"
                break
            if word not in _CREATE_MODIFIERS:
                break
    if first == "REFRESH" and result == "REFRESH MATERIALIZED":
        result = "REFRESH MATERIALIZED VIEW"
    return paren_prefix + result


def is_standard_statement(stype: str) -> bool:
    """Whether statement type ``stype`` is defined by the ANSI/ISO SQL standard."""
    return stype in STANDARD_STATEMENT_TYPES


_QUERY_TYPES = {"SELECT", "VALUES", "WITH", "SHOW", "EXPLAIN", "DESCRIBE", "PRAGMA", "FETCH"}


def classify_statement(sql: str) -> StatementInfo:
    """Classify one SQL statement and return a :class:`StatementInfo`."""
    stype = statement_type(sql)
    bare = stype.lstrip("(")
    return StatementInfo(
        text=sql,
        statement_type=stype,
        is_standard=is_standard_statement(bare),
        is_query=bare in _QUERY_TYPES,
        is_cli_command=stype == "CLI_COMMAND",
    )

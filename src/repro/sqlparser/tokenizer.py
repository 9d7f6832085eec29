"""A dialect-agnostic SQL tokenizer.

The tokenizer is deliberately permissive: its job is to turn SQL text from any
of the four studied dialects (SQLite, PostgreSQL, DuckDB, MySQL) into a flat
token stream that the statement classifier, the structural analyzer, and the
MiniDB parser can all consume.  It understands:

* single-quoted string literals with ``''`` escaping (and MySQL ``\\'``),
* dollar-quoted strings (PostgreSQL ``$$ ... $$`` / ``$tag$ ... $tag$``),
* double-quoted and backtick-quoted identifiers, and ``[bracketed]`` ones,
* line comments (``--`` and MySQL ``#``) and block comments (``/* ... */``),
* numeric literals including decimals, exponents and hex (``0x1F``),
* multi-character operators (``::``, ``||``, ``<=``, ``>=``, ``<>``, ``!=``,
  ``<<``, ``>>``, ``->``, ``->>``, ``**``),
* parameters (``?``, ``$1``, ``:name``, ``@name``).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterator

from repro.errors import SQLSyntaxError
from repro.perf import cache as perf_cache


class TokenType(enum.Enum):
    """Lexical category of a :class:`Token`."""

    KEYWORD = "keyword"
    IDENTIFIER = "identifier"
    QUOTED_IDENTIFIER = "quoted_identifier"
    STRING = "string"
    NUMBER = "number"
    OPERATOR = "operator"
    PUNCTUATION = "punctuation"
    PARAMETER = "parameter"
    COMMENT = "comment"
    WHITESPACE = "whitespace"


#: Keywords recognised across the four dialects.  The set is intentionally a
#: superset of the SQL standard: classification into standard / non-standard
#: happens later in :mod:`repro.sqlparser.statements`.
KEYWORDS = frozenset(
    """
    ABORT ADD ALL ALTER ANALYZE AND ANY AS ASC ASOF ATTACH AUTOINCREMENT
    BEGIN BETWEEN BIGINT BLOB BOOLEAN BOTH BY CASCADE CASE CAST CHECK COLLATE
    COLUMN COMMIT CONFLICT CONSTRAINT COPY CREATE CROSS CTE CURRENT CURRENT_DATE
    CURRENT_TIME CURRENT_TIMESTAMP DATABASE DEALLOCATE DECIMAL DEFAULT DEFERRABLE
    DELETE DESC DESCRIBE DETACH DISTINCT DIV DO DOUBLE DROP EACH ELSE END ESCAPE
    EXCEPT EXCLUSIVE EXEC EXECUTE EXISTS EXPLAIN FALSE FETCH FILTER FIRST FLOAT
    FOLLOWING FOR FOREIGN FROM FULL FUNCTION GLOB GRANT GROUP HAVING IF IGNORE
    ILIKE IMMEDIATE IN INDEX INDEXED INITIALLY INNER INSERT INSTEAD INT INTEGER
    INTERSECT INTERVAL INTO IS ISNULL JOIN KEY LANGUAGE LAST LEADING LEFT LIKE
    LIMIT LOAD LOCAL LOCK MATERIALIZED NATURAL NO NOT NOTHING NOTNULL NULL NULLS
    NUMERIC OF OFFSET ON ONLY OR ORDER OUTER OVER PARTITION PLAN PRAGMA PRECEDING
    PRECISION PREPARE PRIMARY PROCEDURE RAISE RANGE REAL RECURSIVE REFERENCES
    REGEXP REINDEX RELEASE RENAME REPLACE RESET RESTRICT RETURNING REVOKE RIGHT
    ROLLBACK ROW ROWS SAVEPOINT SCHEMA SELECT SEQUENCE SET SHOW SMALLINT SOME
    START TABLE TEMP TEMPORARY TEXT THEN TIES TIMESTAMP TO TRAILING TRANSACTION
    TRIGGER TRUE TRUNCATE TYPE UNBOUNDED UNION UNIQUE UPDATE USE USING VACUUM
    VALUES VARCHAR VIEW VIRTUAL WHEN WHERE WINDOW WITH WITHOUT WORK
    """.split()
)

#: Multi-character operators, longest first so greedy matching works.
_MULTI_CHAR_OPERATORS = (
    "->>",
    "::",
    "||",
    "<=",
    ">=",
    "<>",
    "!=",
    "==",
    "<<",
    ">>",
    "->",
    "**",
    "!~",
    "~*",
)

_SINGLE_CHAR_OPERATORS = set("+-*/%<>=~&|^!")
_PUNCTUATION = set("(),;.")


@dataclass(frozen=True)
class Token:
    """A single lexical token.

    ``value`` preserves the original text (including quotes for strings and
    quoted identifiers) so the tokenizer is loss-less; ``normalized`` is the
    uppercase form for keywords and the unquoted form for identifiers/strings,
    which is what most consumers want to compare against.
    """

    type: TokenType
    value: str
    normalized: str
    position: int

    def is_keyword(self, *names: str) -> bool:
        """Return True when this token is a keyword equal to one of ``names``."""
        return self.type is TokenType.KEYWORD and self.normalized in names

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Token({self.type.name}, {self.value!r})"


def _read_line_comment(text: str, pos: int) -> int:
    end = text.find("\n", pos)
    return len(text) if end == -1 else end


def _read_block_comment(text: str, pos: int) -> int:
    end = text.find("*/", pos + 2)
    if end == -1:
        raise SQLSyntaxError("unterminated block comment")
    return end + 2


def _read_single_quoted(text: str, pos: int, allow_backslash: bool = True) -> int:
    """Return the index one past the closing quote of a string starting at ``pos``."""
    i = pos + 1
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\\" and allow_backslash and i + 1 < n:
            i += 2
            continue
        if ch == "'":
            if i + 1 < n and text[i + 1] == "'":
                i += 2
                continue
            return i + 1
        i += 1
    raise SQLSyntaxError("unterminated string literal")


def _read_quoted(text: str, pos: int, quote: str) -> int:
    i = pos + 1
    n = len(text)
    while i < n:
        if text[i] == quote:
            if i + 1 < n and text[i + 1] == quote:
                i += 2
                continue
            return i + 1
        i += 1
    raise SQLSyntaxError(f"unterminated quoted identifier ({quote})")


def _read_dollar_quoted(text: str, pos: int) -> int | None:
    """Handle PostgreSQL dollar quoting.  Returns end index or None if not one."""
    n = len(text)
    i = pos + 1
    while i < n and (text[i].isalnum() or text[i] == "_"):
        i += 1
    if i >= n or text[i] != "$":
        return None
    tag = text[pos : i + 1]
    end = text.find(tag, i + 1)
    if end == -1:
        raise SQLSyntaxError("unterminated dollar-quoted string")
    return end + len(tag)


def _read_number(text: str, pos: int) -> int:
    n = len(text)
    i = pos
    if text.startswith("0x", pos) or text.startswith("0X", pos):
        i = pos + 2
        while i < n and (text[i].isdigit() or text[i].lower() in "abcdef"):
            i += 1
        return i
    seen_dot = False
    seen_exp = False
    while i < n:
        ch = text[i]
        if ch.isdigit():
            i += 1
        elif ch == "." and not seen_dot and not seen_exp:
            seen_dot = True
            i += 1
        elif ch in "eE" and not seen_exp and i + 1 < n and (
            text[i + 1].isdigit() or (text[i + 1] in "+-" and i + 2 < n and text[i + 2].isdigit())
        ):
            seen_exp = True
            i += 2 if text[i + 1] in "+-" else 1
        else:
            break
    return i


def _read_word(text: str, pos: int) -> int:
    n = len(text)
    i = pos
    while i < n and (text[i].isalnum() or text[i] in "_$"):
        i += 1
    return i


def iter_tokens(sql: str, include_whitespace: bool = False, include_comments: bool = False) -> Iterator[Token]:
    """Yield tokens for ``sql``.

    Whitespace and comments are skipped unless explicitly requested; most
    consumers only care about the significant tokens.
    """
    n = len(sql)
    pos = 0
    while pos < n:
        ch = sql[pos]

        if ch.isspace():
            end = pos
            while end < n and sql[end].isspace():
                end += 1
            if include_whitespace:
                yield Token(TokenType.WHITESPACE, sql[pos:end], " ", pos)
            pos = end
            continue

        if sql.startswith("--", pos) or ch == "#":
            end = _read_line_comment(sql, pos)
            if include_comments:
                yield Token(TokenType.COMMENT, sql[pos:end], sql[pos:end], pos)
            pos = end
            continue

        if sql.startswith("/*", pos):
            end = _read_block_comment(sql, pos)
            if include_comments:
                yield Token(TokenType.COMMENT, sql[pos:end], sql[pos:end], pos)
            pos = end
            continue

        if ch == "'":
            end = _read_single_quoted(sql, pos)
            raw = sql[pos:end]
            yield Token(TokenType.STRING, raw, raw[1:-1].replace("''", "'"), pos)
            pos = end
            continue

        if ch in ('"', "`"):
            end = _read_quoted(sql, pos, ch)
            raw = sql[pos:end]
            yield Token(TokenType.QUOTED_IDENTIFIER, raw, raw[1:-1].replace(ch * 2, ch), pos)
            pos = end
            continue

        if ch == "[":
            # ``[name]`` is a SQL-Server-style quoted identifier, but DuckDB
            # uses brackets for LIST literals (``[1, 2, 3]``); only treat the
            # bracketed text as an identifier when it looks like one.
            end = sql.find("]", pos)
            if end != -1:
                inner = sql[pos + 1 : end]
                if inner and inner.replace("_", "a").replace(" ", "a").isalnum() and not inner[:1].isdigit():
                    raw = sql[pos : end + 1]
                    yield Token(TokenType.QUOTED_IDENTIFIER, raw, inner, pos)
                    pos = end + 1
                    continue
            # fall through: treat as punctuation below

        if ch == "$":
            dq_end = _read_dollar_quoted(sql, pos)
            if dq_end is not None:
                raw = sql[pos:dq_end]
                inner = raw[raw.index("$", 1) + 1 : raw.rindex("$", 0, len(raw) - 1)]
                # strip the leading/trailing tag markers to recover the body
                tag_len = raw.index("$", 1) + 1
                body = raw[tag_len : len(raw) - tag_len]
                yield Token(TokenType.STRING, raw, body if body else inner, pos)
                pos = dq_end
                continue
            end = _read_word(sql, pos + 1)
            yield Token(TokenType.PARAMETER, sql[pos:end], sql[pos:end], pos)
            pos = end
            continue

        if ch in ("?",):
            yield Token(TokenType.PARAMETER, ch, ch, pos)
            pos += 1
            continue

        if ch in (":", "@") and pos + 1 < n and (sql[pos + 1].isalpha() or sql[pos + 1] == "_"):
            # ``::`` cast must win over ``:name`` parameters.
            if not sql.startswith("::", pos):
                end = _read_word(sql, pos + 1)
                yield Token(TokenType.PARAMETER, sql[pos:end], sql[pos:end], pos)
                pos = end
                continue

        if ch.isdigit() or (ch == "." and pos + 1 < n and sql[pos + 1].isdigit()):
            end = _read_number(sql, pos)
            yield Token(TokenType.NUMBER, sql[pos:end], sql[pos:end], pos)
            pos = end
            continue

        if ch.isalpha() or ch == "_":
            end = _read_word(sql, pos)
            word = sql[pos:end]
            upper = word.upper()
            if upper in KEYWORDS:
                yield Token(TokenType.KEYWORD, word, upper, pos)
            else:
                yield Token(TokenType.IDENTIFIER, word, word.lower(), pos)
            pos = end
            continue

        matched_multi = False
        for op in _MULTI_CHAR_OPERATORS:
            if sql.startswith(op, pos):
                yield Token(TokenType.OPERATOR, op, op, pos)
                pos += len(op)
                matched_multi = True
                break
        if matched_multi:
            continue

        if ch in _SINGLE_CHAR_OPERATORS:
            yield Token(TokenType.OPERATOR, ch, ch, pos)
            pos += 1
            continue

        if ch in _PUNCTUATION or ch in "[]{}":
            yield Token(TokenType.PUNCTUATION, ch, ch, pos)
            pos += 1
            continue

        if ch == ":":
            # a bare colon (DuckDB struct literals ``{'k': 1}``, PostgreSQL
            # slice syntax); ``::`` and ``:name`` parameters are handled above.
            yield Token(TokenType.OPERATOR, ch, ch, pos)
            pos += 1
            continue

        if ch == "\\":
            # psql meta-command leaked into SQL text; emit as operator so the
            # classifier can flag the statement as a CLI command.
            yield Token(TokenType.OPERATOR, ch, ch, pos)
            pos += 1
            continue

        raise SQLSyntaxError(f"unexpected character {ch!r} at offset {pos}")


#: Memoized token streams for the default (significant-tokens-only) mode.
#: Values are tuples: the public API hands out fresh lists so callers may
#: mutate their copy without corrupting the cache.
_TOKEN_CACHE = perf_cache.LRUCache("tokenize", maxsize=16384)

#: Statements longer than this are not worth interning (one-off bulk scripts).
_TOKEN_CACHE_MAX_SQL = 20_000


def tokenize(sql: str, include_whitespace: bool = False, include_comments: bool = False) -> list[Token]:
    """Tokenize ``sql`` into a list of :class:`Token` objects.

    Results for the default mode are memoized process-wide: the translator,
    the statement classifier, and the MiniDB parser repeatedly tokenize the
    same statements when a suite is replayed across hosts.
    """
    if (
        include_whitespace
        or include_comments
        or len(sql) > _TOKEN_CACHE_MAX_SQL
        or not perf_cache.caching_enabled()
    ):
        return list(iter_tokens(sql, include_whitespace=include_whitespace, include_comments=include_comments))
    cached = _TOKEN_CACHE.peek(sql)
    if cached is None:
        cached = tuple(iter_tokens(sql))
        _TOKEN_CACHE.put(sql, cached)
    return list(cached)

"""Best-effort cross-dialect SQL translation.

The paper's implications (Section 6 and 9) suggest that a large share of the
*syntax-difference* failures could be recovered by translating statements from
the donor dialect into the host dialect before execution.  This module
implements such a translator over the token stream produced by
:mod:`repro.sqlparser.tokenizer` — a deliberately lightweight substitute for
``sqlglot``, which is not available offline.

Handled rewrites (each one corresponds to an incompatibility class observed in
RQ4):

* ``expr::type``  →  ``CAST(expr AS type)`` when the host lacks the ``::``
  operator (SQLite, MySQL).
* ``a DIV b``     →  integer-division emulation for hosts without ``DIV``.
* ``/`` division wrapped in ``CAST(... AS INTEGER)`` when donor semantics are
  integer but host semantics are decimal (and vice versa via ``* 1.0``).
* ``||``          →  ``CONCAT(a, b)`` for MySQL (where ``||`` is logical OR).
* ``BEGIN``       ↔  ``START TRANSACTION`` depending on host support.
* ``PRAGMA name=value`` → ``SET name=value`` (and back) where meaningful.
* ``VARCHAR``     →  ``VARCHAR(255)`` for hosts requiring a length (MySQL).
* dialect-specific functions are mapped onto host equivalents where a direct
  equivalent exists (``range`` → ``generate_series`` with adjusted bounds is
  approximated by name mapping only).

Translation never raises for unknown constructs: the statement is returned
unchanged and the caller decides whether to run it as-is.  ``translate`` also
reports which rewrites were applied so ablation experiments can quantify them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.dialects.base import DialectProfile, DivisionSemantics
from repro.perf import cache as perf_cache
from repro.sqlparser.tokenizer import TokenType, tokenize

#: Function-name equivalences: maps (donor function, host dialect) -> host function.
_FUNCTION_EQUIVALENTS: dict[tuple[str, str], str] = {
    ("range", "postgres"): "generate_series",
    ("range", "sqlite"): "generate_series",
    ("range", "mysql"): "",  # no equivalent: left unchanged, flagged
    ("pg_typeof", "sqlite"): "typeof",
    ("typeof", "postgres"): "pg_typeof",
    ("ifnull", "postgres"): "coalesce",
    ("ifnull", "duckdb"): "coalesce",
    ("instr", "postgres"): "strpos",
    ("group_concat", "postgres"): "string_agg",
    ("string_agg", "sqlite"): "group_concat",
    ("string_agg", "mysql"): "group_concat",
    ("median", "postgres"): "",
    ("median", "sqlite"): "",
    ("median", "mysql"): "",
}


@dataclass
class TranslationResult:
    """Outcome of translating a single statement."""

    sql: str
    applied_rules: list[str] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)

    @property
    def changed(self) -> bool:
        return bool(self.applied_rules)


def _retokenize(parts: list[str]) -> str:
    """Join rewritten token texts with single spaces, tidying punctuation."""
    out: list[str] = []
    for part in parts:
        if not out:
            out.append(part)
            continue
        if part in (",", ")", ";", "."):
            out[-1] = out[-1] + part
        elif out[-1].endswith(("(", ".")):
            out[-1] = out[-1] + part
        else:
            out.append(part)
    return " ".join(out)


def _find_operand_start(parts: list[str]) -> int:
    """Index in ``parts`` where the operand ending at the list tail begins.

    Handles a trailing ``)``-balanced group, a function call, or a single
    identifier/literal; used to wrap the left operand of ``::`` and ``DIV``.
    """
    if not parts:
        return 0
    i = len(parts) - 1
    if parts[i].endswith(")"):
        depth = 0
        while i >= 0:
            depth += parts[i].count(")") - parts[i].count("(")
            if depth <= 0:
                break
            i -= 1
        # include a function name directly before the parenthesis group
        if i > 0 and parts[i - 1][-1:].isalnum():
            return i - 1 if parts[i].startswith("(") else i
        return max(i, 0)
    return i


#: Memoized translations keyed on ``(sql, source.name, target.name)``.  Suites
#: repeat schema-setup statements thousands of times per (donor, host) pair;
#: translation is a pure function of the key, so cached results are shared by
#: reference — callers must treat a :class:`TranslationResult` as immutable.
_TRANSLATE_CACHE = perf_cache.LRUCache("translate", maxsize=16384)


def translate(sql: str, source: DialectProfile, target: DialectProfile) -> TranslationResult:
    """Translate one statement from ``source`` dialect to ``target`` dialect."""
    if source.name == target.name:
        return TranslationResult(sql=sql)
    if not perf_cache.caching_enabled():
        return _translate_uncached(sql, source, target)
    key = (sql, source.name, target.name)
    result = _TRANSLATE_CACHE.get(key)
    if result is None:
        result = _translate_uncached(sql, source, target)
        _TRANSLATE_CACHE.put(key, result)
    return result


def _translate_uncached(sql: str, source: DialectProfile, target: DialectProfile) -> TranslationResult:
    try:
        tokens = tokenize(sql)
    except Exception:
        return TranslationResult(sql=sql, warnings=["tokenization failed; statement left unchanged"])

    applied: list[str] = []
    warnings: list[str] = []
    parts: list[str] = []
    index = 0
    n = len(tokens)

    while index < n:
        token = tokens[index]

        # ``expr :: type``  ->  CAST(expr AS type)
        if token.type is TokenType.OPERATOR and token.value == "::" and not target.supports_double_colon_cast:
            if index + 1 < n and tokens[index + 1].type in (TokenType.IDENTIFIER, TokenType.KEYWORD):
                type_name = tokens[index + 1].value
                start = _find_operand_start(parts)
                operand = " ".join(parts[start:])
                del parts[start:]
                parts.append(f"CAST({operand} AS {type_name})")
                applied.append("cast_operator")
                index += 2
                continue

        # ``a DIV b``  ->  CAST(a / b AS INTEGER) on hosts without DIV
        if token.is_keyword("DIV") and not target.supports_div_operator:
            if parts and index + 1 < n:
                start = _find_operand_start(parts)
                left = " ".join(parts[start:])
                del parts[start:]
                right = tokens[index + 1].value
                if target.division is DivisionSemantics.INTEGER:
                    parts.append(f"( {left} / {right} )")
                else:
                    parts.append(f"CAST({left} / {right} AS INTEGER)")
                applied.append("div_operator")
                index += 2
                continue

        # ``a / b`` with differing integer-division semantics.
        if token.type is TokenType.OPERATOR and token.value == "/":
            if source.division is not target.division:
                if source.division is DivisionSemantics.INTEGER:
                    # donor expects truncating division; force it on the host
                    if parts and index + 1 < n:
                        start = _find_operand_start(parts)
                        left = " ".join(parts[start:])
                        del parts[start:]
                        right_tokens = [tokens[index + 1].value]
                        skip = 2
                        if tokens[index + 1].value in ("(", "+", "-") :
                            # copy a parenthesised / signed right operand verbatim
                            depth = 0
                            right_tokens = []
                            j = index + 1
                            while j < n:
                                value = tokens[j].value
                                right_tokens.append(value)
                                if value == "(":
                                    depth += 1
                                elif value == ")":
                                    depth -= 1
                                    if depth <= 0:
                                        break
                                elif depth == 0 and j > index + 1 and tokens[j].type in (TokenType.NUMBER, TokenType.IDENTIFIER):
                                    break
                                j += 1
                            skip = j - index + 1
                        right = " ".join(right_tokens)
                        parts.append(f"CAST({left} / {right} AS INTEGER)")
                        applied.append("integer_division")
                        index += skip
                        continue
                else:
                    # donor expects decimal division; promote one operand
                    if parts:
                        start = _find_operand_start(parts)
                        left = " ".join(parts[start:])
                        del parts[start:]
                        parts.append(f"( {left} * 1.0 ) /")
                        applied.append("decimal_division")
                        index += 1
                        continue

        # ``a || b`` on MySQL means logical OR; rewrite to CONCAT.
        if token.type is TokenType.OPERATOR and token.value == "||":
            if source.pipes_as_concat and not target.pipes_as_concat:
                if parts and index + 1 < n:
                    start = _find_operand_start(parts)
                    left = " ".join(parts[start:])
                    del parts[start:]
                    right = tokens[index + 1].value
                    parts.append(f"CONCAT({left}, {right})")
                    applied.append("concat_operator")
                    index += 2
                    continue

        # BEGIN <-> START TRANSACTION
        if index == 0 and token.is_keyword("BEGIN") and not target.supports_start_transaction:
            parts.append("BEGIN")
            applied_none = True  # BEGIN is universally accepted; nothing to do
            index += 1
            continue
        if index == 0 and token.is_keyword("START") and index + 1 < n and tokens[index + 1].is_keyword("TRANSACTION"):
            if not target.supports_start_transaction:
                parts.append("BEGIN")
                applied.append("start_transaction")
                index += 2
                continue

        # PRAGMA name=value  ->  SET name=value (and the reverse direction)
        if index == 0 and token.is_keyword("PRAGMA") and not target.supports_pragma and target.supports_set:
            parts.append("SET")
            applied.append("pragma_to_set")
            index += 1
            continue
        if index == 0 and token.is_keyword("SET") and not target.supports_set and target.supports_pragma:
            parts.append("PRAGMA")
            applied.append("set_to_pragma")
            index += 1
            continue

        # VARCHAR without a length on hosts that require one.
        if (
            token.type is TokenType.KEYWORD
            and token.normalized == "VARCHAR"
            and target.requires_varchar_length
            and (index + 1 >= n or tokens[index + 1].value != "(")
        ):
            parts.append("VARCHAR(255)")
            applied.append("varchar_length")
            index += 1
            continue

        # Function-name mapping.
        if token.type is TokenType.IDENTIFIER and index + 1 < n and tokens[index + 1].value == "(":
            name = token.normalized
            if not target.supports_function(name):
                replacement = _FUNCTION_EQUIVALENTS.get((name, target.name))
                if replacement:
                    parts.append(replacement)
                    applied.append(f"function:{name}->{replacement}")
                    index += 1
                    continue
                warnings.append(f"function {name!r} has no {target.display_name} equivalent")

        parts.append(token.value)
        index += 1

    if not applied:
        return TranslationResult(sql=sql, warnings=warnings)
    return TranslationResult(sql=_retokenize(parts), applied_rules=applied, warnings=warnings)

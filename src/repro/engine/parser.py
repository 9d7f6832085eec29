"""Recursive-descent SQL parser producing MiniDB AST nodes.

The parser accepts a superset of the four studied dialects' syntax; dialect
*support* decisions (is ``::`` allowed? does ``PRAGMA`` exist?) are made later
by the session using its :class:`~repro.dialects.base.DialectProfile`, because
the failure classifier needs "parsed fine but unsupported on this host" to be
distinguishable from "syntax error".
"""

from __future__ import annotations

from typing import Any

from repro.engine import ast_nodes as ast
from repro.errors import SQLSyntaxError
from repro.sqlparser.statements import statement_type
from repro.sqlparser.tokenizer import Token, TokenType, tokenize

_COMPOUND_OPERATORS = {"UNION", "INTERSECT", "EXCEPT"}


class Parser:
    """Parses a single SQL statement into an AST node."""

    def __init__(self, sql: str):
        self.sql = sql
        try:
            self.tokens: list[Token] = tokenize(sql)
        except SQLSyntaxError:
            raise
        self.position = 0

    # -- token-stream helpers -------------------------------------------------

    def _peek(self, offset: int = 0) -> Token | None:
        index = self.position + offset
        if index < len(self.tokens):
            return self.tokens[index]
        return None

    def _at_end(self) -> bool:
        token = self._peek()
        return token is None or (token.type is TokenType.PUNCTUATION and token.value == ";")

    def _advance(self) -> Token:
        token = self._peek()
        if token is None:
            raise SQLSyntaxError(f"unexpected end of input in: {self.sql!r}")
        self.position += 1
        return token

    def _check_keyword(self, *names: str) -> bool:
        token = self._peek()
        return token is not None and token.is_keyword(*names)

    def _match_keyword(self, *names: str) -> bool:
        if self._check_keyword(*names):
            self.position += 1
            return True
        return False

    def _expect_keyword(self, *names: str) -> Token:
        token = self._peek()
        if token is None or not token.is_keyword(*names):
            found = token.value if token else "end of input"
            raise SQLSyntaxError(f"expected {' or '.join(names)}, found {found!r}")
        return self._advance()

    def _check_punct(self, value: str) -> bool:
        token = self._peek()
        return token is not None and token.type is TokenType.PUNCTUATION and token.value == value

    def _match_punct(self, value: str) -> bool:
        if self._check_punct(value):
            self.position += 1
            return True
        return False

    def _expect_punct(self, value: str) -> Token:
        token = self._peek()
        if token is None or token.type is not TokenType.PUNCTUATION or token.value != value:
            found = token.value if token else "end of input"
            raise SQLSyntaxError(f"expected {value!r}, found {found!r}")
        return self._advance()

    def _check_operator(self, *values: str) -> bool:
        token = self._peek()
        return token is not None and token.type is TokenType.OPERATOR and token.value in values

    def _match_operator(self, *values: str) -> Token | None:
        if self._check_operator(*values):
            return self._advance()
        return None

    def _identifier(self, what: str = "identifier") -> str:
        token = self._peek()
        if token is None:
            raise SQLSyntaxError(f"expected {what}, found end of input")
        if token.type in (TokenType.IDENTIFIER, TokenType.QUOTED_IDENTIFIER):
            self._advance()
            return token.normalized
        # Non-reserved keywords can serve as identifiers in practice.
        if token.type is TokenType.KEYWORD:
            self._advance()
            return token.value.lower()
        raise SQLSyntaxError(f"expected {what}, found {token.value!r}")

    # -- entry point ----------------------------------------------------------

    def parse_statement(self) -> Any:
        token = self._peek()
        if token is None:
            raise SQLSyntaxError("empty statement")
        if token.is_keyword("SELECT") or token.is_keyword("VALUES") or token.is_keyword("WITH") or self._check_punct("("):
            return self.parse_select()
        if token.is_keyword("INSERT", "REPLACE"):
            return self.parse_insert()
        if token.is_keyword("UPDATE"):
            return self.parse_update()
        if token.is_keyword("DELETE"):
            return self.parse_delete()
        if token.is_keyword("CREATE"):
            return self.parse_create()
        if token.is_keyword("DROP"):
            return self.parse_drop()
        if token.is_keyword("ALTER"):
            return self.parse_alter()
        if token.is_keyword("BEGIN", "COMMIT", "ROLLBACK", "START", "SAVEPOINT", "RELEASE", "END", "ABORT"):
            return self.parse_transaction()
        if token.is_keyword("SET"):
            return self.parse_set(is_pragma=False)
        if token.is_keyword("PRAGMA"):
            return self.parse_set(is_pragma=True)
        if token.is_keyword("SHOW"):
            self._advance()
            name_parts = []
            while not self._at_end():
                name_parts.append(self._advance().value)
            return ast.ShowStatement(name=" ".join(name_parts).lower())
        if token.is_keyword("EXPLAIN"):
            return self.parse_explain()
        if token.is_keyword("USE"):
            self._advance()
            return ast.UseStatement(database=self._identifier("database name"))
        if token.is_keyword("COPY"):
            return self.parse_copy()
        stype = statement_type(self.sql)
        return ast.UnparsedStatement(text=self.sql, statement_type=stype)

    # -- SELECT ---------------------------------------------------------------

    def parse_select(self) -> ast.SelectStatement:
        ctes: list[ast.CommonTableExpression] = []
        recursive = False
        if self._match_keyword("WITH"):
            recursive = self._match_keyword("RECURSIVE")
            while True:
                name = self._identifier("CTE name")
                columns: list[str] = []
                if self._match_punct("("):
                    while not self._check_punct(")"):
                        columns.append(self._identifier("CTE column"))
                        if not self._match_punct(","):
                            break
                    self._expect_punct(")")
                self._expect_keyword("AS")
                self._expect_punct("(")
                query = self.parse_select()
                self._expect_punct(")")
                ctes.append(ast.CommonTableExpression(name=name, columns=columns, query=query))
                if not self._match_punct(","):
                    break

        statement = self._parse_compound_select()
        statement.ctes = ctes
        statement.recursive = recursive
        return statement

    def _parse_compound_select(self) -> ast.SelectStatement:
        core = self._parse_select_core()
        compound: list[tuple[str, ast.SelectCore]] = []
        while True:
            token = self._peek()
            if token is not None and token.type is TokenType.KEYWORD and token.normalized in _COMPOUND_OPERATORS:
                operator = self._advance().normalized
                if self._match_keyword("ALL"):
                    operator += " ALL"
                elif self._match_keyword("DISTINCT"):
                    pass
                wrapped = self._match_punct("(")
                next_core = self._parse_select_core()
                # nested compound inside parentheses gets flattened
                while wrapped and self._peek() is not None and self._peek().type is TokenType.KEYWORD and self._peek().normalized in _COMPOUND_OPERATORS:
                    inner_op = self._advance().normalized
                    if self._match_keyword("ALL"):
                        inner_op += " ALL"
                    compound.append((operator, next_core))
                    operator = inner_op
                    next_core = self._parse_select_core()
                if wrapped:
                    self._expect_punct(")")
                compound.append((operator, next_core))
            else:
                break

        order_by: list[ast.OrderItem] = []
        limit: ast.Expression | None = None
        offset: ast.Expression | None = None
        if self._match_keyword("ORDER"):
            self._expect_keyword("BY")
            while True:
                expression = self.parse_expression()
                descending = False
                if self._match_keyword("DESC"):
                    descending = True
                elif self._match_keyword("ASC"):
                    descending = False
                nulls = None
                if self._match_keyword("NULLS"):
                    nulls = "first" if self._match_keyword("FIRST") else "last"
                    if nulls == "last":
                        self._match_keyword("LAST")
                order_by.append(ast.OrderItem(expression=expression, descending=descending, nulls=nulls))
                if not self._match_punct(","):
                    break
        if self._match_keyword("LIMIT"):
            limit = self.parse_expression()
            if self._match_punct(","):
                # MySQL LIMIT offset, count
                offset = limit
                limit = self.parse_expression()
            elif self._match_keyword("OFFSET"):
                offset = self.parse_expression()
        elif self._match_keyword("OFFSET"):
            offset = self.parse_expression()
            if self._match_keyword("LIMIT"):
                limit = self.parse_expression()
        if self._match_keyword("FETCH"):
            # FETCH FIRST n ROWS ONLY
            self._match_keyword("FIRST")
            self._match_keyword("NEXT")
            limit = self.parse_expression()
            self._match_keyword("ROWS")
            self._match_keyword("ROW")
            self._match_keyword("ONLY")

        return ast.SelectStatement(core=core, compound=compound, order_by=order_by, limit=limit, offset=offset)

    def _parse_select_core(self) -> ast.SelectCore:
        if self._check_punct("("):
            # parenthesised select core: unwrap, the compound handling copes
            self._advance()
            inner = self._parse_compound_select()
            self._expect_punct(")")
            if inner.compound or inner.order_by or inner.limit is not None:
                # preserve the full statement by wrapping it as a derived table
                core = ast.SelectCore(items=[ast.SelectItem(expression=ast.Star())])
                core.from_tables = [ast.TableRef(subquery=inner, alias="__paren__")]
                return core
            return inner.core

        if self._match_keyword("VALUES"):
            rows: list[list[ast.Expression]] = []
            while True:
                self._expect_punct("(")
                row: list[ast.Expression] = []
                while not self._check_punct(")"):
                    row.append(self.parse_expression())
                    if not self._match_punct(","):
                        break
                self._expect_punct(")")
                rows.append(row)
                if not self._match_punct(","):
                    break
            return ast.SelectCore(values_rows=rows)

        self._expect_keyword("SELECT")
        core = ast.SelectCore()
        if self._match_keyword("DISTINCT"):
            core.distinct = True
        elif self._match_keyword("ALL"):
            core.distinct = False

        # projection list
        while True:
            item = self._parse_select_item()
            core.items.append(item)
            if not self._match_punct(","):
                break

        if self._match_keyword("FROM"):
            core.from_tables = self._parse_from_clause()
        if self._match_keyword("WHERE"):
            core.where = self.parse_expression()
        if self._match_keyword("GROUP"):
            self._expect_keyword("BY")
            while True:
                core.group_by.append(self.parse_expression())
                if not self._match_punct(","):
                    break
        if self._match_keyword("HAVING"):
            core.having = self.parse_expression()
        if self._match_keyword("WINDOW"):
            # consume and ignore window definitions
            depth = 0
            while not self._at_end():
                token = self._peek()
                if token.type is TokenType.PUNCTUATION:
                    if token.value == "(":
                        depth += 1
                    elif token.value == ")":
                        depth -= 1
                if depth == 0 and token.type is TokenType.KEYWORD and token.normalized in ("ORDER", "LIMIT", "UNION", "INTERSECT", "EXCEPT"):
                    break
                self._advance()
        return core

    def _parse_select_item(self) -> ast.SelectItem:
        token = self._peek()
        if token is not None and token.type is TokenType.OPERATOR and token.value == "*":
            self._advance()
            return ast.SelectItem(expression=ast.Star())
        # table.* form
        if (
            token is not None
            and token.type in (TokenType.IDENTIFIER, TokenType.QUOTED_IDENTIFIER)
            and self._peek(1) is not None
            and self._peek(1).value == "."
            and self._peek(2) is not None
            and self._peek(2).value == "*"
        ):
            table = self._advance().normalized
            self._advance()
            self._advance()
            return ast.SelectItem(expression=ast.Star(table=table))
        expression = self.parse_expression()
        alias = None
        if self._match_keyword("AS"):
            alias = self._identifier("alias")
        else:
            nxt = self._peek()
            if nxt is not None and nxt.type in (TokenType.IDENTIFIER, TokenType.QUOTED_IDENTIFIER):
                alias = self._advance().normalized
        return ast.SelectItem(expression=expression, alias=alias)

    def _parse_from_clause(self) -> list[ast.TableRef]:
        refs: list[ast.TableRef] = [self._parse_table_ref(first=True)]
        while True:
            if self._match_punct(","):
                ref = self._parse_table_ref(first=False)
                ref.is_comma_join = True
                refs.append(ref)
                continue
            join_type = self._parse_join_type()
            if join_type is None:
                break
            ref = self._parse_table_ref(first=False)
            ref.join_type = join_type
            if self._match_keyword("ON"):
                ref.join_condition = self.parse_expression()
            elif self._match_keyword("USING"):
                self._expect_punct("(")
                while not self._check_punct(")"):
                    ref.using_columns.append(self._identifier("USING column"))
                    if not self._match_punct(","):
                        break
                self._expect_punct(")")
            refs.append(ref)
        return refs

    def _parse_join_type(self) -> str | None:
        if self._match_keyword("CROSS"):
            self._expect_keyword("JOIN")
            return "cross"
        if self._match_keyword("INNER"):
            self._expect_keyword("JOIN")
            return "inner"
        if self._match_keyword("LEFT"):
            self._match_keyword("OUTER")
            self._expect_keyword("JOIN")
            return "left"
        if self._match_keyword("RIGHT"):
            self._match_keyword("OUTER")
            self._expect_keyword("JOIN")
            return "right"
        if self._match_keyword("FULL"):
            self._match_keyword("OUTER")
            self._expect_keyword("JOIN")
            return "full"
        if self._match_keyword("NATURAL"):
            self._match_keyword("INNER")
            self._expect_keyword("JOIN")
            return "natural"
        if self._match_keyword("ASOF"):
            self._expect_keyword("JOIN")
            return "asof"
        if self._match_keyword("JOIN"):
            return "inner"
        return None

    def _parse_table_ref(self, first: bool) -> ast.TableRef:
        if self._match_punct("("):
            token = self._peek()
            if token is not None and (token.is_keyword("SELECT", "VALUES", "WITH") or self._check_punct("(")):
                subquery = self.parse_select()
                self._expect_punct(")")
                alias = self._parse_optional_alias()
                return ast.TableRef(subquery=subquery, alias=alias)
            # parenthesised join group: parse inner refs, but only keep the list
            refs = self._parse_from_clause()
            self._expect_punct(")")
            alias = self._parse_optional_alias()
            # flatten by returning the first and re-queuing the rest is complex;
            # wrap as a subquery over the first table instead.
            if len(refs) == 1:
                refs[0].alias = alias or refs[0].alias
                return refs[0]
            return refs[0]
        token = self._peek()
        if token is None:
            raise SQLSyntaxError("expected table reference")
        # table-valued function: name(...)
        if token.type in (TokenType.IDENTIFIER, TokenType.QUOTED_IDENTIFIER) and self._peek(1) is not None and self._peek(1).value == "(":
            name = self._advance().normalized
            self._advance()  # (
            args: list[ast.Expression] = []
            while not self._check_punct(")"):
                args.append(self.parse_expression())
                if not self._match_punct(","):
                    break
            self._expect_punct(")")
            alias = self._parse_optional_alias()
            return ast.TableRef(function=ast.FunctionCall(name=name, args=args), alias=alias)
        name = self._identifier("table name")
        # schema-qualified names: keep only the final component
        while self._match_punct("."):
            name = self._identifier("table name")
        alias = self._parse_optional_alias()
        return ast.TableRef(name=name, alias=alias)

    def _parse_optional_alias(self) -> str | None:
        if self._match_keyword("AS"):
            alias = self._identifier("alias")
        else:
            token = self._peek()
            if token is not None and token.type in (TokenType.IDENTIFIER, TokenType.QUOTED_IDENTIFIER):
                alias = self._advance().normalized
            else:
                return None
        # optional column alias list: alias(a, b, c) — consumed and ignored
        if self._match_punct("("):
            while not self._check_punct(")"):
                self._advance()
            self._expect_punct(")")
        return alias

    # -- expressions ----------------------------------------------------------

    def parse_expression(self) -> ast.Expression:
        return self._parse_or()

    def _parse_or(self) -> ast.Expression:
        left = self._parse_and()
        while self._match_keyword("OR") or self._match_operator("||") and False:
            right = self._parse_and()
            left = ast.BinaryOp(operator="OR", left=left, right=right)
        return left

    def _parse_and(self) -> ast.Expression:
        left = self._parse_not()
        while self._match_keyword("AND"):
            right = self._parse_not()
            left = ast.BinaryOp(operator="AND", left=left, right=right)
        return left

    def _parse_not(self) -> ast.Expression:
        if self._match_keyword("NOT"):
            if self._check_keyword("EXISTS"):
                expression = self._parse_comparison()
                if isinstance(expression, ast.ExistsExpression):
                    expression.negated = True
                    return expression
                return ast.UnaryOp(operator="NOT", operand=expression)
            return ast.UnaryOp(operator="NOT", operand=self._parse_not())
        return self._parse_comparison()

    def _parse_comparison(self) -> ast.Expression:
        left = self._parse_additive()
        while True:
            negated = False
            if self._check_keyword("NOT") and self._peek(1) is not None and self._peek(1).is_keyword("IN", "LIKE", "ILIKE", "BETWEEN", "GLOB", "REGEXP"):
                self._advance()
                negated = True
            if self._match_keyword("IN"):
                self._expect_punct("(")
                token = self._peek()
                if token is not None and (token.is_keyword("SELECT", "WITH", "VALUES")):
                    subquery = self.parse_select()
                    self._expect_punct(")")
                    left = ast.InExpression(operand=left, subquery=subquery, negated=negated)
                else:
                    items: list[ast.Expression] = []
                    while not self._check_punct(")"):
                        items.append(self.parse_expression())
                        if not self._match_punct(","):
                            break
                    self._expect_punct(")")
                    left = ast.InExpression(operand=left, items=items, negated=negated)
                continue
            if self._match_keyword("BETWEEN"):
                low = self._parse_additive()
                self._expect_keyword("AND")
                high = self._parse_additive()
                left = ast.BetweenExpression(operand=left, low=low, high=high, negated=negated)
                continue
            if self._match_keyword("LIKE"):
                pattern = self._parse_additive()
                left = ast.LikeExpression(operand=left, pattern=pattern, negated=negated)
                continue
            if self._match_keyword("ILIKE"):
                pattern = self._parse_additive()
                left = ast.LikeExpression(operand=left, pattern=pattern, negated=negated, case_insensitive=True)
                continue
            if self._match_keyword("GLOB") or self._match_keyword("REGEXP"):
                pattern = self._parse_additive()
                left = ast.LikeExpression(operand=left, pattern=pattern, negated=negated)
                continue
            if self._match_keyword("IS"):
                is_negated = self._match_keyword("NOT")
                if self._match_keyword("NULL"):
                    left = ast.IsNullExpression(operand=left, negated=is_negated)
                elif self._match_keyword("TRUE"):
                    comparison = ast.BinaryOp(operator="IS", left=left, right=ast.Literal(True))
                    left = ast.UnaryOp(operator="NOT", operand=comparison) if is_negated else comparison
                elif self._match_keyword("FALSE"):
                    comparison = ast.BinaryOp(operator="IS", left=left, right=ast.Literal(False))
                    left = ast.UnaryOp(operator="NOT", operand=comparison) if is_negated else comparison
                elif self._match_keyword("DISTINCT"):
                    self._expect_keyword("FROM")
                    right = self._parse_additive()
                    op = "IS NOT DISTINCT FROM" if is_negated else "IS DISTINCT FROM"
                    left = ast.BinaryOp(operator=op, left=left, right=right)
                else:
                    right = self._parse_additive()
                    op = "IS NOT" if is_negated else "IS"
                    left = ast.BinaryOp(operator=op, left=left, right=right)
                continue
            if self._match_keyword("ISNULL"):
                left = ast.IsNullExpression(operand=left)
                continue
            if self._match_keyword("NOTNULL"):
                left = ast.IsNullExpression(operand=left, negated=True)
                continue
            operator_token = self._match_operator("=", "==", "!=", "<>", "<", ">", "<=", ">=")
            if operator_token is not None:
                right = self._parse_additive()
                operator = {"==": "=", "<>": "!="}.get(operator_token.value, operator_token.value)
                left = ast.BinaryOp(operator=operator, left=left, right=right)
                continue
            break
        return left

    def _parse_additive(self) -> ast.Expression:
        left = self._parse_multiplicative()
        while True:
            if self._check_operator("+", "-", "||"):
                operator = self._advance().value
                right = self._parse_multiplicative()
                left = ast.BinaryOp(operator=operator, left=left, right=right)
            else:
                break
        return left

    def _parse_multiplicative(self) -> ast.Expression:
        left = self._parse_unary()
        while True:
            if self._check_operator("*", "/", "%"):
                operator = self._advance().value
                right = self._parse_unary()
                left = ast.BinaryOp(operator=operator, left=left, right=right)
            elif self._check_keyword("DIV"):
                self._advance()
                right = self._parse_unary()
                left = ast.BinaryOp(operator="DIV", left=left, right=right)
            else:
                break
        return left

    def _parse_unary(self) -> ast.Expression:
        if self._check_operator("-", "+"):
            operator = self._advance().value
            operand = self._parse_unary()
            if operator == "+":
                return operand
            return ast.UnaryOp(operator="-", operand=operand)
        if self._check_operator("~"):
            self._advance()
            return ast.UnaryOp(operator="~", operand=self._parse_unary())
        return self._parse_postfix()

    def _parse_postfix(self) -> ast.Expression:
        expression = self._parse_primary()
        while True:
            if self._check_operator("::"):
                self._advance()
                type_name = self._parse_type_name()
                expression = ast.Cast(operand=expression, type_name=type_name, via_double_colon=True)
            else:
                break
        return expression

    def _parse_type_name(self) -> str:
        parts = [self._identifier("type name").upper()]
        # multi-word types: DOUBLE PRECISION, TIMESTAMP WITH TIME ZONE ...
        while self._check_keyword("PRECISION", "VARYING"):
            parts.append(self._advance().normalized)
        name = " ".join(parts)
        if self._match_punct("("):
            args = []
            while not self._check_punct(")"):
                args.append(self._advance().value)
                if not self._match_punct(","):
                    break
            self._expect_punct(")")
            name += "(" + ",".join(args) + ")"
        return name

    def _parse_primary(self) -> ast.Expression:
        token = self._peek()
        if token is None:
            raise SQLSyntaxError("unexpected end of expression")

        if token.type is TokenType.NUMBER:
            self._advance()
            text = token.value
            if text.lower().startswith("0x"):
                return ast.Literal(int(text, 16))
            if "." in text or "e" in text.lower():
                return ast.Literal(float(text))
            return ast.Literal(int(text))

        if token.type is TokenType.STRING:
            self._advance()
            return ast.Literal(token.normalized)

        if token.type is TokenType.PARAMETER:
            self._advance()
            return ast.Literal(None)

        if token.is_keyword("NULL"):
            self._advance()
            return ast.Literal(None)
        if token.is_keyword("TRUE"):
            self._advance()
            return ast.Literal(True)
        if token.is_keyword("FALSE"):
            self._advance()
            return ast.Literal(False)
        if token.is_keyword("CURRENT_DATE", "CURRENT_TIME", "CURRENT_TIMESTAMP"):
            self._advance()
            return ast.FunctionCall(name=token.normalized.lower())
        if token.is_keyword("INTERVAL"):
            self._advance()
            value_token = self._peek()
            if value_token is not None and value_token.type in (TokenType.STRING, TokenType.NUMBER):
                self._advance()
                unit = ""
                unit_token = self._peek()
                if unit_token is not None and unit_token.type is TokenType.IDENTIFIER:
                    unit = self._advance().value
                text = f"{value_token.normalized} {unit}".strip()
                return ast.Literal(text)
            return ast.Literal("interval")

        if token.is_keyword("CASE"):
            return self._parse_case()

        if token.is_keyword("CAST"):
            self._advance()
            self._expect_punct("(")
            operand = self.parse_expression()
            self._expect_keyword("AS")
            type_name = self._parse_type_name()
            self._expect_punct(")")
            return ast.Cast(operand=operand, type_name=type_name)

        if token.is_keyword("EXISTS"):
            self._advance()
            self._expect_punct("(")
            subquery = self.parse_select()
            self._expect_punct(")")
            return ast.ExistsExpression(subquery=subquery)

        if token.is_keyword("NOT"):
            self._advance()
            return ast.UnaryOp(operator="NOT", operand=self._parse_primary())

        if self._check_punct("("):
            self._advance()
            inner_token = self._peek()
            if inner_token is not None and inner_token.is_keyword("SELECT", "WITH", "VALUES"):
                subquery = self.parse_select()
                self._expect_punct(")")
                return ast.ScalarSubquery(subquery=subquery)
            first = self.parse_expression()
            if self._match_punct(","):
                items = [first]
                while True:
                    items.append(self.parse_expression())
                    if not self._match_punct(","):
                        break
                self._expect_punct(")")
                return ast.RowValue(items=items)
            self._expect_punct(")")
            return first

        if self._check_punct("["):
            self._advance()
            items: list[ast.Expression] = []
            while not self._check_punct("]"):
                items.append(self.parse_expression())
                if not self._match_punct(","):
                    break
            self._expect_punct("]")
            return ast.ListLiteral(items=items)

        if self._check_punct("{"):
            self._advance()
            pairs: list[tuple[str, ast.Expression]] = []
            while not self._check_punct("}"):
                key_token = self._advance()
                key = key_token.normalized
                self._match_punct(":") or self._match_operator(":")
                # tokenizer emits ':' as parameter or operator depending on context
                if self._peek() is not None and self._peek().value == ":":
                    self._advance()
                value = self.parse_expression()
                pairs.append((key, value))
                if not self._match_punct(","):
                    break
            self._expect_punct("}")
            return ast.StructLiteral(items=pairs)

        if token.type in (TokenType.IDENTIFIER, TokenType.QUOTED_IDENTIFIER) or token.type is TokenType.KEYWORD:
            # Keywords that may act as function names or bare identifiers
            name = token.normalized if token.type is not TokenType.KEYWORD else token.value.lower()
            nxt = self._peek(1)
            if nxt is not None and nxt.type is TokenType.PUNCTUATION and nxt.value == "(":
                self._advance()
                self._advance()
                return self._parse_function_call(name)
            if token.type is TokenType.KEYWORD and token.normalized not in (
                "LEFT",
                "RIGHT",
                "REPLACE",
                "IF",
                "DATE",
                "TIME",
                "FIRST",
                "LAST",
                "ROW",
                "TYPE",
                "KEY",
                "LANGUAGE",
                "DO",
                "NO",
                "OF",
                "ONLY",
                "BOTH",
                "RANGE",
                "ANY",
                "SOME",
                "ALL",
                "VALUES",
            ):
                raise SQLSyntaxError(f"unexpected keyword {token.value!r} in expression")
            self._advance()
            table: str | None = None
            column = name
            while self._check_punct("."):
                self._advance()
                nxt = self._peek()
                if nxt is not None and nxt.type is TokenType.OPERATOR and nxt.value == "*":
                    self._advance()
                    return ast.Star(table=column)
                table = column
                column = self._identifier("column name")
            return ast.ColumnRef(name=column, table=table)

        if token.type is TokenType.OPERATOR and token.value == "*":
            self._advance()
            return ast.Star()

        raise SQLSyntaxError(f"unexpected token {token.value!r} in expression")

    def _parse_function_call(self, name: str) -> ast.Expression:
        call = ast.FunctionCall(name=name.lower())
        if self._check_operator("*"):
            self._advance()
            call.is_star = True
            self._expect_punct(")")
            return call
        if self._match_keyword("DISTINCT"):
            call.distinct = True
        while not self._check_punct(")"):
            if self._check_keyword("SELECT", "WITH"):
                call.args.append(ast.ScalarSubquery(subquery=self.parse_select()))
            else:
                call.args.append(self.parse_expression())
            if not self._match_punct(","):
                break
        self._expect_punct(")")
        # OVER (...) window clause: consume and ignore (window functions are
        # evaluated as their aggregate over the whole result in MiniDB).
        if self._match_keyword("OVER"):
            if self._match_punct("("):
                depth = 1
                while depth > 0 and self._peek() is not None:
                    value = self._advance().value
                    if value == "(":
                        depth += 1
                    elif value == ")":
                        depth -= 1
        # FILTER (WHERE ...) clause: consume and ignore.
        if self._check_keyword("FILTER"):
            self._advance()
            if self._match_punct("("):
                depth = 1
                while depth > 0 and self._peek() is not None:
                    value = self._advance().value
                    if value == "(":
                        depth += 1
                    elif value == ")":
                        depth -= 1
        return call

    def _parse_case(self) -> ast.Expression:
        self._expect_keyword("CASE")
        operand: ast.Expression | None = None
        if not self._check_keyword("WHEN"):
            operand = self.parse_expression()
        whens: list[tuple[ast.Expression, ast.Expression]] = []
        while self._match_keyword("WHEN"):
            condition = self.parse_expression()
            self._expect_keyword("THEN")
            result = self.parse_expression()
            whens.append((condition, result))
        default = None
        if self._match_keyword("ELSE"):
            default = self.parse_expression()
        self._expect_keyword("END")
        return ast.CaseExpression(operand=operand, whens=whens, default=default)

    # -- INSERT / UPDATE / DELETE --------------------------------------------

    def parse_insert(self) -> ast.InsertStatement:
        or_ignore = False
        if self._match_keyword("REPLACE"):
            pass
        else:
            self._expect_keyword("INSERT")
            if self._match_keyword("OR"):
                self._match_keyword("IGNORE")
                self._match_keyword("REPLACE")
                or_ignore = True
            self._match_keyword("IGNORE")
        self._expect_keyword("INTO")
        table = self._identifier("table name")
        while self._match_punct("."):
            table = self._identifier("table name")
        columns: list[str] = []
        if self._check_punct("(") and not self._peek_is_select_after_paren():
            self._advance()
            while not self._check_punct(")"):
                columns.append(self._identifier("column name"))
                if not self._match_punct(","):
                    break
            self._expect_punct(")")
        statement = ast.InsertStatement(table=table, columns=columns, or_ignore=or_ignore)
        if self._match_keyword("VALUES"):
            while True:
                self._expect_punct("(")
                row: list[ast.Expression] = []
                while not self._check_punct(")"):
                    row.append(self.parse_expression())
                    if not self._match_punct(","):
                        break
                self._expect_punct(")")
                statement.rows.append(row)
                if not self._match_punct(","):
                    break
        elif self._check_keyword("SELECT", "WITH") or self._check_punct("("):
            statement.select = self.parse_select()
        elif self._match_keyword("DEFAULT"):
            self._expect_keyword("VALUES")
            statement.rows.append([])
        return statement

    def _peek_is_select_after_paren(self) -> bool:
        token = self._peek(1)
        return token is not None and token.is_keyword("SELECT", "WITH", "VALUES")

    def parse_update(self) -> ast.UpdateStatement:
        self._expect_keyword("UPDATE")
        table = self._identifier("table name")
        while self._match_punct("."):
            table = self._identifier("table name")
        self._expect_keyword("SET")
        assignments: list[tuple[str, ast.Expression]] = []
        while True:
            column = self._identifier("column name")
            operator = self._match_operator("=")
            if operator is None:
                raise SQLSyntaxError("expected = in UPDATE assignment")
            assignments.append((column, self.parse_expression()))
            if not self._match_punct(","):
                break
        where = None
        if self._match_keyword("WHERE"):
            where = self.parse_expression()
        return ast.UpdateStatement(table=table, assignments=assignments, where=where)

    def parse_delete(self) -> ast.DeleteStatement:
        self._expect_keyword("DELETE")
        self._expect_keyword("FROM")
        table = self._identifier("table name")
        while self._match_punct("."):
            table = self._identifier("table name")
        where = None
        if self._match_keyword("WHERE"):
            where = self.parse_expression()
        return ast.DeleteStatement(table=table, where=where)

    # -- DDL -------------------------------------------------------------------

    def parse_create(self) -> Any:
        self._expect_keyword("CREATE")
        temporary = bool(self._match_keyword("TEMP") or self._match_keyword("TEMPORARY"))
        or_replace = False
        if self._match_keyword("OR"):
            self._expect_keyword("REPLACE")
            or_replace = True
        unique = bool(self._match_keyword("UNIQUE"))
        self._match_keyword("MATERIALIZED")

        if self._match_keyword("TABLE"):
            return self._parse_create_table(temporary=temporary)
        if self._match_keyword("INDEX"):
            return self._parse_create_index(unique=unique)
        if self._match_keyword("VIEW"):
            return self._parse_create_view(or_replace=or_replace)
        if self._match_keyword("SCHEMA") or self._match_keyword("DATABASE"):
            if_not_exists = self._parse_if_not_exists()
            name = self._identifier("schema name")
            return ast.CreateSchemaStatement(name=name, if_not_exists=if_not_exists)
        # CREATE FUNCTION / TRIGGER / SEQUENCE / EXTENSION / TYPE / MACRO ...
        stype = statement_type(self.sql)
        return ast.UnparsedStatement(text=self.sql, statement_type=stype, reason=f"{stype} is not implemented by MiniDB")

    def _parse_if_not_exists(self) -> bool:
        if self._match_keyword("IF"):
            self._expect_keyword("NOT")
            self._expect_keyword("EXISTS")
            return True
        return False

    def _parse_create_table(self, temporary: bool) -> ast.CreateTableStatement:
        if_not_exists = self._parse_if_not_exists()
        name = self._identifier("table name")
        while self._match_punct("."):
            name = self._identifier("table name")
        statement = ast.CreateTableStatement(name=name, if_not_exists=if_not_exists, temporary=temporary)
        if self._match_keyword("AS"):
            statement.as_select = self.parse_select()
            return statement
        self._expect_punct("(")
        while not self._check_punct(")"):
            token = self._peek()
            if token is not None and token.is_keyword("PRIMARY"):
                self._advance()
                self._expect_keyword("KEY")
                self._expect_punct("(")
                while not self._check_punct(")"):
                    statement.primary_key_columns.append(self._identifier("column"))
                    if not self._match_punct(","):
                        break
                self._expect_punct(")")
            elif token is not None and token.is_keyword("UNIQUE", "CHECK", "FOREIGN", "CONSTRAINT"):
                # table constraints: consume until the matching close
                self._advance()
                depth = 0
                while self._peek() is not None:
                    if self._check_punct("(") :
                        depth += 1
                        self._advance()
                    elif self._check_punct(")"):
                        if depth == 0:
                            break
                        depth -= 1
                        self._advance()
                    elif self._check_punct(",") and depth == 0:
                        break
                    else:
                        self._advance()
            else:
                statement.columns.append(self._parse_column_definition())
            if not self._match_punct(","):
                break
        self._expect_punct(")")
        return statement

    def _parse_column_definition(self) -> ast.ColumnDefinition:
        name = self._identifier("column name")
        type_name: str | None = None
        token = self._peek()
        if token is not None and not token.is_keyword("PRIMARY", "NOT", "NULL", "UNIQUE", "DEFAULT", "CHECK", "REFERENCES") and not self._check_punct(",") and not self._check_punct(")"):
            type_name = self._parse_type_name()
        column = ast.ColumnDefinition(name=name, type_name=type_name)
        while True:
            if self._match_keyword("PRIMARY"):
                self._expect_keyword("KEY")
                column.primary_key = True
                self._match_keyword("AUTOINCREMENT")
                self._match_keyword("ASC")
                self._match_keyword("DESC")
            elif self._match_keyword("NOT"):
                self._expect_keyword("NULL")
                column.not_null = True
            elif self._match_keyword("NULL"):
                pass
            elif self._match_keyword("UNIQUE"):
                column.unique = True
            elif self._match_keyword("DEFAULT"):
                column.default = self._parse_unary() if not self._check_punct("(") else self.parse_expression()
            elif self._match_keyword("CHECK"):
                self._expect_punct("(")
                column.check = self.parse_expression()
                self._expect_punct(")")
            elif self._match_keyword("REFERENCES"):
                self._identifier("referenced table")
                if self._match_punct("("):
                    while not self._check_punct(")"):
                        self._advance()
                    self._expect_punct(")")
            elif self._match_keyword("COLLATE"):
                self._identifier("collation")
            else:
                break
        return column

    def _parse_create_index(self, unique: bool) -> ast.CreateIndexStatement:
        if_not_exists = self._parse_if_not_exists()
        name = self._identifier("index name")
        self._expect_keyword("ON")
        table = self._identifier("table name")
        while self._match_punct("."):
            table = self._identifier("table name")
        columns: list[str] = []
        self._expect_punct("(")
        while not self._check_punct(")"):
            columns.append(self._identifier("column name"))
            self._match_keyword("ASC")
            self._match_keyword("DESC")
            if not self._match_punct(","):
                break
        self._expect_punct(")")
        return ast.CreateIndexStatement(name=name, table=table, columns=columns, unique=unique, if_not_exists=if_not_exists)

    def _parse_create_view(self, or_replace: bool) -> ast.CreateViewStatement:
        if_not_exists = self._parse_if_not_exists()
        name = self._identifier("view name")
        while self._match_punct("."):
            name = self._identifier("view name")
        if self._match_punct("("):
            while not self._check_punct(")"):
                self._advance()
            self._expect_punct(")")
        self._expect_keyword("AS")
        query = self.parse_select()
        return ast.CreateViewStatement(name=name, query=query, if_not_exists=if_not_exists, or_replace=or_replace)

    def parse_drop(self) -> ast.DropStatement:
        self._expect_keyword("DROP")
        kind_token = self._advance()
        kind = kind_token.normalized if kind_token.type is TokenType.KEYWORD else kind_token.value.upper()
        if_exists = False
        if self._match_keyword("IF"):
            self._expect_keyword("EXISTS")
            if_exists = True
        name = self._identifier("object name")
        while self._match_punct("."):
            name = self._identifier("object name")
        cascade = bool(self._match_keyword("CASCADE"))
        self._match_keyword("RESTRICT")
        return ast.DropStatement(object_kind=kind, name=name, if_exists=if_exists, cascade=cascade)

    def parse_alter(self) -> Any:
        self._expect_keyword("ALTER")
        if self._match_keyword("TABLE"):
            self._match_keyword("IF")
            self._match_keyword("EXISTS")
            self._match_keyword("ONLY")
            table = self._identifier("table name")
            while self._match_punct("."):
                table = self._identifier("table name")
            if self._match_keyword("ADD"):
                self._match_keyword("COLUMN")
                column = self._parse_column_definition()
                return ast.AlterTableStatement(table=table, action="add_column", column=column)
            if self._match_keyword("DROP"):
                self._match_keyword("COLUMN")
                name = self._identifier("column name")
                return ast.AlterTableStatement(table=table, action="drop_column", old_column=name)
            if self._match_keyword("RENAME"):
                if self._match_keyword("TO"):
                    return ast.AlterTableStatement(table=table, action="rename_to", new_name=self._identifier("new name"))
                self._match_keyword("COLUMN")
                old = self._identifier("column name")
                self._expect_keyword("TO")
                return ast.AlterTableStatement(table=table, action="rename_column", old_column=old, new_name=self._identifier("new name"))
            stype = statement_type(self.sql)
            return ast.UnparsedStatement(text=self.sql, statement_type=stype, reason="unsupported ALTER TABLE action")
        if self._match_keyword("SCHEMA"):
            name = self._identifier("schema name")
            self._expect_keyword("RENAME")
            self._expect_keyword("TO")
            return ast.AlterSchemaStatement(name=name, new_name=self._identifier("new schema name"))
        stype = statement_type(self.sql)
        return ast.UnparsedStatement(text=self.sql, statement_type=stype, reason="unsupported ALTER statement")

    # -- transactions / settings / utility -------------------------------------

    def parse_transaction(self) -> ast.TransactionStatement:
        token = self._advance()
        keyword = token.normalized
        if keyword == "BEGIN":
            self._match_keyword("TRANSACTION")
            self._match_keyword("WORK")
            self._match_keyword("DEFERRED")
            self._match_keyword("IMMEDIATE")
            self._match_keyword("EXCLUSIVE")
            return ast.TransactionStatement(action="begin")
        if keyword == "START":
            self._expect_keyword("TRANSACTION")
            return ast.TransactionStatement(action="start_transaction")
        if keyword in ("COMMIT", "END"):
            self._match_keyword("TRANSACTION")
            self._match_keyword("WORK")
            return ast.TransactionStatement(action="commit")
        if keyword in ("ROLLBACK", "ABORT"):
            self._match_keyword("TRANSACTION")
            self._match_keyword("WORK")
            if self._match_keyword("TO"):
                self._match_keyword("SAVEPOINT")
                return ast.TransactionStatement(action="rollback_to", name=self._identifier("savepoint"))
            return ast.TransactionStatement(action="rollback")
        if keyword == "SAVEPOINT":
            return ast.TransactionStatement(action="savepoint", name=self._identifier("savepoint"))
        if keyword == "RELEASE":
            self._match_keyword("SAVEPOINT")
            return ast.TransactionStatement(action="release", name=self._identifier("savepoint"))
        raise SQLSyntaxError(f"unsupported transaction statement: {keyword}")

    def parse_set(self, is_pragma: bool) -> ast.SetStatement:
        self._advance()  # SET or PRAGMA
        scope = None
        if not is_pragma:
            if self._match_keyword("LOCAL"):
                scope = "LOCAL"
            elif self._match_keyword("GLOBAL"):
                scope = "GLOBAL"
            elif self._match_keyword("SESSION"):
                scope = "SESSION"
        name = self._identifier("setting name")
        value: ast.Expression | None = None
        if self._match_operator("=") or self._match_keyword("TO"):
            value = self._parse_setting_value()
        elif self._match_punct("("):
            value = self.parse_expression()
            self._expect_punct(")")
        elif not self._at_end() and not is_pragma:
            value = self._parse_setting_value()
        return ast.SetStatement(name=name, value=value, is_pragma=is_pragma, scope=scope)

    def _parse_setting_value(self) -> ast.Expression:
        token = self._peek()
        if token is None:
            return ast.Literal(None)
        if token.is_keyword("DEFAULT"):
            self._advance()
            return ast.Literal("default")
        if token.type in (TokenType.IDENTIFIER, TokenType.QUOTED_IDENTIFIER, TokenType.KEYWORD):
            # bare-word values such as ``nulls_first`` or ``OPTIMIZED_ONLY``
            parts = [self._advance().value]
            while self._peek() is not None and not self._at_end() and self._peek().type in (TokenType.IDENTIFIER, TokenType.KEYWORD):
                parts.append(self._advance().value)
            return ast.Literal(" ".join(parts))
        return self.parse_expression()

    def parse_explain(self) -> ast.ExplainStatement:
        self._expect_keyword("EXPLAIN")
        analyze = bool(self._match_keyword("ANALYZE"))
        self._match_keyword("QUERY")
        self._match_keyword("PLAN")
        if self._match_punct("("):
            # PostgreSQL option list: EXPLAIN (COSTS OFF, ...)
            while not self._check_punct(")"):
                self._advance()
            self._expect_punct(")")
        inner = self.parse_statement()
        return ast.ExplainStatement(statement=inner, analyze=analyze)

    def parse_copy(self) -> ast.CopyStatement:
        self._expect_keyword("COPY")
        table = self._identifier("table name")
        if self._match_punct("("):
            while not self._check_punct(")"):
                self._advance()
            self._expect_punct(")")
        direction = "from"
        if self._match_keyword("FROM"):
            direction = "from"
        elif self._match_keyword("TO"):
            direction = "to"
        source_token = self._peek()
        source = source_token.normalized if source_token is not None else ""
        while not self._at_end():
            self._advance()
        return ast.CopyStatement(table=table, source=source, direction=direction)


def parse_sql(sql: str) -> Any:
    """Parse one SQL statement into an AST node (convenience wrapper)."""
    parser = Parser(sql)
    statement = parser.parse_statement()
    return statement

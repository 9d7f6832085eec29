"""Unit tests for the SQL tokenizer."""

import pytest

from repro.errors import SQLSyntaxError
from repro.sqlparser.tokenizer import TokenType, tokenize


def kinds(sql):
    return [token.type for token in tokenize(sql)]


def values(sql):
    return [token.value for token in tokenize(sql)]


class TestBasicTokens:
    def test_keywords_are_recognised(self):
        tokens = tokenize("SELECT a FROM t1")
        assert tokens[0].type is TokenType.KEYWORD
        assert tokens[0].normalized == "SELECT"
        assert tokens[2].is_keyword("FROM")

    def test_identifiers_are_lowercased_in_normalized_form(self):
        token = tokenize("MyTable")[0]
        assert token.type is TokenType.IDENTIFIER
        assert token.normalized == "mytable"
        assert token.value == "MyTable"

    def test_numbers_integer_float_exponent_hex(self):
        tokens = tokenize("1 2.5 1e3 1.5E-2 0x1F")
        assert all(token.type is TokenType.NUMBER for token in tokens)
        assert [token.value for token in tokens] == ["1", "2.5", "1e3", "1.5E-2", "0x1F"]

    def test_string_literal_with_escaped_quote(self):
        token = tokenize("'it''s'")[0]
        assert token.type is TokenType.STRING
        assert token.normalized == "it's"

    def test_double_quoted_identifier(self):
        token = tokenize('"Weird Name"')[0]
        assert token.type is TokenType.QUOTED_IDENTIFIER
        assert token.normalized == "Weird Name"

    def test_backtick_identifier_mysql(self):
        token = tokenize("`col`")[0]
        assert token.type is TokenType.QUOTED_IDENTIFIER
        assert token.normalized == "col"

    def test_dollar_quoted_string_postgres(self):
        tokens = tokenize("$$hello world$$")
        assert tokens[0].type is TokenType.STRING
        assert "hello world" in tokens[0].value

    def test_unterminated_string_raises(self):
        with pytest.raises(SQLSyntaxError):
            tokenize("SELECT 'oops")

    def test_unexpected_character_raises(self):
        with pytest.raises(SQLSyntaxError):
            tokenize("SELECT \x01")


class TestOperators:
    def test_double_colon_cast_operator(self):
        assert "::" in values("1::INTEGER")

    def test_concat_operator(self):
        assert "||" in values("'a' || 'b'")

    def test_comparison_operators(self):
        for operator in ("<=", ">=", "<>", "!="):
            assert operator in values(f"a {operator} b")

    def test_parameters(self):
        tokens = tokenize("SELECT ?, $1, :name, @var")
        parameter_values = [token.value for token in tokens if token.type is TokenType.PARAMETER]
        assert parameter_values == ["?", "$1", ":name", "@var"]

    def test_double_colon_wins_over_named_parameter(self):
        tokens = tokenize("x::int")
        assert any(token.value == "::" for token in tokens)


class TestComments:
    def test_line_comment_skipped(self):
        assert values("SELECT 1 -- trailing") == ["SELECT", "1"]

    def test_hash_comment_skipped(self):
        assert values("SELECT 1 # mysql comment") == ["SELECT", "1"]

    def test_block_comment_skipped(self):
        assert values("SELECT /* inline */ 1") == ["SELECT", "1"]

    def test_unterminated_block_comment_raises(self):
        with pytest.raises(SQLSyntaxError):
            tokenize("SELECT /* oops")

    def test_comments_can_be_included(self):
        tokens = tokenize("SELECT 1 -- note", include_comments=True)
        assert any(token.type is TokenType.COMMENT for token in tokens)


class TestPositions:
    def test_positions_are_byte_offsets(self):
        sql = "SELECT abc"
        tokens = tokenize(sql)
        assert sql[tokens[1].position :].startswith("abc")

    def test_whitespace_tokens_optional(self):
        with_spaces = tokenize("SELECT 1", include_whitespace=True)
        assert any(token.type is TokenType.WHITESPACE for token in with_spaces)

    def test_token_repr_is_helpful(self):
        assert "SELECT" in repr(tokenize("SELECT")[0])

"""Cross-dialect SQL translation (the sqlglot-substitute) unit tests."""

from repro.dialects import DUCKDB, MYSQL, POSTGRES, SQLITE, translate
from repro.engine.session import Session
from repro.sqlparser.statements import split_statements


class TestRewrites:
    def test_identity_when_dialects_match(self):
        result = translate("SELECT 1::INTEGER", POSTGRES, POSTGRES)
        assert result.sql == "SELECT 1::INTEGER"
        assert not result.changed

    def test_cast_operator_rewritten_for_sqlite(self):
        result = translate("SELECT 10::TEXT", POSTGRES, SQLITE)
        assert "CAST" in result.sql and "::" not in result.sql
        assert "cast_operator" in result.applied_rules

    def test_cast_operator_kept_for_duckdb(self):
        result = translate("SELECT 10::TEXT", POSTGRES, DUCKDB)
        assert "::" in result.sql

    def test_div_operator_rewritten_for_postgres(self):
        result = translate("SELECT 62 DIV 2", MYSQL, POSTGRES)
        assert "DIV" not in result.sql
        assert "div_operator" in result.applied_rules

    def test_integer_division_preserved_on_decimal_hosts(self):
        result = translate("SELECT 7 / 2", SQLITE, DUCKDB)
        assert "integer_division" in result.applied_rules
        assert "CAST" in result.sql

    def test_concat_rewritten_for_mysql(self):
        result = translate("SELECT 'a' || 'b'", POSTGRES, MYSQL)
        assert "CONCAT" in result.sql
        assert "concat_operator" in result.applied_rules

    def test_pragma_to_set(self):
        result = translate("PRAGMA threads = 2", DUCKDB, POSTGRES)
        assert result.sql.upper().startswith("SET")

    def test_set_to_pragma_for_sqlite(self):
        result = translate("SET foreign_keys = 1", MYSQL, SQLITE)
        assert result.sql.upper().startswith("PRAGMA")

    def test_varchar_gets_length_on_mysql(self):
        result = translate("CREATE TABLE t(s VARCHAR)", POSTGRES, MYSQL)
        assert "VARCHAR(255)" in result.sql

    def test_function_mapping(self):
        result = translate("SELECT group_concat(a) FROM t", SQLITE, POSTGRES)
        assert "string_agg" in result.sql

    def test_unknown_function_produces_warning(self):
        result = translate("SELECT median(a) FROM t", DUCKDB, POSTGRES)
        assert result.warnings

    def test_untokenizable_statement_left_unchanged(self):
        broken = "SELECT 'unterminated"
        result = translate(broken, SQLITE, POSTGRES)
        assert result.sql == broken
        assert result.warnings

    def test_translate_script(self):
        script = "SELECT 1::TEXT; SELECT 2 DIV 1"
        results = [translate(statement, POSTGRES, SQLITE) for statement in split_statements(script)]
        assert len(results) == 2


class TestTranslationsExecute:
    """Translated statements must actually run on the target engine."""

    def test_translated_cast_runs_on_sqlite(self):
        translated = translate("SELECT 10::TEXT", POSTGRES, SQLITE).sql
        assert Session("sqlite").execute(translated).rows == [["10"]]

    def test_translated_division_matches_donor_semantics(self):
        donor_value = Session("sqlite").execute("SELECT 7 / 2").rows[0][0]
        translated = translate("SELECT 7 / 2", SQLITE, DUCKDB).sql
        host_value = Session("duckdb").execute(translated).rows[0][0]
        assert host_value == donor_value == 3

    def test_translated_concat_runs_on_mysql(self):
        translated = translate("SELECT 'a' || 'b'", POSTGRES, MYSQL).sql
        assert Session("mysql").execute(translated).rows == [["ab"]]

    def test_translated_div_runs_on_postgres(self):
        translated = translate("SELECT 63 DIV 2", MYSQL, POSTGRES).sql
        assert Session("postgres").execute(translated).rows == [[31]]

"""The registry-driven format subsystem: registry lookup and detect_format().

The detection tests focus on the awkward cases: the ``.test`` extension is
claimed by three formats (SLT, DuckDB, MySQL) and must be disambiguated by
content, and malformed/empty content must raise instead of guessing.
"""

from __future__ import annotations

import textwrap

import pytest

from repro.core.records import QueryRecord
from repro.errors import TestFormatError as FormatError
from repro.formats import (
    FormatParser,
    available_formats,
    detect_format,
    get_format,
    parse_test_file,
    parse_test_text,
    registered_parsers,
)

SLT_TEXT = textwrap.dedent(
    """\
    statement ok
    CREATE TABLE t1(a INTEGER, b INTEGER)

    query II rowsort
    SELECT a, b FROM t1;
    ----
    1
    2
    """
)

DUCKDB_TEXT = textwrap.dedent(
    """\
    require json

    statement ok
    CREATE TABLE t1(a INTEGER, b INTEGER)

    query II
    SELECT a, b FROM t1;
    ----
    1\t2
    """
)

MYSQL_TEXT = textwrap.dedent(
    """\
    --disable_warnings
    DROP TABLE IF EXISTS t1;
    --enable_warnings
    CREATE TABLE t1 (a INT, b INT);
    --error ER_NO_SUCH_TABLE
    SELECT * FROM missing;
    """
)

POSTGRES_TEXT = textwrap.dedent(
    """\
    \\set ON_ERROR_STOP 0
    -- a regression script comment
    CREATE TABLE t1 (a integer, b integer);
    INSERT INTO t1 VALUES (1, 2);
    SELECT a, b FROM t1;
    """
)


class TestRegistry:
    def test_all_four_formats_registered(self):
        assert {"slt", "duckdb", "postgres", "mysql"} <= set(available_formats())

    def test_aliases_resolve_to_canonical_parser(self):
        assert get_format("sqlite") is get_format("slt")
        assert get_format("postgresql") is get_format("postgres")
        assert get_format("mariadb") is get_format("mysql")
        assert "sqlite" in available_formats(include_aliases=True)

    def test_unknown_format_raises(self):
        with pytest.raises(FormatError):
            get_format("oracle")

    def test_registered_parsers_are_format_parsers(self):
        for parser in registered_parsers():
            assert isinstance(parser, FormatParser)
            assert parser.name
            assert parser.extensions


class TestDetectByContent:
    def test_detects_each_shipped_format(self):
        assert detect_format(text=SLT_TEXT).name == "slt"
        assert detect_format(text=DUCKDB_TEXT).name == "duckdb"
        assert detect_format(text=MYSQL_TEXT).name == "mysql"
        assert detect_format(text=POSTGRES_TEXT).name == "postgres"

    def test_plain_slt_prefers_slt_over_duckdb(self):
        # valid content for both SLT-family parsers; without DuckDB markers
        # the plain SLT format must win
        assert detect_format(text=SLT_TEXT).name == "slt"

    def test_tab_in_sql_text_does_not_flip_slt_to_duckdb(self):
        # tabs are ordinary whitespace in SQL; only tabs inside expected-result
        # blocks (after ----) signal DuckDB's row-wise format
        tabbed_sql = SLT_TEXT.replace("CREATE TABLE t1(a INTEGER, b INTEGER)", "CREATE TABLE t1(a INTEGER,\tb INTEGER)")
        assert detect_format(text=tabbed_sql).name == "slt"

    def test_space_separated_rows_detect_as_duckdb_without_markers(self):
        # no require/load/tabs, but the multi-column query's expected lines
        # hold one full row each — DuckDB's row-wise convention, not SLT's
        # one-value-per-line
        text = "statement ok\nCREATE TABLE t1(a INTEGER, b INTEGER)\n\nquery II\nSELECT a, b FROM t1;\n----\n1 2\n3 4\n"
        assert detect_format(text=text).name == "duckdb"

    def test_text_values_with_spaces_stay_slt(self):
        # a T column whose values contain spaces makes some lines look
        # row-shaped; the record is only row-wise if EVERY line matches
        text = "query TT\nSELECT x, y FROM t1;\n----\nhello world\nvalue\nanother value\nvalue\n"
        assert detect_format(text=text).name == "slt"

    def test_consistently_spaced_text_values_stay_slt(self):
        # every expected line is two tokens wide, but the tokens are text:
        # space-separated rows only signal DuckDB when they look numeric
        # (DuckDB's canonical multi-column rendering is tab-separated)
        text = "query TT\nSELECT x, y FROM t1;\n----\nhello world\nfoo bar\n"
        assert detect_format(text=text).name == "slt"

    def test_psql_comments_starting_with_mtr_words_stay_postgres(self):
        # "-- error cases ..." is a psql prose comment, not an mtr --error
        # directive (commands are written flush against the dashes)
        text = (
            "-- error cases are exercised below\n"
            "-- echo of the server output is compared\n"
            "CREATE TABLE t1 (a integer);\n"
            "SELECT a FROM t1;\n"
        )
        assert detect_format(text=text).name == "postgres"

    def test_pure_sql_test_file_detects_as_mysql(self, tmp_path):
        # a mysqltest script with no runner commands is just SQL; it must
        # still be claimed rather than aborting an auto-detect suite load
        path = tmp_path / "plain_sql.test"
        path.write_text("CREATE TABLE t1 (a INT);\nINSERT INTO t1 VALUES (1);\nSELECT a FROM t1;\n")
        assert detect_format(path=str(path)).name == "mysql"

        from repro.core.suite import load_suite

        suite = load_suite(str(tmp_path))
        assert len(suite.files) == 1
        assert len(suite.files[0].sql_records()) == 3

    def test_malformed_text_raises(self):
        with pytest.raises(FormatError):
            detect_format(text="%%% this is not a test file @@@\njust prose\n")

    def test_empty_text_raises(self):
        with pytest.raises(FormatError):
            detect_format(text="")

    def test_no_arguments_raises(self):
        with pytest.raises(FormatError):
            detect_format()


class TestDetectByPath:
    def test_sql_extension_is_unambiguous(self, tmp_path):
        path = tmp_path / "boolean.sql"
        path.write_text(POSTGRES_TEXT)
        assert detect_format(path=str(path)).name == "postgres"

    def test_ambiguous_test_extension_resolved_by_content(self, tmp_path):
        slt = tmp_path / "select1.test"
        slt.write_text(SLT_TEXT)
        duck = tmp_path / "aggregate.test"
        duck.write_text(DUCKDB_TEXT)
        mysql = tmp_path / "warnings.test"
        mysql.write_text(MYSQL_TEXT)
        assert detect_format(path=str(slt)).name == "slt"
        assert detect_format(path=str(duck)).name == "duckdb"
        assert detect_format(path=str(mysql)).name == "mysql"

    def test_test_slow_extension_narrows_to_duckdb(self):
        # .test_slow is claimed only by DuckDB: no content needed
        assert detect_format(path="window.test_slow").name == "duckdb"

    def test_unambiguous_extension_wins_without_sniffing(self, tmp_path):
        # a comment-only .sql file sniffs to nothing, but .sql is claimed by
        # exactly one format — the extension must decide, matching what a
        # named-format load would happily parse
        path = tmp_path / "comments_only.sql"
        path.write_text("-- just a comment\n-- and another\n")
        assert detect_format(path=str(path)).name == "postgres"

        from repro.core.suite import load_suite

        suite = load_suite(str(tmp_path))
        assert len(suite.files) == 1
        assert suite.files[0].records == []

    def test_ambiguous_extension_without_content_raises(self):
        with pytest.raises(FormatError):
            detect_format(path="no_such_file.test")

    def test_malformed_file_with_ambiguous_extension_raises(self, tmp_path):
        path = tmp_path / "garbage.test"
        path.write_text("<<<>>> binary-ish garbage\x00\x01\n")
        with pytest.raises(FormatError):
            detect_format(path=str(path))


class TestParseEntryPoints:
    def test_parse_test_text_autodetects(self):
        test_file = parse_test_text(SLT_TEXT)
        assert test_file.suite == "slt"
        assert len(test_file.records) == 2
        assert isinstance(test_file.records[1], QueryRecord)

    def test_parse_test_file_autodetects_and_pairs_companion(self, tmp_path):
        script = tmp_path / "case.sql"
        script.write_text("SELECT 1;\n")
        out = tmp_path / "case.out"
        out.write_text("SELECT 1;\n ?column? \n----------\n 1\n(1 row)\n")
        test_file = parse_test_file(str(script))
        assert test_file.suite == "postgres"
        [record] = test_file.records
        assert isinstance(record, QueryRecord)
        assert record.expected_rows == [["1"]]

    def test_transcript_is_passed_as_companion(self):
        # one spelling for every format's transcript; the per-format
        # out_text/result_text keywords are gone
        pg = parse_test_text("SELECT 1;\n", "postgres", companion="SELECT 1;\n ?column? \n----------\n 1\n(1 row)\n")
        assert pg.suite == "postgres"
        assert pg.records[0].expected_rows == [["1"]]
        my = parse_test_text("SELECT 1;\n", "mysql", companion=None)
        assert my.suite == "mysql"
        with pytest.raises(TypeError):
            parse_test_text("SELECT 1;\n", "postgres", out_text=None)

    def test_load_suite_autodetects_mixed_directory(self, tmp_path):
        from repro.core.suite import load_suite

        (tmp_path / "a.slt").write_text(SLT_TEXT)
        (tmp_path / "b.sql").write_text(POSTGRES_TEXT)
        suite = load_suite(str(tmp_path))
        assert len(suite.files) == 2
        assert {test_file.suite for test_file in suite.files} == {"slt", "postgres"}

    def test_load_suite_tolerates_comment_only_files(self, tmp_path):
        from repro.core.suite import load_suite

        (tmp_path / "real.test").write_text(SLT_TEXT)
        (tmp_path / "empty.test").write_text("# placeholder, nothing here yet\n\n")
        suite = load_suite(str(tmp_path))
        assert len(suite.files) == 2
        assert sum(len(test_file.records) for test_file in suite.files) == 2

    def test_load_suite_still_raises_on_unrecognisable_content(self, tmp_path):
        from repro.core.suite import load_suite

        (tmp_path / "junk.test").write_text("%%% prose, not a test file\nmore prose\n")
        with pytest.raises(FormatError):
            load_suite(str(tmp_path))


class TestCustomFormatRegistration:
    def test_fifth_format_is_one_register_call(self):
        from repro.formats.registry import _NAMES, _REGISTRY, register_format

        @register_format
        class OneLinerFormat(FormatParser):
            name = "oneliner"
            extensions = (".one",)
            description = "each line is one expect-ok statement"

            def parse_text(self, text, companion=None, path="<memory>", suite=None):
                from repro.core.records import StatementRecord

                test_file = self.new_test_file(text, path, suite)
                for number, line in enumerate(text.splitlines(), start=1):
                    if line.strip():
                        test_file.records.append(StatementRecord(line=number, raw=line, sql=line.strip()))
                return test_file

        try:
            assert get_format("oneliner").parse_text("SELECT 1\nSELECT 2\n").sql_records()
            assert detect_format(path="x.one").name == "oneliner"
        finally:
            _REGISTRY.pop("oneliner", None)
            _NAMES.pop("oneliner", None)

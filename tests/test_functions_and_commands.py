"""Built-in SQL functions, runner-command semantics, and record/report helpers."""

import pytest

from repro.core.commands import RunnerState, apply_control_record
from repro.core.records import Condition, ControlRecord, QueryRecord, StatementRecord, TestFile, TestSuite
from repro.core.report import format_distribution, format_table
from repro.engine.session import Session
from repro.errors import UnsupportedFunctionError


@pytest.fixture
def pg():
    return Session("postgres")


@pytest.fixture
def duck():
    return Session("duckdb")


class TestScalarFunctions:
    def test_string_functions(self, pg):
        assert pg.execute("SELECT upper('abc'), lower('ABC'), length('abcd')").rows == [["ABC", "abc", 4]]
        assert pg.execute("SELECT trim('  x  '), ltrim('  x'), rtrim('x  ')").rows == [["x", "x", "x"]]
        assert pg.execute("SELECT replace('banana', 'na', 'NA')").rows == [["baNANA"]]
        assert pg.execute("SELECT substr('abcdef', 2, 3)").rows == [["bcd"]]
        assert pg.execute("SELECT concat('a', 'b', 'c'), concat_ws('-', 'a', 'b')").rows == [["abc", "a-b"]]
        assert pg.execute("SELECT left('abcdef', 2), right('abcdef', 2)").rows == [["ab", "ef"]]
        assert pg.execute("SELECT lpad('7', 3, '0'), rpad('7', 3, '0')").rows == [["007", "700"]]
        assert pg.execute("SELECT split_part('a,b,c', ',', 2)").rows == [["b"]]

    def test_numeric_functions(self, pg):
        assert pg.execute("SELECT abs(-5), sign(-2), mod(7, 3)").rows == [[5, -1, 1]]
        assert pg.execute("SELECT floor(2.7), ceil(2.1)").rows == [[2, 3]]
        assert pg.execute("SELECT round(2.567, 2)").rows == [[2.57]]
        assert pg.execute("SELECT power(2, 10)").rows == [[1024.0]]
        assert pg.execute("SELECT sqrt(16)").rows == [[4.0]]
        assert pg.execute("SELECT trunc(5.99)").rows == [[5.0]]
        assert pg.execute("SELECT gcd(12, 18), lcm(4, 6)").rows == [[6, 12]]

    def test_conditional_functions(self, pg):
        assert pg.execute("SELECT coalesce(NULL, NULL, 3)").rows == [[3]]
        assert pg.execute("SELECT nullif(5, 5), nullif(5, 6)").rows == [[None, 5]]
        assert pg.execute("SELECT greatest(1, 9, 4), least(3, 2, 8)").rows == [[9, 2]]

    def test_metadata_functions(self, pg):
        assert pg.execute("SELECT current_database()").rows == [["main"]]
        assert "PostgreSQL" in pg.execute("SELECT version()").rows[0][0]
        assert pg.execute("SELECT md5('abc')").rows[0][0] == "900150983cd24fb0d6963f7d28e17f72"

    def test_random_is_seedable(self):
        first = Session("postgres", seed=42).execute("SELECT random()").rows
        second = Session("postgres", seed=42).execute("SELECT random()").rows
        assert first == second

    def test_duckdb_list_functions(self, duck):
        assert duck.execute("SELECT list_value(1, 2, 3)").rows == [[[1, 2, 3]]]
        assert duck.execute("SELECT list_extract([10, 20, 30], 2)").rows == [[20]]
        assert duck.execute("SELECT list_contains([1, 2], 2)").rows == [[True]]

    def test_unknown_function_raises(self, pg):
        with pytest.raises(UnsupportedFunctionError):
            pg.execute("SELECT not_a_real_function(1)")

    def test_aggregates_median_and_stddev(self, duck):
        duck.execute("CREATE TABLE q(r INTEGER)")
        duck.execute("INSERT INTO q VALUES (1), (2), (3), (4)")
        assert duck.execute("SELECT median(r) FROM q").rows == [[2.5]]
        assert duck.execute("SELECT stddev(r) FROM q").rows[0][0] == pytest.approx(1.29, abs=0.01)
        assert duck.execute("SELECT string_agg(r) FROM q").rows == [["1,2,3,4"]]

    def test_case_expression_forms(self, pg):
        assert pg.execute("SELECT CASE WHEN 1 > 2 THEN 'a' ELSE 'b' END").rows == [["b"]]
        assert pg.execute("SELECT CASE 2 WHEN 1 THEN 'one' WHEN 2 THEN 'two' END").rows == [["two"]]
        assert pg.execute("SELECT CASE 9 WHEN 1 THEN 'one' END").rows == [[None]]


class TestRunnerCommands:
    def make_state(self, **kwargs):
        return RunnerState(host="duckdb", **kwargs)

    def control(self, command, *arguments):
        return ControlRecord(command=command, arguments=list(arguments))

    def test_halt(self):
        state = self.make_state()
        effect = apply_control_record(self.control("halt"), state)
        assert state.halted and effect.skip_rest_of_file

    def test_hash_threshold(self):
        state = self.make_state()
        apply_control_record(self.control("hash-threshold", "64"), state)
        assert state.hash_threshold == 64

    def test_mode_skip_and_unskip(self):
        state = self.make_state()
        apply_control_record(self.control("mode", "skip"), state)
        assert state.skipping
        apply_control_record(self.control("mode", "unskip"), state)
        assert not state.skipping

    def test_require_with_and_without_extension(self):
        state = self.make_state(available_extensions={"json"})
        assert not apply_control_record(self.control("require", "json"), state).skip_rest_of_file
        effect = apply_control_record(self.control("require", "icu"), state)
        assert effect.skip_rest_of_file and state.prefiltered

    def test_set_variable_and_substitution(self):
        state = self.make_state()
        apply_control_record(self.control("set", "name", "=", "42"), state)
        assert state.substitute("SELECT $name, ${name}") == "SELECT 42, 42"

    def test_restart_resets_connection(self):
        assert apply_control_record(self.control("restart"), self.make_state()).reset_connection

    def test_psql_meta_command_not_interpreted(self):
        effect = apply_control_record(ControlRecord(command="psql:d", arguments=["t1"]), self.make_state())
        assert not effect.handled

    def test_environment_command_not_interpreted(self):
        effect = apply_control_record(self.control("exec", "ls"), self.make_state())
        assert not effect.handled

    def test_unknown_command_flagged(self):
        effect = apply_control_record(self.control("frobnicate"), self.make_state())
        assert not effect.handled and "unknown" in effect.note


class TestRecordsAndReport:
    def test_condition_allows(self):
        assert Condition("skipif", "mysql").allows("sqlite")
        assert not Condition("skipif", "mysql").allows("mysql")
        assert Condition("onlyif", "postgresql").allows("postgres")
        assert not Condition("onlyif", "oracle").allows("duckdb")

    def test_record_runs_on_combines_conditions(self):
        record = QueryRecord(sql="SELECT 1", conditions=[Condition("skipif", "mysql"), Condition("onlyif", "sqlite")])
        assert record.runs_on("sqlite3")
        assert not record.runs_on("mysql")
        assert not record.runs_on("postgres")

    def test_test_file_helpers(self):
        test_file = TestFile(path="x", suite="slt", records=[StatementRecord(sql="SELECT 1"), ControlRecord(command="halt")])
        assert len(test_file) == 2
        assert test_file.statements() == ["SELECT 1"]
        assert [record.command for record in test_file.control_records()] == ["halt"]

    def test_test_suite_aggregates(self):
        suite = TestSuite(name="s", files=[TestFile(path="a", suite="s", records=[StatementRecord(sql="SELECT 1")])])
        assert suite.total_records == 1
        assert suite.total_sql_records == 1
        assert len(list(iter(suite))) == 1

    def test_format_table_handles_ragged_rows(self):
        text = format_table(["a", "b", "c"], [["x"], ["y", 1, 2]])
        assert "x" in text and "y" in text

    def test_format_distribution_sorted(self):
        text = format_distribution({"small": 0.1, "big": 0.9})
        assert text.index("big") < text.index("small")

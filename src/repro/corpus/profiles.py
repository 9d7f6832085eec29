"""Statistical profiles of the studied test suites.

Every number here is taken from (or derived from) the paper:

* Table 1 — number of test files per suite and DBMS metadata,
* Figure 1 — lines of code per test file,
* Table 2 — runner-command families,
* Figure 2 / Table 3 — statement-type mix and standard compliance,
* Figure 3 — WHERE-predicate token distribution,
* Table 5 — donor-on-donor dependency-failure mix,
* Section 5/6 prose — pre-filtering rates, client differences.

The synthetic generators consume these profiles; the analysis experiments then
*re-measure* the generated corpora with the same pipeline the paper used, so
Figures 1-3 and Table 3 are regenerated rather than echoed.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class DBMSInfo:
    """Table 1 metadata for one DBMS."""

    name: str
    db_engines_rank: int
    github_stars_k: float
    dbms_version: str
    suite_version: str
    test_files: int


#: Table 1, verbatim.
TABLE1_DBMS_INFO = {
    "sqlite": DBMSInfo("SQLite", 9, 4.5, "3.41.1", "a22803", 622),
    "mysql": DBMSInfo("MySQL", 2, 9.5, "8.0.33", "ea7087", 1418),
    "postgres": DBMSInfo("PostgreSQL", 4, 13.2, "15.2", "bc9993", 212),
    "duckdb": DBMSInfo("DuckDB", 103, 11.9, "0.8.1", "6536a7", 2537),
}

#: Table 2, verbatim: which runner-command families each suite supports and
#: how many unique commands its runner interprets.
TABLE2_RUNNER_FEATURES = {
    "sqlite": {"include": False, "set_variable": True, "load": False, "loop": False, "skiptest": True, "multi_connections": False, "cli_commands": 0, "runner_commands": 4},
    "mysql": {"include": True, "set_variable": True, "load": True, "loop": True, "skiptest": False, "multi_connections": True, "cli_commands": 0, "runner_commands": 112},
    "postgres": {"include": True, "set_variable": True, "load": True, "loop": False, "skiptest": True, "multi_connections": True, "cli_commands": 114, "runner_commands": 0},
    "duckdb": {"include": False, "set_variable": True, "load": True, "loop": True, "skiptest": True, "multi_connections": True, "cli_commands": 0, "runner_commands": 16},
}

#: Table 3, verbatim: standard-compliance percentages observed by the paper.
TABLE3_STANDARD_COMPLIANCE = {
    "sqlite": {"standard_statements": 0.9976, "exclusively_standard_files": 0.6392},
    "postgres": {"standard_statements": 0.6889, "exclusively_standard_files": 0.1037},
    "duckdb": {"standard_statements": 0.7614, "exclusively_standard_files": 0.1624},
}

#: Table 4, verbatim: donor-on-donor execution of the real suites.
TABLE4_DONOR_EXECUTION = {
    "sqlite": {"total": 7_406_130, "executed": 5_939_879, "failed": 2},
    "postgres": {"total": 36_677, "executed": 35_534, "failed": 4_075},
    "duckdb": {"total": 33_113, "executed": 20_619, "failed": 1_035},
}

#: Table 5, verbatim: dependency classification of 100 sampled donor failures.
TABLE5_DEPENDENCY_SAMPLE = {
    "sqlite": {"File Paths": 0, "Setting": 0, "Set Up": 0, "Extension": 0, "Format": 0, "Numeric": 0, "Exception": 0, "Runner": 2},
    "duckdb": {"File Paths": 22, "Setting": 0, "Set Up": 0, "Extension": 0, "Format": 58, "Numeric": 17, "Exception": 2, "Runner": 1},
    "postgres": {"File Paths": 14, "Setting": 7, "Set Up": 67, "Extension": 10, "Format": 0, "Numeric": 0, "Exception": 0, "Runner": 2},
}

#: Figure 4, verbatim: cross-execution success rates reported by the paper.
FIGURE4_SUCCESS_RATES = {
    ("slt", "sqlite"): 1.0000,
    ("slt", "postgres"): 0.9980,
    ("slt", "duckdb"): 0.9811,
    ("slt", "mysql"): 0.9999,
    ("postgres", "sqlite"): 0.3051,
    ("postgres", "postgres"): 1.0000,
    ("postgres", "duckdb"): 0.2862,
    ("postgres", "mysql"): 0.2508,
    ("duckdb", "sqlite"): 0.5145,
    ("duckdb", "postgres"): 0.4933,
    ("duckdb", "duckdb"): 1.0000,
    ("duckdb", "mysql"): 0.3469,
}

#: Table 7, verbatim: difficulty-class shares per suite.
TABLE7_DIFFICULTY = {
    "sqlite": {"Dialect-specific features": 0.001, "Syntax differences": 0.128, "Semantic differences": 0.871},
    "duckdb": {"Dialect-specific features": 0.702, "Syntax differences": 0.239, "Semantic differences": 0.059},
    "postgres": {"Dialect-specific features": 0.727, "Syntax differences": 0.264, "Semantic differences": 0.009},
}

#: Table 8, verbatim: line/branch coverage of original suites vs. SQuaLity.
TABLE8_COVERAGE = {
    "sqlite": {"original": (0.269, 0.198), "squality": (0.434, 0.345)},
    "duckdb": {"original": (0.728, 0.464), "squality": (0.740, 0.472)},
    "postgres": {"original": (0.621, 0.472), "squality": (0.630, 0.482)},
}


@dataclass(frozen=True)
class SuiteProfile:
    """Generation parameters for one synthetic suite."""

    name: str                      # "slt" | "postgres" | "duckdb" | "mysql"
    donor: str                     # adapter the expected results are recorded on
    file_count: int                # number of files at scale=1.0
    records_per_file: int          # average SQL records per file at scale=1.0
    #: statement-kind -> weight; kind names map onto generator templates.
    statement_mix: dict[str, float] = field(default_factory=dict)
    #: WHERE-token bucket -> probability for generated SELECTs.
    where_buckets: dict[str, float] = field(default_factory=dict)
    #: probability that a SELECT uses an implicit join / explicit join.
    implicit_join_rate: float = 0.051
    explicit_join_rate: float = 0.021
    #: dependency-injection rates (per file), driving the Table 5 shape.
    dependency_rates: dict[str, float] = field(default_factory=dict)
    #: share of files halted early by an unmet ``require`` (DuckDB pre-filtering),
    #: or skipped via skipif/onlyif (SLT).
    prefilter_rate: float = 0.0
    #: share of generated guarded records carrying skipif/onlyif conditions.
    guard_rate: float = 0.0


#: Statement-mix weights approximate Figure 2 (share of each statement type in
#: each suite).  Kinds prefixed with the suite name are dialect-specific
#: templates; the generator knows how to render each kind.
PAPER_PROFILES: dict[str, SuiteProfile] = {
    "slt": SuiteProfile(
        name="slt",
        donor="sqlite",
        file_count=622,
        records_per_file=11907,
        statement_mix={
            "select_constant": 0.22,
            "select_table": 0.30,
            "select_like": 0.03,
            "select_join": 0.04,
            "select_aggregate": 0.06,
            "select_division": 0.04,
            "insert": 0.16,
            "create_table": 0.05,
            "create_index": 0.045,
            "drop_table": 0.02,
            "update": 0.015,
            "delete": 0.01,
            "begin_commit": 0.005,
        },
        where_buckets={"0": 0.72, "1-2": 0.03, "3-10": 0.17, "11-100": 0.06, "100+": 0.02},
        implicit_join_rate=0.05,
        explicit_join_rate=0.012,
        dependency_rates={"runner": 0.0005},
        prefilter_rate=0.198,
        # share of guardable (constant) records carrying skipif/onlyif guards;
        # guardable kinds are ~26% of the mix, so this yields the ~20% of
        # records the donor run skips (Table 4).
        guard_rate=0.7,
    ),
    "postgres": SuiteProfile(
        name="postgres",
        donor="postgres",
        file_count=212,
        records_per_file=173,
        statement_mix={
            "select_constant": 0.08,
            "select_table": 0.08,
            "select_join": 0.03,
            "select_aggregate": 0.04,
            "select_pg_function": 0.17,
            "select_cast_operator": 0.09,
            "insert": 0.08,
            "create_table": 0.04,
            "create_table_pg_types": 0.09,
            "create_index": 0.02,
            "drop_table": 0.03,
            "alter_table": 0.02,
            "update": 0.03,
            "delete": 0.02,
            "set_config": 0.05,
            "cli_command": 0.05,
            "explain": 0.04,
            "copy": 0.03,
            "create_function": 0.02,
            "create_view": 0.02,
            "begin_commit": 0.017,
        },
        where_buckets={"0": 0.82, "1-2": 0.05, "3-10": 0.11, "11-100": 0.02, "100+": 0.0},
        implicit_join_rate=0.05,
        explicit_join_rate=0.02,
        dependency_rates={"file_paths": 0.009, "setting": 0.005, "setup": 0.045, "extension": 0.007, "runner": 0.001},
        prefilter_rate=0.031,
        guard_rate=0.0,
    ),
    "duckdb": SuiteProfile(
        name="duckdb",
        donor="duckdb",
        file_count=2537,
        records_per_file=13,
        statement_mix={
            "select_constant": 0.10,
            "select_table": 0.10,
            "select_join": 0.03,
            "select_aggregate": 0.05,
            "select_duckdb_function": 0.16,
            "select_nested_types": 0.09,
            "select_cast_operator": 0.07,
            "insert": 0.10,
            "create_table": 0.06,
            "create_duckdb_types": 0.06,
            "create_index": 0.015,
            "drop_table": 0.03,
            "update": 0.02,
            "delete": 0.015,
            "pragma": 0.09,
            "set_config": 0.03,
            "explain": 0.05,
            "create_view": 0.02,
            "begin_commit": 0.01,
        },
        where_buckets={"0": 0.84, "1-2": 0.05, "3-10": 0.10, "11-100": 0.01, "100+": 0.0},
        implicit_join_rate=0.05,
        explicit_join_rate=0.025,
        dependency_rates={"file_paths": 0.016, "client_format": 0.042, "client_numeric": 0.012, "client_exception": 0.0015, "runner": 0.0008},
        prefilter_rate=0.262,
        guard_rate=0.01,
    ),
    "mysql": SuiteProfile(
        name="mysql",
        donor="mysql",
        file_count=1418,
        records_per_file=90,
        statement_mix={
            "select_constant": 0.17,
            "select_table": 0.17,
            "select_join": 0.03,
            "select_aggregate": 0.05,
            "insert": 0.15,
            "create_table": 0.10,
            "create_index": 0.02,
            "drop_table": 0.05,
            "alter_table": 0.03,
            "update": 0.04,
            "delete": 0.03,
            "set_config": 0.05,
            "show": 0.03,
            "explain": 0.03,
            "mysql_runner_command": 0.05,
            "begin_commit": 0.02,
        },
        where_buckets={"0": 0.80, "1-2": 0.05, "3-10": 0.13, "11-100": 0.02, "100+": 0.0},
        implicit_join_rate=0.05,
        explicit_join_rate=0.02,
        dependency_rates={"runner": 0.002},
        prefilter_rate=0.0,
        guard_rate=0.0,
    ),
}

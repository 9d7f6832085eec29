"""Property-based tests (hypothesis) for core invariants."""

import hashlib
import json
import pickle
import random
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.adapters.base import ExecutionOutcome, ExecutionStatus
from repro.analysis import features, filesize, predicates, statements
from repro.analysis.incremental import ANALYSIS_PASSES
from repro.corpus import build_suite
from repro.core.comparison import ComparisonResult, normalize_value, result_hash
from repro.core.coverage import COVERAGE_DIALECTS, measure_coverage, merge_coverage_partials
from repro.core.records import QueryRecord, StatementRecord, TestFile, TestSuite
from repro.core.runner import FileResult, RecordOutcome, RecordResult, SuiteResult
from repro.engine.session import Session
from repro.engine.values import compare_values, render_value
from repro.sqlparser.statements import split_statements, statement_type
from repro.sqlparser.tokenizer import tokenize
from repro.store import canonical_bytes
from repro.store.codec import CodecError, decode_file_result, encode_file_result

# -- strategies -----------------------------------------------------------------

sql_values = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**40), max_value=2**40),
    st.floats(allow_nan=False, allow_infinity=False, width=32),
    st.text(alphabet=st.characters(blacklist_categories=("Cs",), blacklist_characters="\x00"), max_size=20),
)

identifiers = st.from_regex(r"[a-z][a-z0-9_]{0,10}", fullmatch=True)
safe_text = st.text(alphabet="abcdefghij XYZ0123456789_,.", max_size=30)


class TestTokenizerProperties:
    @given(safe_text)
    @settings(max_examples=150)
    def test_tokenizer_never_crashes_on_safe_text(self, text):
        tokenize("SELECT " + text.replace("'", ""))

    @given(identifiers, st.integers(min_value=-1000, max_value=1000))
    def test_tokens_cover_all_significant_characters(self, name, number):
        sql = f"SELECT {name} + {number} FROM {name}_t"
        reconstructed = "".join(token.value for token in tokenize(sql))
        assert reconstructed.replace(" ", "") == sql.replace(" ", "")

    @given(st.lists(identifiers, min_size=1, max_size=5))
    def test_split_statements_count(self, names):
        script = "; ".join(f"SELECT {name} FROM t" for name in names)
        assert len(split_statements(script)) == len(names)

    @given(identifiers)
    def test_statement_type_of_select_is_select(self, name):
        assert statement_type(f"SELECT {name} FROM {name}") == "SELECT"


class TestValueProperties:
    @given(sql_values, sql_values)
    @settings(max_examples=200)
    def test_compare_values_antisymmetry(self, left, right):
        forward = compare_values(left, right)
        backward = compare_values(right, left)
        if forward is None:
            assert backward is None
        else:
            assert backward == -forward

    @given(sql_values)
    def test_compare_values_reflexive(self, value):
        result = compare_values(value, value)
        assert result is None if value is None else result == 0

    @given(sql_values)
    def test_render_value_is_string(self, value):
        assert isinstance(render_value(value), str)

    @given(st.lists(st.text(alphabet="abc123", max_size=5), max_size=10))
    def test_result_hash_deterministic_and_order_sensitive(self, values):
        assert result_hash(values) == result_hash(values)

    @given(st.integers(min_value=-(10**12), max_value=10**12))
    def test_normalize_integer_roundtrip(self, number):
        assert normalize_value(number, "I") == str(number)

    @given(st.floats(allow_nan=False, allow_infinity=False, min_value=-1e6, max_value=1e6))
    def test_normalize_real_has_three_decimals(self, number):
        normalized = normalize_value(number, "R")
        assert len(normalized.split(".")[-1]) == 3


class TestEngineProperties:
    @given(st.lists(st.integers(min_value=-10000, max_value=10000), min_size=1, max_size=25))
    @settings(max_examples=30, deadline=None)
    def test_sum_and_count_match_python(self, numbers):
        session = Session("postgres")
        session.execute("CREATE TABLE t(a INTEGER)")
        values = ", ".join(f"({n})" for n in numbers)
        session.execute(f"INSERT INTO t VALUES {values}")
        result = session.execute("SELECT count(*), sum(a), min(a), max(a) FROM t").rows[0]
        assert result == [len(numbers), sum(numbers), min(numbers), max(numbers)]

    @given(st.lists(st.integers(min_value=0, max_value=50), min_size=1, max_size=20))
    @settings(max_examples=30, deadline=None)
    def test_order_by_sorts_like_python(self, numbers):
        session = Session("sqlite")
        session.execute("CREATE TABLE t(a INTEGER)")
        session.execute("INSERT INTO t VALUES " + ", ".join(f"({n})" for n in numbers))
        rows = session.execute("SELECT a FROM t ORDER BY a").rows
        assert [row[0] for row in rows] == sorted(numbers)

    @given(st.integers(min_value=-1000, max_value=1000), st.integers(min_value=1, max_value=50))
    @settings(max_examples=50, deadline=None)
    def test_division_semantics_agree_with_real_sqlite(self, numerator, denominator):
        import sqlite3

        with sqlite3.connect(":memory:") as connection:
            expected = connection.execute(f"SELECT {numerator} / {denominator}").fetchone()[0]
        mini = Session("sqlite").execute(f"SELECT {numerator} / {denominator}").rows[0][0]
        assert mini == expected

    @given(st.lists(st.integers(min_value=-100, max_value=100), min_size=1, max_size=15), st.integers(min_value=-100, max_value=100))
    @settings(max_examples=30, deadline=None)
    def test_where_filter_matches_python_filter(self, numbers, threshold):
        session = Session("duckdb")
        session.execute("CREATE TABLE t(a INTEGER)")
        session.execute("INSERT INTO t VALUES " + ", ".join(f"({n})" for n in numbers))
        rows = session.execute(f"SELECT count(*) FROM t WHERE a > {threshold}").rows
        assert rows[0][0] == sum(1 for n in numbers if n > threshold)

    @given(st.lists(st.integers(min_value=0, max_value=5), min_size=1, max_size=20))
    @settings(max_examples=30, deadline=None)
    def test_group_by_counts_match_python(self, numbers):
        from collections import Counter

        session = Session("postgres")
        session.execute("CREATE TABLE t(a INTEGER)")
        session.execute("INSERT INTO t VALUES " + ", ".join(f"({n})" for n in numbers))
        rows = session.execute("SELECT a, count(*) FROM t GROUP BY a ORDER BY a").rows
        expected = sorted(Counter(numbers).items())
        assert [(row[0], row[1]) for row in rows] == expected

    @given(st.lists(st.integers(min_value=-50, max_value=50), min_size=0, max_size=15))
    @settings(max_examples=30, deadline=None)
    def test_transaction_rollback_is_lossless(self, numbers):
        session = Session("postgres")
        session.execute("CREATE TABLE t(a INTEGER)")
        if numbers:
            session.execute("INSERT INTO t VALUES " + ", ".join(f"({n})" for n in numbers))
        before = session.execute("SELECT count(*), coalesce(sum(a), 0) FROM t").rows
        session.execute("BEGIN")
        session.execute("INSERT INTO t VALUES (999)")
        session.execute("DELETE FROM t WHERE a < 0")
        session.execute("ROLLBACK")
        after = session.execute("SELECT count(*), coalesce(sum(a), 0) FROM t").rows
        assert before == after


# -- incremental analysis merge laws ----------------------------------------------
#
# The algebra the file-analysis store namespace rests on: every analysis pass
# is a per-file partial plus an associative, commutative merge, so assembling
# cached partials — in whatever order or grouping the store hands them back —
# must equal the direct whole-suite scan.  Seeded fuzzing over random suites,
# file counts, and partial orderings; equality is canonical-byte equality
# (dict key order never counts, float rendering is exact).


class TestAnalysisMergeLaws:
    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=15, deadline=None)
    def test_partials_merge_order_independently_for_all_passes(self, seed):
        rng = random.Random(seed)
        suite = build_suite(
            rng.choice(("slt", "postgres", "duckdb", "mysql")),
            file_count=rng.randint(1, 6),
            records_per_file=rng.randint(5, 30),
            seed=rng.randint(0, 999),
            store=None,
        )

        def shuffled(scan):
            # a random permutation subsumes every order *and* every split: a
            # chunked merge concatenates chunk partial lists, which is just
            # some permutation of the per-file list
            partials = [scan(test_file) for test_file in suite.files]
            rng.shuffle(partials)
            return partials

        # features (Table 2, scanned in memory, not stored): census == the
        # direct whole-suite census
        census = features.merge_command_censuses(suite.name, shuffled(features.file_command_census))
        assert canonical_bytes(census) == canonical_bytes(features.count_runner_commands(suite))

        # statements (Figure 2 / Table 3): distribution and both compliance variants
        merged = statements.merge_statement_profiles(shuffled(ANALYSIS_PASSES["statements"]))
        assert canonical_bytes(statements.distribution_from_profiles(merged)) == canonical_bytes(
            statements.statement_type_distribution(suite)
        )
        for relaxed in (False, True):
            assert canonical_bytes(statements.compliance_from_profiles(suite.name, merged, relaxed)) == canonical_bytes(
                statements.standard_compliance(suite, count_create_index_as_standard=relaxed)
            )

        # predicates (Figure 3): bucket distribution and join usage
        merged = predicates.merge_predicate_profiles(shuffled(ANALYSIS_PASSES["predicates"]))
        assert canonical_bytes(predicates.distribution_from_profiles(merged)) == canonical_bytes(
            predicates.predicate_distribution(suite)
        )
        assert canonical_bytes(predicates.join_usage_from_profiles(suite.name, merged)) == canonical_bytes(
            predicates.join_usage(suite)
        )

        # coverage (Table 8): per engine, the union of the per-file features
        # == the whole-suite measurement
        merged = merge_coverage_partials(shuffled(ANALYSIS_PASSES["coverage"]))
        statement_lists = [test_file.statements() for test_file in suite.files]
        assert merged == {
            dialect: sorted(measure_coverage(dialect, statement_lists).exercised) for dialect in COVERAGE_DIALECTS
        }

    @given(st.lists(st.integers(min_value=0, max_value=10**7), max_size=60))
    @settings(max_examples=100)
    def test_log_histogram_buckets_partition_the_files(self, sizes):
        """Every file lands in exactly one bucket — zero-line files included —
        so the per-bucket counts always sum to the file count."""
        histogram = filesize.log_histogram(sizes)
        assert sum(histogram.values()) == len(sizes)
        assert histogram["0"] == sum(1 for size in sizes if size == 0)


# -- the result codec -------------------------------------------------------------
#
# Seeded-random fuzzing of repro.store.codec: whole FileResult/SuiteResult
# graphs over random dialects and hosts, with unicode text, NULLs, and float
# edge cases (signed zero, huge/tiny magnitudes, inf, nan) in the result rows.
# The example-based roundtrips in test_codec.py pin realistic payloads; these
# pin the wire format against inputs nobody wrote by hand.

_FUZZ_DIALECTS = ("slt", "postgres", "duckdb", "mysql")
_FUZZ_HOSTS = ("sqlite", "postgres", "duckdb", "mysql")

_EDGE_STRINGS = (
    "",
    "NULL",
    "0",
    "-0.0",
    "héllo wörld",
    "函数测试",
    "🦆 ♫ 𝄞",
    "tab\tnewline\nquote'and\"both",
    "\x01\x02 control bytes",
    "a" * 200,
)

_EDGE_FLOATS = (
    0.0,
    -0.0,
    1.5,
    -1e300,
    1e-300,
    5e-324,            # smallest subnormal
    2.0**53 + 2,       # beyond exact-int float territory
    float("inf"),
    float("-inf"),
    float("nan"),
)


def _fuzz_string(rng: random.Random) -> str:
    return rng.choice(_EDGE_STRINGS) + str(rng.randint(0, 9))


def _fuzz_value(rng: random.Random, depth: int = 0):
    roll = rng.random()
    if roll < 0.15:
        return None
    if roll < 0.25:
        return rng.random() < 0.5
    if roll < 0.45:
        return rng.randint(-(2**63), 2**63)
    if roll < 0.60:
        return rng.choice(_EDGE_FLOATS) if rng.random() < 0.5 else rng.uniform(-1e6, 1e6)
    if roll < 0.85 or depth >= 2:
        return _fuzz_string(rng)
    if roll < 0.93:
        return [_fuzz_value(rng, depth + 1) for _ in range(rng.randint(0, 3))]
    return {_fuzz_string(rng): _fuzz_value(rng, depth + 1) for _ in range(rng.randint(0, 3))}


def _fuzz_file(rng: random.Random, index: int = 0):
    """One random (TestFile, FileResult) pair, records attached in order."""
    suite_name = rng.choice(_FUZZ_DIALECTS)
    host = rng.choice(_FUZZ_HOSTS)
    test_file = TestFile(path=f"fuzz_{index}.test", suite=suite_name)
    file_result = FileResult(path=test_file.path, suite=suite_name, host=host)
    for _ in range(rng.randint(1, 10)):
        sql = "SELECT " + _fuzz_string(rng)
        if rng.random() < 0.5:
            record = QueryRecord(sql=sql, type_string=rng.choice(("I", "T", "RT", "ITR")))
        else:
            record = StatementRecord(sql=sql, expect_ok=rng.random() < 0.8)
        test_file.records.append(record)
        if rng.random() < 0.2:
            continue  # a record with no result (e.g. skipped shard tail): exercises index reattachment
        comparison = None
        if rng.random() < 0.5:
            comparison = ComparisonResult(
                matches=rng.random() < 0.5,
                reason=_fuzz_string(rng),
                expected_preview=[_fuzz_string(rng) for _ in range(rng.randint(0, 3))],
                actual_preview=[_fuzz_string(rng) for _ in range(rng.randint(0, 3))],
                mismatch_kind=rng.choice(("", "row_count", "value", "hash", "format")),
            )
        execution = None
        if rng.random() < 0.7:
            columns = [f"c{column}" for column in range(rng.randint(0, 3))]
            rows = [[_fuzz_value(rng) for _ in columns] for _ in range(rng.randint(0, 4))]
            execution = ExecutionOutcome(
                status=rng.choice(list(ExecutionStatus)),
                columns=columns,
                rows=rows,
                rendered=[[str(value) for value in row] for row in rows],
                error=_fuzz_string(rng),
                error_type=rng.choice(("", "OperationalError", "EngineCrash")),
                statement=sql,
            )
        file_result.results.append(
            RecordResult(
                record=record,
                outcome=rng.choice(list(RecordOutcome)),
                reason=_fuzz_string(rng),
                error=_fuzz_string(rng),
                error_type=rng.choice(("", "Timeout", "SQLSyntaxError")),
                comparison=comparison,
                execution=execution,
            )
        )
    return test_file, file_result


# -- frozen engine fuzz -------------------------------------------------------------
#
# Seeded fuzzing of MiniDB's expression evaluation: random SELECTs — filters,
# DISTINCT, multi-key ORDER BY, aggregation, LIMIT — over tables seeded with
# NULL, ±inf, nan, signed zero, 64-bit integers, and unicode text.  Each
# seed's workload runs on a fresh session, and the canonical serialization of
# its captures (floats render as exact hex, so nan vs nan and -0.0 vs 0.0
# compare strictly; errors as type and message) plus its feature-coverage set
# must hash to the digest frozen in tests/golden/engine-fuzz-digests.json.
# The digests were taken when MiniDB still had two evaluators (compiled
# column programs and an AST interpreter) and both produced them, so they
# hold the one evaluator left to the semantics both agreed on.

_VEC_WORDS = ("alpha", "bràvo", "charlie", "号delta", "echo🦆", "fox trot", "", "NULL")
_VEC_OPS = ("=", "<>", "<", "<=", ">", ">=")


def _vec_fuzz_statements(rng: random.Random) -> list[str]:
    """One seeded workload: schema setup plus random SELECTs over it."""

    def int_value() -> str:
        roll = rng.random()
        if roll < 0.15:
            return "NULL"
        if roll < 0.25:
            return str(rng.randint(-(2**63), 2**63))
        return str(rng.randint(-5, 15))

    def text_value() -> str:
        if rng.random() < 0.15:
            return "NULL"
        return "'" + rng.choice(_VEC_WORDS) + str(rng.randint(0, 9)) + "'"

    def real_value() -> str:
        roll = rng.random()
        if roll < 0.12:
            return "NULL"
        if roll < 0.28:
            # 1e400 overflows to inf; inf - inf materialises a genuine nan
            return rng.choice(("1e400", "-1e400", "1e400 - 1e400", "-0.0", "5e-324"))
        return f"{rng.uniform(-50, 50):.3f}"

    def predicate(depth: int = 0) -> str:
        roll = rng.random() if depth < 2 else rng.random() * 0.85
        if roll < 0.22:
            return f"a {rng.choice(_VEC_OPS)} {rng.randint(-5, 15)}"
        if roll < 0.38:
            return f"t {rng.choice(_VEC_OPS)} '{rng.choice(_VEC_WORDS)}{rng.randint(0, 9)}'"
        if roll < 0.50:
            return f"r {rng.choice(_VEC_OPS)} {rng.choice(('0.0', '1e400', '2.5', '-0.0'))}"
        if roll < 0.62:
            negated = "" if rng.random() < 0.7 else "NOT "
            pattern = rng.choice(("al%", "%o", "%a%", "c_a%", "%🦆%", "fox%"))
            return f"t {negated}LIKE '{pattern}'"
        if roll < 0.74:
            negated = "" if rng.random() < 0.5 else "NOT "
            return f"{rng.choice('abtr')} IS {negated}NULL"
        if roll < 0.85:
            connector = rng.choice((" AND ", " OR "))
            return f"({predicate(depth + 1)}){connector}({predicate(depth + 1)})"
        return rng.choice(("a", "b"))  # bare-column truthiness predicate

    def select() -> str:
        if rng.random() < 0.25:
            if rng.random() < 0.5:
                sql = "SELECT b, count(*), sum(a), min(r), max(t) FROM fz GROUP BY b"
            else:
                sql = "SELECT count(*), sum(a), min(r), max(r) FROM fz"
            if rng.random() < 0.5:
                sql += f" WHERE {predicate()}"
            if "GROUP BY" in sql:
                sql += " ORDER BY 1"
            return sql
        items = rng.sample(("a", "b", "t", "r", "a + b", "b * 2"), k=rng.randint(1, 3))
        distinct = "DISTINCT " if rng.random() < 0.3 else ""
        sql = f"SELECT {distinct}{', '.join(items)} FROM fz"
        if rng.random() < 0.7:
            sql += f" WHERE {predicate()}"
        if rng.random() < 0.6:
            keys = ", ".join(
                f"{rng.randint(1, len(items))} {rng.choice(('ASC', 'DESC'))}"
                for _ in range(rng.randint(1, 2))
            )
            sql += f" ORDER BY {keys}"
        if rng.random() < 0.25:
            sql += f" LIMIT {rng.randint(0, 6)}"
        return sql

    statements = ["CREATE TABLE fz(a INTEGER, b INTEGER, t VARCHAR(30), r REAL)"]
    for _ in range(rng.randint(1, 3)):
        rows = ", ".join(
            f"({int_value()}, {int_value()}, {text_value()}, {real_value()})"
            for _ in range(rng.randint(1, 8))
        )
        statements.append(f"INSERT INTO fz VALUES {rows}")
    for _ in range(rng.randint(6, 16)):
        statements.append(select())
        if rng.random() < 0.08:
            # deliberately broken statements: both modes must raise the same
            # error type with the same message, at the same position
            statements.append(
                rng.choice(
                    (
                        "SELECT zz FROM fz",
                        "SELECT a FROM nowhere",
                        "SELECT a FROM fz ORDER BY 9",
                        f"SELECT a FROM fz WHERE zz > {rng.randint(0, 9)}",
                    )
                )
            )
        if rng.random() < 0.1:
            statements.append(f"DELETE FROM fz WHERE {predicate()}")
    return statements


def _vec_run_workload(statements: list[str], dialect: str):
    """Execute the workload on a fresh session, capturing results and errors."""
    session = Session(dialect, enable_faults=False)
    captures = []
    for sql in statements:
        try:
            result = session.execute(sql)
            captures.append([sql, result.columns, result.rows])
        except Exception as error:  # noqa: BLE001 - error parity is the point
            captures.append([sql, type(error).__name__, str(error)])
    return captures, sorted(session.features)


#: Twelve seeds per dialect: ``seed % 4`` picks the dialect from _FUZZ_HOSTS.
ENGINE_FUZZ_SEEDS = range(48)
ENGINE_FUZZ_DIGESTS = Path(__file__).parent / "golden" / "engine-fuzz-digests.json"


def engine_fuzz_digest(seed: int) -> str:
    """sha256 of one seed's canonical captures and feature set."""
    rng = random.Random(seed)
    statements = _vec_fuzz_statements(rng)
    captures, features = _vec_run_workload(statements, _FUZZ_HOSTS[seed % len(_FUZZ_HOSTS)])
    return hashlib.sha256(canonical_bytes([captures, features])).hexdigest()


class TestFrozenEngineFuzz:
    def test_fuzzed_workloads_match_their_frozen_digests(self):
        frozen = json.loads(ENGINE_FUZZ_DIGESTS.read_text())
        actual = {str(seed): engine_fuzz_digest(seed) for seed in ENGINE_FUZZ_SEEDS}
        changed = sorted((seed for seed in frozen if actual[seed] != frozen[seed]), key=int)
        assert len(frozen) == len(ENGINE_FUZZ_SEEDS) and not changed, f"seeds whose workload changed: {changed}"


def _assert_lazy_matches(decoded: FileResult, source: FileResult) -> None:
    """A decoded result answers from its frame head exactly as its source
    does, stays lazy while doing so, and equals the source once built —
    also after pickling it unbuilt."""
    from repro.store.codec import fault_reports_for

    if "results" not in decoded.__dict__:
        for outcome in RecordOutcome:
            assert decoded.count(outcome) == source.count(outcome)
        assert (decoded.total, decoded.executed) == (source.total, source.executed)
        assert canonical_bytes(decoded.failures()) == canonical_bytes(source.failures())
        faults = fault_reports_for(SuiteResult(suite=source.suite, host=source.host, files=[decoded]), source.host)
        expected = fault_reports_for(SuiteResult(suite=source.suite, host=source.host, files=[source]), source.host)
        assert canonical_bytes(faults) == canonical_bytes(expected)
        assert "results" not in decoded.__dict__, "head answers must not build the records"
        unpickled = pickle.loads(pickle.dumps(decoded))
        assert "results" not in unpickled.__dict__
        assert canonical_bytes(unpickled) == canonical_bytes(source)
    assert canonical_bytes(decoded) == canonical_bytes(source)


class TestCodecProperties:
    @given(st.integers(min_value=0, max_value=2**32 - 1), st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_file_result_roundtrip_on_random_suites(self, seed, verify):
        rng = random.Random(seed)
        test_file, file_result = _fuzz_file(rng)
        blob = encode_file_result(file_result, test_file)
        decoded = decode_file_result(blob, test_file, verify=verify)
        assert ("results" in decoded.__dict__) is verify
        _assert_lazy_matches(decoded, file_result)

    @given(st.integers(min_value=0, max_value=2**32 - 1), st.booleans())
    @settings(max_examples=15, deadline=None)
    def test_suite_result_roundtrip_on_random_suites(self, seed, verify):
        rng = random.Random(seed)
        suite_name = rng.choice(_FUZZ_DIALECTS)
        suite = TestSuite(name=suite_name)
        result = SuiteResult(suite=suite_name, host=rng.choice(_FUZZ_HOSTS))
        for index in range(rng.randint(1, 4)):
            test_file, file_result = _fuzz_file(rng, index)
            suite.files.append(test_file)
            result.files.append(file_result)
        # a suite result persists as one frame per file (file-results)
        decoded = SuiteResult(suite=result.suite, host=result.host)
        for file_result, test_file in zip(result.files, suite.files):
            decoded.files.append(decode_file_result(encode_file_result(file_result, test_file), test_file, verify=verify))
        for decoded_file, file_result in zip(decoded.files, result.files):
            assert ("results" in decoded_file.__dict__) is verify
            _assert_lazy_matches(decoded_file, file_result)
        assert canonical_bytes(decoded) == canonical_bytes(result)

    @given(st.integers(min_value=0, max_value=2**32 - 1), st.booleans())
    @settings(max_examples=30, deadline=None)
    def test_any_single_byte_corruption_reads_as_codec_error(self, seed, verify):
        """Every frame byte is covered by magic/version checks or the payload
        digest: flipping any one of them must surface as a miss at load —
        without ``verify`` too, since a lazy load parses only the head —
        never as plausible results (the invariant incremental assembly's
        corrupted-blob fallback relies on)."""
        rng = random.Random(seed)
        test_file, file_result = _fuzz_file(rng)
        blob = bytearray(encode_file_result(file_result, test_file))
        blob[rng.randrange(len(blob))] ^= 0xFF
        with pytest.raises(CodecError):
            decode_file_result(bytes(blob), test_file, verify=verify)

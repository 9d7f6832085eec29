"""Tests for the statement-level cache layer (repro.perf.cache consumers).

Covers the satellite requirements: translation results must never be served
stale across different (source, target) pairs, fault-injected adapters must
not poison any cache, and the prepared-plan cache must keep dialect semantics
intact while being shared across sessions.
"""

from __future__ import annotations

import pytest

from repro.adapters.minidb_adapter import MiniDBAdapter
from repro.core.runner import FileResult, RecordOutcome, RecordResult
from repro.core.records import QueryRecord, StatementRecord
from repro.dialects import ALL_DIALECTS
from repro.dialects.translator import translate
from repro.engine.session import Session
from repro.errors import EngineCrash, SQLSyntaxError
from repro.perf import cache as perf_cache
from repro.sqlparser.tokenizer import tokenize


@pytest.fixture(autouse=True)
def _fresh_caches():
    perf_cache.clear_caches()
    perf_cache.set_caching(True)
    yield
    perf_cache.clear_caches()
    perf_cache.set_caching(True)


class TestLRUCache:
    def test_put_get_and_stats(self):
        cache = perf_cache.LRUCache("t-basic", maxsize=4, register=False)
        assert cache.get("a") is None
        cache.put("a", 1)
        assert cache.get("a") == 1
        assert cache.stats.hits == 1 and cache.stats.misses == 1
        assert cache.stats.hit_rate == 0.5

    def test_lru_eviction_order(self):
        cache = perf_cache.LRUCache("t-evict", maxsize=2, register=False)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")          # refresh "a"; "b" becomes least recent
        cache.put("c", 3)
        assert cache.get("b") is None
        assert cache.get("a") == 1 and cache.get("c") == 3
        assert cache.stats.evictions == 1

    def test_clear_resets_contents_and_stats(self):
        cache = perf_cache.LRUCache("t-clear", maxsize=2, register=False)
        cache.put("a", 1)
        cache.get("a")
        cache.clear()
        assert len(cache) == 0 and cache.stats.lookups == 0

    def test_caching_disabled_context(self):
        assert perf_cache.caching_enabled()
        with perf_cache.caching_disabled():
            assert not perf_cache.caching_enabled()
            with perf_cache.caching_disabled():
                assert not perf_cache.caching_enabled()
            assert not perf_cache.caching_enabled()
        assert perf_cache.caching_enabled()


class TestTokenizeCache:
    def test_cached_stream_matches_uncached(self):
        sql = "SELECT a, b FROM t WHERE a < 10 ORDER BY b"
        with perf_cache.caching_disabled():
            uncached = tokenize(sql)
        first = tokenize(sql)
        second = tokenize(sql)
        assert first == uncached == second

    def test_returned_list_is_a_private_copy(self):
        sql = "SELECT 1"
        first = tokenize(sql)
        first.clear()
        assert len(tokenize(sql)) > 0


class TestTranslateCacheCorrectness:
    def test_same_sql_different_pairs_never_stale(self):
        """The satellite requirement: (sql, source, target) is the cache key."""
        sql = "SELECT 'a' || 'b'"
        sqlite, mysql, postgres = ALL_DIALECTS["sqlite"], ALL_DIALECTS["mysql"], ALL_DIALECTS["postgres"]
        to_mysql = translate(sql, sqlite, mysql)
        to_postgres = translate(sql, sqlite, postgres)
        assert "CONCAT" in to_mysql.sql
        assert to_postgres.sql == sql
        # ask again in the opposite order: answers must be identical, not swapped
        assert translate(sql, sqlite, postgres).sql == to_postgres.sql
        assert translate(sql, sqlite, mysql).sql == to_mysql.sql

    def test_direction_is_part_of_the_key(self):
        sql = "SELECT CAST(a AS INTEGER) FROM t WHERE b::text = 'x'"
        postgres, sqlite = ALL_DIALECTS["postgres"], ALL_DIALECTS["sqlite"]
        forward = translate(sql, postgres, sqlite)
        backward = translate(sql, sqlite, postgres)
        assert "CAST(b AS text)" in forward.sql      # sqlite lacks ::
        assert backward.sql == sql                   # postgres keeps ::
        assert translate(sql, postgres, sqlite).sql == forward.sql

    def test_repeat_lookups_hit_the_cache(self):
        sql = "SELECT 1 DIV 2"
        caches = perf_cache.registered_caches()
        before = caches["translate"].stats.hits
        translate(sql, ALL_DIALECTS["mysql"], ALL_DIALECTS["postgres"])
        translate(sql, ALL_DIALECTS["mysql"], ALL_DIALECTS["postgres"])
        assert caches["translate"].stats.hits > before


#: Listing 14: crashes MiniDB's MySQL emulation, runs fine on DuckDB.
LISTING_14 = (
    "WITH RECURSIVE t(x) AS (SELECT 1 UNION ALL (SELECT x+1 FROM t WHERE x < 4 "
    "UNION SELECT x*2 FROM t WHERE x >= 4 AND x < 8)) SELECT * FROM t ORDER BY x"
)


class TestFaultInjectionDoesNotPoisonCaches:
    def test_crash_on_one_dialect_leaves_other_dialects_clean(self):
        mysql = MiniDBAdapter("mysql")
        mysql.connect()
        outcome = mysql.execute(LISTING_14)
        assert outcome.error_type == "EngineCrash"
        # same statement text, different dialect: plan + fault caches are warm
        duckdb = MiniDBAdapter("duckdb")
        duckdb.connect()
        assert duckdb.execute(LISTING_14).ok
        # and the translator still answers from clean state
        result = translate(LISTING_14, ALL_DIALECTS["mysql"], ALL_DIALECTS["duckdb"])
        assert "WITH RECURSIVE" in result.sql

    def test_fault_match_cache_respects_enable_faults(self):
        crashing = Session("mysql", enable_faults=True)
        with pytest.raises(EngineCrash):
            crashing.execute(LISTING_14)
        # the fault-match cache is warm for this (dialect, sql); a session with
        # fault emulation off must not crash on the cached match
        clean = Session("mysql", enable_faults=False)
        result = clean.execute(LISTING_14)
        assert result.rows

    def test_stateful_fault_conditions_are_reevaluated_on_cache_hits(self):
        """The update-after-commit signature matches textually but only fires
        in the right transaction state, even once the match is cached."""
        session = Session("duckdb")
        session.execute("CREATE TABLE a (b INTEGER)")
        session.execute("BEGIN")
        session.execute("INSERT INTO a VALUES (1)")
        session.execute("UPDATE a SET b = b + 10")   # warms the fault-match cache
        session.execute("COMMIT")
        with pytest.raises(EngineCrash):
            session.execute("UPDATE a SET b = b + 10")


class TestPlanCache:
    def test_shared_plans_keep_dialect_semantics(self):
        """The plan cache is process-wide; execution stays per-dialect."""
        sql_div = "SELECT 7 / 2"
        sqlite = Session("sqlite")
        duckdb = Session("duckdb")
        assert sqlite.execute(sql_div).scalar() == 3     # integer division
        assert duckdb.execute(sql_div).scalar() == 3.5   # decimal division

    def test_repeat_statements_hit_the_plan_cache(self):
        session = Session("sqlite")
        caches = perf_cache.registered_caches()
        session.execute("SELECT 41 + 1")
        before = caches["plan"].stats.hits
        session.execute("SELECT 41 + 1")
        assert caches["plan"].stats.hits == before + 1

    def test_syntax_errors_are_cached_and_raised_fresh(self):
        session = Session("sqlite")
        with pytest.raises(SQLSyntaxError) as first:
            session.execute("SELECT FROM WHERE")
        with pytest.raises(SQLSyntaxError) as second:
            session.execute("SELECT FROM WHERE")
        assert str(first.value) == str(second.value)
        assert first.value is not second.value

    def test_disabled_caching_bypasses_the_plan_cache(self):
        caches = perf_cache.registered_caches()
        with perf_cache.caching_disabled():
            session = Session("sqlite")
            session.execute("SELECT 123")
            session.execute("SELECT 123")
        assert caches["plan"].stats.lookups == 0


class TestFileResultCounters:
    def _result(self, outcome: RecordOutcome) -> RecordResult:
        record = StatementRecord(sql="SELECT 1") if outcome is not RecordOutcome.PASS else QueryRecord(sql="SELECT 1")
        return RecordResult(record=record, outcome=outcome)

    def test_counts_accumulate_across_appends(self):
        file_result = FileResult(path="f", suite="slt", host="sqlite")
        file_result.results.append(self._result(RecordOutcome.PASS))
        assert file_result.passed == 1 and file_result.failed == 0
        file_result.results.append(self._result(RecordOutcome.FAIL))
        file_result.results.append(self._result(RecordOutcome.SKIP))
        file_result.results.append(self._result(RecordOutcome.CRASH))
        file_result.results.append(self._result(RecordOutcome.HANG))
        assert file_result.passed == 1
        assert file_result.failed == 1
        assert file_result.skipped == 1
        assert file_result.crashes == 1
        assert file_result.hangs == 1
        assert file_result.executed == 4

    def test_replacing_results_recounts(self):
        file_result = FileResult(path="f", suite="slt", host="sqlite")
        file_result.results.extend(self._result(RecordOutcome.PASS) for _ in range(3))
        assert file_result.passed == 3
        file_result.results = [self._result(RecordOutcome.FAIL)]
        assert file_result.passed == 0 and file_result.failed == 1

    def test_same_length_replacement_recounts(self):
        file_result = FileResult(path="f", suite="slt", host="sqlite")
        file_result.results.extend(self._result(RecordOutcome.PASS) for _ in range(2))
        assert file_result.passed == 2
        file_result.results = [self._result(RecordOutcome.FAIL), self._result(RecordOutcome.FAIL)]
        assert file_result.passed == 0 and file_result.failed == 2

"""MiniDB's SQLite dialect checked against stdlib ``sqlite3``.

The SLT corpus records every expected result on stdlib ``sqlite3`` (the donor
recording), so running that corpus on ``sqlite-mini`` is a direct
differential of MiniDB against a real DBMS: each FAIL is a record where the
emulator and SQLite disagree.  This test pins how many there are for four
seeds and requires each one to fall in a documented divergence class
(``docs/ARCHITECTURE.md``, "MiniDB against sqlite3").  A count may fall but
never rise: a change that adds a disagreement is a MiniDB bug to fix, or a
new class to document here and there.
"""

from __future__ import annotations

import re

import pytest

from repro.core.records import StatementRecord
from repro.core.runner import RecordOutcome
from repro.core.transplant import run_transplant
from repro.corpus import build_suite

#: Records that did not pass (none crash or hang) per corpus seed at the pin,
#: 6 files x 130 records each.
PINNED_FAILS = {0: 14, 1: 11, 2: 11, 3: 13}

#: ``SELECT tN.a FROM tN, tN ...`` or ``... FROM tN INNER JOIN tN ...``.
_SELF_JOIN = re.compile(r"\bFROM\s+(\w+)\s*(?:,|(?:INNER\s+)?JOIN)\s*\1\b", re.IGNORECASE)


def divergence_class(result) -> str | None:
    """The documented class one FAIL record falls in, or None."""
    record = result.record
    if not isinstance(record, StatementRecord):
        return None
    if result.reason == "statement unexpectedly succeeded" and _SELF_JOIN.search(record.sql):
        # sqlite3 rejects the self-join as "ambiguous column name"; MiniDB
        # binds both sides under one qualifier and answers
        return "ambiguous-self-join"
    if result.error_type == "UnsupportedStatementError" and record.sql.lower().startswith("halt"):
        # a runner directive the generator plants as `statement ok` (Table
        # 5's runner dependency): its expectation is not sqlite3's
        return "halt-statement"
    return None


@pytest.mark.parametrize("seed", sorted(PINNED_FAILS))
def test_slt_corpus_on_sqlite_mini_diverges_only_in_documented_classes(seed):
    suite = build_suite("slt", file_count=6, records_per_file=130, seed=seed, store=None)
    result = run_transplant(suite, "sqlite-mini", store=None).result
    failures = [
        record
        for file in result.files
        for record in file.select(RecordOutcome.FAIL, RecordOutcome.CRASH, RecordOutcome.HANG)
    ]
    unexplained = [record.record.sql for record in failures if divergence_class(record) is None]
    assert not unexplained, f"undocumented MiniDB/sqlite3 divergences at seed {seed}: {unexplained}"
    assert len(failures) <= PINNED_FAILS[seed], (
        f"seed {seed}: {len(failures)} FAIL records, pinned at {PINNED_FAILS[seed]}"
    )

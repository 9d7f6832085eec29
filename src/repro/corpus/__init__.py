"""Synthetic test-suite corpora modelled on the paper's statistical profiles.

The paper analyses the real SQLite (SLT), PostgreSQL, DuckDB, and MySQL test
suites — 7.4 million test cases that are not redistributable here.  This
package generates *synthetic* corpora in each suite's native on-disk format
whose statistical profile matches what the paper reports (statement-type mix,
standard-compliance ratio, WHERE-predicate complexity, runner-command usage,
dependency patterns, file sizes), scaled down by a configurable factor.

Expected results are computed by executing the generated statements on the
donor adapter (real ``sqlite3`` for SLT, MiniDB dialect emulations for the
others), exactly how a donor-recorded test suite comes to be.

Entry points:

* :func:`generate_corpus` — native-format text for one suite,
* :func:`build_suite` — generate *and parse* one suite into the unified IR,
* :func:`build_all_suites` — the three executable suites of the paper's
  RQ2-RQ4 experiments (SLT, PostgreSQL, DuckDB) at a corpus scale,
* :func:`scaled_file_count` — the one rule that turns a scale into a
  suite's file count (the CLI's RQ1 MySQL corpus uses it too).
"""

from repro.corpus.profiles import PAPER_PROFILES, SuiteProfile
from repro.corpus.generate import build_all_suites, build_suite, generate_corpus, scaled_file_count, write_corpus

__all__ = [
    "PAPER_PROFILES",
    "SuiteProfile",
    "generate_corpus",
    "build_suite",
    "build_all_suites",
    "scaled_file_count",
    "write_corpus",
]

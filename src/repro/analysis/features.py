"""RQ1: test-runner feature census (Table 2).

Two complementary views are provided:

* :func:`runner_feature_matrix` returns the paper's Table 2 — the feature
  families each suite's *native* runner supports and the number of unique
  runner/CLI commands — sourced from the studied runners' documentation
  (recorded in :mod:`repro.corpus.profiles`).
* :func:`count_runner_commands` measures the same quantities empirically on a
  parsed corpus: which non-SQL commands actually occur in the test files and
  how many distinct ones there are.

The empirical census is computed per file (:func:`file_command_census`) and
merged (:func:`merge_command_censuses`); the whole-suite scan is exactly the
merge of its files' partials in file order.  A census costs less than a
store probe, so Table 2 scans the in-memory suite and the incremental
analysis layer (:mod:`repro.analysis.incremental`) stores nothing for it.
"""

from __future__ import annotations

from collections import Counter

from repro.core.records import ControlRecord, TestFile, TestSuite
from repro.corpus.profiles import TABLE2_RUNNER_FEATURES

#: Mapping from concrete command names to the Table 2 feature families.
FEATURE_FAMILIES = {
    "include": "Include",
    "source": "Include",
    "set": "Set Variable",
    "let": "Set Variable",
    "pset": "Set Variable",
    "load": "Load",
    "copy": "Load",
    "loop": "Loop",
    "endloop": "Loop",
    "foreach": "Loop",
    "while": "Loop",
    "skipif": "Skiptest",
    "onlyif": "Skiptest",
    "mode": "Skiptest",
    "require": "Skiptest",
    "connect": "Multi-Connections",
    "connection": "Multi-Connections",
    "disconnect": "Multi-Connections",
}


def runner_feature_matrix() -> dict[str, dict]:
    """Table 2 as documented for the native runners (suite -> feature map)."""
    return {suite: dict(features) for suite, features in TABLE2_RUNNER_FEATURES.items()}


def file_command_census(test_file: TestFile) -> dict:
    """The per-file partial of :func:`count_runner_commands`.

    Runner commands (:class:`ControlRecord`) and per-record conditions
    (``skipif`` / ``onlyif`` guards) are censused *separately*: a condition
    is a guard on an SQL record, not a runner command of its own, so folding
    it into the command counts would inflate ``distinct_commands`` beyond
    the documented runner-command matrix.  Conditions still witness the
    Skiptest feature family.
    """
    commands: Counter[str] = Counter()
    conditions: Counter[str] = Counter()
    families: set[str] = set()
    for record in test_file.records:
        if not isinstance(record, ControlRecord):
            if record.conditions:
                conditions.update(condition.kind for condition in record.conditions)
                families.add("Skiptest")
            continue
        command = record.command.lower()
        commands[command] += 1
        if command.startswith("psql:"):
            continue
        family = FEATURE_FAMILIES.get(command)
        if family:
            families.add(family)
    return {
        "command_counts": dict(commands),
        "condition_counts": dict(conditions),
        "feature_families": sorted(families),
    }


def merge_command_censuses(suite_name: str, partials) -> dict:
    """Merge per-file censuses into the suite-level Table 2 census.

    Associative and order-insensitive in its answers (counts are sums,
    families a set union); merging in file order additionally reproduces the
    whole-suite scan's key insertion order exactly.
    """
    commands: Counter[str] = Counter()
    conditions: Counter[str] = Counter()
    families: set[str] = set()
    for partial in partials:
        commands.update(partial["command_counts"])
        conditions.update(partial["condition_counts"])
        families.update(partial["feature_families"])
    return {
        "suite": suite_name,
        "distinct_commands": len([name for name in commands if not name.startswith("psql:")]),
        "distinct_cli_commands": len({name for name in commands if name.startswith("psql:")}),
        "command_counts": dict(commands),
        "condition_counts": dict(conditions),
        "feature_families": sorted(families),
    }


def count_runner_commands(suite: TestSuite) -> dict:
    """Empirically census the non-SQL commands of a parsed corpus.

    Returns the distinct command names, their occurrence counts, the number
    of distinct commands, which Table 2 feature families they cover, and —
    separately — the ``skipif``/``onlyif`` condition counts (see
    :func:`file_command_census` for why conditions are not commands).
    """
    return merge_command_censuses(suite.name, (file_command_census(test_file) for test_file in suite.files))


def feature_support_row(suite_name: str) -> dict:
    """One row of Table 2 for ``suite_name`` with human-readable values."""
    documented = TABLE2_RUNNER_FEATURES[suite_name]
    row = {
        "Include": "yes" if documented["include"] else "-",
        "Set Variable": "yes" if documented["set_variable"] else "-",
        "Load": "yes" if documented["load"] else "-",
        "Loop": "yes" if documented["loop"] else "-",
        "Skiptest": "yes" if documented["skiptest"] else "-",
        "Multi-Connections": "yes" if documented["multi_connections"] else "-",
        "CLI Commands": documented["cli_commands"] or "-",
        "Runner Commands": documented["runner_commands"] or "-",
    }
    return row

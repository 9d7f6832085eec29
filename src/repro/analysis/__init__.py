"""RQ1/RQ2 analyses over parsed test corpora.

These modules take :class:`~repro.core.records.TestSuite` objects (parsed from
native formats) and compute the statistics the paper reports:

* :mod:`repro.analysis.features` — the RQ1 runner-feature census (Table 2),
* :mod:`repro.analysis.filesize` — lines of code per test file (Figure 1),
* :mod:`repro.analysis.statements` — statement-type distribution and standard
  compliance (Figure 2, Table 3),
* :mod:`repro.analysis.predicates` — WHERE-predicate complexity and join usage
  (Figure 3).

Every scanner is a per-file partial plus an associative merge;
:mod:`repro.analysis.incremental` persists the partials of the scans that
cost more than a store probe (statements, predicates, Table 8 coverage) in
the store's ``file-analysis`` namespace and assembles suite-level answers
from them, so editing one file re-analyzes one file.  The command census and
the file sizes are scanned from the in-memory suite (see docs/STORE.md).
"""

from repro.analysis.features import count_runner_commands, file_command_census, merge_command_censuses, runner_feature_matrix
from repro.analysis.filesize import file_size_distribution, file_size_profile, log_histogram, size_summary
from repro.analysis.incremental import ANALYSIS_PASSES, SuiteAnalyzer, direct_report, suite_partials
from repro.analysis.predicates import file_predicate_profile, join_usage, predicate_distribution
from repro.analysis.statements import (
    file_statement_profile,
    standard_compliance,
    statement_type_counts,
    statement_type_distribution,
)

__all__ = [
    "ANALYSIS_PASSES",
    "SuiteAnalyzer",
    "count_runner_commands",
    "direct_report",
    "file_command_census",
    "file_predicate_profile",
    "file_size_distribution",
    "file_size_profile",
    "file_statement_profile",
    "join_usage",
    "log_histogram",
    "merge_command_censuses",
    "predicate_distribution",
    "runner_feature_matrix",
    "size_summary",
    "standard_compliance",
    "statement_type_counts",
    "statement_type_distribution",
    "suite_partials",
]

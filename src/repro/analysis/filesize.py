"""Figure 1: lines of code per test file of each DBMS's suite.

The per-file partial (:func:`file_size_profile`) is trivially small — one
line count — but routing it through the same partial/merge shape as the
other scanners lets the incremental analysis layer
(:mod:`repro.analysis.incremental`) treat every pass uniformly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.core.records import TestFile, TestSuite


@dataclass
class SizeSummary:
    """Summary statistics of the per-file line counts of one suite."""

    suite: str
    file_count: int
    minimum: int
    maximum: int
    mean: float
    median: float
    geometric_mean: float

    def as_row(self) -> list:
        # round, don't truncate: the other tables round their float cells
        return [self.suite, self.file_count, self.minimum, round(self.median), round(self.mean), self.maximum]


def file_size_profile(test_file: TestFile) -> dict:
    """The per-file partial of the Figure 1 distribution."""
    return {"lines": test_file.source_lines}


def sizes_from_profiles(partials) -> list[int]:
    """The raw Figure 1 distribution from per-file partials (in given order)."""
    return [partial["lines"] for partial in partials]


def file_size_distribution(suite: TestSuite) -> list[int]:
    """Lines of code of every test file in the suite (Figure 1's raw data)."""
    return [test_file.source_lines for test_file in suite.files]


def summarize_sizes(suite_name: str, sizes: list[int]) -> SizeSummary:
    """Summary statistics of one suite's per-file line counts.

    The geometric mean is taken over the positive sizes only (a zero-line
    file would zero it out); a suite with *no* positive sizes reports 0.0 —
    there is no typical size, not a typical size of one line.
    """
    sizes = sorted(sizes) or [0]
    count = len(sizes)
    mean = sum(sizes) / count
    median = sizes[count // 2] if count % 2 == 1 else (sizes[count // 2 - 1] + sizes[count // 2]) / 2
    positive = [size for size in sizes if size > 0]
    geometric = math.exp(sum(math.log(size) for size in positive) / len(positive)) if positive else 0.0
    return SizeSummary(
        suite=suite_name,
        file_count=count,
        minimum=sizes[0],
        maximum=sizes[-1],
        mean=mean,
        median=median,
        geometric_mean=geometric,
    )


def size_summary(suite: TestSuite) -> SizeSummary:
    """Summary statistics of the Figure 1 distribution for one suite."""
    return summarize_sizes(suite.name, file_size_distribution(suite))


def log_histogram(sizes: list[int], bucket_count: int = 6) -> dict[str, int]:
    """Bucket sizes into powers of ten (the log-scale axis of Figure 1).

    Every size lands in exactly one bucket — zero-line files get their own
    ``"0"`` bucket (no power-of-ten bucket reaches below 1), so the bucket
    counts always sum to ``len(sizes)``.
    """
    histogram: dict[str, int] = {"0": sum(1 for size in sizes if size < 1)}
    for exponent in range(1, bucket_count + 1):
        low = 10 ** (exponent - 1)
        high = 10 ** exponent
        label = f"{low}-{high}"
        histogram[label] = sum(1 for size in sizes if low <= size < high)
    histogram[f">{10 ** bucket_count}"] = sum(1 for size in sizes if size >= 10 ** bucket_count)
    return histogram

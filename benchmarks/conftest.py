"""Shared state for the benchmark harness.

One :class:`ExperimentContext` is built per benchmark session (corpora +
cross-execution matrix); the per-table benchmarks then time the analysis that
regenerates each table/figure and print the regenerated output so the numbers
can be compared with the paper (see EXPERIMENTS.md).

``--benchmark-only`` runs are expected to take a few minutes: the corpus is
generated at the default laptop scale and executed on all four hosts once.
"""

from __future__ import annotations

import pytest

from repro.experiments.context import ExperimentContext
from repro.experiments.registry import run_experiment
from repro.store import ArtifactStore, set_default_store

#: Scale used by the benchmark campaign (fraction of the default file counts).
BENCHMARK_SCALE = 0.5
BENCHMARK_SEED = 0


@pytest.fixture(scope="session", autouse=True)
def _hermetic_artifact_store(tmp_path_factory):
    """Per-session artifact store: benchmark timings must never depend on what
    a previous run left in the user-level store (cold/warm measurements manage
    their own store instances explicitly)."""
    root = tmp_path_factory.mktemp("repro-store")
    previous = set_default_store(ArtifactStore(root=root))
    yield
    set_default_store(previous)


@pytest.fixture(scope="session")
def context() -> ExperimentContext:
    shared = ExperimentContext(scale=BENCHMARK_SCALE, seed=BENCHMARK_SEED)
    # Materialise the expensive shared state once, outside the timed sections:
    # Figure 4 runs the 12 plain matrix cells into the context's cell cache.
    shared.suites
    shared.mysql_suite
    run_experiment("figure4", shared)
    return shared


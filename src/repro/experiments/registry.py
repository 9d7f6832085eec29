"""Canonical experiment registry: the built-in drivers and the run entry points.

Importing this module registers every built-in driver with
:mod:`repro.experiments.base` (the way :mod:`repro.formats.registry` imports
the format parsers).  The drivers import in the order the paper presents its
tables and figures, and registration order is the run order ``run_all`` and
the CLI keep.

``run_experiment`` and ``run_all`` are thin wrappers over the single-pass
streaming engine (:func:`repro.experiments.stream.run_batch`): even the batch
path plans the union of every selected experiment's declared needs and
executes each unique matrix cell exactly once.
"""

from __future__ import annotations

import importlib

from repro.experiments.base import (
    available_experiments,
    experiment_entries,
    get_experiment_entry,
)
from repro.experiments.context import ExperimentContext, ExperimentResult

# importing a driver module registers it, so this is the run order
for _driver in (
    "table1", "figure1", "table2", "figure2", "table3", "figure3", "table4",
    "table5", "figure4", "table6", "table7", "table8", "bugs", "ablations",
):
    importlib.import_module(f"repro.experiments.{_driver}")


def run_experiment(experiment_id: str, context: ExperimentContext | None = None) -> ExperimentResult:
    """Run one experiment by id (``"table4"``, ``"figure2"``, ``"bugs"``, ...).

    Unknown ids raise :class:`~repro.errors.UnknownExperimentError` (a
    ``KeyError`` subclass, so legacy ``except KeyError`` callers still work)
    with near-miss suggestions.
    """
    from repro.experiments.stream import run_batch

    return run_batch([experiment_id], context)[0]


def run_all(context: ExperimentContext | None = None) -> list[ExperimentResult]:
    """Run every registered experiment through one shared streaming pass.

    Results come back in registry order and are byte-identical to running the
    experiments one by one; the single pass executes each unique matrix cell
    at most once, so shared campaign work is never repeated.
    """
    from repro.experiments.stream import run_batch

    return run_batch(None, context)


__all__ = [
    "available_experiments",
    "experiment_entries",
    "get_experiment_entry",
    "run_all",
    "run_experiment",
]

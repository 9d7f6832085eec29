"""Experiment drivers: one module per table/figure of the paper's evaluation.

Experiments are registered declaratively with
:func:`~repro.experiments.base.register_experiment`, stating up front which
corpora and campaign-matrix cells they need
(:class:`~repro.experiments.base.ExperimentNeeds`).  The streaming engine
(:func:`~repro.experiments.stream.stream_experiments`) unions those needs,
executes each unique cell exactly once per pass, and yields each experiment's
result the moment its last cell lands; ``run_experiment``/``run_all`` are
batch wrappers over the same pass.  The shared
:class:`~repro.experiments.context.ExperimentContext` caches the generated
corpora and every executed cell, so repeated runs do not repeat the expensive
steps.

Use :func:`repro.experiments.registry.run_experiment` to run one by id
(``"table4"``, ``"figure2"``, ...), or ``python -m repro.experiments`` for the
command-line interface (``--stream`` prints results as they complete).
"""

from repro.experiments.base import (
    CellKey,
    Experiment,
    ExperimentNeeds,
    donor_cells,
    experiment_entries,
    matrix_cells,
    register_experiment,
)
from repro.experiments.context import ExperimentContext, ExperimentResult
from repro.experiments.registry import run_all, run_experiment
from repro.experiments.stream import stream_experiments

__all__ = [
    "CellKey",
    "Experiment",
    "ExperimentContext",
    "ExperimentNeeds",
    "ExperimentResult",
    "donor_cells",
    "experiment_entries",
    "matrix_cells",
    "register_experiment",
    "run_all",
    "run_experiment",
    "stream_experiments",
]

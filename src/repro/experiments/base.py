"""Declarative experiment API: registration, matrix needs, and cell access.

Like :mod:`repro.formats.registry` and :mod:`repro.adapters.registry` for
parsers and adapters, this module lets a scheduler know what an experiment
needs before running it:

* :func:`register_experiment` — a class decorator that registers an
  :class:`Experiment` subclass under an id, with a human title, a
  description, and a declarative :class:`ExperimentNeeds`.
* :class:`ExperimentNeeds` — which corpora the experiment reads and which
  campaign-matrix cells (suite × host × translate × tolerance) it reads.  The
  streaming engine (:mod:`repro.experiments.stream`) unions these
  declarations and executes each unique cell exactly once per pass.
* :class:`Experiment` — the finalize protocol: the engine calls
  :meth:`Experiment.finalize` once every declared cell is in the context's
  cell cache, and ``finalize`` reads them from there.

See docs/EXPERIMENTS.md for the third-party registration walkthrough.
"""

from __future__ import annotations

import difflib
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.core.transplant import DEFAULT_HOSTS, DONOR_OF_SUITE, CellKey, plain_alias
from repro.errors import UnknownExperimentError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.transplant import TransplantResult
    from repro.experiments.context import ExperimentContext, ExperimentResult


def donor_cells(*suites: str) -> tuple[CellKey, ...]:
    """One donor-on-donor cell per suite (the RQ3 diagonal)."""
    return tuple(CellKey(suite, DONOR_OF_SUITE[suite]) for suite in suites)


def matrix_cells(
    suites: tuple[str, ...],
    hosts: tuple[str, ...] = DEFAULT_HOSTS,
    translate: bool = False,
    include_donor: bool = True,
) -> tuple[CellKey, ...]:
    """The suite × host grid in campaign order (suites outer, hosts inner).

    ``include_donor=False`` drops the donor-on-donor diagonal — the shape of
    the paper's off-diagonal RQ4 analyses (Tables 6/7, the translation
    ablation).
    """
    cells = []
    for suite in suites:
        for host in hosts:
            if not include_donor and DONOR_OF_SUITE.get(suite, suite) == host:
                continue
            cells.append(CellKey(suite, host, translate))
    return tuple(cells)


@dataclass(frozen=True)
class ExperimentNeeds:
    """What one experiment consumes, declared up front.

    ``suites`` names the corpora the driver reads (``"slt"``, ``"postgres"``,
    ``"duckdb"``, ``"mysql"``); ``cells`` the campaign-matrix cells it
    reads.  Both are declarative: the streaming engine warms the corpora
    once, unions every registered experiment's cells, and executes each unique
    cell exactly once per pass.  An empty declaration (the default) marks a
    pure-analysis experiment, which finalizes before any cell executes.
    """

    cells: tuple[CellKey, ...] = ()
    suites: tuple[str, ...] = ()


class Experiment:
    """Base class for registered experiments (the finalize protocol).

    The engine instantiates the class with the shared
    :class:`~repro.experiments.context.ExperimentContext` and calls
    :meth:`finalize` exactly once, after every declared cell is in the
    context's one cell cache (:attr:`ExperimentContext.cells`).  ``finalize``
    reads them through :meth:`cell` / :meth:`iter_cells` and computes
    everything from there, so its result does not depend on the order the
    pass completed the cells: that is what makes streaming output
    byte-identical to the serial batch.
    """

    #: populated by :func:`register_experiment`
    id: str = ""
    title: str = ""
    description: str = ""
    needs: ExperimentNeeds = ExperimentNeeds()

    def __init__(self, context: "ExperimentContext"):
        self.context = context

    def cell(self, suite: str, host: str, translate: bool = False, tolerance: float = 0.0) -> "TransplantResult":
        """The result of one declared cell."""
        return self.context.cells[plain_alias(CellKey(suite, host, translate, tolerance))]

    def iter_cells(self) -> "list[tuple[CellKey, TransplantResult]]":
        """Every declared cell and its result, in *declaration* order."""
        return [(key, self.context.cells[plain_alias(key)]) for key in self.needs.cells]

    def finalize(self) -> "ExperimentResult":
        """Produce the experiment's result; called once, after every cell ran."""
        raise NotImplementedError


#: experiment id -> experiment class, in registration order (the run order)
_REGISTRY: dict[str, type[Experiment]] = {}


def register_experiment(
    experiment_id: str,
    title: str,
    *,
    needs: ExperimentNeeds | None = None,
    description: str = "",
    replace: bool = False,
):
    """Class decorator registering an :class:`Experiment` subclass under ``experiment_id``.

    The id, title, description and needs become class attributes.
    Registering an already-known id raises unless ``replace=True`` (test
    hook; see :func:`unregister_experiment`).
    """

    def decorate(cls: type[Experiment]) -> type[Experiment]:
        if not (isinstance(cls, type) and issubclass(cls, Experiment)):
            raise TypeError(f"@register_experiment({experiment_id!r}) expects an Experiment subclass, got {cls!r}")
        if experiment_id in _REGISTRY and not replace:
            raise ValueError(f"experiment {experiment_id!r} is already registered (pass replace=True to override)")
        cls.id = experiment_id
        cls.title = title
        cls.description = description
        cls.needs = needs if needs is not None else ExperimentNeeds()
        _REGISTRY[experiment_id] = cls
        return cls

    return decorate


def unregister_experiment(experiment_id: str) -> None:
    """Remove one registration (test hook for temporary experiments)."""
    _REGISTRY.pop(experiment_id, None)


def get_experiment_entry(experiment_id: str) -> type[Experiment]:
    """The experiment class registered as ``experiment_id``, with near-miss suggestions on miss."""
    try:
        return _REGISTRY[experiment_id]
    except KeyError:
        suggestions = difflib.get_close_matches(experiment_id, _REGISTRY, n=3, cutoff=0.5)
        hint = f" (did you mean {', '.join(repr(s) for s in suggestions)}?)" if suggestions else ""
        raise UnknownExperimentError(
            f"unknown experiment {experiment_id!r}{hint}; known: {sorted(_REGISTRY)}"
        ) from None


def experiment_entries() -> list[type[Experiment]]:
    """Every registered experiment, in registration order."""
    return list(_REGISTRY.values())


def available_experiments() -> list[str]:
    """Registered experiment ids, in registration order."""
    return list(_REGISTRY)

"""Single-pass streaming experiment engine.

One pass over the campaign matrix feeds *every* selected experiment:

1. **Plan** — union the :class:`~repro.experiments.base.ExperimentNeeds` of
   the selected experiments into a deduplicated cell list in campaign order
   (plain cells before translated, suites outer, hosts inner — the same
   nesting :func:`repro.core.transplant.run_matrix` uses — and an exact cell
   before its float-tolerant twin).  Translated donor-on-donor cells are
   aliases of their plain siblings (translation is the identity there) and
   are collapsed by :func:`repro.core.transplant.plain_alias`, the
   campaign's one aliasing rule.
2. **Execute** — each unique cell runs exactly once per pass, in plan
   order: the context's cell cache serves cells an earlier pass ran, and
   the rest come from one :func:`repro.core.transplant.run_cells` generator
   with the context's store, pools and resilience policy.
   Store-warm cells resolve instantly, the context's worker pool shards
   each cell's files, and degraded cells surface through
   :meth:`ExperimentContext.infra_failures`.  Every cell an experiment reads
   is planned, so every infrastructure failure behind a printed number
   reaches that report.
3. **Finalize** — every completed cell lands in
   :attr:`ExperimentContext.cells`, and an experiment's
   :class:`~repro.experiments.context.ExperimentResult` is yielded the
   moment its last declared cell lands.  Pure-analysis experiments (no
   cells) yield before any cell executes.

Because experiments compute everything in ``finalize`` from the context's
cells, each yielded result is byte-identical to its batch twin; the pass
yields in a deterministic order, and :func:`run_batch` (what ``run_all``
builds on) restores registry order.
"""

from __future__ import annotations

from typing import Iterator

from repro.core.transplant import DEFAULT_HOSTS, CellKey, plain_alias, run_cells
from repro.experiments.base import Experiment, experiment_entries, get_experiment_entry
from repro.experiments.context import ExperimentContext, ExperimentResult

#: corpora the context can build (the three executable suites plus mysql)
_EXECUTABLE_SUITES = ("slt", "postgres", "duckdb")


def _resolve_entries(experiment_ids) -> list[type[Experiment]]:
    """Registered experiments for ``experiment_ids`` (None = all, in registry order).

    Unknown ids raise :class:`~repro.errors.UnknownExperimentError` with
    near-miss suggestions before anything executes; duplicates collapse to
    their first occurrence (one pass produces one result per experiment).
    """
    if experiment_ids is None:
        return experiment_entries()
    entries: list[type[Experiment]] = []
    for experiment_id in experiment_ids:
        entry = get_experiment_entry(experiment_id)
        if entry not in entries:
            entries.append(entry)
    return entries


def _plan_cells(entries: list[type[Experiment]]) -> list[CellKey]:
    """The deduplicated union of every entry's cells, in campaign order.

    Plain cells come before translated ones, and within each group cells
    follow suite-then-host nesting (suites in corpus order, hosts in
    ``DEFAULT_HOSTS`` order) — the order a plain ``run_matrix`` followed by a
    translated one walks the grid — with an exact cell before its
    float-tolerant twin.
    """
    needed = {plain_alias(key) for entry in entries for key in entry.needs.cells}
    suite_order = {name: index for index, name in enumerate(_EXECUTABLE_SUITES)}
    host_order = {name: index for index, name in enumerate(DEFAULT_HOSTS)}
    return sorted(
        needed,
        key=lambda key: (
            key.translate,
            suite_order.get(key.suite, len(suite_order)),
            key.suite,
            host_order.get(key.host, len(host_order)),
            key.host,
            key.tolerance,
        ),
    )


def _warm_corpora(entries: list[type[Experiment]], plan: list[CellKey], context: ExperimentContext) -> None:
    """Build every needed corpus once, up front, before any cell executes.

    Cell execution and pure-analysis finalization both read the context's
    lazily-built suites; warming them here keeps corpus work out of the
    first cell's (and the first analysis experiment's) time.
    """
    needed = {suite for entry in entries for suite in entry.needs.suites}
    needed.update(key.suite for key in plan)
    if needed & set(_EXECUTABLE_SUITES):
        context.suites
    if "mysql" in needed:
        context.mysql_suite


class _Subscription:
    """One experiment's place in the pass: the planned cells it still waits for."""

    def __init__(self, entry: type[Experiment], context: ExperimentContext):
        self.experiment = entry(context)
        self.pending: set[CellKey] = {plain_alias(key) for key in entry.needs.cells}


def stream_experiments(experiment_ids=None, context: ExperimentContext | None = None) -> Iterator[ExperimentResult]:
    """Stream experiment results as the single campaign pass completes them.

    ``experiment_ids`` selects registered experiments (None = all); each
    unique matrix cell of their unioned needs executes at most once, in
    campaign order, with the context's per-file sharding inside each cell.
    Results yield in a deterministic order: analysis experiments first, then
    each experiment the moment its last declared cell lands.
    """
    shared = context if context is not None else ExperimentContext()
    entries = _resolve_entries(experiment_ids)
    subscriptions = [_Subscription(entry, shared) for entry in entries]
    plan = _plan_cells(entries)
    _warm_corpora(entries, plan, shared)

    subscribers: dict[CellKey, list[_Subscription]] = {}
    for subscription in subscriptions:
        for key in subscription.pending:
            subscribers.setdefault(key, []).append(subscription)

    # pure-analysis experiments have nothing pending: finalize them first, in
    # registry order, before any cell executes
    for subscription in subscriptions:
        if not subscription.pending:
            yield subscription.experiment.finalize()

    if not plan:
        return

    fresh = run_cells(
        shared.suites,
        [key for key in plan if key not in shared.cells],
        adapter_pool=shared.adapter_pool,
        worker_pool=shared.worker_pool,
        store=shared.store,
        resilience=shared.resilience,
    )
    try:
        for key in plan:
            if key not in shared.cells:
                shared.note_stream_cell(key, next(fresh))
            for subscription in subscribers.get(key, ()):
                subscription.pending.discard(key)
                if not subscription.pending:
                    yield subscription.experiment.finalize()
    finally:
        fresh.close()


def run_batch(experiment_ids=None, context: ExperimentContext | None = None) -> list[ExperimentResult]:
    """Run the selected experiments through one streaming pass.

    The compatibility core under :func:`repro.experiments.registry.run_all`
    and ``run_experiment``: results come back in selection order (registry
    order for None), and shared matrix work is deduplicated by the planner.
    """
    shared = context if context is not None else ExperimentContext()
    entries = _resolve_entries(experiment_ids)
    by_id = {result.experiment_id: result for result in stream_experiments([entry.id for entry in entries], shared)}
    return [by_id[entry.id] for entry in entries]

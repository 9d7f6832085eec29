"""Single-pass streaming experiment engine.

One pass over the campaign matrix feeds *every* selected experiment:

1. **Plan** — union the :class:`~repro.experiments.base.ExperimentNeeds` of
   the selected registry entries into a deduplicated cell list in campaign
   order (plain cells before translated, suites outer, hosts inner — the same
   nesting :func:`repro.core.transplant.run_matrix` uses, so store and pool
   behaviour match the batch path).  Translated donor-on-donor cells are
   aliases of their plain siblings (translation is the identity there) and are
   normalised away whenever caching is enabled, mirroring
   ``run_matrix(reuse_donor_runs_from=...)``.
2. **Execute** — each unique cell runs exactly once per pass, in plan
   order, via :func:`repro.core.transplant.run_transplant` with the
   context's store, pools, and resilience policy: store-warm cells resolve
   instantly, ``workers > 1`` shards each cell's files exactly as the batch
   path does, and degraded cells surface through
   :meth:`ExperimentContext.infra_failures`.
3. **Fan out** — every completed cell is delivered to each subscribed
   experiment's :meth:`~repro.experiments.base.Experiment.consume`, and an
   experiment's :class:`~repro.experiments.context.ExperimentResult` is
   yielded the moment its last declared cell lands.  Pure-analysis experiments
   (no cells) yield before any cell executes.

Because accumulators compute everything in ``finalize``, each yielded result
is byte-identical to its batch twin; the pass yields in a deterministic
order, and :func:`run_batch` (what ``run_all`` builds on) restores registry
order.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator

from repro.core.journal import campaign_spec, open_campaign_journal
from repro.core.transplant import DONOR_OF_SUITE, TransplantMatrix, run_transplant
from repro.experiments.base import CellKey, ExperimentEntry, get_experiment_entry
from repro.experiments.context import ExperimentContext, ExperimentResult
from repro.perf import cache as perf_cache

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.transplant import TransplantResult

#: corpora the context can build (the three executable suites plus mysql)
_EXECUTABLE_SUITES = ("slt", "postgres", "duckdb")


def _resolve_entries(experiment_ids) -> list[ExperimentEntry]:
    """Registry entries for ``experiment_ids`` (None = all, in registry order).

    Unknown ids raise :class:`~repro.errors.UnknownExperimentError` with
    near-miss suggestions before anything executes; duplicates collapse to
    their first occurrence (one pass produces one result per experiment).
    """
    # importing the registry module registers every built-in driver
    from repro.experiments import registry as _registry  # noqa: F401

    if experiment_ids is None:
        from repro.experiments.base import experiment_entries

        return experiment_entries()
    entries: list[ExperimentEntry] = []
    seen: set[str] = set()
    for experiment_id in experiment_ids:
        entry = get_experiment_entry(experiment_id)
        if entry.id not in seen:
            seen.add(entry.id)
            entries.append(entry)
    return entries


def _normalize(key: CellKey) -> CellKey:
    """Collapse translated donor-on-donor cells onto their plain siblings.

    Translation is the identity when donor == host (the runner skips it), so
    the plain cell's result *is* the translated cell's result — the same reuse
    ``run_matrix(reuse_donor_runs_from=...)`` applies, honouring the same
    global cache switch.
    """
    if key.translate and DONOR_OF_SUITE.get(key.suite, key.suite) == key.host and perf_cache.caching_enabled():
        return CellKey(key.suite, key.host, False)
    return key


def _plan_cells(entries: list[ExperimentEntry], context: ExperimentContext) -> list[CellKey]:
    """The deduplicated union of every entry's cells, in campaign order.

    Plain cells come before translated ones, and within each group cells
    follow suite-then-host nesting (suites in corpus order, hosts in the
    context's host order) — exactly how the batch path's two ``run_matrix``
    calls walk the grid, so adapters and store entries are touched in the
    same sequence.
    """
    needed = {_normalize(key) for entry in entries for key in entry.needs.cells}
    suite_order = {name: index for index, name in enumerate(_EXECUTABLE_SUITES)}
    host_order = {name: index for index, name in enumerate(context.hosts)}
    return sorted(
        needed,
        key=lambda key: (
            key.translate,
            suite_order.get(key.suite, len(suite_order)),
            key.suite,
            host_order.get(key.host, len(host_order)),
            key.host,
        ),
    )


def _warm_corpora(entries: list[ExperimentEntry], plan: list[CellKey], context: ExperimentContext) -> None:
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


def _open_pass_journals(context: ExperimentContext, plan: list[CellKey]) -> dict:
    """Open this pass's write-ahead journals, one per translate variant.

    The streaming pass is a campaign like any other: when the context has
    journaling enabled (``ExperimentContext(journal=...)`` / CLI
    ``--journal``), each cell's start/finish — and its per-file artifact
    keys — land in a durable journal so a killed pass resumes with
    ``--resume-from`` exactly like ``run_matrix`` does.  Plain and
    translated cells are distinct campaigns (the translate switch is part
    of campaign identity), so a mixed plan opens up to two journals; their
    specs are derived from the plan's own suites and hosts, which makes the
    identity stable across reruns of the same experiment selection.
    """
    if context.journal is None or context.journal is False:
        return {}
    from repro.store import artifacts as artifact_store

    store = artifact_store.active_store(context.store)
    if store is None:
        return {}
    journals: dict = {}
    for translate in (False, True):
        keys = [key for key in plan if key.translate == translate]
        if not keys:
            continue
        suites = {name: context.suites[name] for name in sorted({key.suite for key in keys})}
        hosts = tuple(sorted({key.host for key in keys}))
        spec = campaign_spec(suites, hosts, translate_dialect=translate)
        journals[translate] = open_campaign_journal(context.journal, store, spec)
    return journals


def _execute_transplant(context: ExperimentContext, key: CellKey, journal) -> "TransplantResult":
    """Run one matrix cell with the context's store, pools, and policy."""
    return run_transplant(
        context.suites[key.suite],
        key.host,
        translate_dialect=key.translate,
        workers=context.workers,
        executor=context.executor,
        pool=context.adapter_pool,
        worker_pool=context.worker_pool,
        store=context.store,
        resilience=context.resilience,
        journal=journal,
    )


def _resolve_cell(context: ExperimentContext, key: CellKey, journal) -> "TransplantResult":
    cached = context.peek_cell(key)
    if cached is not None:
        return cached
    result = _execute_transplant(context, key, journal)
    context.note_stream_cell(key, result)
    return result


class _Subscription:
    """One experiment's place in the pass: pending cells and requested keys."""

    def __init__(self, entry: ExperimentEntry, context: ExperimentContext):
        self.entry = entry
        self.experiment = entry.create(context)
        #: normalized key -> declared keys (an aliased translated-donor cell is
        #: delivered under the key the experiment declared, not the one that ran)
        self.requested: dict[CellKey, list[CellKey]] = {}
        for declared in entry.needs.cells:
            self.requested.setdefault(_normalize(declared), []).append(declared)
        self.pending: set[CellKey] = set(self.requested)

    def deliver(self, key: CellKey, result: "TransplantResult") -> bool:
        """Feed one completed cell; True when the experiment became ready."""
        if key not in self.pending:
            return False
        for declared in self.requested[key]:
            self.experiment.consume(declared, result)
        self.pending.discard(key)
        return not self.pending


def _adopt_matrices(context: ExperimentContext, resolved: dict[CellKey, "TransplantResult"]) -> None:
    """Install full-grid matrices assembled from this pass into the context.

    Only complete grids are adopted (a subset pass must not masquerade as a
    full campaign); entries are inserted in ``run_matrix``'s suite-then-host
    order so ``fault_summary`` and friends iterate identically.
    """
    suite_names = context.built_suite_names()
    if not suite_names:
        return
    for translate in (False, True):
        cells = []
        for suite in suite_names:
            for host in context.hosts:
                result = resolved.get(_normalize(CellKey(suite, host, translate)))
                if result is None:
                    break
                cells.append(result)
            else:
                continue
            break
        else:
            matrix = TransplantMatrix()
            for result in cells:
                matrix.add(result)
            context.adopt_matrix(matrix, translated=translate)


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
    plan = _plan_cells(entries, shared)
    _warm_corpora(entries, plan, shared)

    subscribers: dict[CellKey, list[_Subscription]] = {}
    for subscription in subscriptions:
        for key in subscription.requested:
            subscribers.setdefault(key, []).append(subscription)

    # pure-analysis experiments have nothing pending: finalize them first, in
    # registry order, before any cell executes
    for subscription in subscriptions:
        if not subscription.pending:
            yield subscription.experiment.finalize()

    if not plan:
        return

    resolved: dict[CellKey, "TransplantResult"] = {}
    journals = _open_pass_journals(shared, plan)
    try:
        for key in plan:
            result = _resolve_cell(shared, key, journals.get(key.translate))
            resolved[key] = result
            for subscription in subscribers.get(key, ()):
                if subscription.deliver(key, result):
                    yield subscription.experiment.finalize()
    finally:
        for journal in journals.values():
            journal.close()

    _adopt_matrices(shared, resolved)


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

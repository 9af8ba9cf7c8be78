"""Live topology rewiring with state migration (Section VI.B).

:class:`RewirableRuntime` is a :class:`~repro.engine.runtime.TopologyRuntime`
whose deployed topology can be *replaced while tuples are flowing*:
:meth:`RewirableRuntime.install` diffs the old and new topologies
(:func:`repro.core.adaptive.diff_topologies`) and

* creates tasks for added stores, *backfilling* freshly introduced MIR
  stores from the windowed input stores they derive from with an indexed
  join (:func:`compute_backfill` — the atomic-switch equivalent of the
  paper's transition scheme, where old join partners keep being probed
  iteratively while the new store fills up — Figure 8b),
* keeps surviving stores' containers in place — shared state is preserved,
  never rebuilt (``EngineMetrics.preserved_tuples`` counts it) — updating
  their retention when the query mix changed it,
* *repartitions* survivors whose partitioning attribute or task count
  changed (tuples were placed by the old hash function and would be
  invisible to newly routed probes),
* releases removed stores, state and tasks alike: ``install()`` flushes
  first and no message is in flight outside a cascade, so nothing can
  address a retired store, edge or rule afterwards.

Two subsystems drive installs: the epoch-based
:class:`~repro.engine.adaptivity.AdaptiveRuntime`
(statistics-triggered plan switches) and the session facade
(:class:`repro.JoinSession`), whose online ``add_query`` / ``remove_query``
replan between pushed tuples.  Watermark mode composes with rewiring: the
per-stream high waters live on the runtime's
:class:`~repro.engine.ingress.Ingress` and survive the switch.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..core.adaptive import TopologyDiff, diff_topologies
from ..core.probe_order import maintenance_query
from ..core.topology import StoreSpec, Topology
from .routing import stable_hash
from .runtime import TopologyRuntime
from .stores import orient_predicates
from .tuples import StreamTuple

__all__ = [
    "RewirableRuntime",
    "SwitchRecord",
    "WindowGrowthError",
    "compute_backfill",
]


class WindowGrowthError(ValueError):
    """A rewire widened a store's retention past already-evicted history.

    Retention only ever *grows* across installs (shrink requests keep the
    incumbent horizon as slack — surplus tuples fail the window checks, so
    results stay exact and the wider history is still there if the window
    widens again).  Growth is honest too: if nothing was evicted beyond the
    new horizon yet, the store still holds every tuple the wider window can
    reach and the install proceeds.  Only when history the new window needs
    is *already gone* — the store's eviction high-water mark lies above the
    new horizon — would the runtime silently under-report joins against the
    missing interval; this error rejects that install loudly instead.

    Unreachable through :class:`repro.JoinSession` (per-relation windows are
    frozen at session construction, so every replanned store re-declares the
    same retention); bare :meth:`RewirableRuntime.install` callers that grow
    windows mid-stream must either install the widest window before evicting
    or handle this error.
    """


def compute_backfill(
    spec: StoreSpec,
    streams: Dict[str, List[StreamTuple]],
    windows: Dict[str, float],
) -> List[StreamTuple]:
    """Windowed contents of a freshly introduced MIR store.

    ``streams`` maps each of the MIR's input relations to its *live* stored
    tuples (sorted by event time).  Shared by :meth:`RewirableRuntime.install`
    and the sharded driver's cross-shard re-shard path (which rebuilds new
    MIR stores centrally from the merged shard dumps).

    An indexed join over the stream lists: relations are visited in a
    *connected* order (the first one by name, then always the first by name
    with a predicate into those already joined), so every hop is a dict
    lookup on its whole equality key (:func:`orient_predicates`) and none
    degenerates into a cross product.  The indexes are plain dicts local to
    this call — the live containers are neither indexed nor touched.

    The returned list is element for element what
    :func:`~repro.engine.reference.reference_join` yields for the MIR's
    maintenance query (``tests/engine/test_backfill.py``): same order
    (lexicographic in the components' positions in ``streams``, relations in
    name order), each intermediate merged in name order, triggered by its
    latest component (ties to the first name).  Equality is the oracle's as
    well: ``None`` (a missing attribute included) equals ``None``, ``1 ==
    1.0 == True``, and NaN joins nothing.
    """
    # a Query is connected (a disconnected MIR is refused here), so every
    # hop below finds a relation with a predicate into the joined ones
    query = maintenance_query(spec.mir)
    merge_order = query.relations
    joined = [merge_order[0]]
    pending = list(merge_order[1:])
    # a partial: the probe tuple merged along the evaluation order, and its
    # components as (position in streams[relation], tuple) in that order
    partials: List[Tuple[StreamTuple, Tuple[Tuple[int, StreamTuple], ...]]] = [
        (tup, ((pos, tup),))
        for pos, tup in enumerate(streams.get(joined[0], ()))
    ]
    while pending:
        relation, predicates = next(
            (rel, preds)
            for rel in pending
            if (preds := sorted(query.predicates_between(joined, (rel,))))
        )
        hop = orient_predicates(tuple(predicates), joined)
        index: Dict[Tuple[object, ...], List[Tuple[int, StreamTuple]]] = {}
        for pos, stored in enumerate(streams.get(relation, ())):
            key = tuple([stored.values.get(attr) for attr in hop.stored_attrs])
            # a dict would match a NaN object with itself by identity
            if all(value == value for value in key):
                index.setdefault(key, []).append((pos, stored))
        extended = []
        for probe, picks in partials:
            key = tuple([probe.get(attr) for attr in hop.probe_attrs])
            for pick in index.get(key, ()):
                if probe.within_windows(pick[1], windows):
                    extended.append((probe.merge(pick[1]), picks + (pick,)))
        partials = extended
        joined.append(relation)
        pending.remove(relation)

    slots = [joined.index(relation) for relation in merge_order]
    rows = sorted(
        ([picks[slot] for slot in slots] for _, picks in partials),
        key=lambda row: [pos for pos, _ in row],
    )
    intermediates = []
    for row in rows:
        merged = row[0][1]
        for _, component in row[1:]:
            merged = merged.merge(component)
        latest = max(sorted(merged.timestamps), key=merged.timestamps.__getitem__)
        out = StreamTuple(
            values=merged.values,
            timestamps=merged.timestamps,
            trigger=latest,
            trigger_ts=merged.timestamps[latest],
        )
        intermediates.append(out)
    return intermediates


@dataclass
class SwitchRecord:
    """One installed reconfiguration (for tests and experiment plots)."""

    epoch: int
    time: float
    added_stores: Tuple[str, ...]
    removed_stores: Tuple[str, ...]


class RewirableRuntime(TopologyRuntime):
    """A runtime whose topology can be atomically replaced mid-stream."""

    # ------------------------------------------------------------------
    # reconfiguration
    # ------------------------------------------------------------------
    def install(
        self,
        topology: Topology,
        now: float,
        epoch: int = 0,
        windows: Optional[Dict[str, float]] = None,
    ) -> SwitchRecord:
        """Replace the deployed topology, migrating live store state.

        ``now`` is the switch instant (event time) recorded on the
        :class:`SwitchRecord`; ``windows`` extends/updates the per-relation
        window map when the new plan covers relations the old one did not.
        Deferred micro-batch cascades are flushed against the *old* plan
        first, so the switch falls exactly between two pushed tuples.
        """
        self.flush()
        diff = diff_topologies(self.topology, topology)
        # Reject widening installs that would join against evicted history
        # *before* any state is mutated (windows map and per-stream high
        # waters included), so a failed install leaves the runtime exactly
        # on its old plan.
        self._check_window_growth(diff, topology, now)
        if windows:
            self.windows.update(windows)
        self.ingress.floor(self.topology.ingest, topology.ingest)
        for store_id in diff.added:
            spec = topology.stores[store_id]
            self.tasks[store_id] = [
                self._new_store_task(store_id, i, spec.retention)
                for i in range(spec.parallelism)
            ]

        # Stores surviving the switch under a different partitioning scheme
        # (or task count) must migrate their state: tuples were placed by the
        # old hash function and would be invisible to newly routed probes.
        for store_id in diff.repartitioned:
            self._repartition(topology.stores[store_id])

        # Surviving stores keep their containers; the retention horizon only
        # ever grows (checked above against evicted history).  A narrower
        # declared window keeps the incumbent horizon as *slack*: surplus
        # tuples fail the window checks anyway, so results stay exact and a
        # later re-widening still finds its history.
        preserved = 0
        for store_id in diff.surviving:
            spec = topology.stores[store_id]
            for task in self.tasks.get(store_id, []):
                preserved += task.stored_tuples()
                if spec.retention > task.retention:
                    task.retention = spec.retention

        self.topology = topology
        # recompiles the plan (and the window mode, since the relation set
        # may have changed): retired edges and rules are unreachable from
        # here on.  The plan binds no task list, so the repartitioned and
        # added stores' fresh tasks need nothing more.
        self._install_stores(topology)

        for store_id in diff.added:
            spec = topology.stores[store_id]
            if not spec.mir.is_input:
                self._backfill(spec, now)

        # Reference counting: stores no longer serving any query release
        # their state and their tasks.
        for store_id in diff.removed:
            for task in self.tasks.pop(store_id, []):
                freed = sum(t.width for t in task.container.iter_tuples())
                if freed:
                    self.metrics.on_evict(freed)

        self.metrics.on_rewire(preserved)
        record = SwitchRecord(
            epoch=epoch,
            time=now,
            added_stores=diff.added,
            removed_stores=diff.removed,
        )
        self.switches.append(record)
        return record

    def _check_window_growth(
        self, diff: TopologyDiff, topology: Topology, now: float
    ) -> None:
        """Raise :class:`WindowGrowthError` if a surviving store's declared
        retention grew past history its tasks have already evicted.

        The reference instant for "history the wider window can still
        reach" is the earliest event time a future probe may carry: ``now``
        under ordered arrivals, the global watermark under bounded
        disorder (a straggler's trigger may lag ``now`` by up to the
        bound; every recorded eviction horizon lay at or below the
        watermark at the time, so the comparison is exact).
        """
        reference = self.watermark() if self.ingress.bound is not None else now
        for store_id in diff.surviving:
            spec = topology.stores[store_id]
            for task in self.tasks.get(store_id, []):
                if (
                    spec.retention > task.retention
                    and task.evicted_through > reference - spec.retention
                ):
                    raise WindowGrowthError(
                        f"store {store_id!r} widens retention "
                        f"{task.retention:g} -> {spec.retention:g} at "
                        f"t={now:g}, but history through "
                        f"τ={task.evicted_through:g} is already evicted "
                        f"(new window needs τ >= {reference - spec.retention:g}); "
                        "results over the missing interval would be silently "
                        "incomplete — install the widest window before "
                        "eviction runs, or declare it upfront"
                    )

    def _repartition(self, spec: StoreSpec) -> None:
        """Redistribute a store's state under a new partitioning scheme.

        This is the only rewire path that *materializes* columnar state back
        into rows: tuples were placed by the old hash function, so they must
        be re-routed individually.  Surviving stores whose partitioning is
        unchanged keep their container objects — columnar arrays migrate
        across installs without any row conversion.  The fresh tasks inherit
        the eviction high-water and the incumbent retention slack.
        """
        tuples: List[StreamTuple] = []
        retention = spec.retention
        evicted_through = float("-inf")
        for task in self.tasks.get(spec.store_id, []):
            tuples.extend(task.container.iter_tuples())
            retention = max(retention, task.retention)
            evicted_through = max(evicted_through, task.evicted_through)
        tasks = self.tasks[spec.store_id] = [
            self._new_store_task(spec.store_id, i, retention)
            for i in range(spec.parallelism)
        ]
        for task in tasks:
            task.evicted_through = evicted_through
        for tup in tuples:
            tasks[self._task_for(spec, tup)].container.insert(tup)
        self.metrics.migrated_tuples += len(tuples)

    def _task_for(self, spec: StoreSpec, tup: StreamTuple) -> int:
        if spec.parallelism <= 1:
            return 0
        if spec.partition_attr is not None:
            value = tup.get(spec.partition_attr)
            if value is not None:
                return stable_hash(value) % spec.parallelism
        return stable_hash(tup.key()) % spec.parallelism

    def _backfill(self, spec: StoreSpec, now: float) -> None:
        """Seed a new MIR store from the windowed input stores.

        The paper instead keeps supplementary probe orders alive for one
        window; backfilling is the atomic-switch equivalent with identical
        result sets (docs/engine.md, "Timed simulation").  The live tuples
        are listed once per input relation and joined by
        :func:`compute_backfill` over indexes of its own, so the input
        stores gain no index and keep their contents.
        """
        streams: Dict[str, List[StreamTuple]] = {}
        for relation in spec.mir.relations:
            live: List[StreamTuple] = []
            for task in self.tasks.get(relation, []):
                live.extend(task.container.iter_tuples())
            streams[relation] = sorted(live, key=lambda t: t.latest_ts)
        intermediates = compute_backfill(spec, streams, self.windows)
        tasks = self.tasks[spec.store_id]
        for tup in intermediates:
            tasks[self._task_for(spec, tup)].container.insert(tup)
            self.metrics.on_store(tup.width)
        self.metrics.backfilled_tuples += len(intermediates)

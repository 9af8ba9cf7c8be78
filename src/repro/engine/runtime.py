"""Topology execution: the push engine behind every runtime.

Rule and routing logic follow Algorithm 3.  Input tuples are processed in
arrival order and every probe cascade runs to completion before a later
tuple's cascade can observe it.  This is *exact*: the produced result sets
equal the brute-force reference join.  Probe cost (tuples sent), messages,
and state sizes are measured; wall-clock time is whatever the host gives.
The queueing behaviour behind the paper's Figures 7b/7d/8 (service times,
network delay, a machine pool, memory overflow from queued messages) is
evaluation apparatus and lives in
:class:`repro.experiments.timed.TimedSimulator`, not here.

Hot-path design (see docs/engine.md):

* Inputs drain in micro-batches: consecutive tuples of the
  same relation share one cascade, and every inter-task hop carries a
  *batch* of tuples, so hash-index resolution and metrics bookkeeping are
  amortized across the batch.  Batching is sound because cascades
  triggered by the same relation never interact — probes only target
  stores whose lineage is disjoint from the probing tuple, stores always
  target lineage-containing stores — so no tuple of the batch can reach
  the partial results of another.  A plan switch
  (``install``) flushes the pending micro-batch first, so it always falls
  between two inputs.
* The deployed topology is compiled into a tree of hops per ingest
  relation (:class:`_Hop`) when it is deployed or replaced: each hop holds
  its edge's target store, whether it routes, and its rules with their
  equality keys (a hop's probing lineage is fixed per edge) and child
  hops.  A cascade walks that tree; nothing of the topology is looked up
  per hop.  Interleaved feeds flush groups of ~1.1 inputs, so this — not
  batching — is what keeps the per-input cost down.
* When every relation shares one window length, the pairwise window check
  collapses to an O(1) comparison of precomputed timestamp extrema.
* A probe survivor is a merged :class:`~repro.engine.tuples.StreamTuple`
  that references its two parents: no dict is copied per hop, and
  ``values`` / ``timestamps`` are built only where something reads them
  (a store insert, a subscriber; a snapshot builds them without keeping
  them).  On the vector path a survivor is not even merged until it is
  read (:class:`~repro.engine.columnar.VectorBatch`).

Out-of-order arrivals (watermark mode): setting
``RuntimeConfig.disorder_bound`` declares that event timestamps within each
input stream lag its arrival order by at most that bound.  The arrival
contract itself — order check, per-stream high waters, the watermark — is
owned by :class:`~repro.engine.ingress.Ingress` (``runtime.ingress``); the
runtime then

* evicts against the global *watermark* (min over ingest streams of high
  water − bound) instead of the current event time, so partners a late
  straggler still needs are retained until the watermark passes them,
* rejects inputs that violate the declared bound (late beyond watermark)
  instead of silently dropping results.

Neither mode filters probe candidates by arrival: the cascade order is
the visibility rule, so a stored partner may carry a later event timestamp
than the probing tuple (watermark mode) or an equal one (both modes) and
still joins.  The brute-force reference is defined purely on event
timestamps, so the differential harness proves both modes against the
same oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
    TypeVar,
    Union,
    cast,
)

from ..core.topology import EdgeSpec, StoreRule, StoreSpec, Topology
from .columnar import ColumnarContainer, VectorBatch
from .ingress import Ingress, LateArrivalError
from .metrics import EngineMetrics
from .routing import storage_task, target_tasks
from .stores import (
    HopKey,
    StoreTask,
    check_backend_name,
    orient_predicates,
    probe_batch,
)
from .tuples import StreamTuple

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .rewiring import SwitchRecord

_R = TypeVar("_R", bound="Runtime")

__all__ = [
    "LateArrivalError",
    "Runtime",
    "RuntimeConfig",
    "TopologyRuntime",
]

#: what travels along an edge: a same-lineage tuple batch, or probe
#: survivors still in vector form
_Payload = Union[Sequence[StreamTuple], VectorBatch]


def _rows(payload: _Payload) -> Sequence[StreamTuple]:
    """``payload`` as tuples (a vector batch materializes, cached)."""
    if isinstance(payload, VectorBatch):
        return payload.materialize()
    return payload


@dataclass
class RuntimeConfig:
    """Execution knobs of the engine."""

    collect_outputs: bool = True
    #: total memory budget in 'tuple units' (Σ width); None = unlimited
    memory_limit_units: Optional[float] = None
    #: run window eviction every N processed inputs
    evict_every: int = 256
    #: maximum number of consecutive same-relation inputs
    #: drained into one shared cascade (1 disables input batching)
    batch_size: int = 64
    #: tolerate out-of-order arrivals whose event timestamp
    #: lags each stream's high water by at most this bound (watermark mode);
    #: None requires timestamp-sorted inputs
    disorder_bound: Optional[float] = None
    #: container implementation behind every store task: "python" keeps the
    #: dict/hash-index :class:`~repro.engine.stores.Container`, "columnar"
    #: selects the numpy-vectorized
    #: :class:`~repro.engine.columnar.ColumnarContainer`
    store_backend: str = "python"
    #: carry probe survivors hop-to-hop as
    #: :class:`~repro.engine.columnar.VectorBatch` index arrays on columnar
    #: stores under a uniform window, materializing merged tuples only at
    #: emission and store/python-backend boundaries.  Results and
    #: ``checked``/flow metrics are exactly invariant to this flag; it only
    #: defers (and often avoids) intermediate-tuple materialization.
    vectorized_cascades: bool = True
    #: policy for inputs that violate the arrival-order contract: "raise"
    #: surfaces :class:`LateArrivalError`, "drop" discards the tuple before
    #: any state mutation and counts it in ``metrics.late_dropped`` (the
    #: dead-letter policy the session facade exposes as ``on_late``)
    on_late: str = "raise"
    #: shard the topology across this many worker processes
    #: (:class:`~repro.engine.sharding.ShardedRuntime`); 1 runs the
    #: single-process engine in this process
    workers: int = 1

    def __post_init__(self) -> None:
        check_backend_name(self.store_backend)
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.on_late not in ("raise", "drop"):
            raise ValueError(
                f"unknown late-tuple policy {self.on_late!r}; "
                f"expected 'raise' or 'drop'"
            )
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if self.workers > 1 and self.memory_limit_units is not None:
            raise ValueError(
                "memory_limit_units is a single-process budget; it does "
                "not compose with sharded execution (workers > 1)"
            )
        if self.disorder_bound is not None and self.disorder_bound < 0:
            raise ValueError("disorder_bound must be >= 0")


#: one compiled rule: (the probe's whole equality key, or ``None`` for a
#: store rule; the queries its survivors complete; the hops they continue on)
_HopRule = Tuple[Optional[HopKey], Tuple[str, ...], Tuple["_Hop", ...]]


class _Hop:
    """One edge of the compiled plan: what delivering a batch along it
    needs, resolved when the topology was deployed
    (:meth:`TopologyRuntime._compile`).

    ``rules`` follow the edge's ruleset order.  Rules that share an out
    edge share its child hop object, so their survivors join one batch.
    Task lists are not bound here — restore, repartition and rewire replace
    them — so a delivery looks its store's tasks up by ``store_id``.
    """

    __slots__ = (
        "store_id",
        "edge",
        "spec",
        "routed",
        "storage",
        "vector",
        "rules",
        "gather",
    )

    def __init__(
        self,
        edge: EdgeSpec,
        spec: StoreSpec,
        storage: bool,
        vector: bool,
        rules: Tuple[_HopRule, ...],
    ) -> None:
        self.store_id = spec.store_id
        self.edge = edge
        self.spec = spec
        #: tuples are routed per task (``parallelism > 1``)
        self.routed = spec.parallelism > 1
        #: the edge stores what it carries: an unroutable tuple goes to one
        #: task by a stable hash of the whole tuple, not to every task
        self.storage = storage
        #: probes run on the vector path and survivors stay a VectorBatch
        #: (columnar stores, a uniform window, ``vectorized_cascades``)
        self.vector = vector
        self.rules = rules
        #: child hops wait until every task and rule of this hop ran (with
        #: one task and one rule they may follow their rule at once)
        self.gather = self.routed or len(rules) > 1


class Runtime:
    """What every runtime is, whether it runs the cascades in this process
    (:class:`TopologyRuntime` and its subclasses) or fans them out to
    shard workers (:class:`~repro.engine.sharding.ShardedRuntime`).

    The shared state — deployed topology, windows, configuration, metrics,
    collected outputs, the :class:`~repro.engine.ingress.Ingress`, the
    rewire log — and the code that does not depend on where cascades run
    live here: the admission prologue of ``process``, the one ``_emit``,
    ``run`` / ``results`` / ``watermark``, and the context-manager
    protocol.  Subclasses supply ``process`` / ``flush`` / ``close`` /
    ``stored_tuples_total`` / ``dump_state`` / ``load_state``, and
    ``install`` where the topology can be replaced mid-stream.

    ``sink(query, results)``, when given, receives every emitted batch
    after it was counted and collected — how a session reaches its
    subscribers and a shard worker logs emissions for its driver.  The
    sequence may be the payload a cascade goes on with: a sink reads it
    during the call and keeps no reference to it.
    """

    def __init__(
        self,
        topology: Topology,
        windows: Dict[str, float],
        config: RuntimeConfig,
        sink: Optional[Callable[[str, Sequence[StreamTuple]], None]] = None,
    ) -> None:
        self.topology = topology
        self.windows = dict(windows)
        self.config = config
        self.metrics = EngineMetrics()
        self.outputs: Dict[str, List[StreamTuple]] = {}
        self.ingress = Ingress(config.disorder_bound)
        #: installed reconfigurations (stays empty on a runtime that
        #: deploys one topology for its lifetime)
        self.switches: List[SwitchRecord] = []
        self._sink = sink
        self._closed = False

    # ------------------------------------------------------------------
    # supplied by the subclasses
    # ------------------------------------------------------------------
    def process(self, tup: StreamTuple) -> None:
        """Admit one input tuple (:meth:`_admit`) and run or route it."""
        raise NotImplementedError

    def flush(self) -> None:
        """Run all deferred work to completion: afterwards every pushed
        tuple's results have been emitted."""
        raise NotImplementedError

    def close(self) -> None:
        """Flush and release what the runtime holds (idempotent)."""
        raise NotImplementedError

    def stored_tuples_total(self) -> int:
        raise NotImplementedError

    def install(
        self,
        topology: Topology,
        now: float,
        epoch: int = 0,
        windows: Optional[Dict[str, float]] = None,
    ) -> SwitchRecord:
        """Replace the deployed topology, migrating live store state."""
        raise NotImplementedError(
            f"{self.__class__.__name__} deploys one topology for its lifetime"
        )

    def dump_state(self) -> Dict[str, Any]:
        """Full snapshot; carries the arrival contract as ``"ingress"``."""
        raise NotImplementedError

    def load_state(self, state: Dict[str, Any]) -> None:
        """Restore a freshly constructed runtime from :meth:`dump_state`."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # shared
    # ------------------------------------------------------------------
    def run(self, inputs: Iterable[StreamTuple]) -> EngineMetrics:
        """Process input tuples in arrival order, then flush.

        Without ``disorder_bound`` the arrival order must coincide with the
        event-timestamp order (sorted inputs); in watermark mode the feed
        is consumed as the wall-clock arrival sequence and event timestamps
        may stray behind each stream's high water by up to the bound.
        """
        for tup in inputs:
            if self.metrics.failed:
                break
            self.process(tup)
        self.flush()
        return self.metrics

    def results(self, query_name: str) -> List[StreamTuple]:
        return self.outputs.get(query_name, [])

    def watermark(self) -> float:
        """Global low watermark of the deployed topology's ingest streams
        (:meth:`~repro.engine.ingress.Ingress.watermark`)."""
        return self.ingress.watermark(self.topology.ingest)

    def _admit(self, tup: StreamTuple) -> bool:
        """The admission prologue of every ``process``: ``False`` means
        the tuple must not be processed.

        A failed runtime ignores further pushes (stop-at-failure; inspect
        ``metrics.failed`` / ``metrics.failure_reason``).  A tuple the
        ingress rejects surfaces :class:`LateArrivalError`, or under
        ``on_late="drop"`` is counted in ``metrics.late_dropped`` and
        discarded — the rejection precedes any state mutation, so the
        engine is left exactly as if the tuple never arrived (it is not
        counted in ``inputs_ingested``).
        """
        if self.metrics.failed:
            return False
        try:
            self.ingress.admit(tup)
        except LateArrivalError:
            if self.config.on_late == "drop":
                self.metrics.late_dropped += 1
                return False
            raise
        return True

    def _emit(self, query: str, results: Sequence[StreamTuple]) -> None:
        """Count, collect and deliver a batch of ``query``'s results, in
        order (``results`` is copied into ``outputs``, never kept)."""
        self.metrics.on_result(query, len(results))
        if self.config.collect_outputs:
            collected = self.outputs.get(query)
            if collected is None:
                collected = self.outputs[query] = []
            collected.extend(results)
        if self._sink is not None:
            self._sink(query, results)

    def __enter__(self: _R) -> _R:
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


class TopologyRuntime(Runtime):
    """Deploys a topology and pushes input streams through it."""

    def __init__(
        self,
        topology: Topology,
        windows: Dict[str, float],
        config: Optional[RuntimeConfig] = None,
        sink: Optional[Callable[[str, Sequence[StreamTuple]], None]] = None,
    ) -> None:
        super().__init__(topology, windows, config or RuntimeConfig(), sink)
        if self.config.workers > 1:
            raise ValueError(
                "workers > 1 needs the sharded driver: construct a "
                "repro.engine.sharding.ShardedRuntime (or pass workers= to "
                "JoinSession) instead of a TopologyRuntime"
            )
        self.tasks: Dict[str, List[StoreTask]] = {}
        self._ops_since_evict = 0
        self._uniform_window: Optional[float] = None
        #: the compiled plan: ingest relation -> the hops its inputs take
        self._plan: Dict[str, Tuple[_Hop, ...]] = {}
        # Push-driver state: the pending same-relation micro-batch.
        self._group: List[StreamTuple] = []
        self._group_rel: Optional[str] = None
        self._install_stores(topology)

    # ------------------------------------------------------------------
    # deployment
    # ------------------------------------------------------------------
    def _new_store_task(
        self, store_id: str, task_index: int, retention: float
    ) -> StoreTask:
        """Construct a task of the configured backend (single construction
        seam for deployment, rewire, and repartition)."""
        return StoreTask(
            store_id=store_id,
            task_index=task_index,
            retention=retention,
            backend=self.config.store_backend,
        )

    def _install_stores(self, topology: Topology) -> None:
        """Deploy ``topology`` (already ``self.topology``): tasks for the
        stores that have none yet, then the window mode and the plan."""
        for store_id, spec in topology.stores.items():
            if store_id not in self.tasks:
                self.tasks[store_id] = [
                    self._new_store_task(store_id, i, spec.retention)
                    for i in range(spec.parallelism)
                ]
        # the relation set (and thus window uniformity) may have changed
        self._uniform_window = self._compute_uniform_window()
        self._plan = self._compile(topology)

    def _compile(self, topology: Topology) -> Dict[str, Tuple[_Hop, ...]]:
        """The hop tree of every ingest relation (see :class:`_Hop`).

        A hop's probing lineage is fixed: an ingest edge carries its
        relation, and a probe's survivors add the probed store's relations.
        """
        vector = (
            self.config.vectorized_cascades
            and self._uniform_window is not None
            and self.config.store_backend == "columnar"
        )

        def hop(label: str, lineage: FrozenSet[str]) -> _Hop:
            edge = topology.edges[label]
            spec = topology.stores[edge.target_store]
            out_lineage = lineage | spec.mir.relations
            children: Dict[str, _Hop] = {}
            rules: List[_HopRule] = []
            storage = False
            for rule in topology.rules_for(edge.target_store, label):
                if isinstance(rule, StoreRule):
                    storage = True
                    rules.append((None, (), ()))
                    continue
                targets: List[_Hop] = []
                for out_label in rule.out_edges:
                    child = children.get(out_label)
                    if child is None:
                        child = children[out_label] = hop(out_label, out_lineage)
                    targets.append(child)
                key = orient_predicates(rule.predicates, lineage)
                rules.append((key, rule.outputs, tuple(targets)))
            return _Hop(edge, spec, storage, vector, tuple(rules))

        return {
            relation: tuple(hop(label, frozenset((relation,))) for label in labels)
            for relation, labels in topology.ingest.items()
        }

    def _compute_uniform_window(self) -> Optional[float]:
        """The shared window length, or ``None`` if windows differ.

        Only relations the topology can ever see matter; a uniform window
        enables the O(1) pairwise check of
        :meth:`~repro.engine.tuples.StreamTuple.within_uniform_window`.
        """
        relations = set(self.topology.ingest)
        for query in self.topology.queries.values():
            relations |= query.relation_set
        for spec in self.topology.stores.values():
            relations |= set(spec.mir.relations)
        if not relations:
            return None
        if not all(rel in self.windows for rel in relations):
            return None
        lengths = {self.windows[rel] for rel in relations}
        if len(lengths) == 1:
            return lengths.pop()
        return None

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def stored_tuples_total(self) -> int:
        return sum(
            task.stored_tuples() for tasks in self.tasks.values() for task in tasks
        )

    def close(self) -> None:
        """Flush deferred work and mark the runtime closed (idempotent).

        The single-process runtime holds no external resources, but the
        session facade and the service shutdown path treat every runtime
        uniformly — ``flush(); close()`` — so this mirrors
        :meth:`~repro.engine.sharding.ShardedRuntime.close` (which *does*
        terminate a worker pool).  Safe to call any number of times.
        """
        if self._closed:
            return
        self._closed = True
        if not self.metrics.failed:
            self.flush()

    # ------------------------------------------------------------------
    # checkpoint/restore
    # ------------------------------------------------------------------
    def dump_tasks(self) -> Dict[str, List[Dict[str, Any]]]:
        """Structural snapshot of every store task (per store id)."""
        return {
            store_id: [task.dump_state() for task in tasks]
            for store_id, tasks in self.tasks.items()
        }

    def load_tasks(self, state: Dict[str, List[Dict[str, Any]]]) -> int:
        """Replace all store tasks from a :meth:`dump_tasks` snapshot.

        Returns the number of live stored tuples reloaded (the caller
        records it through :meth:`EngineMetrics.on_restore`).
        """
        self.tasks = {
            store_id: [StoreTask.from_state(t) for t in task_states]
            for store_id, task_states in state.items()
        }
        return self.stored_tuples_total()

    def dump_state(self) -> Dict[str, Any]:
        """Full runtime snapshot: store state, the push-driver counters and
        the rewire log.

        Deferred micro-batches are flushed first, so the snapshot contains
        no half-processed cascades; the snapshot shares the live metrics
        object and tuple references by design — callers serialize it (one
        pickle preserves the cross-references) before processing resumes.
        """
        self.flush()
        return {
            "kind": "single",
            "tasks": self.dump_tasks(),
            "ingress": self.ingress.dump(),
            "ops_since_evict": self._ops_since_evict,
            "outputs": {q: list(r) for q, r in self.outputs.items()},
            "metrics": self.metrics,
            "switches": list(self.switches),
        }

    def load_state(self, state: Dict[str, Any]) -> None:
        """Restore a freshly constructed runtime from :meth:`dump_state`.

        The runtime must have been built with the *same* topology, windows,
        and configuration the snapshot was taken under; counters, eviction
        cadence, and store structure resume exactly, so the continuation is
        bit-for-bit identical to an uninterrupted run.
        """
        if state.get("kind") != "single":
            raise ValueError(
                f"snapshot kind {state.get('kind')!r} does not fit a "
                "single-process runtime"
            )
        self.metrics = state["metrics"]
        restored = self.load_tasks(state["tasks"])
        self.ingress.load(state["ingress"])
        self._ops_since_evict = int(state["ops_since_evict"])
        self.outputs = {q: list(r) for q, r in state["outputs"].items()}
        self.switches = list(state["switches"])
        self.metrics.on_restore(restored)

    # ------------------------------------------------------------------
    # push driver
    # ------------------------------------------------------------------
    def process(self, tup: StreamTuple) -> None:
        """Push one input tuple through the pipeline.

        This is the incremental entry point behind :meth:`run` and the
        :class:`~repro.session.JoinSession` facade: admission (arrival-order
        validation, :meth:`Runtime._admit`) and micro-batch accumulation
        happen here.  A cascade may be *deferred* until the pending
        same-relation micro-batch flushes (relation change, full batch, or
        an explicit :meth:`flush`), which never changes result sets — only
        when they materialize.
        """
        if self._admit(tup):
            self._accept(tup)

    def _accept(self, tup: StreamTuple) -> None:
        """Batch or run an admitted tuple (the half of :meth:`process` a
        subclass wraps when it acts between admission and delivery)."""
        ts = tup.trigger_ts
        if self.config.memory_limit_units is None:
            if self._group and (
                tup.trigger != self._group_rel
                or len(self._group) >= self.config.batch_size
            ):
                self.flush()
            self.metrics.on_input(ts)
            self._group_rel = tup.trigger
            self._group.append(tup)
        else:
            # A memory budget is checked after every input: deferring the
            # cascade would overshoot the failure point by up to a batch.
            self.metrics.on_input(ts)
            self._maybe_evict(ts)
            for hop in self._plan.get(tup.trigger, ()):
                self._deliver(hop, (tup,))
            self._check_memory()

    def flush(self) -> None:
        """Run any deferred micro-batch cascade to completion.

        After this returns, every pushed tuple's results have been emitted;
        the session facade flushes before reads, verification, and rewires.
        """
        if self._group and not self.metrics.failed:
            group, relation = self._group, self._group_rel
            self._group, self._group_rel = [], None
            self._flush_group(relation, group)

    def _flush_group(self, relation: str, group: List[StreamTuple]) -> None:
        """Run the shared cascade of consecutive same-relation inputs.

        Eviction runs *after* the group (never between a pending input and
        its cascade), so the horizon can only lag the seed's per-tuple
        cadence — which is safe: lagging eviction keeps extra tuples whose
        window checks fail anyway.
        """
        now = group[-1].trigger_ts
        for hop in self._plan.get(relation, ()):
            self._deliver(hop, group)
        self._maybe_evict(now, ops=len(group))
        self._check_memory()

    def _deliver(self, hop: _Hop, payload: _Payload) -> None:
        """Deliver a batch of same-lineage tuples along one compiled edge,
        then along every edge its survivors continue on.

        ``payload`` is a tuple sequence or a
        :class:`~repro.engine.columnar.VectorBatch` of unmaterialized probe
        survivors.  Vector form stays only into a vector probe of an
        unrouted hop; per-tuple routing, storage, python-backend probes and
        emission materialize — with identical results, order, and metrics
        either way.  Order: tasks in first-routed order, then rules in
        ruleset order, one emission per rule and output query (its
        survivors in probe order), child hops last in the order their
        first survivors appeared.
        """
        # the counters of on_send / on_store / on_probe_batch are added
        # inline: this loop runs ~4 times per input
        metrics = self.metrics
        tasks = self.tasks[hop.store_id]
        batches: Iterable[Tuple[int, _Payload]]
        if hop.routed:
            batches = self._route(hop, payload)
        else:
            sent = len(payload)
            metrics.messages_sent += sent
            metrics.tuples_sent += sent
            batches = ((0, payload),)

        outs: Optional[Dict[_Hop, _Payload]] = None
        gather = hop.gather
        vector = hop.vector
        for task_index, batch in batches:
            container = tasks[task_index].container
            for key, outputs, children in hop.rules:
                if key is None:
                    width = 0
                    for tup in _rows(batch):
                        container.insert(tup)
                        width += tup.width
                    stored = metrics.stored_units + width
                    metrics.stored_units = stored
                    if stored > metrics.peak_stored_units:
                        metrics.peak_stored_units = stored
                    continue
                matches: Optional[_Payload]
                if vector:
                    matches, checked = cast(
                        ColumnarContainer, container
                    ).probe_batch_vector(
                        batch
                        if isinstance(batch, VectorBatch)
                        else VectorBatch.from_tuples(batch),
                        key,
                        cast(float, self._uniform_window),
                    )
                else:
                    matches, checked = probe_batch(
                        container,
                        _rows(batch),
                        key,
                        self.windows,
                        self._uniform_window,
                    )
                metrics.probes_executed += len(batch)
                metrics.comparisons += checked
                if not matches:
                    continue
                if outputs:
                    emitted = _rows(matches)
                    for query in outputs:
                        self._emit(query, emitted)
                if not gather:
                    # the hop's only task and rule: nothing runs between
                    # this rule and its children
                    for child in children:
                        self._deliver(child, matches)
                    continue
                if outs is None:
                    outs = {}
                for child in children:
                    pending = outs.get(child)
                    # survivors of two sources (rules or tasks) sharing an
                    # out edge join one materialized batch
                    outs[child] = (
                        matches
                        if pending is None
                        else [*_rows(pending), *_rows(matches)]
                    )
        if outs is not None:
            for child, batch in outs.items():
                self._deliver(child, batch)

    def _route(
        self, hop: _Hop, payload: _Payload
    ) -> Iterable[Tuple[int, List[StreamTuple]]]:
        """Split a routed hop's payload per target task, tasks in the
        order they are first routed to (a broadcast counts once per task)."""
        edge, spec = hop.edge, hop.spec
        per_task: Dict[int, List[StreamTuple]] = {}
        fanout = 0
        for tup in _rows(payload):
            targets = target_tasks(edge, spec, tup)
            if len(targets) > 1 and hop.storage:
                targets = [storage_task(spec, tup, edge.route_by)]
            fanout += len(targets)
            for task_index in targets:
                bucket = per_task.get(task_index)
                if bucket is None:
                    per_task[task_index] = [tup]
                else:
                    bucket.append(tup)
        self.metrics.on_send(fanout)
        return per_task.items()

    # ------------------------------------------------------------------
    # housekeeping
    # ------------------------------------------------------------------
    def _maybe_evict(self, now: float, ops: int = 1) -> None:
        self._ops_since_evict += ops
        if self._ops_since_evict < self.config.evict_every:
            return
        self._ops_since_evict = 0
        if self.ingress.bound is not None:
            # Watermark mode: the current input's event time may lie ahead
            # of a straggler still to come; evict against the watermark,
            # which every future arrival's timestamps are guaranteed to
            # dominate.
            now = self.watermark()
            if now == float("-inf"):
                return
        for tasks in self.tasks.values():
            for task in tasks:
                freed = task.evict(now)
                if freed:
                    self.metrics.on_evict(freed)

    def _check_memory(self) -> None:
        limit = self.config.memory_limit_units
        if limit is None:
            return
        usage = self.metrics.stored_units
        if usage > limit:
            self.metrics.on_failure(
                f"memory overflow: {usage:.0f} units > limit {limit:.0f}"
            )

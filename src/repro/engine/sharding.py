"""Sharded multi-core execution: hash-partitioned worker processes.

The single-process engine executes one tuple cascade at a time; this module
runs the *same* cascade machinery on every core by hash-partitioning the
input streams across a pool of worker processes, each owning one shard of
every store in the shared topology (see docs/engine.md, "Sharded
execution").

Partitioning model
------------------
:class:`ShardRouter` picks one equivalence class of join attributes (the
transitive closure of the topology's equality predicates) as the *partition
class*.  Relations binding an attribute of the class are hash-partitioned
by that attribute's value; all other relations are *broadcast* — fully
replicated on every shard — so predicates that do not bind the partition
key stay exact.  A per-query/per-MIR safety fixpoint demotes relations to
broadcast whenever a query (or stored intermediate) contains two
partitioned relations that its *own* predicates do not chain together
through the class: only predicate chains applied inside a unit guarantee
equal routing values, i.e. co-location of join partners.  This invariant
makes sharding exact:

* partitioned relations are disjoint across shards, broadcast relations are
  replicated, so every cascade finds all of its candidates locally;
* a join result containing at least one partitioned component materializes
  in exactly one shard (all its partitioned components hash to the same
  shard); results with all-broadcast lineage materialize identically on
  every shard and are attributed to shard 0 (other shards suppress the
  emission — the cascade itself still runs, feeding replicated MIR stores).

Driver/worker split
-------------------
:class:`ShardedRuntime` is the driver.  Its
:class:`~repro.engine.ingress.Ingress` owns global arrival order: arrival
validation (ordered or watermark contract, honouring
``RuntimeConfig.on_late``), arrival-sequence assignment, and the
authoritative per-stream high waters.  Tuples are fanned out in batches
over ``multiprocessing`` pipes together with a high-water snapshot; workers
max-merge the snapshot *after* processing the batch (never before — an
early snapshot could advance the eviction watermark past a tuple still in
the batch), so worker-local eviction horizons only ever lag the globally
safe watermark.  On ``flush`` the driver drains every worker and merges
their emission logs deterministically, ordered by ``(result seq, shard,
local order)``, so outputs are reproducible run over run and exactly equal
to the single-process result sets.

Rewires reuse the sticky router: while the routing of surviving relations
is unchanged (the common case — the partition class is kept if it still
exists), ``install`` is broadcast and each worker rewires its shard locally
(backfill from co-located state is exact under the invariant above).  When
the partition class changes, the driver drains and dumps all shard state,
dedupes broadcast replicas, backfills new MIR stores centrally
(:func:`~repro.engine.rewiring.compute_backfill`), and re-routes everything
under the new router.

Failure semantics: a dead or wedged worker surfaces a typed
:class:`ShardFailedError` on the next interaction (no hang — receives are
bounded by ``sync_timeout`` and liveness checks), the runtime marks itself
failed and terminates the pool, and no partial results are merged for the
failed sync.  ``REPRO_SHARD_TEST_HOOKS=1`` arms a crash-on-Nth-tuple hook
used by the fault-injection tests.
"""

from __future__ import annotations

import multiprocessing
import os
import time
import traceback
import weakref
from dataclasses import replace
from itertools import groupby
from multiprocessing.connection import Connection
from multiprocessing.context import BaseContext
from operator import itemgetter
from typing import (
    Any,
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    List,
    NoReturn,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

from ..core.adaptive import TopologyDiff, diff_topologies
from ..core.predicates import JoinPredicate
from ..core.schema import Attribute
from ..core.topology import Topology
from .rewiring import RewirableRuntime, SwitchRecord, compute_backfill
from .routing import stable_hash, storage_task
from .runtime import Runtime, RuntimeConfig
from .statistics import EpochStatistics
from .tuples import StreamTuple

#: driver <-> worker protocol message: ("batch", ...), ("drain",),
#: ("dump",), ("error", traceback), ... — a command tag plus payload
_Msg = Tuple[Any, ...]

__all__ = ["ShardFailedError", "ShardRouter", "ShardedRuntime"]

#: environment gate for the crash-on-Nth-tuple fault-injection hook
TEST_HOOK_ENV = "REPRO_SHARD_TEST_HOOKS"

#: worker metric counters folded into the driver's aggregate: pure flow
#: counters are summed across shards (and accumulated across worker resets);
#: stored_units/peak_stored_units are levels read live from the workers.
#: Driver-owned counters (inputs, results, late_dropped, rewires, ...) are
#: never folded — workers count their local view, the driver the global one.
_FLOW_FIELDS = (
    "messages_sent",
    "tuples_sent",
    "probes_executed",
    "comparisons",
    "migrated_tuples",
)


class ShardFailedError(RuntimeError):
    """A shard worker died or stopped responding.

    Raised by the sharded driver on the interaction that detected the
    failure; the runtime is marked failed (``metrics.failed``), the worker
    pool is terminated, and no partial results of the failed sync are
    merged.  Sessions surface this directly from ``push``/reads and reject
    every later push with :class:`~repro.session.EngineFailedError`.
    """


# ----------------------------------------------------------------------
# routing
# ----------------------------------------------------------------------
class ShardRouter:
    """key → shard routing for one topology.

    ``route_attrs`` maps each *partitioned* relation to the qualified
    attribute whose value is hashed; relations absent from it are broadcast
    to every shard.  Stored intermediates route by the partitioned relation
    in their lineage (all partitioned components of one tuple agree on the
    routing value by construction — see the module docstring).
    """

    def __init__(
        self,
        num_shards: int,
        partition_class: FrozenSet[Attribute],
        route_attrs: Dict[str, str],
        relations: FrozenSet[str],
    ) -> None:
        if num_shards < 1:
            raise ValueError("num_shards must be >= 1")
        self.num_shards = num_shards
        self.partition_class = frozenset(partition_class)
        self.route_attrs = dict(route_attrs)
        self.partitioned: FrozenSet[str] = frozenset(route_attrs)
        self.broadcast: FrozenSet[str] = frozenset(relations) - self.partitioned

    # ------------------------------------------------------------------
    @classmethod
    def from_topology(
        cls,
        topology: Topology,
        num_shards: int,
        prefer_class: Optional[FrozenSet[str]] = None,
    ) -> "ShardRouter":
        """Choose the partition class and the partitioned relation set.

        Candidates are the equivalence classes of the global equality graph;
        each is scored by how many relations survive the per-unit safety
        fixpoint, and the largest partitioned set wins (deterministic
        tie-break on the sorted attribute names).  ``prefer_class`` — the
        previous router's class, as qualified-name strings — wins whenever
        it still exists and still partitions something, which keeps routing
        stable across rewires.
        """
        relations = set(topology.ingest)
        predicates = set()
        units: List[Tuple[FrozenSet[str], Tuple[JoinPredicate, ...]]] = []
        for query in topology.queries.values():
            relations |= set(query.relation_set)
            predicates |= set(query.predicates)
            units.append((frozenset(query.relation_set), tuple(query.predicates)))
        for spec in topology.stores.values():
            relations |= set(spec.mir.relations)
            if len(spec.mir.relations) > 1:
                units.append(
                    (frozenset(spec.mir.relations), tuple(spec.mir.predicates))
                )

        # attribute equivalence classes under the global equality graph
        parent: Dict[Attribute, Attribute] = {}

        def find(attr: Attribute) -> Attribute:
            root = attr
            while parent.get(root, root) != root:
                root = parent[root]
            while parent.get(attr, attr) != root:
                parent[attr], attr = root, parent[attr]
            return root

        for pred in predicates:
            a, b = find(pred.left), find(pred.right)
            if a != b:
                parent[max(a, b)] = min(a, b)
        classes: Dict[Attribute, Set[Attribute]] = {}
        for pred in predicates:
            for attr in (pred.left, pred.right):
                classes.setdefault(find(attr), set()).add(attr)

        candidates = sorted(
            (frozenset(members) for members in classes.values()),
            key=lambda c: tuple(sorted(c)),
        )
        best: Optional[ShardRouter] = None
        preferred: Optional[ShardRouter] = None
        for class_attrs in candidates:
            route = cls._routing_for(class_attrs, units)
            router = cls(num_shards, class_attrs, route, frozenset(relations))
            if prefer_class is not None and router.class_key == prefer_class:
                preferred = router
            if best is None or len(router.partitioned) > len(best.partitioned):
                best = router
        if preferred is not None and preferred.partitioned:
            return preferred
        if best is not None and best.partitioned:
            return best
        # no usable equality class: everything broadcast (still exact —
        # shard 0 owns every emission)
        return cls(num_shards, frozenset(), {}, frozenset(relations))

    @staticmethod
    def _routing_for(
        class_attrs: FrozenSet[Attribute],
        units: Sequence[Tuple[FrozenSet[str], Tuple[JoinPredicate, ...]]],
    ) -> Dict[str, str]:
        """Partitioned relations (and routing attrs) safe for one class.

        A relation routes by its smallest class attribute.  Within every
        query and every stored MIR, the partitioned relations present must
        form one connected component under *supporting* predicates — unit
        predicates equating exactly the two routing attributes, the only
        equalities that guarantee equal routing values in every joined
        tuple.  Violating relations are demoted to broadcast (smallest
        component first, deterministic) until a fixpoint is reached.
        """
        route: Dict[str, Attribute] = {}
        for attr in sorted(class_attrs):
            route.setdefault(attr.relation, attr)
        part = set(route)
        changed = True
        while changed:
            changed = False
            for unit_relations, unit_predicates in units:
                live = part & unit_relations
                if len(live) < 2:
                    continue
                adjacency = {rel: set() for rel in live}
                for pred in unit_predicates:
                    ra, rb = pred.left.relation, pred.right.relation
                    if (
                        ra in live
                        and rb in live
                        and route.get(ra) == pred.left
                        and route.get(rb) == pred.right
                    ):
                        adjacency[ra].add(rb)
                        adjacency[rb].add(ra)
                components = _components(live, adjacency)
                if len(components) > 1:
                    keep = sorted(
                        components, key=lambda c: (-len(c), tuple(sorted(c)))
                    )[0]
                    for rel in live - keep:
                        part.discard(rel)
                    changed = True
        return {rel: str(route[rel]) for rel in sorted(part)}

    # ------------------------------------------------------------------
    @property
    def class_key(self) -> FrozenSet[str]:
        """The partition class as qualified-name strings (sticky-rewire key)."""
        return frozenset(str(attr) for attr in self.partition_class)

    @property
    def metrics_exact(self) -> bool:
        """True when no relation is broadcast: every flow counter of the
        sharded run sums exactly to the single-process value.  Broadcast
        replication inflates sends/stores, and partitioned probes through a
        non-routing index may scan *fewer* candidates than the global
        bucket, so parity of comparison counts is only guaranteed here."""
        return not self.broadcast

    def shard_of(self, tup: StreamTuple) -> Optional[int]:
        """Owning shard of a tuple, or ``None`` for broadcast-to-all."""
        lineage = tup.lineage
        if len(lineage) == 1:
            attr = self.route_attrs.get(tup.trigger)
        else:
            attr = None
            for rel in sorted(lineage):
                candidate = self.route_attrs.get(rel)
                if candidate is not None:
                    attr = candidate
                    break
        if attr is None:
            return None
        return stable_hash(tup.values.get(attr)) % self.num_shards

    def shards_for(self, tup: StreamTuple) -> Tuple[int, ...]:
        shard = self.shard_of(tup)
        if shard is None:
            return tuple(range(self.num_shards))
        return (shard,)

    def stable_over(self, old: "ShardRouter") -> bool:
        """True iff every relation both routers know keeps its routing —
        the condition for the in-place (per-worker) rewire fast path."""
        if self.num_shards != old.num_shards:
            return False
        shared = (self.partitioned | self.broadcast) & (
            old.partitioned | old.broadcast
        )
        return all(
            self.route_attrs.get(rel) == old.route_attrs.get(rel)
            for rel in shared
        )

    def describe(self) -> str:
        key = ", ".join(sorted(str(a) for a in self.partition_class)) or "-"
        return (
            f"ShardRouter({self.num_shards} shards, class [{key}], "
            f"partitioned {sorted(self.partitioned)}, "
            f"broadcast {sorted(self.broadcast)})"
        )

    __repr__ = describe


def _components(
    nodes: Iterable[str], adjacency: Dict[str, Set[str]]
) -> List[FrozenSet[str]]:
    seen: Set[str] = set()
    out: List[FrozenSet[str]] = []
    for node in sorted(nodes):
        if node in seen:
            continue
        stack, comp = [node], set()
        while stack:
            cur = stack.pop()
            if cur in comp:
                continue
            comp.add(cur)
            stack.extend(adjacency.get(cur, ()) - comp)
        seen |= comp
        out.append(frozenset(comp))
    return out


# ----------------------------------------------------------------------
# worker side
# ----------------------------------------------------------------------
class _SimulatedCrash(RuntimeError):
    """Inline-transport stand-in for a worker process dying mid-batch."""


class _WorkerState:
    """Command handler shared by the process worker and inline transport."""

    def __init__(
        self,
        shard: int,
        router: ShardRouter,
        topology: Topology,
        windows: Dict[str, float],
        config: RuntimeConfig,
        inline: bool = False,
        collect_stats: bool = False,
    ) -> None:
        self.shard = shard
        self.router = router
        self.config = config
        self.inline = inline
        self.collect_stats = collect_stats
        #: inputs observed shard-side since the last drain (adaptivity
        #: fold-back); partitioned relations are observed wherever they
        #: land (exactly one shard), broadcast relations only on shard 0,
        #: so globally every accepted input is observed exactly once
        self.stats = EpochStatistics(epoch=0)
        self._crash_countdown: Optional[int] = None
        #: (query, result) in local completion order, merged by the driver
        self.emission_log: List[Tuple[str, StreamTuple]] = []
        self.runtime: RewirableRuntime
        self._build(topology, windows, {}, {})

    def _build(
        self,
        topology: Topology,
        windows: Dict[str, float],
        highs: Dict[str, float],
        state: Dict[str, List[StreamTuple]],
    ) -> None:
        self.runtime = RewirableRuntime(
            topology, windows, self.config, sink=self._log_emission
        )
        runtime = self.runtime
        runtime.ingress.absorb(highs)
        width = 0
        for store_id, tuples in state.items():
            spec = topology.stores[store_id]
            tasks = runtime.tasks[store_id]
            for tup in tuples:
                index = storage_task(spec, tup, spec.partition_attr)
                tasks[index].container.insert(tup)
                width += tup.width
        # migrated-in state is a level, not flow: track stored units without
        # inflating the flow counters the driver folds
        runtime.metrics.stored_units = width
        runtime.metrics.peak_stored_units = width

    def _log_emission(self, query: str, results: Sequence[StreamTuple]) -> None:
        """The worker runtime's sink: log what the driver will merge.

        All-broadcast results materialize identically on every shard;
        shard 0 owns their emission (the cascade itself still ran here —
        replicated MIR stores stay complete).  The runtime has already
        counted a suppressed result in its own ``results_emitted``, which
        is harmless: the driver never folds that counter (``_FLOW_FIELDS``)
        and counts results itself as it merges the logs.
        """
        if self.shard:
            partitioned = self.router.partitioned
            results = [result for result in results if result.lineage & partitioned]
        self.emission_log.extend([(query, result) for result in results])

    # ------------------------------------------------------------------
    def handle(self, msg: _Msg) -> Optional[_Msg]:
        cmd = msg[0]
        if cmd == "batch":
            _, tuples, highs = msg
            runtime = self.runtime
            collect = self.collect_stats
            partitioned = self.router.partitioned
            for tup in tuples:
                if self._crash_countdown is not None:
                    self._crash_countdown -= 1
                    if self._crash_countdown <= 0:
                        if self.inline:
                            raise _SimulatedCrash(
                                f"injected crash on shard {self.shard}"
                            )
                        os._exit(3)
                runtime.process(tup)
                if collect and (tup.trigger in partitioned or self.shard == 0):
                    self.stats.observe(tup)
            # apply the driver's high-water snapshot only after the batch:
            # every tuple shipped later was validated against highs at least
            # this recent, so the advanced eviction watermark stays safe
            if highs:
                runtime.ingress.absorb(highs)
            return None
        if cmd == "drain":
            _, highs = msg
            runtime = self.runtime
            runtime.flush()
            if highs:
                runtime.ingress.absorb(highs)
            log, self.emission_log = self.emission_log, []
            metrics = runtime.metrics
            flow = {name: getattr(metrics, name) for name in _FLOW_FIELDS}
            flow["stored_units"] = metrics.stored_units
            flow["peak_stored_units"] = metrics.peak_stored_units
            delta = None
            if self.collect_stats:
                delta, self.stats = self.stats, EpochStatistics(epoch=0)
            return ("drained", log, flow, runtime.stored_tuples_total(), delta)
        if cmd == "install":
            _, topology, windows, now, router = msg
            # the sticky router is stable for surviving relations, but a new
            # plan may introduce relations whose routing (and therefore
            # emission attribution + stats dedup) only the fresh router knows
            self.router = router
            metrics = self.runtime.metrics
            pre_preserved = metrics.preserved_tuples
            pre_backfilled = metrics.backfilled_tuples
            self.runtime.install(topology, now=now, windows=windows)
            return (
                "installed",
                metrics.preserved_tuples - pre_preserved,
                metrics.backfilled_tuples - pre_backfilled,
            )
        if cmd == "dump":
            runtime = self.runtime
            runtime.flush()
            state: Dict[str, List[StreamTuple]] = {}
            for store_id, tasks in runtime.tasks.items():
                tuples: List[StreamTuple] = []
                for task in tasks:
                    tuples.extend(task.container.iter_tuples())
                state[store_id] = tuples
            return ("state", state)
        if cmd == "reset":
            _, topology, windows, highs, state, router = msg
            # a reshard changed the partition class: without the new router
            # the worker would attribute emissions (and observe stats) by
            # the retired partitioned set
            self.router = router
            self._build(topology, windows, highs, state)
            return ("reset",)
        if cmd == "snapshot":
            # structural per-task dump (checkpoint): unlike "dump", store
            # *structure* (buckets, hash-index candidate order, columnar
            # code tables) and the push-driver counters survive, so a
            # restored worker continues bit-for-bit
            runtime = self.runtime
            runtime.flush()
            return (
                "snapshot",
                {
                    "tasks": runtime.dump_tasks(),
                    "ingress": runtime.ingress.dump(),
                    "ops_since_evict": runtime._ops_since_evict,
                    "stored_units": runtime.metrics.stored_units,
                    "peak_stored_units": runtime.metrics.peak_stored_units,
                },
            )
        if cmd == "restore":
            _, topology, windows, shard_state, router = msg
            self.router = router
            self.stats = EpochStatistics(epoch=0)
            runtime = RewirableRuntime(
                topology, windows, self.config, sink=self._log_emission
            )
            restored = runtime.load_tasks(shard_state["tasks"])
            runtime.ingress.load(shard_state["ingress"])
            runtime._ops_since_evict = int(shard_state["ops_since_evict"])
            # restored stored state is a level, not flow (same convention
            # as _build's migration accounting); flow counters restart at
            # zero and the driver banks the checkpoint totals
            runtime.metrics.stored_units = shard_state["stored_units"]
            runtime.metrics.peak_stored_units = shard_state["peak_stored_units"]
            self.runtime = runtime
            return ("restored", restored)
        if cmd == "crash_after":
            if os.environ.get(TEST_HOOK_ENV) != "1":
                raise RuntimeError(
                    f"crash_after is a fault-injection hook; set "
                    f"{TEST_HOOK_ENV}=1 to arm it"
                )
            self._crash_countdown = int(msg[1])
            return ("armed",)
        raise RuntimeError(f"unknown shard command {cmd!r}")


def _shard_worker_main(
    conn: Connection,
    shard: int,
    router: ShardRouter,
    topology: Topology,
    windows: Dict[str, float],
    config: RuntimeConfig,
    collect_stats: bool = False,
) -> None:
    """Process entry point: a recv/handle/reply loop over one pipe."""
    try:
        state = _WorkerState(
            shard, router, topology, windows, config,
            collect_stats=collect_stats,
        )
        while True:
            try:
                msg = conn.recv()
            except EOFError:
                break
            if msg[0] == "stop":
                conn.send(("bye",))
                break
            try:
                reply = state.handle(msg)
            except Exception:
                # surface the traceback instead of dying silently; the
                # driver turns this into a ShardFailedError
                try:
                    conn.send(("error", traceback.format_exc()))
                finally:
                    break
            if reply is not None:
                conn.send(reply)
    finally:
        try:
            conn.close()
        except OSError:
            pass


# ----------------------------------------------------------------------
# transports
# ----------------------------------------------------------------------
class _InlineShard:
    """In-process transport: same protocol, no pipes (tests, debugging)."""

    def __init__(
        self,
        shard: int,
        router: ShardRouter,
        topology: Topology,
        windows: Dict[str, float],
        config: RuntimeConfig,
        collect_stats: bool = False,
    ) -> None:
        self._state = _WorkerState(
            shard, router, topology, windows, config, inline=True,
            collect_stats=collect_stats,
        )
        self._reply: Optional[_Msg] = None

    def send(self, msg: _Msg) -> None:
        if msg[0] == "stop":
            self._reply = ("bye",)
            return
        try:
            self._reply = self._state.handle(msg)
        except _SimulatedCrash as exc:
            raise BrokenPipeError(str(exc)) from exc

    def recv(self, timeout: float) -> _Msg:
        reply, self._reply = self._reply, None
        if reply is None:
            raise EOFError("no pending reply")
        return reply

    def alive(self) -> bool:
        return True

    def terminate(self) -> None:
        pass


class _ProcessShard:
    """One worker process plus its duplex pipe."""

    def __init__(
        self,
        ctx: BaseContext,
        shard: int,
        router: ShardRouter,
        topology: Topology,
        windows: Dict[str, float],
        config: RuntimeConfig,
        collect_stats: bool = False,
    ) -> None:
        parent_conn, child_conn = ctx.Pipe()
        self.conn = parent_conn
        self.proc = ctx.Process(
            target=_shard_worker_main,
            args=(
                child_conn, shard, router, topology, windows, config,
                collect_stats,
            ),
            daemon=True,
            name=f"repro-shard-{shard}",
        )
        self.proc.start()
        child_conn.close()

    def send(self, msg: _Msg) -> None:
        self.conn.send(msg)

    def recv(self, timeout: float) -> _Msg:
        """Bounded receive: polls in small steps so a dead worker is
        detected promptly instead of blocking forever."""
        deadline = (
            time.monotonic()  # repro: allow[DET001] liveness deadline on the driver-worker pipe only; never feeds results
            + timeout
        )
        while True:
            if self.conn.poll(0.05):
                return self.conn.recv()
            if not self.proc.is_alive() and not self.conn.poll(0.0):
                raise EOFError("worker process died")
            if time.monotonic() > deadline:  # repro: allow[DET001] same liveness deadline; timing out fails the run loudly
                raise TimeoutError(f"no reply within {timeout:g}s")

    def alive(self) -> bool:
        return self.proc.is_alive()

    def terminate(self) -> None:
        try:
            self.conn.close()
        except OSError:
            pass
        if self.proc.is_alive():
            self.proc.terminate()
        self.proc.join(timeout=5.0)


_Transport = Union[_InlineShard, "_ProcessShard"]


def _terminate_pool(shards: Iterable[_Transport]) -> None:
    for shard in shards:
        try:
            shard.terminate()
        except Exception:
            pass


# ----------------------------------------------------------------------
# driver
# ----------------------------------------------------------------------
class ShardedRuntime(Runtime):
    """Driver for hash-partitioned multi-process topology execution.

    A :class:`~repro.engine.runtime.Runtime` like
    :class:`~repro.engine.rewiring.RewirableRuntime`, so the session facade
    and the differential harness drive it unchanged.  ``config.workers``
    fixes the pool size; ``transport="inline"`` runs the shard states
    in-process (deterministic, fork-free — the semantics under test, minus
    the IPC).
    """

    #: bound on any single worker sync (seconds); exceeding it fails the shard
    sync_timeout: float = 120.0

    def __init__(
        self,
        topology: Topology,
        windows: Dict[str, float],
        config: Optional[RuntimeConfig] = None,
        transport: str = "process",
        stats_sink: Optional[Callable[[EpochStatistics], None]] = None,
        sink: Optional[Callable[[str, Sequence[StreamTuple]], None]] = None,
    ) -> None:
        """``stats_sink`` enables shard-side statistics fold-back: each
        worker observes its accepted inputs into an
        :class:`~repro.engine.statistics.EpochStatistics` delta (broadcast
        relations deduped to shard 0) and every :meth:`flush` hands the
        per-worker deltas to the callable — how the adaptivity loop sees
        sharded traffic.  ``None`` (default) disables collection.  ``sink``
        receives every merged result (:class:`Runtime`)."""
        super().__init__(topology, windows, config or RuntimeConfig(workers=2), sink)
        if self.config.memory_limit_units is not None:
            raise ValueError(
                "memory_limit_units does not compose with sharded execution"
            )
        if transport not in ("process", "inline"):
            raise ValueError(f"unknown transport {transport!r}")
        self.transport = transport
        # flush() merges the shards' emissions by arrival seq: the driver
        # is the one owner that numbers its inputs
        self.ingress.sequence = True
        self.router = ShardRouter.from_topology(topology, self.config.workers)
        self.num_shards = self.router.num_shards

        self._pending: List[List[StreamTuple]] = [
            [] for _ in range(self.num_shards)
        ]
        self._flow_base: Dict[str, int] = {name: 0 for name in _FLOW_FIELDS}
        self._worker_flow: List[Dict[str, float]] = [
            {} for _ in range(self.num_shards)
        ]
        self._stored: List[int] = [0] * self.num_shards
        self._stats_sink = stats_sink
        # a worker runs the plain single-process engine on its shard
        self._worker_config = replace(
            self.config, workers=1, collect_outputs=False, on_late="raise"
        )
        self._shards = self._spawn_pool()
        self._finalizer = weakref.finalize(
            self, _terminate_pool, list(self._shards)
        )

    def _spawn_pool(self) -> List[_Transport]:
        collect = self._stats_sink is not None
        if self.transport == "inline":
            return [
                _InlineShard(
                    idx, self.router, self.topology, self.windows,
                    self._worker_config, collect_stats=collect,
                )
                for idx in range(self.num_shards)
            ]
        methods = multiprocessing.get_all_start_methods()
        ctx = multiprocessing.get_context(
            "fork" if "fork" in methods else "spawn"
        )
        return [
            _ProcessShard(
                ctx, idx, self.router, self.topology, self.windows,
                self._worker_config, collect_stats=collect,
            )
            for idx in range(self.num_shards)
        ]

    # ------------------------------------------------------------------
    # push driver
    # ------------------------------------------------------------------
    def process(self, tup: StreamTuple) -> None:
        """Validate, sequence, and route one input tuple to its shard(s).

        The driver owns the global arrival contract: late decisions are
        made here (:meth:`Runtime._admit`) against the authoritative
        per-stream high waters — workers only ever see accepted tuples —
        and assigns the arrival seq the merge in :meth:`flush` orders
        emissions by (workers keep it: their ingress does not number).
        """
        if not self._admit(tup):
            return
        self.metrics.on_input(tup.trigger_ts)
        shard = self.router.shard_of(tup)
        if shard is None:
            for idx in range(self.num_shards):
                self._enqueue(idx, tup)
        else:
            self._enqueue(shard, tup)

    def _enqueue(self, idx: int, tup: StreamTuple) -> None:
        pending = self._pending[idx]
        pending.append(tup)
        if len(pending) >= self.config.batch_size:
            self._ship(idx)

    def _ship(self, idx: int) -> None:
        pending = self._pending[idx]
        if not pending:
            return
        self._pending[idx] = []
        self._send(idx, ("batch", pending, self._highs()))

    def _highs(self) -> Optional[Dict[str, float]]:
        """High-water snapshot shipped with every batch and drain
        (watermark mode only: ordered workers evict against event time)."""
        if self.ingress.bound is None:
            return None
        return dict(self.ingress.stream_high)

    def flush(self) -> None:
        """Ship all pending batches, drain every worker, merge emissions.

        The merge is deterministic: emissions sort by ``(result seq, shard
        index, local completion order)``, so the driver's output order is
        reproducible regardless of worker scheduling.
        """
        if self.metrics.failed or self._closed:
            return
        for idx in range(self.num_shards):
            self._ship(idx)
        replies = self._broadcast_collect(("drain", self._highs()))
        merged: List[Tuple[int, int, int, str, StreamTuple]] = []
        for idx, reply in enumerate(replies):
            _, log, flow, stored, stats_delta = reply
            self._worker_flow[idx] = flow
            self._stored[idx] = stored
            if stats_delta is not None and self._stats_sink is not None:
                self._stats_sink(stats_delta)
            for pos, (query, result) in enumerate(log):
                merged.append((result.seq, idx, pos, query, result))
        merged.sort(key=lambda entry: entry[:3])
        # one emission per run of consecutive same-query results
        for query, run in groupby(merged, key=itemgetter(3)):
            self._emit(query, [entry[4] for entry in run])
        self._refresh_counters()

    def stored_tuples_total(self) -> int:
        """Live tuples across all shards (broadcast stores count once per
        replica — replication is real memory)."""
        self.flush()
        return sum(self._stored)

    def _refresh_counters(self) -> None:
        metrics = self.metrics
        for name in _FLOW_FIELDS:
            setattr(
                metrics,
                name,
                self._flow_base[name]
                + sum(int(flow.get(name, 0)) for flow in self._worker_flow),
            )
        metrics.stored_units = sum(
            flow.get("stored_units", 0.0) for flow in self._worker_flow
        )
        metrics.peak_stored_units = max(
            metrics.peak_stored_units,
            sum(flow.get("peak_stored_units", 0.0) for flow in self._worker_flow),
        )

    # ------------------------------------------------------------------
    # rewiring
    # ------------------------------------------------------------------
    def install(
        self,
        topology: Topology,
        now: float,
        epoch: int = 0,
        windows: Optional[Dict[str, float]] = None,
    ) -> SwitchRecord:
        """Replace the deployed topology across all shards.

        Fast path (routing of surviving relations unchanged — the sticky
        router keeps the partition class whenever it still exists): each
        worker rewires its shard in place, migrating/backfilling locally.
        Slow path (partition class changed): drain, dump and dedupe all
        shard state, backfill new MIR stores centrally, re-route everything
        under the new router, and reset the workers with their new shards.
        """
        self.flush()
        if self.metrics.failed:
            raise ShardFailedError(
                f"cannot rewire a failed sharded runtime "
                f"({self.metrics.failure_reason})"
            )
        if windows:
            self.windows.update(windows)
        # same high-water floor for returning/new ingest streams as the
        # single-process install (the driver owns the authoritative highs;
        # workers re-derive theirs from the drain snapshot + local install)
        self.ingress.floor(self.topology.ingest, topology.ingest)
        new_router = ShardRouter.from_topology(
            topology, self.config.workers, prefer_class=self.router.class_key
        )
        diff = diff_topologies(self.topology, topology)
        if new_router.stable_over(self.router):
            replies = self._broadcast_collect(
                ("install", topology, dict(self.windows), now, new_router)
            )
            # worker-local preserved counts sum to the global count:
            # partitioned store state is disjoint, broadcast state counts
            # once per replica it is actually preserved on
            preserved = sum(reply[1] for reply in replies)
            self.metrics.backfilled_tuples += sum(reply[2] for reply in replies)
        else:
            preserved = self._reshard(topology, new_router, diff, now)
        self.router = new_router
        self.topology = topology
        self.metrics.on_rewire(preserved)
        record = SwitchRecord(
            epoch=epoch,
            time=now,
            added_stores=diff.added,
            removed_stores=diff.removed,
        )
        self.switches.append(record)
        return record

    def _reshard(
        self,
        topology: Topology,
        new_router: ShardRouter,
        diff: TopologyDiff,
        now: float,
    ) -> int:
        """Stop-the-world re-partition under a changed partition class."""
        dumps = self._broadcast_collect(("dump",))
        # the workers restart with fresh metrics: bank their flow counters
        for idx in range(self.num_shards):
            flow = self._worker_flow[idx]
            for name in _FLOW_FIELDS:
                self._flow_base[name] += int(flow.get(name, 0))
            self._worker_flow[idx] = {}
        # merge global state, deduping broadcast replicas (every shard holds
        # an identical copy of all-broadcast-lineage tuples; shard 0's wins)
        old_partitioned = self.router.partitioned
        state: Dict[str, List[StreamTuple]] = {}
        for idx, reply in enumerate(dumps):
            _, dump = reply
            for store_id, tuples in dump.items():
                bucket = state.setdefault(store_id, [])
                if idx == 0:
                    bucket.extend(tuples)
                else:
                    bucket.extend(
                        tup for tup in tuples if tup.lineage & old_partitioned
                    )
        for store_id in diff.removed:
            state.pop(store_id, None)
        preserved = sum(len(state.get(sid, ())) for sid in diff.surviving)
        migrated = sum(len(tuples) for tuples in state.values())
        for store_id in diff.added:
            spec = topology.stores[store_id]
            if spec.mir.is_input:
                state.setdefault(store_id, [])
            else:
                streams = {
                    rel: sorted(
                        state.get(rel, []), key=lambda t: t.latest_ts
                    )
                    for rel in spec.mir.relations
                }
                intermediates = compute_backfill(spec, streams, self.windows)
                state[store_id] = intermediates
                self.metrics.backfilled_tuples += len(intermediates)
        highs = dict(self.ingress.stream_high)
        for idx in range(self.num_shards):
            shard_state = {
                store_id: [
                    tup
                    for tup in tuples
                    if new_router.shard_of(tup) in (None, idx)
                ]
                for store_id, tuples in state.items()
            }
            self._send(
                idx,
                (
                    "reset", topology, dict(self.windows), highs,
                    shard_state, new_router,
                ),
            )
        self._collect_all()
        # driver-side migration counts like banked worker flow — folded into
        # the aggregate on every refresh, not overwritten by it
        self._flow_base["migrated_tuples"] += migrated
        self._refresh_counters()
        return preserved

    # ------------------------------------------------------------------
    # checkpoint/restore
    # ------------------------------------------------------------------
    def dump_state(self) -> Dict[str, Any]:
        """Full driver snapshot: per-shard structural state plus the
        driver-owned arrival contract, outputs, and aggregate metrics.

        Every worker dumps its shard *structurally* (bucket layout, hash
        index candidate order, columnar code tables, eviction cadence), so
        a restore is bit-for-bit — same results, same order, same flow
        counters — as an uninterrupted run.  The runtime flushes first;
        snapshots never contain un-merged emissions.
        """
        self.flush()
        if self.metrics.failed:
            raise ShardFailedError(
                f"cannot snapshot a failed sharded runtime "
                f"({self.metrics.failure_reason})"
            )
        replies = self._broadcast_collect(("snapshot",))
        return {
            "kind": "sharded",
            "workers": self.num_shards,
            "router_class": self.router.class_key,
            "shards": [reply[1] for reply in replies],
            "ingress": self.ingress.dump(),
            "outputs": {q: list(r) for q, r in self.outputs.items()},
            "metrics": self.metrics,
            "switches": list(self.switches),
            "stored": list(self._stored),
        }

    def load_state(self, state: Dict[str, Any]) -> None:
        """Restore a freshly constructed driver from :meth:`dump_state`.

        The driver must have been built with the same topology, windows,
        and configuration (including ``workers``) the snapshot was taken
        under.  Each worker is reset from its own shard's structural dump;
        the sticky partition class is re-preferred, so routing matches the
        stored placement exactly.
        """
        if state.get("kind") != "sharded":
            raise ValueError(
                f"snapshot kind {state.get('kind')!r} does not fit a "
                "sharded runtime"
            )
        if int(state["workers"]) != self.num_shards:
            raise ValueError(
                f"snapshot was taken with workers={state['workers']}, "
                f"this runtime has workers={self.num_shards}"
            )
        router = ShardRouter.from_topology(
            self.topology, self.config.workers,
            prefer_class=state["router_class"],
        )
        for idx in range(self.num_shards):
            self._send(
                idx,
                (
                    "restore", self.topology, dict(self.windows),
                    state["shards"][idx], router,
                ),
            )
        replies = self._collect_all()
        self.router = router
        self.ingress.load(state["ingress"])
        self.outputs = {q: list(r) for q, r in state["outputs"].items()}
        self.metrics = state["metrics"]
        self.switches = list(state["switches"])
        self._stored = list(state["stored"])
        # reset workers restart with fresh flow counters: bank the
        # checkpoint-time aggregates so _refresh_counters resumes exactly
        # (the same convention _reshard uses for its worker restarts)
        for name in _FLOW_FIELDS:
            self._flow_base[name] = int(getattr(self.metrics, name))
        self._worker_flow = [{} for _ in range(self.num_shards)]
        self.metrics.on_restore(sum(int(reply[1]) for reply in replies))

    # ------------------------------------------------------------------
    # fault-injection hook (tests only; see TEST_HOOK_ENV)
    # ------------------------------------------------------------------
    def inject_crash(self, shard: int, after: int) -> None:
        """Arm the crash-on-Nth-tuple hook on one worker (test builds only:
        requires ``REPRO_SHARD_TEST_HOOKS=1`` in the worker environment)."""
        self._send(shard, ("crash_after", after))
        self._collect(shard)

    # ------------------------------------------------------------------
    # transport plumbing + failure detection
    # ------------------------------------------------------------------
    def _send(self, idx: int, msg: _Msg) -> None:
        try:
            self._shards[idx].send(msg)
        except (BrokenPipeError, EOFError, OSError) as exc:
            self._shard_failed(idx, f"send failed: {exc}")

    def _collect(self, idx: int) -> _Msg:
        try:
            reply = self._shards[idx].recv(self.sync_timeout)
        except (EOFError, OSError) as exc:
            self._shard_failed(idx, f"worker died ({exc})")
        except TimeoutError as exc:
            self._shard_failed(idx, str(exc))
        if reply[0] == "error":
            self._shard_failed(idx, f"worker error:\n{reply[1]}")
        return reply

    def _broadcast_collect(self, msg: _Msg) -> List[_Msg]:
        """Send one command to every shard, then collect all replies (the
        workers run the command concurrently)."""
        for idx in range(self.num_shards):
            self._send(idx, msg)
        return self._collect_all()

    def _collect_all(self) -> List[_Msg]:
        return [self._collect(idx) for idx in range(self.num_shards)]

    def _shard_failed(self, idx: int, reason: str) -> NoReturn:
        message = f"shard {idx}/{self.num_shards} failed: {reason}"
        self.metrics.on_failure(message)
        self.close()
        raise ShardFailedError(message)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Terminate the worker pool (idempotent).

        A clean close asks live workers to stop first; anything still
        running afterwards is terminated.
        """
        if self._closed:
            return
        self._closed = True
        if not self.metrics.failed:
            for shard in self._shards:
                try:
                    if shard.alive():
                        shard.send(("stop",))
                        shard.recv(2.0)
                except Exception:
                    pass
        _terminate_pool(self._shards)
        self._finalizer.detach()

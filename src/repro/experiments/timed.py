"""Discrete-event simulation of a deployed topology (Figures 7b / 7d / 8).

:class:`TimedSimulator` runs the same rulesets, routing and stores as the
production engine, but as a queueing model instead of a push pipeline:

* every store task is a FIFO server whose service times come from an
  :class:`~repro.engine.profiles.EngineProfile` (per message, per
  comparison, per result, per store); with ``num_machines`` the tasks are
  multiplexed round-robin onto a fixed worker pool (paper: 96 workers on 8
  nodes), which is what makes redundant execution contend,
* every hop pays the profile's network delay, so messages are *in flight*
  between tasks and queues grow under overload; throughput and end-to-end
  latency emerge from that (Figs. 7b / 7d / 8),
* ``config.memory_limit_units`` budgets stored state **plus queued
  messages** — the "workers failed due to memory overflow" outcome of
  Fig. 8a,
* an attached :class:`~repro.engine.adaptivity.AdaptivityLoop` is advanced
  and fed from the event loop, so epoch-boundary plan switches land while
  messages routed under the old plan are still queued.  Those messages must
  still find their edge, rules, store spec and task, which is why the
  simulator — and only the simulator — keeps every retired edge / rule /
  spec and the emptied tasks of removed stores.

It is evaluation apparatus, not an execution mode: the whole feed is needed
up front (the heap is ordered by event timestamp, so out-of-order arrival is
meaningless and ``disorder_bound`` is refused), inputs are not
arrival-validated, and results are *nearly* complete rather than exact — an
in-flight probe can miss a partner whose store message is still queued.

It is also the one place where messages race: an earlier input's probe can
reach a store after a later input's tuple was stored there.  So, unlike the
push engine, it keeps an arrival rule: inputs are numbered in the order
they are processed, and a probe keeps only the partners whose components
all arrived before its own (:meth:`TimedSimulator._apply_rules`).
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Any, Dict, FrozenSet, Iterable, Iterator, List, Optional, Tuple

import numpy as np

from ..core.topology import (
    EdgeSpec,
    ProbeRule,
    Rule,
    StoreRule,
    StoreSpec,
    Topology,
)
from ..engine.adaptivity import AdaptivityLoop
from ..engine.metrics import EngineMetrics
from ..engine.profiles import CLASH_PROFILE, EngineProfile
from ..engine.rewiring import RewirableRuntime, SwitchRecord
from ..engine.routing import stable_hash, target_tasks
from ..engine.runtime import RuntimeConfig
from ..engine.stores import HopKey, StoreTask, orient_predicates, probe_batch
from ..engine.tuples import StreamTuple

__all__ = ["TimedSimulator"]

#: event heap entry: (event time, tie-break seq, kind, payload) where payload
#: is the coalesced input group for ``"input"`` events and
#: ``(edge label, store id, task index, tuple)`` for ``"msg"`` events
_Event = Tuple[float, int, str, Tuple[Any, ...]]

#: one probe match: (result, queries it completes, edges it continues on)
_Emission = Tuple[StreamTuple, Tuple[str, ...], Tuple[str, ...]]


@dataclass
class TimedMetrics(EngineMetrics):
    """:class:`~repro.engine.metrics.EngineMetrics` plus per-result
    latency: only the simulator completes a result after its trigger."""

    latencies: List[float] = field(default_factory=list)
    #: (completion time, latency) per result
    latency_samples: List[Tuple[float, float]] = field(default_factory=list)

    def on_latency(self, completion_ts: float, trigger_ts: float) -> None:
        latency = completion_ts - trigger_ts
        self.latencies.append(latency)
        self.latency_samples.append((completion_ts, latency))

    @property
    def mean_latency(self) -> float:
        return float(np.mean(self.latencies)) if self.latencies else 0.0

    def latency_timeline(self, bucket: float) -> List[Tuple[float, float]]:
        """(bucket_start, mean latency) series for Fig. 8-style plots."""
        if not self.latency_samples:
            return []
        buckets: Dict[int, List[float]] = {}
        for ts, latency in self.latency_samples:
            buckets.setdefault(int(ts // bucket), []).append(latency)
        return [
            (idx * bucket, float(np.mean(vals)))
            for idx, vals in sorted(buckets.items())
        ]


class TimedSimulator(RewirableRuntime):
    """Queueing simulation of ``topology`` over a whole feed (:meth:`run`).

    ``loop``, when given, is attached to this runtime and driven per input
    (``advance`` before, ``observe`` after), exactly where
    :class:`~repro.engine.adaptivity.AdaptiveRuntime` drives its own.
    """

    metrics: TimedMetrics

    def __init__(
        self,
        topology: Topology,
        windows: Dict[str, float],
        config: Optional[RuntimeConfig] = None,
        *,
        profile: EngineProfile = CLASH_PROFILE,
        num_machines: Optional[int] = None,
        loop: Optional[AdaptivityLoop] = None,
    ) -> None:
        super().__init__(topology, windows, config)
        self.metrics = TimedMetrics()
        if self.config.disorder_bound is not None:
            raise ValueError(
                "the timed simulator orders its event heap by event "
                "timestamp; disorder_bound does not apply"
            )
        self.profile = profile
        self.loop = loop
        if loop is not None:
            loop.attach(self)
        #: when each pool machine is next idle (empty: one server per task)
        self._machine_free: List[float] = [0.0] * (num_machines or 0)
        self._dispatched = 0
        #: when each task's own server is next idle, by (store id, index)
        self._task_free: Dict[Tuple[str, int], float] = {}
        #: Σ width of the messages sitting in the event heap
        self._queued_units = 0.0
        # everything ever deployed, for messages routed under a retired plan
        self._edges: Dict[str, EdgeSpec] = {}
        self._specs: Dict[str, StoreSpec] = {}
        self._rules: Dict[Tuple[str, str], List[Rule]] = {}
        #: edges of the deployed plan that store what they carry
        self._storage_edges: Dict[str, bool] = {}
        #: (id(rule), probe lineage) -> (rule ref, the hop's equality key);
        #: the rule reference keeps the key's id() stable
        self._hop_keys: Dict[
            Tuple[int, FrozenSet[str]], Tuple[ProbeRule, HopKey]
        ] = {}
        self._remember(topology)

    def process(self, tup: StreamTuple) -> None:
        raise RuntimeError(
            "the timed simulator needs the whole feed to build its event "
            "heap; call run(inputs)"
        )

    # ------------------------------------------------------------------
    # reconfiguration: in-flight messages outlive the plan that sent them
    # ------------------------------------------------------------------
    def _remember(self, topology: Topology) -> None:
        self._edges.update(topology.edges)
        self._specs.update(topology.stores)
        for store_id, ruleset in topology.rulesets.items():
            for label, rules in ruleset.items():
                self._rules[(store_id, label)] = rules
        self._storage_edges = {
            label: any(
                isinstance(rule, StoreRule)
                for rule in topology.rules_for(edge.target_store, label)
            )
            for label, edge in topology.edges.items()
        }

    def install(
        self,
        topology: Topology,
        now: float,
        epoch: int = 0,
        windows: Optional[Dict[str, float]] = None,
    ) -> SwitchRecord:
        before = dict(self.tasks)
        record = super().install(topology, now, epoch, windows)
        self._remember(topology)
        # freshly built tasks (added or repartitioned stores) start idle
        for store_id, tasks in self.tasks.items():
            if before.get(store_id) is not tasks:
                for index in range(len(tasks)):
                    self._task_free.pop((store_id, index), None)
        # a removed store's state is released, but empty tasks in its place
        # stay addressable — and evictable — for messages already queued
        for store_id in record.removed_stores:
            self.tasks[store_id] = [
                self._new_store_task(store_id, task.task_index, task.retention)
                for task in before.get(store_id, [])
            ]
        return record

    # ------------------------------------------------------------------
    # the event loop
    # ------------------------------------------------------------------
    def run(self, inputs: Iterable[StreamTuple]) -> EngineMetrics:
        # Consecutive same-stream arrivals coalesce into one heap event
        # (capped at batch_size): inputs are instantaneous — they pay no
        # service time and merely fan messages out — and each tuple in a
        # group is still ingested and fanned out at its *own* event
        # timestamp, so message schedule times are unchanged.  What moves
        # is only the interleaving against already-queued messages, which
        # the simulation never promised (in-flight messages always race
        # event time).  An attached loop (epoch switches must not reorder
        # in-flight messages across an install) or a memory budget (the
        # overflow point is defined per event) forces per-tuple events.
        heap: List[_Event] = []
        seq = itertools.count()
        arrivals = itertools.count(1)
        loop = self.loop
        per_tuple = loop is not None or self.config.memory_limit_units is not None
        cap = 1 if per_tuple else self.config.batch_size
        group: List[StreamTuple] = []
        for tup in inputs:
            if group and (tup.trigger != group[0].trigger or len(group) >= cap):
                heapq.heappush(
                    heap, (group[0].trigger_ts, next(seq), "input", tuple(group))
                )
                group = []
            group.append(tup)
        if group:
            heapq.heappush(
                heap, (group[0].trigger_ts, next(seq), "input", tuple(group))
            )

        profile = self.profile
        metrics = self.metrics
        while heap and not metrics.failed:
            now, _, kind, payload = heapq.heappop(heap)
            if kind == "input":
                for tup in payload:
                    if metrics.failed:
                        break
                    at = tup.trigger_ts
                    tup.seq = next(arrivals)
                    if loop is not None:
                        loop.advance(at)
                    metrics.on_input(at)
                    if loop is not None:
                        loop.observe(tup)
                    for label in self.topology.ingest.get(tup.trigger, []):
                        self._send(heap, seq, label, tup, at)
                    self._maybe_evict(at)
                    self._check_memory()
                continue
            label, store_id, task_index, tup = payload
            task = self.tasks[store_id][task_index]
            self._queued_units -= tup.width
            # With a fixed pool, work is dispatched round-robin over the
            # machines (a processor-sharing proxy for a load-balanced
            # cluster): saturation is governed by aggregate work, which is
            # what distinguishes shared from redundant execution.
            machine = None
            if self._machine_free:
                machine = self._dispatched % len(self._machine_free)
                self._dispatched += 1
                busy_until = self._machine_free[machine]
            else:
                busy_until = self._task_free.get((store_id, task_index), 0.0)
            emissions, checked, stored = self._apply_rules(
                task, label, store_id, tup
            )
            service = profile.per_message
            for _ in emissions:
                service += profile.per_result
            service += checked * profile.per_comparison
            if stored:
                service += profile.per_store
            done = max(now, busy_until) + service
            self._task_free[(store_id, task_index)] = done
            if machine is not None:
                self._machine_free[machine] = done
            metrics.on_completion(done)
            for result, queries, out_edges in emissions:
                for query in queries:
                    metrics.on_latency(done, result.trigger_ts)
                    self._emit(query, (result,))
                for out_label in out_edges:
                    self._send(heap, seq, out_label, result, done)
            self._maybe_evict(now)
            self._check_memory()
        return metrics

    def _send(
        self,
        heap: List[_Event],
        seq: Iterator[int],
        label: str,
        tup: StreamTuple,
        now: float,
    ) -> None:
        edge = self._edges[label]
        spec = self._specs[edge.target_store]
        targets = target_tasks(edge, spec, tup)
        if len(targets) > 1 and self._storage_edges.get(label):
            # a storage edge places each tuple on exactly one task; an
            # unroutable one falls back to a stable tuple hash
            targets = [stable_hash(tup.key()) % spec.parallelism]
        self.metrics.on_send(len(targets))
        arrival = now + self.profile.network_delay
        for task_index in targets:
            self._queued_units += tup.width
            message = (label, edge.target_store, task_index, tup)
            heapq.heappush(heap, (arrival, next(seq), "msg", message))

    def _apply_rules(
        self, task: StoreTask, label: str, store_id: str, tup: StreamTuple
    ) -> Tuple[List[_Emission], int, bool]:
        """Execute Algorithm 3 for one delivered tuple: the emissions, the
        candidates its probes checked, and whether it was stored."""
        emissions: List[_Emission] = []
        checked_total = 0
        stored = False
        for rule in self._rules.get((store_id, label), []):
            if isinstance(rule, StoreRule):
                task.container.insert(tup)
                self.metrics.on_store(tup.width)
                stored = True
            elif isinstance(rule, ProbeRule):
                entry = self._hop_keys.get((id(rule), tup.lineage))
                if entry is None:
                    entry = (rule, orient_predicates(rule.predicates, tup.lineage))
                    self._hop_keys[(id(rule), tup.lineage)] = entry
                matches, checked = probe_batch(
                    task.container,
                    (tup,),
                    entry[1],
                    self.windows,
                    self._uniform_window,
                )
                self.metrics.on_probe_batch(1, checked)
                checked_total += checked
                for match in matches:
                    # merge keeps the larger seq: equal to the probe's means
                    # the stored side arrived earlier (lineages are disjoint)
                    if match.seq == tup.seq:
                        emissions.append((match, rule.outputs, rule.out_edges))
        return emissions, checked_total, stored

    def _check_memory(self) -> None:
        limit = self.config.memory_limit_units
        if limit is None:
            return
        usage = self.metrics.stored_units + self._queued_units
        if usage > limit:
            self.metrics.on_failure(
                f"memory overflow: {usage:.0f} units > limit {limit:.0f}"
            )

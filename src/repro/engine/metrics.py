"""Execution metrics collected by the engine.

The paper's headline measurements map to:

* ``tuples_sent`` — the probe cost, the very objective the ILP minimizes
  (Section III: "We call the number of tuples sent the probe cost").
* ``throughput`` — processed input tuples / makespan (Section VII.A).
* ``peak_stored_units`` — peak Σ (stored tuples × width), the memory proxy.

Nothing here grows per result: in the push engine a result completes at
its trigger instant, so a latency would always be 0.  End-to-end latency
is measured where it exists, by the timed simulator's
:class:`~repro.experiments.timed.TimedMetrics`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.adaptive import DecisionRecord

__all__ = ["EngineMetrics"]


@dataclass
class EngineMetrics:
    """Counter bundle; one instance per engine run."""

    inputs_ingested: int = 0
    messages_sent: int = 0
    tuples_sent: int = 0
    probes_executed: int = 0
    comparisons: int = 0
    results_emitted: int = 0
    results_per_query: Dict[str, int] = field(default_factory=dict)
    stored_units: float = 0.0
    peak_stored_units: float = 0.0
    migrated_tuples: int = 0
    #: topology rewires installed on a live runtime (adaptive epoch switches
    #: and session add/remove_query replans)
    rewires: int = 0
    #: stored tuples sitting in *surviving* stores at rewire instants — the
    #: state a naive restart would have rebuilt; > 0 proves live migration
    preserved_tuples: int = 0
    #: intermediate tuples seeded into freshly introduced MIR stores
    backfilled_tuples: int = 0
    #: stragglers discarded by the session's ``on_late="drop"`` policy
    #: (never counted in ``inputs_ingested`` — they were not processed)
    late_dropped: int = 0
    #: stragglers beyond ``disorder_bound + allowed_lateness`` routed to the
    #: session's subscribable dead-letter side-output instead of being
    #: dropped or raising (``on_late="dead_letter"``)
    dead_lettered: int = 0
    #: stragglers that arrived later than the declared ``disorder_bound``
    #: but inside the ``allowed_lateness`` grace and were still joined
    #: (the eviction watermark is held back by the grace to keep their
    #: partners alive)
    late_admitted: int = 0
    #: PAUSE signals the service ingress emitted to its clients because the
    #: bounded ingress queue crossed its high watermark
    backpressure_events: int = 0
    #: deepest bounded-ingress-queue depth the service front ever observed
    #: (never exceeds the configured queue depth — backpressure is real)
    ingress_queue_high_water: int = 0
    #: live stored tuples reloaded into store containers by a
    #: checkpoint restore (0 on uninterrupted runs)
    restored_tuples: int = 0
    #: every optimizer consultation routed through the adaptivity loop —
    #: epoch boundaries, query churn, and explicit ``reoptimize()`` alike
    #: (:class:`~repro.core.adaptive.DecisionRecord` instances)
    decisions: List["DecisionRecord"] = field(default_factory=list)
    first_arrival: Optional[float] = None
    last_completion: float = 0.0
    failed: bool = False
    failure_reason: str = ""

    # ------------------------------------------------------------------
    def on_input(self, arrival_ts: float) -> None:
        self.inputs_ingested += 1
        if self.first_arrival is None:
            # the first input starts the completion clock too: from the
            # 0.0 default, a feed at negative event times would end at 0.0
            self.first_arrival = self.last_completion = arrival_ts
            return
        if arrival_ts < self.first_arrival:
            self.first_arrival = arrival_ts
        self.last_completion = max(self.last_completion, arrival_ts)

    def on_send(self, fanout: int) -> None:
        """A tuple shipped to ``fanout`` tasks (broadcast counts χ times)."""
        self.messages_sent += fanout
        self.tuples_sent += fanout

    def on_store(self, width: int) -> None:
        self.stored_units += width
        self.peak_stored_units = max(self.peak_stored_units, self.stored_units)

    def on_evict(self, width: int) -> None:
        self.stored_units -= width

    def on_probe_batch(self, probes: int, candidates_checked: int) -> None:
        """Batched bookkeeping: ``probes`` probes scanned ``candidates_checked``
        candidates in total (one call per rule application per batch)."""
        self.probes_executed += probes
        self.comparisons += candidates_checked

    def on_result(self, query: str, count: int) -> None:
        """``count`` results of ``query`` were emitted (one call per batch).

        Completion needs no update: every component of a result went
        through :meth:`on_input`, so ``last_completion`` already bounds it.
        """
        self.results_emitted += count
        self.results_per_query[query] = self.results_per_query.get(query, 0) + count

    def on_completion(self, completion_ts: float) -> None:
        """Work finished at ``completion_ts`` without emitting a result
        (the timed simulator's service completions)."""
        self.last_completion = max(self.last_completion, completion_ts)

    def on_decision(self, record: "DecisionRecord") -> None:
        """The adaptivity loop consulted the optimizer (changed or not)."""
        self.decisions.append(record)

    def on_rewire(self, preserved_tuples: int) -> None:
        """A topology switch on a live runtime kept ``preserved_tuples``
        stored tuples in place across surviving stores."""
        self.rewires += 1
        self.preserved_tuples += preserved_tuples

    def on_late_drop(self, count: int = 1) -> None:
        """``count`` stragglers were discarded by the ``on_late="drop"``
        policy (a batch > 1 only when a session folds in tuples dropped
        while warming up, before this metrics object existed).

        The session's validation boundary calls this instead of writing
        the counter directly: counter mutation stays engine-internal
        (enforced by the MET001 analyzer rule).
        """
        self.late_dropped += count

    def on_dead_letter(self, count: int = 1) -> None:
        """``count`` stragglers were routed to the dead-letter side-output
        (``on_late="dead_letter"``; a batch > 1 only when a session folds
        in tuples dead-lettered during warmup).  Like :meth:`on_late_drop`,
        this is the session's MET001-clean mutation path."""
        self.dead_lettered += count

    def on_late_admit(self, count: int = 1) -> None:
        """``count`` stragglers exceeded the declared ``disorder_bound``
        but fell inside the ``allowed_lateness`` grace and were joined."""
        self.late_admitted += count

    def on_backpressure(self) -> None:
        """The service ingress paused its clients (queue high watermark)."""
        self.backpressure_events += 1

    def on_ingress_depth(self, depth: int) -> None:
        """Track the deepest observed bounded-ingress-queue depth."""
        if depth > self.ingress_queue_high_water:
            self.ingress_queue_high_water = depth

    def on_restore(self, tuples: int) -> None:
        """A checkpoint restore reloaded ``tuples`` live stored tuples."""
        self.restored_tuples += tuples

    def on_failure(self, reason: str) -> None:
        self.failed = True
        self.failure_reason = reason

    # ------------------------------------------------------------------
    @property
    def makespan(self) -> float:
        if self.first_arrival is None:
            return 0.0
        return max(self.last_completion - self.first_arrival, 0.0)

    @property
    def throughput(self) -> float:
        """Input tuples per simulated second."""
        span = self.makespan
        return self.inputs_ingested / span if span > 0 else 0.0

    def summary(self) -> Dict[str, float]:
        return {
            "inputs": float(self.inputs_ingested),
            "tuples_sent": float(self.tuples_sent),
            "results": float(self.results_emitted),
            "throughput": self.throughput,
            "peak_stored_units": self.peak_stored_units,
            "failed": float(self.failed),
        }

"""The unified adaptivity loop: one observe → decide → install path.

Section VI's adaptivity (epoch statistics → re-optimize → atomic ruleset
switch) and the session facade's query-churn rewires used to live in two
parallel stacks.  :class:`AdaptivityLoop` is the single shared loop:

* it **observes** input tuples into rolling :class:`EpochStatistics`
  windows (``stats_window`` epochs are retained, not one session-long
  blob), and can **absorb** statistics deltas folded back from sharded
  workers,
* it **decides** by consulting :class:`~repro.core.adaptive.AdaptiveController`
  — at epoch boundaries (``advance``) with the Figure-5 two-epoch delay,
  or immediately (``rewire``) for query churn and explicit
  re-optimization,
* it **installs** every resulting plan change through the attached
  runtime's one ``install`` path (:class:`~repro.engine.runtime.Runtime` —
  local or sharded), so state migration, backfill and watermark seeding
  ride every switch regardless of what triggered it.

Layering: :class:`AdaptiveRuntime` is a rewirable runtime that drives the
loop from its own ``process`` (Section VI, Figure 5: epoch statistics,
decide at the next boundary, install one epoch later), and
:class:`~repro.session.JoinSession` drives the same loop for
``reoptimize_every`` epochs, ``add_query`` / ``remove_query`` churn, and
``session.reoptimize()``.  Every optimizer consultation is logged once, in
``runtime.metrics.decisions``, as a
:class:`~repro.core.adaptive.DecisionRecord`.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Callable, Deque, Dict, Optional, Sequence

from ..core.adaptive import AdaptiveController, Decision, DecisionRecord
from ..core.catalog import StatisticsCatalog
from ..core.partitioning import ClusterConfig
from ..core.plan import SharedPlan
from ..core.topology import Topology
from .rewiring import RewirableRuntime, SwitchRecord
from .runtime import RuntimeConfig
from .statistics import EpochStatistics
from .tuples import StreamTuple

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .runtime import Runtime

__all__ = ["AdaptiveRuntime", "AdaptivityLoop"]


class AdaptivityLoop:
    """Owns statistics windows and funnels every plan change into install.

    ``epoch_length=None`` disables periodic epochs: the loop keeps one
    unbounded rolling epoch (the legacy session behavior) and only decides
    when explicitly asked (``rewire``).  With ``epoch_length=E`` the loop
    reproduces the paper's Figure-5 schedule exactly: statistics from epoch
    *i* are folded at the first boundary of epoch *i+1* and a changed plan
    is installed at the start of epoch *i+2*.

    ``measure`` customizes how merged statistics become a catalog (the
    session layers declared overrides on top); the default folds into the
    controller's base catalog.  ``pre_decide`` runs once before boundary
    decisions — the sharded session uses it to drain worker statistics
    deltas so epoch attribution matches the single-process runtime.

    The loop holds the *running* plan (``plan``, with the ``catalog`` it
    was optimized against): :meth:`deploy` sets it for the first
    deployment and :meth:`install` for every switch.  The controller holds
    the decision baseline, which runs ahead of it while an epoch decision
    waits in ``pending`` for its install.
    """

    def __init__(
        self,
        controller: AdaptiveController,
        *,
        epoch_length: Optional[float] = None,
        cluster: Optional[ClusterConfig] = None,
        adapt: bool = True,
        stats_window: int = 1,
        measure: Optional[
            Callable[[EpochStatistics, Optional[float]], StatisticsCatalog]
        ] = None,
        pre_decide: Optional[Callable[[], None]] = None,
    ) -> None:
        if stats_window < 1:
            raise ValueError("stats_window must be >= 1")
        if epoch_length is not None and epoch_length <= 0:
            raise ValueError("epoch_length must be positive")
        self.controller = controller
        self.epoch_length = epoch_length
        self.cluster = cluster
        self.adapt = adapt
        self.stats_window = stats_window
        self.measure = measure
        self.pre_decide = pre_decide
        self.runtime: Optional["Runtime"] = None
        self.plan: Optional[SharedPlan] = None
        self.catalog: Optional[StatisticsCatalog] = None
        self.current_epoch = 0
        self.stats = EpochStatistics(epoch=0)
        self.closed: Deque[EpochStatistics] = deque(maxlen=stats_window)
        self.pending: Dict[int, Decision] = {}

    # ------------------------------------------------------------------
    # wiring
    # ------------------------------------------------------------------
    def deploy(self, measured: Optional[StatisticsCatalog] = None) -> Topology:
        """Plan the first deployment from ``measured`` (by default the
        controller's base catalog): it becomes the decision baseline and the
        running plan.  The caller builds its runtime from the returned
        topology and attaches it."""
        controller = self.controller
        catalog = controller.base_catalog if measured is None else measured
        topology = controller.initial_topology(self.cluster, catalog)
        self.plan, self.catalog = controller.current_plan, catalog
        return topology

    def attach(self, runtime: "Runtime") -> None:
        """Bind the runtime whose ``install()`` every change routes through."""
        self.runtime = runtime

    # ------------------------------------------------------------------
    # observation
    # ------------------------------------------------------------------
    def observe(self, tup: StreamTuple) -> None:
        """Record an arriving input tuple into the live epoch."""
        self.stats.observe(tup)

    def observe_many(self, tuples: Sequence[StreamTuple]) -> None:
        """Record a chunk of input tuples into the live epoch at once (the
        caller folds before any epoch boundary the chunk crosses)."""
        self.stats.observe_many(tuples)

    def absorb(self, delta: EpochStatistics) -> None:
        """Merge a worker-observed statistics delta (sharded fold-back)."""
        self.stats.merge(delta)

    def snapshot(self) -> EpochStatistics:
        """Merged statistics over the retained window plus the live epoch."""
        if not self.closed:
            return self.stats
        merged = EpochStatistics(epoch=self.stats.epoch)
        for item in self.closed:
            merged.merge(item)
        merged.merge(self.stats)
        return merged

    def elapsed(self) -> Optional[float]:
        """Event-time span covered by :meth:`snapshot` (None: no rates yet)."""
        if self.epoch_length is None:
            stats = self.stats
            if stats.first_ts is None or stats.last_ts is None:
                return None
            span = stats.last_ts - stats.first_ts
            return span if span > 0 else None
        span = float(len(self.closed)) * self.epoch_length
        if self.stats.first_ts is not None and self.stats.last_ts is not None:
            # the live epoch contributes only its *observed* span, so a
            # lone first tuple yields no rate estimate (matching both the
            # legacy session and AdaptiveRuntime's base-catalog bootstrap)
            span += max(0.0, self.stats.last_ts - self.stats.first_ts)
        return span if span > 0 else None

    # ------------------------------------------------------------------
    # epoch machinery (periodic decisions)
    # ------------------------------------------------------------------
    def advance(self, now: float) -> None:
        """Cross any epoch boundaries ≤ ``now``: close, decide, install."""
        if self.epoch_length is None:
            return
        epoch = int(now // self.epoch_length)
        if epoch <= self.current_epoch:
            return
        if self.pre_decide is not None:
            self.pre_decide()
        while self.current_epoch < epoch:
            self._close_epoch(self.current_epoch)
            self.current_epoch += 1
            decision = self.pending.pop(self.current_epoch, None)
            if decision is not None:
                self.install(
                    decision,
                    now=self.current_epoch * self.epoch_length,
                    epoch=self.current_epoch,
                )

    def _close_epoch(self, epoch: int) -> None:
        stats = self.stats
        self.stats = EpochStatistics(epoch=epoch + 1)
        self.closed.append(stats)
        if not self.adapt:
            return
        if len(self.closed) == 1:
            merged = self.closed[0]
        else:
            merged = EpochStatistics(epoch=stats.epoch)
            for item in self.closed:
                merged.merge(item)
        elapsed = float(len(self.closed)) * self.epoch_length
        decision = self.controller.decide(
            epoch, self._measured(merged, elapsed), self.cluster
        )
        if decision is None:
            return
        self._log(decision.record)
        if decision.record.changed:
            # decided while epoch+1 runs; in effect from epoch+2 (Fig. 5)
            self.controller.commit(decision.plan)
            self.pending[epoch + 2] = decision

    # ------------------------------------------------------------------
    # immediate decisions (churn / explicit reoptimize)
    # ------------------------------------------------------------------
    def rewire(
        self,
        now: float,
        measured: StatisticsCatalog,
        windows: Optional[Dict[str, float]] = None,
    ) -> Optional[DecisionRecord]:
        """Decide against ``measured`` and install a changed plan now.

        Used for query churn (a changed query set always changes the plan)
        and for explicit ``session.reoptimize()`` (a topology is installed
        only when the plan actually changed).  The baseline, the record and
        the superseding of any pending epoch-scheduled plan commit only
        after the install succeeded: an install that raises leaves the
        loop and the controller as they were.
        """
        decision = self.controller.decide(self.current_epoch, measured, self.cluster)
        if decision is None:
            return None
        if decision.record.changed:
            self.install(decision, now=now, epoch=self.current_epoch, windows=windows)
            self.pending.clear()
            self.controller.commit(decision.plan)
        self._log(decision.record)
        return decision.record

    # ------------------------------------------------------------------
    # the single funnel
    # ------------------------------------------------------------------
    def install(
        self,
        decision: Decision,
        now: float,
        epoch: int = 0,
        windows: Optional[Dict[str, float]] = None,
    ) -> "SwitchRecord":
        """Every plan change — epoch, churn, or manual — lands here, and
        only here does the running plan change after the first deployment."""
        if self.runtime is None:
            raise RuntimeError("AdaptivityLoop has no attached runtime")
        assert decision.topology is not None, "an unchanged plan has no topology"
        record = self.runtime.install(
            decision.topology, now=now, epoch=epoch, windows=windows
        )
        self.plan, self.catalog = decision.plan, decision.catalog
        return record

    # ------------------------------------------------------------------
    def _measured(
        self, merged: EpochStatistics, elapsed: Optional[float]
    ) -> StatisticsCatalog:
        if self.measure is not None:
            return self.measure(merged, elapsed)
        return merged.fold_into(
            self.controller.base_catalog,
            self.controller.query_list,
            elapsed if elapsed else 1.0,
        )

    def _log(self, record: DecisionRecord) -> None:
        """The one decision log: the attached runtime's metrics."""
        if self.runtime is not None:
            self.runtime.metrics.on_decision(record)


class AdaptiveRuntime(RewirableRuntime):
    """A runtime that re-optimizes itself at epoch boundaries: a
    :class:`RewirableRuntime` deployed from the controller's initial plan,
    plus an :class:`AdaptivityLoop` (``runtime.loop``) consulted around
    every admitted input."""

    def __init__(
        self,
        controller: AdaptiveController,
        windows: Dict[str, float],
        config: Optional[RuntimeConfig] = None,
        epoch_length: float = 1.0,
        cluster: Optional[ClusterConfig] = None,
        adapt: bool = True,
        stats_window: int = 1,
    ) -> None:
        self.loop = AdaptivityLoop(
            controller,
            epoch_length=epoch_length,
            cluster=cluster or controller.config.cluster,
            adapt=adapt,
            stats_window=stats_window,
        )
        super().__init__(self.loop.deploy(), windows, config)
        self.loop.attach(self)

    @property
    def current_epoch(self) -> int:
        return self.loop.current_epoch

    def process(self, tup: StreamTuple) -> None:
        # admission first: a rejected straggler must not cross an epoch
        # boundary; a boundary's install then flushes the pending
        # micro-batch, so the switch falls before this tuple's cascade
        if not self._admit(tup):
            return
        self.loop.advance(tup.trigger_ts)
        self._accept(tup)
        self.loop.observe(tup)

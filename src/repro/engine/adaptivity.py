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
``session.reoptimize()``.  Every optimizer consultation is mirrored into
``runtime.metrics.decisions`` as a
:class:`~repro.core.adaptive.DecisionRecord`.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Callable, Deque, Dict, Optional, Sequence

from ..core.adaptive import AdaptiveController, DecisionRecord
from ..core.catalog import StatisticsCatalog
from ..core.partitioning import ClusterConfig
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
    """

    def __init__(
        self,
        controller: Optional[AdaptiveController] = None,
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
        #: invoked after an epoch-boundary decision *changed* the plan
        #: (the session refreshes its introspection state here)
        self.on_change: Optional[Callable[[], None]] = None
        self.current_epoch = 0
        self.stats = EpochStatistics(epoch=0)
        self.closed: Deque[EpochStatistics] = deque(maxlen=stats_window)
        self.pending: Dict[int, Topology] = {}

    # ------------------------------------------------------------------
    # wiring
    # ------------------------------------------------------------------
    def attach(self, runtime: "Runtime") -> None:
        """Bind the runtime whose ``install()`` every change routes through."""
        self.runtime = runtime

    def bind(
        self,
        controller: AdaptiveController,
        cluster: Optional[ClusterConfig] = None,
    ) -> None:
        """Late-bind the controller (the session plans lazily)."""
        self.controller = controller
        if cluster is not None:
            self.cluster = cluster

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
            topology = self.pending.pop(self.current_epoch, None)
            if topology is not None:
                self.install(
                    topology,
                    now=self.current_epoch * self.epoch_length,
                    epoch=self.current_epoch,
                )

    def _close_epoch(self, epoch: int) -> None:
        stats = self.stats
        self.stats = EpochStatistics(epoch=epoch + 1)
        self.closed.append(stats)
        if not self.adapt or self.controller is None:
            return
        if len(self.closed) == 1:
            merged = self.closed[0]
        else:
            merged = EpochStatistics(epoch=stats.epoch)
            for item in self.closed:
                merged.merge(item)
        elapsed = float(len(self.closed)) * self.epoch_length
        measured = self._measured(merged, elapsed)
        topology = self._decide(epoch, measured)
        if topology is not None:
            # decided while epoch+1 runs; in effect from epoch+2 (Fig. 5)
            self.pending[epoch + 2] = topology
            if self.on_change is not None:
                self.on_change()

    # ------------------------------------------------------------------
    # immediate decisions (churn / explicit reoptimize)
    # ------------------------------------------------------------------
    def rewire(
        self,
        now: float,
        windows: Optional[Dict[str, float]] = None,
        measured: Optional[StatisticsCatalog] = None,
    ) -> Optional[DecisionRecord]:
        """Decide from the freshest statistics and install immediately.

        Used for query churn (the controller is dirty, so a topology is
        always produced) and for explicit ``session.reoptimize()`` (a
        topology is produced only when the plan actually changed).  Any
        pending epoch-scheduled topology is superseded.
        """
        if measured is None:
            measured = self._measured(self.snapshot(), self.elapsed())
        before = len(self.controller.decisions)
        topology = self._decide(self.current_epoch, measured)
        if topology is not None:
            self.pending.clear()
            self.install(topology, now=now, epoch=self.current_epoch, windows=windows)
        after = self.controller.decisions
        return after[-1] if len(after) > before else None

    # ------------------------------------------------------------------
    # the single funnel
    # ------------------------------------------------------------------
    def install(
        self,
        topology: Topology,
        now: float,
        epoch: int = 0,
        windows: Optional[Dict[str, float]] = None,
    ) -> "SwitchRecord":
        """Every plan change — epoch, churn, or manual — lands here."""
        if self.runtime is None:
            raise RuntimeError("AdaptivityLoop has no attached runtime")
        return self.runtime.install(topology, now=now, epoch=epoch, windows=windows)

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

    def _decide(
        self, epoch: int, measured: StatisticsCatalog
    ) -> Optional[Topology]:
        before = len(self.controller.decisions)
        topology = self.controller.decide(epoch, measured, self.cluster)
        if self.runtime is not None:
            for record in self.controller.decisions[before:]:
                self.runtime.metrics.on_decision(record)
        return topology


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
        super().__init__(
            controller.initial_topology(self.loop.cluster), windows, config
        )
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

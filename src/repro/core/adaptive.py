"""Adaptive planning: reacting to statistics and query changes (Section VI).

The :class:`AdaptiveController` is the "Decision making" box of Figure 5:
at every epoch boundary it receives the previous epoch's statistics, re-runs
the ILP optimizer, and — iff the resulting plan differs from the last
committed one — emits a new topology to take effect one epoch later
(statistics from epoch *i* influence epoch *i+2*).

It also implements the query lifecycle of Section VI.B: queries can be
installed or removed at runtime; store reference counts track how many live
queries each store serves, and stores whose count drops to zero are
deregistered with the next configuration.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from .catalog import StatisticsCatalog
from .ilp_builder import OptimizerConfig
from .optimizer import MultiQueryOptimizer, choose_solver
from .partitioning import ClusterConfig
from .plan import SharedPlan
from .query import Query
from .topology import Topology, build_topology

__all__ = [
    "AdaptiveController",
    "Decision",
    "DecisionRecord",
    "TopologyDiff",
    "diff_topologies",
    "plan_signature",
    "store_refcounts",
]


#: (sorted (group, decorated-order) pairs, sorted (store, attr) pairs)
PlanSignature = Tuple[
    Tuple[Tuple[str, str], ...], Tuple[Tuple[str, str], ...]
]


def plan_signature(plan: SharedPlan) -> PlanSignature:
    """Canonical fingerprint of a plan: chosen orders + partitioning.

    Two plans with the same signature deploy identical topologies, so a
    reconfiguration is only rolled out when the signature changes.
    """
    orders = tuple(
        (group, str(plan.chosen[group].decorated)) for group in sorted(plan.chosen)
    )
    parts = tuple(sorted((k, v or "") for k, v in plan.partitioning.items()))
    return (orders, parts)


def store_refcounts(plan: SharedPlan) -> Dict[str, int]:
    """Number of queries each store serves (Section VI.B refcounting)."""
    counts: Dict[str, int] = {store_id: 0 for store_id in plan.stores_used}
    for query in plan.queries:
        used: Set[str] = set()
        for group, info in plan.chosen.items():
            if group.startswith(f"q:{query.name}:"):
                for mir in info.decorated.order.stores:
                    used.add(mir.canonical_id)
                # transitively: MIRs probed imply their maintenance stores
                for mir in info.decorated.order.sequence:
                    if not mir.is_input:
                        for rel in mir.relations:
                            used.add(rel)
        for store_id in used:
            if store_id in counts:
                counts[store_id] += 1
    return counts


@dataclass(frozen=True)
class TopologyDiff:
    """Structural difference between two deployed topologies.

    The runtime's live-rewire path is driven by exactly this classification
    (Section VI.B): ``added`` stores are created (and, for MIR stores,
    backfilled), ``removed`` stores release their state, ``surviving``
    stores keep their containers in place, and ``repartitioned`` stores —
    survivors whose partitioning attribute or task count changed — migrate
    their tuples to the new task layout.
    """

    added: Tuple[str, ...]
    removed: Tuple[str, ...]
    surviving: Tuple[str, ...]
    repartitioned: Tuple[str, ...]


def diff_topologies(old: Topology, new: Topology) -> TopologyDiff:
    """Classify every store of ``old`` ∪ ``new`` for a live rewire."""
    old_ids, new_ids = set(old.stores), set(new.stores)
    surviving = sorted(old_ids & new_ids)
    repartitioned = tuple(
        store_id
        for store_id in surviving
        if old.stores[store_id].partition_attr != new.stores[store_id].partition_attr
        or old.stores[store_id].parallelism != new.stores[store_id].parallelism
    )
    return TopologyDiff(
        added=tuple(sorted(new_ids - old_ids)),
        removed=tuple(sorted(old_ids - new_ids)),
        surviving=tuple(surviving),
        repartitioned=repartitioned,
    )


@dataclass
class DecisionRecord:
    """One optimizer invocation at an epoch boundary (for inspection/tests)."""

    epoch: int
    objective: float
    changed: bool
    num_queries: int


@dataclass(frozen=True)
class Decision:
    """What :meth:`AdaptiveController.decide` chose, committed to nothing.

    ``catalog`` is the measured catalog ``plan`` was optimized against;
    ``topology`` deploys the plan and is built only when it changed.
    """

    record: DecisionRecord
    plan: SharedPlan
    catalog: StatisticsCatalog
    topology: Optional[Topology]


class AdaptiveController:
    """Re-optimizes the workload from epoch statistics and query changes.

    The controller owns the planned query set, the solver choice and the
    decision baseline: the committed plan every decision compares against.
    :meth:`decide` commits nothing: its caller passes a changed plan to
    :meth:`commit` once it stands — an epoch decision at once, an immediate
    one after its install succeeded — so a failed install leaves the
    baseline as it was.
    """

    def __init__(
        self,
        catalog: StatisticsCatalog,
        queries: Sequence[Query],
        config: Optional[OptimizerConfig] = None,
        solver: str = "auto",
    ) -> None:
        self.base_catalog = catalog
        self.config = config or OptimizerConfig()
        self.solver = solver
        self.queries: Dict[str, Query] = {q.name: q for q in queries}
        self.current_plan: Optional[SharedPlan] = None
        self.current_signature: Optional[PlanSignature] = None

    # ------------------------------------------------------------------
    # query lifecycle
    # ------------------------------------------------------------------
    def add_query(self, query: Query) -> None:
        if query.name in self.queries:
            raise ValueError(f"query {query.name!r} already installed")
        self.queries[query.name] = query

    def remove_query(self, name: str) -> None:
        if name not in self.queries:
            raise KeyError(f"query {name!r} is not installed")
        del self.queries[name]

    @property
    def query_list(self) -> List[Query]:
        return [self.queries[name] for name in sorted(self.queries)]

    def refcounts(self) -> Dict[str, int]:
        if self.current_plan is None:
            return {}
        return store_refcounts(self.current_plan)

    # ------------------------------------------------------------------
    # planning
    # ------------------------------------------------------------------
    def initial_topology(
        self,
        cluster: Optional[ClusterConfig] = None,
        catalog: Optional[StatisticsCatalog] = None,
    ) -> Topology:
        """Plan and build the first deployment — from ``catalog``, by
        default the base catalog — and commit it as the baseline."""
        if catalog is None:
            catalog = self.base_catalog
        plan = self._optimize(catalog)
        self.commit(plan)
        return build_topology(plan, catalog, cluster or self.config.cluster)

    def decide(
        self,
        epoch: int,
        measured: StatisticsCatalog,
        cluster: Optional[ClusterConfig] = None,
    ) -> Optional[Decision]:
        """Plan the query set against ``measured`` (None: no queries).

        The plan changed iff its query set or its signature differs from
        the baseline's; only then is a topology built.
        """
        if not self.queries:
            return None
        plan = self._optimize(measured)
        baseline = self.current_plan
        changed = (
            baseline is None
            or plan.queries != baseline.queries
            or plan_signature(plan) != self.current_signature
        )
        record = DecisionRecord(
            epoch=epoch,
            objective=plan.objective,
            changed=changed,
            num_queries=len(self.queries),
        )
        topology = (
            build_topology(plan, measured, cluster or self.config.cluster)
            if changed
            else None
        )
        return Decision(record, plan, measured, topology)

    def commit(self, plan: SharedPlan) -> None:
        """Make ``plan`` the baseline the next decision compares against."""
        self.current_plan = plan
        self.current_signature = plan_signature(plan)

    def _optimize(self, catalog: StatisticsCatalog) -> SharedPlan:
        queries = self.query_list
        optimizer = MultiQueryOptimizer(
            catalog, self.config, solver=choose_solver(queries, self.solver)
        )
        return optimizer.optimize(queries).plan

"""Translation of shared plans into deployable topologies (Section V.B).

A :class:`Topology` is the static description the execution engine runs:
partitioned stores, labelled edges, and per-store *rulesets* mapping an
incoming edge label to store/probe rules (paper Algorithm 3: "if tuple
arrives from edge Ein, probe using predicate P, and send result to Eout").

Edge labels — not sending stores — identify behaviour, because tuples from
different probe trees may travel between the same pair of stores with
different predicates or continuations.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Optional, Tuple, Union

from .catalog import StatisticsCatalog
from .ilp_builder import CandidateInfo
from .mir import Mir
from .partitioning import ClusterConfig
from .plan import SharedPlan
from .predicates import JoinPredicate, attribute_closure
from .probe_tree import ProbeTree, ProbeTreeNode, build_probe_trees
from .query import Query
from .schema import Attribute

__all__ = [
    "StoreSpec",
    "EdgeSpec",
    "StoreRule",
    "ProbeRule",
    "Rule",
    "Topology",
    "build_topology",
]


@dataclass(frozen=True)
class StoreSpec:
    """A partitioned relation/MIR store."""

    store_id: str
    mir: Mir
    partition_attr: Optional[str]  # qualified, e.g. "S.a"; None = unpartitioned
    parallelism: int
    retention: float  # seconds of state to keep (max window over queries)

    @property
    def display_name(self) -> str:
        return self.mir.display_name


@dataclass(frozen=True)
class EdgeSpec:
    """A labelled routing edge into a store.

    ``route_by`` names the attribute *of the sending tuple* whose value
    determines the target partition; ``None`` means broadcast to all tasks
    (the χ > 1 case of the cost model).
    """

    label: str
    target_store: str
    route_by: Optional[str]


@dataclass(frozen=True)
class StoreRule:
    """Store the arriving tuple in the local container."""

    kind: str = "store"


@dataclass(frozen=True)
class ProbeRule:
    """Probe the local container and forward/emit each join result.

    ``predicates`` are all the equalities of the hop; the engine looks the
    container up on the whole set at once (their order is the sorted one,
    for reproducibility only).
    """

    predicates: Tuple[JoinPredicate, ...]
    out_edges: Tuple[str, ...]
    outputs: Tuple[str, ...]
    kind: str = "probe"


Rule = Union[StoreRule, ProbeRule]


@dataclass
class Topology:
    """Everything the engine needs to run a plan."""

    stores: Dict[str, StoreSpec]
    edges: Dict[str, EdgeSpec]
    rulesets: Dict[str, Dict[str, List[Rule]]]  # store -> edge label -> rules
    ingest: Dict[str, List[str]]  # input relation -> edge labels for new tuples
    queries: Dict[str, Query]

    def rules_for(self, store_id: str, edge_label: str) -> List[Rule]:
        return self.rulesets.get(store_id, {}).get(edge_label, [])

    @property
    def num_tasks(self) -> int:
        return sum(spec.parallelism for spec in self.stores.values())

    def describe(self) -> str:
        lines = [f"Topology: {len(self.stores)} stores, {len(self.edges)} edges"]
        for store_id in sorted(self.stores):
            spec = self.stores[store_id]
            lines.append(
                f"  store {spec.display_name}[{spec.partition_attr or '*'}]"
                f" x{spec.parallelism}"
            )
        return "\n".join(lines)


class _TopologyBuilder:
    def __init__(
        self,
        plan: SharedPlan,
        catalog: StatisticsCatalog,
        cluster: ClusterConfig,
    ) -> None:
        self.plan = plan
        self.catalog = catalog
        self.cluster = cluster
        self.labels = (f"e{i}" for i in itertools.count())
        self.stores: Dict[str, StoreSpec] = {}
        self.edges: Dict[str, EdgeSpec] = {}
        self.rulesets: Dict[str, Dict[str, List[Rule]]] = {}
        self.ingest: Dict[str, List[str]] = {}

    # ------------------------------------------------------------------
    def build(self) -> Topology:
        for mir in self.plan.stores_used.values():
            self._add_store(mir)

        # Storage edges: every input tuple is persisted in its own store.
        for mir in sorted(self.plan.stores_used.values()):
            if not mir.is_input:
                continue
            (relation,) = mir.relations
            spec = self.stores[mir.canonical_id]
            label = next(self.labels)
            self.edges[label] = EdgeSpec(
                label=label,
                target_store=mir.canonical_id,
                route_by=spec.partition_attr,
            )
            self._add_rule(mir.canonical_id, label, StoreRule())
            self.ingest.setdefault(relation, []).append(label)

        trees = build_probe_trees(self.plan.probe_orders)
        for relation in sorted(trees):
            self._wire_tree(trees[relation])

        return Topology(
            stores=self.stores,
            edges=self.edges,
            rulesets=self.rulesets,
            ingest=self.ingest,
            queries={q.name: q for q in self.plan.queries},
        )

    # ------------------------------------------------------------------
    def _add_store(self, mir: Mir) -> None:
        if mir.canonical_id in self.stores:
            return
        retention = 0.0
        for query in self.plan.queries:
            if not mir.relations <= query.relation_set:
                continue
            for relation in mir.relations:
                window = query.window_of(relation, self.catalog.window(relation))
                retention = max(retention, window)
        if retention == 0.0:
            retention = max(
                (self.catalog.window(rel) for rel in mir.relations),
                default=float("inf"),
            )
        self.stores[mir.canonical_id] = StoreSpec(
            store_id=mir.canonical_id,
            mir=mir,
            partition_attr=self.plan.partitioning.get(mir.canonical_id),
            parallelism=self.cluster.parallelism(mir),
            retention=retention,
        )

    def _add_rule(self, store_id: str, edge_label: str, rule: Rule) -> None:
        self.rulesets.setdefault(store_id, {}).setdefault(edge_label, []).append(rule)

    def _wire_tree(self, tree: ProbeTree) -> None:
        """Create edges and rules for one starting relation's probe tree."""
        for root in tree.roots:
            label = self._wire_node(
                node=root,
                prefix_relations=frozenset((tree.start_relation,)),
            )
            self.ingest.setdefault(tree.start_relation, []).append(label)

    def _wire_node(
        self,
        node: ProbeTreeNode,
        prefix_relations: FrozenSet[str],
    ) -> str:
        """Wire ``node`` and its subtree; returns the incoming edge label."""
        store_id = node.store.canonical_id
        spec = self.stores[store_id]
        label = next(self.labels)
        self.edges[label] = EdgeSpec(
            label=label,
            target_store=store_id,
            route_by=self._route_attribute(
                prefix_relations, node.store, spec.partition_attr, node.predicates
            ),
        )

        covered = prefix_relations | node.store.relations
        out_edges: List[str] = []
        for child in node.children:
            out_edges.append(self._wire_node(child, covered))
        for target in node.deliveries:
            out_edges.append(self._wire_delivery(target))

        # Sorted only to make the compiled rule reproducible: the engine
        # looks the store up on all of the hop's predicates at once.
        self._add_rule(
            store_id,
            label,
            ProbeRule(
                predicates=tuple(sorted(node.predicates)),
                out_edges=tuple(out_edges),
                outputs=tuple(node.outputs),
            ),
        )
        return label

    def _wire_delivery(self, target: Mir) -> str:
        """Edge carrying a completed intermediate result into its MIR store."""
        spec = self.stores[target.canonical_id]
        label = next(self.labels)
        # The full result contains every attribute of the MIR's relations, so
        # the partitioning attribute is always directly available.
        self.edges[label] = EdgeSpec(
            label=label,
            target_store=target.canonical_id,
            route_by=spec.partition_attr,
        )
        self._add_rule(target.canonical_id, label, StoreRule())
        return label

    def _route_attribute(
        self,
        prefix_relations: FrozenSet[str],
        target: Mir,
        partition_attr: Optional[str],
        hop_predicates: FrozenSet[JoinPredicate],
    ) -> Optional[str]:
        """Attribute of the sending tuple that determines the target partition.

        Mirrors the χ computation of the cost model: the closure of the
        sender's attributes under the equalities visible at this hop.  If
        the partitioning attribute is unreachable, returns ``None``
        (broadcast).
        """
        if partition_attr is None:
            return None
        target_attr = Attribute.parse(partition_attr)
        if target_attr.relation in prefix_relations:
            return partition_attr
        # Find any sender attribute equal to the partitioning attribute.
        visible_predicates = set(hop_predicates) | set(target.predicates)
        closure = attribute_closure([target_attr], visible_predicates)
        for attr in sorted(closure):
            if attr.relation in prefix_relations:
                return str(attr)
        return None


def build_topology(
    plan: SharedPlan,
    catalog: StatisticsCatalog,
    cluster: Optional[ClusterConfig] = None,
) -> Topology:
    """Build the deployable topology of a shared plan."""
    return _TopologyBuilder(plan, catalog, cluster or ClusterConfig()).build()

"""Merging probe orders into probe trees (paper Figure 4).

All chosen probe orders with the same starting relation are merged into a
*probe tree*: probe orders sharing a prefix (same stores probed with the
same predicates) share the corresponding tree edges, so the shared partial
results are computed once and copied to every child branch.

Node identity along a path is ``(store canonical id, hop predicates)`` —
matching the ILP's step identity, so exactly the steps the optimizer priced
as shared end up physically shared.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterator, List, Optional

from .ilp_builder import CandidateInfo
from .mir import Mir
from .predicates import JoinPredicate
from .query import Query

__all__ = ["ProbeTreeNode", "ProbeTree", "build_probe_trees"]


@dataclass
class ProbeTreeNode:
    """A store visited while probing; children continue the iteration.

    Attributes
    ----------
    store:
        The probed store (input relation or MIR).
    predicates:
        The equi predicates applied at this hop (between the accumulated
        prefix and this store's relations); together they are the key the
        store is looked up on, so their order carries no meaning.
    outputs:
        Query names whose result is complete at this node.
    deliveries:
        MIR stores that receive this node's join result (maintenance).
    """

    store: Mir
    predicates: FrozenSet[JoinPredicate]
    children: List["ProbeTreeNode"] = field(default_factory=list)
    outputs: List[str] = field(default_factory=list)
    deliveries: List[Mir] = field(default_factory=list)

    def child_for(
        self, store: Mir, predicates: FrozenSet[JoinPredicate]
    ) -> "ProbeTreeNode":
        """Find or create the child node for a hop (prefix sharing)."""
        for child in self.children:
            if (
                child.store.canonical_id == store.canonical_id
                and child.predicates == predicates
            ):
                return child
        child = ProbeTreeNode(store=store, predicates=predicates)
        self.children.append(child)
        return child

    def walk(self) -> Iterator["ProbeTreeNode"]:
        """Yield all nodes of the subtree (pre-order)."""
        yield self
        for child in self.children:
            yield from child.walk()


@dataclass
class ProbeTree:
    """The merged probe tree of one starting relation."""

    start_relation: str
    roots: List[ProbeTreeNode] = field(default_factory=list)

    def root_for(
        self, store: Mir, predicates: FrozenSet[JoinPredicate]
    ) -> ProbeTreeNode:
        for root in self.roots:
            if (
                root.store.canonical_id == store.canonical_id
                and root.predicates == predicates
            ):
                return root
        root = ProbeTreeNode(store=store, predicates=predicates)
        self.roots.append(root)
        return root

    def num_nodes(self) -> int:
        return sum(1 for root in self.roots for _ in root.walk())


def build_probe_trees(chosen: List[CandidateInfo]) -> Dict[str, ProbeTree]:
    """Merge chosen probe orders into one probe tree per starting relation."""
    trees: Dict[str, ProbeTree] = {}
    for info in chosen:
        order = info.decorated.order
        start = order.start_relation
        tree = trees.setdefault(start, ProbeTree(start_relation=start))

        node: Optional[ProbeTreeNode] = None
        for store, hop_preds in zip(
            order.sequence, order.hop_predicates(info.query)
        ):
            if node is None:
                node = tree.root_for(store, hop_preds)
            else:
                node = node.child_for(store, hop_preds)

        assert node is not None, "probe orders always probe at least one store"
        if order.is_maintenance:
            assert order.target is not None
            if all(
                d.canonical_id != order.target.canonical_id for d in node.deliveries
            ):
                node.deliveries.append(order.target)
        else:
            query_name = info.query.name
            if query_name not in node.outputs:
                node.outputs.append(query_name)
    return trees

"""Candidate probe-order construction (paper Algorithm 1).

A *probe order* ⟨S, T, U⟩ dictates how a newly arrived tuple of its starting
relation is routed through the stores of the other relations (or of
materialized intermediate results) to incrementally compute the join.

For every query and every starting relation, all cross-product-free
sequences of available MIR stores covering the query are enumerated.  For
MIR stores themselves, *maintenance* probe orders over the MIR's subquery
are generated the same way (recursively, so large MIRs may be maintained
via smaller ones).

Cyclic join graphs need no special enumeration: a hop applies *every*
query predicate connecting the accumulated prefix to the probed store
(:meth:`ProbeOrder.hop_predicates`), so a cycle-closing predicate is
simply picked up by whichever hop covers its second endpoint and becomes
part of that hop's lookup key (the store is indexed on all of a hop's
predicates together).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

from .mir import Mir, enumerate_mirs, input_mir
from .predicates import JoinPredicate
from .query import Query

__all__ = ["ProbeOrder", "construct_probe_orders", "maintenance_query"]


@dataclass(frozen=True)
class ProbeOrder:
    """An undecorated probe order: start relation and probed stores.

    Attributes
    ----------
    query_name:
        Name of the (sub)query this probe order answers.
    start:
        The starting input relation's trivial MIR.
    sequence:
        The probed stores, in order; their relation sets partition the
        query's remaining relations.
    target:
        For maintenance probe orders, the MIR whose store receives the final
        result; ``None`` for user-facing query probe orders.
    """

    query_name: str
    start: Mir
    sequence: Tuple[Mir, ...]
    target: Optional[Mir] = None

    @property
    def start_relation(self) -> str:
        (rel,) = self.start.relations
        return rel

    @property
    def stores(self) -> Tuple[Mir, ...]:
        """Start store followed by the probed stores."""
        return (self.start,) + self.sequence

    @property
    def is_maintenance(self) -> bool:
        return self.target is not None

    def covered_relations(self) -> FrozenSet[str]:
        covered = set(self.start.relations)
        for mir in self.sequence:
            covered |= mir.relations
        return frozenset(covered)

    def prefix_relations(self, num_stores: int) -> FrozenSet[str]:
        """Relations covered by the first ``num_stores`` stores (incl. start)."""
        covered = set()
        for mir in self.stores[:num_stores]:
            covered |= mir.relations
        return frozenset(covered)

    def hop_predicates(
        self, query: Query
    ) -> List[FrozenSet[JoinPredicate]]:
        """Per probed store, the predicates applied at that hop.

        Hop ``j`` applies every query predicate with one side in the
        accumulated prefix and the other in the probed store — including
        any cycle-closing predicate whose second endpoint this hop covers
        (the hop's predicates together form the store's lookup key).
        """
        hops: List[FrozenSet[JoinPredicate]] = []
        covered = set(self.start.relations)
        for mir in self.sequence:
            hops.append(query.predicates_between(covered, mir.relations))
            covered |= mir.relations
        return hops

    def __str__(self) -> str:
        inner = ", ".join(str(m) for m in self.stores)
        suffix = f" -> {self.target}" if self.target is not None else ""
        return f"<{inner}>{suffix}"


def construct_probe_orders(
    query: Query,
    mirs: Iterable[Mir],
    query_name: Optional[str] = None,
    target: Optional[Mir] = None,
) -> Dict[str, List[ProbeOrder]]:
    """Algorithm 1: all candidate probe orders per starting relation.

    ``mirs`` is the pool of available stores (inputs plus intermediates);
    only MIRs that are proper, predicate-consistent subsets of the query
    are considered.  Returns ``{starting relation: [probe orders]}``.
    """
    name = query_name or query.name
    pool = _usable_mirs(query, mirs)
    out: Dict[str, List[ProbeOrder]] = {}
    for relation in query.relations:
        head = frozenset((relation,))
        sequences = _construct_rec(query, head, pool)
        out[relation] = [
            ProbeOrder(
                query_name=name,
                start=input_mir(relation),
                sequence=tuple(seq),
                target=target,
            )
            for seq in sequences
        ]
    return out


def _usable_mirs(query: Query, mirs: Iterable[Mir]) -> List[Mir]:
    """MIRs probe-able while answering ``query``.

    A store is usable iff its relations are a proper subset of the query's
    and its internal predicates are exactly the query's predicates induced
    on those relations (otherwise stored intermediate results would reflect
    a different join).
    """
    usable = {}
    for mir in mirs:
        if not mir.relations < query.relation_set:
            continue
        if mir.predicates != query.predicates_within(mir.relations):
            continue
        usable[mir.canonical_id] = mir  # dedupe structurally equal MIRs
    return sorted(usable.values())


def _construct_rec(
    query: Query, head: FrozenSet[str], pool: Sequence[Mir]
) -> List[List[Mir]]:
    """Recursive body of Algorithm 1: extend ``head`` by joinable MIRs."""
    results: List[List[Mir]] = []
    for mir in _joinable(query, head, pool):
        new_head = head | mir.relations
        if new_head == query.relation_set:
            results.append([mir])
        else:
            for tail in _construct_rec(query, new_head, pool):
                results.append([mir] + tail)
    return results


def _joinable(
    query: Query, head: FrozenSet[str], pool: Sequence[Mir]
) -> List[Mir]:
    """MIRs disjoint from ``head`` and connected to it by a query predicate."""
    out = []
    for mir in pool:
        if mir.relations & head:
            continue
        if not query.predicates_between(head, mir.relations):
            continue
        out.append(mir)
    return out


def maintenance_query(mir: Mir) -> Query:
    """The subquery computing an MIR (used to build its maintenance orders)."""
    return Query(
        name=f"maint[{mir.display_name}]",
        relations=tuple(sorted(mir.relations)),
        predicates=mir.predicates,
    )


def maintenance_probe_orders(
    mir: Mir, available: Iterable[Mir]
) -> Dict[str, List[ProbeOrder]]:
    """Maintenance probe orders for an MIR store, per starting relation.

    Only strictly smaller MIRs are usable while computing ``mir`` itself;
    :func:`construct_probe_orders` enforces that via the proper-subset rule.
    """
    sub = maintenance_query(mir)
    pool = [m for m in available if m.relations < mir.relations or m.is_input]
    return construct_probe_orders(sub, pool, query_name=sub.name, target=mir)

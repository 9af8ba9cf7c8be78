"""Multi-way equi-join queries over streamed relations.

A :class:`Query` is a named, connected join graph over a subset of the
registered relations (cross products are excluded, as in the paper).  The
helper methods expose exactly the structure the optimizer needs: induced
predicates on relation subsets, predicates connecting two groups, and
per-relation window overrides.

The join graph may be any connected shape.  Beyond the generic
:meth:`Query.of`, the :meth:`Query.chain`, :meth:`Query.star`, and
:meth:`Query.cycle` constructors build the canonical topologies of the
paper's formulation (Section I.A poses no acyclicity restriction), and
:meth:`Query.spanning_predicates` / :meth:`Query.cycle_closing_predicates`
split the predicate set into a deterministic spanning tree and the
remainder — the cycle-closing predicates, each of which joins the lookup
key of the probe hop that covers its second endpoint.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Mapping, Optional, Tuple

from .predicates import JoinPredicate, as_predicate, connected_components
from .schema import Attribute

__all__ = ["Query", "CrossProductError"]


class CrossProductError(ValueError):
    """Raised when a query's join graph is not connected."""


@dataclass(frozen=True)
class Query:
    """An equi-join query ``q(S_1, ..., S_n)`` with pairwise predicates.

    Parameters
    ----------
    name:
        Unique query identifier within a workload.
    relations:
        Names of the joined relations (order is irrelevant; stored sorted).
    predicates:
        Pairwise equi-join predicates; must connect all relations.
    windows:
        Optional per-relation window overrides (defaults come from the
        catalog / relation declarations).
    """

    name: str
    relations: Tuple[str, ...]
    predicates: FrozenSet[JoinPredicate]
    windows: Tuple[Tuple[str, float], ...] = ()

    def __post_init__(self) -> None:
        rels = tuple(sorted(set(self.relations)))
        object.__setattr__(self, "relations", rels)
        object.__setattr__(self, "predicates", frozenset(self.predicates))
        if len(rels) < 2:
            raise ValueError(f"query {self.name!r} must join at least two relations")
        for pred in self.predicates:
            for rel in pred.relations:
                if rel not in rels:
                    raise ValueError(
                        f"query {self.name!r}: predicate {pred} references "
                        f"relation {rel!r} outside the query"
                    )
        components = connected_components(rels, self.predicates)
        if len(components) != 1:
            raise CrossProductError(
                f"query {self.name!r} contains a cross product; components: "
                f"{sorted(tuple(sorted(c)) for c in components)}"
            )
        for rel, window in self.windows:
            if rel not in rels:
                raise ValueError(
                    f"query {self.name!r}: window override for unknown relation {rel!r}"
                )
            if window <= 0:
                raise ValueError(f"query {self.name!r}: window must be positive")

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @staticmethod
    def of(name: str, *equalities: str, windows: Optional[Mapping[str, float]] = None) -> "Query":
        """Build a query from equality strings: ``Query.of("q", "R.a=S.a", ...)``."""
        predicates = [as_predicate(eq) for eq in equalities]
        relations = sorted({rel for p in predicates for rel in p.relations})
        return Query(
            name=name,
            relations=tuple(relations),
            predicates=frozenset(predicates),
            windows=tuple(sorted((windows or {}).items())),
        )

    @staticmethod
    def chain(
        name: str,
        relations: Iterable[str],
        attr: str = "a",
        windows: Optional[Mapping[str, float]] = None,
    ) -> "Query":
        """Chain query: consecutive relations joined on ``attr<i>``.

        ``chain("q", ["R", "S", "T"])`` builds ``R.a0=S.a0, S.a1=T.a1``.
        """
        rels = list(relations)
        if len(set(rels)) != len(rels):
            raise ValueError(f"chain query {name!r} repeats a relation")
        if len(rels) < 2:
            raise ValueError(f"chain query {name!r} needs at least two relations")
        eqs = [
            f"{rels[i]}.{attr}{i}={rels[i + 1]}.{attr}{i}"
            for i in range(len(rels) - 1)
        ]
        return Query.of(name, *eqs, windows=windows)

    @staticmethod
    def star(
        name: str,
        hub: str,
        spokes: Iterable[str],
        attr: str = "s",
        windows: Optional[Mapping[str, float]] = None,
    ) -> "Query":
        """Star query: every spoke joined to the hub on its own attribute.

        ``star("q", "H", ["A", "B"])`` builds ``H.s0=A.s0, H.s1=B.s1`` —
        spoke ``i`` shares attribute ``attr<i>`` with the hub, so spokes
        stay independent of each other (the degenerate-bushy shape that
        stresses probe-order choice; Joglekar & Ré's degree argument).
        """
        spoke_list = list(spokes)
        if len(set(spoke_list)) != len(spoke_list) or hub in spoke_list:
            raise ValueError(f"star query {name!r} repeats a relation")
        if not spoke_list:
            raise ValueError(f"star query {name!r} needs at least one spoke")
        eqs = [
            f"{hub}.{attr}{i}={spoke}.{attr}{i}"
            for i, spoke in enumerate(spoke_list)
        ]
        return Query.of(name, *eqs, windows=windows)

    @staticmethod
    def cycle(
        name: str,
        relations: Iterable[str],
        attr: str = "e",
        windows: Optional[Mapping[str, float]] = None,
    ) -> "Query":
        """Cyclic query: a ring of relations with the closing predicate.

        ``cycle("q", ["R", "S", "T"])`` builds ``R.e0=S.e0, S.e1=T.e1,
        T.e2=R.e2`` — edge ``i`` joins ring neighbours on attribute
        ``attr<i>``; the final edge closes the cycle.
        """
        ring = list(relations)
        if len(set(ring)) != len(ring):
            raise ValueError(f"cycle query {name!r} repeats a relation")
        if len(ring) < 3:
            raise ValueError(f"cycle query {name!r} needs at least three relations")
        eqs = [
            f"{ring[i]}.{attr}{i}={ring[(i + 1) % len(ring)]}.{attr}{i}"
            for i in range(len(ring))
        ]
        return Query.of(name, *eqs, windows=windows)

    # ------------------------------------------------------------------
    # structure helpers
    # ------------------------------------------------------------------
    @property
    def relation_set(self) -> FrozenSet[str]:
        return frozenset(self.relations)

    @property
    def num_cycles(self) -> int:
        """Cyclomatic number of the join graph (0 for trees/chains/stars).

        Counts distinct relation *pairs* as edges: parallel predicates on
        the same pair sharpen a join without creating a cycle.
        """
        pairs = {p.relations for p in self.predicates}
        return len(pairs) - len(self.relations) + 1

    @property
    def is_cyclic(self) -> bool:
        return self.num_cycles > 0

    def spanning_predicates(self) -> FrozenSet[JoinPredicate]:
        """A deterministic spanning tree of the join graph.

        Predicates are visited in sorted order; each one connecting two
        previously unconnected relations joins the tree.  The complement
        (:meth:`cycle_closing_predicates`) holds the cycle-closing
        predicates plus any parallel predicate on an already-joined pair —
        the predicates that make a probe hop's lookup key wider than one
        attribute.
        """
        parent = {rel: rel for rel in self.relations}

        def find(rel: str) -> str:
            while parent[rel] != rel:
                parent[rel] = parent[parent[rel]]
                rel = parent[rel]
            return rel

        tree = set()
        for pred in sorted(self.predicates):
            root_a = find(pred.left.relation)
            root_b = find(pred.right.relation)
            if root_a != root_b:
                parent[root_a] = root_b
                tree.add(pred)
        return frozenset(tree)

    def cycle_closing_predicates(self) -> FrozenSet[JoinPredicate]:
        """Predicates outside the deterministic spanning tree."""
        return self.predicates - self.spanning_predicates()

    @property
    def size(self) -> int:
        return len(self.relations)

    def window_of(self, relation: str, default: float = float("inf")) -> float:
        for rel, window in self.windows:
            if rel == relation:
                return window
        return default

    def predicates_within(self, relations: Iterable[str]) -> FrozenSet[JoinPredicate]:
        """Predicates whose both sides fall inside ``relations``."""
        group = set(relations)
        return frozenset(
            p for p in self.predicates if p.relations <= group
        )

    def predicates_between(
        self, group_a: Iterable[str], group_b: Iterable[str]
    ) -> FrozenSet[JoinPredicate]:
        """Predicates with one side in each group."""
        return frozenset(
            p for p in self.predicates if p.connects(group_a, group_b)
        )

    def neighbors(self, relations: Iterable[str]) -> FrozenSet[str]:
        """Relations of the query joinable with the given group."""
        group = set(relations)
        out = set()
        for pred in self.predicates:
            rels = pred.relations
            inside, outside = rels & group, rels - group
            if inside and outside:
                out |= outside
        return frozenset(out & set(self.relations))

    def join_attributes(self, relation: str) -> List[Attribute]:
        """Attributes of ``relation`` used in any predicate of this query."""
        attrs = {
            p.attribute_of(relation)
            for p in self.predicates
            if p.involves(relation)
        }
        return sorted(attrs)

    def is_subquery_connected(self, relations: Iterable[str]) -> bool:
        group = sorted(set(relations))
        if not group:
            return False
        inner = self.predicates_within(group)
        return len(connected_components(group, inner)) == 1

    def __str__(self) -> str:
        preds = ", ".join(sorted(str(p) for p in self.predicates))
        return f"{self.name}({', '.join(self.relations)} | {preds})"


def validate_workload(queries: Iterable[Query]) -> Dict[str, Query]:
    """Index queries by name, rejecting duplicate names."""
    out: Dict[str, Query] = {}
    for query in queries:
        if query.name in out:
            raise ValueError(f"duplicate query name {query.name!r}")
        out[query.name] = query
    return out

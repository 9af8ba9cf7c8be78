"""Stream tuples flowing through the simulated topology.

A :class:`StreamTuple` is either a raw input tuple or a partial join result
(the concatenation ``r ◦ s ◦ t`` of the paper).  It carries:

* ``values`` — qualified attribute name → value,
* ``timestamps`` — per contributing relation, the event timestamp τ,
* ``trigger`` / ``trigger_ts`` — the input relation/timestamp that initiated
  the probe chain,
* ``seq`` — the *arrival* sequence number, assigned at ingest only where
  something reads it (the sharded driver's result merge; the timed
  simulator numbers its own inputs), 0 elsewhere.  A single-process
  engine never reads it: its cascade order is the arrival order.

A join result is a *reference*, not a copy: :meth:`StreamTuple.merge` links
its two parents and sets only the scalars every hop reads (``trigger``,
``trigger_ts``, ``latest_ts``, ``earliest_ts``, ``seq``, ``lineage``).
``values`` and ``timestamps`` are built together — left parent first, right
second, last writer wins, exactly the union an eager merge made — the first
time either is read, and kept on the tuple read, which then lets its
parents go; an unbuilt parent is built and kept on the way, so an
intermediate shared by many results is built once.
:meth:`StreamTuple.get` answers a qualified attribute without
building anything: it walks to the component whose lineage holds the
attribute's relation.  Pickles stay flat (the eager layout), so parent
chains never reach a snapshot or a pipe.

Hot-path notes: the engine touches every tuple many times (routing, probe
candidate filtering, eviction ordering), so the timestamp extrema are
computed once at construction instead of per access; lineages are interned
(one frozenset per distinct relation set, unions memoized per pair), so a
merge allocates one object; and qualified attribute names are interned so
the per-probe dict lookups hit CPython's pointer-equality fast path.
"""

from __future__ import annotations

from sys import intern
from typing import Any, Dict, FrozenSet, Mapping, Optional, Tuple

__all__ = ["StreamTuple", "input_tuple", "intern_attr"]


#: cache of interned qualified attribute names ("R.a" -> interned "R.a")
_ATTR_CACHE: Dict[str, str] = {}

#: qualified attribute name -> its relation ("R.a" -> "R"); relation names
#: never contain a ".", so the relation is what precedes the first one
_ATTR_RELATION: Dict[str, str] = {}

#: interning table of lineages: one frozenset per distinct relation set
_LINEAGES: Dict[FrozenSet[str], FrozenSet[str]] = {}

#: left lineage -> right lineage -> their (interned) union, for pairs that
#: were checked to be disjoint; bounded by the relation sets in use
_UNIONS: Dict[FrozenSet[str], Dict[FrozenSet[str], FrozenSet[str]]] = {}


def intern_attr(name: str) -> str:
    """Intern a qualified attribute name (stable across the process)."""
    cached = _ATTR_CACHE.get(name)
    if cached is None:
        cached = _ATTR_CACHE[name] = intern(name)
    return cached


def _intern_lineage(lineage: FrozenSet[str]) -> FrozenSet[str]:
    """The shared frozenset equal to ``lineage``."""
    return _LINEAGES.setdefault(lineage, lineage)


def _union(left: FrozenSet[str], right: FrozenSet[str]) -> FrozenSet[str]:
    """The interned union of two disjoint lineages (memoized per pair)."""
    if not left.isdisjoint(right):
        raise ValueError("cannot merge tuples with overlapping lineage")
    union = _intern_lineage(left | right)
    by_right = _UNIONS.get(left)
    if by_right is None:
        by_right = _UNIONS[left] = {}
    by_right[right] = union
    return union


def _relation_of(qualified_attr: str) -> str:
    """Record the relation of a qualified attribute name not seen before."""
    relation = intern(qualified_attr.split(".", 1)[0])
    _ATTR_RELATION[qualified_attr] = relation
    return relation


class StreamTuple:
    """Immutable-by-convention tuple with lineage and timestamps.

    An input (or unpickled) tuple holds its ``values`` / ``timestamps``
    dicts; a merged one holds its two parents until either is read.  The
    engine's probe loop reads ``_values`` directly when it is set and falls
    back to :meth:`get` when it is not.
    """

    __slots__ = (
        "_values",
        "_timestamps",
        "_left",
        "_right",
        "trigger",
        "trigger_ts",
        "latest_ts",
        "earliest_ts",
        "lineage",
        "seq",
    )

    # set on merged tuples whose dicts are unbuilt, and read only then
    _left: "StreamTuple"
    _right: "StreamTuple"

    def __init__(
        self,
        values: Dict[str, object],
        timestamps: Dict[str, float],
        trigger: str,
        trigger_ts: float,
    ) -> None:
        self._values: Optional[Dict[str, object]] = values
        self._timestamps: Optional[Dict[str, float]] = timestamps
        self.trigger = trigger
        self.trigger_ts = trigger_ts
        ts_values = timestamps.values()
        self.latest_ts: float = max(ts_values)
        self.earliest_ts: float = min(ts_values)
        self.lineage: FrozenSet[str] = _intern_lineage(frozenset(timestamps))
        self.seq: int = 0

    # ------------------------------------------------------------------
    @property
    def values(self) -> Dict[str, object]:
        """Qualified attribute name → value (built on first read)."""
        values = self._values
        if values is None:
            values = self._materialize()[0]
        return values

    @property
    def timestamps(self) -> Dict[str, float]:
        """Relation → event timestamp (built on first read)."""
        timestamps = self._timestamps
        if timestamps is None:
            timestamps = self._materialize()[1]
        return timestamps

    def _materialize(self) -> Tuple[Dict[str, object], Dict[str, float]]:
        """Build and keep both dicts, left parent first (last writer wins).
        An unbuilt parent is built in place first, so an intermediate that
        several results share is built once, not once per result read.  The
        parents are then no longer read, so they are let go."""
        left, right = self._left, self._right
        values = {**left.values, **right.values}
        timestamps = {**left.timestamps, **right.timestamps}
        self._values, self._timestamps = values, timestamps
        del self._left, self._right
        return values, timestamps

    def _flatten(self) -> Tuple[Dict[str, object], Dict[str, float]]:
        """The union of the parents' values and of their timestamps, left
        first (last writer wins), cached on none of them — what a pickle
        writes.  Called on merged tuples only; an unbuilt parent is
        flattened in turn (the depth is at most the number of relations)."""
        left, right = self._left, self._right
        left_values, left_timestamps = left._values, left._timestamps
        if left_values is None or left_timestamps is None:
            left_values, left_timestamps = left._flatten()
        right_values, right_timestamps = right._values, right._timestamps
        if right_values is None or right_timestamps is None:
            right_values, right_timestamps = right._flatten()
        return (
            {**left_values, **right_values},
            {**left_timestamps, **right_timestamps},
        )

    @property
    def width(self) -> int:
        """Number of contributing relations (tuple size proxy for memory)."""
        return len(self.lineage)

    def get(self, qualified_attr: str) -> object:
        """``values.get(qualified_attr)``, without building ``values``: the
        attribute is read from the component holding its relation."""
        values = self._values
        if values is None:
            try:
                relation = _ATTR_RELATION[qualified_attr]
            except KeyError:
                relation = _relation_of(qualified_attr)
            if relation not in self.lineage:
                return self.values.get(qualified_attr)
            node = self
            while values is None:
                left = node._left
                node = left if relation in left.lineage else node._right
                values = node._values
        return values.get(qualified_attr)

    def merge(self, other: "StreamTuple") -> "StreamTuple":
        """Concatenate with a stored partner; keeps this tuple's trigger.

        The result references both parents; its scalars are derived from
        theirs and its lineage comes from the union memo — merging is the
        single hottest allocation site of the engine (one per join result),
        and this allocates the result alone.
        """
        try:
            lineage = _UNIONS[self.lineage][other.lineage]
        except KeyError:
            lineage = _union(self.lineage, other.lineage)
        merged = _new(StreamTuple)
        merged._values = None
        merged._timestamps = None
        merged._left = self
        merged._right = other
        merged.trigger = self.trigger
        merged.trigger_ts = self.trigger_ts
        a, b = self.latest_ts, other.latest_ts
        merged.latest_ts = a if a >= b else b
        a, b = self.earliest_ts, other.earliest_ts
        merged.earliest_ts = a if a <= b else b
        merged.lineage = lineage
        # the last-arriving component's number: the sharded merge orders
        # results by it
        i, j = self.seq, other.seq
        merged.seq = i if i >= j else j
        return merged

    def within_windows(
        self, other: "StreamTuple", windows: Mapping[str, float]
    ) -> bool:
        """Pairwise window check between all components of both tuples.

        Components i, j are joinable iff |τi − τj| ≤ min(window_i, window_j)
        (Section I.A: per-relation windows bound the maximal time distance).
        """
        for rel_a, ts_a in self.timestamps.items():
            w_a = windows.get(rel_a, float("inf"))
            for rel_b, ts_b in other.timestamps.items():
                w_b = windows.get(rel_b, float("inf"))
                if abs(ts_a - ts_b) > min(w_a, w_b):
                    return False
        return True

    def within_uniform_window(self, other: "StreamTuple", window: float) -> bool:
        """O(1) window check when every relation shares the same window.

        Equivalent to :meth:`within_windows` with a constant window ``w``:
        max over pairs |τi − τj| = max(latest_a − earliest_b,
        latest_b − earliest_a).
        """
        if self.latest_ts - other.earliest_ts > window:
            return False
        return other.latest_ts - self.earliest_ts <= window

    def key(
        self,
    ) -> Tuple[Tuple[Tuple[str, float], ...], Tuple[Tuple[str, str], ...]]:
        """Canonical identity (used for result-set comparisons in tests)."""
        return (
            tuple(sorted(self.timestamps.items())),
            tuple(sorted((k, repr(v)) for k, v in self.values.items())),
        )

    # ------------------------------------------------------------------
    # pickling: the flat layout of an eagerly merged tuple
    # ------------------------------------------------------------------
    def __getstate__(self) -> Tuple[None, Dict[str, Any]]:
        """The slot state an eager tuple pickles (``values`` and
        ``timestamps`` built for the pickle, not cached on this tuple)."""
        values, timestamps = self._values, self._timestamps
        if values is None or timestamps is None:
            values, timestamps = self._flatten()
        return (
            None,
            {
                "values": values,
                "timestamps": timestamps,
                "trigger": self.trigger,
                "trigger_ts": self.trigger_ts,
                "latest_ts": self.latest_ts,
                "earliest_ts": self.earliest_ts,
                "lineage": self.lineage,
                "seq": self.seq,
            },
        )

    def __setstate__(self, state: Tuple[Any, Dict[str, Any]]) -> None:
        """Read the eager layout (also what slot pickling wrote before
        merges were references) and re-intern the lineage."""
        slots = state[1]
        self._values = slots["values"]
        self._timestamps = slots["timestamps"]
        self.trigger = slots["trigger"]
        self.trigger_ts = slots["trigger_ts"]
        self.latest_ts = slots["latest_ts"]
        self.earliest_ts = slots["earliest_ts"]
        self.lineage = _intern_lineage(slots["lineage"])
        self.seq = slots["seq"]

    def __repr__(self) -> str:
        rels = "+".join(sorted(self.lineage))
        return f"Tuple[{rels}@{self.trigger_ts:g}]"


#: ``object.__new__``, looked up once: ``merge`` allocates per join result
_new = StreamTuple.__new__


def input_tuple(
    relation: str, tau: float, values: Mapping[str, object]
) -> StreamTuple:
    """Create a raw input tuple; ``values`` keys are unqualified attr names."""
    qualified = {
        intern_attr(f"{relation}.{name}"): value for name, value in values.items()
    }
    return StreamTuple(
        values=qualified,
        timestamps={relation: tau},
        trigger=relation,
        trigger_ts=tau,
    )

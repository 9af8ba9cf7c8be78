"""Reference (brute-force) windowed multi-way join.

Computes query results directly from recorded input streams with nested
loops — no partitioning, no probe orders, no stores.  This is the oracle the
engine's output is compared against in the integration and property tests.

The semantics are defined purely on *event* timestamps: a result exists for
every combination of tuples (one per query relation) that satisfies all
predicates and all pairwise window constraints.  Arrival order never enters
the definition, which makes the same oracle valid for both engine modes —
timestamp-ordered feeds and bounded out-of-order feeds (watermark mode)
must reproduce exactly this set, partners with equal event timestamps
included.  The join graph may be any connected shape (chain, star,
cycle, ...): predicates are looked up between the accumulated prefix and
each extension relation, so cycle-closing predicates are applied as soon
as both endpoints are covered.

Comparison helper: :func:`describe_result_diff` renders differences in
sorted order — raw set iteration order depends on string hash
randomization, so printing un-sorted differences yields failure diffs
that change across runs and Python versions.
"""

from __future__ import annotations

from typing import Iterable, List, Mapping, Sequence, Set, Tuple

from ..core.predicates import JoinPredicate
from ..core.query import Query
from .tuples import StreamTuple

#: canonical tuple identity as produced by :meth:`StreamTuple.key`
ResultKey = Tuple[
    Tuple[Tuple[str, float], ...], Tuple[Tuple[str, str], ...]
]

__all__ = [
    "reference_join",
    "result_keys",
    "describe_result_diff",
]


def reference_join(
    query: Query,
    streams: Mapping[str, List[StreamTuple]],
    windows: Mapping[str, float],
) -> List[StreamTuple]:
    """All result tuples of ``query`` over the recorded ``streams``.

    Semantics mirror the engine: a result exists for each combination of
    tuples (one per relation) that satisfies every predicate and every
    pairwise window constraint; it is triggered by (and timestamped with)
    the latest contributing tuple.  Stream lists may be in any order —
    only the event timestamps they carry matter.
    """
    relations = list(query.relations)
    results: List[StreamTuple] = []

    def extend(partial: StreamTuple, remaining: List[str]) -> None:
        if not remaining:
            results.append(partial)
            return
        relation = remaining[0]
        preds = tuple(
            query.predicates_between(partial.lineage, {relation})
        )
        for candidate in streams.get(relation, []):
            if not _match(partial, candidate, preds):
                continue
            if not partial.within_windows(candidate, windows):
                continue
            extend(partial.merge(candidate), remaining[1:])

    first, rest = relations[0], relations[1:]
    for tup in streams.get(first, []):
        extend(tup, rest)

    # Re-trigger each result by its latest component (the tuple whose
    # arrival completes the join) for latency semantics parity.  Timestamp
    # ties are broken by relation name so the trigger is deterministic.
    normalized = []
    for res in results:
        latest_rel = max(
            sorted(res.timestamps), key=lambda r: res.timestamps[r]
        )
        out = StreamTuple(
            values=res.values,
            timestamps=res.timestamps,
            trigger=latest_rel,
            trigger_ts=res.timestamps[latest_rel],
        )
        normalized.append(out)
    return normalized


def _match(
    partial: StreamTuple, candidate: StreamTuple, preds: Sequence[JoinPredicate]
) -> bool:
    for pred in preds:
        if pred.left.relation in partial.timestamps:
            mine, theirs = str(pred.left), str(pred.right)
        else:
            mine, theirs = str(pred.right), str(pred.left)
        if partial.get(mine) != candidate.get(theirs):
            return False
    return True


def result_keys(results: Iterable[StreamTuple]) -> Set[ResultKey]:
    """Canonical result-set representation for comparisons."""
    return {r.key() for r in results}


def describe_result_diff(
    expected: Set[ResultKey], got: Set[ResultKey], limit: int = 3
) -> str:
    """Stable one-line diff between two canonical key sets.

    Both difference sets are sorted before rendering, so the same mismatch
    prints the same diff on every run, interpreter, and ``PYTHONHASHSEED``.
    """
    missing = sorted(expected - got)
    invented = sorted(got - expected)
    parts = []
    if missing:
        parts.append(
            f"missing {len(missing)} (first: {missing[:limit]})"
        )
    if invented:
        parts.append(
            f"invented {len(invented)} (first: {invented[:limit]})"
        )
    return "; ".join(parts) if parts else "result sets equal"

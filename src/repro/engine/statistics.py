"""Online statistics gathering (Figure 2's "Samples/Measurements/Stats").

During each epoch the runtime records per-relation arrival counts and
bounded per-attribute value histograms.  At the epoch boundary these yield:

* arrival rates — ``count / epoch length``,
* join selectivities — for an equi predicate ``A = B``, the histogram dot
  product  ``Σ_v freq_A(v)·freq_B(v) / (n_A · n_B)``,

which is exactly what the cost model consumes.  The estimates are folded
into a copy of the base catalog so unobserved relations/predicates keep
their previous values (the paper's bootstrap concern, Section VI.B).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from ..core.catalog import StatisticsCatalog
from ..core.predicates import JoinPredicate
from ..core.query import Query
from .tuples import StreamTuple

__all__ = ["EpochStatistics"]

#: per-attribute histogram size bound (memory guard for high-cardinality data)
MAX_HISTOGRAM_ENTRIES = 50_000


@dataclass
class EpochStatistics:
    """Mutable statistics accumulator for one epoch."""

    epoch: int
    counts: Dict[str, int] = field(default_factory=dict)
    histograms: Dict[str, "Counter[object]"] = field(default_factory=dict)
    _saturated: Set[str] = field(default_factory=set)
    first_ts: Optional[float] = None
    last_ts: Optional[float] = None

    def observe(self, tup: StreamTuple) -> None:
        """Record an arriving *input* tuple (not intermediates)."""
        relation = tup.trigger
        self.counts[relation] = self.counts.get(relation, 0) + 1
        ts = tup.trigger_ts
        # the earliest timestamp, not the first arrival: under disorder the
        # observed span (and every rate) must not depend on arrival order,
        # and must equal what merge() of partial statistics keeps
        if self.first_ts is None or ts < self.first_ts:
            self.first_ts = ts
        if self.last_ts is None or ts > self.last_ts:
            self.last_ts = ts
        histograms = self.histograms
        for attr, value in tup.values.items():
            if attr in self._saturated:
                continue
            # not setdefault(attr, Counter()): that builds a Counter per call
            hist = histograms.get(attr)
            if hist is None:
                hist = histograms[attr] = Counter()
            hist[value] += 1
            if len(hist) > MAX_HISTOGRAM_ENTRIES:
                self._saturated.add(attr)

    def observe_many(self, tuples: Sequence[StreamTuple]) -> None:
        """Record a chunk of input tuples: exactly ``observe`` of each, in
        order, at one pass per chunk rather than per tuple.

        A histogram takes the chunk's values in one ``Counter.update``
        only when that cannot push it past ``MAX_HISTOGRAM_ENTRIES``;
        otherwise its values go one by one, so it saturates at the same
        value as repeated :meth:`observe` would.
        """
        if len(tuples) < 2:
            # one tuple is cheaper to observe than a chunk's set-up
            for tup in tuples:
                self.observe(tup)
            return
        counts = self.counts
        columns: Dict[str, List[object]] = {}
        for tup in tuples:
            relation = tup.trigger
            counts[relation] = counts.get(relation, 0) + 1
            for attr, value in tup.values.items():
                column = columns.get(attr)
                if column is None:
                    columns[attr] = [value]
                else:
                    column.append(value)
        stamps = [t.trigger_ts for t in tuples]
        low, high = min(stamps), max(stamps)
        if self.first_ts is None or low < self.first_ts:
            self.first_ts = low
        if self.last_ts is None or high > self.last_ts:
            self.last_ts = high
        histograms = self.histograms
        saturated = self._saturated
        for attr, column in columns.items():
            if attr in saturated:
                continue
            hist = histograms.get(attr)
            if hist is None:
                hist = histograms[attr] = Counter()
            if len(hist) + len(column) <= MAX_HISTOGRAM_ENTRIES:
                hist.update(column)
                continue
            for value in column:
                hist[value] += 1
                if len(hist) > MAX_HISTOGRAM_ENTRIES:
                    saturated.add(attr)
                    break

    def merge(self, other: "EpochStatistics") -> None:
        """Fold another accumulator into this one (shard fold-back)."""
        for relation, count in other.counts.items():
            self.counts[relation] = self.counts.get(relation, 0) + count
        self._saturated |= other._saturated
        for attr, hist in other.histograms.items():
            if attr in self._saturated:
                continue
            mine = self.histograms.get(attr)
            if mine is None:
                mine = self.histograms[attr] = Counter()
            mine.update(hist)
            if len(mine) > MAX_HISTOGRAM_ENTRIES:
                self._saturated.add(attr)
        if other.first_ts is not None and (
            self.first_ts is None or other.first_ts < self.first_ts
        ):
            self.first_ts = other.first_ts
        if other.last_ts is not None and (
            self.last_ts is None or other.last_ts > self.last_ts
        ):
            self.last_ts = other.last_ts

    # ------------------------------------------------------------------
    def rate(self, relation: str, epoch_length: float) -> Optional[float]:
        count = self.counts.get(relation)
        if not count:
            return None
        return count / epoch_length

    def selectivity(self, predicate: JoinPredicate) -> Optional[float]:
        hist_a = self.histograms.get(str(predicate.left))
        hist_b = self.histograms.get(str(predicate.right))
        if not hist_a or not hist_b:
            return None
        n_a = sum(hist_a.values())
        n_b = sum(hist_b.values())
        if n_a == 0 or n_b == 0:
            return None
        smaller, larger = (
            (hist_a, hist_b) if len(hist_a) <= len(hist_b) else (hist_b, hist_a)
        )
        matches = sum(freq * larger.get(value, 0) for value, freq in smaller.items())
        selectivity = matches / (n_a * n_b)
        return min(max(selectivity, 1e-12), 1.0)

    # ------------------------------------------------------------------
    def fold_into(
        self,
        base: StatisticsCatalog,
        queries: Iterable[Query],
        epoch_length: float,
    ) -> StatisticsCatalog:
        """A catalog copy updated with this epoch's measurements."""
        catalog = base.copy()
        for relation in self.counts:
            rate = self.rate(relation, epoch_length)
            if rate:
                catalog.with_rate(relation, rate)
        seen: Set[JoinPredicate] = set()
        for query in queries:
            for pred in query.predicates:
                if pred in seen:
                    continue
                seen.add(pred)
                estimate = self.selectivity(pred)
                if estimate is not None:
                    catalog.with_selectivity(pred, estimate)
        return catalog

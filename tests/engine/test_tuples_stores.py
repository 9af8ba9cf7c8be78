"""Tests for stream tuples, containers, and store tasks."""

import random

import pytest

from repro.core.predicates import JoinPredicate
from repro.engine.stores import Container, StoreTask, probe_container
from repro.engine.tuples import StreamTuple, input_tuple


class TestStreamTuple:
    def test_input_tuple_qualifies_attributes(self):
        tup = input_tuple("R", 1.0, {"a": 7})
        assert tup.get("R.a") == 7
        assert tup.lineage == frozenset({"R"})
        assert tup.trigger == "R" and tup.trigger_ts == 1.0

    def test_merge_combines_values_and_timestamps(self):
        r = input_tuple("R", 2.0, {"a": 1})
        s = input_tuple("S", 1.0, {"a": 1, "b": 5})
        merged = r.merge(s)
        assert merged.get("R.a") == 1 and merged.get("S.b") == 5
        assert merged.timestamps == {"R": 2.0, "S": 1.0}
        assert merged.trigger == "R"  # keeps the probing side's trigger

    def test_merge_rejects_overlapping_lineage(self):
        r1 = input_tuple("R", 1.0, {"a": 1})
        r2 = input_tuple("R", 2.0, {"a": 2})
        with pytest.raises(ValueError):
            r1.merge(r2)

    def test_latest_earliest(self):
        merged = input_tuple("R", 2.0, {"a": 1}).merge(
            input_tuple("S", 1.0, {"b": 2})
        )
        assert merged.latest_ts == 2.0
        assert merged.earliest_ts == 1.0
        assert merged.width == 2

    def test_within_windows_pairwise_min(self):
        r = input_tuple("R", 0.0, {"a": 1})
        s = input_tuple("S", 4.0, {"a": 1})
        assert r.within_windows(s, {"R": 5.0, "S": 5.0})
        assert not r.within_windows(s, {"R": 3.0, "S": 5.0})  # min applies
        assert r.within_windows(s, {})  # missing windows = unbounded

    def test_key_is_stable_identity(self):
        a = input_tuple("R", 1.0, {"a": 1})
        b = input_tuple("R", 1.0, {"a": 1})
        assert a.key() == b.key()
        assert a.key() != input_tuple("R", 1.0, {"a": 2}).key()


class TestContainer:
    def test_insert_and_index(self):
        cont = Container()
        t1 = input_tuple("R", 1.0, {"a": 5})
        cont.insert(t1)
        index = cont.index_on("R.a")
        assert index[5] == [t1]

    def test_index_built_lazily_then_maintained(self):
        cont = Container()
        cont.insert(input_tuple("R", 1.0, {"a": 5}))
        index = cont.index_on("R.a")
        cont.insert(input_tuple("R", 2.0, {"a": 5}))
        assert len(index[5]) == 2  # maintained incrementally after creation

    def test_evict_older_than(self):
        cont = Container()
        cont.insert(input_tuple("R", 1.0, {"a": 1}))
        cont.insert(input_tuple("R", 9.0, {"a": 2}))
        freed = cont.evict_older_than(5.0)
        assert freed == 1
        assert len(cont) == 1
        assert cont.index_on("R.a").get(1) is None

    def test_evict_nothing_is_cheap(self):
        cont = Container()
        cont.insert(input_tuple("R", 9.0, {"a": 2}))
        index_before = cont.index_on("R.a")
        assert cont.evict_older_than(1.0) == 0
        assert cont.indexes["R.a"] is index_before  # untouched

    def test_partial_eviction_never_rebuilds_indexes(self):
        """The seed discarded *all* indexes whenever any tuple expired;
        eviction must now update them in place (no full-scan rebuilds)."""
        cont = Container(bucket_width=1.0)
        for i in range(64):
            cont.insert(input_tuple("R", float(i), {"a": i % 8}))
        index = cont.index_on("R.a")
        assert cont.index_rebuilds == 1  # the initial lazy build

        for horizon in (8.0, 9.5, 31.0):
            cont.evict_older_than(horizon)
            # probing after eviction reuses the same index object...
            assert cont.index_on("R.a") is index
        # ...and no further full-scan build ever happened
        assert cont.index_rebuilds == 1
        assert len(cont) == 33  # tuples at 31.0 .. 63.0 survive
        # index content is exact: only live tuples, grouped by value
        live = {t.latest_ts for entries in index.values() for t in entries}
        assert live == {float(i) for i in range(31, 64)}
        assert index[0] == [t for t in cont.tuples if t.get("R.a") == 0]

    def test_eviction_drops_whole_buckets_and_filters_boundary(self):
        cont = Container(bucket_width=2.0)
        for i in range(10):
            cont.insert(input_tuple("R", float(i), {"a": i}))
        freed = cont.evict_older_than(5.0)  # drops 0..4, keeps 5..9
        assert freed == 5
        assert sorted(t.latest_ts for t in cont.tuples) == [5.0, 6.0, 7.0, 8.0, 9.0]
        # horizon inside a bucket: the boundary bucket (4,5) was filtered
        assert cont.evict_older_than(5.0) == 0  # idempotent

    def test_eviction_after_index_handles_shared_values(self):
        cont = Container(bucket_width=1.0)
        cont.insert(input_tuple("R", 0.5, {"a": 7}))
        cont.insert(input_tuple("R", 5.5, {"a": 7}))
        index = cont.index_on("R.a")
        assert len(index[7]) == 2
        cont.evict_older_than(3.0)
        assert [t.latest_ts for t in index[7]] == [5.5]

    def test_insert_after_eviction_lands_in_live_state(self):
        """Regression: eviction must not leave stale bucket references."""
        cont = Container(bucket_width=1.0)
        for i in range(8):
            cont.insert(input_tuple("R", float(i), {"a": i}))
        cont.index_on("R.a")
        cont.evict_older_than(6.5)
        cont.insert(input_tuple("R", 6.9, {"a": 99}))
        cont.insert(input_tuple("R", 8.0, {"a": 100}))
        assert len(cont) == 3
        assert {t.get("R.a") for t in cont.tuples} == {7, 99, 100}
        assert cont.index_on("R.a")[99][0].latest_ts == 6.9
        # a second eviction still sees the post-eviction inserts
        assert cont.evict_older_than(7.5) == 2


class TestEvictionBoundaries:
    """Boundary conditions of the bucketed incremental-eviction fast path."""

    def test_tuple_exactly_at_window_edge_survives(self):
        """Eviction is strict: ``latest_ts == horizon`` stays (the window
        check uses ``<=`` on the distance, so edge tuples still join)."""
        cont = Container(bucket_width=1.0)
        cont.insert(input_tuple("R", 5.0, {"a": 1}))
        cont.insert(input_tuple("R", 4.999999, {"a": 2}))
        freed = cont.evict_older_than(5.0)
        assert freed == 1
        assert [t.latest_ts for t in cont.tuples] == [5.0]

    def test_tuple_exactly_at_bucket_boundary(self):
        """latest_ts an exact multiple of the bucket width lands in the
        higher bucket and is not dropped by a horizon at that boundary."""
        cont = Container(bucket_width=2.0)
        for ts in (1.9999, 2.0, 2.0001, 4.0):
            cont.insert(input_tuple("R", ts, {"a": ts}))
        index = cont.index_on("R.a")
        freed = cont.evict_older_than(2.0)
        assert freed == 1  # only 1.9999 is strictly older
        assert sorted(t.latest_ts for t in cont.tuples) == [2.0, 2.0001, 4.0]
        assert cont.index_rebuilds == 1
        assert cont.index_on("R.a") is index

    def test_zero_retention_store_collapses_to_single_bucket(self):
        """retention <= 0 disables bucketing (no division blowup); eviction
        at ``now`` then clears everything strictly older than ``now``."""
        task = StoreTask(store_id="R", task_index=0, retention=0.0)
        task.container.insert(input_tuple("R", 1.0, {"a": 1}))
        task.container.insert(input_tuple("R", 3.0, {"a": 2}))
        assert task.container._bucket_width is None
        freed = task.evict(now=3.0)
        assert freed == 1  # the tuple exactly at now - 0 survives
        assert task.stored_tuples() == 1

    def test_near_zero_retention_buckets_stay_finite(self):
        """A tiny window produces astronomically large bucket ids; eviction
        must still drop exactly the expired tuples."""
        task = StoreTask(store_id="R", task_index=0, retention=1e-9)
        task.container.insert(input_tuple("R", 1.0, {"a": 1}))
        task.container.insert(input_tuple("R", 2.0, {"a": 2}))
        freed = task.evict(now=2.0)
        assert freed == 1
        assert [t.latest_ts for t in task.container.tuples] == [2.0]

    def test_explicit_single_bucket_filters_whole_container(self):
        """``bucket_width=None`` (or coerced 0/inf) keeps one bucket; an
        eviction pass filters it but must never rebuild indexes."""
        for width in (None, 0.0, float("inf")):
            cont = Container(bucket_width=width)
            for i in range(16):
                cont.insert(input_tuple("R", float(i), {"a": i % 4}))
            index = cont.index_on("R.a")
            assert cont.index_rebuilds == 1
            assert cont.evict_older_than(10.0) == 10
            assert len(cont) == 6
            assert cont.index_on("R.a") is index
            assert cont.index_rebuilds == 1
            live = sorted(t.latest_ts for es in index.values() for t in es)
            assert live == [10.0, 11.0, 12.0, 13.0, 14.0, 15.0]

    def test_horizon_below_all_buckets_is_noop(self):
        cont = Container(bucket_width=1.0)
        cont.insert(input_tuple("R", 10.0, {"a": 1}))
        cont.index_on("R.a")
        assert cont.evict_older_than(-100.0) == 0
        assert cont.evict_older_than(0.0) == 0
        assert len(cont) == 1
        assert cont.index_rebuilds == 1

    def test_eviction_of_everything_resets_indexes_cheaply(self):
        cont = Container(bucket_width=1.0)
        for i in range(8):
            cont.insert(input_tuple("R", float(i), {"a": i}))
        cont.index_on("R.a")
        freed = cont.evict_older_than(100.0)
        assert freed == 8
        assert len(cont) == 0
        assert cont.index_on("R.a") == {}
        # the empty-container reset counts as a (trivial) rebuild at most
        cont.insert(input_tuple("R", 200.0, {"a": 5}))
        assert cont.index_on("R.a")[5][0].latest_ts == 200.0


class TestEvictionKeepsIndexOrder:
    """Eviction drops the dead front of each entry list in place and
    filters only what is left behind it; either way every entry list must
    stay exactly the surviving tuples in insertion order."""

    @pytest.mark.parametrize("disorder", [0.0, 3.0])
    @pytest.mark.parametrize("width", [0.5, None])
    def test_entry_lists_equal_a_rebuild_after_every_eviction(self, disorder, width):
        rng = random.Random(11)
        task = StoreTask(store_id="R", task_index=0, retention=4.0)
        cont = task.container
        cont._bucket_width = width
        # indexes exist before the first insert, so they file in arrival
        # order (a lazy build files in bucket order)
        single, composite = cont.index_on("R.a"), cont.index_on(("R.a", "R.b"))
        inserted, high = [], float("-inf")
        for step in range(1500):
            # ordered feed, or a watermark feed: timestamps lag their
            # high water by up to ``disorder``, so the dead entries of a
            # list are not all at its front
            ts = step * 0.05 - rng.random() * disorder
            values = {"a": rng.randrange(6), "b": rng.choice([0, 1, float("nan")])}
            tup = input_tuple("R", ts, values)
            cont.insert(tup)
            inserted.append(tup)
            high = max(high, ts)
            if step % 7:
                continue
            task.evict(now=high - disorder)
            survivors = {id(t) for t in cont.iter_tuples()}
            live = [t for t in inserted if id(t) in survivors]
            rebuilt_single, rebuilt_composite = {}, {}
            for t in live:
                rebuilt_single.setdefault(t.get("R.a"), []).append(t)
                key = (t.get("R.a"), t.get("R.b"))
                if key[1] == key[1]:  # a NaN is never filed
                    rebuilt_composite.setdefault(key, []).append(t)
            assert single == rebuilt_single
            assert composite == rebuilt_composite
        assert cont.index_rebuilds == 2  # the two empty initial builds
        assert 0 < len(cont) < len(inserted)


class TestStoreTask:
    def test_window_eviction(self):
        task = StoreTask(store_id="R", task_index=0, retention=5.0)
        task.container.insert(input_tuple("R", 0.0, {"a": 1}))
        task.container.insert(input_tuple("R", 8.0, {"a": 2}))
        freed = task.evict(now=10.0)
        assert freed == 1
        assert task.stored_tuples() == 1

    def test_infinite_retention_never_evicts(self):
        task = StoreTask(store_id="R", task_index=0, retention=float("inf"))
        task.container.insert(input_tuple("R", 0.0, {"a": 1}))
        assert task.evict(now=1e9) == 0


class TestProbeContainer:
    def _fill(self):
        cont = Container()
        cont.insert(input_tuple("S", 1.0, {"a": 1, "b": 10}))
        cont.insert(input_tuple("S", 2.0, {"a": 1, "b": 20}))
        cont.insert(input_tuple("S", 3.0, {"a": 2, "b": 10}))
        return cont

    def test_equi_match_via_index(self):
        cont = self._fill()
        probe = input_tuple("R", 5.0, {"a": 1})
        preds = (JoinPredicate.of("R.a", "S.a"),)
        results = probe_container(cont, probe, preds, {})
        assert len(results) == 2
        assert all(r.get("S.a") == 1 for r in results)

    def test_multi_predicate_filter(self):
        cont = self._fill()
        probe = input_tuple("R", 5.0, {"a": 1, "b": 20})
        preds = (
            JoinPredicate.of("R.a", "S.a"),
            JoinPredicate.of("R.b", "S.b"),
        )
        results = probe_container(cont, probe, preds, {})
        assert len(results) == 1
        assert results[0].get("S.b") == 20

    def test_equal_and_later_timestamps_match(self):
        # no arrival rule: the cascade order already guarantees every stored
        # tuple arrived first, so a tie (S@1.0) and an event-later partner
        # (S@2.0, watermark mode) both join
        cont = self._fill()
        probe = input_tuple("R", 1.0, {"a": 1})
        preds = (JoinPredicate.of("R.a", "S.a"),)
        results = probe_container(cont, probe, preds, {})
        assert sorted(r.timestamps["S"] for r in results) == [1.0, 2.0]

    def test_window_filter(self):
        cont = self._fill()
        probe = input_tuple("R", 10.0, {"a": 1})
        preds = (JoinPredicate.of("R.a", "S.a"),)
        results = probe_container(cont, probe, preds, {"R": 5.0, "S": 5.0})
        # S@1.0 is 9.0 away (out of window); S@2.0 is 8.0 away (out too)
        assert results == []

    def test_comparison_counting(self):
        cont = self._fill()
        probe = input_tuple("R", 5.0, {"a": 1})
        counted = []
        probe_container(
            cont,
            probe,
            (JoinPredicate.of("R.a", "S.a"),),
            {},
            count_comparisons=counted.append,
        )
        assert counted == [2]  # index narrowed to the two a=1 tuples

    def test_empty_predicates_scan_all(self):
        cont = self._fill()
        probe = input_tuple("R", 5.0, {"a": 1})
        results = probe_container(cont, probe, (), {})
        assert len(results) == 3

"""``push_batch`` pays per chunk: statistics are folded once per chunk.

The contract under test: a batch ingests, observes, counts and records
exactly what pushing its items one at a time would — up to the item that
raises, and across the epoch boundaries it crosses — and
``EpochStatistics.observe_many`` is exactly repeated ``observe``,
including the point where a histogram saturates.
"""

import math
import random
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    EngineFailedError,
    JoinSession,
    LateTupleError,
    RuntimeConfig,
    SessionError,
    UnknownRelationError,
)
from repro.engine import EpochStatistics, input_tuple
from repro.engine import statistics as statistics_module
from repro.streams import (
    StreamSpec,
    bounded_delay_feed,
    generate_streams,
    uniform_domain,
)

NAN = float("nan")


def stats_state(stats):
    """Everything an accumulator holds, in insertion order (a NaN key is
    one object shared by both sides, so list equality matches it)."""
    return (
        list(stats.counts.items()),
        [(attr, list(hist.items())) for attr, hist in stats.histograms.items()],
        set(stats._saturated),
        stats.first_ts,
        stats.last_ts,
    )


# ----------------------------------------------------------------------
# EpochStatistics
# ----------------------------------------------------------------------
values = st.one_of(st.integers(0, 6), st.none(), st.just(NAN))
tuples = st.builds(
    input_tuple,
    st.sampled_from("RST"),
    st.floats(-50.0, 50.0, allow_nan=False),
    st.dictionaries(st.sampled_from("abc"), values, max_size=3),
)


class TestObserveMany:
    @given(
        prefix=st.lists(tuples, max_size=8),
        chunks=st.lists(st.lists(tuples, max_size=12), max_size=4),
        bound=st.sampled_from([2, 4, 7, 50_000]),
    )
    @settings(max_examples=200, deadline=None)
    def test_equals_repeated_observe(self, prefix, chunks, bound):
        """Mixed relations, differing attribute sets, NaN and ``None``
        values; a small bound makes histograms saturate mid-chunk."""
        with mock.patch.object(statistics_module, "MAX_HISTOGRAM_ENTRIES", bound):
            one, many = EpochStatistics(epoch=0), EpochStatistics(epoch=0)
            for tup in prefix:
                one.observe(tup)
                many.observe(tup)
            for chunk in chunks:
                for tup in chunk:
                    one.observe(tup)
                many.observe_many(chunk)
                assert stats_state(many) == stats_state(one)

    def test_saturates_at_the_same_value(self):
        with mock.patch.object(statistics_module, "MAX_HISTOGRAM_ENTRIES", 3):
            chunk = [input_tuple("R", float(i), {"a": i}) for i in range(10)]
            one, many = EpochStatistics(epoch=0), EpochStatistics(epoch=0)
            for tup in chunk:
                one.observe(tup)
            many.observe_many(chunk)
        assert many._saturated == {"R.a"}
        assert sorted(many.histograms["R.a"]) == [0, 1, 2, 3]
        assert stats_state(many) == stats_state(one)


class TestFirstTimestamp:
    def disordered_feed(self):
        specs = [
            StreamSpec(relation=rel, rate=20.0, attributes={"a": uniform_domain(5)})
            for rel in "RS"
        ]
        streams, _ = generate_streams(specs, 4.0, seed=2)
        return bounded_delay_feed(streams, max_delay=1.0, seed=2)

    def test_first_ts_is_the_earliest_timestamp_not_the_first_arrival(self):
        feed = self.disordered_feed()
        earliest = min(t.trigger_ts for t in feed)
        assert feed[0].trigger_ts > earliest  # the feed is out of order
        one = EpochStatistics(epoch=0)
        for tup in feed:
            one.observe(tup)
        many = EpochStatistics(epoch=0)
        many.observe_many(feed)
        for stats in (one, many):
            assert stats.first_ts == earliest
            assert stats.last_ts == max(t.trigger_ts for t in feed)

    def test_observe_agrees_with_merge(self):
        """A merged (sharded) statistic equals the single-process one."""
        feed = self.disordered_feed()
        whole = EpochStatistics(epoch=0)
        for tup in feed:
            whole.observe(tup)
        parts = [EpochStatistics(epoch=0) for _ in range(3)]
        for i, tup in enumerate(feed):
            parts[i % 3].observe(tup)
        merged = EpochStatistics(epoch=0)
        for part in parts:
            merged.merge(part)
        assert (merged.first_ts, merged.last_ts) == (whole.first_ts, whole.last_ts)
        assert merged.counts == whole.counts
        assert merged.histograms == whole.histograms


# ----------------------------------------------------------------------
# the chunk contract of JoinSession.push_batch
# ----------------------------------------------------------------------
def session(**kwargs):
    kwargs.setdefault("window", 100.0)
    kwargs.setdefault("solver", "scipy")
    return JoinSession(**kwargs).add_query("q", "R.a=S.a")


def valid_items(n, start=0.0):
    return [("RS"[i % 2], {"a": i % 3}, start + i) for i in range(n)]


def ingested(s):
    """(pushed, engine inputs, observed, recorded) — must agree."""
    return (
        s.pushed,
        s.metrics.inputs_ingested,
        sum(s._loop.stats.counts.values()),
        sum(len(tups) for tups in s._history.values()),
    )


class TestRaiseAtItemK:
    K = 5

    def bad_items(self):
        """One kind of bad item per case, with what it raises."""
        intermediate = input_tuple("R", 0.5, {"a": 0}).merge(
            input_tuple("S", 0.5, {"a": 0})
        )
        return {
            "unknown relation": (("X", {"a": 1}, 50.0), UnknownRelationError),
            "intermediate": (intermediate, SessionError),
            "non-finite ts": (("R", {"a": 1}, math.inf), SessionError),
            "unhashable": (("R", {"a": [1]}, 50.0), SessionError),
            "late": (("R", {"a": 1}, 1.5), LateTupleError),
        }

    @pytest.mark.parametrize(
        "kind",
        ["unknown relation", "intermediate", "non-finite ts", "unhashable", "late"],
    )
    def test_items_before_k_stay_ingested_observed_counted_recorded(self, kind):
        bad, error = self.bad_items()[kind]
        s = session()
        s.push("R", {"a": 0}, ts=0.0)  # the runtime exists from here on
        items = valid_items(self.K, start=1.0)
        items.append(bad)
        items.extend(valid_items(4, start=60.0))
        with pytest.raises(error):
            s.push_batch(items)
        assert ingested(s) == (1 + self.K,) * 4
        # the batch did not stop the session: later pushes go through
        s.push_batch(valid_items(2, start=70.0))
        assert ingested(s) == (3 + self.K,) * 4
        assert s.verify(raise_on_mismatch=True).ok

    def test_failed_engine_refuses_the_whole_batch(self):
        s = session(runtime_config=RuntimeConfig(memory_limit_units=2.0))
        with pytest.raises(EngineFailedError):
            s.push_batch(valid_items(10))
        before = ingested(s)
        with pytest.raises(EngineFailedError, match="no longer accepts"):
            s.push_batch(valid_items(3, start=20.0))
        assert ingested(s) == before

    def test_the_item_that_fails_the_engine_is_ingested_and_raises(self):
        items = valid_items(10)
        one = session(runtime_config=RuntimeConfig(memory_limit_units=2.0))
        with pytest.raises(EngineFailedError, match="failed processing"):
            for relation, values, ts in items:
                one.push(relation, values, ts)
        batch = session(runtime_config=RuntimeConfig(memory_limit_units=2.0))
        with pytest.raises(EngineFailedError, match="failed processing"):
            batch.push_batch(items)
        tipped = one.pushed
        assert 0 < tipped < len(items)
        assert ingested(batch) == ingested(one) == (tipped,) * 4
        assert stats_state(batch._loop.stats) == stats_state(one._loop.stats)

    @pytest.mark.parametrize("policy", ["drop", "dead_letter"])
    def test_rejected_tuples_are_never_observed(self, policy):
        s = session(disorder_bound=1.0)
        items = valid_items(6, start=10.0)
        items.insert(3, ("R", {"a": 9}, 2.0))  # beyond the bound
        s.push_batch(items, on_late=policy)
        assert ingested(s) == (6,) * 4
        assert 9 not in s._loop.stats.histograms["R.a"]
        assert len(s.dead_letters()) == (policy == "dead_letter")


class TestFoldedBeforeEveryRead:
    def feed(self):
        """RSTU streams whose S.b / T.b domain collapses halfway, so the
        periodic decisions see different statistics epoch to epoch."""
        rng = random.Random(5)
        items, t = [], 0.0
        attrs = {"R": "a", "S": "ab", "T": "bc", "U": "c"}
        for _ in range(600):
            t += rng.random() * 0.04
            relation = rng.choice("RSTU")
            domain = 2 if t > 6.0 else 30
            items.append(
                (
                    relation,
                    {a: rng.randint(0, domain if a == "b" else 10) for a in attrs[relation]},
                    t,
                )
            )
        return items

    def run(self, chunk):
        s = JoinSession(
            window=1.0, solver="scipy", reoptimize_every=1.0, stats_window=2
        ).add_query("q", "R.a=S.a", "S.b=T.b", "T.c=U.c")
        s.add_query("p", "S.b=T.b", "T.c=U.c")
        out = []
        s.subscribe("q", lambda r: out.append(r.key()))
        items = self.feed()
        if chunk == 1:
            for relation, values, ts in items:
                s.push(relation, values, ts)
        else:
            for i in range(0, len(items), chunk):
                s.push_batch(items[i : i + chunk])
        s.flush()
        return s, out

    def test_decisions_equal_pushing_one_at_a_time(self):
        one, one_out = self.run(chunk=1)
        batch, batch_out = self.run(chunk=53)  # boundaries fall mid-chunk
        assert len(one.decisions) >= 8
        assert batch.decisions == one.decisions
        assert batch._loop.current_epoch == one._loop.current_epoch
        assert [stats_state(c) for c in batch._loop.closed] == [
            stats_state(c) for c in one._loop.closed
        ]
        assert stats_state(batch._loop.stats) == stats_state(one._loop.stats)
        assert batch.plan.describe() == one.plan.describe()
        assert batch_out == one_out
        assert batch.verify(raise_on_mismatch=True).ok

    def test_statistics_fold_before_the_boundary_decides(self):
        """The boundary-crossing item finds the chunk's earlier tuples in
        the epoch it closes."""
        s = JoinSession(
            window=5.0, solver="scipy", reoptimize_every=1.0
        ).add_query("q", "R.a=S.a")
        seen = []
        measure = s._loop.measure

        def spy(stats, elapsed):
            seen.append(sum(stats.counts.values()))
            return measure(stats, elapsed)

        s._loop.measure = spy
        s.push_batch([("R", {"a": 1}, 0.1), ("S", {"a": 1}, 0.2), ("R", {"a": 2}, 0.3)])
        s.push_batch([("S", {"a": 2}, 0.4), ("R", {"a": 1}, 0.9), ("S", {"a": 1}, 1.2)])
        assert seen == [5]

    @pytest.mark.parametrize("batched", [False, True])
    def test_a_subscriber_replanning_mid_batch_sees_the_batch_so_far(self, batched):
        """The R–S result emits while R@2 is delivered, and its subscriber
        adds a query: the replan measures R@0 and S@1, in a batch as one
        push at a time."""
        s = JoinSession(window=10.0, solver="scipy", default_rate=123.0)
        s.add_query("q", "R.a=S.a")

        def add_p(_result):
            if "p" not in s.queries:
                s.add_query("p", "S.b=T.b")

        s.subscribe("q", add_p)
        items = [
            ("R", {"a": 1}, 0.0),
            ("S", {"a": 1, "b": 2}, 1.0),
            ("R", {"a": 2}, 2.0),
            ("T", {"b": 2}, 3.0),
        ]
        if batched:
            s.push_batch(items)
        else:
            for item in items:
                s.push(*item)
        assert (s.catalog.rate("R"), s.catalog.rate("S")) == (1.0, 1.0)
        assert s.catalog.rate("T") == 123.0

    def test_a_checkpoint_taken_mid_batch_holds_the_batch_so_far(self, tmp_path):
        path = tmp_path / "mid.snap"
        s = JoinSession(window=10.0, solver="scipy").add_query("q", "R.a=S.a")

        def checkpoint(_result):
            if not path.exists():
                s.checkpoint(path)

        s.subscribe("q", checkpoint)
        s.push_batch([("R", {"a": 1}, 0.0), ("S", {"a": 1}, 1.0), ("R", {"a": 2}, 2.0)])
        restored = JoinSession.restore(path)
        assert restored.pushed == 2
        assert restored._loop.stats.counts == {"R": 1, "S": 1}

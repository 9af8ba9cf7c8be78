"""The arrival contract has one owner: :class:`repro.engine.ingress.Ingress`.

Unit cases pin each verb of the contract; the property at the end is the
"one contract" claim as an executable statement — every way into the
engine (bare runtime, sharded driver, session, session behind a warmup
buffer) hands the same feed the same verdicts, and only the sharded
driver, whose merge reads them, hands out arrival seqs.
Result parity across those axes is ``test_differential.py``'s job and is
not repeated here.
"""

import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import JoinSession
from repro.engine import (
    Ingress,
    LateArrivalError,
    RuntimeConfig,
    ShardedRuntime,
    TopologyRuntime,
    input_tuple,
)
from repro.service.snapshot import (
    SNAPSHOT_MAGIC,
    SNAPSHOT_VERSION,
    SnapshotError,
    read_snapshot,
)
from tests.engine.test_watermarks import small_topology

NEG_INF = float("-inf")


def tup(relation, ts):
    return input_tuple(relation, ts, {"a": 1})


class TestOrdered:
    def test_non_decreasing_timestamps_are_admitted(self):
        ingress = Ingress()
        feed = [tup("R", 1.0), tup("S", 1.0), tup("R", 2.5)]
        for item in feed:
            ingress.admit(item)
        assert ingress.last_ts == 2.5
        # only the sharded driver's merge reads arrival seqs: by default
        # none are handed out
        assert [t.seq for t in feed] == [0, 0, 0] and ingress.seq == 0

    def test_an_owner_that_orders_by_seq_gets_them(self):
        ingress = Ingress()
        ingress.sequence = True  # what the sharded driver sets for its merge
        feed = [tup("R", 1.0), tup("S", 1.0), tup("R", 2.5)]
        for item in feed:
            ingress.admit(item)
        assert [t.seq for t in feed] == [1, 2, 3]

    def test_regression_is_rejected_before_any_mutation(self):
        ingress = Ingress()
        ingress.admit(tup("R", 2.0))
        before = ingress.dump()
        with pytest.raises(LateArrivalError, match="sorted"):
            ingress.admit(tup("S", 1.5))
        with pytest.raises(LateArrivalError):
            ingress.check("S", 1.5)
        assert ingress.dump() == before

    def test_ordered_mode_has_no_floor(self):
        ingress = Ingress()
        ingress.admit(tup("R", 5.0))
        ingress.floor(["R"], ["R", "S"])
        assert ingress.stream_high == {"R": 5.0}


class TestWatermarkBound:
    def test_bound_is_per_stream(self):
        ingress = Ingress(bound=1.0)
        assert not ingress.sequence  # watermark mode numbers nothing either
        ingress.sequence = True
        ingress.admit(tup("R", 5.0))
        ingress.admit(tup("S", 2.0))  # S's own high water is what counts
        ingress.admit(tup("R", 4.0))  # lag 1.0 == bound: still in
        late = tup("R", 3.9)
        with pytest.raises(LateArrivalError, match="disorder_bound=1"):
            ingress.admit(late)
        assert late.seq == 0 and ingress.seq == 3  # refused: not numbered
        assert ingress.stream_high == {"R": 5.0, "S": 2.0}
        assert ingress.last_ts == 5.0  # max admitted, in watermark mode too

    def test_watermark_is_min_high_water_minus_bound(self):
        ingress = Ingress(bound=1.0)
        assert ingress.watermark(["R", "S"]) == NEG_INF
        ingress.admit(tup("R", 5.0))
        assert ingress.watermark(["R", "S"]) == NEG_INF  # S unseen
        ingress.admit(tup("S", 3.0))
        assert ingress.watermark(["R", "S"]) == 2.0
        assert ingress.watermark([]) == NEG_INF

    def test_grace_is_read_through_lag(self):
        """The session runs the engine at D + L and classifies what rode
        the grace L by the lag against D."""
        bound, grace = 1.0, 0.5
        ingress = Ingress(bound=bound + grace)
        ingress.admit(tup("R", 5.0))
        assert ingress.lag("S", 1.0) == NEG_INF  # unseen stream: never late
        in_bound, in_grace = tup("R", 4.2), tup("R", 3.6)
        for item in (in_bound, in_grace):
            ingress.admit(item)
        assert ingress.lag("R", 4.2) <= bound < ingress.lag("R", 3.6)
        with pytest.raises(LateArrivalError):
            ingress.check("R", 3.4)  # beyond D + L


class TestFloorAndAbsorb:
    def test_floor_lifts_new_and_returning_streams_to_the_watermark(self):
        ingress = Ingress(bound=1.0)
        ingress.admit(tup("R", 2.0))  # R is then released by a rewire ...
        ingress.admit(tup("S", 10.0))
        ingress.floor(["S"], ["R", "S", "T"])  # ... and returns, T is new
        assert ingress.stream_high == {"R": 10.0, "S": 10.0, "T": 10.0}
        with pytest.raises(LateArrivalError):
            ingress.check("R", 8.5)
        ingress.check("T", 9.0)

    def test_floor_is_a_no_op_while_the_watermark_is_unknown(self):
        ingress = Ingress(bound=1.0)
        ingress.admit(tup("R", 4.0))
        ingress.floor(["R", "S"], ["R", "S", "T"])
        assert ingress.stream_high == {"R": 4.0}

    def test_absorb_never_lowers(self):
        ingress = Ingress(bound=1.0)
        ingress.admit(tup("R", 5.0))
        ingress.absorb({"R": 3.0, "S": 2.0})
        assert ingress.stream_high == {"R": 5.0, "S": 2.0}
        ingress.absorb({"R": 6.0})
        assert ingress.stream_high["R"] == 6.0


class TestSequence:
    def test_a_carried_seq_is_renumbered(self):
        """Whatever a tuple carries (left over from an earlier run, ahead
        of the counter or behind it), a numbering ingress hands out the
        next number: the sequence is the call order."""
        ingress = Ingress(bound=1.0)
        ingress.sequence = True
        feed = [tup("R", ts) for ts in (1.0, 1.1, 1.2)]
        feed[0].seq, feed[1].seq = 7, 2
        for item in feed:
            ingress.admit(item)
        assert [t.seq for t in feed] == [1, 2, 3]


class TestDumpLoad:
    def test_round_trip_continues_identically(self):
        feed = [("R", 5.0), ("S", 4.0), ("R", 4.5), ("S", 6.0)]
        tail = [("R", 3.0), ("S", 5.5), ("R", 7.0)]
        live = Ingress(bound=1.0)
        live.sequence = True
        for relation, ts in feed:
            live.admit(tup(relation, ts))
        resumed = Ingress(bound=1.0)
        resumed.sequence = True
        resumed.load(pickle.loads(pickle.dumps(live.dump())))
        assert resumed.dump() == live.dump()
        assert verdicts(live, tail) == verdicts(resumed, tail) == [0, 5, 6]


def verdicts(ingress, feed):
    """Arrival seq per fed tuple, 0 where the ingress refused it."""
    out = []
    for relation, ts in feed:
        item = tup(relation, ts)
        try:
            ingress.admit(item)
        except LateArrivalError:
            pass
        out.append(item.seq)
    return out


class TestSnapshotLayout:
    def test_engine_dump_has_one_ingress_section_and_session_none(self, tmp_path):
        session = JoinSession(window=4.0, disorder_bound=1.0)
        session.add_query("q", "R.a=S.a")
        session.push("R", {"a": 1}, 5.0).push("S", {"a": 1}, 4.5)
        payload = session._snapshot_state()
        assert payload["engine"]["ingress"] == {
            "last_ts": 5.0,
            "stream_high": {"R": 5.0, "S": 4.5},
            "seq": 0,  # the layout keeps it; a single process never numbers
        }
        for retired in ("arrival_seq", "stream_high", "last_ts"):
            assert retired not in payload["engine"]
            assert retired not in payload["ingest"]
        assert "first_ts" not in payload["ingest"]

    def test_version_1_snapshot_is_refused_by_name(self, tmp_path):
        assert SNAPSHOT_VERSION == 7
        path = tmp_path / "v1.snap"
        with open(path, "wb") as handle:
            pickle.dump(
                {"magic": SNAPSHOT_MAGIC, "version": 1, "payload": {"ingest": {}}},
                handle,
            )
        with pytest.raises(SnapshotError, match="payload version 1"):
            read_snapshot(path)
        with pytest.raises(SnapshotError, match="payload version 1"):
            JoinSession.restore(path)

    def test_version_2_snapshot_is_refused_by_name(self, tmp_path):
        """v2 payloads pickle a RuntimeConfig with mode/profile/num_machines
        and store tasks with ``next_free``; there is no cross-version reader."""
        path = tmp_path / "v2.snap"
        with open(path, "wb") as handle:
            pickle.dump(
                {"magic": SNAPSHOT_MAGIC, "version": 2, "payload": {"ingest": {}}},
                handle,
            )
        with pytest.raises(SnapshotError, match="payload version 2"):
            JoinSession.restore(path)

    def test_version_3_snapshot_is_refused_by_name(self, tmp_path):
        """v3 container dumps have no composite indexes, attribute-only code
        columns and an ``active_attrs`` list; there is no cross-version reader."""
        path = tmp_path / "v3.snap"
        with open(path, "wb") as handle:
            pickle.dump(
                {"magic": SNAPSHOT_MAGIC, "version": 3, "payload": {"ingest": {}}},
                handle,
            )
        with pytest.raises(SnapshotError, match="payload version 3"):
            JoinSession.restore(path)

    def test_version_4_snapshot_is_refused_by_name(self, tmp_path):
        """v4 task dumps hold a ``containers`` map keyed by epoch and the
        auto-backend keys, engine dumps an ``epoch``; no cross-version reader."""
        path = tmp_path / "v4.snap"
        with open(path, "wb") as handle:
            pickle.dump(
                {"magic": SNAPSHOT_MAGIC, "version": 4, "payload": {"ingest": {}}},
                handle,
            )
        with pytest.raises(SnapshotError, match="payload version 4"):
            JoinSession.restore(path)

    def test_version_5_snapshot_is_refused_by_name(self, tmp_path):
        """v5 payloads pickle ``EngineMetrics`` with the per-result
        ``latencies`` / ``latency_samples`` lists, which would load and then
        be carried forever; there is no cross-version reader."""
        path = tmp_path / "v5.snap"
        with open(path, "wb") as handle:
            pickle.dump(
                {"magic": SNAPSHOT_MAGIC, "version": 5, "payload": {"ingest": {}}},
                handle,
            )
        with pytest.raises(SnapshotError, match="payload version 5"):
            read_snapshot(path)
        with pytest.raises(SnapshotError, match="payload version 5"):
            JoinSession.restore(path)

    def test_version_6_snapshot_is_refused_by_name(self, tmp_path):
        """v6 payloads hold one ``plan`` that was both the installed plan and
        the decision baseline, and pending topologies without their plans;
        there is no cross-version reader."""
        path = tmp_path / "v6.snap"
        with open(path, "wb") as handle:
            pickle.dump(
                {"magic": SNAPSHOT_MAGIC, "version": 6, "payload": {"ingest": {}}},
                handle,
            )
        with pytest.raises(SnapshotError, match="payload version 6"):
            read_snapshot(path)
        with pytest.raises(SnapshotError, match="payload version 6"):
            JoinSession.restore(path)


# ----------------------------------------------------------------------
# one contract, four ways in
# ----------------------------------------------------------------------
_QUERY, _TOPOLOGY, _WINDOWS, *_ = small_topology()


@st.composite
def disordered_feeds(draw):
    """A bounded-disorder feed with injected stragglers.

    Event time advances per arrival; each tuple then steps back by a
    jitter that is usually inside the bound and now and then far beyond
    it.  ``bound=None`` is ordered mode, where any step back is late.
    """
    bound = draw(st.sampled_from([None, 0.0, 0.5, 2.0]))
    size = draw(st.integers(min_value=1, max_value=40))
    feed, clock = [], 0.0
    for index in range(size):
        clock += draw(st.floats(min_value=0.0, max_value=1.0))
        straggler = draw(st.integers(min_value=0, max_value=5)) == 0
        back = draw(
            st.floats(min_value=0.0, max_value=6.0 if straggler else (bound or 0.0))
        )
        relation = draw(st.sampled_from(["R", "S"]))
        # distinct timestamps: the index breaks ties far below any bound
        feed.append((relation, round(clock - back, 3) + index * 1e-6))
    return bound, feed


def run_engine(make, feed):
    """Feed fresh tuples through one engine, one at a time.

    Returns per tuple whether it was admitted (the engine's input count
    moved) and its arrival seq, plus the engine's ``late_dropped``.
    """
    engine = make()
    try:
        verdicts, seqs = [], []
        for relation, ts in feed:
            item = tup(relation, ts)
            before = push(engine, item)
            verdicts.append(push(engine, None) - before)
            seqs.append(item.seq)
        return verdicts, seqs, finish(engine).late_dropped
    finally:
        engine.close()


def push(engine, item):
    """Push ``item`` (if any); the number of inputs taken in *before* it."""
    if isinstance(engine, JoinSession):
        before = engine.pushed
        if item is not None:
            engine.push_batch([item])
        return before
    before = engine.metrics.inputs_ingested
    if item is not None:
        engine.process(item)
    return before


def finish(engine):
    if isinstance(engine, JoinSession):
        # a warmup longer than the feed is still buffering: end it, so the
        # buffer-time verdicts are folded into the metrics being compared
        return engine.start().flush().metrics
    engine.flush()
    return engine.metrics


@settings(max_examples=60, deadline=None)
@given(disordered_feeds(), st.integers(min_value=1, max_value=45))
def test_every_entry_point_reaches_the_same_verdicts_and_seqs(case, warmup):
    bound, feed = case

    def runtime(cls, **kwargs):
        config = RuntimeConfig(disorder_bound=bound, on_late="drop", **kwargs)
        if cls is ShardedRuntime:
            return cls(_TOPOLOGY, _WINDOWS, config, transport="inline")
        return cls(_TOPOLOGY, _WINDOWS, config)

    def session(**kwargs):
        made = JoinSession(
            window=4.0, solver="greedy", disorder_bound=bound, on_late="drop", **kwargs
        )
        return made.add_query(_QUERY)

    bare, sharded, live, warmed = (
        run_engine(make, feed)
        for make in (
            lambda: runtime(TopologyRuntime),
            lambda: runtime(ShardedRuntime, workers=2),
            session,
            lambda: session(warmup=warmup),
        )
    )
    verdicts, seqs, dropped = sharded
    # admitted tuples are numbered 1..n in arrival order, refused ones not
    admitted = [seq for seq in seqs if seq]
    assert admitted == list(range(1, len(admitted) + 1))
    assert [bool(seq) for seq in seqs] == [bool(v) for v in verdicts]
    assert dropped == len(feed) - len(admitted)
    # only the sharded driver's merge reads seqs, so only it hands them
    # out, in both modes: the verdicts are what everyone must share
    seqs = [0] * len(feed)
    assert bare == live == warmed == (verdicts, seqs, dropped)

"""Unit tests for the out-of-order arrival subsystem (watermark mode).

The differential harness proves whole-run result equality; these tests pin
the individual mechanisms: config validation, probes without an arrival
rule, per-stream watermark tracking, bound enforcement, and the
late-straggler join.
"""

import pytest

from repro.core import (
    ClusterConfig,
    OptimizerConfig,
    Query,
    StatisticsCatalog,
    build_topology,
)
from repro.core.adaptive import AdaptiveController
from repro.core.optimizer import MultiQueryOptimizer
from repro.engine import (
    AdaptiveRuntime,
    Container,
    LateArrivalError,
    RuntimeConfig,
    ShardedRuntime,
    TopologyRuntime,
    input_tuple,
    orient_predicates,
    probe_batch,
)
from repro.core.predicates import JoinPredicate


def small_topology(parallelism: int = 1):
    query = Query.of("q", "R.a=S.a")
    windows = {"R": 4.0, "S": 4.0}
    catalog = StatisticsCatalog(default_selectivity=0.1, default_window=4.0)
    for rel in ("R", "S"):
        catalog.with_rate(rel, 10.0).with_window(rel, windows[rel])
    config = OptimizerConfig(cluster=ClusterConfig(default_parallelism=parallelism))
    optimizer = MultiQueryOptimizer(catalog, config, solver="scipy")
    topology = build_topology(
        optimizer.optimize([query]).plan, catalog, config.cluster
    )
    return query, topology, windows, catalog, config


class TestConfigValidation:
    def test_negative_bound_rejected(self):
        with pytest.raises(ValueError, match=">= 0"):
            RuntimeConfig(disorder_bound=-0.5)

    def test_zero_bound_allowed(self):
        assert RuntimeConfig(disorder_bound=0.0).disorder_bound == 0.0

    def test_adaptive_runtime_accepts_disorder(self):
        """Epoch re-optimization works on watermark-time runtimes: a
        disordered feed crosses an epoch boundary and the late straggler
        still joins (the adaptive runtime used to reject disorder_bound
        outright; the differential suite proves oracle parity)."""
        query, topology, windows, catalog, config = small_topology()
        controller = AdaptiveController(catalog, [query], config, solver="scipy")
        runtime = AdaptiveRuntime(
            controller,
            windows,
            RuntimeConfig(disorder_bound=1.0),
            epoch_length=2.0,
        )
        feed = [
            input_tuple("S", 1.0, {"a": 1}),
            input_tuple("R", 2.5, {"a": 1}),  # crosses into epoch 1
            input_tuple("R", 1.8, {"a": 1}),  # straggler, 0.7 late
        ]
        runtime.run(feed)
        assert runtime.current_epoch == 1
        results = runtime.results("q")
        assert sorted(r.timestamps["R"] for r in results) == [1.8, 2.5]


class TestProbeHasNoArrivalRule:
    def test_merge_propagates_max_seq(self):
        r = input_tuple("R", 2.0, {"a": 1})
        s = input_tuple("S", 5.0, {"a": 1})
        r.seq, s.seq = 7, 3
        assert r.merge(s).seq == 7
        assert s.merge(r).seq == 7

    def test_event_later_stored_partner_joins(self):
        """A stored partner with a *later* event timestamp arrived first (it
        is stored): the probe joins it, whatever the tuples' ``seq``."""
        cont = Container()
        cont.insert(input_tuple("S", 9.0, {"a": 1}))
        probe = input_tuple("R", 2.0, {"a": 1})
        oriented = orient_predicates(
            (JoinPredicate.of("R.a", "S.a"),), probe.lineage
        )
        results, _ = probe_batch(cont, (probe,), oriented, {})
        assert [r.timestamps for r in results] == [{"R": 2.0, "S": 9.0}]


class TestWatermarkRuntime:
    def test_late_straggler_still_joins(self):
        """R arrives *after* S despite an earlier event timestamp; the
        result must still be produced (triggered by the late arrival)."""
        query, topology, windows, *_ = small_topology()
        runtime = TopologyRuntime(
            topology, windows, RuntimeConfig(disorder_bound=2.0)
        )
        feed = [
            input_tuple("S", 5.0, {"a": 1}),
            input_tuple("R", 4.0, {"a": 1}),  # straggler, 1.0 late
        ]
        runtime.run(feed)
        results = runtime.results("q")
        assert len(results) == 1
        assert results[0].timestamps == {"R": 4.0, "S": 5.0}

    def test_in_order_mode_rejects_unsorted_feed(self):
        query, topology, windows, *_ = small_topology()
        runtime = TopologyRuntime(topology, windows, RuntimeConfig())
        feed = [
            input_tuple("S", 5.0, {"a": 1}),
            input_tuple("R", 4.0, {"a": 1}),
        ]
        with pytest.raises(ValueError, match="sorted"):
            runtime.run(feed)

    def test_straggler_beyond_bound_rejected(self):
        query, topology, windows, *_ = small_topology()
        runtime = TopologyRuntime(
            topology, windows, RuntimeConfig(disorder_bound=0.5)
        )
        feed = [
            input_tuple("R", 5.0, {"a": 1}),
            input_tuple("R", 4.0, {"a": 2}),  # 1.0 behind high water
        ]
        with pytest.raises(ValueError, match="disorder_bound"):
            runtime.run(feed)

    def test_watermark_is_min_over_streams_minus_bound(self):
        query, topology, windows, *_ = small_topology()
        runtime = TopologyRuntime(
            topology, windows, RuntimeConfig(disorder_bound=1.0)
        )
        # nothing seen yet: nothing may be evicted
        assert runtime.watermark() == float("-inf")
        runtime.run([input_tuple("R", 5.0, {"a": 1})])
        # S has produced nothing: its stragglers are unbounded
        assert runtime.watermark() == float("-inf")
        runtime.run([input_tuple("S", 3.0, {"a": 1})])
        assert runtime.watermark() == 3.0 - 1.0

    def test_equal_timestamps_join_in_both_modes(self):
        query, topology, windows, *_ = small_topology()
        for bound in (None, 0.0, 2.0):
            runtime = TopologyRuntime(
                topology, windows, RuntimeConfig(disorder_bound=bound)
            )
            runtime.run(
                [
                    input_tuple("R", 1.0, {"a": 1}),
                    input_tuple("S", 1.0, {"a": 1}),
                    input_tuple("S", 1.0, {"a": 2}),
                    input_tuple("R", 1.0, {"a": 2}),
                ]
            )
            got = sorted(r.get("R.a") for r in runtime.results("q"))
            assert got == [1, 2], bound


class TestBareRuntimeLateDrop:
    """A bare runtime always raises :class:`LateArrivalError`; the
    rejection precedes every state mutation, so a caller that catches it
    and goes on drops the straggler as a session's ``on_late="drop"``
    does."""

    def _feed(self):
        """Watermark-mode feed with two genuine stragglers (bound 1.0)."""
        return [
            input_tuple("R", 5.0, {"a": 1}),
            input_tuple("S", 5.0, {"a": 1}),
            input_tuple("R", 3.5, {"a": 1}),  # late: lags R high 5.0 by 1.5
            input_tuple("S", 4.5, {"a": 1}),  # in bound
            input_tuple("R", 2.0, {"a": 1}),  # late
        ]

    def _run_catching(self, runtime):
        """Process the feed, catching each rejection; returns how many."""
        caught = 0
        for tup in self._feed():
            before = runtime.metrics.inputs_ingested
            try:
                runtime.process(tup)
            except LateArrivalError:
                caught += 1
                # refused before any state changed: not ingested
                assert runtime.metrics.inputs_ingested == before
        runtime.flush()
        return caught

    @pytest.mark.parametrize("workers", [1, 2])
    def test_caught_stragglers_are_skipped(self, workers):
        query, topology, windows, *_ = small_topology()
        config = RuntimeConfig(disorder_bound=1.0, workers=workers)
        if workers == 1:
            runtime = TopologyRuntime(topology, windows, config)
        else:
            runtime = ShardedRuntime(topology, windows, config, transport="inline")
        with runtime:
            assert self._run_catching(runtime) == 2
            # the caught tuples were never ingested nor joined
            assert runtime.metrics.inputs_ingested == 3
            assert runtime.metrics.late_dropped == 0  # the caller's count
            # S@5.0 and S@4.5 each join R@5.0 (seq visibility); the
            # refused R stragglers produce nothing
            assert len(runtime.results("q")) == 2

    def test_raise_is_the_only_policy(self):
        query, topology, windows, *_ = small_topology()
        runtime = TopologyRuntime(
            topology, windows, RuntimeConfig(disorder_bound=1.0)
        )
        with pytest.raises(LateArrivalError):
            runtime.run(self._feed())

    def test_catch_and_continue_parity_with_session_drop(self):
        """Catching the bare runtime's rejections and the session's
        ``on_late="drop"`` skip the same tuples: same count, same result
        set, same ingested inputs."""
        from repro import JoinSession
        from repro.engine import result_keys

        query, topology, windows, *_ = small_topology()
        runtime = TopologyRuntime(
            topology, windows, RuntimeConfig(disorder_bound=1.0)
        )
        caught = self._run_catching(runtime)

        session = JoinSession(window=4.0, disorder_bound=1.0, on_late="drop")
        session.add_query("q", "R.a=S.a")
        for tup in self._feed():
            session.push(tup.trigger, {"a": tup.values[f"{tup.trigger}.a"]},
                         ts=tup.trigger_ts)
        session.flush()
        assert session.metrics.late_dropped == caught == 2
        assert result_keys(session.results("q")) == result_keys(
            runtime.results("q")
        )
        assert (
            session.metrics.inputs_ingested == runtime.metrics.inputs_ingested
        )

"""Engine integration tests: correctness against the brute-force reference.

The central invariant (DESIGN.md §6): in logical mode, the engine's result
set over any workload equals the reference windowed join — for single- and
multi-query topologies, with and without MIR stores, under any partitioning.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    ClusterConfig,
    JoinPredicate,
    OptimizerConfig,
    Query,
    StatisticsCatalog,
    build_topology,
)
from repro.core.optimizer import MultiQueryOptimizer
from repro.engine import (
    RuntimeConfig,
    TopologyRuntime,
    input_tuple,
    reference_join,
    result_keys,
)

ATTRS = {"R": ["a"], "S": ["a", "b"], "T": ["b", "c"], "U": ["c"]}


def make_streams(seed, n, domain=6, rels="RSTU", rate_step=0.2):
    rng = random.Random(seed)
    streams = {r: [] for r in rels}
    inputs = []
    t = 0.0
    for _ in range(n):
        t += rng.random() * rate_step
        rel = rng.choice(rels)
        vals = {a: rng.randint(0, domain) for a in ATTRS[rel]}
        tup = input_tuple(rel, t, vals)
        streams[rel].append(tup)
        inputs.append(tup)
    return streams, inputs


def optimize_and_run(queries, catalog, inputs, windows, parallelism=2, **cfg_kwargs):
    cfg = OptimizerConfig(
        cluster=ClusterConfig(default_parallelism=parallelism), **cfg_kwargs
    )
    opt = MultiQueryOptimizer(catalog, cfg, solver="own")
    res = opt.optimize(queries)
    topo = build_topology(res.plan, catalog, cfg.cluster)
    rt = TopologyRuntime(topo, windows, RuntimeConfig())
    rt.run(inputs)
    return rt, res


def base_catalog(window=8.0):
    cat = StatisticsCatalog(default_selectivity=0.05, default_window=window)
    for r in "RSTU":
        cat.with_rate(r, 10.0)
    return cat


class TestLogicalCorrectness:
    def test_two_way_join(self):
        q = Query.of("q", "R.a=S.a")
        streams, inputs = make_streams(1, 200, rels="RS")
        windows = {"R": 8.0, "S": 8.0}
        rt, _ = optimize_and_run([q], base_catalog(), inputs, windows)
        assert result_keys(rt.results("q")) == result_keys(
            reference_join(q, streams, windows)
        )

    def test_three_way_linear(self):
        q = Query.of("q", "R.a=S.a", "S.b=T.b")
        streams, inputs = make_streams(2, 250, rels="RST")
        windows = {r: 8.0 for r in "RST"}
        rt, _ = optimize_and_run([q], base_catalog(), inputs, windows)
        assert result_keys(rt.results("q")) == result_keys(
            reference_join(q, streams, windows)
        )

    def test_multi_query_shared(self):
        q1 = Query.of("q1", "R.a=S.a", "S.b=T.b")
        q2 = Query.of("q2", "S.b=T.b", "T.c=U.c")
        streams, inputs = make_streams(3, 300)
        windows = {r: 8.0 for r in "RSTU"}
        rt, _ = optimize_and_run([q1, q2], base_catalog(), inputs, windows)
        for q in (q1, q2):
            assert result_keys(rt.results(q.name)) == result_keys(
                reference_join(q, streams, windows)
            )

    def test_mir_store_plan_is_exact(self):
        """Force MIR materialization and verify deliveries produce the
        complete store content (maintenance from every input relation)."""
        q1 = Query.of("q1", "R.b=S.b", "S.c=T.c")
        q2 = Query.of("q2", "S.c=T.c", "T.d=U.d")
        cat = StatisticsCatalog(default_selectivity=0.1, default_window=8.0)
        for r in "RSTU":
            cat.with_rate(r, 10.0)
        rng = random.Random(4)
        attrs = {"R": ["b"], "S": ["b", "c"], "T": ["c", "d"], "U": ["d"]}
        streams = {r: [] for r in "RSTU"}
        inputs = []
        t = 0.0
        for _ in range(300):
            t += rng.random() * 0.2
            rel = rng.choice("RSTU")
            tup = input_tuple(rel, t, {a: rng.randint(0, 4) for a in attrs[rel]})
            streams[rel].append(tup)
            inputs.append(tup)
        windows = {r: 8.0 for r in "RSTU"}
        cfg = OptimizerConfig(cluster=ClusterConfig(default_parallelism=3))
        opt = MultiQueryOptimizer(cat, cfg, solver="own")
        res = opt.optimize([q1, q2])
        topo = build_topology(res.plan, cat, cfg.cluster)
        rt = TopologyRuntime(topo, windows, RuntimeConfig())
        rt.run(inputs)
        for q in (q1, q2):
            assert result_keys(rt.results(q.name)) == result_keys(
                reference_join(q, streams, windows)
            )

    def test_unsorted_inputs_rejected(self):
        q = Query.of("q", "R.a=S.a")
        cat = base_catalog()
        _, inputs = make_streams(5, 50, rels="RS")
        rt, _ = optimize_and_run([q], cat, [], {"R": 8.0, "S": 8.0})
        with pytest.raises(ValueError):
            rt.run(list(reversed(inputs)))

    @settings(max_examples=10, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        parallelism=st.integers(1, 4),
        domain=st.integers(2, 8),
    )
    def test_property_engine_equals_reference(self, seed, parallelism, domain):
        q1 = Query.of("q1", "R.a=S.a", "S.b=T.b")
        q2 = Query.of("q2", "S.b=T.b", "T.c=U.c")
        streams, inputs = make_streams(seed, 150, domain=domain)
        windows = {r: 6.0 for r in "RSTU"}
        cat = base_catalog(window=6.0)
        rt, _ = optimize_and_run(
            [q1, q2], cat, inputs, windows, parallelism=parallelism
        )
        for q in (q1, q2):
            assert result_keys(rt.results(q.name)) == result_keys(
                reference_join(q, streams, windows)
            )


class TestMetrics:
    def test_probe_cost_counts_broadcasts(self):
        """Partitioned stores with underivable attrs multiply tuples sent."""
        q = Query.of("q", "R.a=S.a", "S.b=T.b")
        cat = base_catalog()
        streams, inputs = make_streams(6, 200, rels="RST")
        windows = {r: 8.0 for r in "RST"}
        rt1, _ = optimize_and_run([q], cat, inputs, windows, parallelism=1)
        rt4, _ = optimize_and_run([q], cat, inputs, windows, parallelism=4)
        assert rt4.metrics.tuples_sent >= rt1.metrics.tuples_sent

    def test_memory_accounting_tracks_widths(self):
        q = Query.of("q", "R.a=S.a")
        cat = base_catalog()
        _, inputs = make_streams(7, 100, rels="RS")
        rt, _ = optimize_and_run([q], cat, inputs, {"R": 8.0, "S": 8.0})
        assert rt.metrics.peak_stored_units > 0
        assert rt.metrics.peak_stored_units >= rt.metrics.stored_units

    def test_results_per_query_counted(self):
        q = Query.of("q", "R.a=S.a")
        cat = base_catalog()
        streams, inputs = make_streams(8, 150, rels="RS")
        windows = {"R": 8.0, "S": 8.0}
        rt, _ = optimize_and_run([q], cat, inputs, windows)
        assert rt.metrics.results_per_query.get("q", 0) == len(
            reference_join(q, streams, windows)
        )

    def test_logical_latency_zero_under_batching(self):
        """Batched cascades must stamp each result with its own trigger
        instant — logical-mode latency stays exactly 0 (seed semantics)."""
        q = Query.of("q", "R.a=S.a")
        cat = base_catalog()
        streams, inputs = make_streams(12, 200, rels="RS")
        rt, _ = optimize_and_run([q], cat, inputs, {"R": 8.0, "S": 8.0})
        assert rt.metrics.results_emitted > 0
        assert rt.metrics.mean_latency == 0.0
        assert all(lat == 0.0 for lat in rt.metrics.latencies)

    def test_memory_limit_triggers_failure(self):
        q = Query.of("q", "R.a=S.a")
        cat = base_catalog()
        _, inputs = make_streams(9, 200, rels="RS")
        cfg = OptimizerConfig(cluster=ClusterConfig(default_parallelism=1))
        opt = MultiQueryOptimizer(cat, cfg, solver="own")
        res = opt.optimize([q])
        topo = build_topology(res.plan, cat, cfg.cluster)
        rt = TopologyRuntime(
            topo,
            {"R": 8.0, "S": 8.0},
            RuntimeConfig(memory_limit_units=20),
        )
        rt.run(inputs)
        assert rt.metrics.failed
        assert "memory overflow" in rt.metrics.failure_reason

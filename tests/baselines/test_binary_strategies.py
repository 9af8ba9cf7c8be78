"""Tests for binary join pipelines and the FI/SI/FS/SS/CMQO strategies."""

import pytest

from repro.baselines.binary_plan import binary_plan, greedy_join_order
from repro.baselines.strategies import (
    STRATEGIES,
    build_strategy,
    combine_topologies,
)
from repro.core import (
    ClusterConfig,
    JoinPredicate,
    OptimizerConfig,
    Query,
    StatisticsCatalog,
    build_topology,
)
from repro.engine import (
    RuntimeConfig,
    TopologyRuntime,
    reference_join,
    result_keys,
)
from tests.engine.test_runtime import make_streams


@pytest.fixture()
def catalog():
    cat = StatisticsCatalog(default_selectivity=0.01, default_window=8.0)
    for rel in "RSTU":
        cat.with_rate(rel, 10.0)
    return cat


@pytest.fixture()
def queries():
    return [
        Query.of("q1", "R.a=S.a", "S.b=T.b"),
        Query.of("q2", "S.b=T.b", "T.c=U.c"),
    ]


class TestGreedyJoinOrder:
    def test_order_is_permutation(self, catalog):
        q = Query.of("q", "R.a=S.a", "S.b=T.b", "T.c=U.c")
        order = greedy_join_order(q, catalog)
        assert sorted(order) == list(q.relations)

    def test_order_prefixes_connected(self, catalog):
        q = Query.of("q", "R.a=S.a", "S.b=T.b", "T.c=U.c")
        order = greedy_join_order(q, catalog)
        for k in range(2, len(order) + 1):
            assert q.is_subquery_connected(order[:k])

    def test_cheapest_pair_first(self, catalog):
        q = Query.of("q", "R.a=S.a", "S.b=T.b")
        catalog.with_selectivity(JoinPredicate.of("S.b", "T.b"), 0.001)
        order = greedy_join_order(q, catalog)
        assert set(order[:2]) == {"S", "T"}


class TestBinaryPlan:
    def test_plan_covers_all_starts(self, catalog):
        q = Query.of("q", "R.a=S.a", "S.b=T.b", "T.c=U.c")
        plan = binary_plan(q, catalog, ClusterConfig(default_parallelism=2))
        user_groups = [g for g in plan.chosen if g.startswith("q:")]
        assert len(user_groups) == 4

    def test_prefix_stores_materialized(self, catalog):
        q = Query.of("q", "R.a=S.a", "S.b=T.b", "T.c=U.c")
        plan = binary_plan(q, catalog, ClusterConfig(default_parallelism=2))
        mir_sizes = sorted(m.size for m in plan.mir_stores)
        assert mir_sizes == [2, 3]  # every strict prefix of the pipeline

    def test_maintenance_for_every_prefix_input(self, catalog):
        q = Query.of("q", "R.a=S.a", "S.b=T.b", "T.c=U.c")
        plan = binary_plan(q, catalog, ClusterConfig(default_parallelism=2))
        for mir in plan.mir_stores:
            starts = {
                info.decorated.order.start_relation
                for info in plan.maintenance_orders()
                if info.decorated.target == mir
            }
            assert starts == set(mir.relations)

    def test_binary_plan_executes_exactly(self, catalog):
        """The pipeline topology must produce the exact windowed join."""
        q = Query.of("q", "R.a=S.a", "S.b=T.b")
        cluster = ClusterConfig(default_parallelism=2)
        plan = binary_plan(q, catalog, cluster)
        topo = build_topology(plan, catalog, cluster)
        streams, inputs = make_streams(11, 250, rels="RST")
        windows = {r: 8.0 for r in "RST"}
        rt = TopologyRuntime(topo, windows, RuntimeConfig())
        rt.run(inputs)
        assert result_keys(rt.results("q")) == result_keys(
            reference_join(q, streams, windows)
        )

    def test_four_way_binary_plan_executes_exactly(self, catalog):
        q = Query.of("q", "R.a=S.a", "S.b=T.b", "T.c=U.c")
        cluster = ClusterConfig(default_parallelism=2)
        plan = binary_plan(q, catalog, cluster)
        topo = build_topology(plan, catalog, cluster)
        streams, inputs = make_streams(12, 250)
        windows = {r: 8.0 for r in "RSTU"}
        rt = TopologyRuntime(topo, windows, RuntimeConfig())
        rt.run(inputs)
        assert result_keys(rt.results("q")) == result_keys(
            reference_join(q, streams, windows)
        )


class TestStrategies:
    def test_unknown_strategy_rejected(self, queries, catalog):
        with pytest.raises(ValueError):
            build_strategy("BOGUS", queries, catalog)

    def test_profiles_assigned(self, queries, catalog):
        names = {
            s: build_strategy(s, queries, catalog).profile.name
            for s in STRATEGIES
        }
        assert names["FI"] == "flink" and names["FS"] == "flink"
        assert names["SI"] == "storm" and names["SS"] == "storm"
        assert names["CMQO"] == "clash"

    def test_independent_duplicates_stores(self, queries, catalog):
        fi = build_strategy("FI", queries, catalog)
        fs = build_strategy("FS", queries, catalog)
        assert fi.num_stores > fs.num_stores

    def test_cmqo_probe_cost_not_worse_than_shared(self, queries, catalog):
        cluster = ClusterConfig(default_parallelism=1)
        ss = build_strategy("SS", queries, catalog, cluster)
        cfg = OptimizerConfig(
            cluster=cluster, strict_partitioning=False
        )
        cmqo = build_strategy(
            "CMQO", queries, catalog, cluster, optimizer_config=cfg
        )
        assert cmqo.probe_cost <= ss.probe_cost + 1e-9

    def test_every_strategy_is_exact(self, queries, catalog):
        """All five strategies compute identical (correct) result sets."""
        streams, inputs = make_streams(13, 250)
        windows = {r: 8.0 for r in "RSTU"}
        expected = {
            q.name: result_keys(reference_join(q, streams, windows))
            for q in queries
        }
        for strategy in STRATEGIES:
            compiled = build_strategy(
                strategy,
                queries,
                catalog,
                ClusterConfig(default_parallelism=2),
            )
            rt = TopologyRuntime(
                compiled.topology, windows, RuntimeConfig()
            )
            rt.run(inputs)
            for q in queries:
                assert result_keys(rt.results(q.name)) == expected[q.name], (
                    f"strategy {strategy} wrong for {q.name}"
                )


class TestCombineTopologies:
    def test_disjoint_union_namespaces(self, queries, catalog):
        cluster = ClusterConfig(default_parallelism=2)
        plans = [binary_plan(q, catalog, cluster) for q in queries]
        topos = [build_topology(p, catalog, cluster) for p in plans]
        combined = combine_topologies(topos, prefixes=["q1", "q2"])
        assert len(combined.stores) == sum(len(t.stores) for t in topos)
        assert len(combined.edges) == sum(len(t.edges) for t in topos)
        # ingest keyed by raw relation names, fanning out to both queries
        assert any(label.startswith("q1::") for label in combined.ingest["S"])
        assert any(label.startswith("q2::") for label in combined.ingest["S"])

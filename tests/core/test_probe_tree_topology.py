"""Tests for probe-tree merging (Fig. 4) and topology translation (Sec V.B)."""

import pytest

from repro.core.catalog import StatisticsCatalog
from repro.core.ilp_builder import OptimizerConfig
from repro.core.optimizer import MultiQueryOptimizer
from repro.core.partitioning import ClusterConfig
from repro.core.predicates import JoinPredicate
from repro.core.probe_tree import build_probe_trees
from repro.core.query import Query
from repro.core.topology import ProbeRule, StoreRule, build_topology


@pytest.fixture()
def catalog():
    cat = StatisticsCatalog(default_selectivity=0.01, default_window=10.0)
    for rel in "RSTUW":
        cat.with_rate(rel, 100.0)
    return cat


def _optimize(queries, catalog, parallelism=1, enable_mirs=False):
    cfg = OptimizerConfig(
        enable_mirs=enable_mirs,
        cluster=ClusterConfig(default_parallelism=parallelism),
    )
    opt = MultiQueryOptimizer(catalog, cfg)
    return opt.optimize(queries), cfg


class TestProbeTrees:
    def test_shared_prefix_merges(self, catalog):
        """Two queries probing S->T from S share the first tree edge."""
        q1 = Query.of("q1", "R.a=S.a", "S.b=T.b")
        q2 = Query.of("q2", "S.b=T.b", "T.c=U.c")
        res, _ = _optimize([q1, q2], catalog)
        trees = build_probe_trees(res.plan.probe_orders)
        s_tree = trees["S"]
        t_roots = [r for r in s_tree.roots if r.store.display_name == "T"]
        # both q1 (S,T,R) and q2 (S,T,U) go S->T first; merged into one root
        assert len(t_roots) == 1
        children = {c.store.display_name for c in t_roots[0].children}
        assert children == {"R", "U"}

    def test_distinct_predicates_do_not_merge(self, catalog):
        qa = Query.of("qa", "R.a=S.a")
        qb = Query.of("qb", "R.b=S.b")
        res, _ = _optimize([qa, qb], catalog)
        trees = build_probe_trees(res.plan.probe_orders)
        r_tree = trees["R"]
        s_roots = [r for r in r_tree.roots if r.store.display_name == "S"]
        assert len(s_roots) == 2  # different predicates -> separate edges

    def test_outputs_at_terminal_nodes(self, catalog):
        q = Query.of("q", "R.a=S.a", "S.b=T.b")
        res, _ = _optimize([q], catalog)
        trees = build_probe_trees(res.plan.probe_orders)
        for tree in trees.values():
            terminals = [
                node
                for root in tree.roots
                for node in root.walk()
                if not node.children
            ]
            for node in terminals:
                assert node.outputs == ["q"] or node.deliveries

    def test_maintenance_delivery_recorded(self, catalog):
        q1 = Query.of("q1", "R.b=S.b", "S.c=T.c")
        q2 = Query.of("q2", "S.c=T.c", "T.d=U.d")
        res, _ = _optimize([q1, q2], catalog, parallelism=4, enable_mirs=True)
        if not res.plan.mir_stores:
            pytest.skip("optimum does not materialize an MIR here")
        trees = build_probe_trees(res.plan.probe_orders)
        deliveries = [
            d
            for tree in trees.values()
            for root in tree.roots
            for node in root.walk()
            for d in node.deliveries
        ]
        assert {d.canonical_id for d in deliveries} == {
            m.canonical_id for m in res.plan.mir_stores
        }


class TestTopology:
    def test_every_input_has_storage_edge(self, catalog):
        q = Query.of("q", "R.a=S.a", "S.b=T.b")
        res, cfg = _optimize([q], catalog)
        topo = build_topology(res.plan, catalog, cfg.cluster)
        for rel in "RST":
            labels = topo.ingest[rel]
            store_rules = [
                r
                for label in labels
                for r in topo.rules_for(topo.edges[label].target_store, label)
                if isinstance(r, StoreRule)
            ]
            assert len(store_rules) == 1

    def test_probe_rules_have_predicates(self, catalog):
        q = Query.of("q", "R.a=S.a", "S.b=T.b")
        res, cfg = _optimize([q], catalog)
        topo = build_topology(res.plan, catalog, cfg.cluster)
        probe_rules = [
            r
            for ruleset in topo.rulesets.values()
            for rules in ruleset.values()
            for r in rules
            if isinstance(r, ProbeRule)
        ]
        assert probe_rules
        assert all(r.predicates for r in probe_rules)

    def test_outputs_cover_all_queries(self, catalog):
        q1 = Query.of("q1", "R.a=S.a", "S.b=T.b")
        q2 = Query.of("q2", "S.b=T.b", "T.c=U.c")
        res, cfg = _optimize([q1, q2], catalog)
        topo = build_topology(res.plan, catalog, cfg.cluster)
        emitted = {
            name
            for ruleset in topo.rulesets.values()
            for rules in ruleset.values()
            for r in rules
            if isinstance(r, ProbeRule)
            for name in r.outputs
        }
        assert emitted == {"q1", "q2"}

    def test_edges_reference_existing_stores(self, catalog):
        q1 = Query.of("q1", "R.b=S.b", "S.c=T.c")
        q2 = Query.of("q2", "S.c=T.c", "T.d=U.d")
        res, cfg = _optimize([q1, q2], catalog, parallelism=3, enable_mirs=True)
        topo = build_topology(res.plan, catalog, cfg.cluster)
        for edge in topo.edges.values():
            assert edge.target_store in topo.stores

    def test_out_edges_exist(self, catalog):
        q1 = Query.of("q1", "R.b=S.b", "S.c=T.c")
        q2 = Query.of("q2", "S.c=T.c", "T.d=U.d")
        res, cfg = _optimize([q1, q2], catalog, parallelism=3, enable_mirs=True)
        topo = build_topology(res.plan, catalog, cfg.cluster)
        for ruleset in topo.rulesets.values():
            for rules in ruleset.values():
                for rule in rules:
                    if isinstance(rule, ProbeRule):
                        for label in rule.out_edges:
                            assert label in topo.edges

    def test_route_by_points_at_sender_attribute(self, catalog):
        """R probing S[S.a] must hash on R.a (the equal attribute R knows)."""
        q = Query.of("q", "R.a=S.a", "S.b=T.b")
        res, cfg = _optimize([q], catalog, parallelism=4)
        topo = build_topology(res.plan, catalog, cfg.cluster)
        s_spec = topo.stores["S"]
        if s_spec.partition_attr == "S.a":
            r_probe_edges = [
                topo.edges[label]
                for label in topo.ingest["R"]
                if topo.edges[label].target_store == "S"
            ]
            assert r_probe_edges
            assert r_probe_edges[0].route_by == "R.a"

    def test_unroutable_edge_broadcasts(self, catalog):
        """If T is partitioned by an attribute R cannot derive, route_by=None."""
        q1 = Query.of("q1", "R.b=S.b", "S.c=T.c")
        q2 = Query.of("q2", "S.c=T.c", "T.d=U.d")
        res, cfg = _optimize([q1, q2], catalog, parallelism=4, enable_mirs=True)
        topo = build_topology(res.plan, catalog, cfg.cluster)
        # find any probe edge whose target partition attr is not derivable
        for edge in topo.edges.values():
            spec = topo.stores[edge.target_store]
            if edge.route_by is None:
                assert spec.partition_attr is None or spec.parallelism >= 1

    def test_retention_uses_query_windows(self, catalog):
        q = Query.of("q", "R.a=S.a", windows={"R": 3.0, "S": 4.0})
        res, cfg = _optimize([q], catalog)
        topo = build_topology(res.plan, catalog, cfg.cluster)
        assert topo.stores["R"].retention == 3.0
        assert topo.stores["S"].retention == 4.0

    def test_num_tasks_counts_parallelism(self, catalog):
        q = Query.of("q", "R.a=S.a", "S.b=T.b")
        res, cfg = _optimize([q], catalog, parallelism=3)
        topo = build_topology(res.plan, catalog, cfg.cluster)
        assert topo.num_tasks == 3 * len(topo.stores)

    def test_describe_lists_stores(self, catalog):
        q = Query.of("q", "R.a=S.a", "S.b=T.b")
        res, cfg = _optimize([q], catalog)
        topo = build_topology(res.plan, catalog, cfg.cluster)
        text = topo.describe()
        for rel in "RST":
            assert f"store {rel}" in text

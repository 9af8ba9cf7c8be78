"""Engine integration tests: correctness against the brute-force reference.

The central invariant (DESIGN.md §6): in logical mode, the engine's result
set over any workload equals the reference windowed join — for single- and
multi-query topologies, with and without MIR stores, under any partitioning.
"""

import hashlib
import pickle
import random
import sys
from collections import Counter
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import JoinSession
from repro.core import (
    ClusterConfig,
    JoinPredicate,
    OptimizerConfig,
    Query,
    StatisticsCatalog,
    build_topology,
)
from repro.core.adaptive import diff_topologies
from repro.core.optimizer import MultiQueryOptimizer
from repro.core.topology import Topology
from repro.engine import (
    RewirableRuntime,
    RuntimeConfig,
    ShardedRuntime,
    TopologyRuntime,
    input_tuple,
    reference_join,
    result_keys,
)
from repro.engine import runtime as runtime_module
from repro.engine import stores as stores_module
from repro.streams import five_query_workload, generate_streams, tpch_specs

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
    opt = MultiQueryOptimizer(catalog, cfg)
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
        opt = MultiQueryOptimizer(cat, cfg)
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

    def test_memory_limit_triggers_failure(self):
        q = Query.of("q", "R.a=S.a")
        cat = base_catalog()
        _, inputs = make_streams(9, 200, rels="RS")
        cfg = OptimizerConfig(cluster=ClusterConfig(default_parallelism=1))
        opt = MultiQueryOptimizer(cat, cfg)
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


# ----------------------------------------------------------------------
# the compiled plan
# ----------------------------------------------------------------------
#: window of the TPC-H runs below (the pinned feed spans ~4 of them)
TPCH_WINDOW = 5.0


def tpch5_feed(inputs, seed=5):
    """The first ``inputs`` tuples of the five-query TPC-H feed (~280/s)."""
    queries = five_query_workload()
    read = {rel for q in queries for rel in q.relations}
    specs = [s for s in tpch_specs(300.0) if s.relation in read]
    _, feed = generate_streams(specs, inputs / 270 + 1.0, seed=seed)
    assert len(feed) >= inputs
    return feed[:inputs]


def tpch5_windows():
    return {rel: TPCH_WINDOW for q in five_query_workload() for rel in q.relations}


@lru_cache(maxsize=None)
def tpch5_topology(parallelism):
    """The plan a session deploys for the five TPC-H queries (the greedy
    planner for the partitioned one: HiGHS takes seconds on that model)."""
    session = JoinSession(
        window=TPCH_WINDOW,
        parallelism=parallelism,
        solver="auto" if parallelism == 1 else "greedy",
    )
    for query in five_query_workload():
        session.add_query(query)
    session.start()
    return session.topology


def pinned_run(parallelism, **config):
    """Run the feed; the flow counters and a digest of the emission order."""
    emitted = []
    runtime = TopologyRuntime(
        tpch5_topology(parallelism),
        tpch5_windows(),
        RuntimeConfig(collect_outputs=False, **config),
        sink=lambda query, results: emitted.extend(
            f"{query} {result.key()}" for result in results
        ),
    )
    runtime.run(tpch5_feed(6000))
    m = runtime.metrics
    return [
        m.tuples_sent,
        m.messages_sent,
        m.probes_executed,
        m.comparisons,
        m.peak_stored_units,
        m.results_emitted,
        m.failed,
        hashlib.sha256("\n".join(emitted).encode()).hexdigest()[:16],
    ]


#: (batch_size, parallelism) -> what :func:`pinned_run` returned before the
#: plan was compiled, when every hop re-resolved its edge, rules, orientation
#: and backend: tuples_sent, messages_sent, probes_executed, comparisons,
#: peak_stored_units, results_emitted, failed, digest of the emission order.
#: Neither the backend nor ``vectorized_cascades`` moves a value; the batch
#: size moves the eviction cadence, hence comparisons and the peak.
PINNED = {
    (1, 1): [21695, 21695, 15597, 4982, 1783.0, 339, False, "0a1a4f48118cd23d"],
    (1, 2): [26618, 26618, 19380, 4091, 2500.0, 339, False, "8b4d4b57fd08ae82"],
    (64, 1): [21695, 21695, 15597, 4985, 1779.0, 339, False, "0a1a4f48118cd23d"],
    (64, 2): [26618, 26618, 19380, 4098, 2499.0, 339, False, "8b4d4b57fd08ae82"],
}

#: the budgeted run: the memory path delivers each input on its own and
#: fails mid-feed
PINNED_MEMORY_LIMIT = 1067
PINNED_MEMORY = [3195, 3195, 2131, 287, 1068.0, 7, True, "f8687c388522e328"]


class TestCompiledPlan:
    def test_pushing_resolves_no_rule_and_orients_no_predicate(self, monkeypatch):
        """Every rule and equality key is resolved when the plan is
        deployed: a push looks neither up."""
        calls = Counter()
        rules_for = Topology.rules_for
        orient = stores_module.orient_predicates

        def counting_rules_for(self, store_id, label):
            calls["rules_for"] += 1
            return rules_for(self, store_id, label)

        def counting_orient(predicates, lineage):
            calls["orient_predicates"] += 1
            return orient(predicates, lineage)

        monkeypatch.setattr(Topology, "rules_for", counting_rules_for)
        # every module that bound it by name
        for name, module in list(sys.modules.items()):
            bound = getattr(module, "orient_predicates", None)
            if name.startswith("repro") and bound is orient:
                monkeypatch.setattr(module, "orient_predicates", counting_orient)

        runtime = TopologyRuntime(tpch5_topology(1), tpch5_windows())
        # deploying compiles: the counters see it
        assert calls["rules_for"] > 0 and calls["orient_predicates"] > 0
        calls.clear()
        for tup in tpch5_feed(2000):
            runtime.process(tup)
        runtime.flush()
        assert runtime.metrics.results_emitted > 0
        assert calls == Counter()
        assert not hasattr(TopologyRuntime, "_send_logical")
        assert not hasattr(TopologyRuntime, "_oriented_for")
        assert not hasattr(runtime, "_oriented_cache")

    @pytest.mark.parametrize("parallelism", [1, 2])
    @pytest.mark.parametrize("vectorized", [True, False])
    @pytest.mark.parametrize("backend", ["python", "columnar"])
    @pytest.mark.parametrize("batch_size", [1, 64])
    def test_counters_and_result_order_are_pinned(
        self, batch_size, backend, vectorized, parallelism
    ):
        got = pinned_run(
            parallelism,
            batch_size=batch_size,
            store_backend=backend,
            vectorized_cascades=vectorized,
        )
        assert got == PINNED[(batch_size, parallelism)]

    def test_memory_budget_run_is_pinned(self):
        got = pinned_run(1, memory_limit_units=PINNED_MEMORY_LIMIT)
        assert got == PINNED_MEMORY
        assert got[6]  # the budget was exceeded


# ----------------------------------------------------------------------
# no stale bindings: the plan follows every replaced task list
# ----------------------------------------------------------------------
Q1 = Query.of("q1", "R.a=S.a", "S.b=T.b")
Q2 = Query.of("q2", "S.b=T.b", "T.c=U.c")
LIFECYCLE_WINDOWS = {r: 4.0 for r in "RSTU"}


def plan_topology(queries, parallelism):
    cfg = OptimizerConfig(
        cluster=ClusterConfig(default_parallelism=parallelism)
    )
    cat = base_catalog(window=4.0)
    res = MultiQueryOptimizer(cat, cfg, solver="scipy").optimize(list(queries))
    return build_topology(res.plan, cat, cfg.cluster)


def keys_from(results, ts):
    """Result keys of the combinations completed at or after ``ts``."""
    return result_keys([r for r in results if r.latest_ts >= ts])


@pytest.fixture
def probed(monkeypatch):
    """Candidates checked by the runtime's probes, per container id."""
    checked = Counter()
    probe_batch = runtime_module.probe_batch

    def recording(container, probes, *args):
        results, count = probe_batch(container, probes, *args)
        checked[id(container)] += count
        return results, count

    monkeypatch.setattr(runtime_module, "probe_batch", recording)
    return checked


@pytest.fixture
def restored_containers(monkeypatch):
    """Ids of the containers a snapshot restore builds."""
    built = set()
    load_container = stores_module.load_container

    def recording(state):
        container = load_container(state)
        built.add(id(container))
        return container

    monkeypatch.setattr(stores_module, "load_container", recording)
    return built


def checked_on(probed, task_lists):
    return sum(probed[id(task.container)] for tasks in task_lists for task in tasks)


class TestNoStaleBindings:
    def test_checkpoint_restore_then_push(self, probed, restored_containers):
        streams, inputs = make_streams(21, 600)
        topology = plan_topology([Q1, Q2], 1)
        baseline = TopologyRuntime(topology, LIFECYCLE_WINDOWS)
        baseline.run(inputs)

        live = TopologyRuntime(topology, LIFECYCLE_WINDOWS)
        live.run(inputs[:300])
        state = pickle.loads(pickle.dumps(live.dump_state()))
        restored = TopologyRuntime(topology, LIFECYCLE_WINDOWS)
        restored.load_state(state)
        probed.clear()
        restored.run(inputs[300:])

        for q in (Q1, Q2):
            assert [r.key() for r in restored.results(q.name)] == [
                r.key() for r in baseline.results(q.name)
            ]
            assert result_keys(restored.results(q.name)) == result_keys(
                reference_join(q, streams, LIFECYCLE_WINDOWS)
            )
        assert sum(probed[c] for c in restored_containers) > 0

    def test_add_query_then_remove_query(self, probed):
        streams, inputs = make_streams(22, 900)
        runtime = RewirableRuntime(plan_topology([Q1], 1), LIFECYCLE_WINDOWS)
        runtime.run(inputs[:300])
        added = runtime.install(
            plan_topology([Q1, Q2], 1), now=inputs[299].trigger_ts
        ).added_stores
        probed.clear()
        runtime.run(inputs[300:600])
        assert added
        assert checked_on(probed, [runtime.tasks[s] for s in added]) > 0
        removed = runtime.install(
            plan_topology([Q2], 1), now=inputs[599].trigger_ts
        ).removed_stores
        assert removed
        runtime.run(inputs[600:])

        tail = inputs[600].trigger_ts
        uninterrupted = TopologyRuntime(plan_topology([Q2], 1), LIFECYCLE_WINDOWS)
        uninterrupted.run(inputs)
        got = keys_from(runtime.results("q2"), tail)
        assert got
        assert got == keys_from(uninterrupted.results("q2"), tail)
        assert got == keys_from(reference_join(Q2, streams, LIFECYCLE_WINDOWS), tail)

    def test_repartitioning_install(self, probed):
        streams, inputs = make_streams(23, 600)
        before, after = plan_topology([Q1], 2), plan_topology([Q1, Q2], 2)
        repartitioned = diff_topologies(before, after).repartitioned
        assert repartitioned
        runtime = RewirableRuntime(before, LIFECYCLE_WINDOWS)
        runtime.run(inputs[:300])
        runtime.install(after, now=inputs[299].trigger_ts)
        assert runtime.metrics.migrated_tuples > 0
        probed.clear()
        runtime.run(inputs[300:])

        tail = inputs[300].trigger_ts
        uninterrupted = TopologyRuntime(before, LIFECYCLE_WINDOWS)
        uninterrupted.run(inputs)
        got = keys_from(runtime.results("q1"), tail)
        assert got
        assert got == keys_from(uninterrupted.results("q1"), tail)
        assert got == keys_from(reference_join(Q1, streams, LIFECYCLE_WINDOWS), tail)
        assert checked_on(probed, [runtime.tasks[s] for s in repartitioned]) > 0

    def test_sharded_restore(self, probed, restored_containers):
        streams, inputs = make_streams(24, 600)
        topology = plan_topology([Q1, Q2], 1)

        def sharded():
            return ShardedRuntime(
                topology,
                LIFECYCLE_WINDOWS,
                RuntimeConfig(workers=2),
                transport="inline",
            )

        baseline = sharded()
        baseline.run(inputs)
        live = sharded()
        live.run(inputs[:300])
        state = pickle.loads(pickle.dumps(live.dump_state()))
        live.close()
        restored = sharded()
        restored.load_state(state)
        probed.clear()
        restored.run(inputs[300:])

        for q in (Q1, Q2):
            assert [r.key() for r in restored.results(q.name)] == [
                r.key() for r in baseline.results(q.name)
            ]
            assert result_keys(restored.results(q.name)) == result_keys(
                reference_join(q, streams, LIFECYCLE_WINDOWS)
            )
        assert sum(probed[c] for c in restored_containers) > 0
        restored.close()
        baseline.close()

"""Sharded execution test layer (`repro.engine.sharding`).

The differential harness (`test_differential.py::TestDifferentialSharded`)
proves whole-run result parity across the workers × shape × backend ×
arrival matrix; these tests pin the individual mechanisms:

* `ShardRouter` — exactly-one-or-all routing, the per-unit safety fixpoint
  (demotion to broadcast), deterministic class choice, and sticky routing
  across rewires, property-tested over randomized ~1k-op workloads;
* the worker protocol — config validation, the reshard slow path (partition
  class change → stop-the-world re-route), driver/worker metric folding;
* fault injection — the env-gated crash-on-Nth-tuple hook and hard worker
  kills must surface a typed `ShardFailedError` promptly (no hang) with no
  partial results merged, and the session must refuse further pushes.
"""

import random

import pytest

from test_differential import (
    assert_engine_equals_reference,
    bounded_delay_feed,
    compile_topology,
    random_workload,
)

from repro import JoinSession
from repro.core import Query
from repro.engine import (
    RewirableRuntime,
    RuntimeConfig,
    ShardFailedError,
    ShardRouter,
    ShardedRuntime,
    TopologyRuntime,
    result_keys,
)
from repro.engine.sharding import TEST_HOOK_ENV
from repro.session import EngineFailedError
from repro.streams.generators import (
    StreamSpec,
    generate_streams,
    uniform_domain,
)


def two_class_topology():
    """R/S/T with two attribute classes: class *a* chains R–S–T, class *b*
    joins R–T directly.  Class *a* partitions {R, S, T} only if every unit
    chains them — q3 (R.b=T.b) contains partitioned R and T with *no*
    supporting a-edge, so the fixpoint must demote one of them."""
    queries = [
        Query.of("q1", "R.a=S.a"),
        Query.of("q2", "S.a=T.a"),
        Query.of("q3", "R.b=T.b"),
    ]
    windows = {rel: 4.0 for rel in ("R", "S", "T")}
    topology = compile_topology(
        queries, ["R", "S", "T"], windows, 1, 3, solver="greedy"
    )
    return queries, windows, topology


class TestShardRouter:
    def test_safety_fixpoint_demotes_unchained_relations(self):
        _, _, topology = two_class_topology()
        router = ShardRouter.from_topology(topology, 4)
        # class a wins (3 attrs, lexicographically first), but q3 forces one
        # of {R, T} to broadcast: they are a-partitioned yet q3 has no
        # supporting a-edge between them
        assert router.class_key == {"R.a", "S.a", "T.a"}
        assert router.partitioned == {"R", "S"}
        assert router.broadcast == {"T"}
        assert not router.metrics_exact

    def test_exactly_one_or_all_property(self):
        """Every input tuple routes to exactly one shard (partitioned
        trigger) or to all shards (broadcast trigger) — randomized over the
        differential workload generator, all shapes."""
        for seed in range(6):
            shape = ("chain", "star", "cycle")[seed % 3]
            queries, relations, streams, inputs, windows, parallelism = (
                random_workload(seed, shape=shape)
            )
            topology = compile_topology(
                queries, relations, windows, parallelism, seed, solver="greedy"
            )
            router = ShardRouter.from_topology(topology, 3)
            for tup in inputs:
                shards = router.shards_for(tup)
                if tup.trigger in router.partitioned:
                    assert len(shards) == 1
                    assert 0 <= shards[0] < 3
                else:
                    assert shards == (0, 1, 2)
                # routing is a pure function of the tuple
                assert router.shard_of(tup) == router.shard_of(tup)

    def test_partitioned_relations_chain_through_supporting_edges(self):
        """Structural invariant behind exactness: in every query, the
        partitioned relations present are chained by predicates equating
        exactly their routing attributes."""
        for seed in range(6):
            shape = ("chain", "star", "cycle")[seed % 3]
            queries, relations, _, _, windows, parallelism = random_workload(
                seed, shape=shape
            )
            topology = compile_topology(
                queries, relations, windows, parallelism, seed, solver="greedy"
            )
            router = ShardRouter.from_topology(topology, 2)
            route = {
                rel: attr for rel, attr in router.route_attrs.items()
            }
            for query in queries:
                live = sorted(router.partitioned & query.relation_set)
                if len(live) < 2:
                    continue
                reached = {live[0]}
                grew = True
                while grew:
                    grew = False
                    for pred in query.predicates:
                        ra, rb = pred.left.relation, pred.right.relation
                        if (
                            route.get(ra) == str(pred.left)
                            and route.get(rb) == str(pred.right)
                        ):
                            if ra in reached and rb not in reached:
                                reached.add(rb)
                                grew = True
                            elif rb in reached and ra not in reached:
                                reached.add(ra)
                                grew = True
                assert set(live) <= reached, (seed, query.name)

    def test_sticky_class_survives_rewire(self):
        """`prefer_class` pins the partition class across topology changes
        while it still exists, keeping shard routing stable (the install
        fast path of the driver depends on this)."""
        q1 = Query.of("q1", "R.a=S.a")
        q2 = Query.of("q2", "S.a=T.a")
        windows = {rel: 4.0 for rel in ("R", "S", "T")}
        topo1 = compile_topology([q1], ["R", "S"], windows, 1, 1)
        topo2 = compile_topology([q1, q2], ["R", "S", "T"], windows, 1, 1)
        r1 = ShardRouter.from_topology(topo1, 3)
        r2 = ShardRouter.from_topology(
            topo2, 3, prefer_class=r1.class_key
        )
        assert r2.stable_over(r1)
        for rel in ("R", "S"):
            assert r2.route_attrs[rel] == r1.route_attrs[rel]

    def test_union_of_shard_emissions_equals_oracle_1k_ops(self):
        """~1k-op randomized workloads: the merged emissions of all shards
        equal the brute-force oracle (shard-disjointness + broadcast
        suppression leave no result lost or duplicated)."""
        rng = random.Random(0xF00D)
        queries = [Query.of("q1", "R.a=S.a", "S.b=T.b")]
        specs = [
            StreamSpec(
                relation=rel,
                rate=15.0,
                attributes={a: uniform_domain(8) for a in attrs},
            )
            for rel, attrs in (("R", ["a"]), ("S", ["a", "b"]), ("T", ["b"]))
        ]
        streams, inputs = generate_streams(specs, 22.0, seed=11)
        assert len(inputs) >= 900  # ~1k ops as specified
        windows = {rel: 3.0 for rel in ("R", "S", "T")}
        topology = compile_topology(queries, ["R", "S", "T"], windows, 2, 11)
        with ShardedRuntime(
            topology,
            windows,
            RuntimeConfig(workers=rng.choice([2, 3, 4])),
            transport="inline",
        ) as sharded:
            sharded.run(inputs)
            assert_engine_equals_reference(sharded, queries, streams, windows)


class TestConfigValidation:
    def test_workers_reject_memory_limit(self):
        with pytest.raises(ValueError, match="memory_limit"):
            RuntimeConfig(workers=2, memory_limit_units=100)

    def test_workers_must_be_positive(self):
        with pytest.raises(ValueError, match="workers"):
            RuntimeConfig(workers=0)

    def test_topology_runtime_rejects_workers(self):
        """The single-process runtime refuses a multi-worker config instead
        of silently running it on one core."""
        _, windows, topology = two_class_topology()
        with pytest.raises(ValueError, match="ShardedRuntime"):
            TopologyRuntime(topology, windows, RuntimeConfig(workers=2))

    def test_sharded_runtime_rejects_unknown_transport(self):
        _, windows, topology = two_class_topology()
        with pytest.raises(ValueError, match="transport"):
            ShardedRuntime(
                topology, windows, RuntimeConfig(workers=2), transport="tcp"
            )

    def test_session_workers_conflict_with_runtime_config(self):
        with pytest.raises(ValueError, match="workers"):
            JoinSession(workers=2, runtime_config=RuntimeConfig(workers=1))


class TestReshard:
    def test_partition_class_change_takes_slow_path(self):
        """Replacing the only query with one joining on a different
        attribute class forces a stop-the-world reshard: all state is
        dumped, deduped, re-routed — and results stay exactly those of a
        single-process runtime driven through the same install."""
        qa = Query.of("qa", "R.a=S.a", "S.a=T.a")
        qb = Query.of("qb", "R.b=S.b", "S.b=T.b")
        windows = {rel: 5.0 for rel in ("R", "S", "T")}
        topo_a = compile_topology(
            [qa], ["R", "S", "T"], windows, 1, 21, solver="greedy"
        )
        topo_b = compile_topology(
            [qb], ["R", "S", "T"], windows, 1, 22, solver="greedy"
        )
        specs = [
            StreamSpec(
                relation=rel,
                rate=12.0,
                attributes={
                    "a": uniform_domain(5),
                    "b": uniform_domain(5),
                },
            )
            for rel in ("R", "S", "T")
        ]
        _, first = generate_streams(specs, 4.0, seed=31)
        _, second = generate_streams(specs, 4.0, seed=32)
        second = [tup for tup in second]
        for tup in second:  # keep arrivals ordered across the install
            tup.timestamps[tup.trigger] += 4.5
            tup.trigger_ts += 4.5
            tup.latest_ts += 4.5
            tup.earliest_ts += 4.5

        def drive(runtime):
            for tup in first:
                runtime.process(tup)
            runtime.install(topo_b, now=4.25, windows=windows)
            for tup in second:
                runtime.process(tup)
            runtime.flush()
            return runtime

        base = drive(RewirableRuntime(topo_a, windows, RuntimeConfig()))
        with ShardedRuntime(
            topo_a, windows, RuntimeConfig(workers=3), transport="inline"
        ) as sharded:
            old_class = sharded.router.class_key
            drive(sharded)
            assert sharded.router.class_key != old_class
            assert sharded.metrics.migrated_tuples > 0
            for name in ("qa", "qb"):
                assert result_keys(sharded.results(name)) == result_keys(
                    base.results(name)
                ), name
            assert (
                sharded.metrics.results_per_query
                == base.metrics.results_per_query
            )


class TestFaultInjection:
    def _sharded(self, transport="process", workers=2, bound=None):
        queries, relations, streams, inputs, windows, parallelism = (
            random_workload(2)
        )
        topology = compile_topology(queries, relations, windows, parallelism, 2)
        runtime = ShardedRuntime(
            topology,
            windows,
            RuntimeConfig(workers=workers, disorder_bound=bound),
            transport=transport,
        )
        return runtime, list(inputs)

    def test_crash_hook_is_gated_to_test_builds(self, monkeypatch):
        monkeypatch.delenv(TEST_HOOK_ENV, raising=False)
        runtime, _ = self._sharded()
        try:
            with pytest.raises(ShardFailedError, match=TEST_HOOK_ENV):
                runtime.inject_crash(0, after=1)
            assert runtime.metrics.failed
        finally:
            runtime.close()

    def test_worker_crash_surfaces_typed_error(self, monkeypatch):
        """Crash-on-Nth-tuple: the driver must raise `ShardFailedError`
        promptly (bounded receives — no hang), mark itself failed, and
        merge no partial results for the failed sync."""
        monkeypatch.setenv(TEST_HOOK_ENV, "1")
        runtime, inputs = self._sharded()
        try:
            results_before = {k: list(v) for k, v in runtime.outputs.items()}
            runtime.inject_crash(0, after=3)
            with pytest.raises(ShardFailedError, match="shard 0"):
                runtime.run(inputs)
            assert runtime.metrics.failed
            assert "shard 0" in runtime.metrics.failure_reason
            # the failed sync contributed nothing
            assert {
                k: list(v) for k, v in runtime.outputs.items()
            } == results_before
            # the runtime stays safely callable and inert after failure
            runtime.flush()
            assert runtime.metrics.failed
        finally:
            runtime.close()

    def test_hard_worker_kill_surfaces_typed_error(self):
        """SIGKILL mid-stream (no cooperative exit hook at all): the next
        sync detects the dead process and raises."""
        runtime, inputs = self._sharded()
        half = len(inputs) // 2
        try:
            for tup in inputs[:half]:
                runtime.process(tup)
            runtime.flush()
            victim = runtime._shards[1].proc
            victim.kill()
            victim.join(timeout=10.0)
            with pytest.raises(ShardFailedError, match="shard 1"):
                for tup in inputs[half:]:
                    runtime.process(tup)
                runtime.flush()
        finally:
            runtime.close()

    def test_inline_transport_simulates_crash(self, monkeypatch):
        """The same hook works on the inline transport (raising instead of
        killing a process), so crash handling is testable without forking."""
        monkeypatch.setenv(TEST_HOOK_ENV, "1")
        runtime, inputs = self._sharded(transport="inline")
        runtime.inject_crash(1, after=2)
        with pytest.raises(ShardFailedError):
            runtime.run(inputs)
        assert runtime.metrics.failed
        runtime.close()

    def test_session_surfaces_failure_and_refuses_pushes(self, monkeypatch):
        """Kill a worker mid-push through the facade: the detecting push
        raises the typed error, every later push raises
        `EngineFailedError` — no hang, no silent partial results."""
        monkeypatch.setenv(TEST_HOOK_ENV, "1")
        with JoinSession(window=4.0, workers=2) as session:
            session.add_query("q", "R.a=S.a")
            session.push("R", {"a": 1}, ts=0.1)
            session.push("S", {"a": 1}, ts=0.2)
            assert len(session.results("q")) == 1
            session._runtime.inject_crash(0, after=2)
            with pytest.raises(ShardFailedError):
                for i in range(64):  # enough to fill and ship a batch
                    session.push("R", {"a": i}, ts=0.3 + i * 0.01)
                session.flush()
            with pytest.raises(EngineFailedError):
                session.push("S", {"a": 2}, ts=2.0)


class TestSessionSharded:
    def test_live_churn_verifies_inline(self):
        """Sharded session end to end: add/remove mid-stream, oracle check."""
        rng = random.Random(77)
        with JoinSession(
            window=5.0, workers=2, worker_transport="inline"
        ) as session:
            session.add_query("q1", "R.a=S.a", "S.b=T.b")
            t = 0.0
            for _ in range(100):
                t += rng.uniform(0.05, 0.25)
                rel = rng.choice(["R", "S", "T"])
                session.push(
                    rel,
                    {a: rng.randint(0, 7) for a in ("a", "b", "c")},
                    ts=t,
                )
            session.add_query("q2", "S.b=T.b", "T.c=U.c")
            for _ in range(100):
                t += rng.uniform(0.05, 0.25)
                rel = rng.choice(["R", "S", "T", "U"])
                session.push(
                    rel,
                    {a: rng.randint(0, 7) for a in ("a", "b", "c")},
                    ts=t,
                )
            session.remove_query("q1")
            for _ in range(40):
                t += rng.uniform(0.05, 0.25)
                rel = rng.choice(["S", "T", "U"])
                session.push(
                    rel,
                    {a: rng.randint(0, 7) for a in ("a", "b", "c")},
                    ts=t,
                )
            report = session.verify()
            assert report.ok, report.describe()
            assert len(session.rewires) == 2

    def test_subscribers_fire_in_merged_order(self):
        """Listener callbacks run driver-side after the deterministic
        merge, in arrival-sequence order — identical to workers=1."""
        def run(workers):
            seen = []
            with JoinSession(
                window=4.0, workers=workers, worker_transport="inline"
            ) as session:
                session.add_query("q", "R.a=S.a")
                session.subscribe("q", lambda r: seen.append(r.key()))
                rng = random.Random(3)
                t = 0.0
                for _ in range(150):
                    t += rng.uniform(0.02, 0.1)
                    session.push(
                        rng.choice(["R", "S"]), {"a": rng.randint(0, 4)}, ts=t
                    )
                session.flush()
            return seen

        assert run(2) == run(1)

    def test_close_is_idempotent_and_results_stay_readable(self):
        with JoinSession(window=4.0, workers=2) as session:
            session.add_query("q", "R.a=S.a")
            session.push("R", {"a": 1}, ts=0.1)
            session.push("S", {"a": 1}, ts=0.2)
            assert len(session.results("q")) == 1
            session.close()
            session.close()
            assert len(session.results("q")) == 1

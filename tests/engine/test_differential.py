"""Differential correctness harness: engine vs. brute-force reference.

Seeded, property-style workload generation: random multi-query workloads
are generated with :mod:`repro.streams.generators`, optimized, compiled to
a topology, and executed in logical mode; the produced result *sets* must
be exactly equal to the brute-force
:func:`repro.engine.reference.reference_join`.

Covered axes (≥ 24 seeded workloads each):

* **chain** — contiguous chain-segment multi-query workloads (the original
  harness), across window sizes, parallelism degrees, batch sizes, and
  eviction cadences,
* **star** — hub-and-spokes queries sharing the hub relation,
* **cycle** — ring queries whose closing predicate joins the lookup key
  of the hop that covers it, plus arc subqueries sharing stores with the
  ring,
* **zipf** — Zipf-skewed join attributes over all three shapes,
* **ooo** — bounded out-of-order arrival feeds consumed in watermark mode
  (``RuntimeConfig.disorder_bound``) over all three shapes,
* **grid** — the star, cycle, sharded and out-of-order feeds again with
  every timestamp floored to a 0.25 grid, so partners tie within and
  across relations (the generators' continuous timestamps never do),
  plus a whole-second tie matrix (shape × backend × workers, ordered and
  watermark),

plus the cross-product invariances (shape × disorder × batch size ×
eviction cadence), the unequal-window sharing matrix (the O(1)
uniform-window shortcut must disengage), the adaptive runtime's epoch
boundaries, the **store-backend axis** (python hash-index vs numpy
columnar containers — identical results *and* identical metric
bookkeeping, including across a live rewire), and the **unified
adaptivity axis** (``JoinSession(reoptimize_every=...)`` must stay
oracle-exact *and* match a hand-driven :class:`AdaptiveRuntime`
decision-for-decision and switch-for-switch, ordered/watermark ×
chain/star × seeds × workers 1/2 inline).

This suite is the regression net for hot-path refactors (batched cascades,
incremental eviction, orientation caching, the visibility rule): any
semantic drift shows up as a result-set difference on at least one seed.
"""

import random

import pytest

from repro.core import (
    ClusterConfig,
    JoinPredicate,
    OptimizerConfig,
    Query,
    StatisticsCatalog,
    build_topology,
)
from repro.core.adaptive import AdaptiveController
from repro.core.optimizer import MultiQueryOptimizer
from repro.engine import (
    AdaptiveRuntime,
    RuntimeConfig,
    TopologyRuntime,
    describe_result_diff,
    input_tuple,
    reference_join,
    result_keys,
)
from repro.streams.generators import (
    StreamSpec,
    bounded_delay_feed,
    generate_streams,
    merge_streams,
    uniform_domain,
    zipf_domain,
)

# Chain schema: R.a=S.a, S.b=T.b, T.c=U.c, U.d=V.d; each relation also
# carries a second attribute so multi-predicate hops appear.
RELATIONS = ["R", "S", "T", "U", "V"]
ATTRS = {
    "R": ["a"],
    "S": ["a", "b"],
    "T": ["b", "c"],
    "U": ["c", "d"],
    "V": ["d"],
}
CHAIN_PREDICATES = ["R.a=S.a", "S.b=T.b", "T.c=U.c", "U.d=V.d"]

#: star schema: hub H with one attribute per spoke; spoke Pi carries s<i>
STAR_SPOKES = ["P0", "P1", "P2", "P3"]


def random_queries(rng: random.Random) -> list:
    """1-3 random contiguous chain segments of length 2-4 (named uniquely)."""
    queries = []
    seen = set()
    for i in range(rng.randint(1, 3)):
        length = rng.randint(1, 3)  # number of join predicates
        start = rng.randrange(len(CHAIN_PREDICATES) - length + 1)
        segment = tuple(CHAIN_PREDICATES[start : start + length])
        if segment in seen:
            continue
        seen.add(segment)
        queries.append(Query.of(f"q{i}", *segment))
    return queries


def star_queries(rng: random.Random) -> tuple:
    """1-2 star queries over random spoke subsets, sharing the hub relation.

    Spoke ``Pi`` joins the hub on its fixed attribute ``s<i>``, so queries
    over overlapping spoke subsets share input stores and MIRs.
    """
    attrs = {"H": []}
    queries = []
    seen = set()
    for i in range(rng.randint(1, 2)):
        k = rng.randint(2, 3)
        spokes = tuple(sorted(rng.sample(range(len(STAR_SPOKES)), k)))
        if spokes in seen:
            continue
        seen.add(spokes)
        eqs = [f"H.s{j}=P{j}.s{j}" for j in spokes]
        queries.append(Query.of(f"q{i}", *eqs))
    for query in queries:
        for rel in query.relations:
            if rel == "H":
                continue
            j = rel[1:]
            attrs.setdefault(rel, []).append(f"s{j}")
            if f"s{j}" not in attrs["H"]:
                attrs["H"].append(f"s{j}")
    return queries, attrs


def cycle_queries(rng: random.Random) -> tuple:
    """A ring query (cycle-closing predicate) plus, sometimes, an arc chain.

    Ring of length 3-5 over ``C0..C{L-1}``; edge ``i`` joins neighbours on
    attribute ``e<i>``.  The arc subquery is the acyclic prefix of the same
    ring, so it shares every input store (and candidate MIR) with the
    cyclic query while exercising both planners side by side.
    """
    length = rng.randint(3, 5)
    ring = [f"C{i}" for i in range(length)]
    eqs = [
        f"{ring[i]}.e{i}={ring[(i + 1) % length]}.e{i}" for i in range(length)
    ]
    queries = [Query.of("q_ring", *eqs)]
    assert queries[0].is_cyclic
    if rng.random() < 0.5 and length >= 4:
        arc = rng.randint(2, length - 2)
        queries.append(Query.of("q_arc", *eqs[:arc]))
    attrs = {rel: [] for rel in ring}
    for i in range(length):
        attrs[ring[i]].append(f"e{i}")
        attrs[ring[(i + 1) % length]].append(f"e{i}")
    return queries, attrs


def _make_streams(rng, queries, attrs, duration, domain_gen, seed):
    relations = sorted({r for q in queries for r in q.relations})
    specs = [
        StreamSpec(
            relation=rel,
            rate=rng.uniform(4.0, 9.0),
            attributes={a: domain_gen() for a in attrs[rel]},
        )
        for rel in relations
    ]
    streams, inputs = generate_streams(specs, duration, seed=seed)
    return relations, streams, inputs


#: fixed per-shape seed salts (str hash() varies with PYTHONHASHSEED)
_SHAPE_SALT = {"chain": 0, "star": 0x51A2, "cycle": 0xC1C1}


#: the timestamp axis: continuous (the generators' distinct timestamps), or
#: floored to a 0.25 grid, where ties within and across relations abound
GRIDS = pytest.mark.parametrize("grid", [None, 0.25], ids=["continuous", "grid"])


def on_grid(streams, grid):
    """``streams`` with every event timestamp floored to a multiple of
    ``grid``, and their merged feed (still in timestamp order)."""
    floored = {
        rel: [
            input_tuple(
                rel,
                tup.trigger_ts // grid * grid,
                {attr.split(".", 1)[1]: v for attr, v in tup.values.items()},
            )
            for tup in tuples
        ]
        for rel, tuples in streams.items()
    }
    return floored, merge_streams(floored)


def random_workload(
    seed: int, shape: str = "chain", skew: bool = False, grid=None
):
    """Random queries, streams, windows, and parallelism for one seed
    (timestamps floored to ``grid`` when one is given)."""
    rng = random.Random(seed ^ _SHAPE_SALT[shape])
    if shape == "chain":
        queries = random_queries(rng)
        attrs = ATTRS
        max_preds = max(len(q.predicates) for q in queries)
        domain = rng.randint(3, 8) * max_preds
        duration = 5.0
    elif shape == "star":
        queries, attrs = star_queries(rng)
        domain = rng.randint(4, 8)
        duration = 4.0
    elif shape == "cycle":
        queries, attrs = cycle_queries(rng)
        domain = rng.randint(3, 6)
        duration = 5.0
    else:
        raise ValueError(shape)

    if skew:
        # skewed domains concentrate matches on heavy hitters; widen the
        # domain so multi-hop result counts stay testable
        alpha = rng.uniform(0.6, 1.1)
        domain = domain * 3
        duration = min(duration, 4.0)
        domain_gen = lambda: zipf_domain(domain, alpha)  # noqa: E731
    else:
        domain_gen = lambda: uniform_domain(domain)  # noqa: E731
    relations, streams, inputs = _make_streams(
        rng, queries, attrs, duration, domain_gen, seed
    )
    if grid is not None:
        streams, inputs = on_grid(streams, grid)

    if rng.random() < 0.5:
        windows = {rel: rng.choice([1.5, 3.0, 6.0]) for rel in relations}
    else:  # uniform windows exercise the O(1) fast path
        w = rng.choice([1.5, 3.0, 6.0])
        windows = {rel: w for rel in relations}

    parallelism = rng.randint(1, 3)
    return queries, relations, streams, inputs, windows, parallelism


def catalog_for(relations, windows, rng_seed: int) -> StatisticsCatalog:
    rng = random.Random(rng_seed)
    catalog = StatisticsCatalog(
        default_selectivity=rng.choice([0.02, 0.1, 0.3]), default_window=8.0
    )
    for rel in relations:
        catalog.with_rate(rel, 10.0).with_window(rel, windows[rel])
    return catalog


def compile_topology(queries, relations, windows, parallelism, seed, solver="scipy"):
    """Optimize + compile one workload.

    The chain axes keep the exact scipy/HiGHS solve (PR-1 behaviour); the
    shape axes default to the greedy planner — a 5-ring's exact ILP runs
    into thousands of binaries and minutes of MILP time, while any feasible
    plan must produce identical result sets, which is what this harness
    proves.
    """
    catalog = catalog_for(relations, windows, seed)
    config = OptimizerConfig(
        cluster=ClusterConfig(default_parallelism=parallelism)
    )
    optimizer = MultiQueryOptimizer(catalog, config, solver=solver)
    result = optimizer.optimize(queries)
    return build_topology(result.plan, catalog, config.cluster)


def assert_engine_equals_reference(runtime, queries, streams, windows):
    for query in queries:
        expected = result_keys(reference_join(query, streams, windows))
        got = result_keys(runtime.results(query.name))
        assert expected == got, (
            f"{query.name}: {describe_result_diff(expected, got)}"
        )


class TestDifferentialLogical:
    """Engine output == reference on >= 24 seeded random workloads."""

    @pytest.mark.parametrize("seed", range(24))
    def test_random_workload_exact(self, seed):
        queries, relations, streams, inputs, windows, parallelism = (
            random_workload(seed)
        )
        topology = compile_topology(queries, relations, windows, parallelism, seed)
        runtime = TopologyRuntime(
            topology, windows, RuntimeConfig()
        )
        runtime.run(inputs)
        assert_engine_equals_reference(runtime, queries, streams, windows)

    @pytest.mark.parametrize("seed", [3, 11, 17])
    @pytest.mark.parametrize("batch_size", [1, 2, 256])
    def test_batch_size_invariant(self, seed, batch_size):
        """Result sets must not depend on the micro-batch draining size."""
        queries, relations, streams, inputs, windows, parallelism = (
            random_workload(seed)
        )
        topology = compile_topology(queries, relations, windows, parallelism, seed)
        runtime = TopologyRuntime(
            topology,
            windows,
            RuntimeConfig(batch_size=batch_size),
        )
        runtime.run(inputs)
        assert_engine_equals_reference(runtime, queries, streams, windows)

    @pytest.mark.parametrize("evict_every", [1, 16])
    def test_eviction_cadence_invariant(self, evict_every):
        """Aggressive eviction must never drop in-window join partners."""
        queries, relations, streams, inputs, windows, parallelism = (
            random_workload(5)
        )
        topology = compile_topology(queries, relations, windows, 2, 5)
        runtime = TopologyRuntime(
            topology,
            windows,
            RuntimeConfig(evict_every=evict_every),
        )
        runtime.run(inputs)
        assert_engine_equals_reference(runtime, queries, streams, windows)


class TestDifferentialShapes:
    """Star and cyclic join graphs: engine == reference per seeded workload."""

    @GRIDS
    @pytest.mark.parametrize("seed", range(24))
    def test_star_workload_exact(self, seed, grid):
        queries, relations, streams, inputs, windows, parallelism = (
            random_workload(seed, shape="star", grid=grid)
        )
        topology = compile_topology(queries, relations, windows, parallelism, seed)
        runtime = TopologyRuntime(
            topology, windows, RuntimeConfig()
        )
        runtime.run(inputs)
        assert_engine_equals_reference(runtime, queries, streams, windows)

    @GRIDS
    @pytest.mark.parametrize("seed", range(24))
    def test_cycle_workload_exact(self, seed, grid):
        queries, relations, streams, inputs, windows, parallelism = (
            random_workload(seed, shape="cycle", grid=grid)
        )
        topology = compile_topology(
            queries, relations, windows, parallelism, seed, solver="greedy"
        )
        runtime = TopologyRuntime(
            topology, windows, RuntimeConfig()
        )
        runtime.run(inputs)
        assert_engine_equals_reference(runtime, queries, streams, windows)

    def test_cycle_closing_predicate_is_part_of_the_lookup_key(self, monkeypatch):
        """A cyclic hop looks its store up on *all* its predicates: every
        multi-predicate probe rule resolves to a key over all its stored
        attributes, ``comparisons`` counts exactly the stored tuples that
        agree with their probe on that whole key, and results equal the
        oracle."""
        from repro.engine import orient_predicates
        from repro.engine import runtime as runtime_module

        query = Query.cycle("tri", ["R", "S", "T"])
        windows = {rel: 3.0 for rel in query.relations}
        topology = compile_topology(
            [query], list(query.relations), windows, 1, 0
        )
        multi_pred_rules = [
            (store_id, rule)
            for store_id, ruleset in topology.rulesets.items()
            for rules in ruleset.values()
            for rule in rules
            if getattr(rule, "kind", "") == "probe" and len(rule.predicates) > 1
        ]
        assert multi_pred_rules, "a triangle plan must close the cycle somewhere"
        assert query.cycle_closing_predicates() & {
            pred for _, rule in multi_pred_rules for pred in rule.predicates
        }
        for store_id, rule in multi_pred_rules:
            stored_relations = set(topology.stores[store_id].mir.relations)
            lineage = {
                rel for pred in rule.predicates for rel in pred.relations
            } - stored_relations
            oriented = orient_predicates(rule.predicates, lineage)
            assert len(oriented.key) == len(rule.predicates)
            assert all(
                attr.split(".")[0] in stored_relations for attr in oriented.key
            )

        agreeing = 0
        widest = 0
        real_probe_batch = runtime_module.probe_batch

        def counting_probe_batch(container, probes, oriented, *args):
            nonlocal agreeing, widest
            widest = max(widest, len(oriented.stored_attrs))
            pairs = list(zip(oriented.probe_attrs, oriented.stored_attrs))
            for probe in probes:
                for stored in container.iter_tuples():
                    if all(probe.values[p] == stored.values[s] for p, s in pairs):
                        agreeing += 1
            return real_probe_batch(container, probes, oriented, *args)

        monkeypatch.setattr(runtime_module, "probe_batch", counting_probe_batch)
        rng = random.Random(7)
        attrs = {"R": ["e0", "e2"], "S": ["e0", "e1"], "T": ["e1", "e2"]}
        _, streams, inputs = _make_streams(
            rng, [query], attrs, 6.0, lambda: uniform_domain(3), 7
        )
        runtime = TopologyRuntime(
            topology, windows, RuntimeConfig(vectorized_cascades=False)
        )
        runtime.run(inputs)
        assert widest == max(len(rule.predicates) for _, rule in multi_pred_rules)
        assert runtime.metrics.results_emitted > 0
        assert runtime.metrics.comparisons == agreeing
        assert_engine_equals_reference(runtime, [query], streams, windows)


class TestDifferentialSkew:
    """Zipf-skewed value domains across all shapes: engine == reference."""

    @pytest.mark.parametrize("seed", range(24))
    def test_zipf_workload_exact(self, seed):
        shape = ("chain", "star", "cycle")[seed % 3]
        queries, relations, streams, inputs, windows, parallelism = (
            random_workload(seed, shape=shape, skew=True)
        )
        topology = compile_topology(
            queries, relations, windows, parallelism, seed, solver="greedy"
        )
        runtime = TopologyRuntime(
            topology, windows, RuntimeConfig()
        )
        runtime.run(inputs)
        assert_engine_equals_reference(runtime, queries, streams, windows)


class TestDifferentialOutOfOrder:
    """Bounded out-of-order arrivals (watermark mode): engine == reference.

    The feed is re-ordered by per-tuple bounded delays; the reference is
    computed from the *event-time* streams — watermark mode must reproduce
    exactly the in-order result set.
    """

    @GRIDS
    @pytest.mark.parametrize("seed", range(24))
    def test_out_of_order_workload_exact(self, seed, grid):
        shape = ("chain", "star", "cycle")[seed % 3]
        queries, relations, streams, inputs, windows, parallelism = (
            random_workload(seed, shape=shape, grid=grid)
        )
        rng = random.Random(seed ^ 0x00F)
        bound = rng.choice([0.5, 1.0, 2.5])
        feed = bounded_delay_feed(streams, bound, seed=seed)
        topology = compile_topology(
            queries, relations, windows, parallelism, seed, solver="greedy"
        )
        runtime = TopologyRuntime(
            topology,
            windows,
            RuntimeConfig(
                disorder_bound=bound,
                evict_every=rng.choice([16, 256]),
            ),
        )
        runtime.run(feed)
        assert_engine_equals_reference(runtime, queries, streams, windows)

    @pytest.mark.parametrize("seed", [1, 2])  # odd=cycle, even=star
    @pytest.mark.parametrize("batch_size", [1, 256])
    @pytest.mark.parametrize("evict_every", [1, 64])
    def test_disorder_batch_eviction_invariant(
        self, seed, batch_size, evict_every
    ):
        """Full cross product: shape x disorder x batch size x cadence."""
        shape = ("star", "cycle")[seed % 2]
        queries, relations, streams, inputs, windows, parallelism = (
            random_workload(seed, shape=shape)
        )
        feed = bounded_delay_feed(streams, 1.5, seed=seed)
        topology = compile_topology(
            queries, relations, windows, parallelism, seed, solver="greedy"
        )
        runtime = TopologyRuntime(
            topology,
            windows,
            RuntimeConfig(
                disorder_bound=1.5,
                batch_size=batch_size,
                evict_every=evict_every,
            ),
        )
        runtime.run(feed)
        assert_engine_equals_reference(runtime, queries, streams, windows)

    def test_watermark_eviction_frees_state(self):
        """Watermark-driven eviction must actually shed expired state (it
        lags event-time eviction by the disorder bound, not forever)."""
        queries, relations, streams, inputs, windows, parallelism = (
            random_workload(2)
        )
        windows = {rel: 1.5 for rel in relations}
        feed = bounded_delay_feed(streams, 0.5, seed=2)
        topology = compile_topology(queries, relations, windows, 1, 2)
        runtime = TopologyRuntime(
            topology,
            windows,
            RuntimeConfig(disorder_bound=0.5, evict_every=8),
        )
        runtime.run(feed)
        assert runtime.metrics.stored_units < runtime.metrics.peak_stored_units
        assert_engine_equals_reference(runtime, queries, streams, windows)


#: the tie matrix's join graphs
TIE_SHAPES = {
    "chain2": ("R.a=S.a",),
    "chain3": ("R.a=S.a", "S.b=T.b"),
    "star": ("H.a=A.a", "H.b=B.b", "H.c=C.c"),
}


class TestDifferentialTies:
    """Equal event timestamps join, in both arrival modes.

    Every relation pushes one tuple per whole second, its push order within
    the second alternating, so partners tie or lie whole seconds apart —
    on the edge of the 2 s window included.  Each shape × backend ×
    workers cell must equal the oracle in ordered mode, and watermark mode
    must produce the same result set.
    """

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("backend", ["python", "columnar"])
    @pytest.mark.parametrize("shape", sorted(TIE_SHAPES))
    def test_equal_timestamps_join(self, shape, backend, workers):
        from repro import JoinSession

        query = Query.of("q", *TIE_SHAPES[shape])
        relations = sorted(query.relations)
        produced = {}
        for bound in (None, 1.0):
            session = JoinSession(
                window=2.0,
                disorder_bound=bound,
                store_backend=backend,
                workers=workers,
                worker_transport="inline",
            ).add_query(query)
            for second in range(8):
                for rel in relations if second % 2 else relations[::-1]:
                    session.push(rel, dict.fromkeys("abc", second % 2), second)
            check = session.verify().checks["q"]
            assert check.ok, check.diff
            assert check.produced > 0
            produced[bound] = result_keys(session.results("q"))
            session.close()
        assert produced[None] == produced[1.0]


class TestDifferentialUnequalWindows:
    """Multi-query workloads sharing relations under *unequal* windows.

    The O(1) uniform-window shortcut must disengage (``_uniform_window is
    None``) and the per-pair ``min(window)`` semantics must still match the
    reference exactly.
    """

    @staticmethod
    def _shared_relation_workload(seed: int):
        rng = random.Random(seed ^ 0xBEEF)
        # two or three chain segments guaranteed to overlap on S/T
        segments = [
            ("q0", CHAIN_PREDICATES[0:2]),  # R,S,T
            ("q1", CHAIN_PREDICATES[1:3]),  # S,T,U
        ]
        if rng.random() < 0.5:
            segments.append(("q2", CHAIN_PREDICATES[1:2]))  # S,T
        queries = [Query.of(name, *preds) for name, preds in segments]
        relations = sorted({r for q in queries for r in q.relations})
        shared = set(queries[0].relations) & set(queries[1].relations)
        assert shared, "workload must share relations across queries"
        domain = rng.randint(4, 9)
        specs = [
            StreamSpec(
                relation=rel,
                rate=rng.uniform(4.0, 8.0),
                attributes={a: uniform_domain(domain) for a in ATTRS[rel]},
            )
            for rel in relations
        ]
        streams, inputs = generate_streams(specs, 5.0, seed=seed)
        # strictly pairwise-distinct windows: the shortcut must disengage
        choices = rng.sample([1.0, 1.5, 2.5, 4.0, 6.0], len(relations))
        windows = dict(zip(relations, choices))
        return queries, relations, streams, inputs, windows

    @pytest.mark.parametrize("seed", range(8))
    def test_unequal_windows_disengage_fast_path(self, seed):
        queries, relations, streams, inputs, windows = (
            self._shared_relation_workload(seed)
        )
        topology = compile_topology(queries, relations, windows, 2, seed)
        runtime = TopologyRuntime(
            topology, windows, RuntimeConfig()
        )
        assert runtime._uniform_window is None
        runtime.run(inputs)
        assert_engine_equals_reference(runtime, queries, streams, windows)

    def test_equal_windows_engage_fast_path(self):
        """Control: the same workload under one shared window length keeps
        the O(1) check engaged and stays exact."""
        queries, relations, streams, inputs, _ = (
            self._shared_relation_workload(3)
        )
        windows = {rel: 3.0 for rel in relations}
        topology = compile_topology(queries, relations, windows, 2, 3)
        runtime = TopologyRuntime(
            topology, windows, RuntimeConfig()
        )
        assert runtime._uniform_window == 3.0
        runtime.run(inputs)
        assert_engine_equals_reference(runtime, queries, streams, windows)


class TestDifferentialBackends:
    """Store-backend axis: python and columnar containers are
    observationally identical on every seeded workload.

    The columnar backend replaces per-tuple hash-index filtering with
    numpy column masks (``repro.engine.columnar``); any drift in equality,
    visibility, window, or eviction semantics shows up as a result-set
    difference here — across chain/star/cycle shapes, ordered and
    watermark arrivals, and aggressive eviction cadences.
    """

    @staticmethod
    def _summary(runtime):
        m = runtime.metrics
        return (
            m.inputs_ingested,
            m.tuples_sent,
            m.probes_executed,
            m.comparisons,
            m.results_emitted,
            m.stored_units,
        )

    @pytest.mark.parametrize("backend", ["python", "columnar"])
    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("shape", ["chain", "star", "cycle"])
    def test_backend_parity_across_shapes(self, backend, seed, shape):
        queries, relations, streams, inputs, windows, parallelism = (
            random_workload(seed, shape=shape)
        )
        solver = "scipy" if shape == "chain" else "greedy"
        topology = compile_topology(
            queries, relations, windows, parallelism, seed, solver=solver
        )
        runtime = TopologyRuntime(
            topology,
            windows,
            RuntimeConfig(store_backend=backend),
        )
        runtime.run(inputs)
        assert_engine_equals_reference(runtime, queries, streams, windows)

    @pytest.mark.parametrize("backend", ["python", "columnar"])
    @pytest.mark.parametrize("seed", range(6))
    def test_backend_parity_watermark(self, backend, seed):
        shape = ("chain", "star", "cycle")[seed % 3]
        queries, relations, streams, inputs, windows, parallelism = (
            random_workload(seed, shape=shape)
        )
        bound = random.Random(seed ^ 0xCC).choice([0.5, 1.0, 2.0])
        feed = bounded_delay_feed(streams, bound, seed=seed)
        topology = compile_topology(
            queries, relations, windows, parallelism, seed, solver="greedy"
        )
        runtime = TopologyRuntime(
            topology,
            windows,
            RuntimeConfig(
                disorder_bound=bound, store_backend=backend
            ),
        )
        runtime.run(feed)
        assert_engine_equals_reference(runtime, queries, streams, windows)

    @pytest.mark.parametrize("evict_every", [1, 16])
    def test_columnar_eviction_boundaries(self, evict_every):
        """Aggressive watermark-driven eviction on the columnar backend:
        boundary-bucket compression must never drop in-window partners."""
        queries, relations, streams, inputs, windows, parallelism = (
            random_workload(5)
        )
        windows = {rel: 1.5 for rel in relations}
        feed = bounded_delay_feed(streams, 0.5, seed=5)
        topology = compile_topology(queries, relations, windows, 2, 5)
        runtime = TopologyRuntime(
            topology,
            windows,
            RuntimeConfig(
                disorder_bound=0.5,
                evict_every=evict_every,
                store_backend="columnar",
            ),
        )
        runtime.run(feed)
        assert runtime.metrics.stored_units < runtime.metrics.peak_stored_units
        assert_engine_equals_reference(runtime, queries, streams, windows)

    def test_backend_metric_parity(self):
        """Same workload, both backends: identical probe/comparison/eviction
        bookkeeping, not just identical result sets."""
        queries, relations, streams, inputs, windows, parallelism = (
            random_workload(7)
        )
        topology = compile_topology(queries, relations, windows, parallelism, 7)
        summaries = {}
        for backend in ("python", "columnar"):
            runtime = TopologyRuntime(
                topology,
                windows,
                RuntimeConfig(store_backend=backend),
            )
            runtime.run(inputs)
            summaries[backend] = self._summary(runtime)
        assert summaries["python"] == summaries["columnar"]

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("seed", range(6))
    def test_backend_metric_parity_sharded(self, seed, workers):
        """Result *and* checked-metric parity of the two backends across
        shapes and arrival modes, single-process and over two shards."""
        from dataclasses import replace

        from repro.engine import ShardedRuntime

        shape = ("chain", "star", "cycle")[seed % 3]
        queries, relations, streams, inputs, windows, parallelism = (
            random_workload(seed, shape=shape)
        )
        if seed % 2:  # watermark arrivals on odd seeds
            bound = random.Random(seed ^ 0xB0).choice([0.5, 1.0, 2.0])
            feed = list(bounded_delay_feed(streams, bound, seed=seed))
        else:
            bound = None
            feed = list(inputs)
        solver = "scipy" if shape == "chain" else "greedy"
        topology = compile_topology(
            queries, relations, windows, parallelism, seed, solver=solver
        )
        summaries, results = {}, {}
        for backend in ("python", "columnar"):
            config = RuntimeConfig(
                disorder_bound=bound, store_backend=backend
            )
            if workers == 1:
                runtime = TopologyRuntime(topology, windows, config)
            else:
                runtime = ShardedRuntime(
                    topology,
                    windows,
                    replace(config, workers=workers),
                    transport="inline",
                )
            runtime.run(feed)
            summaries[backend] = self._summary(runtime)
            results[backend] = {
                q.name: result_keys(runtime.results(q.name)) for q in queries
            }
            if backend == "columnar":
                assert_engine_equals_reference(
                    runtime, queries, streams, windows
                )
            if workers > 1:
                runtime.close()
        assert summaries["python"] == summaries["columnar"]
        assert results["python"] == results["columnar"]

    def test_backends_agree_through_a_noop_install(self):
        """Both backends run through the *same* mid-stream install of an
        unchanged plan: equal results, checked metrics and
        ``migrated_tuples``, and the columnar run matches the oracle."""
        from repro.engine import RewirableRuntime

        queries, relations, streams, inputs, windows, parallelism = (
            random_workload(3)
        )
        topology = compile_topology(queries, relations, windows, parallelism, 3)
        feed = list(inputs)
        cut = len(feed) // 2
        summaries, results, migrated = {}, {}, {}
        for backend in ("python", "columnar"):
            runtime = RewirableRuntime(
                topology, windows, RuntimeConfig(store_backend=backend)
            )
            feed
            runtime.run(feed[:cut])
            runtime.install(topology, now=feed[cut - 1].trigger_ts)
            runtime.run(feed[cut:])
            summaries[backend] = self._summary(runtime)
            results[backend] = {
                q.name: result_keys(runtime.results(q.name)) for q in queries
            }
            migrated[backend] = runtime.metrics.migrated_tuples
            if backend == "columnar":
                assert_engine_equals_reference(
                    runtime, queries, streams, windows
                )
        assert summaries["python"] == summaries["columnar"]
        assert results["python"] == results["columnar"]
        assert migrated["python"] == migrated["columnar"]

    def test_columnar_state_survives_rewire(self):
        """A live rewire migrates columnar state: surviving stores keep the
        same ColumnarContainer objects (``preserved_tuples`` > 0), and the
        post-rewire session still matches the oracle."""
        from repro import JoinSession
        from repro.engine.columnar import ColumnarContainer
        from repro.streams.generators import StreamSpec, generate_streams

        session = JoinSession(
            window=2.5, solver="scipy", store_backend="columnar"
        )
        session.add_query("q1", "R.a=S.a", "S.b=T.b")
        specs = [
            StreamSpec(
                relation=rel,
                rate=20.0,
                attributes={a: uniform_domain(6) for a in ATTRS[rel]},
            )
            for rel in ["R", "S", "T", "U"]
        ]
        streams, feed = generate_streams(specs, 6.0, seed=11)
        cut = len(feed) // 2
        for tup in feed[:cut]:
            if tup.trigger in session.relations:
                session.push_batch([tup])
        session.flush()
        runtime = session._runtime
        before = {
            store_id: runtime.tasks[store_id][0].container
            for store_id in ("S", "T")
        }
        for container in before.values():
            assert isinstance(container, ColumnarContainer)
        assert session.stored_tuples() > 0

        session.add_query("q2", "S.b=T.b", "T.c=U.c")  # shares S and T
        assert session.metrics.rewires == 1
        assert session.metrics.preserved_tuples > 0
        for store_id, container in before.items():
            task = runtime.tasks[store_id][0]
            # same container objects: columnar arrays migrated, not rebuilt
            assert task.container is container
        # new stores introduced by the rewire are columnar too
        for tasks in runtime.tasks.values():
            for task in tasks:
                assert isinstance(task.container, ColumnarContainer)
        for tup in feed[cut:]:
            if tup.trigger in session.relations:
                session.push_batch([tup])
        report = session.verify()
        assert report.ok, report.describe()
        assert report.checks["q2"].expected > 0


class TestDifferentialAdaptive:
    """Epoch boundaries and plan switches must preserve exactness."""

    @pytest.mark.parametrize("seed", [0, 1, 2, 9])
    def test_adaptive_logical_exact_across_epochs(self, seed):
        rng = random.Random(seed ^ 0xA5A5)
        query = Query.of("q", "R.a=S.a", "S.b=T.b")
        relations = ["R", "S", "T"]
        domain = rng.randint(2, 6)
        specs = [
            StreamSpec(
                relation=rel,
                rate=12.0,
                attributes={a: uniform_domain(domain) for a in ATTRS[rel]},
            )
            for rel in relations
        ]
        streams, inputs = generate_streams(specs, 8.0, seed=seed)
        windows = {rel: 4.0 for rel in relations}
        catalog = StatisticsCatalog(default_selectivity=0.05, default_window=4.0)
        for rel in relations:
            catalog.with_rate(rel, 12.0)
        # a biased initial selectivity makes a mid-run plan switch likely
        catalog.with_selectivity(JoinPredicate.of("S.b", "T.b"), 0.4)
        config = OptimizerConfig(cluster=ClusterConfig(default_parallelism=2))
        controller = AdaptiveController(catalog, [query], config, solver="scipy")
        runtime = AdaptiveRuntime(
            controller,
            windows,
            RuntimeConfig(),
            epoch_length=2.0,
        )
        runtime.run(inputs)
        assert_engine_equals_reference(runtime, [query], streams, windows)


class TestDifferentialSharded:
    """Shard axis: ``workers`` ∈ {1, 2, 4} crossed against shape × backend ×
    arrival mode — result sets *and* the driver-owned metrics must exactly
    equal the single-process runtime on every seeded workload.

    The matrix runs the inline transport (identical sharded semantics —
    routing, per-shard runtimes, snapshot watermarks, deterministic merge —
    minus the IPC), keeping 12 seeds × 3 worker counts fast and
    deterministic; `test_process_transport_exact` runs real worker
    processes on a sample of the same workloads.
    """

    @GRIDS
    @pytest.mark.parametrize("workers", [1, 2, 4])
    @pytest.mark.parametrize("seed", range(12))
    def test_shard_axis_exact(self, seed, workers, grid):
        from dataclasses import replace

        from repro.engine import ShardedRuntime

        shape = ("chain", "star", "cycle")[seed % 3]
        backend = ("python", "columnar")[seed % 2]
        queries, relations, streams, inputs, windows, parallelism = (
            random_workload(seed, shape=shape, grid=grid)
        )
        if seed % 4 < 2:  # watermark arrivals on half the seeds
            bound = random.Random(seed ^ 0x5A).choice([0.5, 1.0, 2.0])
            feed = list(bounded_delay_feed(streams, bound, seed=seed))
        else:
            bound = None
            feed = list(inputs)
        solver = "scipy" if shape == "chain" else "greedy"
        topology = compile_topology(
            queries, relations, windows, parallelism, seed, solver=solver
        )
        config = RuntimeConfig(
            disorder_bound=bound, store_backend=backend
        )
        base = TopologyRuntime(topology, windows, config)
        base.run(feed)
        sharded = ShardedRuntime(
            topology, windows, replace(config, workers=workers),
            transport="inline",
        )
        sharded.run(feed)
        assert_engine_equals_reference(sharded, queries, streams, windows)
        for query in queries:
            assert result_keys(sharded.results(query.name)) == result_keys(
                base.results(query.name)
            ), query.name
        # driver-owned counters are exact under sharding (broadcast-affected
        # flow counters are covered by test_colocated_flow_counters_exact)
        assert sharded.metrics.inputs_ingested == base.metrics.inputs_ingested
        assert sharded.metrics.results_emitted == base.metrics.results_emitted
        assert sharded.metrics.results_per_query == base.metrics.results_per_query
        assert sharded.metrics.late_dropped == base.metrics.late_dropped
        assert sharded.watermark() == base.watermark()
        sharded.close()

    @pytest.mark.parametrize("seed", [0, 7])
    def test_process_transport_exact(self, seed):
        """Real multiprocessing workers on a sample of the matrix above."""
        from dataclasses import replace

        from repro.engine import ShardedRuntime

        shape = ("chain", "star", "cycle")[seed % 3]
        queries, relations, streams, inputs, windows, parallelism = (
            random_workload(seed, shape=shape)
        )
        solver = "scipy" if shape == "chain" else "greedy"
        topology = compile_topology(
            queries, relations, windows, parallelism, seed, solver=solver
        )
        config = RuntimeConfig(disorder_bound=1.0)
        feed = list(bounded_delay_feed(streams, 1.0, seed=seed))
        base = TopologyRuntime(topology, windows, config)
        base.run(feed)
        with ShardedRuntime(
            topology, windows, replace(config, workers=2),
            transport="process",
        ) as sharded:
            sharded.run(feed)
            assert_engine_equals_reference(sharded, queries, streams, windows)
            assert (
                sharded.metrics.results_per_query
                == base.metrics.results_per_query
            )

    def test_colocated_flow_counters_exact(self):
        """With every relation partitioned (no broadcast), the *full* flow
        counter set — sends, probes, comparisons, stored units — sums across
        shards to exactly the single-process values."""
        from dataclasses import replace

        from repro.engine import ShardedRuntime

        queries = [Query.of("q", "R.a=S.a")]
        rng = random.Random(17)
        specs = [
            StreamSpec(
                relation=rel,
                rate=15.0,
                attributes={"a": uniform_domain(6)},
            )
            for rel in ("R", "S")
        ]
        streams, inputs = generate_streams(specs, 6.0, seed=17)
        windows = {"R": 3.0, "S": 3.0}
        topology = compile_topology(queries, ["R", "S"], windows, 2, 17)
        config = RuntimeConfig()
        base = TopologyRuntime(topology, windows, config)
        base.run(inputs)
        sharded = ShardedRuntime(
            topology, windows, replace(config, workers=3), transport="inline"
        )
        assert sharded.router.metrics_exact, sharded.router.describe()
        sharded.run(inputs)
        assert_engine_equals_reference(sharded, queries, streams, windows)
        for field in (
            "messages_sent",
            "tuples_sent",
            "probes_executed",
            "comparisons",
            "stored_units",
            "results_emitted",
        ):
            assert getattr(sharded.metrics, field) == getattr(
                base.metrics, field
            ), field
        sharded.close()


class TestDifferentialVectorized:
    """``vectorized_cascades`` is a pure execution strategy: switching it
    off must change nothing observable — same result sets and the same
    probe/comparison/storage bookkeeping on every workload."""

    @pytest.mark.parametrize("seed", [1, 2, 4, 5])
    def test_vectorized_toggle_invariant(self, seed):
        shape = ("chain", "star", "cycle")[seed % 3]
        queries, relations, streams, inputs, windows, parallelism = (
            random_workload(seed, shape=shape)
        )
        if seed % 2:  # watermark arrivals on odd seeds
            bound = 1.0
            feed = list(bounded_delay_feed(streams, bound, seed=seed))
        else:
            bound = None
            feed = list(inputs)
        solver = "scipy" if shape == "chain" else "greedy"
        topology = compile_topology(
            queries, relations, windows, parallelism, seed, solver=solver
        )
        summaries, results = {}, {}
        for vectorized in (True, False):
            runtime = TopologyRuntime(
                topology,
                windows,
                RuntimeConfig(
                    disorder_bound=bound,
                    store_backend="columnar",
                    vectorized_cascades=vectorized,
                ),
            )
            runtime.run(feed)
            m = runtime.metrics
            summaries[vectorized] = (
                m.inputs_ingested,
                m.tuples_sent,
                m.probes_executed,
                m.comparisons,
                m.results_emitted,
                m.stored_units,
            )
            results[vectorized] = {
                q.name: result_keys(runtime.results(q.name)) for q in queries
            }
        assert summaries[True] == summaries[False]
        assert results[True] == results[False]

    @pytest.mark.parametrize("backend", ["python", "columnar"])
    def test_all_miss_feed_activates_nothing(self, backend):
        """A hop with zero survivors must not touch downstream state: with
        no S tuples at all, every probe lands on an empty store, so no lazy
        index build or column activation may run anywhere (the batched
        probe path used to build indexes on empty containers)."""
        queries = [Query.of("q", "R.a=S.a", "S.b=T.b")]
        relations = ["R", "S", "T"]
        windows = {rel: 4.0 for rel in relations}
        specs = [
            StreamSpec(
                relation=rel,
                rate=15.0,
                attributes={a: uniform_domain(4) for a in ATTRS[rel]},
            )
            for rel in ("R", "T")  # S never arrives
        ]
        streams, feed = generate_streams(specs, 5.0, seed=23)
        topology = compile_topology(queries, relations, windows, 1, 23)
        runtime = TopologyRuntime(
            topology,
            windows,
            RuntimeConfig(store_backend=backend),
        )
        runtime.run(feed)
        assert runtime.metrics.probes_executed > 0
        assert runtime.metrics.results_emitted == 0
        for tasks in runtime.tasks.values():
            for task in tasks:
                cont = task.container
                assert getattr(cont, "index_rebuilds", 0) == 0
                assert getattr(cont, "column_builds", 0) == 0


class TestDifferentialAdaptiveWatermark:
    """Satellite regression: the adaptive runtime used to reject
    ``disorder_bound`` outright.  Epoch re-optimization now composes with
    watermark mode — a disordered feed crosses epoch boundaries, plans are
    installed under watermark time, and the result set still equals the
    brute-force oracle."""

    @pytest.mark.parametrize("seed", [0, 1, 2, 9])
    def test_adaptive_watermark_exact_across_epochs(self, seed):
        rng = random.Random(seed ^ 0xA5A5)
        query = Query.of("q", "R.a=S.a", "S.b=T.b")
        relations = ["R", "S", "T"]
        domain = rng.randint(2, 6)
        specs = [
            StreamSpec(
                relation=rel,
                rate=12.0,
                attributes={a: uniform_domain(domain) for a in ATTRS[rel]},
            )
            for rel in relations
        ]
        streams, inputs = generate_streams(specs, 8.0, seed=seed)
        feed = list(bounded_delay_feed(streams, 1.0, seed=seed ^ 0x77))
        windows = {rel: 4.0 for rel in relations}
        catalog = StatisticsCatalog(default_selectivity=0.05, default_window=4.0)
        for rel in relations:
            catalog.with_rate(rel, 12.0)
        # a biased initial selectivity makes a mid-run plan switch likely
        catalog.with_selectivity(JoinPredicate.of("S.b", "T.b"), 0.4)
        config = OptimizerConfig(cluster=ClusterConfig(default_parallelism=2))
        controller = AdaptiveController(catalog, [query], config, solver="scipy")
        runtime = AdaptiveRuntime(
            controller,
            windows,
            RuntimeConfig(disorder_bound=1.0),
            epoch_length=2.0,
        )
        runtime.run(feed)
        assert runtime.current_epoch >= 2
        # every seed actually installs a new plan under watermark time
        assert runtime.switches
        assert_engine_equals_reference(runtime, [query], streams, windows)


class TestDifferentialUnifiedAdaptivity:
    """The unified adaptivity loop, driven through the session facade.

    ``JoinSession(reoptimize_every=E)`` must be (a) oracle-exact and
    (b) indistinguishable from a hand-driven :class:`AdaptiveRuntime` fed
    the same tuples: identical :class:`DecisionRecord` sequences, identical
    switch epochs/times, identical result sets — at ``workers=1`` (same
    single-process rewirable runtime) and ``workers=2`` (statistics
    observed shard-side and folded back to the driver's loop), across
    ordered and watermark arrivals and chain and star shapes.
    """

    EPOCH = 2.0
    DEFAULT_RATE = 10.0
    DEFAULT_SELECTIVITY = 0.08

    def _twin(self, queries, relations, windows, parallelism, bound, solver):
        """An AdaptiveRuntime configured exactly like the session plans:
        same defaults catalog, same optimizer config, same epoch length."""
        base = StatisticsCatalog(
            default_selectivity=self.DEFAULT_SELECTIVITY,
            default_window=10.0,
        )
        for rel in relations:
            base.with_rate(rel, self.DEFAULT_RATE)
            base.with_window(rel, windows[rel])
        config = OptimizerConfig(
            cluster=ClusterConfig(default_parallelism=parallelism)
        )
        ordered = [q for q in sorted(queries, key=lambda q: q.name)]
        controller = AdaptiveController(base, ordered, config, solver=solver)
        runtime = AdaptiveRuntime(
            controller,
            dict(windows),
            RuntimeConfig(disorder_bound=bound),
            epoch_length=self.EPOCH,
        )
        return controller, runtime

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("seed", range(8))
    def test_session_epochs_match_adaptive_runtime(self, seed, workers):
        from repro import JoinSession

        shape = ("chain", "star")[seed % 2]
        queries, relations, streams, inputs, windows, parallelism = (
            random_workload(seed, shape=shape)
        )
        if seed % 4 >= 2:  # watermark arrivals on the back half of each pair
            bound = random.Random(seed ^ 0xAD).choice([0.5, 1.0])
            feed = list(bounded_delay_feed(streams, bound, seed=seed))
        else:
            bound = None
            feed = list(inputs)
        solver = "scipy" if shape == "chain" else "greedy"

        session = JoinSession(
            window=10.0,
            solver=solver,
            default_rate=self.DEFAULT_RATE,
            default_selectivity=self.DEFAULT_SELECTIVITY,
            disorder_bound=bound,
            workers=workers if workers > 1 else None,
            worker_transport="inline",
            parallelism=parallelism,
            reoptimize_every=self.EPOCH,
        )
        for rel, window in windows.items():
            session.with_window(rel, window)
        for query in queries:
            session.add_query(query)
        session.push_batch(feed)
        session.flush()
        report = session.verify()
        assert report.ok, report.describe()

        controller, twin = self._twin(
            queries, relations, windows, parallelism, bound, solver
        )
        twin.run(feed)

        # decision-for-decision: every epoch boundary consulted the
        # optimizer with the same measured statistics → same records
        assert session.decisions, "no epoch boundary was ever crossed"
        assert session.decisions == controller.decisions
        assert session.decisions == twin.metrics.decisions
        # switch-for-switch: changed plans install at identical epochs
        assert [
            (s.epoch, s.time, s.added_stores, s.removed_stores)
            for s in session.rewires
        ] == [
            (s.epoch, s.time, s.added_stores, s.removed_stores)
            for s in twin.switches
        ]
        # result parity (and, driver-exact, the headline counters)
        for query in queries:
            assert result_keys(session.results(query.name)) == result_keys(
                twin.results(query.name)
            ), query.name
        assert (
            session.metrics.inputs_ingested == twin.metrics.inputs_ingested
        )
        assert (
            session.metrics.results_emitted == twin.metrics.results_emitted
        )
        assert session.metrics.late_dropped == twin.metrics.late_dropped
        if workers == 1 or session._runtime.router.metrics_exact:
            for field in (
                "tuples_sent",
                "probes_executed",
                "comparisons",
                "stored_units",
            ):
                assert getattr(session.metrics, field) == getattr(
                    twin.metrics, field
                ), field
        session.close()

    @pytest.mark.parametrize("workers", [1, 2])
    def test_observed_drift_flips_plan_without_churn(self, workers):
        """A deterministic drift scenario: the feed's observed selectivities
        contradict the defaults, so the loop's epoch decision re-optimizes
        and installs a new plan with *no* query churn — and stays exact."""
        from repro import JoinSession

        session = JoinSession(
            window=6.0,
            solver="scipy",
            default_rate=8.0,
            default_selectivity=0.5,  # deliberately wrong: everything joins
            workers=workers if workers > 1 else None,
            worker_transport="inline",
            reoptimize_every=2.0,
        )
        session.add_query("q", "R.a=S.a", "S.b=T.b")
        rng = random.Random(23)
        feed = []
        ts = 0.05
        # R.a=S.a matches almost never, S.b=T.b always — the measured
        # catalog inverts the default ordering pressure
        for i in range(220):
            rel = ("R", "S", "T")[i % 3]
            values = {
                "R": {"a": rng.randrange(50)},
                "S": {"a": rng.randrange(50) + 100, "b": 1},
                "T": {"b": 1, "c": rng.randrange(4)},
            }[rel]
            feed.append((rel, values, ts))
            ts += 0.04
        for rel, values, t in feed:
            session.push(rel, values, t)
        session.flush()
        assert session.decisions, "epochs never closed"
        assert any(d.changed for d in session.decisions)
        assert session.rewires, "the drifted plan was never installed"
        assert session.metrics.rewires == len(session.rewires)
        report = session.verify()
        assert report.ok, report.describe()
        session.close()

    def test_explicit_reoptimize_is_a_recorded_decision(self):
        """``session.reoptimize()`` consults the optimizer immediately:
        unchanged statistics → a DecisionRecord with ``changed=False`` and
        no install; drifted statistics → an immediate live rewire."""
        from repro import JoinSession

        session = JoinSession(
            window=6.0, solver="scipy", default_rate=8.0,
            default_selectivity=0.5,
        )
        session.add_query("q", "R.a=S.a", "S.b=T.b")
        rng = random.Random(29)
        ts = 0.05
        for i in range(40):
            rel = ("R", "S", "T")[i % 3]
            values = {
                "R": {"a": rng.randrange(3)},
                "S": {"a": rng.randrange(3), "b": rng.randrange(3)},
                "T": {"b": rng.randrange(3), "c": rng.randrange(3)},
            }[rel]
            session.push(rel, values, ts)
            ts += 0.05
        first = session.reoptimize()
        assert first is not None
        assert len(session.decisions) == 1
        # drift the stream: S.b=T.b becomes a guaranteed match while
        # R.a=S.a dries up completely
        for i in range(160):
            rel = ("R", "S", "T")[i % 3]
            values = {
                "R": {"a": rng.randrange(50)},
                "S": {"a": rng.randrange(50) + 100, "b": 1},
                "T": {"b": 1, "c": rng.randrange(4)},
            }[rel]
            session.push(rel, values, ts)
            ts += 0.05
        second = session.reoptimize()
        assert second is not None and second.changed
        assert len(session.decisions) == 2
        assert session.rewires and session.rewires[-1].epoch == 0
        report = session.verify()
        assert report.ok, report.describe()

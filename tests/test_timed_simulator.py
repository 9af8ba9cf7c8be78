"""The discrete-event simulator behind Figures 7 and 8.

``TimedSimulator`` is evaluation apparatus (``repro.experiments.timed``),
not an engine mode.  Besides the behavioural tests that used to target
the engine's timed mode, this file pins every field of the
``run_fig7`` / ``run_fig8a`` / ``run_fig8b`` outcomes at the
``tests/test_experiments.py`` parameterizations to the values captured on
the commit *before* the simulator left the engine
(``timed_simulator_pins.json``): moving it must not move a figure.
"""

import dataclasses
import json
import pathlib
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
    AdaptivityLoop,
    RuntimeConfig,
    input_tuple,
    reference_join,
    result_keys,
)
from repro.engine.profiles import CLASH_PROFILE
from repro.experiments.fig7 import run_fig7
from repro.experiments.fig8 import run_fig8a, run_fig8b
from repro.experiments.timed import TimedSimulator

ATTRS = {"R": ["a"], "S": ["a", "b"], "T": ["b", "c"], "U": ["c"]}
PINS = json.loads(
    (pathlib.Path(__file__).parent / "timed_simulator_pins.json").read_text()
)


def make_streams(seed, n, rels, rate_step, domain=6, shift_at=None):
    """Random streams; after ``shift_at`` the ``b`` domain collapses."""
    rng = random.Random(seed)
    streams = {r: [] for r in rels}
    inputs = []
    t = 0.0
    for _ in range(n):
        t += rng.random() * rate_step
        rel = rng.choice(rels)
        if shift_at is None:
            vals = {a: rng.randint(0, domain) for a in ATTRS[rel]}
        else:
            dom = 3 if t > shift_at else 40
            vals = {
                a: (rng.randint(0, dom) if a == "b" else rng.randint(0, 15))
                for a in ATTRS[rel]
            }
        tup = input_tuple(rel, t, vals)
        streams[rel].append(tup)
        inputs.append(tup)
    return streams, inputs


def three_way_topology():
    query = Query.of("q", "R.a=S.a", "S.b=T.b")
    catalog = StatisticsCatalog(default_selectivity=0.05, default_window=8.0)
    for rel in "RST":
        catalog.with_rate(rel, 10.0)
    cfg = OptimizerConfig(cluster=ClusterConfig(default_parallelism=2))
    plan = MultiQueryOptimizer(catalog, cfg).optimize([query]).plan
    return query, build_topology(plan, catalog, cfg.cluster)


class TestTimedSimulator:
    def _run(self, profile_scale=1.0):
        query, topology = three_way_topology()
        streams, inputs = make_streams(10, 300, "RST", rate_step=0.02)
        windows = {r: 8.0 for r in "RST"}
        sim = TimedSimulator(
            topology, windows, profile=CLASH_PROFILE.scaled(profile_scale)
        )
        sim.run(inputs)
        return sim, streams, windows, query

    def test_produces_results_with_latency(self):
        sim, *_ = self._run()
        assert sim.metrics.results_emitted > 0
        assert sim.metrics.mean_latency > 0

    def test_result_set_nearly_complete(self):
        """The simulation is asynchronous: in-flight MIR deliveries can race
        probes (as in any real distributed engine), so a small fraction of
        results may be missed — but never invented."""
        sim, streams, windows, query = self._run()
        ref = result_keys(reference_join(query, streams, windows))
        got = result_keys(sim.results(query.name))
        assert not (got - ref), "the simulator must not invent results"
        assert len(got) >= 0.95 * len(ref)

    def test_slower_profile_increases_latency(self):
        fast, *_ = self._run(profile_scale=1.0)
        slow, *_ = self._run(profile_scale=50.0)
        assert slow.metrics.mean_latency > fast.metrics.mean_latency

    def test_latency_timeline_buckets(self):
        sim, *_ = self._run()
        timeline = sim.metrics.latency_timeline(bucket=1.0)
        assert timeline
        assert all(lat >= 0 for _, lat in timeline)

    def test_throughput_positive(self):
        sim, *_ = self._run()
        assert sim.metrics.throughput > 0

    def test_tied_pairs_all_join_once(self):
        """One R and one S at every integer second: each pair ties, and
        every one of them joins exactly once, whichever of the two
        messages reaches the other's store first."""
        query = Query.of("q", "R.a=S.a")
        catalog = StatisticsCatalog(default_selectivity=0.25, default_window=3.0)
        for rel in "RS":
            catalog.with_rate(rel, 1.0)
        cfg = OptimizerConfig(cluster=ClusterConfig(default_parallelism=2))
        plan = MultiQueryOptimizer(catalog, cfg).optimize([query]).plan
        topology = build_topology(plan, catalog, cfg.cluster)
        streams = {rel: [] for rel in "RS"}
        inputs = []
        for second in range(20):
            for rel in "RS":
                # one key every 4 s in a 3 s window: only the ties join
                tup = input_tuple(rel, float(second), {"a": second % 4})
                streams[rel].append(tup)
                inputs.append(tup)
        windows = {"R": 3.0, "S": 3.0}
        sim = TimedSimulator(topology, windows)
        sim.run(inputs)
        got = [r.key() for r in sim.results("q")]
        assert len(set(got)) == len(got)
        assert set(got) == result_keys(reference_join(query, streams, windows))
        assert len(got) == 20

    def test_needs_the_whole_feed(self):
        _, topology = three_way_topology()
        sim = TimedSimulator(topology, {r: 8.0 for r in "RST"})
        with pytest.raises(RuntimeError, match="whole feed"):
            sim.process(input_tuple("R", 0.5, {"a": 1}))
        with pytest.raises(ValueError, match="disorder_bound"):
            TimedSimulator(
                topology, {r: 8.0 for r in "RST"}, RuntimeConfig(disorder_bound=1.0)
            )

    def test_adaptive_loop_runs_to_completion(self):
        """Epoch switches land while messages routed under the old plan are
        still queued; those must still find their edge, rules and task."""
        query = Query.of("q", "R.a=S.a", "S.b=T.b", "T.c=U.c")
        catalog = StatisticsCatalog(default_selectivity=0.02, default_window=5.0)
        for rel in "RSTU":
            catalog.with_rate(rel, 20.0)
        catalog.with_selectivity(JoinPredicate.of("S.b", "T.b"), 0.2)
        cfg = OptimizerConfig(cluster=ClusterConfig(default_parallelism=2))
        controller = AdaptiveController(catalog, [query], cfg, solver="scipy")
        loop = AdaptivityLoop(controller, epoch_length=2.0, cluster=cfg.cluster)
        _, inputs = make_streams(7, 400, "RSTU", rate_step=0.05, shift_at=8.0)
        sim = TimedSimulator(
            controller.initial_topology(cfg.cluster),
            {r: 5.0 for r in "RSTU"},
            loop=loop,
        )
        sim.run(inputs)
        assert sim.metrics.results_emitted > 0
        assert not sim.metrics.failed
        assert sim.switches, "the shift must trigger at least one switch"
        removed = {s for rec in sim.switches for s in rec.removed_stores}
        for store_id in removed - set(sim.topology.stores):
            # retired stores stay addressable for queued messages
            assert store_id in sim.tasks


def _assert_pinned(got, want, path):
    """Exact for counts, flags, names and switch times; floats to 1e-9
    relative (the optimizer's probe cost sums in hash order)."""
    if isinstance(want, float):
        assert got == pytest.approx(want, rel=1e-9, abs=1e-12), path
    elif isinstance(want, list):
        assert len(got) == len(want), path
        for index, (g, w) in enumerate(zip(got, want)):
            _assert_pinned(g, w, f"{path}[{index}]")
    elif isinstance(want, dict):
        assert set(got) == set(want), path
        for key in want:
            _assert_pinned(got[key], want[key], f"{path}.{key}")
    else:
        assert got == want, path


class TestFiguresPinnedToParent:
    def test_fig7_rows(self):
        rows = run_fig7(
            num_queries=5, total_rate=80.0, duration=8.0,
            overload_rate=400.0, overload_duration=2.0, solver="scipy",
        )
        _assert_pinned(
            [dataclasses.asdict(row) for row in rows], PINS["fig7"], "fig7"
        )

    def test_fig8a_outcomes(self):
        outcomes = run_fig8a(
            rate=20.0, duration=14.0, shift_at=7.0, window=3.0,
            memory_limit=6_000.0, profile_scale=8.0, seed=3, solver="scipy",
        )
        got = {k: dataclasses.asdict(v) for k, v in outcomes.items()}
        _assert_pinned(json.loads(json.dumps(got)), PINS["fig8a"], "fig8a")

    def test_fig8b_outcomes(self):
        outcomes = run_fig8b(
            fast_rate=80.0, slow_rate=2.5, duration=14.0, shift_at=7.0,
            window=3.0, profile_scale=8.0, seed=3, solver="scipy",
        )
        got = {k: dataclasses.asdict(v) for k, v in outcomes.items()}
        _assert_pinned(json.loads(json.dumps(got)), PINS["fig8b"], "fig8b")

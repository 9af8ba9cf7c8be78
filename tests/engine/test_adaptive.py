"""Tests for epoch-based adaptive execution (Section VI)."""

import random
from collections import Counter

import pytest

from repro.core import (
    ClusterConfig,
    JoinPredicate,
    OptimizerConfig,
    Query,
    StatisticsCatalog,
)
from repro.core.adaptive import AdaptiveController, plan_signature, store_refcounts
from repro.engine import (
    AdaptiveRuntime,
    EpochStatistics,
    RuntimeConfig,
    input_tuple,
    reference_join,
    result_keys,
)
from repro.engine import statistics as statistics_module
from repro.streams import generate_streams, tpch_specs

ATTRS ={"R": ["a"], "S": ["a", "b"], "T": ["b", "c"], "U": ["c"]}


def shifted_workload(seed=7, n=800, shift_at=8.0, shrunk_domain=3):
    """Random RSTU streams whose S.b/T.b domain collapses after ``shift_at``."""
    rng = random.Random(seed)
    streams = {r: [] for r in "RSTU"}
    inputs = []
    t = 0.0
    for _ in range(n):
        t += rng.random() * 0.05
        rel = rng.choice("RSTU")
        dom = shrunk_domain if t > shift_at else 40
        vals = {
            a: (rng.randint(0, dom) if a == "b" else rng.randint(0, 15))
            for a in ATTRS[rel]
        }
        tup = input_tuple(rel, t, vals)
        streams[rel].append(tup)
        inputs.append(tup)
    return streams, inputs


def make_controller(parallelism=2, solver="scipy"):
    """The scipy/HiGHS backend keeps per-epoch re-optimization fast enough
    for tier-1; solver equivalence itself is covered by the ILP suite."""
    q = Query.of("q", "R.a=S.a", "S.b=T.b", "T.c=U.c")
    cat = StatisticsCatalog(default_selectivity=0.02, default_window=5.0)
    for r in "RSTU":
        cat.with_rate(r, 20.0)
    cat.with_selectivity(JoinPredicate.of("S.b", "T.b"), 0.2)
    cfg = OptimizerConfig(cluster=ClusterConfig(default_parallelism=parallelism))
    return AdaptiveController(cat, [q], cfg, solver=solver), q


class TestEpochStatistics:
    def test_rate_estimation(self):
        stats = EpochStatistics(epoch=0)
        for i in range(10):
            stats.observe(input_tuple("R", i * 0.1, {"a": i}))
        assert stats.rate("R", epoch_length=2.0) == pytest.approx(5.0)
        assert stats.rate("S", epoch_length=2.0) is None

    def test_selectivity_from_histograms(self):
        stats = EpochStatistics(epoch=0)
        for i in range(10):
            stats.observe(input_tuple("R", i, {"a": i % 2}))
            stats.observe(input_tuple("S", i + 0.5, {"a": i % 2}))
        sel = stats.selectivity(JoinPredicate.of("R.a", "S.a"))
        # uniform over 2 values -> about 1/2 of pairs match
        assert sel == pytest.approx(0.5, rel=0.01)

    def test_selectivity_none_without_data(self):
        stats = EpochStatistics(epoch=0)
        assert stats.selectivity(JoinPredicate.of("R.a", "S.a")) is None

    def test_a_histogram_is_built_once_per_attribute(self, monkeypatch):
        """``observe`` and ``merge`` build a histogram when its attribute
        is first seen, not one per call to discard (``setdefault(attr,
        Counter())`` did), and accumulate what a plain reference does."""
        built = []

        class CountingCounter(Counter):
            def __init__(self, *args, **kwargs):
                built.append(1)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(statistics_module, "Counter", CountingCounter)
        _, feed = generate_streams(tpch_specs(300.0), 6.0, seed=3)
        feed = feed[:1000]
        assert len(feed) == 1000
        attrs = {attr for tup in feed for attr in tup.values}

        stats = EpochStatistics(epoch=0)
        for tup in feed:
            stats.observe(tup)
        assert len(built) == len(attrs)
        counts, histograms = Counter(), {}
        for tup in feed:
            counts[tup.trigger] += 1
            for attr, value in tup.values.items():
                histograms.setdefault(attr, Counter())[value] += 1
        assert stats.counts == dict(counts)
        assert stats.histograms == histograms

        built.clear()
        merged = EpochStatistics(epoch=0)
        merged.merge(stats)
        merged.merge(stats)
        assert len(built) == len(attrs)
        assert merged.histograms == {a: h + h for a, h in histograms.items()}

    def test_fold_into_keeps_base_for_unobserved(self):
        base = StatisticsCatalog(default_selectivity=0.3)
        base.with_rate("R", 7.0).with_rate("S", 9.0)
        stats = EpochStatistics(epoch=0)
        stats.observe(input_tuple("R", 0.5, {"a": 1}))
        q = Query.of("q", "R.a=S.a")
        folded = stats.fold_into(base, [q], epoch_length=1.0)
        assert folded.rate("R") == pytest.approx(1.0)
        assert folded.rate("S") == pytest.approx(9.0)  # unobserved: base value


class TestController:
    def test_initial_topology_and_signature(self):
        ctrl, _ = make_controller()
        topo = ctrl.initial_topology()
        assert topo.stores
        assert ctrl.current_plan is not None
        assert plan_signature(ctrl.current_plan) == ctrl.current_signature

    def test_decide_no_change_builds_no_topology(self):
        ctrl, _ = make_controller()
        ctrl.initial_topology()
        out = ctrl.decide(0, ctrl.base_catalog)
        assert out.topology is None
        assert out.record.changed is False

    def test_decide_on_shifted_stats_changes_plan(self):
        ctrl, _ = make_controller()
        ctrl.initial_topology()
        shifted = ctrl.base_catalog.copy()
        shifted.with_selectivity(JoinPredicate.of("S.b", "T.b"), 1e-4)
        shifted.with_selectivity(JoinPredicate.of("R.a", "S.a"), 0.5)
        out = ctrl.decide(0, shifted)
        assert out.record.changed and out.topology is not None

    def test_add_and_remove_query(self):
        ctrl, q = make_controller()
        ctrl.initial_topology()
        q2 = Query.of("q2", "S.b=T.b")
        ctrl.add_query(q2)
        added = ctrl.decide(1, ctrl.base_catalog)
        assert added.record.changed and added.topology is not None
        ctrl.commit(added.plan)
        ctrl.remove_query("q2")
        assert ctrl.decide(2, ctrl.base_catalog).record.changed
        with pytest.raises(KeyError):
            ctrl.remove_query("q2")
        with pytest.raises(ValueError):
            ctrl.add_query(q)

    def test_refcounts_drop_with_queries(self):
        ctrl, q = make_controller()
        q2 = Query.of("q2", "S.b=T.b")
        ctrl.add_query(q2)
        ctrl.initial_topology()
        counts = ctrl.refcounts()
        assert counts["S"] == 2 and counts["T"] == 2  # shared by both
        assert counts["R"] == 1 and counts["U"] == 1
        ctrl.remove_query("q2")
        ctrl.commit(ctrl.decide(0, ctrl.base_catalog).plan)
        counts = ctrl.refcounts()
        assert counts["S"] == 1 and counts["T"] == 1

    def test_store_refcounts_standalone(self):
        ctrl, _ = make_controller()
        ctrl.initial_topology()
        counts = store_refcounts(ctrl.current_plan)
        assert all(c >= 1 for sid, c in counts.items() if len(sid) == 1)


class TestAdaptiveRuntime:
    def test_exact_across_reconfigurations(self):
        ctrl, q = make_controller()
        streams, inputs = shifted_workload()
        windows = {r: 5.0 for r in "RSTU"}
        rt = AdaptiveRuntime(
            ctrl, windows, RuntimeConfig(), epoch_length=2.0
        )
        rt.run(inputs)
        assert rt.switches, "the shift must trigger at least one switch"
        assert result_keys(rt.results("q")) == result_keys(
            reference_join(q, streams, windows)
        )

    def test_static_baseline_is_also_exact(self):
        ctrl, q = make_controller()
        streams, inputs = shifted_workload()
        windows = {r: 5.0 for r in "RSTU"}
        rt = AdaptiveRuntime(
            ctrl,
            windows,
            RuntimeConfig(),
            epoch_length=2.0,
            adapt=False,
        )
        rt.run(inputs)
        assert not rt.switches
        assert result_keys(rt.results("q")) == result_keys(
            reference_join(q, streams, windows)
        )

    def test_decision_delay_is_two_epochs(self):
        """Stats from epoch i must not take effect before epoch i+2."""
        ctrl, q = make_controller()
        _, inputs = shifted_workload()
        windows = {r: 5.0 for r in "RSTU"}
        rt = AdaptiveRuntime(
            ctrl, windows, RuntimeConfig(), epoch_length=2.0
        )
        rt.run(inputs)
        for record in rt.switches:
            decision = next(
                d
                for d in rt.metrics.decisions
                if d.changed and d.epoch == record.epoch - 2
            )
            assert decision.epoch == record.epoch - 2

    def test_migration_counted_when_partitioning_changes(self):
        ctrl, q = make_controller(parallelism=2)
        streams, inputs = shifted_workload()
        windows = {r: 5.0 for r in "RSTU"}
        rt = AdaptiveRuntime(
            ctrl, windows, RuntimeConfig(), epoch_length=2.0
        )
        rt.run(inputs)
        if rt.switches:
            assert rt.metrics.migrated_tuples >= 0

    def test_removed_store_state_released(self):
        ctrl, q = make_controller()
        streams, inputs = shifted_workload()
        windows = {r: 5.0 for r in "RSTU"}
        rt = AdaptiveRuntime(
            ctrl, windows, RuntimeConfig(), epoch_length=2.0
        )
        rt.run(inputs)
        removed = {s for rec in rt.switches for s in rec.removed_stores}
        active = set(rt.topology.stores)
        for store_id in removed - active:
            # a retired store's tasks are dropped outright: no message can
            # be in flight across an install
            assert store_id not in rt.tasks

    def test_install_on_pending_micro_batch_is_invisible(self):
        """An epoch boundary may land on a pending micro-batch: install()
        flushes it against the old plan first, so batching changes neither
        the decisions, nor the switch points, nor the results."""
        runs = {}
        for batch_size in (1, 64):
            ctrl, q = make_controller()
            streams, inputs = shifted_workload()
            windows = {r: 5.0 for r in "RSTU"}
            rt = AdaptiveRuntime(
                ctrl, windows, RuntimeConfig(batch_size=batch_size), epoch_length=2.0
            )
            rt.run(inputs)
            runs[batch_size] = (
                [
                    (d.epoch, d.changed, round(d.objective, 6))
                    for d in rt.metrics.decisions
                ],
                [(s.epoch, s.time, s.added_stores, s.removed_stores) for s in rt.switches],
                result_keys(rt.results("q")),
            )
        assert runs[1][1], "the shift must trigger at least one switch"
        assert runs[1] == runs[64]
        assert runs[64][2] == result_keys(reference_join(q, streams, windows))


class TestWindowGrowth:
    """Retention across rewires: grow-only, honest about evicted history.

    A widening install is fine while the wider window can still reach every
    needed tuple; once eviction has discarded history the new window would
    join against, the install must fail loudly (``WindowGrowthError``)
    instead of silently under-reporting.  A narrowing install keeps the
    incumbent horizon as slack.
    """

    def _topology(self, window):
        from repro.core import build_topology
        from repro.core.optimizer import MultiQueryOptimizer

        query = Query.of("q", "R.a=S.a")
        catalog = StatisticsCatalog(
            default_selectivity=0.1, default_window=window
        )
        for rel in ("R", "S"):
            catalog.with_rate(rel, 10.0).with_window(rel, window)
        cfg = OptimizerConfig(cluster=ClusterConfig(default_parallelism=1))
        opt = MultiQueryOptimizer(catalog, cfg, solver="scipy")
        return build_topology(opt.optimize([query]).plan, catalog, cfg.cluster)

    def test_widening_before_eviction_proceeds(self):
        from repro.engine import RewirableRuntime

        rt = RewirableRuntime(
            self._topology(2.0),
            {"R": 2.0, "S": 2.0},
            RuntimeConfig(),
        )
        rt.run([input_tuple("R", 0.5, {"a": 1})])
        rt.install(self._topology(5.0), now=0.6, windows={"R": 5.0, "S": 5.0})
        # the old window would have excluded this pair (gap 3.5 > 2)
        rt.run([input_tuple("S", 4.0, {"a": 1})])
        results = rt.results("q")
        assert len(results) == 1
        assert results[0].timestamps == {"R": 0.5, "S": 4.0}

    def test_widening_past_evicted_history_raises(self):
        from repro.engine import RewirableRuntime, WindowGrowthError

        rt = RewirableRuntime(
            self._topology(2.0),
            {"R": 2.0, "S": 2.0},
            RuntimeConfig(evict_every=1),
        )
        rt.run(
            [
                input_tuple("R", 0.5, {"a": 1}),
                input_tuple("S", 1.0, {"a": 1}),
                input_tuple("R", 4.0, {"a": 2}),  # evicts history through t=2
            ]
        )
        assert len(rt.results("q")) == 1
        with pytest.raises(WindowGrowthError, match="widens retention"):
            rt.install(
                self._topology(5.0), now=4.5, windows={"R": 5.0, "S": 5.0}
            )
        # the failed install left the runtime exactly on its old plan
        assert rt.metrics.rewires == 0
        assert rt.windows == {"R": 2.0, "S": 2.0}
        rt.run([input_tuple("S", 5.0, {"a": 2})])
        assert len(rt.results("q")) == 2

    def test_shrink_keeps_retention_slack(self):
        from repro.engine import RewirableRuntime

        rt = RewirableRuntime(
            self._topology(4.0),
            {"R": 4.0, "S": 4.0},
            RuntimeConfig(),
        )
        rt.run([input_tuple("R", 0.5, {"a": 1})])
        rt.install(self._topology(2.0), now=1.0, windows={"R": 2.0, "S": 2.0})
        # declared window shrank; the store keeps its wider horizon as slack
        assert rt.tasks["R"][0].retention == 4.0
        # surplus tuples fail the (narrower) window checks: no new result
        rt.run([input_tuple("S", 3.0, {"a": 1})])
        assert rt.results("q") == []
        # re-widening finds its history still present: the old pair joins
        rt.install(self._topology(4.0), now=3.5, windows={"R": 4.0, "S": 4.0})
        rt.run([input_tuple("S", 4.2, {"a": 1})])
        results = rt.results("q")
        assert len(results) == 1
        assert results[0].timestamps == {"R": 0.5, "S": 4.2}

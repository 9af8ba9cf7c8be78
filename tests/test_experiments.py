"""Tests of the experiment drivers: the claims each figure makes.

Tier-1 asserts them on miniature instances, so regressions in the
experiment code are caught by ``pytest tests/``.  The ``slow`` tier
(``pytest -m slow``) asserts the paper's relationships at the scale the
figures are drawn at: CMQO's throughput lead and independent execution's
memory blow-up (Fig. 7), the static plan's collapse and the adaptive
plan's MIR store (Fig. 8), and the ILP's savings, problem sizes and
runtime growth (Fig. 9).
"""

import pytest

from repro.experiments.fig7 import ratio_summary, run_fig7, workload_for
from repro.experiments.fig8 import run_fig8a, run_fig8b
from repro.experiments.fig9 import run_point, sweep_num_queries, sweep_query_sizes
from repro.experiments.live import run_live_session
from repro.experiments.reporting import format_series, format_table
from repro.experiments.shapes import REGIMES, SHAPES, run_shapes, shape_query


class TestReporting:
    def test_format_table_alignment(self):
        text = format_table(["a", "bb"], [(1, 2.5), (10, 0.001)])
        lines = text.splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("a")

    def test_format_series(self):
        text = format_series("s", [(1, 2.0), (2, 3.0)])
        assert text.startswith("s:")
        assert "1: 2" in text


class TestShapesDriver:
    def test_shape_queries_have_expected_topologies(self):
        assert not shape_query("chain", 4).is_cyclic
        assert not shape_query("star", 4).is_cyclic
        assert shape_query("cycle", 4).is_cyclic
        with pytest.raises(ValueError):
            shape_query("mesh", 4)

    def test_full_grid_runs_exactly_on_miniature_instance(self):
        """All shape x regime cells execute, verify against the reference
        (run_shapes raises on any divergence), and report sane metrics."""
        rows = run_shapes(
            num_relations=3,
            rate=8.0,
            duration=4.0,
            domain=12,
            disorder_bound=0.8,
            parallelism=2,
            seed=1,
        )
        assert len(rows) == len(SHAPES) * len(REGIMES)
        assert {(r.shape, r.regime) for r in rows} == {
            (s, g) for s in SHAPES for g in REGIMES
        }
        for row in rows:
            assert row.exact
            assert row.inputs > 0
            assert row.probe_cost > 0
            assert row.throughput > 0

    def test_regimes_share_the_reference_oracle(self):
        """Per shape, the uniform and out-of-order cells must report the
        same result count: disorder only permutes consumption order."""
        rows = run_shapes(
            num_relations=3,
            rate=8.0,
            duration=4.0,
            domain=10,
            disorder_bound=1.0,
            parallelism=1,
            seed=2,
            regimes=("uniform", "ooo"),
        )
        by_shape = {}
        for row in rows:
            by_shape.setdefault(row.shape, {})[row.regime] = row.results
        for shape, counts in by_shape.items():
            assert counts["uniform"] == counts["ooo"], shape


class TestLiveSessionDriver:
    def test_churn_phases_verified_and_state_preserved(self):
        phases = run_live_session(
            rate=8.0, duration=9.0, domain=6, window=2.0, seed=1
        )
        assert [p.phase for p in phases] == [
            "base: q1+q2", "+q3 (shares T,U)", "-q1 (R released)"
        ]
        assert all(p.verified for p in phases)
        assert phases[0].preserved == 0  # no rewire yet
        assert phases[1].preserved > 0  # q3's arrival migrated shared state
        assert phases[1].queries == 3 and phases[2].queries == 2
        assert phases[-1].results > phases[0].results

    def test_churn_under_watermark_mode(self):
        phases = run_live_session(
            rate=8.0, duration=9.0, domain=6, window=2.0, seed=2,
            disorder_bound=0.75,
        )
        assert all(p.verified for p in phases)


class TestFig9Driver:
    def test_point_fields_consistent(self):
        point = run_point(8, 6, seed=1)
        assert point.num_distinct <= point.num_queries
        assert point.num_variables > 0
        assert point.num_probe_orders > 0
        assert point.optimize_seconds > 0

    def test_mqo_never_worse_than_individual(self):
        for seed in (1, 2, 3):
            point = run_point(8, 8, seed=seed)
            assert point.mqo_cost <= point.individual_cost + 1e-6

    def test_savings_grow_with_queries_on_small_universe(self):
        few = run_point(8, 5, seed=7)
        many = run_point(8, 40, seed=7)
        assert many.savings >= few.savings - 0.02

    def test_large_universe_has_smaller_savings(self):
        small = run_point(8, 20, seed=9)
        large = run_point(60, 20, seed=9)
        assert large.savings <= small.savings + 0.05

    def test_sweep_returns_requested_points(self):
        points = sweep_num_queries(8, [4, 8], seed=1)
        assert [p.num_queries for p in points] == [4, 8]

    @pytest.fixture(scope="class")
    def paper_sweep(self):
        """The paper's query-count sweep per universe size, run once."""
        cache = {}

        def sweep(num_relations):
            if num_relations not in cache:
                cache[num_relations] = sweep_num_queries(
                    num_relations, [20, 40, 60, 80, 100], seed=17, solver="scipy"
                )
            return cache[num_relations]

        return sweep

    @pytest.mark.slow
    def test_paper_sweep_over_10_relations(self, paper_sweep):
        """Figs. 9a/9b: savings that grow with the number of queries (paper:
        ~50 %), and problem sizes growing sublinearly (duplicates and
        shared prefixes)."""
        points = paper_sweep(10)
        assert all(p.mqo_cost <= p.individual_cost + 1e-6 for p in points)
        assert points[-1].savings > points[0].savings
        assert points[-1].savings > 0.15
        first = points[0].num_variables / points[0].num_queries
        last = points[-1].num_variables / points[-1].num_queries
        assert last <= first * 1.35

    @pytest.mark.slow
    def test_paper_sweep_over_100_relations(self, paper_sweep):
        """Figs. 9c/9d/9e: MQO never costs more; variables per distinct
        query grow near-linearly, slightly convex (each query adds
        partitioning choices); optimization time stays practical."""
        points = paper_sweep(100)
        assert all(p.mqo_cost <= p.individual_cost + 1e-6 for p in points)
        first = points[0].num_variables / points[0].num_distinct
        last = points[-1].num_variables / points[-1].num_distinct
        assert first * 0.8 <= last <= first * 2.5
        assert points[-1].optimize_seconds < 120.0
        assert points[-1].optimize_seconds >= points[0].optimize_seconds

    @pytest.mark.slow
    def test_paper_runtime_grows_steeply_with_query_size(self):
        """Fig. 9f: about an order of magnitude per extra relation."""
        points = sweep_query_sizes(
            100, sizes=[3, 4, 5], nq_values=[10, 20, 30], seed=23, solver="scipy"
        )
        at_nq10 = {
            p.query_size: p.optimize_seconds for p in points if p.num_queries == 10
        }
        assert at_nq10[5] > at_nq10[4] > 0
        assert at_nq10[5] > 3 * at_nq10[3]


class TestFig7Driver:
    @pytest.fixture(scope="class")
    def rows(self):
        return run_fig7(
            num_queries=5,
            total_rate=80.0,
            duration=8.0,
            overload_rate=400.0,
            overload_duration=2.0,
            solver="scipy",
        )

    def test_all_strategies_reported(self, rows):
        assert [r.strategy for r in rows] == ["FI", "SI", "FS", "SS", "CMQO"]

    def test_no_strategy_failed(self, rows):
        assert not any(r.failed for r in rows)

    def test_independent_needs_more_memory_than_shared(self, rows):
        by = {r.strategy: r for r in rows}
        assert by["SI"].peak_memory_units > by["SS"].peak_memory_units
        assert by["FI"].peak_memory_units > by["FS"].peak_memory_units

    def test_cmqo_probe_cost_lowest(self, rows):
        by = {r.strategy: r for r in rows}
        assert by["CMQO"].probe_cost <= by["SS"].probe_cost + 1e-6

    def test_ratio_summary_keys(self, rows):
        ratios = ratio_summary(rows)
        assert "memory_ratio_si_vs_ss" in ratios
        assert ratios["memory_ratio_si_vs_ss"] > 1.0

    @pytest.mark.slow
    @pytest.mark.parametrize("num_queries", [5, 10])
    def test_paper_scale_relationships(self, num_queries):
        """Figs. 7b/7c/7d at the committed paper-scale parameterization
        (24-machine pool, full history, workload-dependent overload)."""
        rows = run_fig7(
            num_queries=num_queries,
            total_rate=150.0,
            duration=12.0,
            parallelism=3,
            num_machines=24,
            solver="scipy",
        )
        by = {r.strategy: r for r in rows}
        # 7b: shared strategies beat independent ones, CMQO leads (paper ~2.6x)
        assert by["CMQO"].throughput >= 0.9 * max(
            by["FI"].throughput, by["SI"].throughput
        )
        # 7c: independent execution's memory blow-up (paper: 3.1x / 5.3x)
        assert by["SI"].peak_memory_units > 1.3 * by["SS"].peak_memory_units
        # 7d: complete results arrive with a measured latency
        assert by["CMQO"].mean_latency_ms > 0

    def test_workload_for_validates(self):
        assert len(workload_for(5)) == 5
        assert len(workload_for(10)) == 10
        with pytest.raises(ValueError):
            workload_for(7)


class TestFig8Driver:
    """Fig. 8 scenarios.

    The post-shift workload of 8a produces quadratically many intermediate
    results, so tier-1 uses deliberately small rates/durations — it
    asserts the qualitative events, not the magnitudes — with
    ``solver="scipy"``.  The ``slow`` tier repeats both scenarios with the
    default ``auto`` solver selection, in miniature and at paper scale.
    """

    def test_fig8a_adaptive_recovers_static_fails(self):
        outcomes = run_fig8a(
            rate=20.0, duration=14.0, shift_at=7.0, window=3.0,
            memory_limit=6_000.0, profile_scale=8.0, seed=3, solver="scipy",
        )
        static, adaptive = outcomes["static"], outcomes["adaptive"]
        assert adaptive.switches, "adaptive run must reconfigure"
        # static either dies of memory overflow or ends up far slower
        assert static.failed or (
            static.mean_latency_after > adaptive.mean_latency_after
        )

    def test_fig8b_adaptive_lowers_latency(self):
        outcomes = run_fig8b(
            fast_rate=80.0, slow_rate=2.5, duration=14.0, shift_at=7.0,
            window=3.0, profile_scale=8.0, seed=3, solver="scipy",
        )
        adaptive = outcomes["adaptive"]
        assert adaptive.switches
        assert (
            adaptive.mean_latency_after
            <= outcomes["static"].mean_latency_after + 1e-9
        )

    @pytest.mark.slow
    @pytest.mark.parametrize(
        "params, degraded",
        [
            (
                dict(
                    rate=20.0, duration=14.0, shift_at=7.0, window=3.0,
                    memory_limit=6_000.0, profile_scale=8.0, seed=3,
                ),
                1.0,
            ),
            (
                dict(rate=40.0, duration=24.0, shift_at=12.0, memory_limit=30_000.0),
                1.5,
            ),
        ],
        ids=["miniature", "paper"],
    )
    def test_fig8a_with_auto_solver(self, params, degraded):
        """The static plan cannot recover from the selectivity flip (paper:
        memory overflow); the adaptive one re-orders probes and survives."""
        outcomes = run_fig8a(**params)
        static, adaptive = outcomes["static"], outcomes["adaptive"]
        assert adaptive.switches
        assert not adaptive.failed
        assert static.failed or (
            static.mean_latency_after > degraded * adaptive.mean_latency_after
        )

    @pytest.mark.slow
    @pytest.mark.parametrize(
        "params",
        [
            dict(
                fast_rate=80.0, slow_rate=2.5, duration=14.0, shift_at=7.0,
                window=3.0, profile_scale=8.0, seed=3,
            ),
            dict(fast_rate=150.0, slow_rate=3.0, duration=24.0, shift_at=12.0),
        ],
        ids=["miniature", "paper"],
    )
    def test_fig8b_with_auto_solver(self, params):
        """The shrunken intermediate makes the adaptive optimizer install
        an MIR store, settling at no higher latency (paper: ~56 -> ~36 ms)."""
        outcomes = run_fig8b(**params)
        adaptive = outcomes["adaptive"]
        assert adaptive.switches
        assert adaptive.mir_installed
        assert (
            adaptive.mean_latency_after
            <= outcomes["static"].mean_latency_after + 1e-9
        )

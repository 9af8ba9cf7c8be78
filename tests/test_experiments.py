"""Smoke tests for the experiment drivers (tiny parameterizations).

The benchmarks run the paper-scale versions; these tests assert the
*claims* each figure makes on miniature instances so regressions in the
experiment code are caught by ``pytest tests/``.
"""

import pytest

from repro.experiments.fig7 import ratio_summary, run_fig7, workload_for
from repro.experiments.fig8 import run_fig8a, run_fig8b
from repro.experiments.fig9 import run_point, sweep_num_queries
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

    def test_workload_for_validates(self):
        assert len(workload_for(5)) == 5
        assert len(workload_for(10)) == 10
        with pytest.raises(ValueError):
            workload_for(7)


class TestFig8Driver:
    """Miniature Fig. 8 scenarios; the bench runs the paper-scale versions.

    The post-shift workload of 8a produces quadratically many intermediate
    results, so these tests use deliberately small rates/durations — they
    assert the qualitative events, not the magnitudes.  Tier-1 runs them
    with ``solver="scipy"``; the ``slow`` tier repeats both scenarios with
    the default ``auto`` solver selection.
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
    def test_fig8a_with_auto_solver(self):
        outcomes = run_fig8a(
            rate=20.0, duration=14.0, shift_at=7.0, window=3.0,
            memory_limit=6_000.0, profile_scale=8.0, seed=3,
        )
        static, adaptive = outcomes["static"], outcomes["adaptive"]
        assert adaptive.switches
        assert static.failed or (
            static.mean_latency_after > adaptive.mean_latency_after
        )

    @pytest.mark.slow
    def test_fig8b_with_auto_solver(self):
        outcomes = run_fig8b(
            fast_rate=80.0, slow_rate=2.5, duration=14.0, shift_at=7.0,
            window=3.0, profile_scale=8.0, seed=3,
        )
        adaptive = outcomes["adaptive"]
        assert adaptive.switches
        assert (
            adaptive.mean_latency_after
            <= outcomes["static"].mean_latency_after + 1e-9
        )

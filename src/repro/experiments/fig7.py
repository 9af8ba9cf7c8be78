"""Multi-query performance on TPC-H streams: Figures 7b / 7c / 7d.

For 5 and 10 queries, each of the strategies FI / SI / FS / SS / CMQO is
compiled into a topology and executed on the timed simulator
(:mod:`repro.experiments.timed`) over the same TPC-H-shaped stream.  Reported per strategy:

* throughput — processed input tuples per simulated second (Fig. 7b),
* peak memory — Σ stored tuple-units across all stores (Fig. 7c); the
  independent strategies duplicate every store per query,
* mean end-to-end latency of result computation (Fig. 7d),
* modelled probe cost (the optimizer's objective) for cross-checking.

The paper's headline ratios: CMQO ≈ 2.6× the independent baselines'
throughput, independent execution needs 3.1× (5 queries) / 5.3× (10
queries) the memory of shared execution, and CMQO pays 14–16% latency over
the baselines (locally suboptimal probe orders).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from ..baselines.strategies import STRATEGIES, build_strategy
from ..core.partitioning import ClusterConfig
from ..core.query import Query
from ..engine.runtime import RuntimeConfig
from ..streams.generators import generate_streams
from ..streams.tpch import (
    five_query_workload,
    ten_query_workload,
    tpch_catalog,
    tpch_specs,
)
from .timed import TimedSimulator

__all__ = ["Fig7Row", "run_fig7", "workload_for"]


@dataclass
class Fig7Row:
    strategy: str
    num_queries: int
    throughput: float
    peak_memory_units: float
    mean_latency_ms: float
    probe_cost: float
    results: int
    failed: bool


def workload_for(num_queries: int) -> List[Query]:
    if num_queries == 5:
        return five_query_workload()
    if num_queries == 10:
        return ten_query_workload()
    raise ValueError("the paper evaluates 5- and 10-query workloads")


def run_fig7(
    num_queries: int = 5,
    total_rate: float = 120.0,
    duration: float = 10.0,
    overload_rate: Optional[float] = None,
    overload_duration: float = 3.0,
    window: Optional[float] = None,
    parallelism: int = 3,
    seed: int = 0,
    strategies: Sequence[str] = STRATEGIES,
    solver: str = "scipy",
    profile_scale: float = 400.0,
    num_machines: int = 8,
) -> List[Fig7Row]:
    """Execute every strategy over one shared TPC-H stream sample.

    Following the paper, every strategy is (a) fed "at the maximum
    sustainable rate" — simulated by an *overload* run whose makespan
    reveals each topology's capacity (Fig. 7b) — and (b) run at a moderate
    rate over the *full history* (no window expiry within the run) for
    memory and latency (Figs. 7c/7d).  ``profile_scale`` uniformly slows
    the per-operation service times so saturation happens at simulator
    scale.
    """
    queries = workload_for(num_queries)
    if overload_rate is None:
        # the 10-query workload carries the result-heavy status join (q8),
        # so it saturates the worker pool at a far lower offered rate
        overload_rate = 2600.0 if num_queries == 5 else 1200.0
    if window is None:
        window = 100.0 * duration  # "the full history ... is considered"
    catalog = tpch_catalog(total_rate=total_rate, window=window)
    cluster = ClusterConfig(default_parallelism=parallelism)
    _, inputs = generate_streams(
        tpch_specs(total_rate=total_rate), duration, seed=seed
    )
    _, overload_inputs = generate_streams(
        tpch_specs(total_rate=overload_rate), overload_duration, seed=seed + 1
    )
    windows = {name: window for name in catalog.relations}

    rows: List[Fig7Row] = []
    for strategy in strategies:
        compiled = build_strategy(
            strategy, queries, catalog, cluster, solver=solver
        )
        profile = compiled.profile.scaled(profile_scale)

        def simulator() -> TimedSimulator:
            return TimedSimulator(
                compiled.topology,
                windows,
                RuntimeConfig(collect_outputs=False),
                profile=profile,
                num_machines=num_machines,
            )

        # throughput: overload the fixed worker pool, measure the drain rate
        overload_rt = simulator()
        overload_rt.run(overload_inputs)

        # memory + latency: moderate load, full history
        runtime = simulator()
        runtime.run(inputs)
        m = runtime.metrics
        rows.append(
            Fig7Row(
                strategy=strategy,
                num_queries=num_queries,
                throughput=overload_rt.metrics.throughput,
                peak_memory_units=m.peak_stored_units,
                mean_latency_ms=m.mean_latency * 1000.0,
                probe_cost=compiled.probe_cost,
                results=m.results_emitted,
                failed=m.failed or overload_rt.metrics.failed,
            )
        )
    return rows


def ratio_summary(rows: List[Fig7Row]) -> Dict[str, float]:
    """The paper's headline ratios from one strategy grid."""
    by = {row.strategy: row for row in rows}
    out: Dict[str, float] = {}
    if "CMQO" in by and "SI" in by and by["SI"].throughput:
        out["throughput_speedup_cmqo_vs_si"] = (
            by["CMQO"].throughput / by["SI"].throughput
        )
    if "SI" in by and "SS" in by and by["SS"].peak_memory_units:
        out["memory_ratio_si_vs_ss"] = (
            by["SI"].peak_memory_units / by["SS"].peak_memory_units
        )
    if "CMQO" in by and "SS" in by and by["SS"].mean_latency_ms:
        out["latency_overhead_cmqo_vs_ss"] = (
            by["CMQO"].mean_latency_ms / by["SS"].mean_latency_ms - 1.0
        )
    return out

"""Workload-breadth scenario: throughput across query shapes and arrival regimes.

Runs the optimized engine (wall-clock timed) over the three
canonical join-graph topologies — chain, star, and cycle — each under three
arrival regimes:

* ``uniform`` — uniform value domains, timestamp-ordered arrivals,
* ``zipf`` — Zipf-skewed join attributes (heavy hitters concentrate probe
  candidates on few index buckets),
* ``ooo`` — bounded out-of-order arrivals consumed in watermark mode
  (``RuntimeConfig.disorder_bound``).

Each run is verified against the brute-force reference, so the table
doubles as an end-to-end correctness sweep; reported per (shape, regime):
engine throughput (inputs/s of wall clock), probe cost (tuples sent),
result count, and comparisons per probe — the shape-dependent quantity the
optimizer's probe orders are meant to control.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from ..core.catalog import StatisticsCatalog
from ..core.ilp_builder import OptimizerConfig
from ..core.optimizer import MultiQueryOptimizer
from ..core.partitioning import ClusterConfig
from ..core.query import Query
from ..core.topology import build_topology
from ..engine.reference import describe_result_diff, reference_join, result_keys
from ..engine.runtime import RuntimeConfig, TopologyRuntime
from ..streams.generators import (
    StreamSpec,
    bounded_delay_feed,
    generate_streams,
    uniform_domain,
    zipf_domain,
)
from .reporting import format_table

__all__ = ["ShapeRow", "shape_workload", "run_shapes", "main"]

SHAPES = ("chain", "star", "cycle")
REGIMES = ("uniform", "zipf", "ooo")


@dataclass
class ShapeRow:
    shape: str
    regime: str
    inputs: int
    results: int
    probe_cost: int
    comparisons_per_probe: float
    throughput: float  # wall-clock inputs/s
    #: True iff the cell was verified equal to the brute-force reference
    #: (a divergence raises instead of reporting False); False = unverified
    exact: bool


def shape_query(shape: str, num_relations: int) -> Query:
    relations = [f"S{i}" for i in range(num_relations)]
    if shape == "chain":
        return Query.chain("q_chain", relations)
    if shape == "star":
        return Query.star("q_star", relations[0], relations[1:])
    if shape == "cycle":
        return Query.cycle("q_cycle", relations)
    raise ValueError(f"unknown shape {shape!r}")


def shape_windows(query: Query, duration: float) -> Dict[str, float]:
    """Per-relation windows: a third of the run, shared by the planner
    (retention, statistics) and the runtime/reference (window checks)."""
    return {rel: duration / 3.0 for rel in query.relations}


def shape_workload(
    shape: str,
    regime: str,
    num_relations: int,
    rate: float,
    duration: float,
    domain: int,
    seed: int,
    zipf_alpha: float = 0.9,
):
    """Query, per-relation streams, input feed, and windows for one cell.

    ``zipf_alpha`` is deliberately moderate: per-hop match probability under
    Zipf is dominated by the heavy hitters (Σ pₖ²), and with α ≥ ~1.1 it
    stops shrinking with the domain size — multi-hop result counts then grow
    geometrically and the brute-force verification drowns.
    """
    query = shape_query(shape, num_relations)
    attrs: Dict[str, List[str]] = {rel: [] for rel in query.relations}
    for pred in sorted(query.predicates):
        for attr in (pred.left, pred.right):
            attrs[attr.relation].append(attr.name)
    gen = (
        zipf_domain(domain, zipf_alpha)
        if regime == "zipf"
        else uniform_domain(domain)
    )
    specs = [
        StreamSpec(
            relation=rel,
            rate=rate,
            attributes={name: gen for name in sorted(set(attrs[rel]))},
        )
        for rel in query.relations
    ]
    streams, inputs = generate_streams(specs, duration, seed=seed)
    return query, streams, inputs, shape_windows(query, duration)


def run_shapes(
    num_relations: int = 4,
    rate: float = 30.0,
    duration: float = 8.0,
    domain: int = 80,
    disorder_bound: float = 1.0,
    parallelism: int = 2,
    seed: int = 0,
    shapes: Sequence[str] = SHAPES,
    regimes: Sequence[str] = REGIMES,
    verify: bool = True,
    zipf_alpha: float = 0.9,
    solver: Optional[str] = None,
    store_backend: str = "python",
) -> List[ShapeRow]:
    """Run the shape × regime grid; ``solver=None`` picks per shape —
    exact scipy/HiGHS for acyclic queries, the greedy planner for cycles
    (a ring's exact MILP explodes combinatorially with its length).
    ``store_backend`` selects the container implementation behind every
    store task (``"python"`` or ``"columnar"``); every cell is still
    verified against the reference, so the grid doubles as an end-to-end
    backend-parity sweep."""
    rows: List[ShapeRow] = []
    for shape in shapes:
        # The topology depends only on the shape: regimes vary the value
        # distribution and feed order, never the query, windows, or
        # statistics — plan once, execute per regime.
        query = shape_query(shape, num_relations)
        windows = shape_windows(query, duration)
        catalog = StatisticsCatalog(
            default_selectivity=1.0 / domain, default_window=max(windows.values())
        )
        for rel in query.relations:
            catalog.with_rate(rel, rate).with_window(rel, windows[rel])
        config = OptimizerConfig(
            cluster=ClusterConfig(default_parallelism=parallelism)
        )
        shape_solver = solver or ("greedy" if query.is_cyclic else "scipy")
        optimizer = MultiQueryOptimizer(catalog, config, solver=shape_solver)
        topology = build_topology(
            optimizer.optimize([query]).plan, catalog, config.cluster
        )
        for regime in regimes:
            query, streams, inputs, windows = shape_workload(
                shape, regime, num_relations, rate, duration, domain, seed,
                zipf_alpha=zipf_alpha,
            )
            if regime == "ooo":
                feed = bounded_delay_feed(streams, disorder_bound, seed=seed + 1)
                runtime_config = RuntimeConfig(
                    disorder_bound=disorder_bound,
                    store_backend=store_backend,
                )
            else:
                feed = inputs
                runtime_config = RuntimeConfig(store_backend=store_backend)
            runtime = TopologyRuntime(topology, windows, runtime_config)
            start = time.perf_counter()
            metrics = runtime.run(feed)
            elapsed = time.perf_counter() - start

            if verify:
                expected = result_keys(reference_join(query, streams, windows))
                got = result_keys(runtime.results(query.name))
                if expected != got:
                    raise AssertionError(
                        f"{shape}/{regime}: engine diverged from reference: "
                        + describe_result_diff(expected, got)
                    )
            probes = max(metrics.probes_executed, 1)
            rows.append(
                ShapeRow(
                    shape=shape,
                    regime=regime,
                    inputs=metrics.inputs_ingested,
                    results=metrics.results_emitted,
                    probe_cost=metrics.tuples_sent,
                    comparisons_per_probe=metrics.comparisons / probes,
                    throughput=metrics.inputs_ingested / elapsed
                    if elapsed > 0
                    else 0.0,
                    exact=bool(verify),
                )
            )
    return rows


def main() -> None:
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    from ..engine.stores import STORE_BACKENDS

    parser.add_argument(
        "--backend",
        choices=sorted(STORE_BACKENDS),
        default="python",
        help="store container implementation behind every task",
    )
    args = parser.parse_args()
    rows = run_shapes(store_backend=args.backend)
    print(
        "# workload breadth: shape x arrival regime "
        f"({args.backend} backend)"
    )
    print(
        format_table(
            ["shape", "regime", "inputs", "results", "probe cost",
             "cmp/probe", "inputs/s", "exact"],
            [
                (
                    r.shape,
                    r.regime,
                    r.inputs,
                    r.results,
                    r.probe_cost,
                    r.comparisons_per_probe,
                    r.throughput,
                    r.exact,
                )
                for r in rows
            ],
        )
    )


if __name__ == "__main__":
    main()

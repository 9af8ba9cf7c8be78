"""ILP optimization study: Figures 9a–9f (Section VII.C).

Random 3-way (or larger) queries over a universe of relations with equal
arrival rates and ``selectivity = 1/rate``; for each workload size the
driver reports

* average probe cost under individual vs. multi-query optimization
  (Figs. 9a / 9c),
* ILP problem sizes — variables and candidate probe orders (9b / 9d),
* optimization wall time (9e / 9f).

Absolute runtimes differ from the paper (HiGHS instead of Gurobi, Python
instead of Kotlin); the *shapes* — MQO savings shrinking
with more relations, near-linear runtime in the query count, exponential
growth in query size — are the reproduction targets.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import List, Optional

from ..core.ilp_builder import OptimizerConfig
from ..core.optimizer import MultiQueryOptimizer
from ..core.partitioning import ClusterConfig
from ..ilp.scipy_backend import load_highs
from ..ilp.solvers import SolverMethod
from ..streams.workloads import make_environment, random_queries

__all__ = ["Fig9Point", "run_point", "sweep_num_queries", "sweep_query_sizes"]


@dataclass
class Fig9Point:
    """One measurement of the ILP study."""

    num_relations: int
    num_queries: int  # queries drawn (the paper's nQ)
    num_distinct: int  # distinct queries after duplicate elimination
    query_size: int
    individual_cost: float
    mqo_cost: float
    num_variables: int
    num_probe_orders: int
    num_constraints: int
    optimize_seconds: float

    @property
    def savings(self) -> float:
        """Relative probe-cost saving of MQO vs individual optimization."""
        if self.individual_cost == 0:
            return 0.0
        return 1.0 - self.mqo_cost / self.individual_cost

    @property
    def avg_individual_cost(self) -> float:
        return self.individual_cost / self.num_queries

    @property
    def avg_mqo_cost(self) -> float:
        return self.mqo_cost / self.num_queries


def run_point(
    num_relations: int,
    num_queries: int,
    query_size: int = 3,
    seed: int = 0,
    parallelism: int = 4,
    solver: str = "scipy",
    enable_mirs: bool = True,
    mir_max_size: Optional[int] = 2,
    strict_partitioning: bool = False,
    attribute_matching: str = "same_index",
) -> Fig9Point:
    """One (workload, optimization) measurement.

    ``mir_max_size=2`` keeps candidate growth for the larger query sizes in
    the same regime the paper reports (Fig. 9f's 12 s for size-5 queries).
    ``strict_partitioning`` defaults to the paper's printed (relaxed) ILP:
    the strict variant can make the joint optimum *worse* than the sum of
    individually optimal plans, because individual plans may partition a
    shared store inconsistently — see the ablation bench.
    """
    env = make_environment(num_relations)
    queries = random_queries(
        env,
        num_queries,
        query_size=query_size,
        seed=seed,
        attribute_matching=attribute_matching,
        duplicates="drop",
    )
    config = OptimizerConfig(
        enable_mirs=enable_mirs,
        mir_max_size=mir_max_size,
        strict_partitioning=strict_partitioning,
        cluster=ClusterConfig(default_parallelism=parallelism),
    )
    optimizer = MultiQueryOptimizer(env.catalog, config, solver=solver)

    if SolverMethod(solver) is not SolverMethod.GREEDY:
        # the first exact solve imports scipy: not optimization time
        load_highs()
    start = time.perf_counter()
    result = optimizer.optimize(queries)
    optimize_seconds = time.perf_counter() - start

    individual = optimizer.optimize_individual(queries)

    return Fig9Point(
        num_relations=num_relations,
        num_queries=num_queries,
        num_distinct=len(queries),
        query_size=query_size,
        individual_cost=individual.total_cost,
        mqo_cost=result.plan.objective,
        num_variables=result.ilp.num_variables,
        num_probe_orders=result.ilp.num_probe_orders,
        num_constraints=result.ilp.num_constraints,
        optimize_seconds=optimize_seconds,
    )


def sweep_num_queries(
    num_relations: int,
    nq_values: List[int],
    query_size: int = 3,
    seed: int = 0,
    solver: str = "scipy",
) -> List[Fig9Point]:
    """Figures 9a–9e: vary the number of simultaneous queries."""
    return [
        run_point(
            num_relations,
            nq,
            query_size=query_size,
            seed=seed + i,
            solver=solver,
        )
        for i, nq in enumerate(nq_values)
    ]


def sweep_query_sizes(
    num_relations: int,
    sizes: List[int],
    nq_values: List[int],
    seed: int = 0,
    solver: str = "scipy",
    max_nq_for_size5: int = 10,
) -> List[Fig9Point]:
    """Figure 9f: vary the query size for several workload sizes.

    Size-5 queries enumerate a candidate space that dwarfs the smaller
    sizes (the paper's order-of-magnitude-per-relation observation); to
    keep the sweep tractable they run without MIR stores and are capped at
    ``max_nq_for_size5`` queries — the exponential trend is visible either
    way.
    """
    points = []
    for size in sizes:
        for nq in nq_values:
            if size >= 5 and nq > max_nq_for_size5:
                continue
            points.append(
                run_point(
                    num_relations,
                    nq,
                    query_size=size,
                    seed=seed,
                    solver=solver,
                    enable_mirs=(size < 5),
                )
            )
    return points

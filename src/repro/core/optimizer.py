"""High-level optimizer facade.

``MultiQueryOptimizer`` ties the pipeline together: enumerate candidates,
build the ILP (Algorithm 2), solve it with the configured backend — the
in-house branch-and-bound warm-started with the grouped greedy, HiGHS
without (it takes no warm start, so none is computed) — and extract a
:class:`SharedPlan`.

``optimize_individual`` optimizes every query in isolation (the paper's
"Individual" baseline in Figures 9a/9c): same machinery, one single-query
ILP per query, costs summed without sharing.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..ilp.greedy import GreedySolution, solve_greedy
from ..ilp.model import Solution, SolveStatus
from ..ilp.solvers import SolverMethod, resolve_method, solve_model
from .catalog import StatisticsCatalog
from .ilp_builder import MqoIlp, OptimizerConfig, build_mqo_ilp
from .plan import SharedPlan, extract_plan
from .query import Query

__all__ = [
    "MultiQueryOptimizer",
    "OptimizationResult",
    "IndividualResult",
    "choose_solver",
]


def choose_solver(queries: Sequence[Query], requested: SolverMethod | str = "auto") -> str:
    """Effective solver for a workload: ``"auto"`` degrades gracefully.

    The exact ILP explodes combinatorially on cyclic join graphs (a 5-ring's
    arc MIRs and their maintenance orders produce thousands of binaries), so
    ``"auto"`` falls back to the grouped greedy planner as soon as any query
    is cyclic — any feasible plan answers every query exactly; only the
    probe-cost optimality is sacrificed.  Explicit solver choices are
    honoured unchanged.
    """
    name = requested.value if isinstance(requested, SolverMethod) else str(requested)
    if name == "auto" and any(q.is_cyclic for q in queries):
        return "greedy"
    return name


@dataclass
class OptimizationResult:
    """Outcome of a (multi-)query optimization run."""

    plan: SharedPlan
    ilp: MqoIlp
    solution: Solution
    #: the grouped greedy selection, when a solver read it (``"greedy"``
    #: itself, or the in-house B&B's warm start); ``None`` when HiGHS solved
    greedy: Optional[GreedySolution]
    build_seconds: float
    solve_seconds: float

    @property
    def objective(self) -> float:
        return self.plan.objective

    @property
    def total_seconds(self) -> float:
        return self.build_seconds + self.solve_seconds


@dataclass
class IndividualResult:
    """Per-query (non-shared) optimization: the paper's 'Individual' line."""

    results: Dict[str, OptimizationResult]

    @property
    def total_cost(self) -> float:
        return sum(r.plan.objective for r in self.results.values())

    @property
    def plans(self) -> List[SharedPlan]:
        return [self.results[name].plan for name in sorted(self.results)]


class MultiQueryOptimizer:
    """Optimizes a workload of multi-way stream join queries jointly.

    Parameters
    ----------
    catalog:
        Statistics source (rates, windows, selectivities).
    config:
        ILP construction knobs (MIRs, constraint form, partitioning layer).
    solver:
        ``"own"``, ``"scipy"``, ``"auto"`` (see :mod:`repro.ilp.solvers`),
        or ``"greedy"`` — promote the grouped greedy heuristic's feasible
        selection to the plan without an exact solve.  Greedy plans are
        valid (every query answered, partitioning consistent) but not
        cost-optimal; they are the fast path for shapes whose exact ILP
        explodes (e.g. large cyclic queries, where candidate probe orders
        over ring-arc MIRs run into thousands of binaries).
    use_greedy_warm_start:
        Seed branch-and-bound with the grouped greedy solution.
    """

    def __init__(
        self,
        catalog: StatisticsCatalog,
        config: Optional[OptimizerConfig] = None,
        solver: SolverMethod | str = SolverMethod.AUTO,
        use_greedy_warm_start: bool = True,
        solver_time_limit: Optional[float] = None,
    ) -> None:
        self.catalog = catalog
        self.config = config or OptimizerConfig()
        self.solver = solver
        self.use_greedy_warm_start = use_greedy_warm_start
        self.solver_time_limit = solver_time_limit

    # ------------------------------------------------------------------
    def build(self, queries: Sequence[Query]) -> MqoIlp:
        """Construct the ILP without solving (used by the size experiments)."""
        return build_mqo_ilp(queries, self.catalog, self.config)

    def optimize(self, queries: Sequence[Query]) -> OptimizationResult:
        """Jointly optimize all queries; raises on infeasibility."""
        t0 = time.perf_counter()
        ilp = self.build(queries)
        t1 = time.perf_counter()

        method = resolve_method(ilp.model, self.solver)
        greedy = None
        warm_start = None
        # the greedy is computed for the solver that reads it: it *is* the
        # "greedy" plan and seeds the in-house B&B's incumbent; HiGHS takes
        # no warm start
        if method is SolverMethod.GREEDY or (
            method is SolverMethod.OWN and self.use_greedy_warm_start
        ):
            greedy = solve_greedy(ilp.grouped)
            if greedy is not None:
                warm_start = ilp.warm_start_assignment(greedy)

        if method is SolverMethod.GREEDY:
            if greedy is None or warm_start is None:
                raise RuntimeError(
                    "greedy heuristic found no feasible selection"
                )
            solution = Solution(
                status=SolveStatus.FEASIBLE,
                objective=ilp.model.objective.value(warm_start),
                values=dict(warm_start),
            )
        else:
            solution = solve_model(
                ilp.model,
                method=method,
                warm_start=warm_start,
                time_limit=self.solver_time_limit,
            )
        t2 = time.perf_counter()

        if solution.status not in (SolveStatus.OPTIMAL, SolveStatus.FEASIBLE):
            raise RuntimeError(f"MQO ILP solve failed: {solution.status}")

        plan = extract_plan(ilp, solution)
        return OptimizationResult(
            plan=plan,
            ilp=ilp,
            solution=solution,
            greedy=greedy,
            build_seconds=t1 - t0,
            solve_seconds=t2 - t1,
        )

    def optimize_individual(self, queries: Sequence[Query]) -> IndividualResult:
        """Optimize each query in isolation (no cross-query sharing)."""
        results = {q.name: self.optimize([q]) for q in queries}
        return IndividualResult(results=results)

"""High-level optimizer facade.

``MultiQueryOptimizer`` ties the pipeline together: enumerate candidates,
build the ILP (Algorithm 2), select a plan — the grouped greedy for
``"greedy"`` and for a model with nothing to choose, HiGHS for every other
model — and extract a :class:`SharedPlan`.

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
from ..ilp.scipy_backend import load_highs
from ..ilp.solvers import SolverMethod, solve_model
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
    #: the grouped greedy selection when it is the plan (``"greedy"``, or a
    #: model with one candidate per group); ``None`` when HiGHS solved
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
        ``"auto"`` or ``"scipy"`` (both: the exact optimum, from HiGHS
        unless every group has a single candidate — see :meth:`optimize`),
        or ``"greedy"`` — promote the grouped greedy heuristic's feasible
        selection to the plan without an exact solve.  Greedy plans are
        valid (every query answered, partitioning consistent) but not
        cost-optimal; they are the fast path for shapes whose exact ILP
        explodes (e.g. large cyclic queries, where candidate probe orders
        over ring-arc MIRs run into thousands of binaries).
    """

    def __init__(
        self,
        catalog: StatisticsCatalog,
        config: Optional[OptimizerConfig] = None,
        solver: SolverMethod | str = SolverMethod.AUTO,
        solver_time_limit: Optional[float] = None,
    ) -> None:
        self.catalog = catalog
        self.config = config or OptimizerConfig()
        self.solver = solver
        self.solver_time_limit = solver_time_limit

    # ------------------------------------------------------------------
    def build(self, queries: Sequence[Query]) -> MqoIlp:
        """Construct the ILP without solving (used by the size experiments)."""
        return build_mqo_ilp(queries, self.catalog, self.config)

    def optimize(self, queries: Sequence[Query]) -> OptimizationResult:
        """Jointly optimize all queries; raises on infeasibility."""
        t0 = time.perf_counter()
        ilp = self.build(queries)
        build_seconds = time.perf_counter() - t0

        method = SolverMethod(self.solver)
        # a model whose every group has one candidate leaves nothing to
        # choose: the greedy's selection is its only minimal feasible one
        # (step costs are non-negative, so groups nothing activates stay
        # empty), hence optimal without a solver call
        forced = all(len(names) == 1 for names in ilp.groups.values())
        greedy = None
        if method is SolverMethod.GREEDY or forced:
            t1 = time.perf_counter()
            greedy = solve_greedy(ilp.grouped)
            if greedy is None:
                # on a forced model the greedy misses only when no
                # feasible selection exists
                raise RuntimeError(
                    "greedy heuristic found no feasible selection"
                    if method is SolverMethod.GREEDY
                    else f"MQO ILP solve failed: {SolveStatus.INFEASIBLE}"
                )
            assignment = ilp.warm_start_assignment(greedy)
            solution = Solution(
                status=(
                    SolveStatus.FEASIBLE
                    if method is SolverMethod.GREEDY
                    else SolveStatus.OPTIMAL
                ),
                objective=ilp.model.objective.value(assignment),
                values=assignment,
            )
        else:
            # the first exact solve imports scipy: not solve time
            load_highs()
            t1 = time.perf_counter()
            solution = solve_model(
                ilp.model, method=method, time_limit=self.solver_time_limit
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
            build_seconds=build_seconds,
            solve_seconds=t2 - t1,
        )

    def optimize_individual(self, queries: Sequence[Query]) -> IndividualResult:
        """Optimize each query in isolation (no cross-query sharing)."""
        results = {q.name: self.optimize([q]) for q in queries}
        return IndividualResult(results=results)

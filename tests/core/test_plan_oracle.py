"""Exhaustive plan oracle: the optimizer's plan is the enumerated optimum.

For small multi-query workloads every feasible selection of the grouped
model (:attr:`MqoIlp.grouped`) is enumerated depth-first: one candidate per
needed group — the query groups, then every maintenance group a chosen
candidate activates — with partitioning commitments consistent, at the
cost of the union of the chosen candidates' steps.  The grouped greedy's
cost is the first-fit upper bound: a branch is cut as soon as its paid
steps reach the best cost found so far, and each step branches on the
open group with the fewest compatible candidates.

The enumeration shares no code with HiGHS or with the greedy, so it is the
independent check of both: ``optimize()`` must return the enumerated
minimum, and the greedy must never be below it.
"""

from typing import Dict, FrozenSet, Tuple

import pytest

from repro.core.catalog import StatisticsCatalog
from repro.core.ilp_builder import OptimizerConfig
from repro.core.optimizer import MultiQueryOptimizer
from repro.core.partitioning import ClusterConfig
from repro.core.query import Query
from repro.ilp.greedy import GroupedProblem, solve_greedy
from repro.ilp.model import SolveStatus
from repro.streams.workloads import make_environment, random_queries

TOL = 1e-9
#: search nodes per workload; the largest space below takes ~2,200
BUDGET = 20_000


def enumerated_minimum(problem: GroupedProblem, upper_bound: float) -> float:
    """The least cost of any feasible selection; ``upper_bound`` is the
    cost of a known feasible one."""
    best = upper_bound * (1 + TOL) + TOL
    nodes = 0

    def options(group: str, committed: Dict[str, str], steps: FrozenSet[str]):
        """``(unpaid step cost, name, unpaid steps)`` per compatible candidate."""
        out = []
        for name in problem.groups[group]:
            candidate = problem.candidates[name]
            if all(committed.get(s, a) == a for s, a in candidate.commitments):
                unpaid = frozenset(candidate.steps) - steps
                out.append((sum(problem.step_costs[s] for s in unpaid), name, unpaid))
        return sorted(out)

    def visit(
        pending: Tuple[str, ...],
        chosen: Dict[str, str],
        committed: Dict[str, str],
        steps: FrozenSet[str],
        cost: float,
    ) -> None:
        nonlocal best, nodes
        nodes += 1
        assert nodes <= BUDGET, "plan space too large for the oracle"
        open_groups = {
            g: options(g, committed, steps) for g in pending if g not in chosen
        }
        if not open_groups:
            best = min(best, cost)
            return
        # branch where the fewest candidates remain
        group = min(open_groups, key=lambda g: len(open_groups[g]))
        rest = tuple(g for g in open_groups if g != group)
        for extra, name, unpaid in open_groups[group]:
            if cost + extra >= best:
                break
            candidate = problem.candidates[name]
            visit(
                rest + candidate.activates,
                {**chosen, group: name},
                {**committed, **dict(candidate.commitments)},
                steps | unpaid,
                cost + extra,
            )

    visit(tuple(problem.mandatory), {}, {}, frozenset(), 0.0)
    return best


def check_workload(catalog, queries, config):
    """``optimize()`` under ``auto`` and ``scipy`` returns the enumerated
    minimum; the greedy is never below it."""
    results = [
        MultiQueryOptimizer(catalog, config, solver=solver).optimize(queries)
        for solver in ("auto", "scipy")
    ]
    grouped = results[0].ilp.grouped
    greedy = solve_greedy(grouped)
    assert greedy is not None
    minimum = enumerated_minimum(grouped, greedy.objective)
    assert greedy.objective >= minimum - TOL * max(1.0, minimum)
    for result in results:
        assert result.solution.status is SolveStatus.OPTIMAL
        assert result.plan.objective == pytest.approx(minimum, rel=TOL, abs=TOL)
    return results


@pytest.mark.parametrize(
    "num_queries, parallelism", [(2, 1), (3, 1), (4, 1), (2, 2)]
)
def test_optimizer_returns_the_enumerated_minimum(num_queries, parallelism):
    """25 seeds of random 3-way queries over 6 relations per case: 100
    workloads."""
    env = make_environment(6)
    config = OptimizerConfig(cluster=ClusterConfig(default_parallelism=parallelism))
    for seed in range(25):
        queries = random_queries(env, num_queries, query_size=3, seed=seed)
        check_workload(env.catalog, queries, config)


@pytest.mark.parametrize("parallelism", [1, 2])
def test_forced_two_way_plans_are_the_enumerated_minimum(parallelism):
    """A 2-way query has one candidate per group: no solver runs, and the
    plan is still the optimum."""
    catalog = StatisticsCatalog().with_rate("R", 100.0).with_rate("S", 5.0)
    config = OptimizerConfig(cluster=ClusterConfig(default_parallelism=parallelism))
    query = Query.of("q", "R.a=S.a")
    for result in check_workload(catalog, [query], config):
        assert all(len(names) == 1 for names in result.ilp.groups.values())
        assert result.greedy is not None

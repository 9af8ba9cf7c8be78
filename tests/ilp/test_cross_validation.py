"""Cross-validation of the ILP solvers against brute-force enumeration.

Random small binary programs (feasible by construction) are solved by
HiGHS (``scipy.optimize.milp``) and by enumerating every point of
{0,1}^n, each checked with :meth:`Model.is_feasible`.  For randomly
generated grouped selection problems — the structure the MQO ILP actually
has — the enumeration runs over one-candidate-or-none per group (the step
variables follow from the selection), and the greedy heuristic must be
feasible but never better than the enumerated minimum.
"""

import itertools
import random

import numpy as np
import pytest

from repro.ilp.greedy import GroupedCandidate, GroupedProblem, solve_greedy
from repro.ilp.model import Model, Sense, SolveStatus, VarType
from repro.ilp.scipy_backend import ScipyMilpSolver

TOL = 1e-6


def random_binary_model(seed: int) -> Model:
    """A feasible random 0/1 model: constraints are anchored to a random
    feasible point so every instance has at least one solution."""
    rng = random.Random(seed)
    model = Model(name=f"rand{seed}")
    n = rng.randint(3, 8)
    variables = [model.add_var(f"x{i}", VarType.BINARY) for i in range(n)]
    feasible_point = {v: float(rng.randint(0, 1)) for v in variables}

    objective = sum(
        (rng.uniform(-10.0, 10.0) * v for v in variables),
        start=0.0 * variables[0],
    )
    model.set_objective(objective)

    for _ in range(rng.randint(1, 6)):
        support = rng.sample(variables, rng.randint(1, n))
        expr = sum(
            (rng.uniform(-5.0, 5.0) * v for v in support),
            start=0.0 * support[0],
        )
        anchor = expr.value(feasible_point)
        sense = rng.choice([Sense.LE, Sense.GE, Sense.EQ])
        if sense is Sense.LE:
            model.add_le(expr, anchor + rng.uniform(0.0, 3.0))
        elif sense is Sense.GE:
            model.add_ge(expr, anchor - rng.uniform(0.0, 3.0))
        else:
            model.add_eq(expr, anchor)
    return model


def brute_force_minimum(model: Model) -> float:
    """The minimum objective over every feasible point of {0,1}^n."""
    best = float("inf")
    for bits in itertools.product((0.0, 1.0), repeat=model.num_vars):
        point = dict(zip(model.variables, bits))
        if model.is_feasible(point):
            best = min(best, model.objective_value(point))
    return best


class TestRandomBinaryModels:
    @pytest.mark.parametrize("seed", range(25))
    def test_highs_matches_enumerated_minimum(self, seed):
        model = random_binary_model(seed)
        assert model.num_vars <= 8
        ref = ScipyMilpSolver().solve(model)
        assert ref.status is SolveStatus.OPTIMAL
        assert model.is_feasible(ref.values)
        assert ref.objective == pytest.approx(brute_force_minimum(model), abs=1e-5)

    @pytest.mark.parametrize("seed", range(25))
    def test_matrix_form_agrees_with_the_model(self, seed):
        """``to_matrices`` — what HiGHS reads — accepts exactly the points
        :meth:`Model.is_feasible` accepts and prices them the same, up to
        the objective constant it drops."""
        model = random_binary_model(seed)
        c, a_ub, b_ub, a_eq, b_eq, lb, ub = model.to_matrices()
        assert (lb == 0.0).all() and (ub == 1.0).all()
        for bits in itertools.product((0.0, 1.0), repeat=model.num_vars):
            x = np.array(bits)
            point = dict(zip(model.variables, bits))
            in_matrices = bool(
                (a_ub @ x <= b_ub + TOL).all() and (abs(a_eq @ x - b_eq) <= TOL).all()
            )
            assert in_matrices == model.is_feasible(point, tol=TOL)
            assert c @ x + model.objective.constant == pytest.approx(
                model.objective_value(point)
            )


# ----------------------------------------------------------------------
# grouped selection problems: HiGHS and the greedy vs. enumeration
# ----------------------------------------------------------------------
def random_grouped_problem(seed: int) -> GroupedProblem:
    rng = random.Random(seed)
    num_steps = rng.randint(4, 10)
    step_costs = {f"s{i}": rng.uniform(0.5, 10.0) for i in range(num_steps)}
    step_names = list(step_costs)

    groups = {}
    candidates = {}
    num_groups = rng.randint(2, 4)
    for g in range(num_groups):
        group_key = f"g{g}"
        names = []
        for c in range(rng.randint(1, 3)):
            name = f"g{g}c{c}"
            steps = tuple(
                rng.sample(step_names, rng.randint(1, min(3, num_steps)))
            )
            # occasional activation edges to *later* groups (acyclic, as in
            # the MQO ILP where probing a MIR activates its maintenance)
            activates = ()
            if g + 1 < num_groups and rng.random() < 0.3:
                activates = (f"g{g + 1}",)
            candidates[name] = GroupedCandidate(
                name=name, group=group_key, steps=steps, activates=activates
            )
            names.append(name)
        groups[group_key] = names
    mandatory = tuple(f"g{g}" for g in range(rng.randint(1, num_groups)))
    problem = GroupedProblem(
        step_costs=step_costs,
        candidates=candidates,
        groups=groups,
        mandatory=mandatory,
    )
    problem.validate()
    return problem


def grouped_to_model(problem: GroupedProblem) -> Model:
    """Exact 0/1 formulation of a grouped selection problem.

    ``x`` selects candidates, ``y`` pays steps; activation makes a group
    mandatory whenever any activating candidate is chosen.
    """
    model = Model(name="grouped")
    x = {name: model.add_var(f"x_{name}") for name in problem.candidates}
    y = {step: model.add_var(f"y_{step}") for step in problem.step_costs}

    for name, cand in problem.candidates.items():
        for step in cand.steps:
            model.add_le(x[name] - y[step], 0.0)

    for group in problem.mandatory:
        members = [x[name] for name in problem.groups[group]]
        model.add_ge(sum(members, start=0.0 * members[0]), 1.0)

    for name, cand in problem.candidates.items():
        for activated in cand.activates:
            members = [x[m] for m in problem.groups[activated]]
            model.add_ge(
                sum(members, start=0.0 * members[0]) - x[name], 0.0
            )

    model.set_objective(
        sum(
            (cost * y[step] for step, cost in problem.step_costs.items()),
            start=0.0 * next(iter(y.values())),
        )
    )
    return model


def enumerated_grouped_minimum(problem: GroupedProblem, model: Model) -> float:
    """The minimum of ``grouped_to_model`` over one candidate or none per
    group, with exactly the chosen candidates' steps paid (the cheapest
    ``y`` for a fixed ``x``, as step costs are positive)."""
    by_name = {var.name: var for var in model.variables}
    best = float("inf")
    for picks in itertools.product(
        *([None, *names] for names in problem.groups.values())
    ):
        chosen = [name for name in picks if name is not None]
        steps = {s for name in chosen for s in problem.candidates[name].steps}
        point = {var: 0.0 for var in model.variables}
        point.update({by_name[f"x_{name}"]: 1.0 for name in chosen})
        point.update({by_name[f"y_{step}"]: 1.0 for step in steps})
        if model.is_feasible(point):
            best = min(best, model.objective_value(point))
    return best


class TestGroupedProblems:
    @pytest.mark.parametrize("seed", range(20))
    def test_greedy_never_below_enumerated_minimum(self, seed):
        problem = random_grouped_problem(seed)
        greedy = solve_greedy(problem)
        assert greedy is not None, "every generated instance is satisfiable"
        minimum = enumerated_grouped_minimum(problem, grouped_to_model(problem))
        assert greedy.objective >= minimum - TOL

    @pytest.mark.parametrize("seed", range(20))
    def test_highs_matches_enumeration_on_grouped(self, seed):
        problem = random_grouped_problem(seed)
        model = grouped_to_model(problem)
        exact = ScipyMilpSolver().solve(model)
        assert exact.status is SolveStatus.OPTIMAL
        assert exact.objective == pytest.approx(
            enumerated_grouped_minimum(problem, model), abs=1e-5
        )

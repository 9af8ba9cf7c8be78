"""The HiGHS backend and the solver facade on small hand-checked programs.

Each program's optimum is worked out by hand in its test.  Together they
cover every constraint sense, non-default bounds, integer and continuous
domains, the objective constant, and each status the backend maps from
``scipy.optimize.milp``.
"""

import math

import pytest

from repro.ilp.model import LinExpr, Model, SolveStatus, VarType
from repro.ilp.scipy_backend import ScipyMilpSolver
from repro.ilp.solvers import SolverMethod, solve_model


def _knapsack_model(values, weights, capacity):
    """min -value selection under a weight cap (knapsack as minimization)."""
    m = Model("knapsack")
    xs = [m.add_var(f"x{i}") for i in range(len(values))]
    m.add_le(LinExpr.sum(w * x for w, x in zip(weights, xs)), capacity)
    m.set_objective(LinExpr.sum(-v * x for v, x in zip(values, xs)))
    return m, xs


def _solve(model):
    sol = ScipyMilpSolver().solve(model)
    if sol.status is SolveStatus.OPTIMAL:
        assert model.is_feasible(sol.values)
    return sol


class TestBinaryPrograms:
    def test_knapsack_optimum(self):
        m, xs = _knapsack_model([10, 13, 7], [3, 4, 2], 5)
        sol = _solve(m)
        assert sol.status is SolveStatus.OPTIMAL
        # best: items 0+2 (weight 5, value 17) over item 1 (value 13)
        assert sol.objective == pytest.approx(-17)
        assert [sol.value(x) for x in xs] == [1.0, 0.0, 1.0]

    def test_set_cover(self):
        m = Model("cover")
        a, b, c = (m.add_var(n) for n in "abc")
        # elements 1..3; sets a={1,2}, b={2,3}, c={1,3}; unit costs
        m.add_ge(a + c, 1)
        m.add_ge(a + b, 1)
        m.add_ge(b + c, 1)
        m.set_objective(a + b + c)
        sol = _solve(m)
        assert sol.status is SolveStatus.OPTIMAL
        assert sol.objective == pytest.approx(2)
        assert len(sol.selected()) == 2

    def test_assignment_problem(self):
        cost = [[4, 2, 8], [4, 3, 7], [3, 1, 6]]
        m = Model("assign")
        x = [[m.add_var(f"x{i}{j}") for j in range(3)] for i in range(3)]
        for i in range(3):
            m.add_eq(LinExpr.sum(x[i]), 1)
        for j in range(3):
            m.add_eq(LinExpr.sum(x[i][j] for i in range(3)), 1)
        m.set_objective(
            LinExpr.sum(cost[i][j] * x[i][j] for i in range(3) for j in range(3))
        )
        sol = _solve(m)
        assert sol.status is SolveStatus.OPTIMAL
        # three of the six permutations tie at 12, e.g. (0,1)+(1,2)+(2,0) =
        # 2+7+3; the other three cost 13, 13 and 14
        assert sol.objective == pytest.approx(12)
        assert len(sol.selected()) == 3

    def test_solution_values_are_exact_integers(self):
        m, xs = _knapsack_model([5, 4, 3, 2], [4, 3, 2, 1], 6)
        sol = _solve(m)
        assert sol.status is SolveStatus.OPTIMAL
        assert all(sol.value(x) in (0.0, 1.0) for x in xs)
        assert sol.objective == pytest.approx(-9)  # items 1 + 2 + 3


class TestIntegerAndContinuousDomains:
    def test_integer_variable_with_wider_bounds(self):
        m = Model("intvar")
        x = m.add_var("x", vtype=VarType.INTEGER, ub=10)
        y = m.add_var("y", vtype=VarType.INTEGER, ub=10)
        m.add_le(2 * x + 3 * y, 12)
        m.set_objective(-3 * x - 4 * y)
        sol = _solve(m)
        assert sol.status is SolveStatus.OPTIMAL
        # x=6,y=0 gives -18; x=3,y=2 gives -17; x=0,y=4 gives -16
        assert sol.objective == pytest.approx(-18)
        assert (sol.value(x), sol.value(y)) == (6.0, 0.0)

    def test_mixed_integer_continuous(self):
        m = Model("mixed")
        x = m.add_var("x")  # binary
        y = m.add_var("y", vtype=VarType.CONTINUOUS, ub=2.5)
        m.add_ge(x + y, 2)
        m.set_objective(5 * x + y)
        sol = _solve(m)
        assert sol.status is SolveStatus.OPTIMAL
        # cheapest: y at 2.0 with x=0 (cost 2.0) vs x=1,y=1 (cost 6)
        assert sol.objective == pytest.approx(2.0)
        assert sol.value(x) == 0.0

    def test_fractional_lp_optimum(self):
        # max x + y s.t. x + 2y <= 4, 3x + y <= 6 -> x=1.6, y=1.2, sum 2.8
        m = Model("lp")
        x, y = (m.add_var(n, vtype=VarType.CONTINUOUS, ub=math.inf) for n in "xy")
        m.add_le(x + 2 * y, 4)
        m.add_le(3 * x + y, 6)
        m.set_objective(-x - y)
        sol = _solve(m)
        assert sol.status is SolveStatus.OPTIMAL
        assert sol.objective == pytest.approx(-2.8)
        assert sol.value(x) == pytest.approx(1.6)
        assert sol.value(y) == pytest.approx(1.2)

    def test_same_model_integer_rounds_the_lp_optimum_down(self):
        m = Model("ilp")
        x, y = (m.add_var(n, vtype=VarType.INTEGER, ub=10) for n in "xy")
        m.add_le(x + 2 * y, 4)
        m.add_le(3 * x + y, 6)
        m.set_objective(-x - y)
        sol = _solve(m)
        assert sol.status is SolveStatus.OPTIMAL
        assert sol.objective == pytest.approx(-2.0)

    def test_lower_bound_is_respected(self):
        m = Model("lb")
        x = m.add_var("x", vtype=VarType.CONTINUOUS, lb=2.5, ub=10)
        m.set_objective(LinExpr({x: 1.0}))
        sol = _solve(m)
        assert sol.status is SolveStatus.OPTIMAL
        assert sol.value(x) == pytest.approx(2.5)

    def test_upper_bounds_are_respected(self):
        m = Model("ub")
        x = m.add_var("x", vtype=VarType.CONTINUOUS, ub=1)
        y = m.add_var("y", vtype=VarType.CONTINUOUS, ub=2)
        m.add_le(x + y, 10)
        m.set_objective(-x - y)
        sol = _solve(m)
        assert sol.status is SolveStatus.OPTIMAL
        assert sol.objective == pytest.approx(-3.0)

    def test_negative_right_hand_side(self):
        # x - y <= -1 means y >= x + 1; min y -> x=0, y=1
        m = Model("negrhs")
        x = m.add_var("x", vtype=VarType.CONTINUOUS, ub=5)
        y = m.add_var("y", vtype=VarType.CONTINUOUS, ub=5)
        m.add_le(x - y, -1)
        m.set_objective(LinExpr({y: 1.0}))
        sol = _solve(m)
        assert sol.status is SolveStatus.OPTIMAL
        assert sol.objective == pytest.approx(1.0)

    def test_redundant_equalities(self):
        m = Model("redundant")
        x = m.add_var("x", vtype=VarType.CONTINUOUS, ub=math.inf)
        y = m.add_var("y", vtype=VarType.CONTINUOUS, ub=math.inf)
        m.add_eq(x + y, 1)
        m.add_eq(2 * x + 2 * y, 2)
        m.set_objective(x + 2 * y)
        sol = _solve(m)
        assert sol.status is SolveStatus.OPTIMAL
        assert sol.objective == pytest.approx(1.0)
        assert (sol.value(x), sol.value(y)) == pytest.approx((1.0, 0.0))


class TestObjectiveAndStatuses:
    def test_objective_constant_is_kept(self):
        m = Model("const")
        x = m.add_var("x")
        m.add_ge(x, 1)
        m.set_objective(3 * x + 7.5)
        sol = _solve(m)
        assert sol.status is SolveStatus.OPTIMAL
        assert sol.objective == pytest.approx(10.5)

    def test_empty_objective_is_zero(self):
        m = Model("zero")
        x, y = m.add_var("x"), m.add_var("y")
        m.add_le(x + y, 1)
        sol = _solve(m)
        assert sol.status is SolveStatus.OPTIMAL
        assert sol.objective == 0.0

    def test_infeasible_model(self):
        m = Model("infeasible")
        x = m.add_var("x")
        m.add_ge(x, 1)
        m.add_le(x, 0)
        sol = ScipyMilpSolver().solve(m)
        assert sol.status is SolveStatus.INFEASIBLE
        assert sol.values == {} and math.isnan(sol.objective)

    def test_infeasible_against_bounds(self):
        m = Model("infeasible_bounds")
        x = m.add_var("x", vtype=VarType.CONTINUOUS, ub=5)
        y = m.add_var("y", vtype=VarType.CONTINUOUS, ub=5)
        m.add_le(x + y, 1)
        m.add_eq(x + y, 3)
        assert ScipyMilpSolver().solve(m).status is SolveStatus.INFEASIBLE

    def test_unbounded_model(self):
        m = Model("unbounded")
        x = m.add_var("x", vtype=VarType.CONTINUOUS, ub=math.inf)
        m.set_objective(LinExpr({x: -1.0}))
        assert ScipyMilpSolver().solve(m).status is SolveStatus.UNBOUNDED


class TestFacade:
    @pytest.mark.parametrize("method", ["auto", "scipy", SolverMethod.SCIPY])
    def test_exact_methods_reach_the_optimum(self, method):
        m, _ = _knapsack_model([1, 2, 3], [1, 1, 1], 2)
        sol = solve_model(m, method=method, time_limit=30.0)
        assert sol.status is SolveStatus.OPTIMAL
        assert sol.objective == pytest.approx(-5)

    def test_greedy_needs_the_grouped_problem(self):
        m, _ = _knapsack_model([1, 2, 3], [1, 1, 1], 2)
        with pytest.raises(ValueError, match="grouped selection problem"):
            solve_model(m, method="greedy")

    def test_unknown_method_is_rejected(self):
        m, _ = _knapsack_model([1, 2, 3], [1, 1, 1], 2)
        with pytest.raises(ValueError):
            solve_model(m, method="bogus")

    def test_methods_are_exactly_the_three_names(self):
        assert {m.value for m in SolverMethod} == {"auto", "greedy", "scipy"}

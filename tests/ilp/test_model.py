"""Unit tests for the ILP modeling layer."""

import numpy as np
import pytest

from repro.ilp.model import LinExpr, Model, Sense, VarType


@pytest.fixture()
def model():
    return Model("test")


class TestVariables:
    def test_add_var_assigns_sequential_indices(self, model):
        x = model.add_var("x")
        y = model.add_var("y")
        assert (x.index, y.index) == (0, 1)

    def test_duplicate_names_rejected(self, model):
        model.add_var("x")
        with pytest.raises(ValueError):
            model.add_var("x")

    def test_invalid_bounds_rejected(self, model):
        with pytest.raises(ValueError):
            model.add_var("x", lb=2.0, ub=1.0)

    def test_get_and_has_var(self, model):
        x = model.add_var("x")
        assert model.get_var("x") is x
        assert model.has_var("x")
        assert not model.has_var("y")

    def test_binary_default_bounds(self, model):
        x = model.add_var("x")
        assert (x.lb, x.ub) == (0.0, 1.0)
        assert x.vtype is VarType.BINARY


class TestLinExpr:
    def test_scalar_multiplication(self, model):
        x = model.add_var("x")
        expr = 3 * x
        assert expr.terms[x] == 3.0

    def test_addition_merges_terms(self, model):
        x, y = model.add_var("x"), model.add_var("y")
        expr = 2 * x + 3 * y + x
        assert expr.terms[x] == 3.0
        assert expr.terms[y] == 3.0

    def test_subtraction_cancels_to_zero_terms(self, model):
        x = model.add_var("x")
        expr = 2 * x - 2 * x
        assert x not in expr.terms

    def test_constant_arithmetic(self, model):
        x = model.add_var("x")
        expr = x + 5 - 2
        assert expr.constant == 3.0

    def test_sum_helper(self, model):
        xs = [model.add_var(f"x{i}") for i in range(4)]
        expr = LinExpr.sum(xs)
        assert all(expr.terms[x] == 1.0 for x in xs)

    def test_negation(self, model):
        x = model.add_var("x")
        expr = -(2 * x + 1)
        assert expr.terms[x] == -2.0
        assert expr.constant == -1.0

    def test_value_evaluation(self, model):
        x, y = model.add_var("x"), model.add_var("y")
        expr = 2 * x + 3 * y + 1
        assert expr.value({x: 1.0, y: 2.0}) == 9.0

    def test_value_missing_vars_default_zero(self, model):
        x, y = model.add_var("x"), model.add_var("y")
        expr = 2 * x + 3 * y
        assert expr.value({x: 1.0}) == 2.0


class TestConstraints:
    def test_constant_folded_into_rhs(self, model):
        x = model.add_var("x")
        con = model.add_le(x + 5, 6)
        assert con.rhs == 1.0
        assert con.expr.constant == 0.0

    def test_satisfied_le(self, model):
        x = model.add_var("x")
        con = model.add_le(2 * x, 1)
        assert con.satisfied({x: 0.0})
        assert not con.satisfied({x: 1.0})

    def test_satisfied_ge(self, model):
        x = model.add_var("x")
        con = model.add_ge(x, 1)
        assert con.satisfied({x: 1.0})
        assert not con.satisfied({x: 0.0})

    def test_satisfied_eq_with_tolerance(self, model):
        x = model.add_var("x")
        con = model.add_eq(x, 1)
        assert con.satisfied({x: 1.0 + 1e-9})
        assert not con.satisfied({x: 0.5})

    def test_variable_accepted_as_expr(self, model):
        x = model.add_var("x")
        con = model.add_constraint(x, Sense.LE, 1)
        assert con.expr.terms[x] == 1.0


class TestFeasibilityAndObjective:
    def test_is_feasible_checks_bounds(self, model):
        x = model.add_var("x")
        assert not model.is_feasible({x: 2.0})

    def test_is_feasible_checks_integrality(self, model):
        x = model.add_var("x")
        assert not model.is_feasible({x: 0.5})
        c = model.add_var("c", vtype=VarType.CONTINUOUS)
        assert model.is_feasible({x: 1.0, c: 0.5})

    def test_is_feasible_checks_constraints(self, model):
        x, y = model.add_var("x"), model.add_var("y")
        model.add_le(x + y, 1)
        assert model.is_feasible({x: 1.0, y: 0.0})
        assert not model.is_feasible({x: 1.0, y: 1.0})

    def test_objective_value_includes_constant(self, model):
        x = model.add_var("x")
        model.set_objective(2 * x + 7)
        assert model.objective_value({x: 1.0}) == 9.0


class TestMatrixExport:
    def test_ge_rows_negated_into_le(self, model):
        x, y = model.add_var("x"), model.add_var("y")
        model.add_ge(x + 2 * y, 3)
        model.set_objective(x + y)
        c, a_ub, b_ub, a_eq, b_eq, lb, ub = model.to_matrices()
        np.testing.assert_allclose(a_ub, [[-1.0, -2.0]])
        np.testing.assert_allclose(b_ub, [-3.0])

    def test_eq_rows_separate(self, model):
        x, y = model.add_var("x"), model.add_var("y")
        model.add_eq(x + y, 1)
        c, a_ub, b_ub, a_eq, b_eq, lb, ub = model.to_matrices()
        assert a_ub.shape == (0, 2)
        np.testing.assert_allclose(a_eq, [[1.0, 1.0]])
        np.testing.assert_allclose(b_eq, [1.0])

    def test_bounds_exported(self, model):
        model.add_var("x", lb=0.5, ub=2.0, vtype=VarType.CONTINUOUS)
        *_, lb, ub = model.to_matrices()
        np.testing.assert_allclose(lb, [0.5])
        np.testing.assert_allclose(ub, [2.0])

    def test_solution_from_vector(self, model):
        x, y = model.add_var("x"), model.add_var("y")
        model.set_objective(3 * x + y + 1)
        from repro.ilp.model import SolveStatus

        sol = model.solution_from_vector(np.array([1.0, 0.0]), SolveStatus.OPTIMAL)
        assert sol.objective == 4.0
        assert sol.value(x) == 1.0
        assert sol.selected() == [x]

"""Integer linear programming substrate.

The paper solves its multi-query optimization ILPs with Gurobi; this
package solves them with HiGHS:

* :mod:`repro.ilp.model` — modeling layer (variables, constraints, objective)
* :mod:`repro.ilp.greedy` — grouped-selection greedy heuristic (the
  ``"greedy"`` planner, and the plan of a model with nothing to choose)
* :mod:`repro.ilp.scipy_backend` — HiGHS via ``scipy.optimize.milp``, the
  one exact solver; scipy is imported at the first exact solve, not here
* :mod:`repro.ilp.solvers` — the solver names and :func:`solve_model`
"""

from .greedy import GroupedCandidate, GroupedProblem, GreedySolution, solve_greedy
from .model import (
    Constraint,
    LinExpr,
    Model,
    Sense,
    Solution,
    SolveStatus,
    Variable,
    VarType,
)
from .scipy_backend import ScipyMilpSolver
from .solvers import SolverMethod, solve_model

__all__ = [
    "Constraint",
    "GroupedCandidate",
    "GroupedProblem",
    "GreedySolution",
    "LinExpr",
    "Model",
    "ScipyMilpSolver",
    "Sense",
    "Solution",
    "SolveStatus",
    "SolverMethod",
    "solve_greedy",
    "solve_model",
    "Variable",
    "VarType",
]

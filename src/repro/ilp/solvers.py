"""Solver facade: every exact solve goes to HiGHS.

The paper solves its ILPs with an industrial solver (Gurobi); this package
solves them with HiGHS via ``scipy.optimize.milp``.  ``"auto"`` and
``"scipy"`` name the same exact solve here; they differ only where
:func:`repro.core.optimizer.choose_solver` sends a cyclic workload to
``"greedy"``.  scipy is imported at the first exact solve (see
:mod:`repro.ilp.scipy_backend`), so ``import repro`` does not load it.
"""

from __future__ import annotations

import enum
from typing import Optional

from .model import Model, Solution
from .scipy_backend import ScipyMilpSolver

__all__ = ["SolverMethod", "solve_model"]


class SolverMethod(enum.Enum):
    SCIPY = "scipy"
    AUTO = "auto"
    #: feasible-not-optimal: the grouped greedy heuristic promoted to a full
    #: solution (resolved by MultiQueryOptimizer — it needs the grouped
    #: problem, which a bare Model does not carry)
    GREEDY = "greedy"


def solve_model(
    model: Model,
    method: SolverMethod | str = SolverMethod.AUTO,
    time_limit: Optional[float] = None,
) -> Solution:
    """Solve ``model`` to optimality with HiGHS."""
    if SolverMethod(method) is SolverMethod.GREEDY:
        raise ValueError(
            "the greedy heuristic operates on the grouped selection problem, "
            "not a bare Model; use MultiQueryOptimizer(..., solver='greedy')"
        )
    return ScipyMilpSolver(time_limit=time_limit).solve(model)

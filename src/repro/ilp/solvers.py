"""Solver facade: choose between the in-house and scipy backends.

``method="auto"`` uses the in-house branch-and-bound for instances small
enough for the dense simplex and falls back to HiGHS (scipy) beyond that —
mirroring the paper's use of an industrial solver (Gurobi) for its largest
instances while keeping everything verifiable in-house at test scale.
"""

from __future__ import annotations

import enum
from typing import Mapping, Optional

from .bnb import BranchAndBoundSolver
from .model import Model, Solution, Variable
from .scipy_backend import ScipyMilpSolver

__all__ = [
    "SolverMethod",
    "resolve_method",
    "solve_model",
    "AUTO_OWN_MAX_VARS",
    "AUTO_OWN_MAX_CONSTRAINTS",
]

#: instance-size thresholds above which ``auto`` delegates to scipy/HiGHS
AUTO_OWN_MAX_VARS = 250
AUTO_OWN_MAX_CONSTRAINTS = 400


class SolverMethod(enum.Enum):
    OWN = "own"
    SCIPY = "scipy"
    AUTO = "auto"
    #: feasible-not-optimal: the grouped greedy heuristic promoted to a full
    #: solution (resolved by MultiQueryOptimizer — it needs the grouped
    #: problem, which a bare Model does not carry)
    GREEDY = "greedy"


def resolve_method(model: Model, method: SolverMethod | str) -> SolverMethod:
    """The method that will solve ``model``: ``auto`` resolved by its size.

    The one home of the ``AUTO_OWN_MAX_*`` rule.  Callers that prepare
    something only one backend reads (the greedy warm start seeds the
    in-house branch-and-bound; HiGHS takes none) ask here first.
    """
    method = SolverMethod(method)
    if method is SolverMethod.AUTO:
        small = (
            model.num_vars <= AUTO_OWN_MAX_VARS
            and model.num_constraints <= AUTO_OWN_MAX_CONSTRAINTS
        )
        return SolverMethod.OWN if small else SolverMethod.SCIPY
    return method


def solve_model(
    model: Model,
    method: SolverMethod | str = SolverMethod.AUTO,
    warm_start: Optional[Mapping[Variable, float]] = None,
    time_limit: Optional[float] = None,
) -> Solution:
    """Solve ``model`` to optimality with the selected backend."""
    method = resolve_method(model, method)

    if method is SolverMethod.GREEDY:
        raise ValueError(
            "the greedy heuristic operates on the grouped selection problem, "
            "not a bare Model; use MultiQueryOptimizer(..., solver='greedy')"
        )

    if method is SolverMethod.OWN:
        solver = BranchAndBoundSolver(time_limit=time_limit)
        return solver.solve(model, warm_start=warm_start)
    return ScipyMilpSolver(time_limit=time_limit).solve(model, warm_start=warm_start)

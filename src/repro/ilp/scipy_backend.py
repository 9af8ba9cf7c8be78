"""ILP backend wrapping ``scipy.optimize.milp`` (HiGHS).

The one exact solver of the package, standing in for the Gurobi the paper
uses for all instances.

scipy is imported at the first exact solve, not with the package: a
session whose models leave nothing to choose, or that plans with
``solver="greedy"``, never loads it.  A timer that measures a solve calls
:func:`load_highs` before it starts, so the import is not counted as solve
time.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from .model import Model, Solution, SolveStatus, VarType

__all__ = ["ScipyMilpSolver", "load_highs"]


def load_highs() -> None:
    """Import HiGHS (``scipy.optimize`` and ``scipy.sparse``); a no-op once
    loaded.

    Raises :class:`ImportError` naming the way out when scipy is missing:
    the grouped greedy planner needs no solver.
    """
    try:
        import scipy.optimize  # noqa: F401
        import scipy.sparse  # noqa: F401
    except ImportError as exc:
        raise ImportError(
            "the exact ILP solver is HiGHS via scipy.optimize.milp, and scipy "
            "is not installed: install scipy, or plan with solver=\"greedy\""
        ) from exc


class ScipyMilpSolver:
    """Solve a :class:`repro.ilp.model.Model` with HiGHS via scipy."""

    def __init__(self, time_limit: Optional[float] = None, mip_rel_gap: float = 0.0) -> None:
        self.time_limit = time_limit
        self.mip_rel_gap = mip_rel_gap

    def solve(self, model: Model) -> Solution:
        load_highs()
        from scipy import optimize, sparse

        c, a_ub, b_ub, a_eq, b_eq, lb, ub = model.to_matrices()

        constraints: List[optimize.LinearConstraint] = []
        if a_ub.shape[0]:
            constraints.append(
                optimize.LinearConstraint(
                    sparse.csr_matrix(a_ub), -np.inf * np.ones(a_ub.shape[0]), b_ub
                )
            )
        if a_eq.shape[0]:
            constraints.append(
                optimize.LinearConstraint(sparse.csr_matrix(a_eq), b_eq, b_eq)
            )

        integrality = np.array(
            [0 if v.vtype is VarType.CONTINUOUS else 1 for v in model.variables]
        )
        options: Dict[str, float] = {"mip_rel_gap": self.mip_rel_gap}
        if self.time_limit is not None:
            options["time_limit"] = self.time_limit

        result = optimize.milp(
            c=c,
            constraints=constraints,
            integrality=integrality,
            bounds=optimize.Bounds(lb, ub),
            options=options,
        )

        if result.status == 0 and result.x is not None:
            x = np.asarray(result.x, dtype=float)
            # HiGHS can return values a hair off integrality; snap them.
            int_mask = integrality.astype(bool)
            x[int_mask] = np.round(x[int_mask])
            return model.solution_from_vector(x, SolveStatus.OPTIMAL)
        if result.status == 2:
            return Solution(status=SolveStatus.INFEASIBLE)
        if result.status == 3:
            return Solution(status=SolveStatus.UNBOUNDED)
        if result.x is not None:
            x = np.asarray(result.x, dtype=float)
            return model.solution_from_vector(x, SolveStatus.FEASIBLE)
        return Solution(status=SolveStatus.ERROR)

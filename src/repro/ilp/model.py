"""Integer linear program model objects.

The paper formulates multi-query probe-order selection as a 0/1 integer
linear program (Section V) and solves it with Gurobi.  Gurobi is not
available here, so this package provides a small, self-contained modeling
layer that :mod:`repro.ilp.scipy_backend` hands to HiGHS
(``scipy.optimize.milp``).

The modeling layer is deliberately minimal: binary/integer/continuous
variables with bounds, linear constraints with senses ``<=``, ``>=``, ``==``,
and a linear objective that is always *minimized*.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Tuple, Union

import numpy as np
import numpy.typing as npt

__all__ = [
    "VarType",
    "Sense",
    "Variable",
    "LinExpr",
    "Constraint",
    "Model",
    "Solution",
    "SolveStatus",
]

FloatArray = npt.NDArray[np.float64]


class VarType(enum.Enum):
    """Domain of a decision variable."""

    BINARY = "binary"
    INTEGER = "integer"
    CONTINUOUS = "continuous"


class Sense(enum.Enum):
    """Constraint sense; the left-hand side is always a :class:`LinExpr`."""

    LE = "<="
    GE = ">="
    EQ = "=="


class SolveStatus(enum.Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"
    FEASIBLE = "feasible"  # incumbent found, optimality not proven
    ERROR = "error"


@dataclass(frozen=True)
class Variable:
    """A decision variable.

    Variables are value objects owned by a :class:`Model`; identity is the
    model-assigned ``index``.  ``name`` exists for debugging and solution
    reporting and must be unique within a model.
    """

    name: str
    index: int
    vtype: VarType = VarType.BINARY
    lb: float = 0.0
    ub: float = 1.0

    def __mul__(self, coef: float) -> "LinExpr":
        return LinExpr({self: float(coef)})

    __rmul__ = __mul__

    def __add__(self, other: "Operand") -> "LinExpr":
        return LinExpr({self: 1.0}) + other

    __radd__ = __add__

    def __sub__(self, other: "Operand") -> "LinExpr":
        return LinExpr({self: 1.0}) - other

    def __neg__(self) -> "LinExpr":
        return LinExpr({self: -1.0})

    def __hash__(self) -> int:
        return self.index

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Variable) and other.index == self.index


class LinExpr:
    """A linear expression ``sum(coef_i * var_i) + constant``."""

    __slots__ = ("terms", "constant")

    def __init__(
        self,
        terms: Optional[Mapping[Variable, float]] = None,
        constant: float = 0.0,
    ) -> None:
        self.terms: Dict[Variable, float] = dict(terms or {})
        self.constant = float(constant)

    @staticmethod
    def sum(items: Iterable["Operand"]) -> "LinExpr":
        """Sum variables and/or expressions into a single expression."""
        out = LinExpr()
        for item in items:
            out += item
        return out

    def copy(self) -> "LinExpr":
        return LinExpr(dict(self.terms), self.constant)

    def _add_term(self, var: Variable, coef: float) -> None:
        new = self.terms.get(var, 0.0) + coef
        if new == 0.0:
            self.terms.pop(var, None)
        else:
            self.terms[var] = new

    def __add__(self, other: "Operand") -> "LinExpr":
        out = self.copy()
        if isinstance(other, LinExpr):
            for var, coef in other.terms.items():
                out._add_term(var, coef)
            out.constant += other.constant
        elif isinstance(other, Variable):
            out._add_term(other, 1.0)
        else:
            out.constant += float(other)
        return out

    __radd__ = __add__

    def __sub__(self, other: "Operand") -> "LinExpr":
        if isinstance(other, LinExpr):
            return self + (other * -1.0)
        if isinstance(other, Variable):
            return self + LinExpr({other: -1.0})
        return self + (-float(other))

    def __mul__(self, coef: float) -> "LinExpr":
        coef = float(coef)
        return LinExpr(
            {var: c * coef for var, c in self.terms.items()},
            self.constant * coef,
        )

    __rmul__ = __mul__

    def __neg__(self) -> "LinExpr":
        return self * -1.0

    def value(self, assignment: Mapping[Variable, float]) -> float:
        """Evaluate under a variable assignment (missing vars count as 0)."""
        total = self.constant
        for var, coef in self.terms.items():
            total += coef * assignment.get(var, 0.0)
        return total

    def __repr__(self) -> str:
        parts = [f"{coef:+g}*{var.name}" for var, coef in self.terms.items()]
        if self.constant:
            parts.append(f"{self.constant:+g}")
        return " ".join(parts) if parts else "0"


#: what a linear expression is built from
Operand = Union[Variable, LinExpr, float]


@dataclass
class Constraint:
    """``expr (<=|>=|==) rhs``; ``rhs`` is folded from the expr constant."""

    name: str
    expr: LinExpr
    sense: Sense
    rhs: float

    def satisfied(self, assignment: Mapping[Variable, float], tol: float = 1e-6) -> bool:
        lhs = self.expr.value(assignment)
        if self.sense is Sense.LE:
            return lhs <= self.rhs + tol
        if self.sense is Sense.GE:
            return lhs >= self.rhs - tol
        return abs(lhs - self.rhs) <= tol


@dataclass
class Solution:
    """Result of a solve: assignment, objective, and status."""

    status: SolveStatus
    objective: float = float("nan")
    values: Dict[Variable, float] = field(default_factory=dict)

    def value(self, var: Variable) -> float:
        return self.values.get(var, 0.0)

    def selected(self, tol: float = 0.5) -> List[Variable]:
        """Variables with value above ``tol`` (binary 'chosen' set)."""
        return [v for v, x in self.values.items() if x > tol]


class Model:
    """A minimization ILP: variables, linear constraints, linear objective."""

    def __init__(self, name: str = "model") -> None:
        self.name = name
        self.variables: List[Variable] = []
        self.constraints: List[Constraint] = []
        self.objective: LinExpr = LinExpr()
        self._names: Dict[str, Variable] = {}

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_var(
        self,
        name: str,
        vtype: VarType = VarType.BINARY,
        lb: float = 0.0,
        ub: float = 1.0,
    ) -> Variable:
        """Create and register a variable; names must be unique."""
        if name in self._names:
            raise ValueError(f"duplicate variable name: {name!r}")
        if lb > ub:
            raise ValueError(f"variable {name!r} has lb {lb} > ub {ub}")
        var = Variable(name=name, index=len(self.variables), vtype=vtype, lb=lb, ub=ub)
        self.variables.append(var)
        self._names[name] = var
        return var

    def get_var(self, name: str) -> Variable:
        return self._names[name]

    def has_var(self, name: str) -> bool:
        return name in self._names

    def add_constraint(
        self, expr: Union[LinExpr, Variable], sense: Sense, rhs: float, name: str = ""
    ) -> Constraint:
        """Add ``expr sense rhs``. The expression constant is folded into rhs."""
        if isinstance(expr, Variable):
            expr = LinExpr({expr: 1.0})
        folded_rhs = float(rhs) - expr.constant
        folded = LinExpr(dict(expr.terms), 0.0)
        con = Constraint(
            name=name or f"c{len(self.constraints)}",
            expr=folded,
            sense=sense,
            rhs=folded_rhs,
        )
        self.constraints.append(con)
        return con

    def add_le(self, expr: Union[LinExpr, Variable], rhs: float, name: str = "") -> Constraint:
        return self.add_constraint(expr, Sense.LE, rhs, name)

    def add_ge(self, expr: Union[LinExpr, Variable], rhs: float, name: str = "") -> Constraint:
        return self.add_constraint(expr, Sense.GE, rhs, name)

    def add_eq(self, expr: Union[LinExpr, Variable], rhs: float, name: str = "") -> Constraint:
        return self.add_constraint(expr, Sense.EQ, rhs, name)

    def set_objective(self, expr: Union[LinExpr, Variable]) -> None:
        """Set the objective to *minimize* (constants are preserved)."""
        if isinstance(expr, Variable):
            expr = LinExpr({expr: 1.0})
        self.objective = expr.copy()

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------
    @property
    def num_vars(self) -> int:
        return len(self.variables)

    @property
    def num_constraints(self) -> int:
        return len(self.constraints)

    def is_feasible(self, assignment: Mapping[Variable, float], tol: float = 1e-6) -> bool:
        """Check bounds, integrality, and all constraints."""
        for var in self.variables:
            x = assignment.get(var, 0.0)
            if x < var.lb - tol or x > var.ub + tol:
                return False
            if var.vtype is not VarType.CONTINUOUS and abs(x - round(x)) > tol:
                return False
        return all(c.satisfied(assignment, tol) for c in self.constraints)

    def objective_value(self, assignment: Mapping[Variable, float]) -> float:
        return self.objective.value(assignment)

    # ------------------------------------------------------------------
    # matrix form (what HiGHS reads)
    # ------------------------------------------------------------------
    def to_matrices(
        self,
    ) -> Tuple[
        FloatArray, FloatArray, FloatArray, FloatArray, FloatArray, FloatArray, FloatArray
    ]:
        """Export ``(c, A_ub, b_ub, A_eq, b_eq, lb, ub)`` dense arrays.

        ``>=`` rows are negated into ``<=`` rows.  The objective constant is
        dropped; :meth:`solution_from_vector` evaluates the full objective.
        """
        n = self.num_vars
        c = np.zeros(n)
        for var, coef in self.objective.terms.items():
            c[var.index] = coef

        ub_rows: List[FloatArray] = []
        eq_rows: List[FloatArray] = []
        ub_rhs: List[float] = []
        eq_rhs: List[float] = []
        for con in self.constraints:
            row = np.zeros(n)
            for var, coef in con.expr.terms.items():
                row[var.index] = coef
            if con.sense is Sense.LE:
                ub_rows.append(row)
                ub_rhs.append(con.rhs)
            elif con.sense is Sense.GE:
                ub_rows.append(-row)
                ub_rhs.append(-con.rhs)
            else:
                eq_rows.append(row)
                eq_rhs.append(con.rhs)

        a_ub = np.array(ub_rows) if ub_rows else np.zeros((0, n))
        b_ub = np.array(ub_rhs) if ub_rhs else np.zeros(0)
        a_eq = np.array(eq_rows) if eq_rows else np.zeros((0, n))
        b_eq = np.array(eq_rhs) if eq_rhs else np.zeros(0)
        lb = np.array([v.lb for v in self.variables])
        ub = np.array([v.ub for v in self.variables])
        return c, a_ub, b_ub, a_eq, b_eq, lb, ub

    def solution_from_vector(self, x: FloatArray, status: SolveStatus) -> Solution:
        values = {var: float(x[var.index]) for var in self.variables}
        return Solution(
            status=status,
            objective=self.objective.value(values),
            values=values,
        )

    def __repr__(self) -> str:
        return (
            f"Model({self.name!r}, vars={self.num_vars}, "
            f"constraints={self.num_constraints})"
        )

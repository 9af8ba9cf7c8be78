"""Greedy heuristic over *grouped selection problems*.

The MQO ILP of the paper has a very regular structure: for every (query,
starting relation) pair exactly one candidate probe order must be chosen
("groups"); each candidate implies a set of shared, positively priced
*steps*; candidates may commit stores to partitioning attributes; and
candidates that probe a materialized intermediate result activate further
groups (the MIR's maintenance probe orders).

This module captures that structure explicitly and solves it greedily:
repeatedly pick, over all pending unsatisfied groups, the compatible
candidate with the smallest *marginal* step cost.  The result is a feasible
(not necessarily optimal) selection: the ``"greedy"`` planner's plan, and
the plan of a model in which every group has one candidate, where it is the
only minimal selection and therefore optimal.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Mapping, Optional, Sequence, Set, Tuple

__all__ = ["GroupedCandidate", "GroupedProblem", "GreedySolution", "solve_greedy"]


@dataclass(frozen=True)
class GroupedCandidate:
    """One selectable alternative within a group.

    Attributes
    ----------
    name:
        Unique candidate identifier (matches the ILP ``x`` variable name).
    group:
        Key of the group this candidate belongs to.
    steps:
        Keys of the shared steps this candidate requires (ILP ``y`` vars).
    commitments:
        ``(store_key, attribute)`` pairs this candidate forces; two selected
        candidates must never commit the same store to different attributes.
    activates:
        Group keys that become mandatory when this candidate is selected
        (MIR maintenance groups).
    """

    name: str
    group: str
    steps: Tuple[str, ...]
    commitments: Tuple[Tuple[str, str], ...] = ()
    activates: Tuple[str, ...] = ()


@dataclass
class GroupedProblem:
    """A choose-one-per-group problem with shared step costs."""

    step_costs: Dict[str, float]
    candidates: Dict[str, GroupedCandidate]
    groups: Dict[str, List[str]]  # group key -> candidate names
    mandatory: Tuple[str, ...]  # groups that must always be satisfied

    def validate(self) -> None:
        """Raise ``ValueError`` on dangling references (used by tests)."""
        for name, cand in self.candidates.items():
            if cand.group not in self.groups:
                raise ValueError(f"candidate {name} references unknown group {cand.group}")
            for step in cand.steps:
                if step not in self.step_costs:
                    raise ValueError(f"candidate {name} references unknown step {step}")
            for activated in cand.activates:
                if activated not in self.groups:
                    raise ValueError(f"candidate {name} activates unknown group {activated}")
        for group, names in self.groups.items():
            for name in names:
                if name not in self.candidates:
                    raise ValueError(f"group {group} references unknown candidate {name}")
        for group in self.mandatory:
            if group not in self.groups:
                raise ValueError(f"mandatory group {group} is unknown")


@dataclass
class GreedySolution:
    """Feasible selection produced by :func:`solve_greedy`."""

    chosen: Set[str] = field(default_factory=set)
    steps: Set[str] = field(default_factory=set)
    partitioning: Dict[str, str] = field(default_factory=dict)
    satisfied_groups: Set[str] = field(default_factory=set)
    objective: float = 0.0


def solve_greedy(
    problem: GroupedProblem, improvement_rounds: int = 10
) -> Optional[GreedySolution]:
    """Greedy marginal-cost selection plus local-improvement passes.

    Construction is *globally* marginal: at each round every pending group's
    compatible candidates are scored by the cost of their not-yet-selected
    steps, and the overall cheapest (group, candidate) pair is taken.  The
    improvement phase then repeatedly re-evaluates each group's choice given
    all others fixed, which captures the paper's Sec. V.2 effect where a
    locally suboptimal probe order becomes globally attractive once another
    query already pays for the shared prefix.
    """
    choice = _construct(problem)
    if choice is None:
        return None
    choice = _improve(problem, choice, improvement_rounds)
    return _materialize(problem, choice)


def _construct(problem: GroupedProblem) -> Optional[Dict[str, str]]:
    """Greedy construction; returns ``group -> candidate name`` or ``None``."""
    choice: Dict[str, str] = {}
    steps: Set[str] = set()
    partitioning: Dict[str, str] = {}
    pending_set: Set[str] = set(problem.mandatory)

    while pending_set:
        best: Optional[Tuple[float, str, GroupedCandidate]] = None
        for group in sorted(pending_set):
            for cand_name in problem.groups[group]:
                cand = problem.candidates[cand_name]
                if not _compatible(cand, partitioning):
                    continue
                marginal = sum(
                    problem.step_costs[s] for s in cand.steps if s not in steps
                )
                key = (marginal, cand.name, cand)
                if best is None or key[:2] < best[:2]:
                    best = key
        if best is None:
            return None  # no compatible candidate for any pending group

        _, __, cand = best
        choice[cand.group] = cand.name
        pending_set.discard(cand.group)
        for store, attr in cand.commitments:
            partitioning[store] = attr
        steps.update(cand.steps)
        for activated in cand.activates:
            if activated not in choice:
                pending_set.add(activated)
    return choice


def _needed_groups(problem: GroupedProblem, choice: Mapping[str, str]) -> Set[str]:
    """Closure of mandatory groups under the activations of chosen candidates."""
    needed: Set[str] = set()
    frontier = list(problem.mandatory)
    while frontier:
        group = frontier.pop()
        if group in needed:
            continue
        needed.add(group)
        cand_name = choice.get(group)
        if cand_name is not None:
            frontier.extend(problem.candidates[cand_name].activates)
    return needed


def _evaluate(
    problem: GroupedProblem, choice: Mapping[str, str]
) -> Optional[Tuple[float, Set[str], Dict[str, str]]]:
    """Cost of a choice map, or ``None`` if infeasible/incomplete."""
    needed = _needed_groups(problem, choice)
    partitioning: Dict[str, str] = {}
    steps: Set[str] = set()
    for group in needed:
        cand_name = choice.get(group)
        if cand_name is None:
            return None
        cand = problem.candidates[cand_name]
        if not _compatible(cand, partitioning):
            return None
        for store, attr in cand.commitments:
            partitioning[store] = attr
        steps.update(cand.steps)
    cost = sum(problem.step_costs[s] for s in steps)
    return cost, needed, partitioning


def _improve(
    problem: GroupedProblem, choice: Dict[str, str], rounds: int
) -> Dict[str, str]:
    """One-group-at-a-time replacement until no improvement is found."""
    current = _evaluate(problem, choice)
    assert current is not None, "construction must yield a feasible choice"
    best_cost = current[0]

    for _ in range(rounds):
        improved = False
        for group in sorted(_needed_groups(problem, choice)):
            for cand_name in problem.groups[group]:
                if choice.get(group) == cand_name:
                    continue
                trial = dict(choice)
                trial[group] = cand_name
                # Newly activated groups may lack a choice yet: default them
                # to their cheapest standalone candidate.
                for activated in problem.candidates[cand_name].activates:
                    _default_choice(problem, trial, activated)
                outcome = _evaluate(problem, trial)
                if outcome is not None and outcome[0] < best_cost - 1e-12:
                    choice, best_cost, improved = trial, outcome[0], True
        if not improved:
            break
    return choice


def _default_choice(problem: GroupedProblem, choice: Dict[str, str], group: str) -> None:
    if group in choice or not problem.groups.get(group):
        return
    cheapest = min(
        problem.groups[group],
        key=lambda name: sum(
            problem.step_costs[s] for s in problem.candidates[name].steps
        ),
    )
    choice[group] = cheapest
    for activated in problem.candidates[cheapest].activates:
        _default_choice(problem, choice, activated)


def _materialize(problem: GroupedProblem, choice: Dict[str, str]) -> GreedySolution:
    outcome = _evaluate(problem, choice)
    assert outcome is not None
    cost, needed, partitioning = outcome
    solution = GreedySolution(
        chosen={choice[g] for g in needed},
        satisfied_groups=needed,
        partitioning=partitioning,
        objective=cost,
    )
    solution.steps = {
        step for name in solution.chosen for step in problem.candidates[name].steps
    }
    return solution


def _compatible(candidate: GroupedCandidate, committed: Mapping[str, str]) -> bool:
    return all(
        committed.get(store, attr) == attr for store, attr in candidate.commitments
    )


def selection_objective(problem: GroupedProblem, chosen: Sequence[str]) -> float:
    """Objective of an arbitrary candidate selection (union of step costs)."""
    steps: FrozenSet[str] = frozenset(
        step for name in chosen for step in problem.candidates[name].steps
    )
    return sum(problem.step_costs[s] for s in steps)

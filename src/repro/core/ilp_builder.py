"""ILP construction for multi-query probe-order optimization (Algorithm 2).

Given a workload of queries and a statistics catalog, this module
enumerates MIRs, candidate probe orders, and partitioning decorations, then
emits a 0/1 ILP:

* one binary ``x`` per decorated probe order,
* one binary ``y`` per *shared step* (probe-order prefix with identical
  decoration — Section V's crucial sharing of the same variable ``y7``),
* one binary ``z`` per (store, partitioning attribute) pair enforcing the
  paper's "each store is only partitioned according to one attribute"
  (DESIGN.md choice #1; can be disabled via ``strict_partitioning=False``),
* per (query, starting relation) group: exactly one ``x`` (Equation 2),
* per MIR probed by a chosen order: at least one maintenance probe order
  per input relation of the MIR (DESIGN.md choice #2),
* cost linking in either the paper's aggregate form (Equation 3) or the
  tighter per-step indicator form (default; DESIGN.md choice #3),
* objective: minimize the summed step costs (Equation 1 applied per step).

Alongside the :class:`repro.ilp.Model`, the builder emits the equivalent
:class:`repro.ilp.GroupedProblem` the grouped greedy plans from.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple

from ..ilp.greedy import GroupedCandidate, GroupedProblem, GreedySolution
from ..ilp.model import LinExpr, Model, Variable
from .catalog import StatisticsCatalog
from .cost import StepDescription, probe_order_steps
from .mir import Mir, enumerate_mirs, merge_mirs
from .partitioning import (
    ClusterConfig,
    DecoratedProbeOrder,
    apply_partitioning,
    partition_candidates,
)
from .probe_order import (
    construct_probe_orders,
    maintenance_probe_orders,
    maintenance_query,
)
from .query import Query
from .schema import Attribute

__all__ = ["OptimizerConfig", "CandidateInfo", "MqoIlp", "build_mqo_ilp"]


@dataclass(frozen=True)
class OptimizerConfig:
    """Knobs of the MQO ILP construction.

    constraint_form:
        ``"indicator"`` emits ``y >= x`` per used step (tighter LP);
        ``"paper"`` emits the aggregate Equation-3 form
        ``-PCost(σ)·x + Σ StepCost(ρ)·y >= 0``.
    strict_partitioning:
        Add the ``z`` consistency layer; ``False`` reproduces the paper's
        printed (relaxed) formulation.
    enable_mirs:
        Allow materialized intermediate result stores; with ``False`` only
        input-relation stores are probed (no sharing via intermediates).
    """

    enable_mirs: bool = True
    mir_max_size: Optional[int] = None
    constraint_form: str = "indicator"
    strict_partitioning: bool = True
    cluster: ClusterConfig = field(default_factory=ClusterConfig)

    def __post_init__(self) -> None:
        if self.constraint_form not in ("indicator", "paper"):
            raise ValueError(f"unknown constraint form {self.constraint_form!r}")


@dataclass(frozen=True)
class CandidateInfo:
    """A decorated probe order as an ILP candidate."""

    name: str
    group: str
    decorated: DecoratedProbeOrder
    query: Query  # the (sub)query the order answers (maintenance: subquery)
    step_keys: Tuple[str, ...]
    commitments: Tuple[Tuple[str, str], ...]
    activates: Tuple[str, ...]
    pcost: float

    @property
    def is_maintenance(self) -> bool:
        return self.decorated.is_maintenance


def user_group(query_name: str, start_relation: str) -> str:
    return f"q:{query_name}:{start_relation}"


def maintenance_group(mir: Mir, start_relation: str) -> str:
    return f"m:{mir.canonical_id}:{start_relation}"


@dataclass
class MqoIlp:
    """The constructed ILP plus all bookkeeping needed for plan extraction."""

    model: Model
    grouped: GroupedProblem
    config: OptimizerConfig
    queries: Tuple[Query, ...]
    candidates: Dict[str, CandidateInfo]
    steps: Dict[str, StepDescription]
    groups: Dict[str, List[str]]
    mandatory_groups: Tuple[str, ...]
    x_vars: Dict[str, Variable]
    y_vars: Dict[str, Variable]
    z_vars: Dict[Tuple[str, str], Variable]
    store_options: Dict[str, Tuple[Optional[Attribute], ...]]
    stores: Dict[str, Mir]

    @property
    def num_probe_orders(self) -> int:
        return len(self.candidates)

    @property
    def num_variables(self) -> int:
        return self.model.num_vars

    @property
    def num_constraints(self) -> int:
        return self.model.num_constraints

    def warm_start_assignment(
        self, greedy: GreedySolution
    ) -> Dict[Variable, float]:
        """Translate a greedy selection into a feasible model assignment."""
        assignment: Dict[Variable, float] = {v: 0.0 for v in self.model.variables}
        for name in greedy.chosen:
            assignment[self.x_vars[name]] = 1.0
        selected_steps: Set[str] = set()
        for name in greedy.chosen:
            selected_steps.update(self.candidates[name].step_keys)
        for key in selected_steps:
            assignment[self.y_vars[key]] = 1.0
        committed = dict(greedy.partitioning)
        for store_id, options in self.store_options.items():
            if not _has_z(self, store_id):
                continue
            chosen_attr = committed.get(store_id)
            if chosen_attr is None:
                chosen_attr = str(options[0])
            assignment[self.z_vars[(store_id, chosen_attr)]] = 1.0
        return assignment


def _has_z(ilp: "MqoIlp", store_id: str) -> bool:
    return any(key[0] == store_id for key in ilp.z_vars)


# ----------------------------------------------------------------------
# construction
# ----------------------------------------------------------------------
def build_mqo_ilp(
    queries: Sequence[Query],
    catalog: StatisticsCatalog,
    config: Optional[OptimizerConfig] = None,
) -> MqoIlp:
    """Algorithm 2: build the multi-query optimization ILP."""
    config = config or OptimizerConfig()
    queries = tuple(sorted(queries, key=lambda q: q.name))
    if not queries:
        raise ValueError("workload must contain at least one query")

    # 1. MIR universe (deduplicated structurally across queries).
    per_query_mirs = [
        enumerate_mirs(
            q,
            max_size=(config.mir_max_size if config.enable_mirs else 1),
        )
        for q in queries
    ]
    mirs = merge_mirs(per_query_mirs)
    stores = {m.canonical_id: m for m in mirs}

    # 2. Partitioning candidates per store, workload-wide.  A store deployed
    #    with a single task needs no partitioning scheme at all — collapsing
    #    its options keeps equal-cost duplicate candidates out of the ILP.
    store_options: Dict[str, Tuple[Optional[Attribute], ...]] = {
        store_id: (
            partition_candidates(mir, queries)
            if config.cluster.parallelism(mir) > 1
            else (None,)
        )
        for store_id, mir in stores.items()
    }

    candidates: Dict[str, CandidateInfo] = {}
    steps: Dict[str, StepDescription] = {}
    groups: Dict[str, List[str]] = {}
    mandatory: List[str] = []

    pending_mirs: List[Mir] = []
    seen_mirs: Set[str] = set()

    def register(
        group: str,
        query: Query,
        decorated_orders: List[DecoratedProbeOrder],
    ) -> None:
        groups.setdefault(group, [])
        for decorated in decorated_orders:
            order_steps = probe_order_steps(catalog, query, decorated, config.cluster)
            activates: List[str] = []
            for mir in decorated.order.sequence:
                if mir.is_input:
                    continue
                if mir.canonical_id not in seen_mirs:
                    seen_mirs.add(mir.canonical_id)
                    pending_mirs.append(mir)
                activates.extend(
                    maintenance_group(mir, rel) for rel in sorted(mir.relations)
                )
            for step in order_steps:
                existing = steps.get(step.key)
                if existing is None:
                    steps[step.key] = step
                elif abs(existing.cost - step.cost) > 1e-6 * max(
                    1.0, abs(existing.cost)
                ):
                    raise AssertionError(
                        f"step key collision with different costs: {step.key} "
                        f"({existing.cost} vs {step.cost})"
                    )
            name = f"x[{group}#{len(groups[group])}]"
            info = CandidateInfo(
                name=name,
                group=group,
                decorated=decorated,
                query=query,
                step_keys=tuple(s.key for s in order_steps),
                commitments=decorated.commitments(),
                activates=tuple(sorted(set(activates))),
                pcost=sum(s.cost for s in order_steps),
            )
            candidates[name] = info
            groups[group].append(name)

    # 3. User probe orders per (query, starting relation).
    for query in queries:
        by_start = construct_probe_orders(query, mirs)
        for start_relation in query.relations:
            group = user_group(query.name, start_relation)
            mandatory.append(group)
            decorated = apply_partitioning(by_start[start_relation], store_options)
            register(group, query, decorated)

    # 4. Maintenance probe orders for every MIR reachable from a candidate
    #    (recursively: maintenance orders may themselves probe smaller MIRs).
    while pending_mirs:
        mir = pending_mirs.pop()
        sub_query = maintenance_query(mir)
        by_start = maintenance_probe_orders(mir, mirs)
        for start_relation in sorted(mir.relations):
            group = maintenance_group(mir, start_relation)
            decorated = apply_partitioning(by_start[start_relation], store_options)
            register(group, sub_query, decorated)

    return _emit_model(
        queries, config, candidates, steps, groups, tuple(mandatory), store_options, stores
    )


def _emit_model(
    queries: Tuple[Query, ...],
    config: OptimizerConfig,
    candidates: Dict[str, CandidateInfo],
    steps: Dict[str, StepDescription],
    groups: Dict[str, List[str]],
    mandatory: Tuple[str, ...],
    store_options: Dict[str, Tuple[Optional[Attribute], ...]],
    stores: Dict[str, Mir],
) -> MqoIlp:
    model = Model("mqo")

    x_vars = {name: model.add_var(name) for name in candidates}
    y_vars = {
        key: model.add_var(f"y[{i}]") for i, key in enumerate(sorted(steps))
    }

    # Partitioning consistency layer (DESIGN.md choice #1).
    z_vars: Dict[Tuple[str, str], Variable] = {}
    if config.strict_partitioning:
        for store_id, options in sorted(store_options.items()):
            attrs = [str(a) for a in options if a is not None]
            if len(attrs) < 2:
                continue  # a single option can never conflict
            zs = [
                model.add_var(f"z[{store_id}][{attr}]") for attr in attrs
            ]
            for attr, z in zip(attrs, zs):
                z_vars[(store_id, attr)] = z
            model.add_eq(LinExpr.sum(zs), 1.0, name=f"partition[{store_id}]")

    # Group selection constraints (Equation 2 / maintenance activation).
    mandatory_set = set(mandatory)
    for group, names in sorted(groups.items()):
        xs = [x_vars[n] for n in names]
        if group in mandatory_set:
            model.add_eq(LinExpr.sum(xs), 1.0, name=f"choose[{group}]")
        else:
            model.add_le(LinExpr.sum(xs), 1.0, name=f"atmostone[{group}]")

    # Activation: a probe order using an MIR requires its maintenance orders.
    for name, info in sorted(candidates.items()):
        for group in info.activates:
            xs = [x_vars[n] for n in groups[group]]
            model.add_ge(
                LinExpr.sum(xs) - x_vars[name],
                0.0,
                name=f"activate[{name}->{group}]",
            )

    # Cost linking (Equation 3 or indicator form).
    for name, info in sorted(candidates.items()):
        if config.constraint_form == "indicator":
            # sorted: constraint order must not depend on PYTHONHASHSEED —
            # solver pivoting (and thus tie-breaks among equal-cost optima)
            # follows row order
            for key in sorted(set(info.step_keys)):
                model.add_ge(
                    y_vars[key] - x_vars[name], 0.0, name=f"link[{name}:{key[:40]}]"
                )
        else:
            expr = LinExpr.sum(
                steps[key].cost * y_vars[key] for key in sorted(set(info.step_keys))
            )
            model.add_ge(
                expr - info.pcost * x_vars[name], 0.0, name=f"cost[{name}]"
            )

    # Partitioning commitments: x <= z.
    if config.strict_partitioning:
        for name, info in sorted(candidates.items()):
            for store_id, attr in info.commitments:
                z = z_vars.get((store_id, attr))
                if z is not None:
                    model.add_ge(
                        z - x_vars[name], 0.0, name=f"commit[{name}:{store_id}]"
                    )

    model.set_objective(
        LinExpr.sum(steps[key].cost * y_vars[key] for key in sorted(steps))
    )

    grouped = GroupedProblem(
        step_costs={key: step.cost for key, step in steps.items()},
        candidates={
            name: GroupedCandidate(
                name=name,
                group=info.group,
                steps=info.step_keys,
                commitments=_conflicting_commitments(info, store_options),
                activates=info.activates,
            )
            for name, info in candidates.items()
        },
        groups=groups,
        mandatory=mandatory,
    )

    return MqoIlp(
        model=model,
        grouped=grouped,
        config=config,
        queries=queries,
        candidates=candidates,
        steps=steps,
        groups=groups,
        mandatory_groups=mandatory,
        x_vars=x_vars,
        y_vars=y_vars,
        z_vars=z_vars,
        store_options=store_options,
        stores=stores,
    )


def _conflicting_commitments(
    info: CandidateInfo,
    store_options: Dict[str, Tuple[Optional[Attribute], ...]],
) -> Tuple[Tuple[str, str], ...]:
    """Only multi-option stores can conflict; smaller commitment tuples keep
    the greedy's compatibility checks lean."""
    out = []
    for store_id, attr in info.commitments:
        options = store_options.get(store_id, ())
        if len([a for a in options if a is not None]) >= 2:
            out.append((store_id, attr))
    return tuple(out)

"""Tests for ILP construction (Algorithm 2), solving, and plan extraction.

Includes the paper's two worked examples:
* Sec V.1 / Fig. 3 — structure of candidates and constraints,
* Sec V.2 — the 475-vs-shared multi-query optimization outcome.
"""

import pytest

from repro.core import optimizer as optimizer_module
from repro.core.catalog import StatisticsCatalog
from repro.core.ilp_builder import (
    OptimizerConfig,
    build_mqo_ilp,
    maintenance_group,
    user_group,
)
from repro.core.optimizer import MultiQueryOptimizer
from repro.core.partitioning import ClusterConfig
from repro.core.plan import PlanExtractionError, estimate_memory, extract_plan
from repro.core.predicates import JoinPredicate
from repro.core.query import Query
from repro.ilp.greedy import solve_greedy
from repro.ilp.model import SolveStatus
from repro.ilp.scipy_backend import ScipyMilpSolver
from repro.streams.tpch import five_query_workload, tpch_catalog
from repro.streams.workloads import make_environment, random_queries


@pytest.fixture()
def paper_queries():
    """Sec V.2: q1 = R(a),S(a,b),T(b); q2 = S(b),T(b,c),U(c)."""
    q1 = Query.of("q1", "R.a=S.a", "S.b=T.b")
    q2 = Query.of("q2", "S.b=T.b", "T.c=U.c")
    return q1, q2


@pytest.fixture()
def paper_catalog():
    cat = StatisticsCatalog(default_selectivity=0.01)
    for rel in "RSTU":
        cat.with_rate(rel, 100.0)
    cat.with_selectivity(JoinPredicate.of("S.b", "T.b"), 0.015)
    return cat


def _flat_config(**kwargs):
    defaults = dict(
        enable_mirs=False, cluster=ClusterConfig(default_parallelism=1)
    )
    defaults.update(kwargs)
    return OptimizerConfig(**defaults)


class TestIlpStructure:
    def test_one_group_per_query_start(self, paper_queries, paper_catalog):
        ilp = build_mqo_ilp(paper_queries, paper_catalog, _flat_config())
        assert set(ilp.mandatory_groups) == {
            user_group("q1", r) for r in "RST"
        } | {user_group("q2", r) for r in "STU"}

    def test_candidate_counts_without_mirs(self, paper_queries, paper_catalog):
        ilp = build_mqo_ilp(paper_queries, paper_catalog, _flat_config())
        # linear 3-way: end starts have 1 order, middle has 2 -> 4 per query
        assert ilp.num_probe_orders == 8

    def test_mirs_add_maintenance_groups(self, paper_queries, paper_catalog):
        config = OptimizerConfig(cluster=ClusterConfig(default_parallelism=1))
        ilp = build_mqo_ilp(paper_queries, paper_catalog, config)
        st_mir = next(
            m
            for m in ilp.stores.values()
            if m.relations == frozenset({"S", "T"})
        )
        assert maintenance_group(st_mir, "S") in ilp.groups
        assert maintenance_group(st_mir, "T") in ilp.groups

    def test_shared_step_variables(self, paper_queries, paper_catalog):
        """q1's <S,T,R> and q2's <S,T,U> share the S->T step variable."""
        ilp = build_mqo_ilp(paper_queries, paper_catalog, _flat_config())
        q1_s = [ilp.candidates[n] for n in ilp.groups[user_group("q1", "S")]]
        q2_s = [ilp.candidates[n] for n in ilp.groups[user_group("q2", "S")]]
        q1_via_t = next(c for c in q1_s if "T" in str(c.decorated).split(",")[1])
        q2_only = q2_s[0]
        assert q1_via_t.step_keys[0] == q2_only.step_keys[0]

    def test_paper_constraint_form_counts(self, paper_queries, paper_catalog):
        ind = build_mqo_ilp(paper_queries, paper_catalog, _flat_config())
        pap = build_mqo_ilp(
            paper_queries, paper_catalog, _flat_config(constraint_form="paper")
        )
        # paper form: one cost row per candidate; indicator: one per used step
        assert pap.num_constraints < ind.num_constraints
        assert pap.num_variables == ind.num_variables

    def test_strict_partitioning_adds_z_vars(self, paper_queries, paper_catalog):
        strict = build_mqo_ilp(
            paper_queries,
            paper_catalog,
            OptimizerConfig(cluster=ClusterConfig(default_parallelism=4)),
        )
        relaxed = build_mqo_ilp(
            paper_queries,
            paper_catalog,
            OptimizerConfig(
                cluster=ClusterConfig(default_parallelism=4),
                strict_partitioning=False,
            ),
        )
        assert strict.z_vars and not relaxed.z_vars
        assert strict.num_variables > relaxed.num_variables

    def test_unknown_constraint_form_rejected(self):
        with pytest.raises(ValueError):
            OptimizerConfig(constraint_form="bogus")

    def test_grouped_problem_validates(self, paper_queries, paper_catalog):
        ilp = build_mqo_ilp(paper_queries, paper_catalog, _flat_config())
        ilp.grouped.validate()

    def test_empty_workload_rejected(self, paper_catalog):
        with pytest.raises(ValueError):
            build_mqo_ilp([], paper_catalog, _flat_config())


class TestPaperSecV2Outcome:
    def test_individual_costs_475(self, paper_queries, paper_catalog):
        opt = MultiQueryOptimizer(paper_catalog, _flat_config())
        ind = opt.optimize_individual(list(paper_queries))
        assert ind.results["q1"].plan.objective == pytest.approx(475.0)
        assert ind.results["q2"].plan.objective == pytest.approx(475.0)
        assert ind.total_cost == pytest.approx(950.0)

    def test_mqo_beats_individual(self, paper_queries, paper_catalog):
        opt = MultiQueryOptimizer(paper_catalog, _flat_config())
        res = opt.optimize(list(paper_queries))
        assert res.plan.objective == pytest.approx(800.0)

    def test_mqo_selects_locally_suboptimal_order(
        self, paper_queries, paper_catalog
    ):
        """q1's S-start must pick <S, T, R> (cost 175 alone, 75 marginal)."""
        opt = MultiQueryOptimizer(paper_catalog, _flat_config())
        res = opt.optimize(list(paper_queries))
        s_choice = res.plan.chosen[user_group("q1", "S")]
        stores = [m.display_name for m in s_choice.decorated.order.sequence]
        assert stores == ["T", "R"]

    def test_solvers_agree(self, paper_queries, paper_catalog):
        cfg = _flat_config()
        auto = MultiQueryOptimizer(paper_catalog, cfg)
        ref = MultiQueryOptimizer(paper_catalog, cfg, solver="scipy")
        assert auto.optimize(list(paper_queries)).plan.objective == pytest.approx(
            ref.optimize(list(paper_queries)).plan.objective
        )

    def test_greedy_warm_start_is_feasible(self, paper_queries, paper_catalog):
        ilp = build_mqo_ilp(paper_queries, paper_catalog, _flat_config())
        greedy = solve_greedy(ilp.grouped)
        assert greedy is not None
        assignment = ilp.warm_start_assignment(greedy)
        assert ilp.model.is_feasible(assignment)
        assert ilp.model.objective_value(assignment) == pytest.approx(
            greedy.objective
        )


class TestMirPlans:
    def test_mir_plan_includes_maintenance(self, paper_queries, paper_catalog):
        cfg = OptimizerConfig(cluster=ClusterConfig(default_parallelism=4))
        opt = MultiQueryOptimizer(paper_catalog, cfg)
        res = opt.optimize(list(paper_queries))
        if res.plan.mir_stores:
            maint = res.plan.maintenance_orders()
            for mir in res.plan.mir_stores:
                starts = {
                    o.decorated.order.start_relation
                    for o in maint
                    if o.decorated.target == mir
                }
                assert starts == set(mir.relations)

    def test_constraint_forms_same_optimum(self, paper_queries, paper_catalog):
        base = dict(cluster=ClusterConfig(default_parallelism=4))
        obj = {}
        for form in ("indicator", "paper"):
            cfg = OptimizerConfig(constraint_form=form, **base)
            opt = MultiQueryOptimizer(paper_catalog, cfg, solver="scipy")
            obj[form] = opt.optimize(list(paper_queries)).plan.objective
        assert obj["indicator"] == pytest.approx(obj["paper"])

    def test_relaxed_partitioning_never_costlier(self, paper_queries, paper_catalog):
        base = dict(cluster=ClusterConfig(default_parallelism=4))
        strict = MultiQueryOptimizer(
            paper_catalog, OptimizerConfig(**base), solver="scipy"
        ).optimize(list(paper_queries))
        relaxed = MultiQueryOptimizer(
            paper_catalog,
            OptimizerConfig(strict_partitioning=False, **base),
            solver="scipy",
        ).optimize(list(paper_queries))
        assert relaxed.plan.objective <= strict.plan.objective + 1e-9


class TestPlanExtraction:
    def test_extraction_requires_solved(self, paper_queries, paper_catalog):
        from repro.ilp.model import Solution

        ilp = build_mqo_ilp(paper_queries, paper_catalog, _flat_config())
        with pytest.raises(PlanExtractionError):
            extract_plan(ilp, Solution(status=SolveStatus.INFEASIBLE))

    def test_all_user_groups_covered(self, paper_queries, paper_catalog):
        opt = MultiQueryOptimizer(paper_catalog, _flat_config())
        plan = opt.optimize(list(paper_queries)).plan
        for group in (
            [user_group("q1", r) for r in "RST"]
            + [user_group("q2", r) for r in "STU"]
        ):
            assert group in plan.chosen

    def test_objective_matches_union_of_steps(self, paper_queries, paper_catalog):
        opt = MultiQueryOptimizer(paper_catalog, _flat_config())
        res = opt.optimize(list(paper_queries))
        keys = {k for info in res.plan.chosen.values() for k in info.step_keys}
        total = sum(res.ilp.steps[k].cost for k in keys)
        assert res.plan.objective == pytest.approx(total)

    def test_memory_estimate_positive_and_monotone(
        self, paper_queries, paper_catalog
    ):
        for rel in "RSTU":
            paper_catalog.with_window(rel, 5.0)
        cfg = OptimizerConfig(cluster=ClusterConfig(default_parallelism=1))
        opt = MultiQueryOptimizer(paper_catalog, cfg)
        plan = opt.optimize(list(paper_queries)).plan
        mem = estimate_memory(plan, paper_catalog)
        assert mem > 0
        assert estimate_memory(plan, paper_catalog, tuple_bytes=128) == pytest.approx(
            2 * mem
        )

    def test_describe_mentions_all_queries(self, paper_queries, paper_catalog):
        opt = MultiQueryOptimizer(paper_catalog, _flat_config())
        text = opt.optimize(list(paper_queries)).plan.describe()
        assert "q:q1:R" in text and "q:q2:U" in text


class TestFormulationRelationships:
    """Relationships between ILP variants on a 10-relation, 8-query random
    workload (parallelism 4, MIRs up to size 2)."""

    @pytest.fixture(scope="class")
    def workload(self):
        env = make_environment(10)
        return env.catalog, random_queries(env, 8, query_size=3, seed=11)

    @staticmethod
    def _objective(workload, **config):
        catalog, queries = workload
        cfg = OptimizerConfig(
            mir_max_size=2, cluster=ClusterConfig(default_parallelism=4), **config
        )
        return MultiQueryOptimizer(catalog, cfg).optimize(queries).plan.objective

    def test_paper_and_indicator_forms_reach_one_optimum(self, workload):
        paper, indicator = (
            self._objective(workload, constraint_form=form, strict_partitioning=False)
            for form in ("paper", "indicator")
        )
        assert paper == pytest.approx(indicator)

    def test_mirs_never_raise_the_optimum(self, workload):
        with_mirs, without = (
            self._objective(workload, enable_mirs=on, strict_partitioning=False)
            for on in (True, False)
        )
        assert with_mirs <= without + 1e-9

    @pytest.mark.slow
    def test_relaxed_partitioning_never_raises_the_optimum(self, workload):
        relaxed, strict = (
            self._objective(workload, strict_partitioning=strict)
            for strict in (False, True)
        )
        assert relaxed <= strict + 1e-9


class TestForcedPlansSkipTheSolver:
    """HiGHS solves every model that leaves a choice.  A model whose every
    group has a single candidate leaves none: the grouped greedy's
    selection is its plan, optimal, with no solver call."""

    @pytest.fixture()
    def solves(self, monkeypatch):
        """The variable count of every model handed to HiGHS."""
        calls = []
        solve = ScipyMilpSolver.solve

        def counting_solve(self, model):
            calls.append(model.num_vars)
            return solve(self, model)

        monkeypatch.setattr(ScipyMilpSolver, "solve", counting_solve)
        return calls

    @staticmethod
    def _tpch(solver):
        """The first plan of the ``tpch5_probe`` workload: 348 variables."""
        cfg = OptimizerConfig(cluster=ClusterConfig(default_parallelism=1))
        opt = MultiQueryOptimizer(tpch_catalog(), cfg, solver=solver)
        return opt.optimize(five_query_workload())

    @staticmethod
    def _tiny(solver):
        """A 2-way query: one candidate per group, nothing to choose."""
        catalog = StatisticsCatalog().with_rate("R", 10.0).with_rate("S", 10.0)
        opt = MultiQueryOptimizer(catalog, solver=solver)
        return opt.optimize([Query.of("q", "R.a=S.a")])

    @pytest.mark.parametrize("solver", ["auto", "scipy"])
    def test_forced_model_calls_no_solver(self, solves, solver):
        res = self._tiny(solver)
        assert res.ilp.model.num_vars == 4
        assert solves == []
        assert res.solution.status is SolveStatus.OPTIMAL
        assert res.greedy is not None
        assert res.plan.objective == pytest.approx(res.greedy.objective)

    @pytest.mark.parametrize("parallelism", [1, 3])
    @pytest.mark.parametrize("form", ["paper", "indicator"])
    def test_forced_plan_is_the_highs_optimum_of_its_model(self, form, parallelism):
        """The forced selection, priced by the model, is what HiGHS finds
        when it is handed the same model."""
        catalog = StatisticsCatalog().with_rate("R", 40.0).with_rate("S", 3.0)
        cfg = OptimizerConfig(
            constraint_form=form,
            cluster=ClusterConfig(default_parallelism=parallelism),
        )
        res = MultiQueryOptimizer(catalog, cfg).optimize([Query.of("q", "R.a=S.a")])
        assert all(len(names) == 1 for names in res.ilp.groups.values())
        exact = ScipyMilpSolver().solve(res.ilp.model)
        assert exact.status is SolveStatus.OPTIMAL
        assert res.ilp.model.is_feasible(res.solution.values)
        assert res.solution.objective == pytest.approx(exact.objective)
        assert res.plan.objective == pytest.approx(exact.objective)

    def test_model_with_choices_goes_to_highs(self, solves):
        res = self._tpch("auto")
        assert solves == [348]
        assert res.solution.status is SolveStatus.OPTIMAL
        assert res.greedy is None

    @pytest.mark.parametrize("workload", ["_tiny", "_tpch"])
    def test_greedy_method_calls_no_solver(self, solves, workload):
        res = getattr(self, workload)("greedy")
        assert solves == []
        assert res.solution.status is SolveStatus.FEASIBLE
        assert res.greedy is not None

    def test_forced_model_without_a_selection_is_infeasible(
        self, solves, monkeypatch
    ):
        monkeypatch.setattr(optimizer_module, "solve_greedy", lambda grouped: None)
        with pytest.raises(RuntimeError, match="INFEASIBLE"):
            self._tiny("auto")
        assert solves == []

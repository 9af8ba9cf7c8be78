"""JoinSession facade: error paths, push semantics, and the online
add/remove differential harness.

The online tests are the session-level extension of
``test_differential.py``: seeded workloads where a query is *added* and
another *removed* mid-stream must match the brute-force reference
restricted to each query's active arrival interval — across ordered
(logical) and bounded out-of-order (watermark) modes.  The acceptance
scenario additionally proves that shared store state *survives* the rewire
(containers are the same objects, ``preserved_tuples`` > 0) instead of
being rebuilt.
"""

import random

import pytest

from repro import (
    CrossProductError,
    DuplicateQueryError,
    EngineFailedError,
    JoinSession,
    LateTupleError,
    Query,
    RuntimeConfig,
    SessionError,
    StatisticsCatalog,
    TopologyRuntime,
    UnknownQueryError,
    UnknownRelationError,
    build_topology,
)
from repro.core import ClusterConfig, MultiQueryOptimizer, OptimizerConfig
from repro.core.adaptive import diff_topologies
from repro.engine import input_tuple, reference_join, result_keys
from repro.engine.sharding import ShardFailedError
from repro.streams import (
    StreamSpec,
    bounded_delay_feed,
    generate_into,
    generate_streams,
    replay,
    uniform_domain,
)

ATTRS = {
    "R": ["a"],
    "S": ["a", "b"],
    "T": ["b", "c"],
    "U": ["c", "d"],
    "V": ["d"],
}
CHAIN_PREDICATES = ["R.a=S.a", "S.b=T.b", "T.c=U.c", "U.d=V.d"]


def chain_specs(relations, rate, domain):
    return [
        StreamSpec(
            relation=rel,
            rate=rate,
            attributes={a: uniform_domain(domain) for a in ATTRS[rel]},
        )
        for rel in relations
    ]


def basic_session(**kwargs):
    kwargs.setdefault("window", 2.5)
    kwargs.setdefault("solver", "scipy")
    return (
        JoinSession(**kwargs)
        .add_query("q1", "R.a=S.a", "S.b=T.b")
        .add_query("q2", "S.b=T.b", "T.c=U.c")
    )


class TestSessionMetrics:
    def test_makespan_of_a_feed_at_negative_event_times(self):
        """The completion clock started at 0.0 instead of at the first
        input, so R@-10, S@-5 reported a makespan of 10 and a throughput
        of 0.2 — in ``summary()`` and so in the wire ``stats`` op too."""
        session = basic_session()
        session.push("R", {"a": 1}, ts=-10.0)
        session.push("S", {"a": 1, "b": 1}, ts=-5.0)
        session.flush()
        metrics = session.metrics
        assert metrics.makespan == 5.0
        assert metrics.throughput == 0.4
        assert metrics.summary()["throughput"] == 0.4

    def test_a_single_input_has_no_makespan(self):
        session = basic_session()
        session.push("R", {"a": 1}, ts=-3.0)
        session.flush()
        assert session.metrics.makespan == 0.0
        assert session.metrics.throughput == 0.0


class TestSessionErrors:
    """Every misuse raises a precise, typed, documented exception."""

    def test_push_unregistered_relation(self):
        session = basic_session()
        with pytest.raises(UnknownRelationError, match="'Z' is not read"):
            session.push("Z", {"x": 1}, ts=0.5)

    def test_push_with_no_queries(self):
        session = JoinSession()
        with pytest.raises(UnknownRelationError):
            session.push("R", {"a": 1}, ts=0.0)

    def test_ordered_mode_rejects_backwards_timestamps(self):
        session = basic_session()
        session.push("R", {"a": 1}, ts=5.0)
        with pytest.raises(LateTupleError, match="sorted by timestamp"):
            session.push("S", {"a": 1, "b": 1}, ts=4.0)

    def test_watermark_mode_rejects_straggler_beyond_bound(self):
        session = basic_session(disorder_bound=1.0)
        session.push("R", {"a": 1}, ts=5.0)
        session.push("R", {"a": 2}, ts=4.5)  # within the bound: fine
        with pytest.raises(LateTupleError, match="exceeding disorder_bound"):
            session.push("R", {"a": 3}, ts=3.5)

    def test_remove_unknown_query(self):
        session = basic_session()
        with pytest.raises(UnknownQueryError, match="'nope' is not installed"):
            session.remove_query("nope")

    def test_add_query_cross_product(self):
        session = basic_session()
        with pytest.raises(CrossProductError, match="cross product"):
            session.add_query("qx", "R.a=S.a", "T.b=U.b")

    def test_add_duplicate_query_name(self):
        session = basic_session()
        with pytest.raises(DuplicateQueryError, match="already installed"):
            session.add_query("q1", "R.a=S.a")

    def test_results_of_never_installed_query(self):
        session = basic_session()
        with pytest.raises(UnknownQueryError, match="never installed"):
            session.results("ghost")

    def test_verify_rejects_duplicate_timestamps_under_churn(self):
        """Duplicate per-relation event timestamps make the arrival-seq
        oracle ambiguous once the query set changed mid-stream — verify()
        refuses loudly instead of returning a silently wrong verdict."""
        session = basic_session()
        session.push("R", {"a": 1}, ts=1.0)
        session.push("R", {"a": 2}, ts=1.0)  # same (relation, ts)
        assert session.verify().ok  # no churn: still well-defined
        session.add_query("q3", "S.b=T.b")
        with pytest.raises(SessionError, match="shared an event timestamp"):
            session.verify()

    def test_verify_requires_history(self):
        session = basic_session(record_streams=False)
        session.push("R", {"a": 1}, ts=0.0)
        with pytest.raises(SessionError, match="record_streams"):
            session.verify()

    def test_verify_requires_collected_outputs(self):
        """With ``collect_outputs=False`` there is no result list to hold
        against the oracle; verify() used to report a correct run as
        ``MISMATCH (missing ...)``."""
        session = JoinSession(
            window=5.0,
            solver="scipy",
            runtime_config=RuntimeConfig(collect_outputs=False),
        ).add_query("q", "R.a=S.a")
        delivered = []
        session.subscribe("q", delivered.append)
        session.push("R", {"a": 1}, ts=1.0).push("S", {"a": 1}, ts=1.5).flush()
        assert len(delivered) == 1 and session.results("q") == []
        with pytest.raises(SessionError, match="collect_outputs"):
            session.verify()

    @pytest.mark.parametrize("backend", ["python", "columnar"])
    @pytest.mark.parametrize("disorder_bound", [None, 1.0])
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_timestamp_rejected_before_any_state(
        self, bad, disorder_bound, backend
    ):
        """NaN as a stream's first tuple used to pin its high water at NaN
        (and crash the columnar backend after the ingress advanced); +inf
        made every later push late forever."""
        session = JoinSession(
            window=5.0,
            solver="scipy",
            store_backend=backend,
            disorder_bound=disorder_bound,
        ).add_query("q", "R.a=S.a")
        with pytest.raises(SessionError, match="finite"):
            session.push("R", {"a": 1}, ts=bad)
        session.push("R", {"a": 1}, ts=1.0)
        with pytest.raises(SessionError, match="finite"):
            session.push_batch([("S", {"a": 1}, bad)])
        with pytest.raises(SessionError, match="finite"):
            session.push_batch([input_tuple("S", bad, {"a": 1})])
        session.push("S", {"a": 1}, ts=1.5).flush()
        assert session.pushed == 2
        assert session.metrics.inputs_ingested == 2
        assert len(session.results("q")) == 1
        assert session.verify(raise_on_mismatch=True).ok

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("backend", ["python", "columnar"])
    def test_unhashable_value_rejected_before_any_state(self, backend, workers):
        """Once a plan was live, a JSON list as attribute value used to be
        delivered first and refused (``TypeError`` from the statistics)
        second: it stayed in the pending micro-batch, a *later* sender's
        flush raised from the store insert, and every valid batch-mate
        acknowledged in between was lost."""
        session = JoinSession(
            window=10.0,
            solver="scipy",
            store_backend=backend,
            workers=workers,
            worker_transport="inline",
        ).add_query("q", "R.a=S.a")
        session.push("S", {"a": 1}, ts=1.0).push("R", {"a": 1}, ts=2.0).flush()
        runtime = session._runtime

        def state():
            return (
                runtime.metrics.inputs_ingested,
                session.pushed,
                session.stored_tuples(),
                runtime.ingress.dump(),
            )

        before = state()
        with pytest.raises(SessionError, match=r"unhashable list.*'S\.a'.*'S'"):
            session.push("S", {"a": [1]}, ts=3.0)
        with pytest.raises(SessionError, match="unhashable"):
            session.push_batch([input_tuple("R", 3.0, {"a": {}})])
        assert state() == before
        # valid pushes acknowledged after the refusal all join
        session.push("S", {"a": 2}, ts=4.0)
        session.push("R", {"a": 2}, ts=5.0).push("R", {"a": 2}, ts=6.0).flush()
        assert session.pushed == 5
        assert len(session.results("q")) == 3
        assert session.verify(raise_on_mismatch=True).ok
        session.close()

    def test_push_intermediate_tuple_rejected(self):
        session = basic_session()
        session.push("R", {"a": 1}, ts=0.1)
        session.push("S", {"a": 1, "b": 2}, ts=0.2)
        session.push("T", {"b": 2, "c": 3}, ts=0.3)
        (result,) = session.results("q1")
        with pytest.raises(SessionError, match="raw input tuples"):
            session.push_batch([result])


class TestLateTuplePolicy:
    """``on_late="drop"``: stragglers are counted, not fatal."""

    def test_session_default_drop_counts_and_continues(self):
        session = basic_session(on_late="drop")
        session.push("R", {"a": 1}, ts=5.0)
        session.push("S", {"a": 1, "b": 1}, ts=4.0)  # late: dropped
        session.push("S", {"a": 1, "b": 1}, ts=6.0)  # fine
        assert session.metrics.late_dropped == 1
        assert session.pushed == 2  # the straggler was never ingested

    def test_per_push_override_beats_session_default(self):
        session = basic_session()  # default on_late="raise"
        session.push("R", {"a": 1}, ts=5.0)
        session.push("S", {"a": 1, "b": 1}, ts=4.0, on_late="drop")
        assert session.metrics.late_dropped == 1
        with pytest.raises(LateTupleError):
            session.push("S", {"a": 1, "b": 1}, ts=4.0)
        # and the other direction: a drop-default session can raise per push
        strict = basic_session(on_late="drop")
        strict.push("R", {"a": 1}, ts=5.0)
        with pytest.raises(LateTupleError):
            strict.push("S", {"a": 1, "b": 1}, ts=4.0, on_late="raise")

    def test_watermark_mode_drops_beyond_bound_only(self):
        session = basic_session(disorder_bound=1.0, on_late="drop")
        session.push("R", {"a": 1}, ts=5.0)
        session.push("R", {"a": 2}, ts=4.5)  # within bound: ingested
        session.push("R", {"a": 3}, ts=3.5)  # beyond bound: dropped
        assert session.metrics.late_dropped == 1
        assert session.pushed == 2

    def test_dropped_tuples_invisible_to_results_and_oracle(self):
        session = basic_session(on_late="drop")
        session.push("R", {"a": 1}, ts=1.0)
        session.push("S", {"a": 1, "b": 2}, ts=1.5)
        session.push("T", {"b": 2, "c": 3}, ts=2.0)
        # a straggling S partner that *would* complete a second q1 result
        session.push("S", {"a": 1, "b": 2}, ts=1.2)
        assert session.metrics.late_dropped == 1
        assert len(session.results("q1")) == 1
        report = session.verify()
        assert report.ok, report.describe()

    def test_warmup_drops_fold_into_metrics(self):
        session = (
            JoinSession(window=2.5, solver="scipy", warmup=3, on_late="drop")
            .add_query("q1", "R.a=S.a", "S.b=T.b")
        )
        session.push("R", {"a": 1}, ts=2.0)
        session.push("R", {"a": 2}, ts=1.0)  # late while buffering: dropped
        assert session.metrics is None  # still warming up
        session.push("S", {"a": 1, "b": 1}, ts=2.5)
        session.push("T", {"b": 1, "c": 1}, ts=3.0)  # warmup complete
        assert session.metrics is not None
        assert session.metrics.late_dropped == 1
        assert session.verify().ok

    def test_push_batch_applies_policy_to_whole_batch(self):
        session = basic_session()
        session.push_batch(
            [
                ("R", {"a": 1}, 5.0),
                ("S", {"a": 1, "b": 1}, 4.0),  # late
                ("T", {"b": 1, "c": 1}, 6.0),
            ],
            on_late="drop",
        )
        assert session.metrics.late_dropped == 1
        assert session.pushed == 2

    def test_drop_policy_does_not_swallow_cascade_errors(self):
        """Only the arrival-order rejection is suppressed: a ValueError
        raised *inside* the processing cascade (here: a subscriber) must
        propagate even under on_late="drop", never count as late_dropped."""
        session = basic_session(on_late="drop")

        def exploding(_result):
            raise ValueError("subscriber blew up")

        session.subscribe("q1", exploding)
        session.push("R", {"a": 1}, ts=1.0)
        session.push("S", {"a": 1, "b": 2}, ts=1.5)
        with pytest.raises(ValueError, match="subscriber blew up"):
            # completes the q1 triple -> the cascade emits -> callback raises
            session.push("T", {"b": 2, "c": 3}, ts=2.0)
            session.flush()
        assert session.metrics.late_dropped == 0

    def test_invalid_policy_rejected(self):
        with pytest.raises(ValueError, match="unknown late-tuple policy"):
            JoinSession(on_late="side-output")
        session = basic_session()
        session.push("R", {"a": 1}, ts=1.0)
        with pytest.raises(ValueError, match="unknown late-tuple policy"):
            session.push("R", {"a": 1}, ts=2.0, on_late="ignore")


class TestStoreBackendKnob:
    """`store_backend` threads through to every store task."""

    def test_columnar_session_matches_python_session(self):
        streams, feed = generate_streams(
            chain_specs("RST", 15.0, 5), duration=5.0, seed=3
        )
        results = {}
        for backend in ("python", "columnar"):
            session = JoinSession(
                window=2.0, solver="scipy", store_backend=backend
            ).add_query("q1", "R.a=S.a", "S.b=T.b")
            replay(session, (t for t in feed if t.trigger in session.relations))
            assert session.verify().ok
            results[backend] = result_keys(session.results("q1"))
        assert results["python"] == results["columnar"]

    def test_conflicting_backend_config_rejected(self):
        with pytest.raises(ValueError, match="store_backend given both"):
            JoinSession(
                store_backend="columnar",
                runtime_config=RuntimeConfig(),
            )

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown store backend"):
            JoinSession(store_backend="gpu")

    def test_auto_is_refused_like_any_unknown_backend(self):
        """The per-task ``"auto"`` policy and its thresholds are gone: the
        name is no backend, the knobs no parameters."""
        for build in (
            lambda: RuntimeConfig(store_backend="auto"),
            lambda: JoinSession(store_backend="auto"),
        ):
            with pytest.raises(ValueError, match="unknown store backend") as exc:
                build()
            assert "columnar" in str(exc.value) and "python" in str(exc.value)
        # (spelled in two halves: the removed names must not grep anywhere)
        with pytest.raises(TypeError, match="unexpected keyword"):
            JoinSession(**{"auto_width" + "_threshold": 1})


class TestSolverKnob:
    """A solver name is checked where it is given, not at the first plan."""

    #: the removed in-house solver's name, spelled in two halves so the
    #: name greps nowhere
    REMOVED = "o" + "wn"

    @pytest.mark.parametrize("name", ["bogus", REMOVED])
    def test_unknown_solver_rejected_by_the_constructor(self, name):
        with pytest.raises(ValueError, match="unknown solver") as exc:
            JoinSession(window=5.0, solver=name)
        for valid in ("auto", "greedy", "scipy"):
            assert valid in str(exc.value)

    @pytest.mark.parametrize("name", ["auto", "greedy", "scipy"])
    def test_known_solver_plans_and_joins(self, name):
        session = JoinSession(window=4.0, solver=name).add_query("q", "R.a=S.a")
        session.push("R", {"a": 1}, 1.0).push("S", {"a": 1}, 2.0)
        assert len(session.results("q")) == 1

    def test_snapshot_naming_the_removed_solver_is_refused(self, tmp_path):
        from repro.service.snapshot import write_snapshot

        session = JoinSession(window=4.0).add_query("q", "R.a=S.a")
        session.push("R", {"a": 1}, 1.0).push("S", {"a": 1}, 2.0)
        payload = session._snapshot_state()
        payload["ctor"]["solver"] = self.REMOVED
        path = tmp_path / "removed_solver.snap"
        write_snapshot(path, payload)
        with pytest.raises(ValueError, match="unknown solver"):
            JoinSession.restore(path)


class TestSessionBasics:
    def test_matches_manual_wiring(self):
        """The facade produces exactly the result sets of the five-step
        manual pipeline (which keeps working unchanged)."""
        queries = [
            Query.of("q1", "R.a=S.a", "S.b=T.b"),
            Query.of("q2", "S.b=T.b", "T.c=U.c"),
        ]
        windows = {rel: 2.5 for rel in "RSTU"}
        streams, inputs = generate_streams(
            chain_specs("RSTU", 8.0, 5), duration=5.0, seed=3
        )

        catalog = StatisticsCatalog(default_selectivity=0.01, default_window=2.5)
        for rel in windows:
            catalog.with_rate(rel, 8.0).with_window(rel, 2.5)
        config = OptimizerConfig(cluster=ClusterConfig(default_parallelism=1))
        optimizer = MultiQueryOptimizer(catalog, config, solver="scipy")
        topology = build_topology(optimizer.optimize(queries).plan, catalog, config.cluster)
        runtime = TopologyRuntime(topology, windows, RuntimeConfig())
        runtime.run(inputs)

        session = JoinSession(window=2.5, solver="scipy")
        for query in queries:
            session.add_query(query)
        for rel in windows:
            session.with_rate(rel, 8.0)
        replay(session, inputs)

        for query in queries:
            assert result_keys(session.results(query.name)) == result_keys(
                runtime.results(query.name)
            )

    def test_subscribe_callback_receives_all_results(self):
        session = basic_session()
        seen = []
        session.subscribe("q1", seen.append)
        generate_into(session, chain_specs("RSTU", 8.0, 5), duration=4.0, seed=4)
        session.flush()
        assert result_keys(seen) == result_keys(session.results("q1"))
        assert seen, "workload should produce q1 results"

    def test_take_cursor_drains_incrementally(self):
        session = basic_session()
        streams, inputs = generate_streams(
            chain_specs("RSTU", 8.0, 5), duration=4.0, seed=5
        )
        half = len(inputs) // 2
        replay(session, inputs[:half])
        first = session.take("q1")
        replay(session, inputs[half:])
        second = session.take("q1")
        assert len(first) + len(second) == len(session.results("q1"))
        assert not session.take("q1")

    def test_warmup_plans_from_observed_statistics(self):
        """With warmup, the first plan sees measured rates — no declared
        statistics needed at all (the bootstrapping gap)."""
        session = basic_session(warmup=40, default_rate=999.0)
        streams, inputs = generate_streams(
            chain_specs("RSTU", 6.0, 5), duration=4.0, seed=6
        )
        for tup in inputs[:39]:
            session.push_batch((tup,))
        assert session.plan is None  # still buffering
        assert session.results("q1") == []
        replay(session, inputs[39:])
        assert session.plan is not None
        # observed rates (~6/s), not the absurd declared default
        assert session.catalog.rate("R") < 50.0
        assert session.verify(raise_on_mismatch=True).ok

    def test_churn_during_warmup_ends_it_with_correct_intervals(self):
        """Mutating the query set mid-warmup flushes the buffered prefix
        under the pre-churn plan: a query removed during warmup keeps the
        results its interval covers, one added during warmup claims none of
        the earlier tuples."""
        session = basic_session(warmup=50)
        session.push("S", {"a": 1, "b": 1}, ts=0.1)
        session.push("T", {"b": 1, "c": 1}, ts=0.2)
        session.push("U", {"c": 1, "d": 1}, ts=0.3)
        session.remove_query("q2")  # ends warmup; the S⋈T⋈U result is q2's
        session.push("R", {"a": 1}, ts=0.4)  # completes q1 post-churn
        assert session.verify(raise_on_mismatch=True).ok
        assert len(session.results("q2")) == 1  # the pre-removal result
        assert len(session.results("q1")) == 1

        session2 = basic_session(warmup=50)
        session2.push("R", {"a": 2}, ts=0.1)
        session2.push("S", {"a": 2, "b": 9}, ts=0.2)
        session2.add_query("q3", "R.a=S.a")  # must NOT claim the earlier pair
        session2.push("S", {"a": 2, "b": 8}, ts=0.3)
        assert session2.verify(raise_on_mismatch=True).ok
        assert len(session2.results("q3")) == 1  # only the post-add pair

    def test_per_query_windows_rejected(self):
        session = basic_session()
        with pytest.raises(SessionError, match="with_window"):
            session.add_query(Query.of("qw", "R.a=S.a", windows={"R": 0.5}))

    def test_with_window_frozen_after_start(self):
        session = basic_session()
        session.push("R", {"a": 1}, ts=0.0)
        with pytest.raises(SessionError, match="fixed once the session is running"):
            session.with_window("R", 1.0)

    def test_builders_chain(self):
        session = JoinSession()
        assert session.with_rate("R", 1.0) is session
        assert session.with_window("R", 2.0) is session
        assert session.with_selectivity("R.a=S.a", 0.5) is session
        assert session.add_query("q", "R.a=S.a") is session
        assert session.remove_query("q") is session

    def test_engine_failure_raises_and_stops_ingestion(self):
        """A memory overflow surfaces as EngineFailedError on the very push
        that tipped it over, and on every push thereafter — nothing is
        silently dropped or recorded past the failure point."""
        session = basic_session(
            runtime_config=RuntimeConfig(memory_limit_units=6.0)
        )
        _, inputs = generate_streams(chain_specs("RSTU", 8.0, 4), 4.0, seed=11)
        with pytest.raises(EngineFailedError, match="memory overflow"):
            replay(session, inputs)
        metrics = session.metrics
        assert metrics.failed
        assert metrics.inputs_ingested < len(inputs)
        assert metrics.inputs_ingested == session.pushed  # history == engine
        with pytest.raises(EngineFailedError):
            session.push(inputs[-1].trigger, {}, ts=inputs[-1].trigger_ts + 1)

    def test_failed_replan_leaves_session_unchanged(self, monkeypatch):
        """add_query/remove_query are transactional: a solver failure must
        not leave a half-installed query silently dropping pushes, and an
        install that raises must leave no decision, baseline or plan of a
        topology that never ran."""
        session = basic_session()
        session.push("R", {"a": 1}, ts=0.1)
        queries_before = session.queries

        def boom(*_):
            raise RuntimeError("solver exploded")

        monkeypatch.setattr(session, "_build_catalog", boom)
        with pytest.raises(RuntimeError, match="solver exploded"):
            session.add_query("q3", "U.d=V.d")
        assert session.queries == queries_before
        assert "V" not in session.relations
        with pytest.raises(UnknownQueryError):
            session.results("q3")  # never installed

        with pytest.raises(RuntimeError, match="solver exploded"):
            session.remove_query("q1")
        assert session.queries == queries_before
        monkeypatch.undo()

        # the solve succeeds and the install raises once per step (a dead
        # shard raises ShardFailedError there)
        plan, decisions = session.plan, session.decisions
        rewires = session.rewires
        installs = []

        def dead_install(*args, **kwargs):
            installs.append(args)
            raise ShardFailedError("shard 1 is gone")

        monkeypatch.setattr(session._runtime, "install", dead_install)
        with pytest.raises(ShardFailedError):
            session.add_query("q3", "S.b=T.b")
        with pytest.raises(ShardFailedError):
            session.remove_query("q1")
        monkeypatch.undo()
        assert len(installs) == 2
        assert session.queries == queries_before
        assert session.plan is plan
        assert session.decisions == decisions
        assert session.rewires == rewires
        # the decision baseline is still the running plan
        record = session.reoptimize()
        assert record is not None and record.changed is False
        assert session.rewires == rewires
        assert session.decisions == [*decisions, record]
        # the session is still fully operational after both failures
        session.push("S", {"a": 1, "b": 2}, ts=0.2)
        session.push("T", {"b": 2, "c": 3}, ts=0.3)
        assert session.verify(raise_on_mismatch=True).ok

    def test_reregistered_relation_oracle_respects_released_state(self):
        """A relation whose store was released by query expiry and later
        re-registered must not be expected to join its *pre-release*
        tuples — add_query's contract is 'tuples from now on plus shared
        store state', and verify() honours it."""
        session = basic_session()
        session.push("R", {"a": 1}, ts=0.1)
        session.push("S", {"a": 1, "b": 2}, ts=0.2)
        session.push("T", {"b": 2, "c": 3}, ts=0.3)
        session.remove_query("q1")  # R's store is released (q2 keeps S,T)
        session.add_query("q3", "R.a=S.a")
        session.push("S", {"a": 1, "b": 9}, ts=0.4)  # old R tuple is gone
        report = session.verify(raise_on_mismatch=True)
        assert report.ok
        assert report.checks["q3"].expected == 0
        # control: a fresh R partner after re-registration joins normally
        session.push("R", {"a": 1}, ts=0.5)
        report = session.verify(raise_on_mismatch=True)
        assert report.checks["q3"].expected == 2  # R@0.5 x {S@0.2, S@0.4}

    def test_reregistered_stream_high_water_is_floored_at_watermark(self):
        """A released-then-re-added ingest stream must not resurrect its
        stale pre-removal high water: stragglers whose partners are long
        evicted are rejected, and the global watermark stays live."""
        session = (
            JoinSession(window=1.0, solver="scipy", disorder_bound=0.5)
            .add_query("q1", "R.a=S.a")
            .add_query("q2", "S.a=T.a")
        )
        session.push("R", {"a": 1}, ts=0.0)
        session.remove_query("q1")  # R released; _stream_high['R'] was 0.0
        for i in range(40):
            session.push("S", {"a": 1}, ts=float(i))
            session.push("T", {"a": 1}, ts=float(i) + 0.25)
        session.add_query("q3", "R.a=S.a")
        with pytest.raises(LateTupleError):
            session.push("R", {"a": 1}, ts=0.2)  # 39s behind the watermark
        session.push("R", {"a": 1}, ts=39.5)  # current-time pushes still fine
        assert session.verify(raise_on_mismatch=True).ok

    def test_warmup_drain_overflow_raises(self):
        """Engine failure while draining the warmup buffer surfaces as
        EngineFailedError on the warmup-ending push, not silence."""
        session = basic_session(
            warmup=30,
            runtime_config=RuntimeConfig(memory_limit_units=6.0),
        )
        _, inputs = generate_streams(chain_specs("RSTU", 8.0, 4), 3.0, seed=14)
        with pytest.raises(EngineFailedError, match="warmup buffer"):
            replay(session, inputs[:30])
        # history covers exactly the engine-ingested prefix, so the oracle
        # stays consistent even across the aborted drain
        assert session.metrics.inputs_ingested == sum(
            len(v) for v in session._history.values()
        )
        assert session.verify().ok

    def test_watermark_survives_new_relation_registration(self):
        """Registering a new ingest relation mid-stream (online add_query)
        must not pin the global watermark at -inf and suspend eviction."""
        session = basic_session(disorder_bound=0.5)
        streams, _ = generate_streams(chain_specs("RSTU", 8.0, 4), 4.0, seed=13)
        feed = bounded_delay_feed(streams, 0.5, seed=13)
        replay(session, feed)
        session.add_query("q3", "U.d=V.d")  # V: brand-new, stays silent
        runtime = session._runtime
        assert runtime.watermark() > float("-inf")
        """verify() on a still-buffering warmup must not report a phantom
        mismatch — it ends the warmup and compares real results."""
        session = basic_session(warmup=10)
        session.push("R", {"a": 1}, ts=0.1)
        session.push("S", {"a": 1, "b": 2}, ts=0.2)
        session.push("T", {"b": 2, "c": 3}, ts=0.3)
        report = session.verify(raise_on_mismatch=True)
        assert report.ok and report.checks["q1"].expected == 1

    def test_churn_does_not_accumulate_dead_state(self):
        """Repeated add/remove over a session must not grow the task map
        with retired stores (long-lived service)."""
        session = basic_session()
        _, inputs = generate_streams(chain_specs("RSTU", 8.0, 4), 3.0, seed=12)
        replay(session, inputs)
        runtime = session._runtime
        for i in range(5):
            session.add_query(f"extra{i}", "S.b=T.b")
            session.remove_query(f"extra{i}")
        assert set(runtime.tasks) == set(runtime.topology.stores)
        assert session.verify(raise_on_mismatch=True).ok

    def test_results_survive_removal(self):
        session = basic_session()
        generate_into(session, chain_specs("RSTU", 8.0, 5), duration=4.0, seed=7)
        before = session.results("q1")
        assert before
        session.remove_query("q1")
        assert session.results("q1") == before

    def test_dormant_session_revives_with_state(self):
        """Removing every query keeps windowed state; a later add_query
        rewires the dormant runtime in place."""
        session = basic_session()
        streams, inputs = generate_streams(
            chain_specs("RSTU", 8.0, 4), duration=3.0, seed=8
        )
        replay(session, inputs)
        session.remove_query("q1")
        session.remove_query("q2")
        assert session.queries == {}
        stored = session.stored_tuples()
        assert stored > 0  # windowed state retained while dormant
        session.add_query("q3", "S.b=T.b")
        # revival reuses the retained S/T state: new pushes join old partners
        assert session.verify(raise_on_mismatch=True).ok


def online_churn(seed: int, disorder_bound=None):
    """Seeded online scenario: 2 queries -> +q_new -> -q_old, verified.

    Streams cover all five chain relations; pushes are filtered to the
    session's currently registered relations (the documented contract).
    """
    rng = random.Random(seed ^ 0x5E55)
    initial = [
        Query.of("q0", *CHAIN_PREDICATES[0:2]),  # R,S,T
        Query.of("q1", *CHAIN_PREDICATES[1:3]),  # S,T,U
    ]
    extra_start = rng.randint(1, 3)
    extra_len = rng.randint(1, 2)
    added = Query.of(
        "q_new", *CHAIN_PREDICATES[extra_start : extra_start + extra_len]
    )
    removed = rng.choice(["q0", "q1"])

    window = rng.choice([1.5, 2.5])
    session = JoinSession(
        window=window,
        solver="scipy",
        parallelism=rng.randint(1, 2),
        disorder_bound=disorder_bound,
    )
    for query in initial:
        session.add_query(query)

    domain = rng.randint(3, 6)
    streams, feed = generate_streams(
        chain_specs("RSTUV", rng.uniform(5.0, 8.0), domain), 6.0, seed=seed
    )
    if disorder_bound is not None:
        feed = bounded_delay_feed(streams, disorder_bound, seed=seed)

    a, b = len(feed) // 3, 2 * len(feed) // 3
    replay(session, (t for t in feed[:a] if t.trigger in session.relations))
    session.add_query(added)
    replay(session, (t for t in feed[a:b] if t.trigger in session.relations))
    session.remove_query(removed)
    replay(session, (t for t in feed[b:] if t.trigger in session.relations))
    return session


class TestOnlineDifferential:
    """Mid-stream add/remove matches the interval-restricted reference."""

    @pytest.mark.parametrize("seed", range(10))
    def test_online_churn_ordered(self, seed):
        session = online_churn(seed)
        report = session.verify()
        assert report.ok, report.describe()
        assert len(session.rewires) == 2

    @pytest.mark.parametrize("seed", range(10))
    def test_online_churn_watermark(self, seed):
        bound = random.Random(seed ^ 0xF00).choice([0.5, 1.0, 2.0])
        session = online_churn(seed, disorder_bound=bound)
        report = session.verify()
        assert report.ok, report.describe()
        assert len(session.rewires) == 2


class TestAcceptanceScenario:
    """The headline scenario of the facade redesign.

    Two queries stream ~1k tuples via ``push``; a third query sharing
    stores with the running plan arrives mid-stream and one original query
    expires — every query matches the reference over its active interval,
    and the shared store state demonstrably survives both rewires (same
    container objects, ``preserved_tuples`` > 0: no rebuild).
    """

    def test_online_add_remove_preserves_shared_state(self):
        session = (
            JoinSession(window=2.5, solver="scipy", parallelism=1)
            .add_query("q1", "R.a=S.a", "S.b=T.b")
            .add_query("q2", "S.b=T.b", "T.c=U.c")
        )
        streams, feed = generate_streams(
            chain_specs("RSTUV", 25.0, 8), duration=8.0, seed=42
        )
        assert len(feed) >= 950  # "streams ~1k tuples"

        a, b = int(len(feed) * 0.4), int(len(feed) * 0.7)
        replay(session, (t for t in feed[:a] if t.trigger in session.relations))

        # identity snapshot of the shared input stores (S and T serve q1,
        # q2, and the incoming q3's backfill); flush first so the pending
        # micro-batch doesn't shift counts under the snapshot
        session.flush()
        runtime = session._runtime
        shared_before = {
            store_id: (
                runtime.tasks[store_id][0].container,
                runtime.tasks[store_id][0].stored_tuples(),
            )
            for store_id in ("S", "T", "U")
        }
        old_topology = runtime.topology
        assert session.metrics.rewires == 0

        # --- online arrival: q3 shares the T and U stores -------------
        session.add_query("q3", "T.c=U.c", "U.d=V.d")
        diff = diff_topologies(old_topology, runtime.topology)
        assert set(diff.surviving) >= {"S", "T", "U"}

        # shared store state survived the rewire: the *same* container
        # objects, holding the same tuples — not a rebuild
        for store_id, (container, count) in shared_before.items():
            task = runtime.tasks[store_id][0]
            assert task.container is container
            assert task.stored_tuples() == count
        assert session.metrics.rewires == 1
        assert session.metrics.preserved_tuples > 0

        replay(session, (t for t in feed[a:b] if t.trigger in session.relations))

        # --- online expiry: q1 leaves, R's store is released ----------
        session.remove_query("q1")
        assert session.metrics.rewires == 2
        replay(session, (t for t in feed[b:] if t.trigger in session.relations))

        report = session.verify()
        assert report.ok, report.describe()
        # the scenario must be non-trivial: every query produced results,
        # and q3 joined partners stored *before* its arrival (backfill /
        # preserved windowed state)
        for name in ("q1", "q2", "q3"):
            assert report.checks[name].expected > 0, name
        earliest_q3 = min(
            min(res.timestamps.values()) for res in session.results("q3")
        )
        add_ts = session.rewires[0].time
        assert earliest_q3 < add_ts, (
            "q3 must see pre-arrival partners via preserved state"
        )


class TestSessionAdapters:
    def test_generate_into_matches_direct_replay(self):
        specs = chain_specs("RSTU", 8.0, 5)
        s1 = basic_session()
        streams = generate_into(s1, specs, duration=4.0, seed=9)
        s2 = basic_session()
        _, inputs = generate_streams(specs, duration=4.0, seed=9)
        assert replay(s2, inputs) == s2.pushed
        for name in ("q1", "q2"):
            assert result_keys(s1.results(name)) == result_keys(s2.results(name))
        # returned streams are the event-time history
        assert sum(len(v) for v in streams.values()) == s1.pushed

    def test_generate_into_bounded_delay(self):
        session = basic_session(disorder_bound=1.0)
        generate_into(
            session, chain_specs("RSTU", 8.0, 5), duration=4.0, seed=10,
            max_delay=1.0,
        )
        assert session.verify(raise_on_mismatch=True).ok

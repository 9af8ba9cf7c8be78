"""Crash-recovery differential tests for session checkpoint/restore.

The contract under test (docs/service.md): checkpoint a session
mid-stream, throw the process away, restore from the file, finish the
feed — the results, their order, the verification oracle, and the
headline metrics must be *exactly* those of an uninterrupted run, across
both store backends and ``workers`` 1/2.  Plus the close/context-manager
unification and the snapshot file format's error surface.
"""

import pickle
import random

import pytest

from repro import JoinSession, RuntimeConfig, TopologyRuntime
from repro.service.snapshot import (
    SNAPSHOT_MAGIC,
    SnapshotError,
    read_snapshot,
    write_snapshot,
)

#: every additive counter that must match the uninterrupted run exactly
#: (``restored_tuples`` is deliberately excluded: it is the one counter
#: that *proves* a restore happened)
PARITY_COUNTERS = [
    "inputs_ingested",
    "messages_sent",
    "tuples_sent",
    "probes_executed",
    "comparisons",
    "results_emitted",
    "stored_units",
    "peak_stored_units",
    "migrated_tuples",
    "rewires",
    "preserved_tuples",
    "backfilled_tuples",
    "late_dropped",
    "dead_lettered",
    "late_admitted",
]


def feed(session, lo, hi):
    for i in range(lo, hi):
        session.push("R", {"a": i % 5}, ts=i * 0.1)
        session.push("S", {"a": i % 5, "b": i % 3}, ts=i * 0.1 + 0.01)
        session.push("T", {"b": i % 3}, ts=i * 0.1 + 0.02)


def assert_parity(restored, baseline):
    assert restored.pushed == baseline.pushed
    for name in sorted(baseline.queries):
        got = [r.key() for r in restored.results(name)]
        want = [r.key() for r in baseline.results(name)]
        assert got == want, f"results (or their order) diverged for {name}"
    a, b = restored.metrics, baseline.metrics
    assert a.summary() == b.summary()
    for counter in PARITY_COUNTERS:
        assert getattr(a, counter) == getattr(b, counter), counter
    assert a.results_per_query == b.results_per_query
    assert a.restored_tuples > 0
    assert restored.verify().ok


class TestCrashRecoveryDifferential:
    @pytest.mark.parametrize("backend", ["python", "columnar"])
    @pytest.mark.parametrize("workers", [1, 2])
    def test_checkpoint_mid_stream_then_restore_finishes_identically(
        self, tmp_path, backend, workers
    ):
        def build():
            kwargs = {"window": 3.0, "store_backend": backend}
            if workers > 1:
                kwargs.update(workers=2, worker_transport="inline")
            return JoinSession(**kwargs).add_query("q1", "R.a=S.a", "S.b=T.b")

        baseline = build()
        feed(baseline, 0, 100)
        baseline.flush()

        interrupted = build()
        feed(interrupted, 0, 50)
        path = tmp_path / "mid.snap"
        interrupted.checkpoint(path)
        interrupted.close()
        del interrupted  # the "crash": only the file survives

        restored = JoinSession.restore(path)
        feed(restored, 50, 100)
        restored.flush()
        assert_parity(restored, baseline)
        restored.close()
        baseline.close()

    @pytest.mark.parametrize("backend", ["python", "columnar"])
    @pytest.mark.parametrize("workers", [1, 2])
    def test_checkpoint_with_a_composite_key_active(self, tmp_path, backend, workers):
        """The snapshot carries the whole-key structures (composite hash
        indexes; combined code columns with their active/probed lists) as
        they are: candidate order and ``comparisons`` resume exactly."""

        def build():
            kwargs = {"window": 3.0, "store_backend": backend}
            if workers > 1:
                kwargs.update(workers=2, worker_transport="inline")
            return JoinSession(**kwargs).add_query("q1", "R.a=S.a", "R.b=S.b")

        def feed_rs(session, lo, hi):
            for i in range(lo, hi):
                session.push("R", {"a": i % 5, "b": i % 3}, ts=i * 0.1)
                session.push("S", {"a": i % 5, "b": i % 2}, ts=i * 0.1 + 0.01)

        baseline = build()
        feed_rs(baseline, 0, 120)
        baseline.flush()
        assert baseline.metrics.comparisons > 0

        interrupted = build()
        feed_rs(interrupted, 0, 60)
        path = tmp_path / "composite.snap"
        interrupted.checkpoint(path)
        interrupted.close()
        del interrupted

        restored = JoinSession.restore(path)
        feed_rs(restored, 60, 120)
        restored.flush()
        assert_parity(restored, baseline)
        restored.close()
        baseline.close()

    def test_restore_preserves_churn_lifecycle_and_drops(self, tmp_path):
        def build():
            return JoinSession(window=4.0).add_query("q1", "R.a=S.a", "S.b=T.b")

        def feed_st(session, lo, hi):
            # after q1's removal only q2 = S⋈T remains; R is unregistered
            for i in range(lo, hi):
                session.push("S", {"a": i % 5, "b": i % 3}, ts=i * 0.1 + 0.01)
                session.push("T", {"b": i % 3}, ts=i * 0.1 + 0.02)

        def churn(session):
            feed(session, 0, 30)
            session.add_query("q2", "S.b=T.b")
            feed(session, 30, 60)
            session.remove_query("q1")
            feed_st(session, 60, 80)

        baseline = build()
        churn(baseline)
        feed_st(baseline, 80, 110)

        interrupted = build()
        churn(interrupted)
        path = tmp_path / "churn.snap"
        interrupted.checkpoint(path)
        restored = JoinSession.restore(path)
        feed_st(restored, 80, 110)
        # q1 was removed pre-checkpoint: its activation interval, results,
        # and released-store drop points must all survive the restore
        assert_parity(restored, baseline)
        record = restored.reoptimize()
        assert record is not None  # the adaptivity loop is live post-restore

    def test_restore_during_warmup_resumes_buffering(self, tmp_path):
        def build():
            return JoinSession(window=5.0, warmup=50).add_query(
                "q1", "R.a=S.a", "S.b=T.b"
            )

        baseline = build()
        feed(baseline, 0, 40)

        interrupted = build()
        feed(interrupted, 0, 10)  # 20 tuples buffered, below warmup=50
        path = tmp_path / "warm.snap"
        interrupted.checkpoint(path)
        restored = JoinSession.restore(path)
        assert restored.metrics is None  # still buffering, no plan yet
        feed(restored, 10, 40)
        assert restored.pushed == baseline.pushed
        assert [r.key() for r in restored.results("q1")] == [
            r.key() for r in baseline.results("q1")
        ]
        assert restored.verify().ok

    @pytest.mark.parametrize("workers", [1, 2])
    def test_checkpoint_before_the_first_push_plans_at_the_first_push(
        self, tmp_path, workers
    ):
        def build():
            return JoinSession(
                window=5.0, workers=workers, worker_transport="inline"
            ).add_query("q1", "R.a=S.a", "S.b=T.b")

        baseline = build()
        feed(baseline, 0, 40)

        path = tmp_path / "unplanned.snap"
        build().checkpoint(path)
        restored = JoinSession.restore(path)
        assert restored.plan is None and restored.metrics is None
        feed(restored, 0, 40)
        assert restored.plan is not None
        assert restored.pushed == baseline.pushed
        assert [r.key() for r in restored.results("q1")] == [
            r.key() for r in baseline.results("q1")
        ]
        assert restored.metrics.summary() == baseline.metrics.summary()
        assert restored.verify().ok
        restored.close()
        baseline.close()

    def test_restore_resumes_adaptive_epoch_schedule(self, tmp_path):
        def build():
            return JoinSession(
                window=3.0, reoptimize_every=2.0, stats_window=2
            ).add_query("q1", "R.a=S.a", "S.b=T.b")

        baseline = build()
        feed(baseline, 0, 120)
        baseline.flush()

        interrupted = build()
        feed(interrupted, 0, 60)
        path = tmp_path / "epochs.snap"
        interrupted.checkpoint(path)
        restored = JoinSession.restore(path)
        feed(restored, 60, 120)
        restored.flush()
        assert_parity(restored, baseline)
        # identical decision log: same epochs, same objectives
        assert [
            (d.epoch, d.changed) for d in restored.metrics.decisions
        ] == [(d.epoch, d.changed) for d in baseline.metrics.decisions]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_checkpoint_between_epoch_decision_and_install(
        self, tmp_path, workers
    ):
        """A checkpoint taken after an epoch decision picked a new plan and
        before the boundary that installs it: the restored session reports
        the running plan, installs the pending one on schedule, and finishes
        with the decisions, switches and results of the uninterrupted run."""

        def build():
            return JoinSession(
                window=6.0,
                solver="scipy",
                default_rate=8.0,
                default_selectivity=0.5,
                workers=workers if workers > 1 else None,
                worker_transport="inline",
                reoptimize_every=2.0,
            ).add_query("q", "R.a=S.a", "S.b=T.b")

        # the observed selectivities contradict the defaults, so an epoch
        # decision changes the plan with no query churn
        rng = random.Random(23)
        items = []
        for i in range(220):
            rel = ("R", "S", "T")[i % 3]
            values = {
                "R": {"a": rng.randrange(50)},
                "S": {"a": rng.randrange(50) + 100, "b": 1},
                "T": {"b": 1, "c": rng.randrange(4)},
            }[rel]
            items.append((rel, values, 0.05 + 0.04 * i))

        baseline = build()
        for item in items:
            baseline.push(*item)
        baseline.flush()

        interrupted = build()
        for cut, item in enumerate(items, start=1):
            interrupted.push(*item)
            decided = sum(d.changed for d in interrupted.decisions)
            if decided > len(interrupted.rewires):
                break  # decided, not yet installed
        else:
            pytest.fail("no epoch decision ever changed the plan")
        path = tmp_path / "decided.snap"
        interrupted.checkpoint(path)
        restored = JoinSession.restore(path)
        interrupted.close()
        assert restored.plan == interrupted.plan
        assert restored.topology == interrupted.topology
        for item in items[cut:]:
            restored.push(*item)
        restored.flush()
        assert restored.decisions == baseline.decisions
        assert [
            (s.epoch, s.time, s.added_stores, s.removed_stores)
            for s in restored.rewires
        ] == [
            (s.epoch, s.time, s.added_stores, s.removed_stores)
            for s in baseline.rewires
        ]
        assert restored.plan == baseline.plan
        assert_parity(restored, baseline)
        restored.close()
        baseline.close()

    def test_dead_letters_survive_restore(self, tmp_path):
        session = JoinSession(
            window=10.0,
            disorder_bound=0.5,
            allowed_lateness=0.5,
            on_late="dead_letter",
        ).add_query("q1", "R.a=S.a")
        session.push("R", {"a": 1}, ts=1.0)
        session.push("S", {"a": 1}, ts=5.0)
        session.push("S", {"a": 1}, ts=1.0)  # lag 4.0 > 1.0: dead letter
        path = tmp_path / "dead.snap"
        session.checkpoint(path)
        restored = JoinSession.restore(path)
        assert [(t.trigger, t.trigger_ts) for t in restored.dead_letters()] == [
            ("S", 1.0)
        ]
        assert restored.metrics.dead_lettered == 1
        assert restored.verify().ok


class TestSnapshotFileFormat:
    def test_rejects_non_snapshot_files(self, tmp_path):
        path = tmp_path / "garbage.snap"
        path.write_bytes(b"not a pickle at all")
        with pytest.raises(SnapshotError, match="cannot read snapshot"):
            read_snapshot(path)
        pickled = tmp_path / "pickled.snap"
        pickled.write_bytes(pickle.dumps({"magic": "something-else"}))
        with pytest.raises(SnapshotError, match="not a join-session snapshot"):
            read_snapshot(pickled)

    def test_rejects_other_payload_versions(self, tmp_path):
        path = tmp_path / "future.snap"
        path.write_bytes(
            pickle.dumps(
                {"magic": SNAPSHOT_MAGIC, "version": 999, "payload": {}}
            )
        )
        with pytest.raises(SnapshotError, match="payload version 999"):
            read_snapshot(path)

    def test_missing_file_raises_snapshot_error(self, tmp_path):
        with pytest.raises(SnapshotError):
            JoinSession.restore(tmp_path / "nope.snap")

    def test_write_is_atomic_roundtrip(self, tmp_path):
        path = tmp_path / "atomic.snap"
        write_snapshot(path, {"hello": "world"})
        write_snapshot(path, {"hello": "again"})  # overwrite in place
        assert read_snapshot(path) == {"hello": "again"}
        assert [p.name for p in tmp_path.iterdir()] == ["atomic.snap"]


class TestCloseUnification:
    def test_with_joinsession_workers_1(self):
        with JoinSession(window=5.0) as session:
            session.add_query("q1", "R.a=S.a")
            session.push("R", {"a": 1}, ts=0.0)
            session.push("S", {"a": 1}, ts=0.1)
        # closed: results stay readable, close is idempotent
        assert len(session.results("q1")) == 1
        session.close().close()

    def test_with_joinsession_workers_2(self):
        with JoinSession(
            window=5.0, workers=2, worker_transport="inline"
        ) as session:
            session.add_query("q1", "R.a=S.a")
            session.push("R", {"a": 1}, ts=0.0)
            session.push("S", {"a": 1}, ts=0.1)
        assert len(session.results("q1")) == 1
        session.close().close()

    def test_topology_runtime_context_manager(self):
        # the engine-level close contract the session builds on
        scout = JoinSession(window=5.0).add_query("q1", "R.a=S.a")
        scout.start()
        topology = scout.topology
        with TopologyRuntime(
            topology, {"R": 5.0, "S": 5.0}, RuntimeConfig()
        ) as runtime:
            pass
        runtime.close()  # idempotent after __exit__

"""What a session keeps per result.

A session retains results iff ``record_streams`` and ``collect_outputs``
are both true.  A production session (``record_streams=False``) hands
every result to its subscribers and keeps none: ``results`` / ``take``
return ``[]``, the runtime's ``outputs`` stay empty, the heap does not
grow with the number of results, and a checkpoint carries no results.
A default session keeps every result, in the order its subscribers saw.
"""

import gc

import pytest

from repro import JoinSession, RuntimeConfig
from repro.service.snapshot import read_snapshot

#: tuples per pushed chunk; with 3 keys and a 1 s window at 100 tuples/s
#: per relation every input joins ~17 stored partners
CHUNK = 200


def chunk(i):
    """Chunk ``i`` of an ordered two-relation feed (event time 0.01 s per
    tuple, relations alternating)."""
    items = []
    for k in range(i * CHUNK, (i + 1) * CHUNK):
        relation = "R" if k % 2 == 0 else "S"
        items.append((relation, {"a": k % 3}, k * 0.01))
    return items


def session_for(workers, **kwargs):
    if workers > 1:
        kwargs.update(workers=workers, worker_transport="inline")
    return JoinSession(window=1.0, solver="greedy", **kwargs).add_query(
        "q1", "R.a=S.a"
    )


def subscribed(session):
    """Attach a subscriber; returns the list it appends result keys to."""
    seen = []
    session.subscribe("q1", lambda result: seen.append(result.key()))
    return seen


def feed(session, lo, hi):
    for i in range(lo, hi):
        session.push_batch(chunk(i))
    session.flush()


@pytest.mark.parametrize("workers", [1, 2])
class TestProductionSessionKeepsNoResults:
    def test_subscribers_see_every_result_and_none_is_kept(self, workers):
        session = session_for(workers, record_streams=False)
        seen = subscribed(session)
        feed(session, 0, 4)
        emitted = session.metrics.results_emitted
        assert emitted > 10 * CHUNK
        assert len(seen) == emitted
        assert session.results("q1") == []
        assert session.take("q1") == []
        assert all(not kept for kept in session._runtime.outputs.values())
        session.close()

    def test_tracked_objects_do_not_grow_with_the_results(self, workers):
        """The heap after 2N chunks exceeds the heap after N chunks by a
        constant, while tens of thousands of results went out in between
        (one tracked object each when they were kept)."""
        n = 6
        session = session_for(workers, record_streams=False)
        delivered = 0

        def count(_result):
            # a counter, not a list: the subscriber must not keep results
            nonlocal delivered
            delivered += 1

        session.subscribe("q1", count)
        feed(session, 0, 4)  # warm-up: stores, indexes and caches fill

        def tracked():
            gc.collect()
            return len(gc.get_objects())

        feed(session, 4, 4 + n)
        at_n, results_at_n = tracked(), session.metrics.results_emitted
        feed(session, 4 + n, 4 + 2 * n)
        at_2n, results_at_2n = tracked(), session.metrics.results_emitted
        between = results_at_2n - results_at_n
        assert between > 20_000
        assert delivered == results_at_2n
        assert at_2n - at_n < 1_000
        session.close()

    def test_checkpoint_carries_no_results_and_restore_continues(
        self, tmp_path, workers
    ):
        live = session_for(workers, record_streams=False)
        feed(live, 0, 3)
        path = tmp_path / "prod.snap"
        live.checkpoint(path)
        outputs = read_snapshot(path)["engine"]["outputs"]
        assert all(not kept for kept in outputs.values())
        restored = JoinSession.restore(path)
        live_tail, restored_tail = subscribed(live), subscribed(restored)
        feed(live, 3, 6)
        feed(restored, 3, 6)
        assert live_tail
        assert restored_tail == live_tail
        assert restored.results("q1") == []
        live.close()
        restored.close()

    def test_an_explicit_collecting_runtime_config_still_keeps_nothing(
        self, workers
    ):
        session = JoinSession(
            window=1.0,
            solver="greedy",
            runtime_config=RuntimeConfig(collect_outputs=True, workers=workers),
            worker_transport="inline",
            record_streams=False,
        ).add_query("q1", "R.a=S.a")
        seen = subscribed(session)
        feed(session, 0, 3)
        assert len(seen) == session.metrics.results_emitted > 0
        assert session.results("q1") == []
        assert session.take("q1") == []
        assert all(not kept for kept in session._runtime.outputs.values())
        session.close()

    def test_a_default_session_keeps_what_its_subscribers_saw(self, workers):
        session = session_for(workers)
        seen = subscribed(session)
        feed(session, 0, 3)
        assert len(seen) == session.metrics.results_emitted > 0
        assert [r.key() for r in session.results("q1")] == seen
        assert [r.key() for r in session.take("q1")] == seen
        assert session.verify().ok
        session.close()

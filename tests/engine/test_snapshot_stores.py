"""Property tests: structural store snapshots preserve observable behaviour.

The checkpoint subsystem dumps store containers *structurally* (buckets,
pending-recent lists, and hash-index candidate order verbatim; columnar
arrays as ``np.save`` buffers) instead of re-inserting tuples, so a
restored container must be observationally identical to the original:
same probe results in the same order, same ``checked`` candidate counts,
and the same eviction boundaries.  These properties are exercised on
randomized windows over both backends through the exact channel the
session checkpoint uses (``dump_state`` → pickle → ``load_container``).
"""

import pickle

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.predicates import JoinPredicate
from repro.engine.columnar import ColumnarContainer
from repro.engine.stores import (
    Container,
    StoreTask,
    load_container,
    orient_predicates,
    probe_batch,
)
from repro.engine.tuples import input_tuple

PREDS = (JoinPredicate.of("R.a", "S.a"),)
ORIENTED = orient_predicates(PREDS, {"R"})


def stored(ts, a, b, seq):
    tup = input_tuple("S", ts, {"a": a, "b": b})
    tup.seq = seq
    return tup


def probing(ts, a, seq):
    tup = input_tuple("R", ts, {"a": a})
    tup.seq = seq
    return tup


# (ts deci-ticks, join key) pairs; keys collide on purpose so hash-index
# candidate lists hold several tuples whose order must survive the dump
entries_strategy = st.lists(
    st.tuples(st.integers(0, 400), st.integers(0, 4)), min_size=0, max_size=60
)
probes_strategy = st.lists(
    st.tuples(st.integers(0, 450), st.integers(0, 4)), min_size=1, max_size=15
)
window_strategy = st.sampled_from([2.0, 5.0, 10.0, 25.0])


def build_container(backend, window, entries):
    cls = Container if backend == "python" else ColumnarContainer
    cont = cls(bucket_width=window / 16.0)
    for seq, (ticks, key) in enumerate(entries):
        cont.insert(stored(ticks / 10.0, key, key % 2, seq))
    return cont


def roundtrip(cont):
    state = pickle.loads(pickle.dumps(cont.dump_state()))
    return load_container(state)


class TestContainerRoundtrip:
    @given(
        entries=entries_strategy,
        probes=probes_strategy,
        window=window_strategy,
    )
    @settings(max_examples=25, deadline=None)
    def test_python_backend_probe_parity(self, entries, probes, window):
        self._check_backend("python", entries, probes, window)

    @given(
        entries=entries_strategy,
        probes=probes_strategy,
        window=window_strategy,
    )
    @settings(max_examples=25, deadline=None)
    def test_columnar_backend_probe_parity(self, entries, probes, window):
        self._check_backend("columnar", entries, probes, window)

    def _check_backend(self, backend, entries, probes, window):
        windows = {"R": window, "S": window}
        original = build_container(backend, window, entries)
        clone = roundtrip(original)
        assert type(clone) is type(original)
        assert len(clone) == len(original)
        assert [t.latest_ts for t in clone.iter_tuples()] == [
            t.latest_ts for t in original.iter_tuples()
        ]
        probe_tuples = [
            probing(ticks / 10.0, key, 10_000 + i)
            for i, (ticks, key) in enumerate(probes)
        ]
        res_a, checked_a = probe_batch(original, probe_tuples, ORIENTED, windows)
        res_b, checked_b = probe_batch(clone, probe_tuples, ORIENTED, windows)
        # identical results in identical order, identical candidate work
        assert checked_b == checked_a
        assert [r.key() for r in res_b] == [r.key() for r in res_a]

    @given(
        entries=entries_strategy,
        window=window_strategy,
        horizon_ticks=st.integers(0, 450),
    )
    @settings(max_examples=25, deadline=None)
    def test_eviction_boundaries_survive_both_backends(
        self, entries, window, horizon_ticks
    ):
        horizon = horizon_ticks / 10.0
        for backend in ("python", "columnar"):
            original = build_container(backend, window, entries)
            clone = roundtrip(original)
            assert clone.evict_older_than(horizon) == original.evict_older_than(
                horizon
            )
            assert len(clone) == len(original)
            assert [t.latest_ts for t in clone.iter_tuples()] == [
                t.latest_ts for t in original.iter_tuples()
            ]


class TestStoreTaskRoundtrip:
    @given(
        entries=entries_strategy,
        probes=probes_strategy,
        backend=st.sampled_from(["python", "columnar"]),
    )
    @settings(max_examples=20, deadline=None)
    def test_task_state_and_probe_parity(self, entries, probes, backend):
        windows = {"R": 10.0, "S": 10.0}
        task = StoreTask(
            store_id="S", task_index=0, retention=12.0, backend=backend
        )
        for seq, (ticks, key) in enumerate(entries):
            task.container.insert(stored(ticks / 10.0, key, key % 2, seq))
        state = pickle.loads(pickle.dumps(task.dump_state()))
        clone = StoreTask.from_state(state)
        assert clone.stored_tuples() == task.stored_tuples()
        assert clone.backend == task.backend
        assert clone.retention == task.retention
        probe_tuples = [
            probing(ticks / 10.0, key, 10_000 + i)
            for i, (ticks, key) in enumerate(probes)
        ]
        if entries:
            res_a, checked_a = probe_batch(
                task.container, probe_tuples, ORIENTED, windows
            )
            res_b, checked_b = probe_batch(
                clone.container, probe_tuples, ORIENTED, windows
            )
            assert checked_b == checked_a
            assert [r.key() for r in res_b] == [r.key() for r in res_a]
        # eviction picks up where the original left off
        now = 100.0
        assert clone.evict(now) == task.evict(now)
        assert clone.stored_tuples() == task.stored_tuples()

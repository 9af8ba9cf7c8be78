"""Columnar store backend: layout, growth, eviction, and probe parity.

Unit-level contract of :class:`repro.engine.columnar.ColumnarContainer`:
it must be observationally identical to the dict-backed ``Container``
(same results, same ``checked`` bookkeeping, same freed widths) while its
internal column machinery follows the documented policy — lazy one-off
column activation, chunked append-only growth, bucket-sliced eviction
that compresses instead of rebuilding.  Differential coverage at the
engine level lives in ``test_differential.py`` (backend axis).
"""

import random

import pytest

from repro.core.predicates import JoinPredicate
from repro.engine.columnar import MIN_CAPACITY, ColumnarContainer
from repro.engine.stores import (
    Container,
    StoreBackend,
    StoreTask,
    make_backend,
    orient_predicates,
    probe_batch,
)
from repro.engine.tuples import input_tuple


def s_tuple(ts, a, b=0, seq=0):
    tup = input_tuple("S", ts, {"a": a, "b": b})
    tup.seq = seq
    return tup


PREDS = (JoinPredicate.of("R.a", "S.a"),)
PREDS2 = (JoinPredicate.of("R.a", "S.a"), JoinPredicate.of("R.b", "S.b"))
ORIENTED = orient_predicates(PREDS, {"R"})
ORIENTED2 = orient_predicates(PREDS2, {"R"})
NO_KEY = orient_predicates((), {"R"})
WINDOWS = {"R": 10.0, "S": 10.0}


class TestBackendPlumbing:
    def test_make_backend_names(self):
        assert isinstance(make_backend("python", 1.0), Container)
        assert isinstance(make_backend("columnar", 1.0), ColumnarContainer)
        with pytest.raises(ValueError, match="unknown store backend"):
            make_backend("rust", 1.0)

    def test_both_backends_satisfy_the_protocol(self):
        assert isinstance(Container(), StoreBackend)
        assert isinstance(ColumnarContainer(), StoreBackend)

    def test_store_task_creates_configured_backend(self):
        task = StoreTask(
            store_id="S", task_index=0, retention=8.0, backend="columnar"
        )
        assert isinstance(task.container, ColumnarContainer)
        # default stays the python container
        task2 = StoreTask(store_id="S", task_index=0, retention=8.0)
        assert isinstance(task2.container, Container)

    def test_probe_batch_dispatches_to_vectorized_path(self):
        cont = ColumnarContainer(bucket_width=1.0)
        cont.insert(s_tuple(1.0, a=7))
        probe = input_tuple("R", 2.0, {"a": 7})
        results, checked = probe_batch(cont, (probe,), ORIENTED, WINDOWS)
        assert len(results) == 1 and checked == 1
        assert results[0].values["S.a"] == 7


class TestColumnarLayout:
    def test_len_and_iteration_order(self):
        cont = ColumnarContainer(bucket_width=2.0)
        for ts in (5.0, 1.0, 3.0, 1.5):
            cont.insert(s_tuple(ts, a=int(ts)))
        assert len(cont) == 4
        # bucket-ordered, then arrival-ordered within a bucket
        assert [t.latest_ts for t in cont.iter_tuples()] == [1.0, 1.5, 3.0, 5.0]
        assert len(cont.tuples) == 4

    def test_chunked_growth_beyond_min_capacity(self):
        cont = ColumnarContainer(bucket_width=None)  # single bucket
        n = MIN_CAPACITY * 3 + 5
        for i in range(n):
            cont.insert(s_tuple(float(i) / n, a=i % 7))
        assert len(cont) == n
        probe = input_tuple("R", 2.0, {"a": 3})
        results, _ = probe_batch(cont, (probe,), ORIENTED, WINDOWS, 10.0)
        assert len(results) == len([i for i in range(n) if i % 7 == 3])

    def test_column_built_once_and_maintained_incrementally(self):
        cont = ColumnarContainer(bucket_width=1.0)
        for i in range(20):
            cont.insert(s_tuple(i * 0.5, a=i % 3))
        probe = input_tuple("R", 50.0, {"a": 1})
        probe_batch(cont, (probe,), ORIENTED, {"R": 100.0, "S": 100.0}, 100.0)
        assert cont.column_builds == 1
        # inserts after activation maintain the column without a rebuild,
        # including into freshly created buckets
        cont.insert(s_tuple(30.0, a=1))
        results, _ = probe_batch(
            cont, (probe,), ORIENTED, {"R": 100.0, "S": 100.0}, 100.0
        )
        assert cont.column_builds == 1
        assert sum(1 for r in results if r.timestamps["S"] == 30.0) == 1

    def test_none_values_join_like_the_dict_backend(self):
        """``None`` is an ordinary joinable key (``index[None]`` parity)."""
        py, col = Container(bucket_width=1.0), ColumnarContainer(bucket_width=1.0)
        for cont in (py, col):
            cont.insert(s_tuple(1.0, a=None))
            cont.insert(s_tuple(1.2, a=5))
        probe = input_tuple("R", 2.0, {"a": None})
        for cont in (py, col):
            results, _ = probe_batch(cont, (probe,), ORIENTED, WINDOWS, 10.0)
            assert len(results) == 1
            assert results[0].timestamps["S"] == 1.0


class TestColumnarEviction:
    def test_eviction_parity_with_python_backend(self):
        py, col = Container(bucket_width=2.0), ColumnarContainer(bucket_width=2.0)
        for ts in [0.5, 1.0, 2.5, 3.0, 4.9, 5.0, 7.7]:
            py.insert(s_tuple(ts, a=1))
            col.insert(s_tuple(ts, a=1))
        assert py.evict_older_than(5.0) == col.evict_older_than(5.0)
        assert len(py) == len(col) == 2
        assert [t.latest_ts for t in col.iter_tuples()] == [5.0, 7.7]
        # idempotent
        assert col.evict_older_than(5.0) == 0

    def test_eviction_never_rebuilds_columns(self):
        cont = ColumnarContainer(bucket_width=1.0)
        for i in range(40):
            cont.insert(s_tuple(i * 0.25, a=i % 4))
        probe = input_tuple("R", 100.0, {"a": 2})
        wide = {"R": 100.0, "S": 100.0}
        probe_batch(cont, (probe,), ORIENTED, wide, 100.0)
        assert cont.column_builds == 1
        for horizon in (2.0, 4.5, 6.25, 9.0):
            cont.evict_older_than(horizon)
            results, _ = probe_batch(cont, (probe,), ORIENTED, wide, 100.0)
            expected = [
                i for i in range(40) if i % 4 == 2 and i * 0.25 >= horizon
            ]
            assert len(results) == len(expected)
        assert cont.column_builds == 1

    def test_boundary_bucket_is_compressed_not_dropped(self):
        cont = ColumnarContainer(bucket_width=2.0)
        for ts in (4.1, 4.9, 5.3, 5.9):  # all in bucket 2
            cont.insert(s_tuple(ts, a=9))
        freed = cont.evict_older_than(5.0)
        assert freed == 2 and len(cont) == 2
        assert [t.latest_ts for t in cont.iter_tuples()] == [5.3, 5.9]

    def test_empty_container_and_infinite_retention(self):
        cont = ColumnarContainer(bucket_width=None)
        assert cont.evict_older_than(10.0) == 0
        cont.insert(s_tuple(1.0, a=1))
        assert cont.evict_older_than(0.5) == 0
        assert cont.evict_older_than(2.0) == 1
        assert len(cont) == 0


class TestColumnarProbing:
    def test_tied_and_event_later_rows_join(self):
        from repro.engine.columnar import VectorBatch

        cont = ColumnarContainer(bucket_width=1.0)
        # no arrival rule: earlier, tied and event-later rows all join
        for ts in (2.0, 3.0, 5.0):
            cont.insert(s_tuple(ts, a=1))
        probe = input_tuple("R", 3.0, {"a": 1})
        results, _ = probe_batch(cont, (probe,), ORIENTED, WINDOWS, 10.0)
        assert [r.timestamps["S"] for r in results] == [2.0, 3.0, 5.0]
        vector, _ = cont.probe_batch_vector(
            VectorBatch.from_tuples([probe]), ORIENTED, 10.0
        )
        assert [r.key() for r in vector.materialize()] == [
            r.key() for r in results
        ]

    def test_non_uniform_windows_use_min_pairwise_bound(self):
        cont = ColumnarContainer(bucket_width=1.0)
        cont.insert(s_tuple(0.0, a=1))
        probe = input_tuple("R", 4.0, {"a": 1})
        # min(R=10, S=3) = 3 < 4: excluded; min(R=10, S=5) = 5 > 4: match
        tight, _ = probe_batch(cont, (probe,), ORIENTED, {"R": 10.0, "S": 3.0})
        assert tight == []
        loose, _ = probe_batch(cont, (probe,), ORIENTED, {"R": 10.0, "S": 5.0})
        assert len(loose) == 1

    def test_predicate_free_probe_scans_everything(self):
        cont = ColumnarContainer(bucket_width=1.0)
        for ts in (1.0, 1.5, 2.0):
            cont.insert(s_tuple(ts, a=ts))
        probe = input_tuple("R", 3.0, {"x": 0})
        no_key = orient_predicates((), {"R"})
        results, checked = probe_batch(cont, (probe,), no_key, WINDOWS, 10.0)
        assert len(results) == 3 and checked == 3

    @pytest.mark.parametrize("uniform", [None, 4.0])
    @pytest.mark.parametrize("grid", [None, 0.25], ids=["continuous", "grid"])
    def test_randomized_parity_with_python_backend(self, uniform, grid):
        """1.5k random inserts/probes/evictions: identical results, checked
        counts, and freed widths across both backends (on the grid, many
        probes tie with stored rows and window edges)."""
        rng = random.Random(17 * (2 if uniform else 1) + int(grid is not None))
        py, col = Container(bucket_width=1.0), ColumnarContainer(bucket_width=1.0)
        windows = {"R": 4.0, "S": 4.0} if uniform else {"R": 5.0, "S": 3.0}
        t = 0.0
        for i in range(1500):
            t += rng.random() * 0.05
            ts = t if grid is None else t // grid * grid
            tup = s_tuple(ts, a=rng.randrange(5), b=rng.randrange(6))
            py.insert(tup)
            col.insert(tup)
            if i % 5 == 0:
                at = t + rng.random()
                probe = input_tuple(
                    "R",
                    at if grid is None else at // grid * grid,
                    {"a": rng.randrange(5), "b": rng.randrange(6)},
                )
                r1, c1 = probe_batch(py, (probe,), ORIENTED2, windows, uniform)
                r2, c2 = probe_batch(col, (probe,), ORIENTED2, windows, uniform)
                assert sorted(x.key() for x in r1) == sorted(x.key() for x in r2)
                assert c1 == c2
            if i % 40 == 39:
                assert py.evict_older_than(t - 6.0) == col.evict_older_than(t - 6.0)
                assert len(py) == len(col)
        assert sorted(x.key() for x in py.iter_tuples()) == sorted(
            x.key() for x in col.iter_tuples()
        )


class TestVectorBatch:
    """Unit contract of the hop-to-hop vector carriage: lifting, lazy
    materialization, and exact parity of ``probe_batch_vector`` with the
    materializing probe path."""

    def test_from_tuples_round_trip(self):
        from repro.engine.columnar import VectorBatch

        tups = [s_tuple(1.0, a=1, seq=3), s_tuple(2.0, a=2, seq=5)]
        vb = VectorBatch.from_tuples(tups)
        assert len(vb) == 2
        assert vb.materialize() == tups  # single-part chains: the inputs
        assert vb.values_of("S.a") == [1, 2]
        assert vb.values_of("S.missing") == [None, None]
        assert vb.trigger.tolist() == [1.0, 2.0]
        assert vb.seq.tolist() == [3, 5]
        assert vb.lineage == frozenset({"S"})

    def test_chain_materialization_matches_tuple_merge(self):
        from repro.engine.columnar import VectorBatch

        r = input_tuple("R", 2.0, {"a": 7, "b": 4})
        r.seq = 5
        s = s_tuple(1.0, a=7, b=4, seq=2)
        cont = ColumnarContainer(bucket_width=1.0)
        cont.insert(s)
        out, checked = cont.probe_batch_vector(
            VectorBatch.from_tuples([r]), ORIENTED, 10.0
        )
        assert checked == 1 and len(out) == 1
        merged = out.materialize()[0]
        expected = r.merge(s)
        assert merged.values == expected.values
        assert merged.timestamps == expected.timestamps
        assert merged.seq == expected.seq == 5
        assert merged.trigger == "R"
        assert out.latest.tolist() == [expected.latest_ts]
        assert out.earliest.tolist() == [expected.earliest_ts]
        assert out.lineage == frozenset({"R", "S"})

    @pytest.mark.parametrize("grid", [None, 0.25], ids=["continuous", "grid"])
    def test_vector_probe_parity_randomized(self, grid):
        """``probe_batch_vector`` == ``probe_batch`` over materialized
        probes: same results, same order, same checked counts."""
        from repro.engine.columnar import VectorBatch

        def on_grid(ts):
            return ts if grid is None else ts // grid * grid

        rng = random.Random(99 + int(grid is not None))
        cont = ColumnarContainer(bucket_width=1.0)
        t = 0.0
        for _ in range(300):
            t += rng.random() * 0.1
            cont.insert(s_tuple(on_grid(t), a=rng.randrange(4), b=rng.randrange(5)))
        probes = [
            input_tuple(
                "R",
                on_grid(rng.uniform(1.0, t + 1.0)),
                {"a": rng.randrange(5), "b": rng.randrange(6)},
            )
            for _ in range(40)
        ]
        expected, c1 = probe_batch(
            cont, tuple(probes), ORIENTED2, {"R": 4.0, "S": 4.0}, 4.0
        )
        vb, c2 = cont.probe_batch_vector(
            VectorBatch.from_tuples(probes), ORIENTED2, 4.0
        )
        got = [] if vb is None else vb.materialize()
        assert c1 == c2
        assert [g.key() for g in got] == [e.key() for e in expected]

    @pytest.mark.parametrize("mask_pairs", [1 << 16, 5])
    @pytest.mark.parametrize(
        "oriented", [ORIENTED, ORIENTED2, NO_KEY], ids=["one", "two", "none"]
    )
    def test_grouped_probe_parity(self, oriented, mask_pairs, monkeypatch):
        """Probes sharing a key are narrowed together against its
        candidates, in blocks of any size: results, order, ``checked`` and
        the carried scalar columns equal the tuple path's."""
        from repro.engine import columnar
        from repro.engine.columnar import VectorBatch

        monkeypatch.setattr(columnar, "_MASK_PAIRS", mask_pairs)
        rng = random.Random(7)
        cont = ColumnarContainer(bucket_width=1.0)
        t = 0.0
        for i in range(150):
            t += rng.random() * 0.05
            cont.insert(
                s_tuple(t, a=rng.randrange(3), b=rng.randrange(3), seq=i + 1)
            )
        probes = []
        for _ in range(60):
            # a and b = 3 were never stored: those probes match nothing
            p = input_tuple(
                "R",
                rng.uniform(0.5, t + 1.0),
                {"a": rng.randrange(4), "b": rng.randrange(4)},
            )
            p.seq = rng.randrange(1, 170)
            probes.append(p)
        expected, c1 = probe_batch(
            cont, tuple(probes), oriented, {"R": 2.0, "S": 2.0}, 2.0
        )
        vb, c2 = cont.probe_batch_vector(
            VectorBatch.from_tuples(probes), oriented, 2.0
        )
        assert expected and vb is not None
        got = vb.materialize()
        assert c1 == c2
        assert [g.key() for g in got] == [e.key() for e in expected]
        assert vb.trigger.tolist() == [e.trigger_ts for e in expected]
        assert vb.latest.tolist() == [e.latest_ts for e in expected]
        assert vb.earliest.tolist() == [e.earliest_ts for e in expected]
        assert vb.seq.tolist() == [e.seq for e in expected]

    def test_two_hops_merge_only_what_is_read(self, monkeypatch):
        """A survivor of a vector hop is merged when it is read, once, and
        an earlier hop's survivor only if a read needs it: the interior
        survivors that die at the next hop are never merged.  Values are
        read off the components without merging anything."""
        from repro.engine.columnar import VectorBatch
        from repro.engine.tuples import StreamTuple

        rng = random.Random(3)
        s_store = ColumnarContainer(bucket_width=1.0)
        t_store = ColumnarContainer(bucket_width=1.0)
        for i in range(120):
            ts = i * 0.02
            s_store.insert(s_tuple(ts, a=rng.randrange(3), b=rng.randrange(4)))
            t_store.insert(
                input_tuple("T", ts, {"b": rng.randrange(2, 10), "c": rng.randrange(5)})
            )
        probes = [
            input_tuple("R", 2.5 + i * 0.01, {"a": rng.randrange(3)}) for i in range(8)
        ]
        to_t = orient_predicates((JoinPredicate.of("S.b", "T.b"),), {"R", "S"})
        windows = {"R": 5.0, "S": 5.0, "T": 5.0}
        hop1, c1 = probe_batch(s_store, tuple(probes), ORIENTED, windows, 5.0)
        hop2, c2 = probe_batch(t_store, tuple(hop1), to_t, windows, 5.0)

        merges = []
        real_merge = StreamTuple.merge

        def counting_merge(self, other):
            merges.append(1)
            return real_merge(self, other)

        monkeypatch.setattr(StreamTuple, "merge", counting_merge)
        v1, d1 = s_store.probe_batch_vector(
            VectorBatch.from_tuples(probes), ORIENTED, 5.0
        )
        v2, d2 = t_store.probe_batch_vector(v1, to_t, 5.0)
        assert (d1, d2) == (c1, c2)
        assert len(v1) == len(hop1) and len(v2) == len(hop2)
        for attr in ("R.a", "S.a", "S.b", "T.b", "T.c", "T.zz"):
            assert v2.values_of(attr) == [e.get(attr) for e in hop2]
        assert not merges
        rows2 = v2.materialize()
        assert [g.key() for g in rows2] == [e.key() for e in hop2]
        needed = len(set(v2._probe_pos))
        assert 0 < needed < len(v1)  # some hop-1 survivors died at hop 2
        assert len(merges) == len(v2) + needed
        rows1 = v1.materialize()  # merges only the rest of hop 1
        assert [g.key() for g in rows1] == [e.key() for e in hop1]
        assert len(merges) == len(v2) + len(v1)
        assert v2.materialize() is rows2 and len(merges) == len(v2) + len(v1)
        # a name of no component relation is answered by the merged rows
        assert v2.values_of("Q.a") == [None] * len(v2)

    def test_empty_vector_probe_builds_no_columns(self):
        """Zero-survivor guard: probing an empty store must not activate
        lazy columns (downstream stores of an all-miss hop stay cold)."""
        from repro.engine.columnar import VectorBatch

        cont = ColumnarContainer(bucket_width=1.0)
        out, checked = cont.probe_batch_vector(
            VectorBatch.from_tuples([input_tuple("R", 1.0, {"a": 1})]),
            ORIENTED,
            10.0,
        )
        assert out is None and checked == 0
        assert cont.column_builds == 0

    def test_empty_python_container_probe_builds_no_index(self):
        """Same guard on the dict backend: no hash index on an empty store."""
        cont = Container(bucket_width=1.0)
        probe = input_tuple("R", 1.0, {"a": 1})
        results, checked = probe_batch(cont, (probe,), ORIENTED, WINDOWS)
        assert results == [] and checked == 0
        assert cont.index_rebuilds == 0

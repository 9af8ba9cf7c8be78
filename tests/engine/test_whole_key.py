"""Whole-key lookups: an equality probe costs what it matches.

Both store backends answer a probe on *all* equality attributes of its hop
(``orient_predicates`` -> ``HopKey``): the dict backend through one hash
index per distinct stored-side key, the columnar backend through a
combined code column plus per-bucket presence sets.  These tests pin the
contract with counts, never clocks:

* the three probe functions return the brute-force partner list in the
  same order with the same ``checked``, across inserts, evictions through
  the boundary bucket and a dump/load round trip — also when the combining
  modulus is so small that every combined code collides,
* a columnar probe scans only the buckets that can hold its key,
* hops listing the same equalities in another order share one structure,
* a NaN key value joins nothing, itself included (the oracle's ``!=``).
"""

import math
import pickle
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import JoinSession, RuntimeConfig
from repro.core import Query
from repro.core.predicates import JoinPredicate
from repro.engine import columnar
from repro.engine.columnar import ColumnarContainer, VectorBatch
from repro.engine.stores import (
    Container,
    load_container,
    orient_predicates,
    probe_batch,
)
from repro.engine.tuples import input_tuple

ATTRS = ["k0", "k1", "k2"]
WINDOW = 4.0
WINDOWS = {"R": WINDOW, "S": WINDOW}
#: one NaN object on purpose: dict lookups and interning match by identity
#: before equality, which is exactly the trap
NAN = float("nan")
#: ``1 == 1.0 == True`` and ``0 == False`` must land on the same key
VALUES = st.sampled_from([None, 0, False, 1, 1.0, True, "x", "1", NAN])


def hop(n_attrs):
    return orient_predicates(
        tuple(JoinPredicate.of(f"R.{a}", f"S.{a}") for a in ATTRS[:n_attrs]),
        {"R"},
    )


def make(relation, ts, values, seq):
    tup = input_tuple(relation, ts, values)
    tup.seq = seq
    return tup


def brute_force(model, probe, n_attrs):
    """(partner keys in arrival order, stored tuples equal on the whole key)."""
    partners, agreeing = [], 0
    for stored in model:
        if any(
            probe.values[f"R.{a}"] != stored.values[f"S.{a}"] for a in ATTRS[:n_attrs]
        ):
            continue
        agreeing += 1
        # no arrival rule: a stored tuple at the probe's timestamp joins
        if probe.within_uniform_window(stored, WINDOW):
            partners.append(probe.merge(stored).key())
    return partners, agreeing


def key_values(n_attrs):
    return st.fixed_dictionaries({a: VALUES for a in ATTRS[:n_attrs]})


@st.composite
def scenarios(draw):
    n_attrs = draw(st.integers(1, 3))
    steps = st.one_of(
        st.tuples(st.just("insert"), st.integers(0, 6), key_values(n_attrs)),
        st.tuples(st.just("probe"), st.integers(0, 6), key_values(n_attrs)),
        st.tuples(st.just("evict"), st.integers(0, 40), st.none()),
    )
    before = draw(st.lists(steps, min_size=1, max_size=40))
    after = draw(st.lists(steps, min_size=1, max_size=40))
    return n_attrs, before, after


def check_scenario(n_attrs, before, after):
    """Drive both backends and a plain list through the same steps; the
    containers are swapped for their dump/load clones between the halves."""
    oriented = hop(n_attrs)
    # bucket width 0.25: evictions cut through a boundary bucket
    conts = [Container(bucket_width=0.25), ColumnarContainer(bucket_width=0.25)]
    model = []
    clock = [0.0, 0]

    def run(steps):
        for op, amount, values in steps:
            clock[1] += 1
            if op == "insert":
                clock[0] += amount * 0.05  # non-decreasing: one arrival order
                tup = make("S", clock[0], values, clock[1])
                model.append(tup)
                for cont in conts:
                    cont.insert(tup)
            elif op == "probe":
                probe = make("R", clock[0] + amount * 0.05, values, clock[1])
                check_probe(probe)
            else:
                horizon = clock[0] - amount * 0.05
                freed = {cont.evict_older_than(horizon) for cont in conts}
                evicted = [t for t in model if t.latest_ts < horizon]
                model[:] = [t for t in model if t.latest_ts >= horizon]
                assert freed == {sum(t.width for t in evicted)}
                assert {len(cont) for cont in conts} == {len(model)}

    def check_probe(probe):
        want, agreeing = brute_force(model, probe, n_attrs)
        py, col = conts
        answers = [
            probe_batch(py, (probe,), oriented, WINDOWS, WINDOW),
            col.probe_batch((probe,), oriented, WINDOWS, WINDOW),
        ]
        vector, checked = col.probe_batch_vector(
            VectorBatch.from_tuples([probe]), oriented, WINDOW
        )
        answers.append(([] if vector is None else vector.materialize(), checked))
        for results, checked in answers:
            assert [r.key() for r in results] == want
            assert checked == agreeing

    run(before)
    if model:
        # the round trip is taken with the hop's structures active
        last = {a: model[-1].values[f"S.{a}"] for a in ATTRS[:n_attrs]}
        check_probe(make("R", clock[0], last, clock[1] + 1))
    conts[:] = [
        load_container(pickle.loads(pickle.dumps(cont.dump_state())))
        for cont in conts
    ]
    run(after)


class TestWholeKeyProbeParity:
    @given(scenario=scenarios())
    @settings(max_examples=60, deadline=None)
    def test_three_probe_functions_equal_brute_force(self, scenario):
        check_scenario(*scenario)

    @given(scenario=scenarios())
    @settings(max_examples=60, deadline=None)
    def test_colliding_combined_codes_cost_comparisons_not_results(self, scenario):
        """With a one-bit modulus nearly every pair of keys shares a combined
        code; verification against the per-attribute columns must weed the
        strangers out before they are counted."""
        with mock.patch.object(columnar, "_KEY_MASK", 1):
            assert columnar._combine_codes([0, 1]) == columnar._combine_codes([2, 1])
            check_scenario(*scenario)

    def test_combined_code_is_the_same_on_scalar_and_array_paths(self):
        """Insert path (Python ints), backfill path (wrapping int64 arrays):
        one arithmetic, also past 64 bits and for the never-joining -1."""
        import numpy as np

        rows = [[5, 0, 7], [2**40, 2**41, 3], [3, -1, 9], [0, 0, 0]]
        columns = [np.array(col, dtype=np.int64) for col in zip(*rows)]
        assert columnar._combine_columns(columns).tolist() == [
            columnar._combine_codes(row) for row in rows
        ]
        assert columnar._combine_codes(rows[2]) == -1
        assert all(0 <= columnar._combine_codes(rows[i]) < 2**62 for i in (0, 1, 3))


class TestBucketSkipping:
    """The cost of a columnar probe is numpy dispatches per scanned bucket;
    presence sets keep it to the buckets that can hold the key."""

    @pytest.fixture
    def scans(self, monkeypatch):
        calls = []
        real = columnar.np.flatnonzero

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(columnar.np, "flatnonzero", counting)
        return calls

    @staticmethod
    def sixteen_buckets():
        cont = ColumnarContainer(bucket_width=1.0)
        for i in range(16):
            for j in range(4):
                # k0 = j is in every bucket, k1 = i and (k0, k1) in exactly
                # one; the combination (3, 9) is left out
                if (j, i) != (3, 9):
                    cont.insert(
                        make("S", i + j * 0.2, {"k0": j, "k1": i}, 4 * i + j + 1)
                    )
        assert len(cont._buckets) == 16
        return cont

    @pytest.mark.parametrize("vector", [False, True])
    def test_composite_key_scans_one_bucket_or_none(self, scans, vector):
        cont = self.sixteen_buckets()
        oriented = hop(2)

        def probe(k0, k1):
            tup = make("R", 100.0, {"k0": k0, "k1": k1}, 1000)
            if vector:
                return cont.probe_batch_vector(
                    VectorBatch.from_tuples([tup]), oriented, 1000.0
                )[1]
            return cont.probe_batch((tup,), oriented, {}, 1000.0)[1]

        probe(0, 0)  # activates the columns
        del scans[:]
        assert probe(2, 9) == 1
        assert len(scans) == 1
        del scans[:]
        # both values are stored, their combination is not
        assert probe(3, 9) == 0
        # a value no row ever had
        assert probe(2, 99) == 0
        assert scans == []

    def test_single_key_scans_the_buckets_that_hold_it(self, scans):
        cont = self.sixteen_buckets()
        single = orient_predicates((JoinPredicate.of("R.k1", "S.k1"),), {"R"})
        everywhere = orient_predicates((JoinPredicate.of("R.k0", "S.k0"),), {"R"})
        tup = make("R", 100.0, {"k0": 2, "k1": 5}, 1000)
        cont.probe_batch((tup,), single, {}, 1000.0)
        cont.probe_batch((tup,), everywhere, {}, 1000.0)
        del scans[:]
        assert cont.probe_batch((tup,), single, {}, 1000.0)[1] == 4
        assert len(scans) == 1
        del scans[:]
        assert cont.probe_batch((tup,), everywhere, {}, 1000.0)[1] == 16
        assert len(scans) == 16
        # an evicted value keeps its code but is present nowhere
        cont.evict_older_than(6.0)
        del scans[:]
        assert cont.probe_batch((tup,), single, {}, 1000.0)[1] == 0
        assert scans == []

    def test_presence_follows_the_boundary_bucket(self, scans):
        cont = self.sixteen_buckets()
        oriented = hop(2)
        tup = make("R", 100.0, {"k0": 0, "k1": 5}, 1000)
        assert cont.probe_batch((tup,), oriented, {}, 1000.0)[1] == 1
        # bucket 5 holds ts 5.0, 5.2, 5.4, 5.6: cut the first row out of it
        cont.evict_older_than(5.1)
        del scans[:]
        assert cont.probe_batch((tup,), oriented, {}, 1000.0)[1] == 0
        assert scans == []
        survivor = make("R", 100.0, {"k0": 1, "k1": 5}, 1000)
        assert cont.probe_batch((survivor,), oriented, {}, 1000.0)[1] == 1
        assert len(scans) == 1


class TestOneStructurePerKey:
    AB = (JoinPredicate.of("R.a", "S.a"), JoinPredicate.of("R.b", "S.b"))

    @staticmethod
    def filled(cls):
        cont = cls(bucket_width=1.0)
        for i in range(12):
            cont.insert(make("S", i * 0.3, {"a": i % 2, "b": i % 3}, i + 1))
        return cont

    def test_listing_order_does_not_matter(self):
        ab = orient_predicates(self.AB, {"R"})
        ba = orient_predicates(self.AB[::-1], {"R"})
        assert ab == ba
        assert ab.key == ("S.a", "S.b") and ab.probe_attrs == ("R.a", "R.b")
        # a hop from another relation resolves to the same stored-side key
        other = orient_predicates(
            (JoinPredicate.of("T.y", "S.b"), JoinPredicate.of("S.a", "T.x")), {"T"}
        )
        assert other.key == ab.key and other.probe_attrs == ("T.x", "T.y")

    def test_hops_with_the_same_key_share_one_index(self):
        ab = orient_predicates(self.AB, {"R"})
        ba = orient_predicates(self.AB[::-1], {"R"})
        probe = make("R", 50.0, {"a": 1, "b": 2}, 99)
        py, col = self.filled(Container), self.filled(ColumnarContainer)
        for oriented in (ab, ba):
            r1, c1 = probe_batch(py, (probe,), oriented, {}, 100.0)
            r2, c2 = probe_batch(col, (probe,), oriented, {}, 100.0)
            assert c1 == c2 == 2
            assert [r.key() for r in r1] == [r.key() for r in r2]
        assert py.index_rebuilds == 1
        assert list(py.composite_indexes) == [("S.a", "S.b")] and not py.indexes
        # S.a and S.b to verify against, (S.a, S.b) to probe
        assert col.column_builds == 3

    def test_hops_with_different_keys_each_get_their_own(self):
        a_only = orient_predicates(self.AB[:1], {"R"})
        ab = orient_predicates(self.AB, {"R"})
        assert a_only.key == "S.a"
        probe = make("R", 50.0, {"a": 1, "b": 2}, 99)
        py, col = self.filled(Container), self.filled(ColumnarContainer)
        for cont in (py, col):
            assert probe_batch(cont, (probe,), a_only, {}, 100.0)[1] == 6
            assert probe_batch(cont, (probe,), ab, {}, 100.0)[1] == 2
            # both structures are maintained by later inserts
            cont.insert(make("S", 4.0, {"a": 1, "b": 2}, 50))
            assert probe_batch(cont, (probe,), a_only, {}, 100.0)[1] == 7
            assert probe_batch(cont, (probe,), ab, {}, 100.0)[1] == 3
        assert py.index_rebuilds == 2
        assert col.column_builds == 3


class TestNanNeverJoins:
    """``NaN != NaN``: the brute-force oracle never joins it, and every
    ``NaN`` literal ``json.loads`` decodes is one and the same object — so
    an index or interning table that matches by identity invents results."""

    @pytest.mark.parametrize("backend", ["python", "columnar"])
    @pytest.mark.parametrize("vectorized", [True, False])
    @pytest.mark.parametrize("position", ["a", "b"])
    def test_engine_agrees_with_oracle(self, backend, vectorized, position):
        session = JoinSession(
            window=10,
            record_streams=True,
            runtime_config=RuntimeConfig(
                store_backend=backend, vectorized_cascades=vectorized
            ),
        )
        session.add_query(Query.of("q", "R.a=S.a", "R.b=S.b"))
        session.add_query(Query.of("single", f"R.{position}=S.{position}"))
        values = {"a": 1, "b": 2, position: NAN}
        session.push("R", dict(values), 1.0)
        session.push("S", dict(values), 2.0)
        # the same NaN object on both sides, then an ordinary pair
        session.push("R", {"a": 1, "b": 2}, 3.0)
        session.push("S", {"a": 1, "b": 2}, 4.0)
        session.push("R", dict(values), 5.0)
        session.flush()
        report = session.verify()
        assert report.ok, report
        for name in ("q", "single"):
            keys = [r.key() for r in session.results(name)]
            assert len(keys) == 1, keys
            assert not any(
                isinstance(v, float) and math.isnan(v)
                for r in session.results(name)
                for v in r.values.values()
            )

    @pytest.mark.parametrize("cls", [Container, ColumnarContainer])
    def test_nan_enters_no_index_and_no_code_table(self, cls):
        cont = cls(bucket_width=1.0)
        cont.insert(make("S", 0.5, {"k0": NAN, "k1": 1}, 1))
        cont.insert(make("S", 0.6, {"k0": 2, "k1": NAN}, 2))
        probe = make("R", 5.0, {"k0": NAN, "k1": 1}, 9)
        for oriented in (hop(1), hop(2)):
            assert probe_batch(cont, (probe,), oriented, WINDOWS, WINDOW) == ([], 0)
            cont.insert(make("S", 0.7, {"k0": NAN, "k1": NAN}, 3))
        if cls is Container:
            assert list(cont.indexes["S.k0"]) == [2]
            assert cont.composite_indexes[("S.k0", "S.k1")] == {}
        else:
            assert list(cont._value_codes["S.k0"]) == [2]
            assert list(cont._value_codes["S.k1"]) == [1]
        # evicting rows that were never indexed leaves the rest intact
        assert cont.evict_older_than(0.55) == 1
        assert len(cont) == 3
        match = make("R", 5.0, {"k0": 2, "k1": 7}, 9)
        assert probe_batch(cont, (match,), hop(1), WINDOWS, WINDOW)[1] == 1

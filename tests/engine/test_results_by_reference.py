"""A join result is a reference, not a copy.

``StreamTuple.merge`` links its two parents and builds ``values`` /
``timestamps`` only when they are read.  These tests hold every read of a
lazily merged tuple — in any order, at any depth of a merge tree — to the
eager merge it replaced, and pin what the change is for: one GC-tracked
object and no dict per retained result, an intermediate shared by many
results built once, and flat pickles that never carry the parent chain.
"""

import gc
import math
import pickle
import tracemalloc
from typing import Dict, List, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.tuples import StreamTuple, input_tuple


class Eager:
    """The reference fold: the eager merge ``StreamTuple.merge`` was,
    copying both parents' dicts (left first, last writer wins)."""

    def __init__(self, tup: StreamTuple) -> None:
        self.values: Dict[str, object] = dict(tup.values)
        self.timestamps: Dict[str, float] = dict(tup.timestamps)
        self.trigger = tup.trigger
        self.trigger_ts = tup.trigger_ts
        self.latest_ts = tup.latest_ts
        self.earliest_ts = tup.earliest_ts
        self.lineage = frozenset(tup.timestamps)
        self.seq = tup.seq

    def merge(self, other: "Eager") -> "Eager":
        if not self.lineage.isdisjoint(other.lineage):
            raise ValueError("cannot merge tuples with overlapping lineage")
        merged = Eager.__new__(Eager)
        merged.values = dict(self.values)
        merged.values.update(other.values)
        merged.timestamps = dict(self.timestamps)
        merged.timestamps.update(other.timestamps)
        merged.trigger = self.trigger
        merged.trigger_ts = self.trigger_ts
        merged.latest_ts = max(self.latest_ts, other.latest_ts)
        merged.earliest_ts = min(self.earliest_ts, other.earliest_ts)
        merged.lineage = self.lineage | other.lineage
        merged.seq = max(self.seq, other.seq)
        return merged

    def key(self):
        return (
            tuple(sorted(self.timestamps.items())),
            tuple(sorted((k, repr(v)) for k, v in self.values.items())),
        )


def same(a: object, b: object) -> bool:
    """Equality that holds NaN equal to NaN and compares dicts in order."""
    return repr(a) == repr(b)


RELATIONS = ["R", "S", "T", "U", "V"]
ATTRS = ["a", "b", "c"]
VALUES = st.one_of(
    st.none(),
    st.integers(-2, 2),
    st.just(math.nan),
    st.floats(allow_nan=True, allow_infinity=False, width=32),
    st.text(max_size=2),
)
READS = ["get", "values", "timestamps", "width", "lineage", "key", "pickle"]
#: attributes a read asks for: every stored one, absent ones of relations
#: in the lineage, and names no relation of the tree carries
LOOKUPS = [f"{rel}.{attr}" for rel in RELATIONS for attr in ATTRS + ["zz"]] + [
    "Q.a",
    "a",
]


def check_read(lazy: StreamTuple, ref: Eager, kind: str, attr: str) -> None:
    if kind == "get":
        assert same(lazy.get(attr), ref.values.get(attr))
    elif kind == "values":
        assert same(list(lazy.values.items()), list(ref.values.items()))
    elif kind == "timestamps":
        assert same(list(lazy.timestamps.items()), list(ref.timestamps.items()))
    elif kind == "width":
        assert lazy.width == len(ref.timestamps)
    elif kind == "lineage":
        assert lazy.lineage == ref.lineage
    elif kind == "key":
        assert lazy.key() == ref.key()
    else:
        check_all(pickle.loads(pickle.dumps(lazy)), ref, round_trip=False)


def check_all(lazy: StreamTuple, ref: Eager, round_trip: bool = True) -> None:
    assert (lazy.trigger, lazy.trigger_ts, lazy.seq) == (
        ref.trigger,
        ref.trigger_ts,
        ref.seq,
    )
    assert (lazy.latest_ts, lazy.earliest_ts) == (ref.latest_ts, ref.earliest_ts)
    for attr in LOOKUPS:
        assert same(lazy.get(attr), ref.values.get(attr))
    for kind in READS:
        if kind != "get" and (round_trip or kind != "pickle"):
            check_read(lazy, ref, kind, "")


class TestLazyMergeEqualsEagerMerge:
    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_random_merge_trees_read_in_random_order(self, data):
        relations = data.draw(
            st.lists(st.sampled_from(RELATIONS), min_size=2, max_size=5, unique=True)
        )
        # every node ever built: (lazy, reference); ``roots`` can still merge
        nodes = []
        for relation in relations:
            values = data.draw(
                st.dictionaries(st.sampled_from(ATTRS), VALUES, max_size=3)
            )
            ts = data.draw(st.floats(-50, 50))
            leaf = input_tuple(relation, ts, values)
            leaf.seq = data.draw(st.integers(0, 9))
            nodes.append((leaf, Eager(leaf)))
        roots = list(range(len(nodes)))
        reads = data.draw(st.integers(0, 15))
        while len(roots) > 1 or reads:
            if len(roots) > 1 and (not reads or data.draw(st.booleans())):
                i, j = data.draw(
                    st.lists(
                        st.sampled_from(roots), min_size=2, max_size=2, unique=True
                    )
                )
                (left, left_ref), (right, right_ref) = nodes[i], nodes[j]
                nodes.append((left.merge(right), left_ref.merge(right_ref)))
                roots = [r for r in roots if r not in (i, j)] + [len(nodes) - 1]
            else:
                reads -= 1
                lazy, ref = nodes[data.draw(st.integers(0, len(nodes) - 1))]
                check_read(
                    lazy,
                    ref,
                    data.draw(st.sampled_from(READS)),
                    data.draw(st.sampled_from(LOOKUPS)),
                )
        for lazy, ref in nodes:
            check_all(lazy, ref)

    def test_overlapping_lineage_raises_whatever_is_memoized(self):
        r = input_tuple("R", 1.0, {"a": 1})
        s = input_tuple("S", 2.0, {"a": 1})
        t = input_tuple("T", 3.0, {"a": 1})
        rs = r.merge(s)
        for _ in range(2):
            s.merge(r)  # memoizes the reverse pair
            rs.merge(t)
            for left, right in [(r, rs), (rs, r), (rs, s), (rs, rs), (r, r)]:
                with pytest.raises(ValueError, match="overlapping lineage"):
                    left.merge(right)

    def test_lineages_are_shared(self):
        r1 = input_tuple("R", 1.0, {"a": 1})
        r2 = input_tuple("R", 2.0, {"a": 2})
        s = input_tuple("S", 2.0, {"a": 1})
        assert r1.lineage is r2.lineage
        assert r1.merge(s).lineage is r2.merge(s).lineage
        assert r1.merge(s).lineage is s.merge(r2).lineage


def two_way(n: int) -> List[Tuple[StreamTuple, StreamTuple]]:
    """``n`` probe / stored pairs of six attributes per side."""
    attrs = {name: 0 for name in "abcdef"}
    pairs = [
        (input_tuple("R", i + 1.0, attrs), input_tuple("S", float(i), attrs))
        for i in range(n)
    ]
    pairs[0][0].merge(pairs[0][1])  # the lineage union is memoized
    return pairs


class TestFootprint:
    N = 5000

    def test_a_retained_result_is_one_tracked_object(self):
        pairs = two_way(self.N)
        gc.collect()
        gc.disable()
        try:
            before = len(gc.get_objects())
            results = [r.merge(s) for r, s in pairs]
            added = len(gc.get_objects()) - before
        finally:
            gc.enable()
        assert len(results) == self.N
        assert added / self.N <= 1.01

    def test_a_retained_result_costs_no_dict(self):
        pairs = two_way(self.N)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            results = [r.merge(s) for r, s in pairs]
            added = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(results) == self.N
        assert added / self.N <= 200


class TestFlatPickles:
    @staticmethod
    def merged() -> StreamTuple:
        r = input_tuple("R", 2.0, {"a": 1, "b": None})
        r.seq = 7
        s = input_tuple("S", 1.5, {"a": 1, "c": "x"})
        s.seq = 3
        return r.merge(s)

    def test_a_lazy_tuple_pickles_like_an_eager_one(self):
        lazy = self.merged()
        assert lazy._values is None  # a lazily merged tuple
        eager = StreamTuple(
            {"R.a": 1, "R.b": None, "S.a": 1, "S.c": "x"},
            {"R": 2.0, "S": 1.5},
            "R",
            2.0,
        )
        eager.seq = 7
        assert pickle.dumps(lazy) == pickle.dumps(eager)
        loaded = pickle.loads(pickle.dumps(lazy))
        assert loaded.values == eager.values and loaded.timestamps == eager.timestamps
        assert loaded.lineage is eager.lineage

    def test_pickling_leaves_the_live_tuple_unbuilt(self):
        lazy = self.merged()
        pickle.dumps(lazy)
        assert lazy._values is None and lazy._timestamps is None

    #: ``pickle.dumps`` of an input tuple and of a merged one, written by
    #: the eager implementation (R@2.0 {a: 1, b: None} seq 7, S@1.5
    #: {a: 1, c: "x"} seq 3)
    EAGER_INPUT = bytes.fromhex(
        "800595d0000000000000008c13726570726f2e656e67696e652e7475706c6573948c"
        "0b53747265616d5475706c659493942981944e7d94288c0676616c756573947d9428"
        "8c03522e61944b018c03522e62944e758c0a74696d657374616d7073947d948c0152"
        "94474000000000000000738c077472696767657294680b8c0a747269676765725f74"
        "73944740000000000000008c096c61746573745f7473944740000000000000008c0b"
        "6561726c696573745f7473944740000000000000008c076c696e656167659428680b"
        "91948c03736571944b07758694622e"
    )
    EAGER_MERGED = bytes.fromhex(
        "800595f2000000000000008c13726570726f2e656e67696e652e7475706c6573948c"
        "0b53747265616d5475706c659493942981944e7d94288c0676616c756573947d9428"
        "8c03522e61944b018c03522e62944e8c03532e61944b018c03532e63948c01789475"
        "8c0a74696d657374616d7073947d94288c0152944740000000000000008c01539447"
        "3ff8000000000000758c077472696767657294680e8c0a747269676765725f747394"
        "4740000000000000008c096c61746573745f7473944740000000000000008c0b6561"
        "726c696573745f747394473ff80000000000008c076c696e656167659428680e680f"
        "91948c03736571944b07758694622e"
    )

    def test_eager_pickles_load_and_input_bytes_are_unchanged(self):
        r = input_tuple("R", 2.0, {"a": 1, "b": None})
        r.seq = 7
        assert pickle.dumps(r, protocol=5) == self.EAGER_INPUT
        loaded = pickle.loads(self.EAGER_MERGED)
        assert list(loaded.values.items()) == list(self.merged().values.items())
        assert loaded.timestamps == {"R": 2.0, "S": 1.5}
        assert loaded.lineage is self.merged().lineage
        assert (loaded.latest_ts, loaded.earliest_ts, loaded.seq) == (2.0, 1.5, 7)
        assert loaded.merge(input_tuple("T", 3.0, {"a": 1})).get("S.c") == "x"


class TestSharedIntermediates:
    def test_a_shared_intermediate_is_built_once(self, monkeypatch):
        """Reading every result of a fan-out tree — one ``R ⋈ S ⋈ T``
        intermediate under 45 results — builds each tuple's dicts once:
        the intermediate is built in place on the first read, not
        re-flattened for every result."""
        builds: Dict[int, int] = {}
        for name in ("_materialize", "_flatten"):
            real = getattr(StreamTuple, name)

            def counting(self, real=real):
                builds[id(self)] = builds.get(id(self), 0) + 1
                return real(self)

            monkeypatch.setattr(StreamTuple, name, counting)
        r = input_tuple("R", 1.0, {"a": 1, "b": 2})
        s = input_tuple("S", 2.0, {"a": 1, "c": 3})
        rs = r.merge(s)
        rst = rs.merge(input_tuple("T", 3.0, {"c": 3}))
        results = [
            rst.merge(input_tuple("U", 4.0 + i, {"d": i})) for i in range(45)
        ]
        for result in results:
            assert result.values["R.b"] == 2 and result.timestamps["S"] == 2.0
        assert builds[id(rst)] == 1 and builds[id(rs)] == 1
        assert sum(builds.values()) == 45 + 2
        assert rst._values is not None  # kept: later readers reuse it

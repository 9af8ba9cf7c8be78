"""Rewire backfill: an indexed join held to the oracle's *list*.

``compute_backfill`` fills a freshly introduced MIR store.  Everywhere else
the engine is compared with ``reference_join`` as a set of result keys; a
backfilled list is inserted into live stores in order and pickled into
snapshots, so here — and only here — the comparison is element for element,
dict insertion order included.  The second contract is the work bound: the
join visits the MIR's relations in a connected order, so its cost follows
the matches and not the product of the stream sizes; that is pinned with a
call budget that fails fast, never with a clock.
"""

import random

import pytest

from repro.core.mir import Mir
from repro.core.predicates import JoinPredicate
from repro.core.probe_order import maintenance_query
from repro.core.topology import StoreSpec
from repro.engine import compute_backfill, reference_join
from repro.engine.tuples import StreamTuple, input_tuple

#: one NaN object on purpose: a dict lookup matches it with itself by
#: identity, the oracle's ``!=`` does not
NAN = float("nan")
#: ``1 == 1.0 == True`` share a key (drawn most often, so that cases join);
#: ``None`` equals a missing attribute
VALUES = [1, 1, 1.0, True, 0, None, NAN]

SHAPES = {
    "chain": ["A.x=B.x", "B.y=C.y"],
    # name order opens with a predicate-free A x B hop
    "cross_product_first": ["A.x=C.x", "B.y=C.y"],
    "cycle": ["A.x=B.x", "B.y=C.y", "A.z=C.z"],
    "two_predicates": ["A.x=B.x", "A.y=B.y"],
    # hub last by name: the connected order is A, D, B, C
    "star4": ["A.x=D.x", "B.y=D.y", "C.z=D.z"],
}
CASES_PER_SHAPE = 200


def spec_of(equalities):
    predicates = frozenset(JoinPredicate.of(*eq.split("=")) for eq in equalities)
    relations = frozenset(rel for p in predicates for rel in p.relations)
    mir = Mir(relations=relations, predicates=predicates)
    return StoreSpec(
        store_id=mir.display_name,
        mir=mir,
        partition_attr=None,
        parallelism=1,
        retention=float("inf"),
    )


def signature(tuples):
    """Everything a store, a probe or a pickled snapshot can see of a tuple."""
    return [
        (
            list(t.timestamps.items()),
            list(t.values.items()),
            t.trigger,
            t.trigger_ts,
            t.seq,
            t.earliest_ts,
            t.latest_ts,
        )
        for t in tuples
    ]


def random_case(rng, spec):
    """Unsorted streams with tied timestamps, ``None``/NaN/missing values and
    random arrival sequences; uniform or per-relation windows."""
    relations = sorted(spec.mir.relations)
    attrs = {
        rel: sorted(
            p.attribute_of(rel).name for p in spec.mir.predicates if p.involves(rel)
        )
        for rel in relations
    }
    distinct_ts = rng.random() < 0.5
    streams = {}
    for rel in relations:
        stream = []
        # now and then an empty stream
        for _ in range(rng.randrange(3, 11) if rng.random() < 0.9 else 0):
            ts = rng.uniform(0, 4) if distinct_ts else float(rng.randrange(0, 4))
            values = {
                attr: rng.choice(VALUES)
                for attr in attrs[rel]
                if rng.random() < 0.9  # else: the attribute is missing
            }
            tup = input_tuple(rel, ts, values)
            tup.seq = rng.randrange(0, 50)
            stream.append(tup)
        streams[rel] = stream
    if rng.random() < 0.5:
        windows = dict.fromkeys(relations, rng.choice([1.0, 3.0, 10.0]))
    else:
        windows = {rel: rng.choice([0.5, 2.0, 5.0]) for rel in relations}
        if rng.random() < 0.3:
            del windows[relations[0]]  # an undeclared window is infinite
    return streams, windows


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_backfill_is_the_oracles_list(shape):
    spec = spec_of(SHAPES[shape])
    query = maintenance_query(spec.mir)
    rng = random.Random(f"backfill-{shape}")
    produced = nonempty = 0
    for _ in range(CASES_PER_SHAPE):
        streams, windows = random_case(rng, spec)
        expected = reference_join(query, streams, windows)
        got = compute_backfill(spec, streams, windows)
        assert signature(got) == signature(expected)
        produced += len(expected)
        nonempty += bool(expected)
    # the comparison is not of empty lists
    assert nonempty > CASES_PER_SHAPE // 4 and produced > 2 * CASES_PER_SHAPE


def test_nan_joins_nothing_and_none_joins_none():
    spec = spec_of(SHAPES["two_predicates"])
    streams = {
        "A": [
            input_tuple("A", 1.0, {"x": NAN, "y": 1}),
            input_tuple("A", 2.0, {"x": None}),  # y missing
        ],
        "B": [
            input_tuple("B", 1.5, {"x": NAN, "y": True}),
            input_tuple("B", 2.5, {"x": None, "y": None}),
        ],
    }
    got = compute_backfill(spec, streams, {})
    assert [sorted(t.timestamps.items()) for t in got] == [[("A", 2.0), ("B", 2.5)]]
    assert signature(got) == signature(
        reference_join(maintenance_query(spec.mir), streams, {})
    )


@pytest.mark.parametrize(
    "streams",
    [
        {},
        {"A": [], "B": [], "C": []},
        {"A": [input_tuple("A", 1.0, {"x": 1})]},
        {
            "A": [input_tuple("A", 1.0, {"x": 1})],
            "B": [],
            "C": [input_tuple("C", 1.0, {"x": 1, "y": 1})],
        },
    ],
    ids=["no_streams", "all_empty", "missing_relations", "one_empty"],
)
def test_empty_and_missing_streams_backfill_nothing(streams):
    spec = spec_of(SHAPES["cross_product_first"])
    assert compute_backfill(spec, streams, {"A": 5.0}) == []
    assert reference_join(maintenance_query(spec.mir), streams, {"A": 5.0}) == []


def test_backfill_work_follows_the_matches(monkeypatch):
    """1,500 unique keys per relation on ``A.x=C.x AND B.y=C.y``: a join in
    name order opens with the predicate-free ``A x B`` hop (2.25 M window
    checks) and the brute-force oracle does far more; the connected order
    needs a few calls per result.  The counters raise at the budget, so a
    regression fails in milliseconds instead of hanging the suite."""
    n = 1500
    budget = 20 * n
    calls = {"merge": 0, "within_windows": 0}

    def counted(name):
        original = getattr(StreamTuple, name)

        def wrapper(self, *args):
            calls[name] += 1
            if sum(calls.values()) > budget:
                raise AssertionError(f"backfill exceeded {budget} calls: {calls}")
            return original(self, *args)

        monkeypatch.setattr(StreamTuple, name, wrapper)

    counted("merge")
    counted("within_windows")
    spec = spec_of(SHAPES["cross_product_first"])
    streams = {
        "A": [input_tuple("A", i * 0.001, {"x": i}) for i in range(n)],
        "B": [input_tuple("B", i * 0.001, {"y": i}) for i in range(n)],
        "C": [input_tuple("C", i * 0.001, {"x": i, "y": i}) for i in range(n)],
    }
    got = compute_backfill(spec, streams, {"A": 10.0, "B": 10.0, "C": 10.0})
    assert [t.values["C.x"] for t in got] == list(range(n))
    assert list(got[0].timestamps) == ["A", "B", "C"]
    assert 0 < sum(calls.values()) <= budget

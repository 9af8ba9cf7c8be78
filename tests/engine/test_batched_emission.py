"""Results leave a cascade in batches, and the engine's metrics keep
nothing per result.

``Runtime._emit(query, results)`` counts, collects and delivers one probe
batch's results of one query in a single call; the session still fires
its callbacks result by result, in the order of the per-result emission
it replaced.  The sharded driver emits each run of consecutive same-query
results of its merge at once.  Per-result latency is the timed
simulator's (``TimedMetrics``): in the push engine it could only be 0.
"""

import hashlib
import pickle

import pytest

from repro import JoinSession, Query, RuntimeConfig, TopologyRuntime
from repro.engine.metrics import EngineMetrics
from repro.engine.sharding import ShardedRuntime
from repro.streams import generate_streams, ten_query_workload, tpch_specs

#: the TPC-H queries of the feed below: q8 is the many-to-many status join
#: (hundreds of results per probe batch), q6 and q7 are PK/FK chains
QUERIES = ("q6", "q7", "q8")


def three_queries():
    by_name = {query.name: query for query in ten_query_workload()}
    return [by_name[name] for name in QUERIES]


def tpch3_feed(inputs, queries=None, seed=3):
    """The first ``inputs`` tuples of a TPC-H feed over what the queries
    (by default q6-q8) read."""
    queries = queries or three_queries()
    read = {rel for query in queries for rel in query.relations}
    specs = [spec for spec in tpch_specs(200.0) if spec.relation in read]
    rate = sum(spec.rate for spec in specs)
    _, feed = generate_streams(specs, inputs / rate * 1.05 + 1.0, seed=seed)
    assert len(feed) >= inputs
    return feed[:inputs]


def three_query_session(window=2.0, **kwargs):
    session = JoinSession(window=window, **kwargs)
    for query in three_queries():
        session.add_query(query)
    return session


class TestBatchedEmission:
    @pytest.mark.parametrize("backend", ["python", "columnar"])
    def test_subscriber_interleaving_is_pinned(self, backend):
        """Two callbacks on q8 and one on q6 (subscribed between them): each
        q8 result reaches both q8 callbacks before the next q8 result does.
        The digest is what per-result emission produced."""
        session = three_query_session(store_backend=backend)
        seen = []
        session.subscribe("q8", lambda r: seen.append(f"a q8 {r.key()}"))
        session.subscribe("q6", lambda r: seen.append(f"c q6 {r.key()}"))
        session.subscribe("q8", lambda r: seen.append(f"b q8 {r.key()}"))
        session.push_batch(tpch3_feed(6000))
        session.flush()
        per_query = session.metrics.results_per_query
        assert per_query == {"q8": 14377, "q6": 28, "q7": 26}
        assert len(seen) == 2 * per_query["q8"] + per_query["q6"]
        q8 = [line for line in seen if " q8 " in line]
        assert all(
            a.startswith("a ") and b == "b" + a[1:] for a, b in zip(q8[::2], q8[1::2])
        )
        digest = hashlib.sha256("\n".join(seen).encode()).hexdigest()[:16]
        assert digest == "6f8fc7f9cdfc4348"

    def test_on_result_counts_batches(self, monkeypatch):
        """One ``on_result`` per rule, query and probe batch: on an
        output-heavy feed that is at most one call per ten results."""
        calls = []
        on_result = EngineMetrics.on_result

        def counting(self, query, count):
            calls.append(count)
            on_result(self, query, count)

        monkeypatch.setattr(EngineMetrics, "on_result", counting)
        runtime = TopologyRuntime(
            three_query_session(window=4.0).start().topology,
            {rel: 4.0 for query in three_queries() for rel in query.relations},
        )
        runtime.run(tpch3_feed(6000))
        results = runtime.metrics.results_emitted
        assert results == 54388 + 106 + 103
        assert sum(calls) == results
        assert all(count > 0 for count in calls)
        assert len(calls) <= results / 10

    def test_sink_sees_the_collected_results_in_batches(self):
        """``outputs`` and the sink see the same results in the same order;
        what the sink was handed is not the list ``outputs`` keeps."""
        handed = []
        runtime = TopologyRuntime(
            three_query_session().start().topology,
            {rel: 2.0 for query in three_queries() for rel in query.relations},
            sink=lambda query, results: handed.append((query, list(results), results)),
        )
        runtime.run(tpch3_feed(2000))
        for name in QUERIES:
            delivered = [r for q, batch, _ in handed if q == name for r in batch]
            assert delivered == runtime.outputs.get(name, [])
        assert all(
            results is not runtime.outputs[query] for query, _, results in handed
        )
        assert len(handed) < runtime.metrics.results_emitted


class TestMetricsHoldNothingPerResult:
    REMOVED = (
        "latencies",
        "latency_samples",
        "mean_latency",
        "p95_latency",
        "latency_timeline",
    )

    def test_engine_metrics_has_no_latency_surface(self):
        metrics = EngineMetrics()
        for name in self.REMOVED:
            assert not hasattr(EngineMetrics, name), name
            assert not hasattr(metrics, name), name
        assert "mean_latency" not in metrics.summary()

    def test_pickled_metrics_do_not_grow_with_results(self):
        """After 20,000 results the pickled metrics are within 1 KiB of
        their size after 1,000: two lists grew by one entry per result."""
        session = three_query_session(window=4.0)
        feed = tpch3_feed(4000)
        early = None
        for start in range(0, len(feed), 100):
            session.push_batch(feed[start : start + 100])
            session.flush()
            if early is None and session.metrics.results_emitted >= 1000:
                early = len(pickle.dumps(session.metrics))
        assert early is not None
        assert session.metrics.results_emitted >= 20_000
        assert len(pickle.dumps(session.metrics)) - early <= 1024


class TestShardedEmission:
    @pytest.mark.parametrize("backend", ["python", "columnar"])
    def test_driver_emits_maximal_runs(self, backend, monkeypatch):
        """The driver emits each run of consecutive same-query results of
        its merge in one call.  Counts and result sets are the
        single-process session's; each query's subscriber sees the order
        its ``outputs`` keep."""
        emitted = []
        emit = ShardedRuntime._emit

        def recording(self, query, results):
            emitted.append((query, len(results)))
            emit(self, query, results)

        monkeypatch.setattr(ShardedRuntime, "_emit", recording)
        single = run_subscribed(three_query_session, tpch3_feed(3000), backend, 1)
        assert emitted == []
        sharded = run_subscribed(three_query_session, tpch3_feed(3000), backend, 2)
        seen, per_query, outputs = sharded
        assert per_query == single[1]
        assert {q: sorted(keys) for q, keys in outputs.items()} == {
            q: sorted(keys) for q, keys in single[2].items()
        }
        for name in QUERIES:
            assert [key for q, key in seen if q == name] == outputs[name]
        results = sum(per_query.values())
        assert sum(count for _, count in emitted) == results
        assert all(a[0] != b[0] for a, b in zip(emitted, emitted[1:]))
        assert len(emitted) < results

    @pytest.mark.parametrize("backend", ["python", "columnar"])
    def test_order_equals_one_process(self, backend):
        """Three TPC-H queries joined on ``partkey`` alone: every relation
        is partitioned, so each input's results come from one shard, and
        with one input per micro-batch (the driver's merge is seq-major)
        subscriber order, counters and outputs equal ``workers=1``."""
        session = partkey_session
        feed = tpch3_feed(3000, partkey_queries())
        single = run_subscribed(session, feed, backend, 1)
        assert sum(single[1].values()) > 100
        assert run_subscribed(session, feed, backend, 2) == single


def partkey_queries():
    return [
        Query.of("qa", "PS.partkey=P.partkey"),
        Query.of("qb", "P.partkey=L.partkey"),
        Query.of("qc", "PS.partkey=P.partkey", "P.partkey=L.partkey"),
    ]


def partkey_session(backend, workers):
    session = JoinSession(
        window=4.0,
        worker_transport="inline",
        runtime_config=RuntimeConfig(
            batch_size=1, store_backend=backend, workers=workers
        ),
    )
    for query in partkey_queries():
        session.add_query(query)
    return session


def run_subscribed(make_session, feed, backend, workers):
    """(what the subscribers saw in order, results per query, outputs)."""
    seen = []
    if make_session is three_query_session:
        session = three_query_session(
            store_backend=backend, workers=workers, worker_transport="inline"
        )
    else:
        session = make_session(backend, workers)
    with session:
        names = sorted(session.queries)
        for name in names:
            session.subscribe(name, lambda r, n=name: seen.append((n, r.key())))
        session.push_batch(feed)
        session.flush()
        outputs = {name: [r.key() for r in session.results(name)] for name in names}
        return seen, dict(session.metrics.results_per_query), outputs

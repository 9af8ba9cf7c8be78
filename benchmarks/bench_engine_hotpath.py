"""Engine hot-path micro-benchmark: insert / probe / evict throughput.

Isolates the container-level hot path from the figure-level benchmarks so
engine regressions are measurable on their own:

* ``insert`` — tuples inserted into a container with two live key columns
  (hash indexes on the python backend),
* ``probe``  — indexed equi-probes against a populated sliding window,
* ``evict``  — a sliding-window workload interleaving inserts, probes, and
  periodic eviction passes (the pattern the runtime actually executes),
* ``wide-window`` — a probe-heavy sliding-window workload over a *wide*
  retention (tens of thousands of live tuples, two-predicate probes with
  rare matches).  Both backends look a probe up on its whole key, so what
  is compared is a dict lookup against presence tests plus the occasional
  column scan — the dict wins; the number is recorded, not gated,
* ``logical`` — an end-to-end logical-mode run of a 3-way join topology,
* ``adaptive`` — steady-state :class:`repro.JoinSession` push throughput
  with ``reoptimize_every`` on vs off on a drift-free feed: the plan never
  changes, so the on/off ratio isolates the unified adaptivity loop's
  bookkeeping (per-tuple epoch advancement + periodic re-optimization).
  Gate with ``--max-adaptive-overhead`` (CI holds it at 10%),
* ``sharded`` (opt-in via ``--workers N``) — an end-to-end run of a
  two-predicate join through :class:`ShardedRuntime`: the feed is
  hash-partitioned over N worker processes, and the printed speedup is
  N-worker combined ops/s over 1-worker combined ops/s, both through the
  same sharded driver.  A whole-key lookup leaves a worker about as much
  work per input as the driver has, so the ratio is driver-bound and CI
  records it without a gate (``--min-shard-speedup`` still exists for
  scenarios that are worker-bound).

``--backend`` selects the container implementation benchmarked as
"current": ``python`` (:class:`repro.engine.stores.Container`) or
``columnar`` (:class:`repro.engine.columnar.ColumnarContainer`).  The
classic scenarios compare it against ``NaiveContainer`` — a faithful copy
of the seed implementation (full-container scan per eviction pass, all
indexes discarded and rebuilt afterwards).  The wide-window scenario
instead compares against the *python backend* (the naive copy is
quadratically slow there); ``--min-backend-speedup`` can gate that ratio.

Usage::

    PYTHONPATH=src python benchmarks/bench_engine_hotpath.py \
        [--backend columnar] [--tuples 60000]
"""

from __future__ import annotations

import argparse
import json
import platform
import random
import sys
import time
from typing import Dict, List, Optional

import numpy as np

from repro.core.predicates import JoinPredicate
from repro.engine.columnar import ColumnarContainer
from repro.engine.stores import (
    STORE_BACKENDS as BACKENDS,
    Container,
    orient_predicates,
    probe_batch,
)
from repro.engine.tuples import StreamTuple, input_tuple


class NaiveContainer:
    """Faithful copy of the seed implementation (commit d17190a).

    Semantics identical to the current container (the seed's arrival filter
    is left out: the current probe has none); costs replicated
    deliberately: ``latest_ts`` was a property recomputing
    ``max(timestamps.values())`` on every access, eviction re-scanned the whole
    container and threw away every hash index (rebuilt on the next probe),
    predicates were re-oriented per stored candidate, results were merged
    through the plain constructor, and the pairwise window check always ran
    the nested per-relation loop.
    """

    __slots__ = ("tuples", "indexes")

    def __init__(self, bucket_width: Optional[float] = None) -> None:
        self.tuples: List[StreamTuple] = []
        self.indexes: Dict[str, Dict[object, List[StreamTuple]]] = {}

    def __len__(self) -> int:
        return len(self.tuples)

    def insert(self, tup: StreamTuple) -> None:
        self.tuples.append(tup)
        for attr, index in self.indexes.items():
            index.setdefault(tup.get(attr), []).append(tup)

    def index_on(self, attr: str) -> Dict[object, List[StreamTuple]]:
        index = self.indexes.get(attr)
        if index is None:
            index = {}
            for tup in self.tuples:
                index.setdefault(tup.get(attr), []).append(tup)
            self.indexes[attr] = index
        return index

    @staticmethod
    def _latest_ts(tup: StreamTuple) -> float:
        return max(tup.timestamps.values())  # the seed's property, per access

    def evict_older_than(self, horizon: float) -> int:
        if not self.tuples:
            return 0
        keep = [t for t in self.tuples if self._latest_ts(t) >= horizon]
        evicted_width = sum(t.width for t in self.tuples) - sum(
            t.width for t in keep
        )
        if evicted_width:
            self.tuples = keep
            self.indexes = {}  # the seed's "rebuild lazily next time"
        return evicted_width

    @staticmethod
    def _orient(pred: JoinPredicate, probe: StreamTuple):
        left_rel = pred.left.relation
        if left_rel in probe.timestamps:
            return str(pred.left), str(pred.right)
        return str(pred.right), str(pred.left)

    def probe(self, probe: StreamTuple, predicates, windows):
        first = predicates[0]
        probe_attr, stored_attr = self._orient(first, probe)
        index = self.index_on(stored_attr)
        results = []
        checked = 0
        for stored in index.get(probe.get(probe_attr), []):
            checked += 1
            ok = True
            for pred in predicates:  # the seed re-oriented per candidate
                pa, sa = self._orient(pred, probe)
                if probe.get(pa) != stored.get(sa):
                    ok = False
                    break
            if not ok:
                continue
            if not probe.within_windows(stored, windows):
                continue
            results.append(
                _seed_merge(probe, stored)
            )
        return results, checked


def _seed_merge(a: StreamTuple, b: StreamTuple) -> StreamTuple:
    """The seed's merge: dict copies through the plain constructor."""
    values = dict(a.values)
    values.update(b.values)
    timestamps = dict(a.timestamps)
    timestamps.update(b.timestamps)
    return StreamTuple(
        values=values, timestamps=timestamps, trigger=a.trigger,
        trigger_ts=a.trigger_ts,
    )


def make_tuples(n: int, domain: int, rate: float, seed: int) -> List[StreamTuple]:
    rng = random.Random(seed)
    out = []
    t = 0.0
    for _ in range(n):
        t += rng.random() * (2.0 / rate)
        out.append(
            input_tuple("S", t, {"a": rng.randrange(domain), "b": rng.randrange(domain)})
        )
    return out


def warm_columns(cont, attrs):
    """Activate the per-attribute lookup structure of either backend."""
    for attr in attrs:
        if isinstance(cont, ColumnarContainer):
            cont.ensure_column(attr)
        else:
            cont.index_on(attr)


def bench_insert(container_cls, tuples, bucket_width):
    cont = container_cls(bucket_width=bucket_width)
    warm_columns(cont, ("S.a", "S.b"))
    start = time.perf_counter()
    for tup in tuples:
        cont.insert(tup)
    return len(tuples) / (time.perf_counter() - start)


def bench_probe(container_cls, tuples, probes, bucket_width, windows, preds, chunk=64):
    """Probes are driven the way the runtime drives them: in micro-batches
    whose results are consumed (not accumulated across the whole run)."""
    cont = container_cls(bucket_width=bucket_width)
    for tup in tuples:
        cont.insert(tup)
    oriented = orient_predicates(preds, {"R"})
    start = time.perf_counter()
    if isinstance(cont, NaiveContainer):
        for probe in probes:
            cont.probe(probe, preds, windows)
    else:
        uniform = windows["S"] if windows["S"] == windows["R"] else None
        for i in range(0, len(probes), chunk):
            probe_batch(cont, probes[i : i + chunk], oriented, windows, uniform)
    return len(probes) / (time.perf_counter() - start)


def bench_sliding_window(
    container_cls, tuples, bucket_width, windows, preds, retention, evict_every
):
    """The runtime's actual pattern: insert + probe + periodic eviction."""
    cont = container_cls(bucket_width=bucket_width)
    oriented = orient_predicates(preds, {"R"})
    ops = 0
    start = time.perf_counter()
    for i, tup in enumerate(tuples):
        cont.insert(tup)
        probe = input_tuple("R", tup.trigger_ts + 1e-9, {"a": tup.get("S.a")})
        if isinstance(cont, NaiveContainer):
            cont.probe(probe, preds, windows)
        else:
            probe_batch(cont, (probe,), oriented, windows, windows["S"])
        ops += 2
        if i % evict_every == evict_every - 1:
            cont.evict_older_than(tup.trigger_ts - retention)
            ops += 1
    return ops / (time.perf_counter() - start)


def bench_wide_window(
    container_cls,
    num_tuples,
    a_domain,
    b_domain,
    rate,
    retention,
    evict_every,
    probes_per_insert,
    seed,
):
    """Wide-retention, probe-heavy sliding window with rare matches.

    Tens of thousands of live tuples; every probe carries *two* equality
    predicates whose conjunction almost never matches.  Both backends look
    the pair up as one key, so the cost is a composite-index lookup on the
    python backend and per-bucket presence tests (with the rare column
    scan) on the columnar one.
    """
    rng = random.Random(seed)
    preds = (JoinPredicate.of("R.a", "S.a"), JoinPredicate.of("R.b", "S.b"))
    oriented = orient_predicates(preds, {"R"})
    windows = {"R": retention, "S": retention}
    cont = container_cls(bucket_width=retention / 16)
    t = 0.0
    ops = 0
    start = time.perf_counter()
    for i in range(num_tuples):
        t += rng.random() * (2.0 / rate)
        cont.insert(
            input_tuple(
                "S", t, {"a": rng.randrange(a_domain), "b": rng.randrange(b_domain)}
            )
        )
        ops += 1
        for _ in range(probes_per_insert):
            probe = input_tuple(
                "R",
                t + 1e-9,
                {"a": rng.randrange(a_domain), "b": rng.randrange(b_domain)},
            )
            probe_batch(cont, (probe,), oriented, windows, retention)
            ops += 1
        if i % evict_every == evict_every - 1:
            cont.evict_older_than(t - retention)
            ops += 1
    return ops / (time.perf_counter() - start)


def bench_logical_runtime(num_inputs: int, seed: int, backend: str = "python") -> float:
    """End-to-end logical-mode throughput of a 3-way join topology."""
    from repro.core import (
        ClusterConfig,
        OptimizerConfig,
        Query,
        StatisticsCatalog,
        build_topology,
    )
    from repro.core.optimizer import MultiQueryOptimizer
    from repro.engine import RuntimeConfig, TopologyRuntime

    query = Query.of("q", "R.a=S.a", "S.b=T.b")
    catalog = StatisticsCatalog(default_selectivity=0.02, default_window=8.0)
    for rel in "RST":
        catalog.with_rate(rel, 10.0)
    attrs = {"R": ["a"], "S": ["a", "b"], "T": ["b"]}
    rng = random.Random(seed)
    inputs = []
    t = 0.0
    for _ in range(num_inputs):
        t += rng.random() * 0.02
        rel = rng.choice("RST")
        inputs.append(
            input_tuple(rel, t, {a: rng.randrange(40) for a in attrs[rel]})
        )
    cfg = OptimizerConfig(cluster=ClusterConfig(default_parallelism=2))
    plan = MultiQueryOptimizer(catalog, cfg).optimize([query])
    topology = build_topology(plan.plan, catalog, cfg.cluster)
    runtime = TopologyRuntime(
        topology,
        {r: 8.0 for r in "RST"},
        RuntimeConfig(store_backend=backend),
    )
    start = time.perf_counter()
    runtime.run(inputs)
    return num_inputs / (time.perf_counter() - start)


def bench_cascade(
    num_inputs: int,
    a_domain: int,
    c_domain: int,
    rate: float,
    window: float,
    payload: int,
    seed: int,
    vectorized: bool,
) -> float:
    """Cascade-dominated 4-way chain join, end-to-end through the runtime.

    ``R.a=S.a AND S.b=T.b AND T.c=U.c`` over wide uniform windows: the two
    interior predicates draw from a small domain (plentiful intermediate
    matches), the final one from a huge domain (rare results), and every
    tuple carries ``payload`` extra attributes.  This is the regime the
    vectorized cascade exists for — the tuple-at-a-time path merges every
    interior match (a Python call, though it copies no dict) and probes
    per tuple, while VectorBatch carriage narrows the probes sharing a key
    together and merges only what is read, so an interior match that dies
    at the last hop is never merged.  Both sides run the columnar backend;
    only ``vectorized_cascades`` differs.
    """
    from repro.core import (
        ClusterConfig,
        OptimizerConfig,
        Query,
        StatisticsCatalog,
        build_topology,
    )
    from repro.core.optimizer import MultiQueryOptimizer
    from repro.engine import RuntimeConfig, TopologyRuntime

    query = Query.of("q", "R.a=S.a", "S.b=T.b", "T.c=U.c")
    catalog = StatisticsCatalog(
        default_selectivity=1.0 / a_domain, default_window=window
    )
    catalog.with_selectivity(JoinPredicate.of("T.c", "U.c"), 1.0 / c_domain)
    for rel in "RSTU":
        catalog.with_rate(rel, rate / 4.0)
    join_attrs = {"R": ["a"], "S": ["a", "b"], "T": ["b", "c"], "U": ["c"]}
    domains = {"a": a_domain, "b": a_domain, "c": c_domain}
    rng = random.Random(seed)
    inputs = []
    t = 0.0
    for i in range(num_inputs):
        t += rng.random() * (2.0 / rate)
        rel = "RSTU"[i % 4]
        vals = {a: rng.randrange(domains[a]) for a in join_attrs[rel]}
        for p in range(payload):
            vals[f"p{p}"] = i
        inputs.append(input_tuple(rel, t, vals))
    # MIRs off: a materialized intermediate store would collapse the chain
    # into one-hop probes, and the point here is a true 3-hop cascade.
    cfg = OptimizerConfig(
        enable_mirs=False, cluster=ClusterConfig(default_parallelism=1)
    )
    plan = MultiQueryOptimizer(catalog, cfg).optimize([query])
    topology = build_topology(plan.plan, catalog, cfg.cluster)
    runtime = TopologyRuntime(
        topology,
        {r: window for r in "RSTU"},
        RuntimeConfig(
            store_backend="columnar",
            vectorized_cascades=vectorized,
        ),
    )
    start = time.perf_counter()
    runtime.run(inputs)
    return num_inputs / (time.perf_counter() - start)


def bench_sharded_runtime(
    num_inputs: int,
    a_domain: int,
    b_domain: int,
    rate: float,
    retention: float,
    workers: int,
    seed: int,
) -> float:
    """End-to-end throughput of the sharded driver on a wide-window join.

    One two-predicate query, ``R.a=S.a AND R.b=S.b``: the router
    partitions *both* relations on the ``a`` equivalence class, so every
    tuple is routed to exactly one shard and no broadcast dilutes the
    scaling.  A worker's share per tuple is one insert and one whole-key
    lookup, about what the driver spends on validation, routing and
    pickling — so the N-worker ratio is driver-bound.  The feed is
    pre-generated; only ``run()`` is timed.  Pool startup/teardown is
    excluded.
    """
    from repro.core import (
        ClusterConfig,
        OptimizerConfig,
        Query,
        StatisticsCatalog,
        build_topology,
    )
    from repro.core.optimizer import MultiQueryOptimizer
    from repro.engine import RuntimeConfig, ShardedRuntime

    query = Query.of("q", "R.a=S.a", "R.b=S.b")
    catalog = StatisticsCatalog(
        default_selectivity=1.0 / a_domain, default_window=retention
    )
    for rel in "RS":
        catalog.with_rate(rel, rate / 2.0)
    rng = random.Random(seed)
    inputs = []
    t = 0.0
    for i in range(num_inputs):
        t += rng.random() * (2.0 / rate)
        inputs.append(
            input_tuple(
                "R" if i % 2 == 0 else "S",
                t,
                {"a": rng.randrange(a_domain), "b": rng.randrange(b_domain)},
            )
        )
    cfg = OptimizerConfig(cluster=ClusterConfig(default_parallelism=1))
    plan = MultiQueryOptimizer(catalog, cfg).optimize([query])
    topology = build_topology(plan.plan, catalog, cfg.cluster)
    runtime = ShardedRuntime(
        topology,
        {"R": retention, "S": retention},
        RuntimeConfig(workers=workers),
    )
    try:
        start = time.perf_counter()
        runtime.run(inputs)
        elapsed = time.perf_counter() - start
    finally:
        runtime.close()
    return num_inputs / elapsed


def bench_adaptive_session(
    num_inputs: int,
    a_domain: int,
    rate: float,
    window: float,
    epoch: float,
    seed: int,
):
    """Steady-state ``JoinSession`` push throughput, adaptivity on vs off.

    A 3-way chain join (``R.a=S.a AND S.b=T.b``) over a uniform feed with
    *declared* selectivities matching the feed's reality and deliberately
    asymmetric (``a`` is 8x more selective than ``b``), so the optimal
    plan is one-sided and immune to epoch-to-epoch measurement noise:
    with ``reoptimize_every=epoch`` every boundary runs the full
    observe → decide cycle (catalog fold, solve, signature compare) but
    the plan never changes and nothing installs.  The on/off throughput
    ratio therefore isolates the adaptivity loop's steady-state
    bookkeeping — per-tuple epoch advancement plus periodic
    re-optimization — rather than rewiring cost.

    Measurement discipline: the feed is pre-generated, a warm prefix
    (first plan build) is excluded from the timed region, and the two
    sides are *interleaved* best-of-3 fresh sessions with a GC collection
    before each timed region — one side always running second in a
    process whose heap has grown would otherwise eat a one-sided GC
    penalty several times the ~1ms-per-boundary signal the gate holds.
    Returns ``(off_inputs_per_s, on_inputs_per_s, num_decisions)``.
    """
    import gc

    from repro import JoinSession

    b_domain = max(1, a_domain // 8)
    domains = {"R": {"a": a_domain}, "S": {"a": a_domain, "b": b_domain},
               "T": {"b": b_domain}}
    rng = random.Random(seed)
    feed = []
    t = 0.0
    for i in range(num_inputs):
        t += rng.random() * (2.0 / rate)
        rel = "RST"[i % 3]
        feed.append(
            (rel, {a: rng.randrange(d) for a, d in domains[rel].items()}, t)
        )
    warm = max(1, num_inputs // 20)

    def run(reoptimize_every):
        session = (
            JoinSession(
                window=window,
                solver="greedy",
                default_rate=rate / 3.0,
                default_selectivity=1.0 / a_domain,
                reoptimize_every=reoptimize_every,
                record_streams=False,
            )
            .with_selectivity("R.a=S.a", 1.0 / a_domain)
            .with_selectivity("S.b=T.b", 1.0 / b_domain)
            .add_query("q", "R.a=S.a", "S.b=T.b")
        )
        for rel, values, ts in feed[:warm]:
            session.push(rel, values, ts=ts)
        gc.collect()
        start = time.perf_counter()
        for rel, values, ts in feed[warm:]:
            session.push(rel, values, ts=ts)
        return time.perf_counter() - start, len(session.decisions)

    best_off = best_on = float("inf")
    decisions = 0
    for _ in range(3):
        best_off = min(best_off, run(None)[0])
        elapsed, decisions = run(epoch)
        best_on = min(best_on, elapsed)
    timed = num_inputs - warm
    return timed / best_off, timed / best_on, decisions


def bench_service(
    num_inputs: int,
    a_domain: int,
    rate: float,
    window: float,
    queue_depth: int,
    seed: int,
):
    """Sustained push throughput through the bounded service ingress.

    A two-way join fed over loopback TCP through ``ServiceClient`` —
    fire-and-forget pushes gated only by the server's credit frames, so
    the measured rate is what the bounded ingress queue actually
    sustains.  Latency is sampled end-to-end through the drain: control
    operations ride the same ingress queue as pushes, so a ``stats``
    round trip at stream position *i* measures the time for everything
    enqueued before it to drain into the session plus the reply — the
    ingress latency a caller reading their own writes would observe.
    ~200 samples are taken across the run; the p99 of those is the SLO
    headline next to the ops/s number.

    Returns ``(ops_per_s, p50_latency_s, p99_latency_s, pauses,
    queue_high_water)``.
    """
    import asyncio

    from repro import JoinServer, JoinSession, ServiceClient

    rng = random.Random(seed)
    feed = []
    t = 0.0
    for i in range(num_inputs):
        t += rng.random() * (2.0 / rate)
        rel = "RS"[i % 2]
        feed.append((rel, {"a": rng.randrange(a_domain)}, t))
    sample_every = max(1, num_inputs // 200)

    async def run():
        session = JoinSession(window=window, record_streams=False).add_query(
            "q", "R.a=S.a"
        )
        latencies = []
        async with JoinServer(session, queue_depth=queue_depth) as server:
            client = await ServiceClient.connect(*server.address)
            async with client:
                # warm: the first plan build stays out of the timed region
                await client.push(*feed[0])
                await client.flush()
                start = time.perf_counter()
                for i, item in enumerate(feed[1:], 1):
                    await client.push(*item)
                    if i % sample_every == 0:
                        t0 = time.perf_counter()
                        await client.stats()
                        latencies.append(time.perf_counter() - t0)
                reply = await client.flush()
                elapsed = time.perf_counter() - start
            if reply["pushed"] != num_inputs:
                raise SystemExit(
                    f"service bench lost tuples: pushed {reply['pushed']} "
                    f"of {num_inputs}"
                )
        latencies.sort()
        ops = (num_inputs - 1) / elapsed
        p50 = latencies[len(latencies) // 2] if latencies else 0.0
        p99 = (
            latencies[min(len(latencies) - 1, int(len(latencies) * 0.99))]
            if latencies
            else 0.0
        )
        return ops, p50, p99, server.pauses_sent, server.queue_high_water

    return asyncio.run(run())


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--tuples", type=int, default=60_000)
    parser.add_argument("--probes", type=int, default=20_000)
    parser.add_argument("--domain", type=int, default=500)
    parser.add_argument("--rate", type=float, default=1000.0)
    parser.add_argument("--retention", type=float, default=10.0)
    parser.add_argument("--evict-every", type=int, default=256)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--logical-inputs", type=int, default=30_000)
    parser.add_argument(
        "--backend",
        choices=sorted(BACKENDS),
        default="python",
        help="container implementation benchmarked as 'current' "
        "(python = dict/hash-index, columnar = numpy-vectorized)",
    )
    #: the combined scenario models a production window: more live state
    #: (rate × retention) and a finer join-attribute domain
    parser.add_argument("--sliding-retention", type=float, default=20.0)
    parser.add_argument("--sliding-domain", type=int, default=2000)
    #: wide-window scenario: ~rate×retention live tuples, two-predicate
    #: probes with rare matches (see bench_wide_window)
    parser.add_argument("--wide-tuples", type=int, default=30_000)
    parser.add_argument("--wide-retention", type=float, default=15.0)
    parser.add_argument("--wide-rate", type=float, default=1500.0)
    parser.add_argument("--wide-a-domain", type=int, default=40)
    parser.add_argument("--wide-b-domain", type=int, default=1500)
    parser.add_argument("--wide-probes-per-insert", type=int, default=2)
    #: cascade scenario: a 3-hop chain with plentiful interior matches and
    #: rare final matches, vectorized vs tuple-at-a-time (see bench_cascade)
    parser.add_argument("--cascade-inputs", type=int, default=2_000)
    parser.add_argument("--cascade-a-domain", type=int, default=6)
    parser.add_argument("--cascade-c-domain", type=int, default=1_000_000)
    parser.add_argument("--cascade-rate", type=float, default=400.0)
    parser.add_argument("--cascade-window", type=float, default=16.0)
    parser.add_argument("--cascade-payload", type=int, default=10)
    parser.add_argument(
        "--min-cascade-speedup",
        type=float,
        default=None,
        help="exit nonzero if the vectorized-cascade speedup over the "
        "tuple-at-a-time path (both on the columnar backend) falls below "
        "this factor (CI regression gate)",
    )
    #: sharded scenario (opt-in): a work-dominated two-predicate join run
    #: end-to-end through ShardedRuntime (see bench_sharded_runtime)
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        help="run the sharded scenario with this pool size and report its "
        "speedup over the same scenario at 1 worker (both through "
        "ShardedRuntime, process transport); omit to skip the scenario",
    )
    parser.add_argument("--shard-inputs", type=int, default=12_000)
    parser.add_argument("--shard-rate", type=float, default=2000.0)
    parser.add_argument("--shard-retention", type=float, default=15.0)
    parser.add_argument("--shard-a-domain", type=int, default=64)
    parser.add_argument("--shard-b-domain", type=int, default=1000)
    parser.add_argument(
        "--min-shard-speedup",
        type=float,
        default=None,
        help="exit nonzero if the sharded scenario's N-worker/1-worker "
        "speedup falls below this factor (CI scaling gate; requires "
        "--workers and a runner with >= N cores)",
    )
    #: adaptive scenario: steady-state JoinSession push throughput with
    #: reoptimize_every on vs off on a drift-free feed — the ratio isolates
    #: the unified adaptivity loop's bookkeeping (see bench_adaptive_session)
    parser.add_argument("--adaptive-inputs", type=int, default=9_000)
    parser.add_argument("--adaptive-a-domain", type=int, default=400)
    parser.add_argument("--adaptive-rate", type=float, default=600.0)
    parser.add_argument("--adaptive-window", type=float, default=3.0)
    parser.add_argument("--adaptive-epoch", type=float, default=2.0)
    parser.add_argument(
        "--max-adaptive-overhead",
        type=float,
        default=None,
        help="exit nonzero if enabling reoptimize_every costs more than "
        "this fraction of steady-state session throughput (CI gate that "
        "the adaptivity loop's bookkeeping stays cheap; 0.10 = 10%%)",
    )
    #: service scenario: sustained push throughput over loopback TCP through
    #: the bounded JoinServer ingress, with drain-latency sampling (see
    #: bench_service); opt-in via --service-only / --min-service-ops
    parser.add_argument("--service-tuples", type=int, default=8_000)
    parser.add_argument("--service-a-domain", type=int, default=200)
    parser.add_argument("--service-rate", type=float, default=1000.0)
    parser.add_argument("--service-window", type=float, default=4.0)
    parser.add_argument("--service-queue-depth", type=int, default=256)
    parser.add_argument(
        "--min-service-ops",
        type=float,
        default=None,
        help="exit nonzero if the service scenario's sustained push "
        "throughput (ops/s over TCP through the bounded ingress) falls "
        "below this rate (CI regression gate; implies running the "
        "service scenario)",
    )
    parser.add_argument(
        "--service-only",
        action="store_true",
        help="run only the service scenario (what the CI service-smoke "
        "job uses); --json-out then writes just the service block",
    )
    parser.add_argument(
        "--min-speedup",
        type=float,
        default=None,
        help="exit nonzero if the combined insert/probe/evict speedup "
        "falls below this factor (CI regression gate)",
    )
    parser.add_argument(
        "--min-backend-speedup",
        type=float,
        default=None,
        help="exit nonzero if the selected backend's wide-window throughput "
        "falls below this factor of the python backend's (CI gate that the "
        "columnar speedup cannot silently regress)",
    )
    parser.add_argument(
        "--json-out",
        type=str,
        default=None,
        help="write per-scenario ops/s and speedups as JSON (CI uploads "
        "this as a workflow artifact for trend tracking)",
    )
    args = parser.parse_args()
    for name in (
        "tuples",
        "probes",
        "domain",
        "logical_inputs",
        "evict_every",
        "wide_tuples",
        "wide_a_domain",
        "wide_b_domain",
        "wide_probes_per_insert",
        "cascade_inputs",
        "cascade_a_domain",
        "cascade_c_domain",
        "adaptive_inputs",
        "adaptive_a_domain",
    ):
        if getattr(args, name) <= 0:
            parser.error(f"--{name.replace('_', '-')} must be positive")
    if args.adaptive_epoch <= 0:
        parser.error("--adaptive-epoch must be positive")
    if args.workers is not None and args.workers < 1:
        parser.error("--workers must be >= 1")
    if args.min_shard_speedup is not None and args.workers is None:
        parser.error("--min-shard-speedup requires --workers")
    if args.workers is not None:
        for name in ("shard_inputs", "shard_a_domain", "shard_b_domain"):
            if getattr(args, name) <= 0:
                parser.error(f"--{name.replace('_', '-')} must be positive")
    run_service = args.service_only or args.min_service_ops is not None
    if run_service:
        for name in ("service_tuples", "service_a_domain"):
            if getattr(args, name) <= 0:
                parser.error(f"--{name.replace('_', '-')} must be positive")
        if args.service_queue_depth < 1:
            parser.error("--service-queue-depth must be >= 1")

    def run_service_scenario():
        ops, p50, p99, pauses, high_water = bench_service(
            args.service_tuples,
            args.service_a_domain,
            args.service_rate,
            args.service_window,
            args.service_queue_depth,
            args.seed + 7,
        )
        print(
            f"service ingress:         {ops:,.0f} pushes/s over TCP "
            f"(drain latency p50 {p50 * 1e3:.1f}ms / p99 {p99 * 1e3:.1f}ms, "
            f"{pauses} pauses, queue high water {high_water}/"
            f"{args.service_queue_depth}, {args.service_tuples} tuples)"
        )
        return {
            "ops_per_s": ops,
            "p50_latency_s": p50,
            "p99_latency_s": p99,
            "pauses": pauses,
            "queue_high_water": high_water,
            "queue_depth": args.service_queue_depth,
            "tuples": args.service_tuples,
        }

    def check_service_gate(service):
        if args.min_service_ops is None:
            return
        if service["ops_per_s"] < args.min_service_ops:
            raise SystemExit(
                f"REGRESSION: service push throughput "
                f"{service['ops_per_s']:,.0f} ops/s below required "
                f"{args.min_service_ops:,.0f} ops/s"
            )
        print(
            f"service gate: {service['ops_per_s']:,.0f} ops/s >= "
            f"{args.min_service_ops:,.0f} ops/s OK "
            f"(p99 {service['p99_latency_s'] * 1e3:.1f}ms)"
        )

    if args.service_only:
        service = run_service_scenario()
        if args.json_out is not None:
            payload = {
                "schema_version": 6,
                "service": service,
                "python": sys.version.split()[0],
                "numpy": np.__version__,
                "platform": platform.platform(),
            }
            with open(args.json_out, "w") as handle:
                json.dump(payload, handle, indent=2, sort_keys=True)
                handle.write("\n")
            print(f"wrote {args.json_out}")
        check_service_gate(service)
        return
    current_cls = BACKENDS[args.backend]

    tuples = make_tuples(args.tuples, args.domain, args.rate, args.seed)
    rng = random.Random(args.seed + 1)
    last_ts = tuples[-1].trigger_ts
    probes = [
        input_tuple("R", last_ts + 1.0, {"a": rng.randrange(args.domain)})
        for _ in range(args.probes)
    ]
    windows = {"R": args.retention, "S": args.retention}
    preds = (JoinPredicate.of("R.a", "S.a"),)
    bucket_width = args.retention / 16

    print(
        f"# engine hot path — {args.tuples} tuples, domain {args.domain}, "
        f"backend {args.backend}"
    )
    header = f"{'scenario':<20}{'naive (ops/s)':>16}{'current (ops/s)':>18}{'speedup':>10}"
    print(header)
    print("-" * len(header))
    rows = [
        (
            "insert",
            bench_insert(NaiveContainer, tuples, bucket_width),
            bench_insert(current_cls, tuples, bucket_width),
        ),
        (
            "probe",
            bench_probe(NaiveContainer, tuples, probes, bucket_width, windows, preds),
            bench_probe(current_cls, tuples, probes, bucket_width, windows, preds),
        ),
    ]
    sliding_tuples = make_tuples(
        args.tuples, args.sliding_domain, args.rate, args.seed + 2
    )
    sliding_windows = {"R": args.sliding_retention, "S": args.sliding_retention}
    sliding_args = (
        sliding_tuples,
        args.sliding_retention / 16,
        sliding_windows,
        preds,
        args.sliding_retention,
        args.evict_every,
    )
    rows.append(
        (
            "insert/probe/evict",
            bench_sliding_window(NaiveContainer, *sliding_args),
            bench_sliding_window(current_cls, *sliding_args),
        )
    )
    for name, naive, current in rows:
        print(f"{name:<20}{naive:>16,.0f}{current:>18,.0f}{current / naive:>9.1f}x")

    # Wide-window scenario: baseline is the *python backend*, not the naive
    # seed copy (whose full-rescan eviction is quadratically slow at this
    # state size) — the printed speedup is the columnar-vs-python number
    # the acceptance gate holds.
    wide_args = (
        args.wide_tuples,
        args.wide_a_domain,
        args.wide_b_domain,
        args.wide_rate,
        args.wide_retention,
        args.evict_every,
        args.wide_probes_per_insert,
        args.seed + 3,
    )
    wide_python = bench_wide_window(Container, *wide_args)
    wide_current = (
        wide_python
        if current_cls is Container
        else bench_wide_window(current_cls, *wide_args)
    )
    wide_speedup = wide_current / wide_python
    print(
        f"{'wide-window':<20}{wide_python:>16,.0f}{wide_current:>18,.0f}"
        f"{wide_speedup:>9.1f}x   (baseline: python backend)"
    )

    logical = bench_logical_runtime(args.logical_inputs, args.seed, args.backend)
    print(f"\nlogical-mode end-to-end: {logical:,.0f} inputs/s "
          f"({args.logical_inputs} inputs, 3-way join, parallelism 2)")

    cascade_args = (
        args.cascade_inputs,
        args.cascade_a_domain,
        args.cascade_c_domain,
        args.cascade_rate,
        args.cascade_window,
        args.cascade_payload,
        args.seed + 5,
    )
    cascade_tuple = bench_cascade(*cascade_args, vectorized=False)
    cascade_vec = bench_cascade(*cascade_args, vectorized=True)
    cascade_speedup = cascade_vec / cascade_tuple
    print(
        f"cascade end-to-end:      tuple-at-a-time {cascade_tuple:,.0f} "
        f"inputs/s, vectorized {cascade_vec:,.0f} inputs/s "
        f"({cascade_speedup:.1f}x, {args.cascade_inputs} inputs, 3-hop "
        f"chain, columnar backend)"
    )

    adaptive_off, adaptive_on, adaptive_decisions = bench_adaptive_session(
        args.adaptive_inputs,
        args.adaptive_a_domain,
        args.adaptive_rate,
        args.adaptive_window,
        args.adaptive_epoch,
        args.seed + 6,
    )
    adaptive_overhead = 1.0 - adaptive_on / adaptive_off
    print(
        f"adaptive session:        off {adaptive_off:,.0f} inputs/s, "
        f"reoptimize_every={args.adaptive_epoch:g} {adaptive_on:,.0f} "
        f"inputs/s ({adaptive_overhead:+.1%} overhead, "
        f"{adaptive_decisions} decisions, {args.adaptive_inputs} inputs, "
        f"3-way chain)"
    )

    service_result = None
    if run_service:
        service_result = run_service_scenario()

    shard_result = None
    if args.workers is not None:
        shard_args = (
            args.shard_inputs,
            args.shard_a_domain,
            args.shard_b_domain,
            args.shard_rate,
            args.shard_retention,
        )
        shard_base = bench_sharded_runtime(*shard_args, 1, args.seed + 4)
        shard_current = (
            shard_base
            if args.workers == 1
            else bench_sharded_runtime(*shard_args, args.workers, args.seed + 4)
        )
        shard_speedup = shard_current / shard_base
        shard_result = {
            "workers": args.workers,
            "one_worker_ops_per_s": shard_base,
            "n_worker_ops_per_s": shard_current,
            "speedup": shard_speedup,
        }
        print(
            f"sharded end-to-end:      1 worker {shard_base:,.0f} inputs/s, "
            f"{args.workers} workers {shard_current:,.0f} inputs/s "
            f"({shard_speedup:.1f}x, {args.shard_inputs} inputs, "
            f"2-predicate join)"
        )

    if args.json_out is not None:
        payload = {
            "schema_version": 6,
            "backend": args.backend,
            "scenarios": {
                name: {
                    "naive_ops_per_s": naive,
                    "current_ops_per_s": current,
                    "speedup": current / naive,
                }
                for name, naive, current in rows
            },
            "wide_window": {
                "python_ops_per_s": wide_python,
                "current_ops_per_s": wide_current,
                "speedup_vs_python": wide_speedup,
            },
            "logical_inputs_per_s": logical,
            "cascade": {
                "tuple_ops_per_s": cascade_tuple,
                "vectorized_ops_per_s": cascade_vec,
                "speedup": cascade_speedup,
            },
            "adaptive": {
                "off_ops_per_s": adaptive_off,
                "on_ops_per_s": adaptive_on,
                "overhead": adaptive_overhead,
                "decisions": adaptive_decisions,
            },
            "sharded": shard_result,
            "service": service_result,
            "params": {
                name: getattr(args, name)
                for name in (
                    "tuples", "probes", "domain", "rate", "retention",
                    "evict_every", "seed", "logical_inputs",
                    "sliding_retention", "sliding_domain",
                    "wide_tuples", "wide_retention", "wide_rate",
                    "wide_a_domain", "wide_b_domain", "wide_probes_per_insert",
                    "cascade_inputs", "cascade_a_domain", "cascade_c_domain",
                    "cascade_rate", "cascade_window", "cascade_payload",
                    "adaptive_inputs", "adaptive_a_domain", "adaptive_rate",
                    "adaptive_window", "adaptive_epoch",
                    "workers", "shard_inputs", "shard_rate",
                    "shard_retention", "shard_a_domain", "shard_b_domain",
                    "service_tuples", "service_a_domain", "service_rate",
                    "service_window", "service_queue_depth",
                )
            },
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "platform": platform.platform(),
        }
        with open(args.json_out, "w") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote {args.json_out}")

    if args.min_speedup is not None:
        _, naive, current = rows[-1]  # the combined insert/probe/evict row
        speedup = current / naive
        if speedup < args.min_speedup:
            raise SystemExit(
                f"REGRESSION: insert/probe/evict speedup {speedup:.2f}x "
                f"below required {args.min_speedup:g}x"
            )
        print(f"speedup gate: {speedup:.1f}x >= {args.min_speedup:g}x OK")

    if args.min_backend_speedup is not None:
        if wide_speedup < args.min_backend_speedup:
            raise SystemExit(
                f"REGRESSION: wide-window {args.backend}-vs-python speedup "
                f"{wide_speedup:.2f}x below required "
                f"{args.min_backend_speedup:g}x"
            )
        print(
            f"backend gate: wide-window {wide_speedup:.1f}x >= "
            f"{args.min_backend_speedup:g}x OK"
        )

    if args.min_cascade_speedup is not None:
        if cascade_speedup < args.min_cascade_speedup:
            raise SystemExit(
                f"REGRESSION: vectorized-cascade speedup "
                f"{cascade_speedup:.2f}x below required "
                f"{args.min_cascade_speedup:g}x"
            )
        print(
            f"cascade gate: {cascade_speedup:.1f}x >= "
            f"{args.min_cascade_speedup:g}x OK"
        )

    if args.max_adaptive_overhead is not None:
        if adaptive_overhead > args.max_adaptive_overhead:
            raise SystemExit(
                f"REGRESSION: adaptive-session overhead "
                f"{adaptive_overhead:.1%} above allowed "
                f"{args.max_adaptive_overhead:.0%}"
            )
        print(
            f"adaptive gate: {adaptive_overhead:+.1%} <= "
            f"{args.max_adaptive_overhead:.0%} OK"
        )

    if service_result is not None:
        check_service_gate(service_result)

    if args.min_shard_speedup is not None:
        if shard_result["speedup"] < args.min_shard_speedup:
            raise SystemExit(
                f"REGRESSION: sharded {args.workers}-worker speedup "
                f"{shard_result['speedup']:.2f}x below required "
                f"{args.min_shard_speedup:g}x"
            )
        print(
            f"shard gate: {shard_result['speedup']:.1f}x >= "
            f"{args.min_shard_speedup:g}x OK"
        )


if __name__ == "__main__":
    main()

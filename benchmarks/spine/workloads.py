"""The six workloads of the measurement spine, run inside one fresh process.

:func:`run_workload` is what ``run.py`` executes in a child interpreter: it
generates the feed from the seed with ``repro.streams``, drives the public
surface (``JoinSession``, ``JoinServer``/``ServiceClient``), times the
region after warm-up, checks the outputs, and returns one report dictionary
holding every metric it measured by name.

Sizes are a fixed function of ``--seconds``: a workload's timed region is
``speed x seconds`` inputs, where ``speed`` is the inputs/s this box did at
the commit that introduced the benchmark.  The *work* is therefore the same
on both sides of an A/B comparison and every program-made count repeats
exactly; the region lasts about ``--seconds`` at seed speed and less once
the program gets faster.
"""

from __future__ import annotations

import asyncio
import gc
import json
import math
import multiprocessing
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import repro
from repro import JoinServer, JoinSession, RuntimeConfig, ServiceClient, TopologyRuntime
from repro.core.query import Query
from repro.engine.tuples import StreamTuple
from repro.streams import (
    StreamSpec,
    bounded_delay_feed,
    five_query_workload,
    generate_streams,
    ten_query_workload,
    tpch_specs,
    uniform_domain,
)

import trace as spine_trace

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = os.path.join(HERE, "out")
#: the source tree ``repro`` was imported from; child processes get the same
SRC_DIR = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))

#: every closed loop pushes ``push_batch`` chunks of this many tuples
CHUNK = 256
#: warm-up prefix, in windows of event time (stores reach steady state)
WARMUP_WINDOWS = 1.5
#: set-ups timed per untraced run; ``setup_s`` is their median (booting a
#: server process takes 0.6 s, an in-process session a few milliseconds)
SETUP_REPS = {"session": 9, "churn": 9, "svc": 5}
#: closed loops call ``flush()`` after this many chunks, as a subscriber
#: that wants its results at least every ~8,000 inputs would: with
#: ``workers=2`` nothing is delivered before a flush, and a worker's result
#: log (and the pickle that ships it) grows until then
FLUSH_EVERY = 32
#: open-loop phase of ``svc_tcp``: events per second, each sent when due
OPEN_RATE = 4000.0
#: ``churn_late_ckpt``: chunks between two churn steps, and the tail both
#: the live and the restored session are fed after the timed region
CHURN_EVERY = 12
TAIL_CHUNKS = 8


def _tpch_specs(total: float, queries: Sequence[Query]) -> List[StreamSpec]:
    """``tpch_specs`` restricted to the relations the queries read."""
    read = {rel for q in queries for rel in q.relations}
    return [s for s in tpch_specs(total) if s.relation in read]


def _uniform_specs(rate: float, **domains: int) -> List[StreamSpec]:
    """Streams R and S at ``rate`` each, attributes uniform over domains."""
    return [
        StreamSpec(rel, rate, {a: uniform_domain(n) for a, n in domains.items()})
        for rel in ("R", "S")
    ]


def _churn_queries() -> Tuple[List[Query], List[Query]]:
    """q1-q7 stay installed; q9 and q10 come and go."""
    by_name = {q.name: q for q in ten_query_workload()}
    return [by_name[f"q{i}"] for i in range(1, 8)], [by_name["q9"], by_name["q10"]]


@dataclass(frozen=True)
class Workload:
    """One named workload: what runs, and how big."""

    name: str
    kind: str  # "session" | "svc" | "churn"
    window: float
    queries: Callable[[], List[Query]]
    specs: Callable[[], List[StreamSpec]]
    #: inputs/s at seed speed on the reference box (sizes the timed region)
    speed: float
    #: prefix replayed with ``record_streams=True`` against the oracle
    oracle_inputs: int
    session_kwargs: Dict[str, Any] = field(default_factory=dict)
    #: inputs each ladder rung replays from a cold start (0 = no ladder)
    ladder_inputs: int = 0

    @property
    def event_rate(self) -> float:
        """Inputs per second of event time (sizes the warm-up prefix)."""
        return sum(spec.rate for spec in self.specs())


def _wide2_queries() -> List[Query]:
    return [Query.of("q", "R.a=S.a", "R.b=S.b")]


def _wide2_specs() -> List[StreamSpec]:
    return _uniform_specs(1000.0, a=64, b=1000)


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "tpch5_probe", "session", window=10.0,
            queries=five_query_workload,
            specs=lambda: _tpch_specs(300.0, five_query_workload()),
            speed=27_000.0, oracle_inputs=1000, ladder_inputs=20_000,
        ),
        Workload(
            "tpch10_output", "session", window=10.0,
            queries=ten_query_workload, specs=lambda: tpch_specs(200.0),
            speed=2_500.0, oracle_inputs=600,
        ),
        Workload(
            "wide2_columnar", "session", window=15.0,
            queries=_wide2_queries, specs=_wide2_specs,
            speed=8_000.0, oracle_inputs=3000, ladder_inputs=20_000,
            session_kwargs={"store_backend": "columnar"},
        ),
        Workload(
            # same feed and size as wide2_columnar: the sharding tax is a
            # subtraction, and the digests must be equal
            "wide2_shard2", "session", window=15.0,
            queries=_wide2_queries, specs=_wide2_specs,
            speed=8_000.0, oracle_inputs=3000,
            session_kwargs={
                "store_backend": "columnar",
                "workers": 2,
                "worker_transport": "process",
            },
        ),
        Workload(
            "svc_tcp", "svc", window=4.0,
            queries=lambda: [Query.of("q", "R.a=S.a")],
            specs=lambda: _uniform_specs(500.0, a=2000),
            speed=22_000.0, oracle_inputs=1000,
        ),
        Workload(
            "churn_late_ckpt", "churn", window=10.0,
            queries=lambda: _churn_queries()[0], specs=lambda: tpch_specs(300.0),
            speed=6_000.0, oracle_inputs=900,
            session_kwargs={
                "disorder_bound": 0.5,
                "allowed_lateness": 0.25,
                "on_late": "dead_letter",
            },
        ),
    )
}


def new_session(w: Workload, record_streams: bool = False) -> JoinSession:
    """The workload's session: defaults plus what the workload says."""
    session = JoinSession(
        window=w.window, record_streams=record_streams, **w.session_kwargs
    )
    for query in w.queries():
        session.add_query(query)
    return session


def query_names(w: Workload) -> List[str]:
    return [q.name for q in w.queries()]


def make_feed(w: Workload, seed: int, inputs: int) -> List[StreamTuple]:
    """Exactly ``inputs`` arrival-ordered tuples, a function of the seed."""
    duration = inputs / w.event_rate * 1.03 + 2.0
    streams, feed = generate_streams(w.specs(), duration, seed=seed)
    if w.kind == "churn":
        feed = bounded_delay_feed(streams, 1.0, seed=seed)
    if len(feed) < inputs:
        raise RuntimeError(f"{w.name}: generated {len(feed)} < {inputs} inputs")
    return feed[:inputs]


@dataclass(frozen=True)
class Sizes:
    """Chunk counts of one run, fixed by ``--seconds`` and ``--scale``."""

    warm: int
    timed: int
    tail: int = 0
    open_events: int = 0
    ladder: int = 0
    oracle: int = 0

    @property
    def feed_inputs(self) -> int:
        return (self.warm + self.timed + self.tail) * CHUNK + self.open_events


def sizes_of(w: Workload, seconds: float, scale: float) -> Sizes:
    size = seconds * scale
    warm = math.ceil(WARMUP_WINDOWS * w.window * w.event_rate * min(1.0, scale) / CHUNK)
    oracle = max(200, int(w.oracle_inputs * min(1.0, math.sqrt(scale))))
    ladder = int(w.ladder_inputs * min(1.0, scale))
    if w.kind == "churn":
        # whole add/remove pairs, each followed by a checkpoint, so the
        # last snapshot is taken exactly where the timed region ends
        pairs = max(1, round(size * 0.4))
        return Sizes(warm, pairs * 2 * CHURN_EVERY, tail=TAIL_CHUNKS, oracle=oracle)
    if w.kind == "svc":
        # half the run saturates the closed loop, 0.4 of it is open loop
        timed = max(1, round(w.speed * size * 0.5 / CHUNK))
        return Sizes(
            warm, timed, open_events=max(200, int(OPEN_RATE * size * 0.4)), oracle=oracle
        )
    return Sizes(
        warm, max(2, round(w.speed * size / CHUNK)), ladder=ladder, oracle=oracle
    )


# ----------------------------------------------------------------------
# result sink, checks, process measurements
# ----------------------------------------------------------------------
_MASK = (1 << 64) - 1


class Sink:
    """Subscriber callbacks keeping a per-query result count and a cheap
    digest: every 16th result of a query adds a hash of its earliest and
    latest event timestamp.  Hashing every result would cost more than 3%
    of an output-heavy run; sampling by position makes the digest depend on
    delivery order, which the engine documents as deterministic (and equal
    for ``workers`` 1 and N), so a changed order fails the check too."""

    def __init__(self) -> None:
        self._readers: Dict[str, Callable[[], Tuple[int, int]]] = {}

    def callback(self, query: str) -> Callable[[StreamTuple], None]:
        count = 0
        acc = 0

        def on_result(result: StreamTuple) -> None:
            nonlocal count, acc
            count += 1
            if not count & 15:
                acc += hash(result.earliest_ts) * 31 + hash(result.latest_ts)

        self._readers[query] = lambda: (count, acc & _MASK)
        return on_result

    def attach(
        self,
        session: JoinSession,
        names: Sequence[str],
        tracer: Optional[spine_trace.Tracer] = None,
    ) -> None:
        for name in names:
            callback = self.callback(name)
            if tracer is not None:
                callback = tracer.wrap("emit.callback", callback)
            session.subscribe(name, callback)

    def read(self) -> Dict[str, List[int]]:
        return {q: list(reader()) for q, reader in sorted(self._readers.items())}

    def total(self) -> int:
        return sum(reader()[0] for reader in self._readers.values())

    @staticmethod
    def cost_ns(calls: int = 100_000) -> float:
        """What one callback costs, calibrated on a dummy result."""
        callback = Sink().callback("q")
        dummy = StreamTuple({}, {"R": 1.5, "S": 2.5}, "R", 2.5)
        t0 = time.perf_counter_ns()
        for _ in range(calls):
            callback(dummy)
        t1 = time.perf_counter_ns()
        for _ in range(calls):
            pass
        return max(0.0, ((t1 - t0) - (time.perf_counter_ns() - t1)) / calls)


class Checks:
    """Operations attempted and failed; a failed check names itself."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []

    def ops(self, completed: int) -> None:
        """Operations that completed (a push or control operation that
        raises ends the run, so it never gets here)."""
        self.attempted += completed

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)


def rss_mb(pids: Sequence[int]) -> float:
    """Resident set of the given processes, MiB (``/proc/<pid>/statm``)."""
    page = os.sysconf("SC_PAGE_SIZE")
    total = 0
    for pid in pids:
        with open(f"/proc/{pid}/statm") as handle:
            total += int(handle.read().split()[1]) * page
    return total / 2**20


def session_pids() -> List[int]:
    """This process plus its shard workers."""
    return [os.getpid()] + [p.pid for p in multiprocessing.active_children()]


def chunked(feed: Sequence[Any], first: int, count: int) -> List[Sequence[Any]]:
    """``count`` chunks of the feed starting at chunk index ``first``."""
    return [feed[i * CHUNK:(i + 1) * CHUNK] for i in range(first, first + count)]


def median_ms(samples: Sequence[float]) -> float:
    return statistics.median(samples) * 1e3 if samples else 0.0


def percentile(samples: Sequence[float], q: float) -> float:
    if not samples:
        return 0.0
    ordered = sorted(samples)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


# ----------------------------------------------------------------------
# one pass of a session-driven workload (closed loop, in process)
# ----------------------------------------------------------------------
@dataclass
class PassResult:
    wall: float = 0.0
    inputs: int = 0
    results: int = 0
    warmup_s: float = 0.0
    rss_growth_mb: float = 0.0
    latency_p50_ms: float = 0.0
    driver_cpu_s: float = 0.0
    worker_cpu_s: float = 0.0
    digest: Dict[str, List[int]] = field(default_factory=dict)
    counters: Dict[str, float] = field(default_factory=dict)
    extras: Dict[str, float] = field(default_factory=dict)
    #: traced passes: ``name -> [calls, total_s, self_s]`` of the timed
    #: region, and the wall time the wrappers added to it
    spans: Dict[str, List[float]] = field(default_factory=dict)
    trace_overhead_s: float = 0.0


def engine_counters(session: JoinSession) -> Dict[str, float]:
    m = session.metrics
    return {
        "inputs": m.inputs_ingested,
        "tuples_sent": m.tuples_sent,
        "results": m.results_emitted,
        "comparisons": m.comparisons,
        "peak_stored_units": m.peak_stored_units,
        "late_admitted": m.late_admitted,
        "dead_lettered": m.dead_lettered,
        "migrated_tuples": m.migrated_tuples,
        "backfilled_tuples": m.backfilled_tuples,
        "preserved_tuples": m.preserved_tuples,
        "decisions": len(m.decisions),
    }


def children_cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def timed(loop: Callable[[], None], tracer: Optional[spine_trace.Tracer]) -> Tuple[float, float]:
    """Run the timed region; returns its wall and this process's CPU time.
    Traced, the loop is the root span ``harness.loop``: every layer span is
    its descendant, so the self times add up to its wall."""
    if tracer is not None:
        tracer.reset()
        loop = tracer.wrap("harness.loop", loop)
    cpu = time.process_time()
    start = time.perf_counter()
    loop()
    wall = time.perf_counter() - start
    if tracer is not None:
        tracer.set_chunk(-1)
    return wall, time.process_time() - cpu


def session_pass(
    w: Workload,
    feed: Sequence[StreamTuple],
    sizes: Sizes,
    timed_chunks: int,
    checks: Checks,
    tracer: Optional[spine_trace.Tracer] = None,
) -> PassResult:
    """Warm up, then push ``timed_chunks`` chunks back to back and flush."""
    out = PassResult()
    cpu_children = children_cpu()
    session = new_session(w)
    try:
        sink = Sink()
        sink.attach(session, query_names(w), tracer)
        session.start()
        t = time.perf_counter()
        for chunk in chunked(feed, 0, sizes.warm):
            session.push_batch(chunk)
        session.flush()
        out.warmup_s = time.perf_counter() - t
        gc.collect()
        gc.freeze()
        pids = session_pids()
        rss_start = rss_mb(pids)
        before = sink.total()
        chunks = chunked(feed, sizes.warm, timed_chunks)
        # a chunk's latency runs until its results reached the subscribers:
        # the end of its push_batch in process, the next flush with workers
        sharded = w.session_kwargs.get("workers", 1) > 1
        latency_s: List[float] = []
        clock = time.perf_counter

        def loop() -> None:
            waiting: List[float] = []
            for index, chunk in enumerate(chunks):
                if tracer is not None:
                    tracer.set_chunk(index)
                c0 = clock()
                session.push_batch(chunk)
                if sharded:
                    waiting.append(c0)
                else:
                    latency_s.append(clock() - c0)
                if not (index + 1) % FLUSH_EVERY or index + 1 == len(chunks):
                    session.flush()
                    now = clock()
                    latency_s.extend(now - c0 for c0 in waiting)
                    del waiting[:]

        out.wall, out.driver_cpu_s = timed(loop, tracer)
        if tracer is not None:
            out.spans, out.trace_overhead_s = tracer.export(), tracer.overhead_s()
        out.rss_growth_mb = rss_mb(pids) - rss_start
        out.inputs = timed_chunks * CHUNK
        out.results = sink.total() - before
        out.latency_p50_ms = median_ms(latency_s)
        out.digest = sink.read()
        out.counters = engine_counters(session)
        checks.ops(out.inputs + sizes.warm * CHUNK)
        checks.check(
            out.counters["inputs"] == out.inputs + sizes.warm * CHUNK,
            f"engine ingested {out.counters['inputs']} inputs, "
            f"{out.inputs + sizes.warm * CHUNK} were pushed",
        )
        checks.check(
            out.counters["results"] == sink.total(),
            f"engine emitted {out.counters['results']} results, "
            f"subscribers saw {sink.total()}",
        )
    finally:
        session.close()
        gc.unfreeze()
    out.worker_cpu_s = children_cpu() - cpu_children
    return out


def time_setups(build: Callable[[], Callable[[], None]], reps: int) -> float:
    """Median wall of ``build()``; what it returns tears the set-up down
    outside the timing."""
    samples = []
    for _ in range(reps):
        t = time.perf_counter()
        teardown = build()
        samples.append(time.perf_counter() - t)
        teardown()
    return statistics.median(samples)


def session_setup(w: Workload) -> Callable[[], None]:
    """System set-up of a session workload: construction, queries, first
    plan (ILP solve + build_topology), runtime and worker pool."""
    session = new_session(w)
    Sink().attach(session, query_names(w))
    session.start()
    return session.close


# ----------------------------------------------------------------------
# churn_late_ckpt: the control plane and the watermark arrival path
# ----------------------------------------------------------------------
def churn_pass(
    w: Workload,
    feed: Sequence[StreamTuple],
    sizes: Sizes,
    timed_chunks: int,
    checks: Checks,
    tracer: Optional[spine_trace.Tracer],
    snap_dir: str,
) -> PassResult:
    """Push ``CHURN_EVERY`` chunks, add q9+q10, push, remove them,
    checkpoint; repeat.  Then restore the last snapshot, feed the live and
    the restored session the same tail, and compare what they deliver."""
    out = PassResult()
    base, extra = _churn_queries()
    names = [q.name for q in base + extra]
    path = os.path.join(snap_dir, "churn.snap")
    session = new_session(w)
    restored: Optional[JoinSession] = None
    try:
        sink = Sink()
        sink.attach(session, [q.name for q in base], tracer)
        session.start()
        t = time.perf_counter()
        for chunk in chunked(feed, 0, sizes.warm):
            session.push_batch(chunk)
        session.flush()
        out.warmup_s = time.perf_counter() - t
        gc.collect()
        gc.freeze()
        rss_start = rss_mb([os.getpid()])
        before = sink.total()
        chunks = chunked(feed, sizes.warm, timed_chunks)
        chunk_s: List[float] = []
        add_s: List[float] = []
        remove_s: List[float] = []
        checkpoint_s: List[float] = []
        clock = time.perf_counter

        def loop() -> None:
            for index, chunk in enumerate(chunks):
                if tracer is not None:
                    tracer.set_chunk(index)
                c0 = clock()
                session.push_batch(chunk)
                chunk_s.append(clock() - c0)
                step = (index + 1) // CHURN_EVERY
                if (index + 1) % CHURN_EVERY:
                    continue
                c0 = clock()
                if step % 2:
                    for query in extra:
                        session.add_query(query)
                    add_s.append(clock() - c0)
                    if step == 1:
                        sink.attach(session, [q.name for q in extra], tracer)
                else:
                    for query in extra:
                        session.remove_query(query.name)
                    remove_s.append(clock() - c0)
                    c0 = clock()
                    session.checkpoint(path)
                    checkpoint_s.append(clock() - c0)
            session.flush()

        out.wall, _ = timed(loop, tracer)
        if tracer is not None:
            out.spans, out.trace_overhead_s = tracer.export(), tracer.overhead_s()
        out.rss_growth_mb = rss_mb([os.getpid()]) - rss_start
        out.results = sink.total() - before
        out.latency_p50_ms = median_ms(chunk_s)
        out.counters = engine_counters(session)
        # late tuples beyond the grace band are routed to the dead-letter
        # output, not ingested: admitted = pushed - dead-lettered
        pushed = (sizes.warm + timed_chunks) * CHUNK
        out.inputs = timed_chunks * CHUNK
        checks.ops(pushed)
        checks.ops(len(add_s) + len(remove_s) + len(checkpoint_s))
        checks.check(
            out.counters["inputs"] + out.counters["dead_lettered"] == pushed,
            f"ingested {out.counters['inputs']} + dead-lettered "
            f"{out.counters['dead_lettered']} != pushed {pushed}",
        )
        out.extras = {
            "control.add_step_p50_ms": median_ms(add_s),
            "control.remove_step_p50_ms": median_ms(remove_s),
            "control.checkpoint_p50_ms": median_ms(checkpoint_s),
            "snapshot.bytes": os.path.getsize(path),
            "snapshot.stored_tuples": session.stored_tuples(),
        }
        # restore the snapshot taken where the timed region ended, then
        # both sessions see the same tail
        c0 = clock()
        restored = JoinSession.restore(path)
        out.extras["control.restore_ms"] = (clock() - c0) * 1e3
        checks.ops(1)
        live_tail, mirror = Sink(), Sink()
        live_tail.attach(session, names)
        mirror.attach(restored, names)
        for chunk in chunked(feed, sizes.warm + timed_chunks, sizes.tail):
            session.push_batch(chunk)
            restored.push_batch(chunk)
        session.flush()
        restored.flush()
        checks.ops(2 * sizes.tail * CHUNK)
        checks.check(
            live_tail.read() == mirror.read(),
            f"restored session diverged on the tail: live {live_tail.read()}, "
            f"restored {mirror.read()}",
        )
        for counter in ("late_admitted", "dead_lettered"):
            checks.check(
                getattr(session.metrics, counter) == getattr(restored.metrics, counter),
                f"restored session's {counter} differs from the live one's",
            )
        out.digest = sink.read()
    finally:
        session.close()
        if restored is not None:
            restored.close()
        gc.unfreeze()
    return out


# ----------------------------------------------------------------------
# the server child (svc_tcp, the ladder's server rungs, their set-up)
# ----------------------------------------------------------------------
class ServerChild:
    """``serve_child.py`` in a child process, driven over its stdin/stdout.

    A line written to the child's stdin is a command; every command is
    answered by one JSON line on its stdout (see ``serve_child.py``).
    """

    def __init__(self, workload: str, trace: int = 0) -> None:
        env = dict(os.environ, PYTHONHASHSEED="0")
        self.proc = subprocess.Popen(
            [
                sys.executable, os.path.join(HERE, "serve_child.py"),
                "--workload", workload, "--trace", str(trace),
                "--src", SRC_DIR,
            ],
            env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        ready = self._reply()
        self.port = int(ready["port"])

    def _reply(self) -> Dict[str, Any]:
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(
                f"server child exited with code {self.proc.wait()} without a reply"
            )
        return json.loads(line)

    def command(self, name: str) -> Dict[str, Any]:
        self.proc.stdin.write(name + "\n")
        self.proc.stdin.flush()
        return self._reply()

    def stop(self) -> None:
        """Stop the child and wait until it has ended."""
        if self.proc.poll() is None:
            try:
                self.proc.stdin.write("stop\n")
                self.proc.stdin.flush()
                self.proc.wait(timeout=20)
            except (OSError, subprocess.TimeoutExpired):
                self.proc.kill()
        self.proc.wait()
        self.proc.stdin.close()
        self.proc.stdout.close()


def unqualified(feed: Sequence[StreamTuple]) -> List[Tuple[str, Dict[str, Any], float]]:
    """Wire triples ``(relation, values, ts)`` of a feed of input tuples."""
    return [
        (t.trigger, {k.split(".", 1)[1]: v for k, v in t.values.items()}, t.trigger_ts)
        for t in feed
    ]


def svc_setup(w: Workload) -> Callable[[], None]:
    """System set-up of the service: boot the server process until it
    listens, and connect one client."""
    child = ServerChild(w.name)

    async def connect() -> None:
        client = await ServiceClient.connect("127.0.0.1", child.port)
        await client.close()

    try:
        asyncio.run(connect())
    except BaseException:
        child.stop()
        raise
    return child.stop


async def _svc_phases(
    child: ServerChild,
    items: Sequence[Tuple[str, Dict[str, Any], float]],
    sizes: Sizes,
    timed_chunks: int,
    out: PassResult,
) -> Dict[str, Dict[str, Any]]:
    marks: Dict[str, Dict[str, Any]] = {}
    warm = sizes.warm * CHUNK
    sat = timed_chunks * CHUNK
    client = await ServiceClient.connect("127.0.0.1", child.port)
    try:
        t = time.perf_counter()
        for relation, values, ts in items[:warm]:
            await client.push(relation, values, ts)
        await client.flush()
        out.warmup_s = time.perf_counter() - t
        marks["setup"] = child.command("mark")
        # phase sat: closed loop, credit-gated fire-and-forget frames
        start = time.perf_counter()
        for relation, values, ts in items[warm:warm + sat]:
            await client.push(relation, values, ts)
        await client.flush()
        out.wall = time.perf_counter() - start
        marks["sat"] = child.command("mark")
        # phase open: each event is sent when it is due, stamped with its
        # due time, however late the generator runs
        late: List[float] = []
        clock = time.monotonic
        origin = clock() + 0.05
        last = origin
        opened = items[warm + sat:warm + sat + sizes.open_events]
        for index, (relation, values, ts) in enumerate(opened):
            due = origin + index / OPEN_RATE
            now = clock()
            while now < due:
                gap = due - now
                await asyncio.sleep(gap - 0.0005 if gap > 0.001 else 0)
                now = clock()
            late.append(now - due)
            await client.push(relation, dict(values, _t=due), ts)
            last = clock()
        await client.flush()
        marks["open"] = child.command("mark")
        marks["stats"] = await client.stats()
        out.extras.update({
            "server.gen_late_p50_ms": percentile(late, 0.5) * 1e3,
            "server.gen_late_p99_ms": percentile(late, 0.99) * 1e3,
            "server.open_achieved_per_s": len(opened) / (last - origin),
            "client.pauses_seen": client.pauses_seen,
        })
    finally:
        await client.close()
    return marks


def svc_pass(
    w: Workload,
    items: Sequence[Tuple[str, Dict[str, Any], float]],
    sizes: Sizes,
    timed_chunks: int,
    checks: Checks,
    trace: int,
) -> PassResult:
    """Warm up over TCP, saturate the closed loop, then run the open loop."""
    out = PassResult()
    child = ServerChild(w.name, trace)
    try:
        marks = asyncio.run(_svc_phases(child, items, sizes, timed_chunks, out))
        final = child.command("report")
    finally:
        child.stop()
    setup, sat, opened, stats = (marks[k] for k in ("setup", "sat", "open", "stats"))
    out.inputs = timed_chunks * CHUNK
    out.results = sat["results_total"] - setup["results_total"]
    out.rss_growth_mb = opened["rss_mb"] - setup["rss_mb"]
    out.latency_p50_ms = opened["latency_p50_ms"]
    out.digest = final["results"]
    out.counters = final["counters"]
    frames = (sizes.warm + timed_chunks) * CHUNK + sizes.open_events
    checks.ops(frames)
    checks.ops(4)  # flush x3 + stats, each raised on a server error
    checks.check(
        stats["ingested"] == frames,
        f"server ingested {stats['ingested']} of {frames} frames sent",
    )
    checks.check(
        out.counters["results"] == sum(n for n, _ in out.digest.values()),
        "engine results differ from what the server's subscribers saw",
    )
    checks.check(
        opened["latency_samples"] > 0, "the open-loop phase delivered no result"
    )
    busy = opened["cpu_s"] - setup["cpu_s"]
    push_s = opened["push_s"] - setup["push_s"]
    out.extras.update({
        "server.cpu_s": busy,
        "server.session_push_s": push_s,
        "server.wire_queue_self_s": max(0.0, busy - push_s) if trace else 0.0,
        "server.queue_high_water": stats["queue_high_water"],
        "server.pauses_sent": stats["pauses_sent"],
        "server.bytes_in": opened["bytes_in"] - setup["bytes_in"],
        "server.latency_p50_ms": opened["latency_p50_ms"],
        "server.latency_p99_ms": opened["latency_p99_ms"],
        "server.latency_samples": opened["latency_samples"],
    })
    out.spans, out.trace_overhead_s = final["spans"], final["overhead_s"]
    return out


# ----------------------------------------------------------------------
# the ladder: one feed through ever more of the stack
# ----------------------------------------------------------------------
def ladder(w: Workload, feed: Sequence[StreamTuple], checks: Checks) -> Dict[str, float]:
    """Microseconds per input of the same cold-start feed through bare
    ``TopologyRuntime.process`` on the session's own topology, then
    ``JoinSession.push_batch``, ``workers=2``, ``JoinServer.push_batch`` in
    process, and ``ServiceClient`` over TCP.  A layer's tax is the
    difference to the rung below."""
    chunks = [feed[i:i + CHUNK] for i in range(0, len(feed), CHUNK)]
    rungs: Dict[str, float] = {}
    counts: Dict[str, int] = {}

    def begin() -> float:
        gc.collect()  # no rung pays for the garbage of the one before
        return time.perf_counter()

    def record(name: str, start: float, results: int) -> None:
        rungs[f"ladder.{name}_us"] = (time.perf_counter() - start) / len(feed) * 1e6
        counts[name] = results

    planned = new_session(w).start()
    runtime = TopologyRuntime(
        planned.topology,
        {rel: w.window for rel in planned.relations},
        RuntimeConfig(store_backend=w.session_kwargs.get("store_backend", "python")),
    )
    planned.close()
    start = begin()
    for tup in feed:
        runtime.process(tup)
    runtime.flush()
    record("runtime", start, runtime.metrics.results_emitted)
    runtime.close()

    names = query_names(w)
    sharded = replace(w, session_kwargs=dict(w.session_kwargs, workers=2))
    for rung, variant in (("session", w), ("shard2", sharded)):
        session = new_session(variant)
        sink = Sink()
        sink.attach(session, names)
        try:
            session.start()
            start = begin()
            for chunk in chunks:
                session.push_batch(chunk)
            session.flush()
            record(rung, start, sink.total())
        finally:
            session.close()

    async def in_process() -> None:
        session = new_session(w)
        sink = Sink()
        sink.attach(session, names)
        session.start()
        async with JoinServer(session, queue_depth=256) as server:
            start = begin()
            for chunk in chunks:
                await server.push_batch(chunk)
            await server.drain()
            session.flush()
            record("server_inproc", start, sink.total())

    asyncio.run(in_process())

    # ServiceClient.push_batch would send a StreamTuple's *qualified*
    # attribute names, which the server qualifies a second time, so the
    # wire rung sends plain (relation, values, ts) triples
    triples = unqualified(feed)
    wire_chunks = [triples[i:i + CHUNK] for i in range(0, len(triples), CHUNK)]

    async def over_tcp(child: ServerChild) -> None:
        async with await ServiceClient.connect("127.0.0.1", child.port) as client:
            start = begin()
            for chunk in wire_chunks:
                await client.push_batch(chunk)
            await client.flush()
            rungs["ladder.server_tcp_us"] = (
                (time.perf_counter() - start) / len(feed) * 1e6
            )

    child = ServerChild(w.name)
    try:
        asyncio.run(over_tcp(child))
        counts["server_tcp"] = child.command("report")["counters"]["results"]
    finally:
        child.stop()
    checks.check(
        len(set(counts.values())) == 1,
        f"ladder rungs disagree on the result count: {counts}",
    )
    return rungs


# ----------------------------------------------------------------------
# the oracle prefix check
# ----------------------------------------------------------------------
def oracle_check(w: Workload, feed: Sequence[StreamTuple], checks: Checks) -> float:
    """Replay a short prefix with ``record_streams=True`` and compare every
    query with the brute-force reference (``session.verify()``)."""
    start = time.perf_counter()
    session = new_session(w, record_streams=True)
    extra = _churn_queries()[1] if w.kind == "churn" else []
    third = max(1, len(feed) // 3)
    try:
        for index in range(0, len(feed), CHUNK):
            chunk = feed[index:index + CHUNK]
            session.push_batch(chunk)
            # one add and one remove inside the prefix, so the oracle sees
            # the activation intervals the churn workload produces
            if extra and index < third <= index + CHUNK:
                for query in extra:
                    session.add_query(query)
            if extra and index < 2 * third <= index + CHUNK:
                for query in extra:
                    session.remove_query(query.name)
        report = session.verify()
        checks.check(report.ok, f"oracle mismatch on the prefix:\n{report.describe()}")
    finally:
        session.close()
    return time.perf_counter() - start


# ----------------------------------------------------------------------
# entry point of the child interpreter
# ----------------------------------------------------------------------
def run_workload(
    name: str,
    seed: int,
    seconds: float,
    trace: int,
    scale: float = 1.0,
    sabotage: str = "",
) -> Dict[str, Any]:
    """Run one workload in this process; returns the report dictionary."""
    w = WORKLOADS[name]
    sizes = sizes_of(w, seconds, scale)
    checks = Checks()
    values: Dict[str, float] = {
        "host.nproc": float(os.cpu_count() or 1),
        "host.loadavg_start": os.getloadavg()[0],
    }
    os.makedirs(OUT_DIR, exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix=f"{name}-", dir=OUT_DIR)
    try:
        t = time.perf_counter()
        feed: List[Any] = make_feed(w, seed, sizes.feed_inputs + 1)
        values["streams.generate_s"] = time.perf_counter() - t
        if sabotage == "drop-tuple":
            # selftest.py's teeth test: lose one tuple of the timed region
            # (the feed carries one spare, so the chunking stays whole)
            del feed[(sizes.warm + 1) * CHUNK + 7]
        raw_feed = feed = feed[:sizes.feed_inputs]
        if w.kind == "svc":
            feed = unqualified(feed)
        gc.collect()
        # a traced run spends half its size untraced (the reference for
        # trace.overhead_ratio, whose results the traced half must repeat)
        # and half traced; an untraced run spends all of it in one pass
        chunks = sizes.timed if not trace else max(2, sizes.timed // 2)
        if w.kind == "churn":
            pair = 2 * CHURN_EVERY  # whole add/remove pairs only
            chunks = max(pair, chunks // pair * pair)

        def one_pass(tr: Optional[spine_trace.Tracer]) -> PassResult:
            if w.kind == "svc":
                return svc_pass(w, feed, sizes, chunks, checks, 1 if tr else 0)
            if w.kind == "churn":
                return churn_pass(w, feed, sizes, chunks, checks, tr, work_dir)
            return session_pass(w, feed, sizes, chunks, checks, tr)

        if not trace:
            setup = svc_setup if w.kind == "svc" else session_setup
            # reduced sizes (selftest) are about names and checks, not timing
            reps = SETUP_REPS[w.kind] if scale >= 1.0 else 1
            values["setup_s"] = time_setups(lambda: setup(w), reps)
        result = one_pass(None)
        if trace:
            reference = result
            tracer = spine_trace.Tracer()
            tracer.calibrate()
            observed = Observed()
            spine_trace.install_layers(tracer, observed.observers())
            try:
                result = one_pass(tracer)
            finally:
                tracer.uninstall()
            checks.check(
                result.digest == reference.digest,
                "the traced pass delivered other results than the untraced one",
            )
            values.update(layer_values(w, tracer, observed, result, reference))
            tracer.write_raw(
                os.path.join(OUT_DIR, f"trace_{name}.json"),
                {"workload": name, "seed": seed, "timed_inputs": result.inputs},
            )
            if sizes.ladder:
                values.update(ladder(w, raw_feed[:sizes.ladder], checks))
        values["harness.check_s"] = oracle_check(w, raw_feed[:sizes.oracle], checks)
        counters = result.counters
        sink_share = Sink.cost_ns() * result.results / 1e9 / result.wall
        values.update({
            "inputs_per_s": result.inputs / result.wall,
            "results_per_s": result.results / result.wall,
            "tuples_sent_per_input": counters["tuples_sent"] / counters["inputs"],
            "rss_growth_mb": result.rss_growth_mb,
            "harness.latency_p50_ms": result.latency_p50_ms,
            "harness.warmup_s": result.warmup_s,
            "harness.timed_s": result.wall,
            "harness.sink_share": sink_share,
            "harness.failed_share": checks.failed / max(1, checks.attempted),
        })
        values.update(result.extras)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    return {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "scale": scale,
        "trace": trace,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "failures": checks.failures,
        "timed_inputs": result.inputs,
        "results": result.digest,
        "counters": counters,
        "values": values,
    }


# ----------------------------------------------------------------------
# per-layer values of a traced pass
# ----------------------------------------------------------------------
class Observed:
    """Counts taken where the work happens, by the wrappers' observers."""

    def __init__(self) -> None:
        self.ilp_build_s = 0.0
        self.ilp_solve_s = 0.0
        self.model_vars = 0
        self.model_rows = 0
        self.ipc_bytes = 0
        self.shard_inputs: Dict[Optional[int], int] = {}

    def observers(self) -> Dict[str, Callable[[Any, tuple], None]]:
        def optimize(result: Any, args: tuple) -> None:
            self.ilp_build_s += result.build_seconds
            self.ilp_solve_s += result.solve_seconds
            self.model_vars = result.ilp.model.num_vars
            self.model_rows = result.ilp.model.num_constraints

        def pickled(result: Any, args: tuple) -> None:
            self.ipc_bytes += memoryview(result).nbytes

        def shard_of(result: Any, args: tuple) -> None:
            self.shard_inputs[result] = self.shard_inputs.get(result, 0) + 1

        return {
            "core.optimize": optimize,
            "sharding.ipc_pickle": pickled,
            "sharding.shard_of": shard_of,
        }

    def shard_skew(self) -> float:
        """max / mean inputs per shard (broadcast inputs count for all)."""
        shards = [n for shard, n in self.shard_inputs.items() if shard is not None]
        if not shards:
            return 0.0
        return max(shards) / (sum(shards) / len(shards))


def layer_values(
    w: Workload,
    tracer: spine_trace.Tracer,
    observed: Observed,
    traced: PassResult,
    reference: PassResult,
) -> Dict[str, float]:
    """Every per-layer metric of the traced pass, by name."""
    spans, before = traced.spans, tracer.before
    none = [0, 0.0, 0.0]

    def calls(name: str) -> float:
        return spans.get(name, none)[0]

    def total(name: str) -> float:
        return spans.get(name, none)[1]

    def self_s(name: str) -> float:
        return spans.get(name, none)[2]

    def all_calls(name: str) -> float:
        """Calls including set-up and warm-up (the first plan is set-up)."""
        return calls(name) + before.get(name, none)[0]

    def all_total(name: str) -> float:
        return total(name) + before.get(name, none)[1]

    c = traced.counters
    # in process the root span is the timed loop, so self times plus the
    # wrappers' own cost add up to its wall; for svc_tcp the account is the
    # server's CPU, and what no span covers is its wire and queue work
    covered = sum(entry[2] for entry in spans.values())
    if w.kind == "svc":
        region = traced.extras["server.cpu_s"]
    else:
        region = total("harness.loop")
        covered += traced.trace_overhead_s
    comparisons = c["comparisons"]
    return {
        "core.optimize_calls": all_calls("core.optimize"),
        "core.optimize_s": all_total("core.optimize"),
        "core.ilp_build_s": observed.ilp_build_s,
        "core.ilp_solve_s": observed.ilp_solve_s,
        "core.build_topology_s": all_total("core.build_topology"),
        "ilp.solve_calls": all_calls("ilp.solve"),
        "ilp.solve_s": all_total("ilp.solve"),
        "ilp.model_vars": observed.model_vars,
        "ilp.model_rows": observed.model_rows,
        "session.push_batch_calls": calls("session.push_batch"),
        "session.push_batch_self_s": self_s("session.push_batch"),
        "session.flush_s": total("session.flush"),
        "session.inputs": c["inputs"],
        "session.late_admitted": c["late_admitted"],
        "session.dead_lettered": c["dead_lettered"],
        "runtime.process_calls": calls("runtime.process"),
        "runtime.process_self_s": self_s("runtime.process"),
        "runtime.flush_self_s": self_s("runtime.flush"),
        "routing.target_tasks_calls": calls("routing.target_tasks"),
        "routing.target_tasks_s": total("routing.target_tasks"),
        "stores.insert_calls": calls("stores.insert"),
        "stores.insert_s": self_s("stores.insert"),
        "stores.probe_calls": calls("stores.probe_batch") + calls("stores.probe_container"),
        "stores.probe_s": self_s("stores.probe_batch") + self_s("stores.probe_container"),
        "stores.evict_calls": calls("stores.evict"),
        "stores.evict_s": self_s("stores.evict"),
        "stores.comparisons": comparisons,
        "stores.match_ratio": c["results"] / comparisons if comparisons else 0.0,
        "stores.peak_stored_units": c["peak_stored_units"],
        "columnar.insert_s": total("columnar.insert"),
        "columnar.probe_batch_calls": calls("columnar.probe_batch"),
        "columnar.probe_batch_s": total("columnar.probe_batch"),
        "columnar.probe_vector_calls": calls("columnar.probe_vector"),
        "columnar.probe_vector_s": total("columnar.probe_vector"),
        "columnar.evict_s": total("columnar.evict"),
        "tuples.merge_calls": calls("tuples.merge"),
        "tuples.merge_s": total("tuples.merge"),
        "metrics.on_result_calls": calls("metrics.on_result"),
        "metrics.on_result_s": total("metrics.on_result"),
        "emit.callback_calls": calls("emit.callback"),
        "emit.callback_s": total("emit.callback"),
        "rewiring.install_calls": calls("rewiring.install"),
        "rewiring.install_s": total("rewiring.install"),
        "rewiring.migrated_tuples": c["migrated_tuples"],
        "rewiring.backfilled_tuples": c["backfilled_tuples"],
        "rewiring.preserved_tuples": c["preserved_tuples"],
        "adaptivity.rewire_calls": calls("adaptivity.rewire"),
        "adaptivity.rewire_self_s": self_s("adaptivity.rewire"),
        "adaptivity.decisions": c["decisions"],
        "sharding.process_self_s": self_s("sharding.process"),
        "sharding.flush_s": total("sharding.flush"),
        "sharding.ipc_send_s": total("sharding.ipc_send"),
        "sharding.ipc_wait_s": total("sharding.ipc_recv") + total("sharding.ipc_poll"),
        "sharding.ipc_msgs": calls("sharding.ipc_send"),
        "sharding.ipc_bytes": observed.ipc_bytes,
        "sharding.driver_cpu_s": traced.driver_cpu_s if calls("sharding.process") else 0.0,
        "sharding.worker_cpu_s": traced.worker_cpu_s if calls("sharding.process") else 0.0,
        "sharding.shard_skew": observed.shard_skew(),
        "snapshot.write_s": total("snapshot.write"),
        # the restore follows the timed region
        "snapshot.read_s": tracer.total_s("snapshot.read"),
        "trace.wrapper_ns": tracer.wrapper_ns,
        "trace.overhead_ratio": (traced.wall / traced.inputs)
        / (reference.wall / reference.inputs),
        "trace.coverage": covered / region if region else 0.0,
    }

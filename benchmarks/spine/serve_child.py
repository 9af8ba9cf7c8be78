"""Server process of ``svc_tcp`` and of the ladder's TCP rung.

Boots ``JoinServer(queue_depth=256)`` over the named workload's session and
serves until told to stop.  The parent drives it over stdin/stdout, one
command per line, one JSON reply per command:

* at start-up, unprompted: ``{"port": N}`` once the server listens;
* ``mark``   — this process's state now (CPU, RSS, result counts, time
  inside ``session.push``, bytes read) and the result latencies collected
  since the previous mark;
* ``report`` — final per-query counts and digests, engine counters, spans;
* ``stop``   — stop the server and exit.

Result latency is taken here, in the subscriber callback: an open-loop
event carries the monotonic time it was due in ``values["_t"]``
(``CLOCK_MONOTONIC`` is one clock for every process of the machine), and
the result's last contributing event is its trigger.
"""

from __future__ import annotations

import argparse
import asyncio
import gc
import json
import os
import sys
import time


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--src", required=True)
    args = parser.parse_args()
    sys.path.insert(0, args.src)

    from repro import JoinServer

    import trace as spine_trace
    import workloads

    w = workloads.WORKLOADS[args.workload]
    session = workloads.new_session(w)
    tracer = None
    bytes_in = [0]
    if args.trace:
        tracer = spine_trace.Tracer()
        tracer.calibrate()
        spine_trace.install_layers(tracer)

        def count_bytes(_frame, args: tuple) -> None:
            bytes_in[0] += len(args[0])

        # every frame the server reads goes through json.loads exactly once
        tracer.patch(json, "loads", "server.json_loads", count_bytes)
    sink = workloads.Sink()
    sink.attach(session, workloads.query_names(w), tracer)
    latencies = []
    due_key = {rel: f"{rel}._t" for rel in session.relations}
    clock = time.monotonic

    def on_latency(result) -> None:
        due = result.values.get(due_key[result.trigger])
        if due is not None:
            latencies.append(clock() - due)

    if w.kind == "svc":
        for name in workloads.query_names(w):
            session.subscribe(name, on_latency)
    session.start()

    def reply(document) -> None:
        sys.stdout.write(json.dumps(document) + "\n")
        sys.stdout.flush()

    def mark():
        samples = sorted(latencies)
        del latencies[:]
        return {
            "cpu_s": time.process_time(),
            "rss_mb": workloads.rss_mb([os.getpid()]),
            "results_total": sink.total(),
            "push_s": tracer.total_s("session.push") if tracer else 0.0,
            "bytes_in": bytes_in[0],
            "latency_samples": len(samples),
            "latency_p50_ms": workloads.percentile(samples, 0.5) * 1e3,
            "latency_p99_ms": workloads.percentile(samples, 0.99) * 1e3,
        }

    async def serve() -> None:
        loop = asyncio.get_running_loop()
        async with JoinServer(session, queue_depth=256) as server:
            reply({"port": server.address[1]})
            first_mark = True
            while True:
                line = await loop.run_in_executor(None, sys.stdin.readline)
                command = line.strip()
                if command == "mark":
                    if first_mark:
                        # set-up is over: what was allocated so far is not
                        # rescanned by the collector while serving
                        first_mark = False
                        gc.collect()
                        gc.freeze()
                        if tracer:
                            tracer.reset()
                    reply(mark())
                elif command == "report":
                    await server.drain()
                    session.flush()
                    reply({
                        "results": sink.read(),
                        "counters": workloads.engine_counters(session),
                        "spans": tracer.export() if tracer else {},
                        "overhead_s": tracer.overhead_s() if tracer else 0.0,
                    })
                else:  # "stop", or the parent went away
                    return

    try:
        asyncio.run(serve())
    finally:
        if tracer:
            tracer.uninstall()


if __name__ == "__main__":
    main()

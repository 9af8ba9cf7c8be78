#!/usr/bin/env python3
"""TPC-H multi-query workload: the paper's Section VII.A scenario.

Part 1 compiles the five Figure-7a queries under all five strategies
(Flink/Storm Independent, Flink/Storm Shared, CLASH-MQO), runs each over
the same TPC-H-shaped stream on the timed simulator, and prints the
throughput / memory / latency grid of Figures 7b–7d.

Part 2 runs the same workload as a *live service*: a
:class:`repro.JoinSession` starts with four of the five queries, streams
TPC-H-shaped tuples through the shared plan, receives the fifth query
mid-stream (state migrates, nothing is rebuilt), and verifies every query
against the brute-force reference over its active interval.
"""

import argparse

from repro import JoinSession
from repro.experiments import format_table, ratio_summary, run_fig7
from repro.streams import five_query_workload, generate_streams, replay, tpch_specs
from repro.streams.tpch import tpch_catalog


def live_session_demo(total_rate: float, duration: float, window: float) -> None:
    queries = five_query_workload()
    session = JoinSession(window=window, solver="scipy", parallelism=2)
    # declared statistics from the TPC-H shape (observed stats take over at
    # the first replan); the catalog object itself remains usable unchanged
    catalog = tpch_catalog(total_rate=total_rate, window=window)
    for query in queries:
        for rel in query.relations:
            session.with_rate(rel, catalog.rate(rel))
        for pred in query.predicates:
            session.with_selectivity(pred, catalog.selectivity(pred))
    for query in queries[:4]:
        session.add_query(query)

    relations = {rel for q in queries for rel in q.relations}
    specs = [s for s in tpch_specs(total_rate=total_rate) if s.relation in relations]
    _, feed = generate_streams(specs, duration, seed=11)
    replay(session, (t for t in feed if t.trigger_ts < duration / 2))
    print(f"four queries live: {session.pushed} tuples pushed, "
          f"{session.metrics.results_emitted} results, "
          f"{session.stored_tuples()} stored")

    session.add_query(queries[4])  # q5 arrives mid-stream
    replay(session, (t for t in feed if t.trigger_ts >= duration / 2))
    record = session.rewires[-1]
    print(f"q5 arrived mid-stream: rewire added {list(record.added_stores)}, "
          f"preserved {session.metrics.preserved_tuples} stored tuples")
    print(session.verify(raise_on_mismatch=True).describe())


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick", action="store_true", help="CI smoke mode: shorter runs"
    )
    args = parser.parse_args()
    duration = 6.0 if args.quick else 12.0

    print("compiling and running 5-query TPC-H workload under all strategies...")
    rows = run_fig7(
        num_queries=5, total_rate=150.0, duration=duration, solver="scipy"
    )

    print()
    print(
        format_table(
            ["strategy", "throughput t/s", "peak memory", "latency ms", "probe cost"],
            [
                (
                    r.strategy,
                    r.throughput,
                    r.peak_memory_units,
                    r.mean_latency_ms,
                    r.probe_cost,
                )
                for r in rows
            ],
        )
    )

    print()
    for key, value in ratio_summary(rows).items():
        print(f"{key}: {value:.2f}")
    print()
    print("paper reference points: CMQO ~2.6x independent throughput;")
    print("independent memory 3.1x shared (5 queries); CMQO latency +14-16%.")

    print()
    print("=== the same workload as a live session (push + online arrival) ===")
    # dimension-heavy rates so PK/FK matches actually occur at demo scale
    live_session_demo(
        total_rate=500.0, duration=4.0 if args.quick else 8.0, window=2.0
    )


if __name__ == "__main__":
    main()

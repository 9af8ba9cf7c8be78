#!/usr/bin/env python3
"""Quickstart: optimize two overlapping stream join queries and run them.

Reproduces the paper's Section V.2 worked example end to end through the
:class:`repro.JoinSession` facade — register two 3-way queries sharing the
S ⋈ T join, declare the worked example's statistics, stream synthetic
tuples through the jointly optimized shared plan, and verify against the
brute-force reference.  The facade owns the catalog, optimizer, topology,
and runtime; the pre-facade five-step wiring is shown in
``docs/api.md`` (migration table) and still works unchanged.
"""

from repro import JoinSession
from repro.streams import StreamSpec, generate_into, uniform_domain


def main() -> None:
    # 1+2. queries, declared statistics, joint optimization (lazy: planned
    # at the first push; rates 100 and sel 0.015 are the paper's example)
    session = (
        JoinSession(window=10.0, parallelism=1)
        .with_selectivity("S.b=T.b", 0.015)
        .add_query("q1", "R.a=S.a", "S.b=T.b")
        .add_query("q2", "S.b=T.b", "T.c=U.c")
    )
    for relation in "RSTU":
        session.with_rate(relation, 100.0)

    # 3+4. live push-based ingestion (topology built on the first tuple)
    specs = [
        StreamSpec("R", 20.0, {"a": uniform_domain(8)}),
        StreamSpec("S", 20.0, {"a": uniform_domain(8), "b": uniform_domain(8)}),
        StreamSpec("T", 20.0, {"b": uniform_domain(8), "c": uniform_domain(8)}),
        StreamSpec("U", 20.0, {"c": uniform_domain(8)}),
    ]
    generate_into(session, specs, duration=10.0, seed=42)
    session.flush()  # complete the last deferred micro-batch before reading

    print("=== session ===")
    print(session.describe())
    print("\n=== execution ===")
    print(f"input tuples:      {session.metrics.inputs_ingested}")
    print(f"tuples sent:       {session.metrics.tuples_sent} (probe cost)")
    print(
        f"results q1 / q2:   "
        f"{len(session.results('q1'))} / {len(session.results('q2'))}"
    )

    # 5. verify against the brute-force reference (wired automatically)
    print("\n=== verification ===")
    print(session.verify(raise_on_mismatch=True).describe())


if __name__ == "__main__":
    main()

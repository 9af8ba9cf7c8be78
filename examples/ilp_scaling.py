#!/usr/bin/env python3
"""ILP optimization at scale: the Section VII.C study (Figures 9a-9f).

Generates random 3-way queries over a universe of relations, builds the
multi-query ILP, solves it, and reports probe-cost savings, problem sizes,
and optimization runtimes — the shapes of Figures 9a-9f.
"""

from repro.experiments import format_table, run_point


def main() -> None:
    print("=== 10 input relations (Figs. 9a/9b): sharing pays off ===")
    rows = []
    for nq in (20, 40, 60):
        point = run_point(10, nq, seed=nq)
        rows.append(
            (
                nq,
                point.num_distinct,
                point.individual_cost,
                point.mqo_cost,
                f"{100 * point.savings:.0f}%",
                point.num_variables,
                point.num_probe_orders,
                f"{point.optimize_seconds:.2f}s",
            )
        )
    print(
        format_table(
            ["nQ", "distinct", "individual", "MQO", "savings", "vars", "orders", "time"],
            rows,
        )
    )

    print()
    print("=== 100 input relations (Figs. 9c/9d): little overlap, few savings ===")
    rows = []
    for nq in (20, 40, 60):
        point = run_point(100, nq, seed=nq)
        rows.append(
            (
                nq,
                point.num_distinct,
                point.individual_cost,
                point.mqo_cost,
                f"{100 * point.savings:.0f}%",
                point.num_variables,
                point.num_probe_orders,
                f"{point.optimize_seconds:.2f}s",
            )
        )
    print(
        format_table(
            ["nQ", "distinct", "individual", "MQO", "savings", "vars", "orders", "time"],
            rows,
        )
    )


if __name__ == "__main__":
    main()

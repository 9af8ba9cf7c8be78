#!/usr/bin/env python3
"""A/B driver: the same benchmark code against two source trees.

    python3 benchmarks/spine/compare.py --src-a PARENT/src --src-b CHANGE/src
        [--pairs 10] [--workload NAME]... [--seed N] [--seconds S]

``--src-a`` is the parent, ``--src-b`` the change (e.g. the ``src``
directories of two git worktrees).  Every pair runs both sides on the same
seed with *this* directory's ``run.py``, alternating which side goes first;
pair ``i`` uses seed ``N + i``.  For each end-to-end metric and workload it
prints both medians and quartiles, the share of pairs the change won, and a
verdict by the rule of the choosing-metrics guide (section 8) with the
bounds of ``BENCHMARK.json``:

* ``improved``   — the change won at least nine tenths of all pairs (ties
  count for neither side) and the medians differ by more than the distance
  between the parent's quartiles;
* ``regressed``  — the change's median is worse than the parent's by more
  than the metric's bound;
* ``no worse``   — it is not, and the parent's run-to-run spread is within
  the bound (or every run of the change beat every run of the parent);
* ``unresolved`` — the spread is wider than the bound, so "unchanged"
  cannot be told from "regressed".
"""

from __future__ import annotations

import argparse
import os
import statistics
import sys
from typing import Dict, List, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import run as spine_run  # noqa: E402


def measure(src: str, workload: str, seed: int, seconds: float) -> Dict[str, float]:
    _, line = spine_run.drive(workload, seed, seconds, 0, "--src", src)
    if not line["correct"]:
        print(f"  {workload} seed {seed} on {src}: {line['failed']} operations failed")
    return {name: entry["value"] for name, entry in line["metrics"].items()}


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(a: List[float], b: List[float], better: str, bound: float) -> Tuple[str, float]:
    """The section-8 rule for one metric on one workload; also returns the
    share of pairs the change won."""
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(1 for x, y in zip(a, b) if sign * (y - x) > 0)
    share = wins / len(a)
    a_q1, a_med, a_q3 = quartiles(a)
    b_med = statistics.median(b)
    gain = sign * (b_med - a_med)
    if share >= 0.9 and gain > a_q3 - a_q1:
        return "improved", share
    if a_med and -gain / abs(a_med) > bound:
        return "regressed", share
    clean_sweep = all(sign * (y - x) > 0 for x in a for y in b)
    if a_med and (a_q3 - a_q1) / abs(a_med) > bound and not clean_sweep:
        return "unresolved", share
    return "no worse", share


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--src-a", required=True, help="parent source tree (its src/)")
    parser.add_argument("--src-b", required=True, help="changed source tree (its src/)")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--workload", action="append", default=None)
    parser.add_argument("--seed", type=int, default=100)
    parser.add_argument("--seconds", type=float, default=None)
    args = parser.parse_args()
    if args.pairs < 10:
        parser.error("the rule needs at least ten pairs")
    spec = spine_run.load_spec()
    seconds = args.seconds or float(spec["run_seconds"])
    names = args.workload or [w["name"] for w in spec["workloads"]]
    sides = {"a": os.path.abspath(args.src_a), "b": os.path.abspath(args.src_b)}
    samples: Dict[Tuple[str, str, str], List[float]] = {}
    for pair in range(args.pairs):
        order = ("a", "b") if pair % 2 == 0 else ("b", "a")
        for workload in names:
            for side in order:
                values = measure(sides[side], workload, args.seed + pair, seconds)
                for metric, value in values.items():
                    samples.setdefault((workload, metric, side), []).append(value)
        print(f"pair {pair + 1} of {args.pairs} done", flush=True)
    print(f"\n{'workload':<16} {'metric':<22} {'parent q1/median/q3':<34} "
          f"{'change q1/median/q3':<34} {'won':>5}  verdict")
    regressed = False
    for workload in names:
        for metric in spec["end_to_end"]:
            a = samples[(workload, metric["name"], "a")]
            b = samples[(workload, metric["name"], "b")]
            what, share = verdict(a, b, metric["better"], metric["bound"])
            regressed = regressed or what == "regressed"
            fmt = "/".join(f"{v:.5g}" for v in quartiles(a))
            fmt_b = "/".join(f"{v:.5g}" for v in quartiles(b))
            print(f"{workload:<16} {metric['name']:<22} {fmt:<34} {fmt_b:<34} "
                  f"{share:>5.0%}  {what}")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Measurement spine: run the named workloads and print every metric.

    python3 benchmarks/spine/run.py [--workload NAME]... [--seed N]
        [--seconds S] [--traced] [--json OUT] [--regold]

Each workload runs in a fresh interpreter (``PYTHONHASHSEED=0``).  The
untraced run gives the end-to-end metrics; ``--traced`` adds a second run
per workload with timing wrappers installed from ``trace.py``, which gives
the per-layer metrics.  Every metric is printed by name with its unit, the
outputs are checked (``golden.json`` at the default seed and size, the
brute-force oracle on a prefix always), and the exit code is non-zero when
a check failed or a measurement is invalid.

The benchmark driver's form is ``--workload NAME --seed N --seconds S
--trace 0|1``: one workload, one run, and as the last line of standard
output one JSON object ``{"correct", "attempted", "failed", "metrics"}``
holding the end-to-end metrics (``--trace 0``) or the per-layer metrics
(``--trace 1``) that ``BENCHMARK.json`` names.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from typing import Any, Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
GOLDEN = os.path.join(HERE, "golden.json")

#: the seed and the two sizes ``golden.json`` is frozen for
GOLDEN_SEED = 1
PROFILES = {"full": (10.0, 1.0), "selftest": (10.0, 0.06)}

#: a full-size run is invalid when its timed region is shorter than the
#: first or longer than the second multiple of ``--seconds`` (a program that
#: got faster has a shorter region, which is fine until nothing is left to
#: time; a region three times the size means the box was not ours)
TIMED_RANGE = (0.1, 3.0)


def load_spec() -> Dict[str, Any]:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def parse_args(argv: Optional[List[str]] = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", action="append", default=None,
                        help="workload to run (repeatable; default: all six)")
    parser.add_argument("--seed", type=int, default=GOLDEN_SEED)
    parser.add_argument("--seconds", type=float, default=None,
                        help="size of the timed region, in seconds at seed "
                             "speed (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--traced", action="store_true",
                        help="also run every workload traced (per-layer metrics)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="driver form: one run, untraced (0) or traced (1), "
                             "and a JSON result as the last line")
    parser.add_argument("--json", dest="json_out", default=None,
                        help="write header and every report to this file")
    parser.add_argument("--regold", action="store_true",
                        help="re-measure and rewrite golden.json")
    parser.add_argument("--src", default=os.path.join(ROOT, "src"),
                        help="source tree to import repro from")
    # private: reduced sizes, alternate golden file and fault injection for
    # selftest.py; the child-interpreter switch
    parser.add_argument("--scale", type=float, default=1.0, help=argparse.SUPPRESS)
    parser.add_argument("--golden", default=GOLDEN, help=argparse.SUPPRESS)
    parser.add_argument("--sabotage", default="", help=argparse.SUPPRESS)
    parser.add_argument("--in-child", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


# ----------------------------------------------------------------------
# one workload = one fresh interpreter
# ----------------------------------------------------------------------
def child_main(args: argparse.Namespace) -> int:
    sys.path.insert(0, os.path.abspath(args.src))
    import workloads

    report = workloads.run_workload(
        args.workload[0], args.seed, args.seconds, args.trace or 0,
        scale=args.scale, sabotage=args.sabotage,
    )
    print(json.dumps(report))
    return 0


def run_child(args: argparse.Namespace, workload: str, trace: int) -> Dict[str, Any]:
    argv = [
        sys.executable, os.path.abspath(__file__), "--in-child",
        "--workload", workload, "--seed", str(args.seed),
        "--seconds", repr(args.seconds), "--trace", str(trace),
        "--scale", repr(args.scale), "--src", args.src,
    ]
    if args.sabotage:
        argv += ["--sabotage", args.sabotage]
    env = dict(os.environ, PYTHONHASHSEED="0")
    done = subprocess.run(argv, env=env, stdout=subprocess.PIPE, text=True, timeout=170)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"{workload}: child interpreter exited {done.returncode}")
    return json.loads(lines[-1])


def drive(
    workload: str, seed: int, seconds: float, trace: int, *extra: str
) -> Tuple[int, Dict[str, Any]]:
    """Run this script in the driver's form; returns its exit code and the
    result line (what ``selftest.py`` and ``compare.py`` build on)."""
    done = subprocess.run(
        [
            sys.executable, os.path.abspath(__file__), "--workload", workload,
            "--seed", str(seed), "--seconds", repr(seconds), "--trace", str(trace),
            *extra,
        ],
        stdout=subprocess.PIPE, text=True, timeout=300,
    )
    return done.returncode, json.loads(done.stdout.strip().splitlines()[-1])


# ----------------------------------------------------------------------
# golden counts, validity
# ----------------------------------------------------------------------
def profile_of(seconds: float, scale: float) -> Optional[str]:
    for name, size in PROFILES.items():
        if size == (seconds, scale):
            return name
    return None


def golden_entry(report: Dict[str, Any]) -> Dict[str, Any]:
    """What golden.json freezes of one untraced run."""
    counters = report["counters"]
    return {
        "timed_inputs": report["timed_inputs"],
        "results": report["results"],
        "counters": {
            key: counters[key]
            for key in ("inputs", "results", "tuples_sent", "late_admitted", "dead_lettered")
        },
    }


def add_check(report: Dict[str, Any], ok: bool, message: str) -> None:
    """One more checked operation of the run; a failed one names itself."""
    report["attempted"] += 1
    if not ok:
        report["failed"] += 1
        report["failures"].append(message)


def check_golden(report: Dict[str, Any], golden: Dict[str, Any]) -> None:
    """Check every frozen number of the run against golden.json; the
    mismatches join the run's failed operations."""
    profile = profile_of(report["seconds"], report["scale"])
    if report["trace"] or report["seed"] != golden["seed"] or profile is None:
        return
    want = golden["workloads"].get(report["workload"], {}).get(profile)
    if want is None:
        add_check(report, False, f"golden.json has no {profile} entry for this workload")
        return
    got = golden_entry(report)
    compared = [("timed_inputs", want["timed_inputs"], got["timed_inputs"])]
    compared += [
        (f"counter {key}", value, got["counters"].get(key))
        for key, value in want["counters"].items()
    ]
    compared += [
        (f"results of {q} (count, digest)", want["results"].get(q), got["results"].get(q))
        for q in sorted(set(want["results"]) | set(got["results"]))
    ]
    for what, expected, measured in compared:
        add_check(
            report, expected == measured,
            f"{what}: golden {expected}, measured {measured}",
        )


def validity(report: Dict[str, Any]) -> List[str]:
    """Reasons why this run's numbers should not be used (empty = valid)."""
    values, name = report["values"], report["workload"]
    invalid = []
    if name == "svc_tcp":
        if values["server.gen_late_p99_ms"] > 20.0:
            invalid.append(
                f"open-loop generator ran late: p99 {values['server.gen_late_p99_ms']:.1f} ms"
            )
        if values["server.open_achieved_per_s"] < 0.98 * 4000.0:
            invalid.append(
                f"open loop achieved {values['server.open_achieved_per_s']:.0f}/s of 4000/s"
            )
    if values["harness.sink_share"] > 0.03:
        invalid.append(
            f"the harness's own sink costs {values['harness.sink_share']:.1%} of the timed region"
        )
    if name in ("wide2_shard2", "svc_tcp") and values["host.nproc"] < 2:
        invalid.append("needs two processors")
    size = report["seconds"] * report["scale"]
    if report["scale"] == 1.0 and not report["trace"]:
        low, high = (bound * size for bound in TIMED_RANGE)
        if not low <= values["harness.timed_s"] <= high:
            invalid.append(
                f"timed region took {values['harness.timed_s']:.1f} s, "
                f"outside {low:.1f}-{high:.1f} s"
            )
    return invalid


# ----------------------------------------------------------------------
# output
# ----------------------------------------------------------------------
def header(args: argparse.Namespace) -> Dict[str, Any]:
    versions = {"python": platform.python_version()}
    for module in ("numpy", "scipy"):
        try:
            versions[module] = __import__(module).__version__
        except ImportError:
            versions[module] = "absent"
    try:
        sha = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True, timeout=10,
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        sha = "unknown"
    return {
        "versions": versions,
        "git_sha": sha,
        "seed": args.seed,
        "seconds": args.seconds,
        "scale": args.scale,
        "loadavg": list(os.getloadavg()),
        "nproc": os.cpu_count(),
    }


def metric_rows(spec: Dict[str, Any], report: Dict[str, Any]) -> List[Dict[str, Any]]:
    """The metrics BENCHMARK.json names for this run's mode, with values."""
    listed = spec["per_layer"] if report["trace"] else spec["end_to_end"]
    values = report["values"]
    rows = []
    for metric in listed:
        if metric["name"] not in values and not report["trace"]:
            raise RuntimeError(f"{report['workload']}: no value for {metric['name']}")
        rows.append(dict(metric, value=values.get(metric["name"], 0.0)))
    return rows


def print_report(spec: Dict[str, Any], report: Dict[str, Any]) -> None:
    mode = "traced, per layer" if report["trace"] else "untraced, end to end"
    print(f"== {report['workload']} ({mode}; seed {report['seed']}, "
          f"{report['timed_inputs']} timed inputs, "
          f"{report['values']['harness.timed_s']:.2f} s)")
    rows = metric_rows(spec, report)
    if not report["trace"]:
        # what an untraced run measures beside the end-to-end metrics
        # (untraced latency, control-plane steps, server counters, harness)
        rows += [
            dict(metric, value=report["values"][metric["name"]])
            for metric in spec["per_layer"]
            if report["values"].get(metric["name"])
        ]
    for row in rows:
        if row["value"] or "bound" in row:
            print(f"  {row['name']:<32} {row['value']:>16.6g} {row['unit']}")
    share = report["failed"] / max(1, report["attempted"])
    print(f"  {'failed_share':<32} {share:>16.6g} ratio "
          f"({report['failed']} of {report['attempted']} operations)")
    for message in report["failures"]:
        print(f"  FAILED: {message}")
    for message in report["invalid"]:
        print(f"  INVALID: {message}")


def result_line(spec: Dict[str, Any], report: Dict[str, Any]) -> str:
    return json.dumps({
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {
            row["name"]: {"value": row["value"], "unit": row["unit"]}
            for row in metric_rows(spec, report)
        },
    })


# ----------------------------------------------------------------------
def regold(args: argparse.Namespace, names: List[str]) -> int:
    """Re-measure both profiles at the golden seed and rewrite golden.json.
    Refuses unless every run passes its own checks (the oracle prefix
    among them) and the two wide2 workloads agree."""
    golden: Dict[str, Any] = {"seed": GOLDEN_SEED, "profiles": PROFILES, "workloads": {}}
    args.seed = GOLDEN_SEED
    for profile, (seconds, scale) in PROFILES.items():
        args.seconds, args.scale = seconds, scale
        for name in names:
            report = run_child(args, name, 0)
            if report["failed"]:
                print(f"refusing to regold: {name} ({profile}) failed: "
                      f"{report['failures']}", file=sys.stderr)
                return 1
            golden["workloads"].setdefault(name, {})[profile] = golden_entry(report)
            print(f"{name} ({profile}): {report['timed_inputs']} timed inputs, "
                  f"{report['counters']['results']} results")
        entries = golden["workloads"]
        if {"wide2_columnar", "wide2_shard2"} <= set(entries) and (
            entries["wide2_columnar"][profile]["results"]
            != entries["wide2_shard2"][profile]["results"]
        ):
            print("refusing to regold: wide2_shard2 and wide2_columnar "
                  "deliver different results", file=sys.stderr)
            return 1
    with open(args.golden, "w") as handle:
        json.dump(golden, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {args.golden}")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(args.src, "repro")):
        print(f"run.py: no repro package under {args.src}", file=sys.stderr)
        return 2
    spec = load_spec()
    if args.seconds is None:
        args.seconds = float(spec["run_seconds"])
    if args.in_child:
        return child_main(args)
    names = args.workload or [w["name"] for w in spec["workloads"]]
    unknown = sorted(set(names) - {w["name"] for w in spec["workloads"]})
    if unknown:
        print(f"run.py: unknown workload(s) {unknown}", file=sys.stderr)
        return 2
    if args.regold:
        return regold(args, names)
    driver_form = args.trace is not None
    if driver_form and len(names) != 1:
        print("run.py: --trace takes exactly one --workload", file=sys.stderr)
        return 2
    modes = [args.trace] if driver_form else [0, 1] if args.traced else [0]
    with open(args.golden) as handle:
        golden = json.load(handle)
    reports = []
    for name in names:
        for trace in modes:
            report = run_child(args, name, trace)
            check_golden(report, golden)
            report["invalid"] = validity(report)
            print_report(spec, report)
            reports.append(report)
    by_name = {r["workload"]: r for r in reports if not r["trace"]}
    if {"wide2_columnar", "wide2_shard2"} <= set(by_name):
        same = by_name["wide2_columnar"]["results"] == by_name["wide2_shard2"]["results"]
        print(f"wide2_shard2 digest {'equals' if same else 'DIFFERS FROM'} wide2_columnar's")
        add_check(by_name["wide2_shard2"], same, "digest differs from wide2_columnar's")
    if args.json_out:
        with open(args.json_out, "w") as handle:
            json.dump({"header": header(args), "reports": reports}, handle, indent=1)
            handle.write("\n")
    if driver_form:
        # the driver takes its verdict from the line, and its medians absorb
        # a run taken while the box was not ours: INVALID is printed above
        # but only a failed check makes the driver's form exit non-zero
        print(result_line(spec, reports[0]))
        return 1 if reports[0]["failed"] else 0
    return 1 if any(r["failed"] or r["invalid"] for r in reports) else 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Self-test of the measurement spine (about a minute, reduced sizes).

    python3 benchmarks/spine/selftest.py

Runs every workload once untraced and once traced in the driver's form at
the ``selftest`` size of ``golden.json`` and checks that

* the result line carries exactly the metrics ``BENCHMARK.json`` names for
  that mode, each once, with the unit named there; names are made of
  ``[A-Za-z0-9_.-]``; no operation failed;
* every layer's metrics are non-zero on the workloads that layer serves and
  zero where it must not run (``columnar.*`` on the TPC-H workloads,
  ``sharding.*`` without workers, ``server.*`` without a server);
* the checks have teeth: losing one tuple of a feed, and corrupting one
  golden count, each make ``failed`` positive and the exit code non-zero.
"""

from __future__ import annotations

import json
import os
import re
import sys
import tempfile
import time
from typing import Any, Dict, List, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import run as spine_run  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")

#: per-layer metric prefix -> the workloads on which its time/call metrics
#: must be non-zero; on every other workload they must be zero
SERVES = {
    # wide2_shard2 runs the columnar container in its workers, which the
    # driver-side wrappers do not see
    "columnar.": {"wide2_columnar"},
    "sharding.": {"wide2_shard2"},
    "server.": {"svc_tcp"},
    "control.": {"churn_late_ckpt"},
    "snapshot.": {"churn_late_ckpt"},
    "rewiring.install": {"churn_late_ckpt"},
    "adaptivity.rewire": {"churn_late_ckpt"},
    "ladder.": {"tpch5_probe", "wide2_columnar"},
}
#: zero on a clean run wherever they apply, so exempt from "non-zero"
MAY_BE_ZERO = {
    "server.pauses_sent", "server.gen_late_p50_ms", "rewiring.migrated_tuples",
    # the vectorized cascade probes through probe_batch_vector only
    "columnar.probe_batch_calls", "columnar.probe_batch_s",
}


def drive(workload: str, trace: int, *extra: str) -> Tuple[int, Dict[str, Any]]:
    """One driver-form run at the self-test size and the golden seed."""
    seconds, scale = spine_run.PROFILES["selftest"]
    return spine_run.drive(
        workload, spine_run.GOLDEN_SEED, seconds, trace, "--scale", repr(scale), *extra
    )


def main() -> int:
    started = time.perf_counter()
    spec = spine_run.load_spec()
    problems: List[str] = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, listed in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            code, line = drive(workload, trace)
            where = f"{workload} --trace {trace}"
            known = len(problems)
            if set(line) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{where}: result line has keys {sorted(line)}")
                continue
            if code != 0 or not line["correct"] or line["failed"] or line["attempted"] < 1:
                problems.append(f"{where}: exit {code}, result {line['correct']}, "
                                f"{line['failed']} of {line['attempted']} failed")
            want = {m["name"]: m["unit"] for m in listed}
            got = {name: entry["unit"] for name, entry in line["metrics"].items()}
            if got != want:
                problems.append(
                    f"{where}: metrics differ from BENCHMARK.json: "
                    f"missing {sorted(set(want) - set(got))}, "
                    f"unexpected {sorted(set(got) - set(want))}, wrong unit "
                    f"{sorted(n for n in set(want) & set(got) if want[n] != got[n])}"
                )
            for name, entry in line["metrics"].items():
                if not NAME.match(name):
                    problems.append(f"{where}: bad metric name {name!r}")
                value = entry["value"]
                if not isinstance(value, (int, float)) or value != value:
                    problems.append(f"{where}: {name} is not a number: {value!r}")
                # at this size a run may not grow its resident set at all
                if not trace and not value > 0 and name != "rss_growth_mb":
                    problems.append(f"{where}: end-to-end metric {name} is {value}")
                for prefix, serves in SERVES.items():
                    if not (trace and name.startswith(prefix)):
                        continue
                    if workload in serves and not value and name not in MAY_BE_ZERO:
                        problems.append(f"{where}: {name} is zero")
                    if workload not in serves and value:
                        problems.append(f"{where}: {name} is {value}, expected zero")
            print(f"{'ok  ' if len(problems) == known else 'FAIL'} {where}")

    known = len(problems)
    # teeth: a lost tuple and a corrupted golden count must both be caught
    code, line = drive("tpch5_probe", 0, "--sabotage", "drop-tuple")
    if code == 0 or line["failed"] < 1 or line["correct"]:
        problems.append("losing one tuple of the feed went unnoticed")
    with open(spine_run.GOLDEN) as handle:
        golden = json.load(handle)
    golden["workloads"]["wide2_columnar"]["selftest"]["results"]["q"][0] += 1
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    with tempfile.NamedTemporaryFile(
        "w", suffix=".json", dir=os.path.join(HERE, "out"), delete=False
    ) as handle:
        json.dump(golden, handle)
    try:
        code, line = drive("wide2_columnar", 0, "--golden", handle.name)
    finally:
        os.unlink(handle.name)
    if code == 0 or line["failed"] < 1 or line["correct"]:
        problems.append("a corrupted golden count went unnoticed")
    print(f"{'ok  ' if len(problems) == known else 'FAIL'} teeth")

    for problem in problems:
        print(f"FAILED: {problem}")
    print(f"selftest {'FAILED' if problems else 'passed'} "
          f"in {time.perf_counter() - started:.0f} s")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

"""Experiment drivers regenerating every figure of the paper's evaluation.

* :mod:`repro.experiments.fig7` — multi-query performance grid (7b/7c/7d)
* :mod:`repro.experiments.fig8` — adaptive execution (8a/8b)
* :mod:`repro.experiments.fig9` — ILP study (9a–9f)
* :mod:`repro.experiments.timed` — the discrete-event simulator behind
  figures 7 and 8 (service times, machine pool, queued-message memory)
* :mod:`repro.experiments.shapes` — workload breadth beyond the paper:
  chain/star/cycle shapes × uniform/Zipf/out-of-order arrival regimes
* :mod:`repro.experiments.live` — session churn: push ingestion with
  online query add/remove over the shared plan, oracle-verified
"""

from .fig7 import Fig7Row, ratio_summary, run_fig7, workload_for
from .fig8 import Fig8Outcome, LINEAR_QUERY, run_fig8a, run_fig8b
from .fig9 import Fig9Point, run_point, sweep_num_queries, sweep_query_sizes
from .live import LivePhase, run_live_session
from .reporting import format_series, format_table
from .shapes import ShapeRow, run_shapes, shape_workload

__all__ = [
    "Fig7Row",
    "Fig8Outcome",
    "Fig9Point",
    "LINEAR_QUERY",
    "LivePhase",
    "format_series",
    "format_table",
    "ratio_summary",
    "run_fig7",
    "run_fig8a",
    "run_fig8b",
    "run_live_session",
    "run_point",
    "run_shapes",
    "ShapeRow",
    "shape_workload",
    "sweep_num_queries",
    "sweep_query_sizes",
    "workload_for",
]

"""Simulated scale-out stream processor (the Apache Storm substitute).

* :class:`TopologyRuntime` — executes a :class:`~repro.core.topology.Topology`
  exactly (results equal the brute-force reference join).
* :class:`Runtime` — what the local and the sharded runtime share;
  :class:`Ingress` — the arrival contract every runtime admits through.
* :class:`AdaptiveRuntime` — epoch-based re-optimizing runtime (Section VI).
* :func:`reference_join` — the brute-force oracle behind
  :meth:`repro.JoinSession.verify` and the test suite.  No engine module
  imports it: a rewire fills new MIR stores with the indexed
  :func:`compute_backfill`, which the tests hold to the oracle's list.
"""

from .adaptivity import AdaptiveRuntime, AdaptivityLoop
from .columnar import ColumnarContainer, VectorBatch
from .ingress import Ingress
from .metrics import EngineMetrics
from .profiles import CLASH_PROFILE, FLINK_PROFILE, STORM_PROFILE, EngineProfile
from .reference import describe_result_diff, reference_join, result_keys
from .rewiring import (
    RewirableRuntime,
    SwitchRecord,
    WindowGrowthError,
    compute_backfill,
)
from .routing import stable_hash, target_tasks
from .sharding import ShardFailedError, ShardRouter, ShardedRuntime
from .runtime import (
    LateArrivalError,
    Runtime,
    RuntimeConfig,
    TopologyRuntime,
)
from .statistics import EpochStatistics
from .stores import (
    STORE_BACKENDS,
    Container,
    HopKey,
    StoreBackend,
    StoreTask,
    make_backend,
    orient_predicates,
    probe_batch,
    probe_container,
)
from .tuples import StreamTuple, input_tuple, intern_attr

__all__ = [
    "AdaptiveRuntime",
    "AdaptivityLoop",
    "CLASH_PROFILE",
    "ColumnarContainer",
    "Container",
    "EngineMetrics",
    "EngineProfile",
    "EpochStatistics",
    "FLINK_PROFILE",
    "HopKey",
    "Ingress",
    "LateArrivalError",
    "STORE_BACKENDS",
    "RewirableRuntime",
    "Runtime",
    "RuntimeConfig",
    "STORM_PROFILE",
    "ShardFailedError",
    "ShardRouter",
    "ShardedRuntime",
    "StoreBackend",
    "StoreTask",
    "StreamTuple",
    "SwitchRecord",
    "TopologyRuntime",
    "VectorBatch",
    "WindowGrowthError",
    "make_backend",
    "compute_backfill",
    "describe_result_diff",
    "input_tuple",
    "intern_attr",
    "orient_predicates",
    "probe_batch",
    "probe_container",
    "reference_join",
    "result_keys",
    "stable_hash",
    "target_tasks",
]

"""repro — reproduction of *Optimizing Multiple Multi-Way Stream Joins*
(Dossinger & Michel, ICDE 2021) as a pure-Python library.

The documented public surface is the session facade (see ``docs/api.md``)::

    from repro import JoinSession

    session = (
        JoinSession(window=10.0, solver="auto")
        .add_query("q1", "R.a=S.a", "S.b=T.b")
        .add_query("q2", "S.b=T.b", "T.c=U.c")
    )
    session.push("R", {"a": 3}, ts=0.25)
    session.push("S", {"a": 3, "b": 7}, ts=0.5)
    ...
    session.add_query("q3", "T.c=U.c", "U.d=V.d")   # online, mid-stream
    session.remove_query("q1")
    assert session.verify().ok

The underlying layers stay importable for research use (the pre-facade
wiring keeps working — see the migration table in ``docs/api.md``):

* :mod:`repro.core` — the contribution: MIR enumeration, probe-order
  candidates (Algorithm 1), the Equation-(1) cost model, the multi-query
  ILP (Algorithm 2), plan extraction, probe trees, and topology translation.
* :mod:`repro.ilp` — a small 0/1 ILP modeling layer solved by HiGHS
  (``scipy.optimize.milp``) in place of Gurobi, plus the grouped greedy
  planner.
* :mod:`repro.engine` — a discrete-event simulated scale-out stream
  processor replacing Apache Storm, with epoch-based adaptive execution and
  live topology rewiring.
* :mod:`repro.baselines` — binary join pipelines and the FI/SI/FS/SS
  comparison strategies.
* :mod:`repro.streams` — TPC-H-shaped streams, random ILP workloads, and
  push adapters feeding sessions.
* :mod:`repro.service` — the production service surface: an asyncio TCP
  ingress with bounded-queue backpressure and versioned session
  checkpoint/restore (``docs/service.md``).
* :mod:`repro.experiments` — drivers regenerating every figure of the paper.
"""

from .core import (
    Attribute,
    ClusterConfig,
    CrossProductError,
    JoinPredicate,
    MultiQueryOptimizer,
    OptimizerConfig,
    Query,
    SharedPlan,
    StatisticsCatalog,
    StreamRelation,
    Topology,
    build_topology,
)
from .core.adaptive import DecisionRecord
from .engine import (
    AdaptiveRuntime,
    AdaptivityLoop,
    RewirableRuntime,
    RuntimeConfig,
    ShardFailedError,
    ShardedRuntime,
    TopologyRuntime,
    WindowGrowthError,
    input_tuple,
    reference_join,
)
from .session import (
    DuplicateQueryError,
    EngineFailedError,
    JoinSession,
    LateTupleError,
    SessionError,
    UnknownQueryError,
    UnknownRelationError,
    VerificationReport,
)
from .service import JoinServer, ServiceClient, SnapshotError

__version__ = "1.1.0"

#: The documented surface: every name here appears in docs/api.md (enforced
#: by tests/test_public_api.py).  The facade comes first; the layer classes
#: below it remain public for users wiring the pipeline manually.
__all__ = [
    # session facade
    "JoinSession",
    "VerificationReport",
    "SessionError",
    "UnknownRelationError",
    "UnknownQueryError",
    "DuplicateQueryError",
    "LateTupleError",
    "EngineFailedError",
    "CrossProductError",
    # service surface (async ingress + checkpoint/restore)
    "JoinServer",
    "ServiceClient",
    "SnapshotError",
    # query model & statistics
    "Attribute",
    "JoinPredicate",
    "Query",
    "StatisticsCatalog",
    "StreamRelation",
    # manual wiring layer
    "ClusterConfig",
    "MultiQueryOptimizer",
    "OptimizerConfig",
    "SharedPlan",
    "Topology",
    "build_topology",
    # engine layer
    "AdaptiveRuntime",
    "AdaptivityLoop",
    "DecisionRecord",
    "RewirableRuntime",
    "RuntimeConfig",
    "ShardFailedError",
    "ShardedRuntime",
    "TopologyRuntime",
    "WindowGrowthError",
    "input_tuple",
    "reference_join",
    "__version__",
]

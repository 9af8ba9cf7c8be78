"""`JoinSession`: the one-object facade over the whole reproduction stack.

The paper's contribution is *joint* optimization of a **changing** set of
multi-way stream joins; this module packages that as a long-lived service
instead of a one-shot batch pipeline.  A session owns the statistics
catalog, the multi-query optimizer, the compiled topology, and the
execution runtime behind a single fluent object::

    session = (
        JoinSession(window=10.0, solver="auto")
        .add_query("q1", "R.a=S.a", "S.b=T.b")
        .add_query("q2", "S.b=T.b", "T.c=U.c")
    )
    session.push("R", {"a": 3}, ts=1.25)          # live, push-based ingestion
    session.push("S", {"a": 3, "b": 7}, ts=1.5)
    ...
    session.add_query("q3", "T.c=U.c", "U.d=V.d")  # online, mid-stream
    session.remove_query("q1")
    report = session.verify()                      # brute-force oracle check

Key behaviours:

* **Push-based ingestion** — ``push`` / ``push_batch`` feed tuples one at a
  time; the engine's micro-batched cascade runs underneath
  (:meth:`~repro.engine.runtime.TopologyRuntime.process`).  Ordered mode
  requires timestamp-sorted pushes; passing ``disorder_bound`` switches the
  session to watermark mode with bounded out-of-order pushes.  The arrival
  contract is owned by the runtime's :class:`~repro.engine.ingress.Ingress`;
  the session only maps its rejections to the ``on_late`` policy.
* **Online query add/remove** — after tuples have flowed, ``add_query`` /
  ``remove_query`` re-run the shared-plan ILP (``solver="auto"`` falls back
  to the greedy planner for cyclic shapes), diff the old and new topologies,
  and *migrate* surviving store state across the rewire
  (:class:`~repro.engine.rewiring.RewirableRuntime`): unaffected relation
  and MIR stores keep their containers, new MIR stores are backfilled from
  the windowed input stores, and only removed stores release state.
* **Observed statistics** — arrival rates and join selectivities default to
  being measured from the pushed tuples themselves
  (:class:`~repro.engine.statistics.EpochStatistics`); ``with_rate`` /
  ``with_selectivity`` / ``with_window`` declare overrides that always win.
  ``warmup=N`` defers the first plan until N tuples arrived, closing the
  catalog-bootstrapping gap entirely.
* **Verification** — ``verify()`` replays the recorded input history through
  the brute-force :func:`~repro.engine.reference.reference_join` and checks
  every query (including removed ones) against the reference *restricted to
  its active interval*: a result is expected iff its last-arriving
  component was pushed while the query was installed.

Exceptions raised by the session are precise and typed (see
:class:`SessionError` and subclasses); ``add_query`` with a disconnected
join graph raises :class:`~repro.core.query.CrossProductError` exactly like
the underlying :class:`~repro.core.query.Query` constructor.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace
from math import isfinite
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from .core.adaptive import AdaptiveController, DecisionRecord, plan_signature
from .core.catalog import StatisticsCatalog
from .core.ilp_builder import OptimizerConfig
from .core.partitioning import ClusterConfig
from .core.plan import SharedPlan
from .core.predicates import JoinPredicate, as_predicate
from .core.query import Query
from .core.topology import Topology
from .engine.adaptivity import AdaptivityLoop
from .engine.ingress import Ingress, LateArrivalError
from .engine.metrics import EngineMetrics
from .engine.reference import describe_result_diff, reference_join, result_keys
from .engine.rewiring import RewirableRuntime, SwitchRecord
from .engine.runtime import Runtime, RuntimeConfig
from .engine.sharding import ShardedRuntime
from .engine.statistics import EpochStatistics
from .engine.tuples import StreamTuple, input_tuple
from .ilp.solvers import SolverMethod

__all__ = [
    "JoinSession",
    "SessionError",
    "UnknownRelationError",
    "UnknownQueryError",
    "DuplicateQueryError",
    "LateTupleError",
    "EngineFailedError",
    "VerificationReport",
]


class SessionError(RuntimeError):
    """Base class for session-level usage errors."""


class UnknownRelationError(SessionError, KeyError):
    """A tuple was pushed for a relation no installed query reads.

    Relations are registered implicitly by the queries that join them;
    pushing to anything else would silently drop data, so it raises.
    """

    # KeyError.__str__ reprs its argument, which would quote-mangle the
    # human-readable message; keep the plain Exception rendering
    __str__ = Exception.__str__


class UnknownQueryError(SessionError, KeyError):
    """A query name was referenced that this session has never installed."""

    __str__ = Exception.__str__


class DuplicateQueryError(SessionError, ValueError):
    """``add_query`` with a name that is currently installed."""


class LateTupleError(SessionError, ValueError):
    """A push violated the session's arrival-order contract.

    In ordered mode (the default) event timestamps must be non-decreasing;
    with ``disorder_bound=D`` (watermark mode) a push may lag its stream's
    high-water event timestamp by at most ``D``.  Accepting the tuple would
    silently lose join results, so it is rejected loudly instead.
    """


class EngineFailedError(SessionError):
    """The underlying engine has failed (memory overflow, or a dead shard
    worker under ``workers > 1``) and the session no longer accepts pushes.

    Raised by ``push`` — once for the push that triggered the failure
    (which was fully processed) and for every push thereafter (which are
    not ingested at all); ``session.metrics.failure_reason`` has details.
    The push that *detects* a shard failure raises the engine's typed
    :class:`~repro.engine.sharding.ShardFailedError` instead (a subclass
    of ``RuntimeError``, carrying the worker traceback).
    """


def _check_solver(solver: str) -> str:
    """Validate a solver name up front: the optimizer first reads it at the
    first plan, where a bad name would fail every push."""
    try:
        SolverMethod(solver)
    except ValueError:
        raise ValueError(
            f"unknown solver {solver!r}; expected one of "
            f"{sorted(method.value for method in SolverMethod)}"
        ) from None
    return solver


def _check_on_late(policy: str) -> str:
    """Validate a late-tuple policy name (session default or per-push)."""
    if policy not in ("raise", "drop", "dead_letter"):
        raise ValueError(
            f"unknown late-tuple policy {policy!r}; expected 'raise', "
            f"'drop', or 'dead_letter'"
        )
    return policy


@dataclass
class _Activation:
    """One installed lifetime of a query: (query, arrival-seq interval].

    ``from_seq`` is the number of tuples pushed before the query was added
    (exclusive bound); ``to_seq`` the count at removal (inclusive bound),
    or ``None`` while still installed.
    """

    query: Query
    from_seq: int
    to_seq: Optional[int] = None

    def contains(self, seq: int) -> bool:
        return seq > self.from_seq and (self.to_seq is None or seq <= self.to_seq)


@dataclass
class QueryCheck:
    """Per-query outcome of :meth:`JoinSession.verify`."""

    name: str
    ok: bool
    expected: int
    produced: int
    diff: str


@dataclass
class VerificationReport:
    """Outcome of a full-session oracle check (all queries ever installed)."""

    checks: Dict[str, QueryCheck] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks.values())

    def __bool__(self) -> bool:
        return self.ok

    def describe(self) -> str:
        lines = []
        for name in sorted(self.checks):
            c = self.checks[name]
            status = "OK" if c.ok else f"MISMATCH ({c.diff})"
            lines.append(f"{name}: {status} ({c.expected} results)")
        return "\n".join(lines) if lines else "no queries to verify"


class JoinSession:
    """Live multi-query stream-join service over one shared plan.

    Parameters
    ----------
    window:
        Default per-relation window length (seconds of event time); override
        per relation with :meth:`with_window`.
    solver:
        Planner: ``"auto"`` (the exact ILP optimum, degrading to the
        greedy planner for cyclic query shapes), ``"scipy"`` (always the
        exact optimum), or ``"greedy"``.  The exact optimum comes from
        HiGHS, or without a solver call when every choice is forced.
    default_rate:
        Arrival rate assumed for relations with neither a declared rate nor
        observed traffic (only relevant before the first replan).
    default_selectivity:
        Catalog default for predicates with neither declared nor observed
        selectivity.
    disorder_bound:
        ``None`` requires timestamp-ordered pushes; a bound ``D`` switches
        to watermark mode (pushes may lag each stream's high water by ≤ D).
    allowed_lateness:
        Extra grace ``L`` on top of ``disorder_bound`` (watermark mode
        only).  Tuples lagging their stream's high water by more than D but
        at most D + L are *admitted late*: the eviction watermark is held
        back by L so their join partners are still stored, and each one
        counts in ``metrics.late_admitted``.  Tuples beyond D + L hit the
        ``on_late`` policy.  Default 0 (no ladder; the D bound is strict).
    on_late:
        Default policy for pushes that violate the arrival-order contract
        (in watermark mode: lag their stream's high water by more than
        ``disorder_bound + allowed_lateness``): ``"raise"`` (the default)
        raises :class:`LateTupleError`; ``"drop"`` silently discards the
        tuple and counts it in ``metrics.late_dropped``; ``"dead_letter"``
        routes it to the subscribable side-output (:meth:`dead_letters` /
        :meth:`on_dead_letter`) and counts it in
        ``metrics.dead_lettered``.  Dropped and dead-lettered tuples are
        invisible to results, statistics, and the verification oracle.
        Overridable per push.
    store_backend:
        Container implementation behind every store task: ``"python"``
        (dict/hash-index, the default) or ``"columnar"``
        (numpy-vectorized) — see docs/engine.md.  Conflict-checked against
        an explicit ``runtime_config``.
    workers:
        Number of shard worker processes (default 1 = single-process).
        With ``workers=N > 1`` the session drives a
        :class:`~repro.engine.sharding.ShardedRuntime`: every stream is
        hash-partitioned by its join key over N processes, each owning one
        shard of every store, with results merged deterministically — the
        result counts and sets are exactly those of ``workers=1``, the
        order only where docs/engine.md, "Sharded execution", says so (in
        general it differs).  Call :meth:`close` (or use
        the session as a context manager) to terminate the pool.
    worker_transport:
        Shard transport, ``"process"`` (real ``multiprocessing`` workers)
        or ``"inline"`` (same sharded semantics in-process — deterministic
        and fork-free, for tests).  Only meaningful with ``workers > 1``.
    parallelism:
        Default store parallelism (ignored when ``optimizer_config`` is
        given).
    optimizer_config / runtime_config:
        Full-control overrides for the ILP construction and engine knobs.
    record_streams:
        Keep the pushed tuple history for :meth:`verify` and every result
        for :meth:`results` / :meth:`take` (the default).  ``False`` is for
        long-running production sessions: the session keeps neither, so
        results reach subscribers only (the runtime runs with
        ``collect_outputs=False``, also under an explicit
        ``runtime_config``) and :meth:`verify` raises.  Dead letters are
        kept either way.
    warmup:
        Defer the first plan until this many tuples were pushed, so the
        initial plan already uses *observed* statistics (0 plans at the
        first push).
    reoptimize_every:
        Event-time epoch length for periodic re-optimization (Section VI).
        ``None`` (the default) keeps the legacy behaviour: the plan only
        changes on query churn or an explicit :meth:`reoptimize`.  With an
        interval ``E`` the session drives the same
        :class:`~repro.engine.adaptivity.AdaptivityLoop` as
        :class:`~repro.engine.adaptivity.AdaptiveRuntime`: statistics from
        epoch *i* are measured at the first push of epoch *i+1* and a
        changed plan is installed live (state migration + backfill) at the
        start of epoch *i+2* — including under ``workers > 1``, where the
        shard workers observe statistics locally and the driver folds
        their deltas back at batch boundaries.  Every optimizer
        consultation lands in ``metrics.decisions`` as a
        :class:`~repro.core.adaptive.DecisionRecord`.
    stats_window:
        How many closed epochs of statistics inform each periodic decision
        (default 1 — decide from the previous epoch only, the paper's
        schedule).  Only meaningful with ``reoptimize_every``.
    """

    def __init__(
        self,
        window: float = 10.0,
        solver: str = "auto",
        *,
        default_rate: float = 10.0,
        default_selectivity: float = 0.01,
        disorder_bound: Optional[float] = None,
        allowed_lateness: float = 0.0,
        on_late: str = "raise",
        store_backend: Optional[str] = None,
        workers: Optional[int] = None,
        worker_transport: str = "process",
        parallelism: int = 1,
        optimizer_config: Optional[OptimizerConfig] = None,
        runtime_config: Optional[RuntimeConfig] = None,
        record_streams: bool = True,
        warmup: int = 0,
        reoptimize_every: Optional[float] = None,
        stats_window: int = 1,
    ) -> None:
        if window <= 0:
            raise ValueError("window must be positive")
        if reoptimize_every is not None and reoptimize_every <= 0:
            raise ValueError("reoptimize_every must be positive")
        if allowed_lateness < 0:
            raise ValueError("allowed_lateness must be non-negative")
        if allowed_lateness > 0 and disorder_bound is None:
            raise ValueError(
                "allowed_lateness extends watermark mode; pass "
                "disorder_bound as well (ordered mode has no lateness to "
                "grant)"
            )
        self.window = float(window)
        self.solver = _check_solver(solver)
        self.default_rate = float(default_rate)
        self.default_selectivity = float(default_selectivity)
        self.record_streams = record_streams
        self.warmup = int(warmup)
        self.stats_window = int(stats_window)
        self.allowed_lateness = float(allowed_lateness)
        self.on_late = _check_on_late(on_late)
        # the engine enforces one combined bound: tuples lagging their
        # stream's high water by more than D are *late* (classified by the
        # session against ``disorder_bound``), those beyond D + L are
        # *rejected* (raise / drop / dead-letter, per ``on_late``).  Holding
        # the engine bound at D + L is exactly the eviction-watermark
        # holdback: stores retain partners long enough to join every
        # admitted straggler.
        engine_bound = (
            None
            if disorder_bound is None
            else float(disorder_bound) + self.allowed_lateness
        )
        self._optimizer_config = optimizer_config or OptimizerConfig(
            cluster=ClusterConfig(default_parallelism=parallelism)
        )
        if runtime_config is not None:
            if (
                disorder_bound is not None
                and runtime_config.disorder_bound != engine_bound
            ):
                raise ValueError(
                    "disorder_bound given both directly and via "
                    "runtime_config (with allowed_lateness the engine bound "
                    "must equal disorder_bound + allowed_lateness)"
                )
            if (
                store_backend is not None
                and runtime_config.store_backend != store_backend
            ):
                raise ValueError(
                    "store_backend given both directly and via runtime_config"
                )
            if workers is not None and runtime_config.workers != workers:
                raise ValueError(
                    "workers given both directly and via runtime_config"
                )
            self._runtime_config = runtime_config
            self.disorder_bound = (
                float(disorder_bound)
                if disorder_bound is not None
                else runtime_config.disorder_bound
            )
        else:
            self._runtime_config = RuntimeConfig(
                disorder_bound=engine_bound,
                store_backend=store_backend or "python",
                workers=workers or 1,
            )
            self.disorder_bound = (
                None if disorder_bound is None else float(disorder_bound)
            )
        if not record_streams:
            # a session retains results iff record_streams and
            # collect_outputs are both true: a production session's results
            # reach its subscribers and are not kept
            self._runtime_config = replace(
                self._runtime_config, collect_outputs=False
            )
        if worker_transport not in ("process", "inline"):
            raise ValueError(
                f"unknown worker_transport {worker_transport!r}; expected "
                f"'process' or 'inline'"
            )
        self._worker_transport = worker_transport
        #: the arrival contract while the warmup buffer is still filling;
        #: once the runtime exists the session holds no order state of its
        #: own and reads ``runtime.ingress``
        self._warmup_ingress = Ingress(self._runtime_config.disorder_bound)
        #: stragglers dropped / dead-lettered / late-admitted during the
        #: warmup are tallied here and folded into the runtime's metrics
        #: once it exists (``session.metrics`` stays ``None`` until then)
        self._warmup_metrics = EngineMetrics()
        #: beyond-lateness stragglers, in arrival order (``on_late=
        #: "dead_letter"``); never recorded in the history, so the
        #: verification oracle sees exactly the admitted tuples
        self._dead_letters: List[StreamTuple] = []
        self._dead_letter_listeners: List[Callable[[StreamTuple], None]] = []

        # query lifecycle
        self._lifecycle: Dict[str, List[_Activation]] = {}
        self._registered: frozenset = frozenset()

        # declared statistics (always win over observed values)
        self._declared_rates: Dict[str, float] = {}
        self._declared_windows: Dict[str, float] = {}
        self._declared_selectivities: Dict[JoinPredicate, float] = {}

        # the controller owns the query set, the solver choice and the
        # decision baseline; the unified adaptivity loop owns the observed
        # statistics (one unbounded epoch when reoptimize_every is None)
        # and the running plan, and is the single funnel every plan change
        # takes into the runtime's install (docs/engine.md)
        self.reoptimize_every = reoptimize_every
        self._controller = AdaptiveController(
            StatisticsCatalog(
                default_selectivity=self.default_selectivity,
                default_window=self.window,
            ),
            [],
            self._optimizer_config,
            solver=self.solver,
        )
        self._loop = AdaptivityLoop(
            self._controller,
            epoch_length=reoptimize_every,
            cluster=self._optimizer_config.cluster,
            stats_window=stats_window,
            measure=self._measured_catalog,
        )

        # ingestion state
        self._pushed = 0
        self._seq_of: Dict[Tuple[str, float], int] = {}
        self._history: Dict[str, List[StreamTuple]] = {}
        self._pending: List[StreamTuple] = []
        #: tuples the running push_batch admitted whose statistics are not
        #: folded into the loop yet (see _observe_chunk)
        self._chunk: List[StreamTuple] = []
        #: relation -> push counts at which its input store's state was
        #: *released* by a rewire (query expiry); the oracle must not expect
        #: results that would need tuples stored before such a drop
        self._drops: Dict[str, List[int]] = {}
        #: two pushes of one relation shared an event timestamp — the
        #: (relation, ts) -> seq map is then ambiguous (see verify())
        self._ambiguous_ts = False

        # execution state
        self._listeners: Dict[str, List[Callable]] = {}
        self._cursors: Dict[str, int] = {}
        self._runtime: Optional[Runtime] = None

    # ------------------------------------------------------------------
    # fluent builders (all return self)
    # ------------------------------------------------------------------
    def with_rate(self, relation: str, rate: float) -> "JoinSession":
        """Declare an arrival rate, overriding observed measurements."""
        if rate <= 0:
            raise ValueError(f"rate of {relation!r} must be positive")
        self._declared_rates[relation] = float(rate)
        return self

    def with_window(self, relation: str, window: float) -> "JoinSession":
        """Declare a per-relation window, overriding the session default.

        Windows are part of the join *semantics*, so they freeze once the
        runtime exists: results already emitted under the old window could
        never be reconciled with the oracle (changing cost statistics via
        :meth:`with_rate` / :meth:`with_selectivity` stays allowed anytime).
        """
        if window <= 0:
            raise ValueError(f"window of {relation!r} must be positive")
        if self._runtime is not None:
            raise SessionError(
                "windows are fixed once the session is running; declare "
                "with_window() before the first plan (or use warmup)"
            )
        self._declared_windows[relation] = float(window)
        return self

    def with_selectivity(
        self, predicate: Union[JoinPredicate, str], selectivity: float
    ) -> "JoinSession":
        """Declare a join selectivity, overriding observed measurements."""
        if not 0 < selectivity <= 1:
            raise ValueError("selectivity must be in (0, 1]")
        self._declared_selectivities[as_predicate(predicate)] = float(selectivity)
        return self

    # ------------------------------------------------------------------
    # query lifecycle
    # ------------------------------------------------------------------
    def add_query(
        self, query: Union[Query, str], *equalities: str
    ) -> "JoinSession":
        """Install a query — before or *after* tuples have flowed.

        Accepts a prebuilt :class:`~repro.core.query.Query` or the
        :meth:`Query.of` sugar: ``add_query("q1", "R.a=S.a", "S.b=T.b")``.
        A disconnected join graph raises
        :class:`~repro.core.query.CrossProductError`; a name that is already
        installed raises :class:`DuplicateQueryError`; per-query window
        overrides are not supported (declare per-relation windows with
        :meth:`with_window`).  On a live session the shared plan is
        re-optimized immediately and the topology rewired with state
        migration; the query only sees tuples pushed from now on (plus the
        windowed state of shared stores, via backfill).
        """
        if isinstance(query, Query):
            if equalities:
                raise ValueError(
                    "pass either a Query object or name + equality strings"
                )
        else:
            query = Query.of(str(query), *equalities)
        if query.windows:
            raise SessionError(
                f"query {query.name!r} carries per-query window overrides, "
                f"which JoinSession does not support — the runtime and the "
                f"verification oracle use one window per relation; declare "
                f"them with with_window() instead"
            )
        controller = self._controller
        if query.name in controller.queries:
            raise DuplicateQueryError(
                f"query {query.name!r} is already installed; remove it first "
                f"or pick a distinct name"
            )
        self._end_warmup()
        controller.add_query(query)
        activations = self._lifecycle.setdefault(query.name, [])
        activations.append(_Activation(query=query, from_seq=self._pushed))
        self._recompute_registered()
        try:
            if self._runtime is not None:
                self._rewire()
        except Exception:
            # transactional: a failed solve or install must not leave a
            # half-installed query accepting pushes the running topology
            # silently drops
            controller.remove_query(query.name)
            activations.pop()
            if not activations:
                del self._lifecycle[query.name]
            self._recompute_registered()
            raise
        return self

    def remove_query(self, name: str) -> "JoinSession":
        """Uninstall a query; its produced results stay readable.

        Raises :class:`UnknownQueryError` for names not currently installed.
        Stores serving only this query release their state at the rewire
        (Section VI.B refcounting); shared stores are untouched.
        """
        controller = self._controller
        query = controller.queries.get(name)
        if query is None:
            raise UnknownQueryError(
                f"query {name!r} is not installed; active queries: "
                f"{sorted(controller.queries)}"
            )
        self._end_warmup()
        controller.remove_query(name)
        activation = self._lifecycle[name][-1]
        activation.to_seq = self._pushed
        self._recompute_registered()
        try:
            if self._runtime is not None and controller.queries:
                self._rewire()
            elif self._runtime is not None:
                # dormant: keep the runtime (results + windowed state)
                # alive; the next add_query rewires it in place
                self._runtime.flush()
        except Exception:
            # transactional: a failed solve or install must not leave the
            # query half removed while the old topology keeps answering it
            controller.add_query(query)
            activation.to_seq = None
            self._recompute_registered()
            raise
        return self

    def _recompute_registered(self) -> None:
        self._registered = frozenset(
            rel for q in self._controller.queries.values() for rel in q.relations
        )

    @property
    def queries(self) -> Dict[str, Query]:
        """Currently installed queries by name (copy)."""
        return dict(self._controller.queries)

    @property
    def relations(self) -> frozenset:
        """Relations registered by the installed queries."""
        return self._registered

    # ------------------------------------------------------------------
    # ingestion
    # ------------------------------------------------------------------
    def push(
        self,
        relation: str,
        values: Mapping[str, object],
        ts: float,
        on_late: Optional[str] = None,
    ) -> "JoinSession":
        """Push one input tuple (unqualified attribute names) at event time
        ``ts``.  See :class:`UnknownRelationError` / :class:`LateTupleError`
        for the validation contract; ``on_late`` overrides the session's
        late-tuple policy for this push (``"raise"``, ``"drop"``, or
        ``"dead_letter"``)."""
        self._check_relation(relation)
        tup = input_tuple(relation, float(ts), values)
        policy = self.on_late if on_late is None else _check_on_late(on_late)
        if self._ingest(tup, policy):
            if self._runtime_config.workers == 1:
                self._loop.observe(tup)
            if self._runtime.metrics.failed:
                raise self._failed_by_push()
        return self

    def push_batch(
        self,
        items: Iterable[Union[StreamTuple, Tuple[str, Mapping[str, object], float]]],
        on_late: Optional[str] = None,
    ) -> "JoinSession":
        """Push many tuples in arrival order.

        Items are either prebuilt input :class:`StreamTuple`\\ s (the
        adapter path — see :mod:`repro.streams.adapters`) or
        ``(relation, values, ts)`` triples; ``on_late`` overrides the
        session's late-tuple policy for the whole batch.

        Each item is checked and delivered exactly as by :meth:`push`; the
        batch's admitted tuples are folded into the statistics once, when
        the batch ends (or raises), and before any epoch boundary it
        crosses.  An item that raises leaves the items before it ingested,
        observed and recorded, and itself and every later item not.
        """
        policy = self.on_late if on_late is None else _check_on_late(on_late)
        # the workers observe shard-side (see _ingest)
        observe = self._runtime_config.workers == 1
        chunk = self._chunk
        try:
            for item in items:
                if isinstance(item, StreamTuple):
                    tup = item
                    if tup.width != 1:
                        raise SessionError(
                            f"can only push raw input tuples, got a "
                            f"{tup.width}-way intermediate {tup!r}"
                        )
                    if tup.trigger not in self._registered:
                        self._check_relation(tup.trigger)
                else:
                    relation, values, ts = item
                    if relation not in self._registered:
                        self._check_relation(relation)
                    tup = input_tuple(relation, float(ts), values)
                if self._ingest(tup, policy):
                    if observe:
                        chunk.append(tup)
                    if self._runtime.metrics.failed:
                        raise self._failed_by_push()
        finally:
            self._observe_chunk()
        return self

    def _check_relation(self, relation: str) -> None:
        if relation not in self._registered:
            raise UnknownRelationError(
                f"relation {relation!r} is not read by any installed query; "
                f"registered relations: {sorted(self._registered)}"
            )

    def _observe_chunk(self) -> None:
        """Fold the statistics of ``push_batch``'s admitted tuples that are
        not folded yet into the live epoch."""
        chunk = self._chunk
        if chunk:
            self._loop.observe_many(chunk)
            chunk.clear()

    def _ingest(self, tup: StreamTuple, policy: str) -> bool:
        """Check, admit and deliver one input tuple: the per-item body of
        :meth:`push` and :meth:`push_batch`.

        Returns ``True`` when the live runtime ingested the tuple; the
        caller then observes its statistics (``workers == 1`` only: with
        more workers statistics are observed shard-side — partitioned
        streams on their owning shard, broadcast streams on shard 0 — and
        folded back through the loop's ``absorb`` at every drain) and
        raises if the tuple tipped the engine into failure.

        The arrival-order contract is *owned by the runtime's ingress*
        (:class:`~repro.engine.ingress.Ingress`, behind
        :meth:`~repro.engine.runtime.Runtime.process`); its rejection
        precedes any state mutation and goes through :meth:`_reject`.
        While a warmup is buffering there is no runtime yet, so the
        session's private ingress takes the same verdicts; the drain
        re-admits the buffered prefix through the runtime's own instance.
        Buffered tuples are tracked for *statistics* immediately (the
        warmup plan needs them) but committed to the verification history
        only as the drain processes them, so history always equals what
        the engine ingested — even if the drain fails partway.
        """
        relation, ts = tup.trigger, tup.trigger_ts
        if not isfinite(ts):
            # +inf would pin its stream's high water (every later push is
            # late forever), NaN would disable the order check for good
            raise SessionError(
                f"event timestamp must be finite, got ts={ts!r} "
                f"for relation {relation!r}"
            )
        try:
            hash(tuple(tup.values.values()))
        except TypeError:
            # statistics histogram every value and the stores index the
            # join keys: refused after delivery, the tuple would stay in the
            # pending micro-batch and fail a later sender's flush
            for attr, value in tup.values.items():
                try:
                    hash(value)
                except TypeError:
                    raise SessionError(
                        f"unhashable {type(value).__name__} value for "
                        f"attribute {attr!r} of relation {relation!r}; "
                        f"attribute values must be hashable"
                    ) from None
            raise
        runtime = self._runtime
        if runtime is not None and runtime.metrics.failed:
            # process() would silently drop the tuple; a facade that
            # rejects every other bad push loudly must not go quiet here
            raise EngineFailedError(
                f"the engine has failed ({runtime.metrics.failure_reason}); "
                f"the session no longer accepts pushes"
            )
        ingress = self._warmup_ingress if runtime is None else runtime.ingress
        try:
            if runtime is None:
                ingress.admit(tup)
            else:
                loop = self._loop
                if loop.epoch_length is not None and (
                    int(ts // loop.epoch_length) > loop.current_epoch
                ):
                    # cross any epoch boundary *before* this tuple is
                    # delivered — the same ordering as
                    # AdaptiveRuntime.process, so periodic decisions and
                    # installs land at identical points of the feed.  Only a
                    # boundary-crossing tuple pays the pre-check (it guards
                    # a rejected straggler from triggering a boundary the
                    # engine would not have crossed; a straggler's ts never
                    # exceeds every accepted timestamp, so it can only
                    # cross one spuriously, never legitimately).  The
                    # batch's earlier tuples belong to the closing epoch.
                    ingress.check(relation, ts)
                    self._observe_chunk()
                    loop.advance(ts)
                runtime.process(tup)
        except LateArrivalError as exc:
            self._reject(tup, policy, exc)
            return False
        # an admitted tuple that rode the allowed_lateness grace lags its
        # stream's high water by more than D — so it did not raise that
        # high water, and reading the lag after admission is exact
        if (
            self.allowed_lateness > 0
            and ingress.lag(relation, ts) > self.disorder_bound
        ):
            self._lateness_metrics().on_late_admit()
        if runtime is None:
            self._loop.observe(tup)
            self._pending.append(tup)
            if self._pushed + len(self._pending) >= self.warmup:
                self._start()
            return False
        self._pushed += 1
        if self.record_streams:
            self._record(tup)
        return True

    def _failed_by_push(self) -> EngineFailedError:
        """The error for a push that was fully processed (and recorded)
        but tipped the engine over the limit — surfaced immediately."""
        return EngineFailedError(
            f"the engine failed processing this push "
            f"({self._runtime.metrics.failure_reason})"
        )

    def _reject(self, tup: StreamTuple, policy: str, exc: LateArrivalError) -> None:
        """The one raise / drop / dead-letter ladder for a tuple the
        ingress refused.  The tuple touched neither engine nor statistics
        state and is never recorded in the verification history, so the
        oracle checks the session against exactly the admitted tuples."""
        if policy == "drop":
            self._lateness_metrics().on_late_drop()
        elif policy == "dead_letter":
            self._dead_letters.append(tup)
            self._lateness_metrics().on_dead_letter()
            for callback in self._dead_letter_listeners:
                callback(tup)
        else:
            raise LateTupleError(str(exc)) from exc

    def _lateness_metrics(self) -> EngineMetrics:
        """Where straggler counts go: the runtime's metrics, or the warmup
        tally while there is no runtime yet."""
        if self._runtime is not None:
            return self._runtime.metrics
        return self._warmup_metrics

    def dead_letters(self) -> List[StreamTuple]:
        """Beyond-lateness stragglers routed to the side-output so far
        (``on_late="dead_letter"``), in arrival order (copy)."""
        return list(self._dead_letters)

    def on_dead_letter(
        self, callback: Callable[[StreamTuple], None]
    ) -> "JoinSession":
        """Invoke ``callback(tuple)`` for every dead-lettered straggler —
        the subscribable side of the dead-letter stream, for re-ingestion
        or offline reconciliation pipelines."""
        self._dead_letter_listeners.append(callback)
        return self

    def _record(self, tup: StreamTuple) -> None:
        """Commit an ingested tuple to the verification history: the
        oracle's inputs are the tuple history and the arrival seq of each
        (relation, ts) — both grow with the stream, which is why
        production sessions turn ``record_streams`` off."""
        key = (tup.trigger, tup.trigger_ts)
        if key in self._seq_of:
            self._ambiguous_ts = True
        self._seq_of[key] = self._pushed
        self._history.setdefault(tup.trigger, []).append(tup)

    def flush(self) -> "JoinSession":
        """Run any deferred micro-batch cascade to completion."""
        if self._runtime is not None:
            self._runtime.flush()
        return self

    def close(self) -> "JoinSession":
        """Release engine resources (idempotent — results stay readable,
        pushes after close are undefined).  Every runtime now implements
        the same close contract, so ``with JoinSession(...)`` behaves
        identically at ``workers=1`` (final flush) and ``workers>1``
        (final flush + worker-pool termination); plain usage without
        ``close`` stays fully supported."""
        if self._runtime is not None:
            if not self._runtime.metrics.failed:
                self._runtime.flush()
            self._runtime.close()
        return self

    def __enter__(self) -> "JoinSession":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # checkpoint / restore
    # ------------------------------------------------------------------
    def checkpoint(self, path: Union[str, "os.PathLike[str]"]) -> "JoinSession":
        """Write a versioned snapshot of the whole session to ``path``.

        The snapshot captures everything needed to resume mid-stream with
        exact parity: construction parameters, declared statistics, the
        query lifecycle (activation intervals), the verification history
        and arrival sequences, the adaptivity loop's epoch state, the
        installed plan/topology, and a structural dump of every store
        container (docs/service.md, "Snapshot format").  Restoring via
        :meth:`restore` and finishing the feed produces results, result
        order, and metrics identical to the uninterrupted run.

        Result / dead-letter *subscribers* are not serialized — re-attach
        callbacks after restoring.  The write is atomic (temp file +
        rename), so a crash mid-checkpoint leaves any previous snapshot at
        ``path`` intact.
        """
        from .service.snapshot import write_snapshot

        write_snapshot(path, self._snapshot_state())
        return self

    @classmethod
    def restore(cls, path: Union[str, "os.PathLike[str]"]) -> "JoinSession":
        """Rebuild a session from a :meth:`checkpoint` snapshot and resume.

        The restored session accepts pushes immediately and behaves
        exactly as the checkpointed one would have: same results (and
        result order), same verification oracle, same adaptive-epoch
        schedule, same metrics (plus ``metrics.restored_tuples``).  With
        ``workers > 1`` a fresh worker pool is spawned and each shard's
        store state is reloaded structurally.
        """
        from .service.snapshot import read_snapshot

        return cls._from_snapshot_state(read_snapshot(path))

    def _snapshot_state(self) -> Dict[str, Any]:
        """The complete pickled payload behind :meth:`checkpoint`."""
        runtime = self._runtime
        if runtime is not None and not runtime.metrics.failed:
            runtime.flush()
        self._observe_chunk()
        loop, controller = self._loop, self._controller
        return {
            "ctor": {
                "window": self.window,
                "solver": self.solver,
                "default_rate": self.default_rate,
                "default_selectivity": self.default_selectivity,
                "disorder_bound": self.disorder_bound,
                "allowed_lateness": self.allowed_lateness,
                "on_late": self.on_late,
                "worker_transport": self._worker_transport,
                "optimizer_config": self._optimizer_config,
                "runtime_config": self._runtime_config,
                "record_streams": self.record_streams,
                "warmup": self.warmup,
                "reoptimize_every": self.reoptimize_every,
                "stats_window": self.stats_window,
            },
            "declared": {
                "rates": dict(self._declared_rates),
                "windows": dict(self._declared_windows),
                "selectivities": dict(self._declared_selectivities),
            },
            "queries": dict(controller.queries),
            "baseline": controller.current_plan,
            "baseline_signature": controller.current_signature,
            "lifecycle": {
                name: list(acts) for name, acts in self._lifecycle.items()
            },
            "ingest": {
                "pushed": self._pushed,
                "seq_of": dict(self._seq_of),
                "history": {
                    rel: list(tups) for rel, tups in self._history.items()
                },
                "pending": list(self._pending),
                "drops": {rel: list(v) for rel, v in self._drops.items()},
                "ambiguous_ts": self._ambiguous_ts,
                "cursors": dict(self._cursors),
                "dead_letters": list(self._dead_letters),
                "warmup_metrics": self._warmup_metrics,
            },
            "loop": {
                "current_epoch": loop.current_epoch,
                "stats": loop.stats,
                "closed": list(loop.closed),
                "pending": dict(loop.pending),
                "plan": loop.plan,
                "catalog": loop.catalog,
            },
            "topology": runtime.topology if runtime is not None else None,
            "windows": dict(runtime.windows) if runtime is not None else None,
            "engine": runtime.dump_state() if runtime is not None else None,
        }

    @classmethod
    def _from_snapshot_state(cls, payload: Mapping[str, Any]) -> "JoinSession":
        """Rebuild a session object from a :meth:`_snapshot_state` payload."""
        baseline = payload["baseline"]
        if baseline is not None and (
            plan_signature(baseline) != payload["baseline_signature"]
        ):
            raise SessionError(
                "snapshot is internally inconsistent: the saved plan does "
                "not match its recorded signature"
            )
        ctor = payload["ctor"]
        session = cls(
            window=ctor["window"],
            solver=ctor["solver"],
            default_rate=ctor["default_rate"],
            default_selectivity=ctor["default_selectivity"],
            disorder_bound=ctor["disorder_bound"],
            allowed_lateness=ctor["allowed_lateness"],
            on_late=ctor["on_late"],
            worker_transport=ctor["worker_transport"],
            optimizer_config=ctor["optimizer_config"],
            runtime_config=ctor["runtime_config"],
            record_streams=ctor["record_streams"],
            warmup=ctor["warmup"],
            reoptimize_every=ctor["reoptimize_every"],
            stats_window=ctor["stats_window"],
        )
        declared = payload["declared"]
        session._declared_rates = dict(declared["rates"])
        session._declared_windows = dict(declared["windows"])
        session._declared_selectivities = dict(declared["selectivities"])
        controller = session._controller
        for query in payload["queries"].values():
            controller.add_query(query)
        if baseline is not None:
            controller.commit(baseline)
        session._lifecycle = {
            name: list(acts) for name, acts in payload["lifecycle"].items()
        }
        session._recompute_registered()
        ingest = payload["ingest"]
        session._pushed = ingest["pushed"]
        session._seq_of = dict(ingest["seq_of"])
        session._history = {
            rel: list(tups) for rel, tups in ingest["history"].items()
        }
        session._pending = list(ingest["pending"])
        session._drops = {rel: list(v) for rel, v in ingest["drops"].items()}
        session._ambiguous_ts = ingest["ambiguous_ts"]
        session._cursors = dict(ingest["cursors"])
        session._dead_letters = list(ingest["dead_letters"])
        session._warmup_metrics = ingest["warmup_metrics"]
        loop_state = payload["loop"]
        loop = session._loop
        loop.current_epoch = loop_state["current_epoch"]
        loop.stats = loop_state["stats"]
        loop.closed.clear()
        loop.closed.extend(loop_state["closed"])
        loop.pending = dict(loop_state["pending"])
        loop.plan, loop.catalog = loop_state["plan"], loop_state["catalog"]
        engine_state = payload["engine"]
        if engine_state is None:
            # checkpointed before the first plan (warmup still buffering):
            # the buffered prefix *is* the private ingress's state — re-admit
            # it (same order, same verdicts); the restored _pending then
            # drains through _start on the next push
            for tup in session._pending:
                session._warmup_ingress.admit(tup)
            return session
        session._runtime = session._build_runtime(
            payload["topology"], dict(payload["windows"])
        )
        session._runtime.load_state(engine_state)
        return session

    # ------------------------------------------------------------------
    # results
    # ------------------------------------------------------------------
    def results(self, name: str) -> List[StreamTuple]:
        """All results produced so far for ``name`` (flushes first).

        Works for removed queries too — their outputs stay readable for the
        session's lifetime.  A session retains results iff
        ``record_streams`` and ``collect_outputs`` are both true; otherwise
        this is always ``[]`` (use :meth:`subscribe`)."""
        self._check_known(name)
        if self._runtime is None:
            return []
        self._runtime.flush()
        return list(self._runtime.outputs.get(name, []))

    def take(self, name: str) -> List[StreamTuple]:
        """Results produced since the last :meth:`take` (an iterator-style
        cursor per query; flushes first).  Only the new tail is copied, so
        polling stays linear over a session's lifetime.  Always ``[]`` on
        a session that retains no results (see :meth:`results`)."""
        self._check_known(name)
        if self._runtime is None:
            return []
        self._runtime.flush()
        out = self._runtime.outputs.get(name, [])
        cursor = self._cursors.get(name, 0)
        self._cursors[name] = len(out)
        return out[cursor:]

    def subscribe(self, name: str, callback: Callable[[StreamTuple], None]) -> "JoinSession":
        """Invoke ``callback(result)`` for every result of query ``name``.

        Callbacks fire when cascades execute, which micro-batching may defer
        until the next relation switch or :meth:`flush`.
        """
        self._check_known(name)
        self._listeners.setdefault(name, []).append(callback)
        return self

    def _check_known(self, name: str) -> None:
        if name not in self._lifecycle:
            raise UnknownQueryError(
                f"query {name!r} was never installed in this session; "
                f"known queries: {sorted(self._lifecycle)}"
            )

    # ------------------------------------------------------------------
    # planning / rewiring
    # ------------------------------------------------------------------
    def start(self) -> "JoinSession":
        """Force planning now (otherwise the first push triggers it)."""
        if not self._controller.queries:
            raise SessionError("cannot start a session with no queries")
        if self._runtime is None:
            self._start()
        return self

    def reoptimize(self) -> Optional[DecisionRecord]:
        """Consult the optimizer now against the freshest statistics.

        Routes through the same :class:`AdaptivityLoop` as
        ``reoptimize_every`` epochs and query churn: if the measured
        statistics change the optimal shared plan, the new topology is
        installed immediately through the live-rewire path (state
        migration + backfill); an unchanged plan installs nothing.  Returns the
        :class:`~repro.core.adaptive.DecisionRecord` (also appended to
        ``metrics.decisions``), or ``None`` when this call produced the
        *first* plan (initial planning is not a decision).
        """
        if not self._controller.queries:
            raise SessionError("cannot reoptimize a session with no queries")
        self._end_warmup()
        if self._runtime is None:
            self._start()
            return None
        return self._rewire()

    def _end_warmup(self) -> None:
        """Query churn ends a warmup early: the buffered prefix must run
        under the *pre-churn* query set, or activation intervals would lie
        (a query removed mid-warmup would lose its results, one added
        mid-warmup would claim tuples pushed before its arrival)."""
        if self._runtime is None and self._pending:
            self._start()

    def _build_runtime(self, topology: Topology, windows: Dict[str, float]) -> Runtime:
        """The one place a session runtime is constructed (first plan and
        restore alike): local or sharded by ``workers``, results fanned out
        to subscribers through the runtime's sink, attached to the loop."""
        if self._runtime_config.workers > 1:
            runtime: Runtime = ShardedRuntime(
                topology,
                windows,
                self._runtime_config,
                transport=self._worker_transport,
                stats_sink=self._loop.absorb,
                sink=self._deliver,
            )
            # epoch boundaries must see every already-shipped tuple's
            # statistics: drain the workers before the loop decides
            self._loop.pre_decide = runtime.flush
        else:
            runtime = RewirableRuntime(
                topology, windows, self._runtime_config, sink=self._deliver
            )
        self._loop.attach(runtime)
        return runtime

    def _deliver(self, query: str, results: Sequence[StreamTuple]) -> None:
        """The runtime's sink: fan a batch of results out to their
        subscribers, result by result — every callback of a query sees a
        result before any callback sees the next one.

        Under ``workers > 1`` this runs on the driver side of the
        deterministic merge, so callback order is reproducible regardless
        of worker scheduling (equal to ``workers=1`` where docs/engine.md,
        "Sharded execution", says it is).
        """
        listeners = self._listeners.get(query)
        if listeners:
            for result in results:
                for callback in listeners:
                    callback(result)

    def _start(self) -> None:
        if not self._controller.queries:
            return
        topology = self._loop.deploy(self._build_catalog())
        self._runtime = self._build_runtime(topology, self._windows_map())
        # stragglers handled while warming up belong to the same counters
        metrics, early = self._runtime.metrics, self._warmup_metrics
        metrics.on_late_drop(early.late_dropped)
        metrics.on_dead_letter(early.dead_lettered)
        metrics.on_late_admit(early.late_admitted)
        # the drain below re-delivers the buffered prefix tuple-by-tuple
        # (the runtime's ingress re-admits it: same order, same verdicts,
        # same trusted seqs) and re-observes statistics on the way
        # (driver-side at workers=1, shard-side otherwise) — drop the
        # buffer-time accumulator or every warmup tuple would be counted
        # twice, and epoch boundaries crossed mid-drain would misattribute
        # tuples
        self._loop.stats = EpochStatistics(epoch=self._loop.stats.epoch)
        observe = self._runtime_config.workers == 1
        pending, self._pending = self._pending, []
        for tup in pending:
            if self._loop.epoch_length is not None:
                self._loop.advance(tup.trigger_ts)
            self._runtime.process(tup)
            if observe:
                self._loop.observe(tup)
            # record per processed tuple so the verification history equals
            # exactly what the engine ingested, even if the drain dies here
            self._pushed += 1
            if self.record_streams:
                self._record(tup)
            if self._runtime.metrics.failed:
                # the documented loud-failure contract holds for buffered
                # pushes too: the warmup-ending call must not return as if
                # the whole prefix were ingested
                raise EngineFailedError(
                    f"the engine failed draining the warmup buffer "
                    f"({self._runtime.metrics.failure_reason})"
                )

    def _rewire(self) -> Optional[DecisionRecord]:
        """Decide against the freshest observed statistics and install a
        changed plan through the one ``loop.rewire`` funnel."""
        runtime = self._runtime
        runtime.flush()
        old = runtime.topology
        last_ts = runtime.ingress.last_ts
        record = self._loop.rewire(
            now=last_ts if last_ts != float("-inf") else 0.0,
            measured=self._build_catalog(),
            windows=self._windows_map(),
        )
        if record is not None and record.changed:
            # dropped *input* stores lose their windowed tuples for good
            # (MIR stores are re-derivable via backfill); remember the cut
            # so the verification oracle stops expecting results that
            # would need them
            for store_id in runtime.switches[-1].removed_stores:
                if old.stores[store_id].mir.is_input:
                    self._drops.setdefault(store_id, []).append(self._pushed)
        return record

    def _build_catalog(self) -> StatisticsCatalog:
        """Catalog from the loop's current statistics snapshot.

        With ``reoptimize_every=None`` the loop keeps one unbounded epoch,
        so this is the legacy session-long measurement; with epochs the
        snapshot covers the retained ``stats_window`` plus the live epoch
        — a churn rewire folds the *freshest* observations, not a
        session-long blob.
        """
        # a subscriber that replans from inside push_batch sees the batch
        # observed up to its current item, as with one push at a time
        self._observe_chunk()
        return self._measured_catalog(self._loop.snapshot(), self._loop.elapsed())

    def _measured_catalog(
        self, stats: EpochStatistics, elapsed: Optional[float]
    ) -> StatisticsCatalog:
        """Catalog = defaults, then observed statistics, then declared
        overrides — the single estimator is
        :meth:`EpochStatistics.fold_into` over ``elapsed`` event time.
        Also the loop's ``measure`` hook for epoch decisions."""
        queries = self._controller.query_list
        base = StatisticsCatalog(
            default_selectivity=self.default_selectivity,
            default_window=self.window,
        )
        relations = sorted({r for q in queries for r in q.relations})
        for rel in relations:
            base.with_rate(rel, self.default_rate)
            base.with_window(rel, self._window_of(rel))
        catalog = stats.fold_into(base, queries, elapsed) if elapsed else base
        for rel in relations:
            rate = self._declared_rates.get(rel)
            if rate is not None:
                catalog.with_rate(rel, rate)
        for pred, sel in self._declared_selectivities.items():
            catalog.with_selectivity(pred, sel)
        return catalog

    def _window_of(self, relation: str) -> float:
        return self._declared_windows.get(relation, self.window)

    def _windows_map(self) -> Dict[str, float]:
        return {rel: self._window_of(rel) for rel in sorted(self._registered)}

    # ------------------------------------------------------------------
    # verification
    # ------------------------------------------------------------------
    def verify(self, raise_on_mismatch: bool = False) -> VerificationReport:
        """Check every query ever installed against the brute-force oracle.

        For each activation of each query the reference join is computed
        over the recorded input history and *restricted to the activation's
        arrival interval*: a result is expected iff its last-arriving
        component (max arrival sequence over the components) was pushed
        while the query was installed — and iff every component was still
        *stored* at that point (a rewire that released an input store drops
        its windowed tuples for good; results needing them are not
        expected, matching :meth:`add_query`'s documented semantics).
        Tuples of different relations may share an event timestamp: they
        join, and the oracle expects them to.  Only two pushes of the
        *same* relation at one timestamp matter, and only under churn (an
        activation interval or a released store): the session's
        ``(relation, ts)`` → push-index lookup is then ambiguous, and this
        raises :class:`SessionError` rather than guess.  A warmup still
        buffering is drained first (the comparison needs the runtime's
        results, so verification ends the warmup early).
        """
        if not self.record_streams:
            raise SessionError(
                "verify() needs the input history; construct the session "
                "with record_streams=True"
            )
        if not self._runtime_config.collect_outputs:
            raise SessionError(
                "verify() compares the oracle against the collected results; "
                "this session's runtime_config has collect_outputs=False"
            )
        if self._ambiguous_ts and (
            self._drops
            or any(
                act.from_seq > 0 or act.to_seq is not None
                for acts in self._lifecycle.values()
                for act in acts
            )
        ):
            # seq lookups are by (relation, event ts); duplicates make the
            # interval/drop restriction silently wrong — refuse loudly.
            # Without churn every activation covers all seqs, so duplicate
            # timestamps are harmless and verification proceeds.
            raise SessionError(
                "two pushes of one relation shared an event timestamp, so "
                "the arrival-seq oracle cannot attribute results to "
                "add/remove intervals; verify() needs distinct per-relation "
                "timestamps when the query set changes mid-stream"
            )
        self._end_warmup()
        self.flush()
        report = VerificationReport()
        # the reference join is the expensive part; activations of the same
        # query (remove + re-add churn) share one computation and only
        # re-filter by their arrival interval
        reference_cache: Dict[Query, List[Tuple[Tuple, int, tuple]]] = {}
        for name, activations in self._lifecycle.items():
            expected = set()
            for act in activations:
                keyed = reference_cache.get(act.query)
                if keyed is None:
                    windows = {
                        rel: self._window_of(rel) for rel in act.query.relations
                    }
                    keyed = []
                    for res in reference_join(act.query, self._history, windows):
                        comps = tuple(
                            (rel, self._seq_of.get((rel, ts), 0))
                            for rel, ts in res.timestamps.items()
                        )
                        keyed.append(
                            (res.key(), max(c for _, c in comps), comps)
                        )
                    reference_cache[act.query] = keyed
                for key, seq, comps in keyed:
                    if act.contains(seq) and self._components_stored(comps, seq):
                        expected.add(key)
            produced = result_keys(
                self._runtime.outputs.get(name, []) if self._runtime else []
            )
            ok = expected == produced
            report.checks[name] = QueryCheck(
                name=name,
                ok=ok,
                expected=len(expected),
                produced=len(produced),
                diff="" if ok else describe_result_diff(expected, produced),
            )
        if raise_on_mismatch and not report.ok:
            raise AssertionError(
                "session diverged from the reference:\n" + report.describe()
            )
        return report

    def _components_stored(self, comps: tuple, trigger_seq: int) -> bool:
        """True iff every component was still in its store at the trigger.

        A component pushed at seq ``c`` is gone for a result triggered at
        seq ``s`` iff its relation's input store was released at some drop
        point ``d`` with ``c <= d < s``.
        """
        if not self._drops:
            return True
        for rel, c in comps:
            for d in self._drops.get(rel, ()):
                if c <= d < trigger_seq:
                    return False
        return True

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def plan(self) -> Optional[SharedPlan]:
        """The most recently installed shared plan (None before planning).

        An epoch decision that changed the plan shows here only once its
        install made it the running plan, together with :attr:`topology`.
        """
        return self._loop.plan

    @property
    def topology(self) -> Optional[Topology]:
        return self._runtime.topology if self._runtime is not None else None

    @property
    def catalog(self) -> Optional[StatisticsCatalog]:
        """The catalog the installed plan was optimized against."""
        return self._loop.catalog

    @property
    def metrics(self) -> Optional[EngineMetrics]:
        return self._runtime.metrics if self._runtime is not None else None

    @property
    def decisions(self) -> List[DecisionRecord]:
        """Every optimizer consultation routed through the adaptivity loop
        (periodic epochs, query churn, explicit :meth:`reoptimize`)."""
        return (
            list(self._runtime.metrics.decisions)
            if self._runtime is not None
            else []
        )

    @property
    def rewires(self) -> List[SwitchRecord]:
        """Topology switches installed by online add/remove.

        The initial deployment is not a rewire (nothing to migrate), so a
        session that never churned has an empty log.
        """
        return list(self._runtime.switches) if self._runtime is not None else []

    @property
    def pushed(self) -> int:
        """Number of tuples pushed so far (including a buffering warmup)."""
        return self._pushed + len(self._pending)

    def stored_tuples(self) -> int:
        """Live tuples currently held across all store tasks."""
        return (
            self._runtime.stored_tuples_total() if self._runtime is not None else 0
        )

    def describe(self) -> str:
        """Human-readable snapshot: plan objective, topology, traffic."""
        queries = self._controller.queries
        lines = [
            f"JoinSession: {len(queries)} queries "
            f"{sorted(queries)}, {self._pushed} tuples pushed"
        ]
        plan = self.plan
        if plan is not None:
            lines.append(f"plan objective: {plan.objective:g}")
            lines.append(plan.describe())
        if self.topology is not None:
            lines.append(self.topology.describe())
        return "\n".join(lines)

"""Partitioned, windowed, indexed relation stores.

Each :class:`StoreTask` simulates one worker task of a store (one partition):
one container of the configured backend, one hash index per distinct lookup
key ("For each distinct attribute access in a store, indices are created
locally" — an access here is the whole set of equality attributes of a probe
hop), and eviction of tuples that fell out of the retention window.  The
paper's workers keep an independent container *per epoch* (Algorithm 4) so
that two configurations coexist for a window during a switch; this engine
switches plans atomically between two inputs and backfills new stores
instead (docs/engine.md), so a task never holds more than one container.

Eviction is *incremental*: a container buckets its tuples by coarse
``latest_ts`` slices, so an eviction pass drops whole expired buckets (plus
a filter over the single boundary bucket) and removes exactly the evicted
tuples from the existing hash indexes in place — the indexes survive the
pass instead of being rebuilt from a full container scan.  The seed
implementation re-scanned every tuple and discarded all indexes on every
pass, which made long runs quadratic in the stored-state size.

The container contract is explicit: :class:`StoreBackend` is the protocol
every container implementation satisfies, :func:`make_backend` the
configuration-name factory.  :class:`Container` (this module) is the
dict/hash-index implementation; the numpy-vectorized columnar layout lives
in :mod:`repro.engine.columnar` and is selected with
``RuntimeConfig(store_backend="columnar")``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import isinf
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    NamedTuple,
    Optional,
    Protocol,
    Sequence,
    Set,
    Tuple,
    Type,
    TypeVar,
    Union,
    runtime_checkable,
)

from ..core.predicates import JoinPredicate
from .tuples import StreamTuple, intern_attr

__all__ = [
    "Container",
    "HopKey",
    "Key",
    "STORE_BACKENDS",
    "StoreBackend",
    "StoreTask",
    "load_container",
    "make_backend",
    "probe_container",
    "probe_batch",
    "orient_predicates",
]

#: number of coarse time slices a retention window is divided into; eviction
#: drops whole slices, so larger values evict in finer (cheaper) steps at the
#: price of more bucket bookkeeping.
BUCKETS_PER_WINDOW = 16

#: what a store-side lookup structure is keyed by: the stored attribute of a
#: single-equality hop (``"S.a"``), or the sorted stored attributes of a hop
#: with several equalities (``("S.a", "S.b")``)
Key = Union[str, Tuple[str, ...]]


class HopKey(NamedTuple):
    """The whole equality key of one probe hop (:func:`orient_predicates`).

    ``probe_attrs[i]`` on the probing tuple must equal ``stored_attrs[i]``
    on the stored one; ``key`` names the store-side structure that answers
    the lookup — empty for a predicate-free hop, which scans.
    """

    probe_attrs: Tuple[str, ...]
    stored_attrs: Tuple[str, ...]
    key: Key


@runtime_checkable
class StoreBackend(Protocol):
    """The container contract every store backend implements.

    This is the (previously implicit) interface the runtime, the rewiring
    subsystem, and the probe path rely on.  Two implementations ship:

    * :class:`Container` — one hash index per distinct lookup key over
      tuple dicts (``store_backend="python"``, the default),
    * :class:`~repro.engine.columnar.ColumnarContainer` — numpy code
      columns per (time bucket, lookup key) with vectorized probes
      (``store_backend="columnar"``).

    Probing is an either/or obligation the protocol cannot express: a
    backend must *either* expose its own ``probe_batch(probes, oriented,
    windows, uniform_window)`` method — :func:`probe_batch`
    dispatches to it when present, which is how the columnar backend routes
    probes through its vectorized path without the runtime knowing about
    backends at all — *or* implement ``index_on(key)`` (a hash index on the
    hop's whole equality key, like :meth:`Container.index_on`), which the
    generic fallback path requires.  Either way a lookup is answered on
    *all* equality attributes of the hop, and a NaN key value joins nothing
    (``NaN != NaN`` — the brute-force reference agrees).
    """

    def insert(self, tup: StreamTuple) -> None: ...

    def iter_tuples(self) -> Iterator[StreamTuple]: ...

    @property
    def tuples(self) -> List[StreamTuple]: ...

    def evict_older_than(self, horizon: float) -> int: ...

    def __len__(self) -> int: ...

    def dump_state(self) -> Dict[str, Any]: ...


def check_backend_name(name: str) -> str:
    """Validate a backend configuration name against :data:`STORE_BACKENDS`."""
    if name not in STORE_BACKENDS:
        raise ValueError(
            f"unknown store backend {name!r}; "
            f"expected one of {sorted(STORE_BACKENDS)}"
        )
    return name


def make_backend(name: str, bucket_width: Optional[float]) -> "StoreBackend":
    """Instantiate a store backend by configuration name.

    The single registry behind every backend-name surface
    (:data:`STORE_BACKENDS`): ``RuntimeConfig`` validation, task
    construction, snapshot loading, and the benchmark/experiment CLIs all
    consume it, so a new backend registers exactly once.
    """
    return STORE_BACKENDS[check_backend_name(name)](bucket_width=bucket_width)


_Index = Dict[object, List[StreamTuple]]
_K = TypeVar("_K", str, Tuple[str, ...])


def _index_add(index: _Index, value: object, tup: StreamTuple) -> None:
    entries = index.get(value)
    if entries is None:
        index[value] = [tup]
    else:
        entries.append(tup)


def _index_remove(index: _Index, lookups: List[Any], dead: Set[int]) -> None:
    """Drop the tuples whose ``id`` is in ``dead`` from the entries filed
    under ``lookups`` (one per evicted tuple; a value that was never filed
    — NaN — finds no entry).

    Entry lists are in insertion order and eviction takes the oldest
    tuples, so the dead entries of a list are usually a run at its front:
    that run is deleted in place, and the rest of the list is filtered
    only when dead entries remain behind it (out-of-order feeds)."""
    counts: Dict[object, int] = {}
    for value in lookups:
        counts[value] = counts.get(value, 0) + 1
    for value, n_dead in counts.items():
        entries = index.get(value)
        if entries is None:
            continue
        if len(entries) <= n_dead:
            del index[value]
            continue
        front = 0
        while front < n_dead and id(entries[front]) in dead:
            front += 1
        if front == n_dead:
            del entries[:front]
        else:
            entries[:] = [t for t in entries if id(t) not in dead]
            if not entries:
                del index[value]


def _copy_indexes(indexes: Mapping[_K, _Index]) -> Dict[_K, _Index]:
    """Indexes with fresh candidate lists in the original order."""
    return {
        key: {value: list(entries) for value, entries in index.items()}
        for key, index in indexes.items()
    }


def _composite_value(
    values: Mapping[str, object], attrs: Tuple[str, ...]
) -> Optional[Tuple[object, ...]]:
    """The value tuple a composite index files ``values`` under, or ``None``
    when one of them is NaN (which joins nothing, itself included)."""
    lookup = tuple([values.get(attr) for attr in attrs])
    for value in lookup:
        if value != value:
            return None
    return lookup


class Container:
    """Tuple container with lazy, incrementally-maintained hash indexes.

    ``bucket_width`` is the coarse time-slice used to group tuples by
    ``latest_ts`` (normally ``retention / BUCKETS_PER_WINDOW``); ``None``
    keeps a single bucket, which still evicts correctly but filters the
    whole container per pass (used for infinite retention, where eviction
    never runs anyway).

    Inserts append to a flat ``_recent`` list — exactly the seed's insert
    cost — and tuples are moved into their time buckets lazily at the next
    eviction pass, so bucket bookkeeping is amortized over whole eviction
    intervals instead of paid per insert.
    """

    __slots__ = (
        "_buckets",
        "_recent",
        "indexes",
        "composite_indexes",
        "_count",
        "_bucket_width",
        "index_rebuilds",
    )

    def __init__(self, bucket_width: Optional[float] = None) -> None:
        if bucket_width is not None and (bucket_width <= 0 or isinf(bucket_width)):
            bucket_width = None
        self._bucket_width = bucket_width
        self._buckets: Dict[int, List[StreamTuple]] = {}
        self._recent: List[StreamTuple] = []
        #: stored attribute -> {value -> tuples}: single-equality hops
        self.indexes: Dict[str, _Index] = {}
        #: sorted stored attributes -> {value tuple -> tuples}: hops with
        #: several equalities (kept apart so that an insert into a store no
        #: such hop probes pays one truthiness test for them)
        self.composite_indexes: Dict[Tuple[str, ...], _Index] = {}
        self._count = 0
        #: diagnostic: number of full-scan index (re)builds (tests assert
        #: eviction does not force rebuilds)
        self.index_rebuilds = 0

    def __len__(self) -> int:
        return self._count

    # ------------------------------------------------------------------
    # views
    # ------------------------------------------------------------------
    def iter_tuples(self) -> Iterator[StreamTuple]:
        """All stored tuples, bucket-ordered then arrival-ordered (deterministic)."""
        for bucket_id in sorted(self._buckets):
            yield from self._buckets[bucket_id]
        yield from self._recent

    @property
    def tuples(self) -> List[StreamTuple]:
        """Materialized list view (compatibility; prefer :meth:`iter_tuples`)."""
        return list(self.iter_tuples())

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------
    def insert(self, tup: StreamTuple) -> None:
        self._recent.append(tup)
        self._count += 1
        values = tup.values
        for attr, index in self.indexes.items():
            value = values.get(attr)
            if value != value:
                continue  # NaN joins nothing, itself included
            entries = index.get(value)
            if entries is None:
                index[value] = [tup]
            else:
                entries.append(tup)
        if self.composite_indexes:
            # _composite_value + _index_add, inlined: this runs per insert
            for attrs, index in self.composite_indexes.items():
                lookup = tuple([values.get(attr) for attr in attrs])
                for value in lookup:
                    if value != value:
                        break
                else:
                    entries = index.get(lookup)
                    if entries is None:
                        index[lookup] = [tup]
                    else:
                        entries.append(tup)

    def _flush_recent(self) -> None:
        """Move freshly inserted tuples into their time buckets."""
        width = self._bucket_width
        buckets = self._buckets
        if width is None:
            bucket = buckets.get(0)
            if bucket is None:
                buckets[0] = list(self._recent)
            else:
                bucket.extend(self._recent)
        else:
            for tup in self._recent:
                # int(x // w) floors (floats carry exact integers far beyond
                # any realistic bucket id) and beats a math.floor call here
                bucket_id = int(tup.latest_ts // width)
                bucket = buckets.get(bucket_id)
                if bucket is None:
                    buckets[bucket_id] = [tup]
                else:
                    bucket.append(tup)
        self._recent = []

    def index_on(self, key: Key) -> _Index:
        """Create (on first use) and return the hash index for ``key``: a
        stored attribute (looked up by value) or a tuple of them (looked up
        by the value tuple in the same order).  NaN values are left out."""
        if isinstance(key, str):
            index = self.indexes.get(key)
            if index is None:
                index = self.indexes[key] = {}
                for tup in self.iter_tuples():
                    value = tup.values.get(key)
                    if value == value:
                        _index_add(index, value, tup)
                self.index_rebuilds += 1
        else:
            index = self.composite_indexes.get(key)
            if index is None:
                index = self.composite_indexes[key] = {}
                for tup in self.iter_tuples():
                    lookup = _composite_value(tup.values, key)
                    if lookup is not None:
                        _index_add(index, lookup, tup)
                self.index_rebuilds += 1
        return index

    def evict_older_than(self, horizon: float) -> int:
        """Drop tuples whose latest component is older than ``horizon``.

        Returns the summed width of evicted tuples (memory accounting).
        Whole expired buckets are dropped; only the boundary bucket is
        filtered; indexes are updated in place with exactly the evicted
        tuples (no rebuild).
        """
        if not self._count:
            return 0
        if self._recent:
            self._flush_recent()
        evicted: List[StreamTuple] = []
        width = self._bucket_width
        if width is None:
            bucket = self._buckets.get(0)
            if bucket:
                keep = [t for t in bucket if t.latest_ts >= horizon]
                if len(keep) != len(bucket):
                    evicted = [t for t in bucket if t.latest_ts < horizon]
                    if keep:
                        self._buckets[0] = keep
                    else:
                        del self._buckets[0]
        else:
            boundary = int(horizon // width)
            expired = [b for b in self._buckets if b < boundary]
            for bucket_id in expired:
                evicted.extend(self._buckets.pop(bucket_id))
            bucket = self._buckets.get(boundary)
            if bucket:
                keep = [t for t in bucket if t.latest_ts >= horizon]
                if len(keep) != len(bucket):
                    evicted.extend(t for t in bucket if t.latest_ts < horizon)
                    if keep:
                        self._buckets[boundary] = keep
                    else:
                        del self._buckets[boundary]
        if not evicted:
            return 0
        self._count -= len(evicted)
        if self._count == 0:
            # container emptied: empty indexes are cheap to recreate and
            # clearing drops any large dict shells in one go
            self.indexes = {attr: {} for attr in self.indexes}
            self.composite_indexes = {
                attrs: {} for attrs in self.composite_indexes
            }
        else:
            self._unindex(evicted)
        return sum(t.width for t in evicted)

    # ------------------------------------------------------------------
    # checkpoint/restore
    # ------------------------------------------------------------------
    def dump_state(self) -> Dict[str, Any]:
        """Structural snapshot of the container (checkpoint support).

        The dump is *structural*, not a tuple list: buckets, the pending
        ``_recent`` list, and every hash index's candidate-list order are
        captured verbatim, so a restored container probes candidates in
        exactly the original order — result order and ``checked`` counts
        are bit-for-bit identical after :meth:`load_state`.  Tuples are
        shared by reference between buckets and index entries; a single
        pickle of the dump preserves that identity (``_unindex`` relies
        on it).
        """
        return {
            "backend": "python",
            "bucket_width": self._bucket_width,
            "buckets": {bid: list(tups) for bid, tups in self._buckets.items()},
            "recent": list(self._recent),
            "indexes": _copy_indexes(self.indexes),
            "composite_indexes": _copy_indexes(self.composite_indexes),
            "count": self._count,
            "index_rebuilds": self.index_rebuilds,
        }

    @classmethod
    def load_state(cls, state: Mapping[str, Any]) -> "Container":
        """Rebuild a container from :meth:`dump_state` output."""
        cont = cls(bucket_width=state["bucket_width"])
        cont._buckets = {
            int(bid): list(tups) for bid, tups in state["buckets"].items()
        }
        cont._recent = list(state["recent"])
        cont.indexes = _copy_indexes(state["indexes"])
        cont.composite_indexes = _copy_indexes(state["composite_indexes"])
        cont._count = int(state["count"])
        cont.index_rebuilds = int(state["index_rebuilds"])
        return cont

    def _unindex(self, evicted: Sequence[StreamTuple]) -> None:
        """Remove exactly ``evicted`` from every maintained index, in place."""
        if not self.indexes and not self.composite_indexes:
            return
        dead = {id(t) for t in evicted}
        for attr, index in self.indexes.items():
            _index_remove(index, [t.values.get(attr) for t in evicted], dead)
        for attrs, index in self.composite_indexes.items():
            _index_remove(
                index, [_composite_value(t.values, attrs) for t in evicted], dead
            )


#: backend-name registry (name -> container class); ``"python"`` is the
#: dict/hash-index :class:`Container`, ``"columnar"`` the numpy-vectorized
#: :class:`~repro.engine.columnar.ColumnarContainer` (imported here, below
#: ``Container``, to register it — columnar depends only on ``tuples``)
from .columnar import ColumnarContainer  # noqa: E402  (needs Container first)

STORE_BACKENDS: Dict[str, Union[Type[Container], Type[ColumnarContainer]]] = {
    "python": Container,
    "columnar": ColumnarContainer,
}


def load_container(state: Mapping[str, Any]) -> "StoreBackend":
    """Rebuild a container from a ``dump_state`` snapshot (any backend).

    The snapshot's ``"backend"`` tag selects the implementation; each
    backend's ``load_state`` reconstructs its own structural dump exactly
    (see :meth:`Container.dump_state` /
    :meth:`~repro.engine.columnar.ColumnarContainer.dump_state`).
    """
    backend = state.get("backend")
    if backend not in STORE_BACKENDS:
        raise ValueError(f"unknown container snapshot backend {backend!r}")
    return STORE_BACKENDS[backend].load_state(state)


@dataclass
class StoreTask:
    """One partition (worker task) of a store: one container of one backend."""

    store_id: str
    task_index: int
    retention: float
    #: container implementation ("python"|"columnar", see STORE_BACKENDS)
    backend: str = "python"
    #: upper bound of actually-evicted history: retention growth past this
    #: horizon would silently join against dropped state (see
    #: :class:`~repro.engine.rewiring.WindowGrowthError`)
    evicted_through: float = float("-inf")
    #: the task's state, built with the task (bucket width from the
    #: retention of that moment)
    container: StoreBackend = field(init=False)

    def __post_init__(self) -> None:
        width = None
        if not isinf(self.retention) and self.retention > 0:
            width = self.retention / BUCKETS_PER_WINDOW
        self.container = make_backend(self.backend, width)

    def evict(self, now: float) -> int:
        """Window-based eviction of the task's container.

        ``now`` is the eviction reference instant: the current event time
        under ordered arrivals, or the runtime's global *watermark* under
        bounded out-of-order arrivals.  In both cases every future probe
        carries event timestamps ≥ ``now``, so tuples whose latest component
        is older than ``now - retention`` can never pass another pairwise
        window check and are safe to drop.
        """
        if self.retention == float("inf"):
            return 0
        horizon = now - self.retention
        freed = self.container.evict_older_than(horizon)
        if freed and horizon > self.evicted_through:
            # record history as lost only when tuples were actually dropped
            self.evicted_through = horizon
        return freed

    def stored_tuples(self) -> int:
        return len(self.container)

    # ------------------------------------------------------------------
    # checkpoint/restore
    # ------------------------------------------------------------------
    def dump_state(self) -> Dict[str, Any]:
        """Snapshot of the task: configuration plus its container's dump."""
        return {
            "store_id": self.store_id,
            "task_index": self.task_index,
            "retention": self.retention,
            "backend": self.backend,
            "evicted_through": self.evicted_through,
            "container": self.container.dump_state(),
        }

    @classmethod
    def from_state(cls, state: Mapping[str, Any]) -> "StoreTask":
        """Rebuild a task from :meth:`dump_state` output (exact restore).

        ``evicted_through`` survives, so window-growth safety checks keep
        their history after a restore.
        """
        task = cls(
            store_id=state["store_id"],
            task_index=int(state["task_index"]),
            retention=state["retention"],
            backend=state["backend"],
            evicted_through=state["evicted_through"],
        )
        task.container = load_container(state["container"])
        return task


def orient_predicates(
    predicates: Tuple[JoinPredicate, ...], probe_lineage: Iterable[str]
) -> HopKey:
    """Resolve a hop's predicates into its whole equality key.

    Orientation (which side of each predicate the probing tuple carries)
    depends only on the probe's lineage, which is fixed per topology edge —
    callers resolve once per (rule, lineage) and pass the result to every
    :func:`probe_batch` call.  The equalities are sorted by stored
    attribute, so hops that list the same equalities in another order
    resolve to the same ``key`` and share one store-side structure.
    """
    lineage = set(probe_lineage)
    pairs = []
    for pred in predicates:
        if pred.left.relation in lineage:
            probe_attr, stored_attr = str(pred.left), str(pred.right)
        else:
            probe_attr, stored_attr = str(pred.right), str(pred.left)
        # interned names make the values.get() lookups hit the
        # pointer-equality fast path of tuples built by input_tuple
        pairs.append((intern_attr(stored_attr), intern_attr(probe_attr)))
    pairs.sort()
    stored_attrs = tuple(stored for stored, _ in pairs)
    return HopKey(
        probe_attrs=tuple(probe for _, probe in pairs),
        stored_attrs=stored_attrs,
        key=stored_attrs[0] if len(stored_attrs) == 1 else stored_attrs,
    )


def probe_batch(
    container: StoreBackend,
    probes: Sequence[StreamTuple],
    oriented: HopKey,
    windows: Dict[str, float],
    uniform_window: Optional[float] = None,
) -> Tuple[List[StreamTuple], int]:
    """Find join partners for a batch of same-lineage probe tuples.

    The hash-index resolution and window-mode dispatch are amortized over
    the batch; returns ``(merged results in probe order, candidates
    checked)``.  Matches the local probe handling of Algorithm 3.

    The lookup is on the hop's whole equality key (``oriented``, from
    :func:`orient_predicates`): ``checked`` counts the stored tuples equal
    to the probe on *every* equality attribute, and only the window check
    runs per candidate.  A predicate-free hop scans the store.

    Backends that implement their own ``probe_batch`` (the columnar
    backend's vectorized path) are dispatched to directly — same
    semantics, different candidate-finding machinery.

    No arrival rule runs here: the runtime processes inputs in arrival
    order and finishes each cascade before admitting the next input, and a
    probe never targets a store holding its own relation, so every stored
    candidate arrived before the probe.  Each result combination is
    produced once, by the cascade of its last-arriving component, and
    partners with equal event timestamps join.
    """
    vectorized = getattr(container, "probe_batch", None)
    if vectorized is not None:
        return vectorized(probes, oriented, windows, uniform_window)
    results: List[StreamTuple] = []
    checked = 0
    if not probes or not len(container):
        # nothing to probe (or against): in particular an empty store must
        # not build a hash index it cannot use — a zero-survivor upstream
        # hop would otherwise inflate ``index_rebuilds`` on untouched stores
        return results, checked
    probe_attrs, _, key = oriented
    # one equality looks up the bare value: no tuple is built per probe
    single = probe_attrs[0] if len(probe_attrs) == 1 else None
    if key:
        index = container.index_on(key)
    else:
        candidates = container.tuples
    for probe in probes:
        # a merged probe's values dict is unbuilt: ``get`` reads its parents
        values = probe._values
        if single is not None:
            candidates = index.get(
                probe.get(single) if values is None else values.get(single)
            )
        elif key:
            get = probe.get if values is None else values.get
            candidates = index.get(tuple([get(attr) for attr in probe_attrs]))
        if not candidates:
            continue
        for stored in candidates:
            checked += 1
            if uniform_window is not None:
                if not probe.within_uniform_window(stored, uniform_window):
                    continue
            elif not probe.within_windows(stored, windows):
                continue
            results.append(probe.merge(stored))
    return results, checked


def probe_container(
    container: StoreBackend,
    probe: StreamTuple,
    predicates: Tuple[JoinPredicate, ...],
    windows: Dict[str, float],
    count_comparisons: Optional[Callable[[int], None]] = None,
) -> List[StreamTuple]:
    """Find all join partners of ``probe`` in ``container``.

    Single-tuple convenience wrapper over :func:`probe_batch` (kept for the
    public API and tests; the runtime drives the batch path directly).
    """
    oriented = orient_predicates(predicates, probe.lineage)
    results, checked = probe_batch(container, (probe,), oriented, windows)
    if count_comparisons is not None:
        count_comparisons(checked)
    return results

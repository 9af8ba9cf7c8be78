"""Columnar store backend: numpy-vectorized windowed containers.

:class:`ColumnarContainer` is a drop-in alternative to the dict-backed
:class:`~repro.engine.stores.Container` (both satisfy the
:class:`~repro.engine.stores.StoreBackend` protocol).  Instead of hash
indexes over per-tuple ``values`` dicts, it lays state out as numpy arrays
per (time bucket, attribute):

* **interned key columns** — each join-attribute value is mapped to a
  small integer *code* through a per-attribute interning dict; equality
  probes become ``codes == probe_code`` array comparisons resolved with
  ``np.flatnonzero`` instead of per-tuple predicate evaluation.  A hop
  with several equalities probes one **combined** code column, computed
  from the per-attribute codes (:func:`_combine_codes`), and verifies the
  survivors against the per-attribute columns,
* **presence sets** — per bucket and probed column, the codes the column
  holds: a probe skips every bucket that cannot hold its key before it
  touches numpy, so an equality probe costs what it matches rather than
  one array pass per live bucket,
* **timestamp columns** — ``latest_ts`` / ``earliest_ts`` per row back the
  O(1) uniform-window check; per-relation event-timestamp columns (NaN
  where a row's lineage lacks the relation) back the general pairwise
  window mask,
* **seq column** — the runtime-assigned arrival sequence, so watermark
  mode's visibility rule is a vectorized comparison too.

Layout and growth policy:

* rows live in coarse ``latest_ts`` buckets (same geometry as the python
  backend: ``retention / BUCKETS_PER_WINDOW``), each bucket owning its
  column arrays plus the parallel :class:`StreamTuple` row list used to
  materialize matches,
* arrays grow **append-only in chunks** (capacity doubling, never below
  :data:`MIN_CAPACITY`); an insert writes one scalar per active column,
* code columns are **lazily activated** by the first probe that needs
  them (``column_builds`` counts the one-off backfills, the analogue of
  ``Container.index_rebuilds``) and maintained incrementally afterwards,
* **eviction is bucket-sliced**: whole expired buckets are dropped in one
  ``del``, only the boundary bucket is compressed (boolean-mask fancy
  indexing over its columns) — active columns survive every pass, they are
  never rebuilt from a container scan.

The vectorized probe path lives in :meth:`ColumnarContainer.probe_batch`,
which :func:`repro.engine.stores.probe_batch` dispatches to whenever the
stored side is columnar — callers (runtime, session, benchmarks) are
oblivious to the backend.
"""

from __future__ import annotations

import io
from math import isinf
from typing import (
    TYPE_CHECKING,
    Any,
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
    cast,
)

import numpy as np
import numpy.typing as npt

from .tuples import StreamTuple, intern_attr

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .stores import HopKey, Key

FloatArray = npt.NDArray[np.float64]
IntArray = npt.NDArray[np.int64]
BoolArray = npt.NDArray[np.bool_]

__all__ = ["ColumnarContainer", "ColumnBucket", "VectorBatch", "MIN_CAPACITY"]

#: smallest per-bucket array allocation; doubles as the growth quantum for
#: tiny buckets so chunked growth never degenerates into per-insert resizes
MIN_CAPACITY = 64

#: the combined code of a multi-attribute key is a polynomial hash of the
#: per-attribute codes, kept non-negative in an int64.  Masking the low bits
#: gives Python's unbounded integers and numpy's wrapping int64 arithmetic
#: the same result.  Distinct keys may collide — probes verify survivors
#: against the per-attribute columns, so a collision costs a comparison,
#: never a wrong result.
_KEY_MULTIPLIER = 1000003
_KEY_MASK = (1 << 62) - 1


def _intern_key(key: Key) -> Key:
    """``key`` with its attribute names interned (``intern_attr``)."""
    if isinstance(key, str):
        return intern_attr(key)
    return tuple(intern_attr(attr) for attr in key)


def _combine_codes(codes: Iterable[int]) -> int:
    """Combined code of a multi-attribute key from its per-attribute codes
    (-1 when one of them is: a NaN value joins nothing)."""
    combined = 0
    for code in codes:
        if code < 0:
            return -1
        combined = (combined * _KEY_MULTIPLIER + code) & _KEY_MASK
    return combined


def _combine_columns(columns: Sequence[IntArray]) -> IntArray:
    """:func:`_combine_codes` over whole code columns (the backfill path)."""
    combined = np.zeros(len(columns[0]), dtype=np.int64)
    unjoinable = np.zeros(len(columns[0]), dtype=np.bool_)
    for column in columns:
        combined = (combined * _KEY_MULTIPLIER + column) & _KEY_MASK
        unjoinable |= column < 0
    combined[unjoinable] = -1
    return combined


def _array_bytes(arr: npt.NDArray[Any]) -> bytes:
    """Serialize an array to raw ``.npy`` bytes (``np.save`` format)."""
    buf = io.BytesIO()
    np.save(buf, arr, allow_pickle=False)
    return buf.getvalue()


def _array_from(data: bytes) -> npt.NDArray[Any]:
    """Inverse of :func:`_array_bytes`."""
    out: npt.NDArray[Any] = np.load(io.BytesIO(data), allow_pickle=False)
    return out


class VectorBatch:
    """A micro-batch travelling hop-to-hop in vectorized (unmaterialized) form.

    The tuple-at-a-time cascade materializes a merged :class:`StreamTuple`
    (two dict unions) for *every* intermediate match, even those that die at
    the next hop.  A :class:`VectorBatch` defers that work: each element is a
    *component chain* — the probe's original parts plus one stored row per
    survived hop — alongside numpy columns for exactly the per-element
    scalars the next hop needs (``trigger_ts`` / ``latest_ts`` /
    ``earliest_ts`` / ``seq``).  Chains share their common prefix
    structurally, so carrying a survivor costs one tuple concatenation and
    four array slots instead of two dict unions.

    :meth:`materialize` folds each chain left-to-right through
    :meth:`StreamTuple.merge`, reproducing the tuple path's results exactly
    (same trigger, same last-writer-wins value union, same timestamp extrema
    and max-``seq``); the fold is cached so emission and store boundaries
    within one hop share it.
    """

    __slots__ = (
        "chains",
        "trigger",
        "latest",
        "earliest",
        "seq",
        "lineage",
        "_rows",
    )

    def __init__(
        self,
        chains: List[Tuple[StreamTuple, ...]],
        trigger: FloatArray,
        latest: FloatArray,
        earliest: FloatArray,
        seq: IntArray,
        lineage: FrozenSet[str],
    ) -> None:
        self.chains = chains
        self.trigger = trigger
        self.latest = latest
        self.earliest = earliest
        self.seq = seq
        self.lineage = lineage
        self._rows: Optional[List[StreamTuple]] = None

    @classmethod
    def from_tuples(cls, tups: Sequence[StreamTuple]) -> "VectorBatch":
        """Lift a homogeneous-lineage tuple batch into vector form."""
        n = len(tups)
        trigger = np.empty(n, dtype=np.float64)
        latest = np.empty(n, dtype=np.float64)
        earliest = np.empty(n, dtype=np.float64)
        seq = np.empty(n, dtype=np.int64)
        chains: List[Tuple[StreamTuple, ...]] = []
        for pos, tup in enumerate(tups):
            trigger[pos] = tup.trigger_ts
            latest[pos] = tup.latest_ts
            earliest[pos] = tup.earliest_ts
            seq[pos] = tup.seq
            chains.append((tup,))
        batch = cls(chains, trigger, latest, earliest, seq, tups[0].lineage)
        # single-part chains materialize to the inputs themselves
        batch._rows = list(tups)
        return batch

    def __len__(self) -> int:
        return len(self.chains)

    def values_of(self, attr: str) -> List[object]:
        """Per-element value of a qualified attribute (``None`` if absent).

        Chains have pairwise-disjoint part lineages, so a qualified
        attribute lives in at most one part; scanning parts last-to-first
        reproduces the merged dict union's last-writer-wins ``.get`` exactly
        (including explicit ``None`` values, which are joinable keys).
        """
        out: List[object] = []
        for chain in self.chains:
            value = None
            for part in reversed(chain):
                if attr in part.values:
                    value = part.values[attr]
                    break
            out.append(value)
        return out

    def materialize(self) -> List[StreamTuple]:
        """Fold every chain into a concrete :class:`StreamTuple` (cached)."""
        rows = self._rows
        if rows is None:
            rows = []
            for chain in self.chains:
                tup = chain[0]
                for part in chain[1:]:
                    tup = tup.merge(part)
                rows.append(tup)
            self._rows = rows
        return rows


class ColumnBucket:
    """One ``latest_ts`` slice of a columnar container.

    Owns the row list plus one array per core column (``latest``,
    ``earliest``, ``seq``, ``width``) and per active code/relation column.
    Arrays are over-allocated (``size <= capacity``); views are always
    taken as ``arr[:size]``.
    """

    __slots__ = (
        "rows",
        "size",
        "capacity",
        "latest",
        "earliest",
        "seq",
        "width",
        "codes",
        "present",
        "rel_ts",
    )

    def __init__(self, capacity: int = MIN_CAPACITY) -> None:
        self.rows: List[StreamTuple] = []
        self.size = 0
        self.capacity = capacity
        self.latest = np.empty(capacity, dtype=np.float64)
        self.earliest = np.empty(capacity, dtype=np.float64)
        self.seq = np.empty(capacity, dtype=np.int64)
        self.width = np.empty(capacity, dtype=np.int64)
        #: attribute (interned codes) or attribute tuple (combined codes)
        #: -> int64 code column (lazily activated)
        self.codes: Dict[Key, IntArray] = {}
        #: probed column -> the codes it holds in this bucket.  Derived
        #: state: only ever membership-tested, rebuilt from the column
        #: whenever rows leave, never dumped.
        self.present: Dict[Key, Set[int]] = {}
        #: relation -> float64 event-timestamp column (NaN = not in lineage)
        self.rel_ts: Dict[str, FloatArray] = {}

    def _grow(self) -> None:
        new_capacity = max(self.capacity * 2, MIN_CAPACITY)
        for name in ("latest", "earliest", "seq", "width"):
            old = getattr(self, name)
            fresh = np.empty(new_capacity, dtype=old.dtype)
            fresh[: self.size] = old[: self.size]
            setattr(self, name, fresh)
        for table in (self.codes, self.rel_ts):
            for key, old in table.items():
                fresh = np.empty(new_capacity, dtype=old.dtype)
                fresh[: self.size] = old[: self.size]
                table[key] = fresh
        self.capacity = new_capacity

    def compress(self, keep: BoolArray) -> None:
        """Keep only the rows selected by the boolean mask ``keep``."""
        kept = int(np.count_nonzero(keep))
        for name in ("latest", "earliest", "seq", "width"):
            arr = getattr(self, name)
            arr[:kept] = arr[: self.size][keep]
        for table in (self.codes, self.rel_ts):
            for key, arr in table.items():
                arr[:kept] = arr[: self.size][keep]
        self.rows = [row for row, k in zip(self.rows, keep) if k]
        self.size = kept
        self.present = {key: self.codes_present(key) for key in self.present}

    def candidates(
        self,
        key: Key,
        code: int,
        stored_attrs: Tuple[str, ...],
        verify: Sequence[int],
    ) -> IntArray:
        """Ascending row indices equal to a probe on its whole key: one
        scan of column ``key`` for ``code``; survivors of a combined column
        are then held against the per-attribute ``verify`` codes (empty for
        a single attribute), which weeds out the rows of any other key that
        combines to the same code."""
        idx: IntArray = np.flatnonzero(self.codes[key][: self.size] == code)
        for attr, attr_code in zip(stored_attrs, verify):
            idx = idx[self.codes[attr][idx] == attr_code]
        return idx

    def codes_present(self, key: Key) -> Set[int]:
        """The presence set of column ``key``, derived from its codes."""
        return set(self.codes[key][: self.size].tolist())


class ColumnarContainer:
    """Numpy-backed tuple container (columnar :class:`StoreBackend`).

    Construction mirrors :class:`~repro.engine.stores.Container`:
    ``bucket_width`` is the coarse ``latest_ts`` slice (``None`` keeps one
    bucket, used for infinite retention).
    """

    __slots__ = (
        "_buckets",
        "_bucket_width",
        "_count",
        "_value_codes",
        "_active",
        "_probed",
        "_active_rels",
        "column_builds",
    )

    def __init__(self, bucket_width: Optional[float] = None) -> None:
        if bucket_width is not None and (bucket_width <= 0 or isinf(bucket_width)):
            bucket_width = None
        self._bucket_width = bucket_width
        self._buckets: Dict[int, ColumnBucket] = {}
        self._count = 0
        #: attribute -> {value -> code}; shared by every bucket so a code is
        #: stable for the container's lifetime (codes of evicted values
        #: linger — bounded by the distinct values ever seen per attribute)
        self._value_codes: Dict[str, Dict[object, int]] = {}
        #: active code columns in activation order: an attribute (interned
        #: codes) or an attribute tuple (combined codes, always after the
        #: attribute columns it combines)
        self._active: List[Key] = []
        #: the active columns some hop looks up, which carry presence sets;
        #: the rest only verify combined-column survivors
        self._probed: List[Key] = []
        self._active_rels: List[str] = []
        #: diagnostic: one-off full backfills of lazily activated columns
        #: (tests assert eviction never forces one, mirroring
        #: ``Container.index_rebuilds``)
        self.column_builds = 0

    def __len__(self) -> int:
        return self._count

    # ------------------------------------------------------------------
    # views
    # ------------------------------------------------------------------
    def iter_tuples(self) -> Iterator[StreamTuple]:
        """All stored tuples, bucket-ordered then arrival-ordered."""
        for bucket_id in sorted(self._buckets):
            yield from self._buckets[bucket_id].rows

    @property
    def tuples(self) -> List[StreamTuple]:
        return list(self.iter_tuples())

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------
    def _bucket_for(self, latest_ts: float) -> ColumnBucket:
        width = self._bucket_width
        bucket_id = 0 if width is None else int(latest_ts // width)
        bucket = self._buckets.get(bucket_id)
        if bucket is None:
            bucket = self._buckets[bucket_id] = ColumnBucket()
            # fresh buckets carry every already-active column from birth
            for key in self._active:
                bucket.codes[key] = np.empty(bucket.capacity, dtype=np.int64)
            for key in self._probed:
                bucket.present[key] = set()
            for rel in self._active_rels:
                bucket.rel_ts[rel] = np.full(
                    bucket.capacity, np.nan, dtype=np.float64
                )
        return bucket

    def _code_of(self, attr: str, value: object) -> int:
        if value != value:
            # NaN joins nothing, itself included: it gets no code (interning
            # would match it by identity), and -1 equals no probe's code
            return -1
        table = self._value_codes[attr]
        code = table.get(value)
        if code is None:
            code = table[value] = len(table)
        return code

    def insert(self, tup: StreamTuple) -> None:
        bucket = self._bucket_for(tup.latest_ts)
        if bucket.size >= bucket.capacity:
            bucket._grow()
        pos = bucket.size
        bucket.rows.append(tup)
        bucket.latest[pos] = tup.latest_ts
        bucket.earliest[pos] = tup.earliest_ts
        bucket.seq[pos] = tup.seq
        bucket.width[pos] = tup.width
        values = tup.values
        codes: Dict[Key, int] = {}
        for key in self._active:
            if isinstance(key, str):
                # None is a joinable value, exactly like the dict backend's
                # ``index[None]`` entry — it interns to an ordinary code
                code = self._code_of(key, values.get(key))
            else:
                code = _combine_codes([codes[attr] for attr in key])
            bucket.codes[key][pos] = codes[key] = code
        for key, present in bucket.present.items():
            present.add(codes[key])
        timestamps = tup.timestamps
        for rel in self._active_rels:
            ts = timestamps.get(rel)
            bucket.rel_ts[rel][pos] = np.nan if ts is None else ts
        new_rels = [rel for rel in timestamps if rel not in bucket.rel_ts]
        if new_rels:
            self._activate_relations(new_rels)
            for rel in new_rels:
                bucket.rel_ts[rel][pos] = timestamps[rel]
        bucket.size = pos + 1
        self._count += 1

    def _activate_relations(self, rels: List[str]) -> None:
        """First sighting of new lineage relations: add NaN-padded columns.

        Stores are lineage-homogeneous in practice, so this runs once per
        relation of the store's MIR (at the first insert) and never again.
        Rows inserted before a relation existed cannot carry it, so the NaN
        padding is exact, not an approximation.
        """
        for rel in rels:
            self._active_rels.append(rel)
            for bucket in self._buckets.values():
                bucket.rel_ts[rel] = np.full(
                    bucket.capacity, np.nan, dtype=np.float64
                )

    def ensure_column(self, key: Key) -> None:
        """Make ``key`` a probed column: activate (and backfill once) its
        code column and presence sets.

        ``key`` is a stored attribute, or the tuple of stored attributes of
        a hop with several equalities — then the per-attribute columns are
        activated too (they verify the combined column's survivors) and the
        combined column is computed from them.  The probe path calls this
        lazily, exactly like ``Container.index_on`` builds a hash index on
        first use; afterwards inserts maintain the columns incrementally
        and eviction only compresses them.
        """
        if key in self._probed:
            return
        key = _intern_key(key)
        if not isinstance(key, str):
            for attr in key:
                self._activate(attr)
        self._activate(key)
        self._probed.append(key)
        for bucket in self._buckets.values():
            bucket.present[key] = bucket.codes_present(key)

    def _activate(self, key: Key) -> None:
        """Add and backfill the code column ``key`` (no-op when active)."""
        if key in self._active:
            return
        self._active.append(key)
        if isinstance(key, str):
            self._value_codes.setdefault(key, {})
        for bucket in self._buckets.values():
            col = bucket.codes[key] = np.empty(bucket.capacity, dtype=np.int64)
            if isinstance(key, str):
                for pos, row in enumerate(bucket.rows):
                    col[pos] = self._code_of(key, row.values.get(key))
            elif bucket.size:
                col[: bucket.size] = _combine_columns(
                    [bucket.codes[attr][: bucket.size] for attr in key]
                )
        self.column_builds += 1

    def evict_older_than(self, horizon: float) -> int:
        """Drop rows whose latest component is older than ``horizon``.

        Whole expired buckets are dropped; the single boundary bucket is
        compressed in place.  Returns the summed width of evicted rows.
        """
        if not self._count:
            return 0
        freed = 0
        evicted = 0
        width = self._bucket_width
        if width is None:
            boundary = 0
        else:
            boundary = int(horizon // width)
            for bucket_id in [b for b in self._buckets if b < boundary]:
                bucket = self._buckets.pop(bucket_id)
                freed += int(np.sum(bucket.width[: bucket.size]))
                evicted += bucket.size
        bucket = self._buckets.get(boundary)
        if bucket is not None and bucket.size:
            keep = bucket.latest[: bucket.size] >= horizon
            kept = int(np.count_nonzero(keep))
            if kept != bucket.size:
                freed += int(np.sum(bucket.width[: bucket.size][~keep]))
                evicted += bucket.size - kept
                if kept:
                    bucket.compress(keep)
                else:
                    del self._buckets[boundary]
        self._count -= evicted
        return freed

    # ------------------------------------------------------------------
    # checkpoint/restore
    # ------------------------------------------------------------------
    def dump_state(self) -> Dict[str, Any]:
        """Structural snapshot of the container (checkpoint support).

        Column arrays are serialized as raw ``.npy`` buffers
        (:func:`numpy.save` with ``allow_pickle=False``), sliced to their
        live ``size`` — over-allocated capacity is not persisted.  The
        value-code interning tables, the active and probed column lists
        (attribute- and attribute-tuple-keyed alike), and ``column_builds``
        all survive, so a restored container probes with byte-identical
        code comparisons, ``checked`` counts, and result order.  Presence
        sets are not dumped: :meth:`load_state` derives them again.
        """
        buckets: Dict[int, Dict[str, Any]] = {}
        for bucket_id, bucket in self._buckets.items():
            size = bucket.size
            buckets[bucket_id] = {
                "rows": list(bucket.rows),
                "size": size,
                "latest": _array_bytes(bucket.latest[:size]),
                "earliest": _array_bytes(bucket.earliest[:size]),
                "seq": _array_bytes(bucket.seq[:size]),
                "width": _array_bytes(bucket.width[:size]),
                "codes": {
                    key: _array_bytes(col[:size])
                    for key, col in bucket.codes.items()
                },
                "rel_ts": {
                    rel: _array_bytes(col[:size])
                    for rel, col in bucket.rel_ts.items()
                },
            }
        return {
            "backend": "columnar",
            "bucket_width": self._bucket_width,
            "buckets": buckets,
            "value_codes": {
                attr: dict(table) for attr, table in self._value_codes.items()
            },
            "active": list(self._active),
            "probed": list(self._probed),
            "active_rels": list(self._active_rels),
            "count": self._count,
            "column_builds": self.column_builds,
        }

    @classmethod
    def load_state(cls, state: Mapping[str, Any]) -> "ColumnarContainer":
        """Rebuild a container from :meth:`dump_state` output."""
        cont = cls(bucket_width=state["bucket_width"])
        cont._value_codes = {
            intern_attr(attr): dict(table)
            for attr, table in state["value_codes"].items()
        }
        cont._active = [_intern_key(key) for key in state["active"]]
        cont._probed = [_intern_key(key) for key in state["probed"]]
        cont._active_rels = list(state["active_rels"])
        cont.column_builds = int(state["column_builds"])
        for bucket_id, bstate in state["buckets"].items():
            size = int(bstate["size"])
            bucket = ColumnBucket(capacity=max(MIN_CAPACITY, size))
            bucket.rows = list(bstate["rows"])
            bucket.size = size
            bucket.latest[:size] = _array_from(bstate["latest"])
            bucket.earliest[:size] = _array_from(bstate["earliest"])
            bucket.seq[:size] = _array_from(bstate["seq"])
            bucket.width[:size] = _array_from(bstate["width"])
            for key, data in bstate["codes"].items():
                col = np.empty(bucket.capacity, dtype=np.int64)
                col[:size] = _array_from(data)
                bucket.codes[_intern_key(key)] = col
            for key in cont._probed:
                bucket.present[key] = bucket.codes_present(key)
            for rel, data in bstate["rel_ts"].items():
                rcol = np.full(bucket.capacity, np.nan, dtype=np.float64)
                rcol[:size] = _array_from(data)
                bucket.rel_ts[rel] = rcol
            cont._buckets[int(bucket_id)] = bucket
        cont._count = int(state["count"])
        return cont

    # ------------------------------------------------------------------
    # vectorized probing
    # ------------------------------------------------------------------
    def _key_codes(
        self, oriented: HopKey, key_values: Sequence[Sequence[object]]
    ) -> Tuple[Sequence[Optional[int]], Sequence[Tuple[int, ...]]]:
        """Resolve a batch of probes against the hop's (lazily activated)
        probed column.  ``key_values`` holds one per-probe value list per
        probe-side attribute.  Per probe: the code to scan the column for —
        ``None`` when one of its values was never stored (NaN never is), so
        nothing can match — and, for a combined column, the per-attribute
        codes its survivors are verified against.
        """
        self.ensure_column(oriented.key)
        per_attr: List[List[Optional[int]]] = [
            list(map(self._value_codes[attr].get, values))
            for attr, values in zip(oriented.stored_attrs, key_values)
        ]
        if len(per_attr) == 1:
            # a single attribute's interned codes are exact: nothing to verify
            return per_attr[0], [()] * len(per_attr[0])
        # a row holding a None is never combined, scanned or verified
        verify = cast(List[Tuple[int, ...]], list(zip(*per_attr)))
        return (
            [None if None in codes else _combine_codes(codes) for codes in verify],
            verify,
        )

    def probe_batch(
        self,
        probes: Sequence[StreamTuple],
        oriented: HopKey,
        windows: Mapping[str, float],
        uniform_window: Optional[float] = None,
        seq_visibility: bool = False,
    ) -> Tuple[List[StreamTuple], int]:
        """Vectorized join-partner search (semantics of
        :func:`repro.engine.stores.probe_batch`).

        Per probe, every bucket whose presence set lacks the probe's key
        code is skipped outright; in the others the whole equality key is
        resolved as one ``np.flatnonzero`` over its code column
        (:meth:`ColumnBucket.candidates`).  Arrival visibility and the
        window check narrow the survivor index array with O(survivors)
        gathered comparisons.  ``checked`` counts the rows equal to the
        probe on the whole key (the python backend's index-bucket
        candidates), or full scans for predicate-free probes.
        """
        results: List[StreamTuple] = []
        checked = 0
        if not self._count or not probes:
            return results, checked
        probe_attrs, stored_attrs, key = oriented
        if key:
            codes, verify = self._key_codes(
                oriented,
                [[p.values.get(attr) for p in probes] for attr in probe_attrs],
            )
        buckets = [b for _, b in sorted(self._buckets.items()) if b.size]
        for j, probe in enumerate(probes):
            if key:
                code = codes[j]
                if code is None:
                    # value never stored: the python backend's index lookup
                    # comes back empty too (0 candidates checked)
                    continue
            trigger_ts = probe.trigger_ts
            probe_seq = probe.seq
            for bucket in buckets:
                if key:
                    if code not in bucket.present[key]:
                        continue
                    idx = bucket.candidates(key, code, stored_attrs, verify[j])
                else:
                    idx = np.arange(bucket.size)
                checked += len(idx)
                if not len(idx):
                    continue
                if seq_visibility:
                    idx = idx[bucket.seq[idx] < probe_seq]
                else:
                    idx = idx[bucket.latest[idx] < trigger_ts]
                if not len(idx):
                    continue
                if uniform_window is not None:
                    latest = bucket.latest[idx]
                    earliest = bucket.earliest[idx]
                    idx = idx[
                        (probe.latest_ts - earliest <= uniform_window)
                        & (latest - probe.earliest_ts <= uniform_window)
                    ]
                else:
                    idx = self._window_mask(probe, bucket, idx, windows)
                if len(idx):
                    merge = probe.merge
                    rows = bucket.rows
                    results.extend(merge(rows[i]) for i in idx)
        return results, checked

    def probe_batch_vector(
        self,
        batch: VectorBatch,
        oriented: HopKey,
        uniform_window: float,
        seq_visibility: bool = False,
    ) -> Tuple[Optional[VectorBatch], int]:
        """One vectorized cascade hop: probe with a :class:`VectorBatch`.

        Semantically identical to :meth:`probe_batch` over
        ``batch.materialize()`` — same ``checked`` count (rows equal on the
        whole key), same bucket skipping, same arrival-visibility and
        uniform-window narrowing, same probe-major / bucket-major /
        row-ascending result order — but survivors stay unmaterialized:
        each match extends its probe's component chain by the stored row
        and gathers the merged scalars (``max`` latest / ``min`` earliest /
        ``max`` seq, probe's trigger) straight from the bucket columns.

        Only the uniform-window regime is supported; the runtime falls back
        to the materializing path otherwise.  Returns ``(None, checked)``
        when no row survives, without activating any lazy column on an
        empty store.
        """
        checked = 0
        if not self._count or not len(batch):
            return None, checked
        probe_attrs, stored_attrs, key = oriented
        if key:
            codes, verify = self._key_codes(
                oriented, [batch.values_of(attr) for attr in probe_attrs]
            )
        buckets = [b for _, b in sorted(self._buckets.items()) if b.size]
        chains = batch.chains
        trig_col = batch.trigger
        lat_col = batch.latest
        ear_col = batch.earliest
        seq_col = batch.seq
        out_chains: List[Tuple[StreamTuple, ...]] = []
        # Per-segment raw slices plus the probe-side scalars; the merged
        # columns are computed once at batch assembly (np.repeat of the
        # scalars against the concatenated slices) rather than with four
        # numpy calls on each tiny segment.
        seg_latest: List[FloatArray] = []
        seg_earliest: List[FloatArray] = []
        seg_seq: List[IntArray] = []
        seg_counts: List[int] = []
        seg_trig_s: List[float] = []
        seg_lat_s: List[float] = []
        seg_ear_s: List[float] = []
        seg_seq_s: List[int] = []
        for j in range(len(chains)):
            if key:
                code = codes[j]
                if code is None:
                    # value never stored: empty index lookup, 0 checked
                    continue
            t_trig = trig_col[j]
            t_lat = lat_col[j]
            t_ear = ear_col[j]
            t_seq = seq_col[j]
            chain = chains[j]
            for bucket in buckets:
                if key:
                    if code not in bucket.present[key]:
                        continue
                    idx = bucket.candidates(key, code, stored_attrs, verify[j])
                else:
                    idx = np.arange(bucket.size)
                checked += len(idx)
                if not len(idx):
                    continue
                b_seq = bucket.seq
                if seq_visibility:
                    idx = idx[b_seq[idx] < t_seq]
                else:
                    idx = idx[bucket.latest[idx] < t_trig]
                if not len(idx):
                    continue
                s_lat = bucket.latest[idx]
                s_ear = bucket.earliest[idx]
                keep = (t_lat - s_ear <= uniform_window) & (
                    s_lat - t_ear <= uniform_window
                )
                idx = idx[keep]
                n = len(idx)
                if not n:
                    continue
                rows = bucket.rows
                out_chains.extend(chain + (rows[i],) for i in idx.tolist())
                seg_latest.append(s_lat[keep])
                seg_earliest.append(s_ear[keep])
                seg_seq.append(b_seq[idx])
                seg_counts.append(n)
                seg_trig_s.append(t_trig)
                seg_lat_s.append(t_lat)
                seg_ear_s.append(t_ear)
                seg_seq_s.append(t_seq)
        if not out_chains:
            return None, checked
        counts = np.asarray(seg_counts)
        out = VectorBatch(
            out_chains,
            np.repeat(np.asarray(seg_trig_s, dtype=np.float64), counts),
            np.maximum(
                np.concatenate(seg_latest),
                np.repeat(np.asarray(seg_lat_s, dtype=np.float64), counts),
            ),
            np.minimum(
                np.concatenate(seg_earliest),
                np.repeat(np.asarray(seg_ear_s, dtype=np.float64), counts),
            ),
            np.maximum(
                np.concatenate(seg_seq),
                np.repeat(np.asarray(seg_seq_s), counts),
            ),
            batch.lineage | out_chains[0][-1].lineage,
        )
        return out, checked

    def _window_mask(
        self,
        probe: StreamTuple,
        bucket: ColumnBucket,
        idx: IntArray,
        windows: Mapping[str, float],
    ) -> BoolArray:
        """Per-pair window check over the survivor rows (non-uniform case).

        For each (probe relation, stored relation) pair the bound is
        ``min(window_a, window_b)``; rows whose lineage lacks the stored
        relation carry NaN, and ``~(|Δ| > bound)`` passes NaN rows — the
        pair simply does not exist for them, matching
        :meth:`StreamTuple.within_windows`.
        """
        inf = float("inf")
        for rel_a, ts_a in probe.timestamps.items():
            w_a = windows.get(rel_a, inf)
            for rel_b, col in bucket.rel_ts.items():
                bound = min(w_a, windows.get(rel_b, inf))
                if isinf(bound):
                    continue
                idx = idx[~(np.abs(ts_a - col[idx]) > bound)]
                if not len(idx):
                    return idx
        return idx

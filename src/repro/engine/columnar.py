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
* **seq column** — the arrival sequence number a merged row carries
  (read only by the sharded driver's result merge).

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
    Union,
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

#: a vectorized probe narrows a group of probes sharing a key against its
#: candidates in blocks of about this many (probe, candidate) pairs
_MASK_PAIRS = 1 << 16

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


def _joined(parts: Sequence[npt.NDArray[Any]]) -> npt.NDArray[Any]:
    """``np.concatenate(parts)``, without a copy for a single part."""
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


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
    """A micro-batch travelling hop-to-hop on the vectorized probe path.

    A batch lifted from tuples (:meth:`from_tuples`) holds them as its
    rows.  A batch of probe survivors holds references instead: per
    element, the position of its probe in the batch that probed
    (``source``) and the position of its stored partner among the hop's
    candidate rows — the two parents a merge would link
    (:mod:`repro.engine.tuples`), one level up.  Beside them sit numpy
    columns for exactly the per-element scalars the next hop reads
    (``trigger_ts`` / ``latest_ts`` / ``earliest_ts`` / ``seq``), computed
    from the probe and bucket columns.

    :meth:`materialize` merges an element when it is read — emission, a
    store insert, routing, a python-backend probe — once, and only the
    source elements it needs, so a survivor that dies at a later vector
    hop is never merged: carrying it costs two list slots where a merge is
    a Python call.  The merged rows equal the tuple path's: the same
    left-to-right merges, so the same trigger, ``values`` union, timestamp
    extrema and max-``seq``.

    Every element of a batch has the same lineage (one ingest relation and
    one container per hop), which :meth:`values_of` relies on.
    """

    __slots__ = (
        "trigger",
        "latest",
        "earliest",
        "seq",
        "lineage",
        "_rows",
        "_source",
        "_probe_pos",
        "_partners",
        "_partner_pos",
        "_merged",
    )

    def __init__(
        self,
        trigger: FloatArray,
        latest: FloatArray,
        earliest: FloatArray,
        seq: IntArray,
        lineage: FrozenSet[str],
        rows: Optional[List[StreamTuple]] = None,
        source: Optional["VectorBatch"] = None,
        probe_pos: Sequence[int] = (),
        partners: Sequence[StreamTuple] = (),
        partner_pos: Sequence[int] = (),
    ) -> None:
        self.trigger = trigger
        self.latest = latest
        self.earliest = earliest
        self.seq = seq
        self.lineage = lineage
        self._rows = rows
        self._source = source
        self._probe_pos = probe_pos
        self._partners = partners
        self._partner_pos = partner_pos
        #: elements merged so far by a partial read, by position
        self._merged: Optional[Dict[int, StreamTuple]] = None

    @classmethod
    def from_tuples(cls, tups: Sequence[StreamTuple]) -> "VectorBatch":
        """Lift a homogeneous-lineage tuple batch into vector form."""
        n = len(tups)
        trigger = np.empty(n, dtype=np.float64)
        latest = np.empty(n, dtype=np.float64)
        earliest = np.empty(n, dtype=np.float64)
        seq = np.empty(n, dtype=np.int64)
        for pos, tup in enumerate(tups):
            trigger[pos] = tup.trigger_ts
            latest[pos] = tup.latest_ts
            earliest[pos] = tup.earliest_ts
            seq[pos] = tup.seq
        return cls(trigger, latest, earliest, seq, tups[0].lineage, list(tups))

    def __len__(self) -> int:
        return len(self.trigger)

    def materialize(self) -> List[StreamTuple]:
        """The elements as merged tuples (merged on first call, cached)."""
        rows = self._rows
        if rows is None:
            probes = cast(VectorBatch, self._source)._rows
            if probes is None or self._merged:
                rows = self._rows_at(range(len(self)))
            else:
                partners = self._partners
                rows = [
                    probes[pos].merge(partners[partner])
                    for pos, partner in zip(self._probe_pos, self._partner_pos)
                ]
            self._rows = rows
            self._merged = None
        return rows

    def _rows_at(self, positions: Sequence[int]) -> List[StreamTuple]:
        """The merged tuples at ``positions``, each element merged once —
        its probe taken from the source batch the same way — so a read
        merges no element it does not return."""
        rows = self._rows
        if rows is not None:
            return [rows[pos] for pos in positions]
        merged = self._merged
        if merged is None:
            merged = self._merged = {}
        missing = [pos for pos in dict.fromkeys(positions) if pos not in merged]
        if missing:
            probe_pos, partners, partner_pos = (
                self._probe_pos,
                self._partners,
                self._partner_pos,
            )
            probes = cast(VectorBatch, self._source)._rows_at(
                [probe_pos[pos] for pos in missing]
            )
            for pos, probe in zip(missing, probes):
                merged[pos] = probe.merge(partners[partner_pos[pos]])
        return [merged[pos] for pos in positions]

    def values_of(self, attr: str) -> List[object]:
        """Per-element value of a qualified attribute (``None`` if absent),
        read off the component holding the attribute's relation (the part
        of the name before the first ``.``) without merging anything."""
        rows = self._rows
        if rows is not None:
            # a built row answers from its dict, an unbuilt one walks
            return [
                row.get(attr) if (built := row._values) is None else built.get(attr)
                for row in rows
            ]
        source = cast(VectorBatch, self._source)
        relation = attr.split(".", 1)[0]
        if relation in source.lineage:
            values = source.values_of(attr)
            positions = self._probe_pos
        elif relation in self.lineage:
            values = [row.get(attr) for row in self._partners]
            positions = self._partner_pos
        else:
            # an attribute of no component relation: as the merged rows say
            return [row.get(attr) for row in self.materialize()]
        return [values[pos] for pos in positions]


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
    ) -> Tuple[List[StreamTuple], int]:
        """Vectorized join-partner search (semantics of
        :func:`repro.engine.stores.probe_batch`).

        Per probe, every bucket whose presence set lacks the probe's key
        code is skipped outright; in the others the whole equality key is
        resolved as one ``np.flatnonzero`` over its code column
        (:meth:`ColumnBucket.candidates`).  The window check narrows the
        survivor index array with O(survivors) gathered comparisons.
        ``checked`` counts the rows equal to the probe on the whole key
        (the python backend's index-bucket candidates), or full scans for
        predicate-free probes.
        """
        results: List[StreamTuple] = []
        checked = 0
        if not self._count or not probes:
            return results, checked
        probe_attrs, stored_attrs, key = oriented
        if key:
            codes, verify = self._key_codes(
                oriented,
                [[p.get(attr) for p in probes] for attr in probe_attrs],
            )
        buckets = [b for _, b in sorted(self._buckets.items()) if b.size]
        for j, probe in enumerate(probes):
            if key:
                code = codes[j]
                if code is None:
                    # value never stored: the python backend's index lookup
                    # comes back empty too (0 candidates checked)
                    continue
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
    ) -> Tuple[Optional[VectorBatch], int]:
        """One vectorized cascade hop: probe with a :class:`VectorBatch`.

        Semantically identical to :meth:`probe_batch` over
        ``batch.materialize()`` — same ``checked`` count (rows equal on the
        whole key), same uniform-window narrowing,
        same probe-major / bucket-major / row-ascending result order, equal
        merged tuples — but batch-at-a-time: the probes sharing a whole key share its
        candidate rows, gathered once from the buckets whose presence sets
        hold the key, and each such group is narrowed as one
        probes x candidates mask.  Survivors are not merged: the returned
        batch references its probes and partners (:class:`VectorBatch`),
        with the merged scalars (``max`` latest / ``min`` earliest /
        ``max`` seq, probe's trigger) computed from the columns.

        Only the uniform-window regime is supported; the runtime falls back
        to :meth:`probe_batch` otherwise.  Returns ``(None, checked)``
        when no row survives, without activating any lazy column on an
        empty store.
        """
        checked = 0
        if not self._count or not len(batch):
            return None, checked
        probe_attrs, stored_attrs, key = oriented
        # probe positions per whole key (code and verify codes), in batch
        # order: the probes of one group have the same candidates
        groups: Dict[Tuple[int, Tuple[int, ...]], List[int]] = {}
        if key:
            codes, verify = self._key_codes(
                oriented, [batch.values_of(attr) for attr in probe_attrs]
            )
            for pos, code in enumerate(codes):
                if code is None:
                    # value never stored: empty index lookup, 0 checked
                    continue
                group = (code, verify[pos])
                members = groups.get(group)
                if members is None:
                    groups[group] = [pos]
                else:
                    members.append(pos)
        else:
            groups[(-1, ())] = list(range(len(batch)))
        buckets = [b for _, b in sorted(self._buckets.items()) if b.size]
        partners: List[StreamTuple] = []
        cand_latest: List[FloatArray] = []
        cand_earliest: List[FloatArray] = []
        cand_seq: List[IntArray] = []
        out_probe: List[IntArray] = []
        out_partner: List[IntArray] = []
        probe_cols: Optional[Tuple[npt.NDArray[Any], ...]] = None
        for (code, verify_codes), members in groups.items():
            hits: List[Tuple[ColumnBucket, IntArray]] = []
            for bucket in buckets:
                if key:
                    if code not in bucket.present[key]:
                        continue
                    idx = bucket.candidates(key, code, stored_attrs, verify_codes)
                    if not len(idx):
                        continue
                else:
                    idx = np.arange(bucket.size)
                hits.append((bucket, idx))
            if not hits:
                continue
            if probe_cols is None:
                # the probe columns as (n, 1) views: a block of probes
                # gathers a column of them to hold against its candidates
                probe_cols = (batch.latest[:, None], batch.earliest[:, None])
            probe_lat, probe_ear = probe_cols
            c_lat = _joined([b.latest[idx] for b, idx in hits])
            c_ear = _joined([b.earliest[idx] for b, idx in hits])
            n_cand = len(c_lat)
            checked += n_cand * len(members)
            offset = len(partners)
            survived = False
            if len(members) == 1:
                # a lone probe: a basic slice keeps its columns views
                first = members[0]
                blocks: List[Union[slice, IntArray]] = [slice(first, first + 1)]
            else:
                # blocks of probes bound the mask at ~_MASK_PAIRS entries
                probe_pos = np.asarray(members, dtype=np.int64)
                step = max(1, _MASK_PAIRS // n_cand)
                blocks = [
                    probe_pos[start : start + step]
                    for start in range(0, len(members), step)
                ]
            for block in blocks:
                keep = probe_lat[block] - c_ear <= uniform_window
                keep &= c_lat - probe_ear[block] <= uniform_window
                rows_hit, cols_hit = np.nonzero(keep)
                if len(cols_hit):
                    survived = True
                    out_probe.append(
                        rows_hit + first
                        if isinstance(block, slice)
                        else block[rows_hit]
                    )
                    out_partner.append(cols_hit + offset)
            if survived:
                for bucket, idx in hits:
                    rows = bucket.rows
                    partners.extend([rows[i] for i in idx.tolist()])
                cand_latest.append(c_lat)
                cand_earliest.append(c_ear)
                cand_seq.append(_joined([b.seq[idx] for b, idx in hits]))
        if not out_probe:
            return None, checked
        probe_all = _joined(out_probe)
        partner_all = _joined(out_partner)
        if len(cand_latest) > 1:
            # groups interleave in batch order: probe-major, and within a
            # probe the candidates keep their bucket / row order
            order = np.argsort(probe_all, kind="stable")
            probe_all = probe_all[order]
            partner_all = partner_all[order]
        out = VectorBatch(
            batch.trigger[probe_all],
            np.maximum(batch.latest[probe_all], _joined(cand_latest)[partner_all]),
            np.minimum(
                batch.earliest[probe_all], _joined(cand_earliest)[partner_all]
            ),
            np.maximum(batch.seq[probe_all], _joined(cand_seq)[partner_all]),
            batch.lineage | partners[0].lineage,
            source=batch,
            probe_pos=probe_all.tolist(),
            partners=partners,
            partner_pos=partner_all.tolist(),
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

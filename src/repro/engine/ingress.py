"""The arrival contract: one owner for order, sequence and watermark.

Every input tuple enters the engine through an :class:`Ingress`, and this
module is the only code that compares an input's event time with what
arrived before it, assigns an arrival sequence number, advances a
per-stream high water, computes the watermark, or floors high waters at
an install.  A runtime owns exactly one instance (``runtime.ingress``):
:class:`~repro.engine.runtime.TopologyRuntime` and the sharded driver
admit through it in ``process``, shard workers re-admit the
driver-numbered tuples through their own, and
:class:`~repro.session.JoinSession` reads its runtime's instance (owning
a private one only while a warmup is still buffering).

Two modes, chosen by ``bound``:

* ordered (``bound is None``) — event timestamps must be non-decreasing;
* watermark (``bound = D``, or ``D + L`` when the session grants
  ``allowed_lateness``) — a tuple may lag its *own* stream's high-water
  event timestamp by at most ``bound``; a straggler beyond that would
  silently lose results, so it is rejected loudly instead.

Rejections raise :class:`LateArrivalError` before any state changes, so a
caller that drops or dead-letters the tuple leaves the engine exactly as
if it never arrived.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, Mapping, Optional

from .tuples import StreamTuple

__all__ = ["Ingress", "LateArrivalError"]

_NEG_INF = float("-inf")


class LateArrivalError(ValueError):
    """An input violated the arrival-order contract (:meth:`Ingress.check`).

    A distinct type so callers with a drop-straggler policy (the session's
    ``on_late="drop"``) can suppress exactly this rejection without
    swallowing unrelated ``ValueError``\\ s from the processing cascade.
    """


class Ingress:
    """Arrival-order state of one runtime.

    ``last_ts`` is the largest event time admitted (in both modes — the
    session's rewires use it as *now*), ``stream_high`` the per-stream
    high-water event time, ``seq`` the last arrival sequence number handed
    out.  All three survive rewires and are part of every engine snapshot
    (:meth:`dump` / :meth:`load`); ``bound`` comes from the configuration.

    ``sequence`` says whether :meth:`admit` numbers the tuples.  Only the
    sharded driver sets it, because its merge orders results by ``seq``;
    probes never read it (the cascade order is the arrival order), so
    nobody else should pay an int per live tuple.
    """

    __slots__ = ("bound", "sequence", "last_ts", "stream_high", "seq")

    def __init__(self, bound: Optional[float] = None) -> None:
        self.bound = bound
        self.sequence = False
        self.last_ts = _NEG_INF
        self.stream_high: Dict[str, float] = {}
        self.seq = 0

    def check(self, relation: str, ts: float) -> None:
        """Raise :class:`LateArrivalError` if a tuple of ``relation`` at
        event time ``ts`` may not arrive now; mutates nothing."""
        if self.bound is None:
            if ts < self.last_ts:
                raise LateArrivalError("inputs must be sorted by timestamp")
        else:
            high = self.stream_high.get(relation)
            if high is not None and ts < high - self.bound:
                raise LateArrivalError(
                    f"tuple of {relation!r} at τ={ts:g} arrived "
                    f"{high - ts:g} behind the stream high water "
                    f"{high:g}, exceeding disorder_bound={self.bound:g}"
                )

    def admit(self, tup: StreamTuple) -> None:
        """:meth:`check` ``tup``, then advance the frontier and (where
        ``sequence`` is set) number it with the next number: arrival order
        is the call order, whatever the tuple carried.
        """
        relation, ts = tup.trigger, tup.trigger_ts
        self.check(relation, ts)
        if ts > self.last_ts:
            self.last_ts = ts
        high = self.stream_high.get(relation)
        if high is None or ts > high:
            self.stream_high[relation] = ts
        if self.sequence:
            self.seq += 1
            tup.seq = self.seq

    def lag(self, relation: str, ts: float) -> float:
        """How far ``ts`` lies behind the stream's high water (≤ 0 for a
        tuple at or ahead of it, and for a stream not seen yet)."""
        high = self.stream_high.get(relation)
        return _NEG_INF if high is None else high - ts

    def watermark(self, ingest: Iterable[str]) -> float:
        """Low watermark over the ``ingest`` streams: no future event
        timestamp can be below it.

        Per stream, bounded disorder guarantees future arrivals at or
        above ``high water − bound``; the watermark is the minimum over
        every ingest stream.  A stream that has not produced a tuple yet
        pins it at ``-inf`` (nothing can be evicted safely).
        """
        mark = float("inf")
        for relation in ingest:
            seen = self.stream_high.get(relation)
            if seen is None:
                return _NEG_INF
            if seen < mark:
                mark = seen
        if mark == float("inf"):
            return _NEG_INF
        return mark - (self.bound or 0.0)

    def floor(self, old_ingest: Iterable[str], new_ingest: Iterable[str]) -> None:
        """Install-time floor (watermark mode): raise the high water of
        every ``new_ingest`` stream to the watermark over ``old_ingest``.

        A stream the old topology did not read — brand new, or released
        and now re-added — has no (or a stale) high water, which would pin
        the watermark at ``-inf`` (or at its pre-removal past), suspending
        eviction everywhere and accepting stragglers whose join partners
        are long evicted.  No stored state below the current watermark
        exists, so a first/returning push must carry an event timestamp
        at or above it anyway.  Streams the old watermark already covered
        satisfy ``high >= mark + bound``: a no-op for them.
        """
        if self.bound is None:
            return
        mark = self.watermark(old_ingest)
        if mark != _NEG_INF:
            self.absorb({relation: mark + self.bound for relation in new_ingest})

    def absorb(self, highs: Mapping[str, float]) -> None:
        """Max-merge another frontier's high waters (never lowers one).

        Shard workers apply the driver's snapshot this way *after* the
        batch it travelled with — an early merge could advance the
        eviction watermark past a tuple still in the batch.
        """
        stream_high = self.stream_high
        for relation, ts in highs.items():
            current = stream_high.get(relation)
            if current is None or ts > current:
                stream_high[relation] = ts

    def dump(self) -> Dict[str, Any]:
        """The ``"ingress"`` section of an engine snapshot."""
        return {
            "last_ts": self.last_ts,
            "stream_high": dict(self.stream_high),
            "seq": self.seq,
        }

    def load(self, state: Mapping[str, Any]) -> None:
        """Resume from a :meth:`dump` section."""
        self.last_ts = state["last_ts"]
        self.stream_high = dict(state["stream_high"])
        self.seq = int(state["seq"])

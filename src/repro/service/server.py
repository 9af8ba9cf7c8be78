"""Asyncio ingestion front: bounded-queue ingress with real backpressure.

:class:`JoinServer` turns a :class:`~repro.session.JoinSession` into a
long-running service.  Two ingestion paths feed one **bounded** ingress
queue (``queue_depth`` items):

* a newline-delimited JSON TCP protocol (one frame per line, see
  docs/service.md for the frame catalog), served by ``asyncio``;
* an in-process async API (:meth:`JoinServer.ingest` /
  :meth:`JoinServer.push_batch`) for embedding the service in another
  event loop without sockets.

Backpressure is *real*, not advisory: producers ``await`` the queue's
``put``, so a full queue blocks the TCP reader coroutine — the kernel
socket buffer then fills and TCP flow control throttles the remote end
regardless of client behaviour.  On top of that hard bound the server
emits explicit credit frames: ``{"kind": "pause"}`` when a producer is
about to block and ``{"kind": "resume"}`` once the drain brings the
depth back under half the configured bound.  Well-behaved clients
(:class:`ServiceClient`) gate their sends on these frames; the depth
high-water and every pause land in ``metrics.ingress_queue_high_water``
and ``metrics.backpressure_events``.

A single drain task pops queued items and feeds the session, so all
session access is serialized on the event loop — control operations
(``flush`` / ``results`` / ``stats`` / ``checkpoint`` / ``dead_letters``)
ride the same queue and therefore observe a consistent stream position.
"""

from __future__ import annotations

import asyncio
import json
from typing import Any, Dict, Iterable, List, Mapping, Optional, Set, Tuple, Union

from ..engine.tuples import StreamTuple
from ..session import JoinSession

__all__ = ["JoinServer", "ServiceClient"]

#: resume sends once the drain brings the queue depth back under
#: ``queue_depth // _RESUME_FRACTION`` (half the bound)
_RESUME_FRACTION = 2

#: per-line stream limit for NDJSON frames (a ``results`` reply carries
#: the full result list in one line; asyncio's 64 KiB default truncates)
_FRAME_LIMIT = 2**24

_PushItem = Tuple[Any, ...]


def _batch_entry(entry: Any) -> Tuple[str, Dict[str, Any], float]:
    """One ``batch`` item as ``(relation, values, ts)``; raises
    ``TypeError`` / ``ValueError`` unless it is a triple of a relation
    name, a mapping of values and a number."""
    if not isinstance(entry, (list, tuple)) or len(entry) != 3:
        raise ValueError(f"batch item {entry!r} is not a [relation, values, ts] triple")
    relation, values, ts = entry
    if not isinstance(relation, str):
        raise TypeError(f"batch item relation {relation!r} is not a string")
    if not isinstance(values, Mapping):
        raise TypeError(f"batch item values {values!r} are not a mapping")
    return relation, dict(values), float(ts)


class _Connection:
    """Per-client send side; reply frames are single complete lines."""

    def __init__(self, writer: asyncio.StreamWriter) -> None:
        self.writer = writer
        self.paused = False

    def send(self, frame: Mapping[str, Any]) -> None:
        self.writer.write(json.dumps(frame).encode("utf-8") + b"\n")


class JoinServer:
    """Serve a :class:`JoinSession` behind a bounded async ingress.

    Parameters
    ----------
    session:
        The session to serve; the server takes over ingestion but the
        session object stays fully usable for inspection (``results`` /
        ``verify`` / ``metrics``) from the drain side.
    host / port:
        TCP bind address; ``port=0`` (the default) picks a free port —
        read :attr:`address` after :meth:`start`.
    queue_depth:
        Hard bound on the ingress queue (items).  The observed depth
        never exceeds it; producers block (and are sent ``pause``)
        when it is reached.
    drain_batch:
        How many queued items the drain task processes per scheduling
        slice before yielding back to the event loop.
    """

    def __init__(
        self,
        session: JoinSession,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        queue_depth: int = 256,
        drain_batch: int = 64,
    ) -> None:
        if queue_depth < 1:
            raise ValueError("queue_depth must be at least 1")
        if drain_batch < 1:
            raise ValueError("drain_batch must be at least 1")
        self.session = session
        self.host = host
        self.port = port
        self.queue_depth = int(queue_depth)
        self.drain_batch = int(drain_batch)
        #: total items accepted into the ingress queue
        self.enqueued = 0
        #: total push items delivered to the session (zero loss: equals
        #: ``enqueued`` push items once the queue is drained)
        self.ingested = 0
        #: pause frames broadcast (mirrored into
        #: ``metrics.backpressure_events`` by the drain)
        self.pauses_sent = 0
        #: deepest observed queue depth (≤ ``queue_depth`` always)
        self.queue_high_water = 0
        #: stringified per-item errors with no connection to reply to
        #: (in-process ingestion under ``on_late="raise"``), newest last
        self.errors: List[str] = []
        self._queue: Optional[asyncio.Queue[_PushItem]] = None
        self._server: Optional[asyncio.AbstractServer] = None
        self._drain_task: Optional[asyncio.Task[None]] = None
        self._conns: Set[_Connection] = set()
        self._bp_folded = 0
        self._hw_folded = 0
        self._stopping = False

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> "JoinServer":
        """Bind the TCP listener and start the drain task."""
        if self._server is not None:
            raise RuntimeError("server already started")
        self._queue = asyncio.Queue(maxsize=self.queue_depth)
        self._drain_task = asyncio.create_task(self._drain_loop())
        self._drain_task.add_done_callback(self._on_drain_exit)
        self._server = await asyncio.start_server(
            self._handle_conn, self.host, self.port, limit=_FRAME_LIMIT
        )
        sock = self._server.sockets[0]
        self.host, self.port = sock.getsockname()[:2]
        return self

    @property
    def address(self) -> Tuple[str, int]:
        """The bound ``(host, port)`` (final port known after start)."""
        return (self.host, self.port)

    async def stop(self) -> None:
        """Stop accepting, drain every queued item, release the session."""
        self._stopping = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        if self._drain_task is not None:
            # a dead drain task never marks queued items done: joining the
            # queue would hang, and awaiting the task re-raises its error
            if self._queue is not None and not self._drain_task.done():
                await self._queue.join()
            self._drain_task.cancel()
            try:
                await self._drain_task
            except asyncio.CancelledError:
                pass
        for conn in list(self._conns):
            conn.writer.close()
        self._conns.clear()
        self._fold_metrics()
        self.session.close()

    async def __aenter__(self) -> "JoinServer":
        return await self.start()

    async def __aexit__(self, *exc_info: object) -> None:
        await self.stop()

    # ------------------------------------------------------------------
    # in-process ingestion
    # ------------------------------------------------------------------
    async def ingest(
        self,
        relation: str,
        values: Mapping[str, object],
        ts: float,
        on_late: Optional[str] = None,
    ) -> None:
        """Enqueue one tuple (no socket).  Blocks while the queue is at
        its bound — the in-process face of the same backpressure."""
        await self._enqueue(
            ("push", None, None, relation, dict(values), float(ts), on_late, False)
        )

    async def push_batch(
        self,
        items: Iterable[
            Union[StreamTuple, Tuple[str, Mapping[str, object], float]]
        ],
        on_late: Optional[str] = None,
    ) -> None:
        """Enqueue many tuples in arrival order (adapter-compatible: the
        async counterpart of :meth:`JoinSession.push_batch`)."""
        for item in items:
            if isinstance(item, StreamTuple):
                await self._enqueue(("tuple", None, None, item, on_late, False))
            else:
                relation, values, ts = item
                await self.ingest(relation, values, ts, on_late)

    async def drain(self) -> None:
        """Wait until every currently queued item has been processed."""
        if self._queue is not None:
            await self._queue.join()

    # ------------------------------------------------------------------
    # ingress queue + backpressure
    # ------------------------------------------------------------------
    async def _enqueue(self, item: _PushItem) -> None:
        queue = self._queue
        if queue is None:
            raise RuntimeError("server is not started")
        if queue.full():
            # the producer is about to block: hand out PAUSE credit frames
            # before parking, so well-behaved clients stop sending now
            self._broadcast_pause()
        await queue.put(item)
        self.enqueued += 1
        depth = queue.qsize()
        if depth > self.queue_high_water:
            self.queue_high_water = depth

    def _broadcast_pause(self) -> None:
        sent = False
        for conn in self._conns:
            if not conn.paused:
                conn.paused = True
                conn.send({"kind": "pause"})
                sent = True
        if sent or not self._conns:
            # count one backpressure event per saturation episode; a
            # producer-less saturation (pure in-process load) still counts
            self.pauses_sent += 1

    def _maybe_resume(self) -> None:
        queue = self._queue
        if queue is None or queue.qsize() > self.queue_depth // _RESUME_FRACTION:
            return
        for conn in self._conns:
            if conn.paused:
                conn.paused = False
                conn.send({"kind": "resume"})

    def _fold_metrics(self) -> None:
        """Mirror server-side counters into the engine metrics.

        The session has no metrics object until its first plan exists, so
        the server accumulates locally and folds the deltas through the
        MET001-clean ``on_*`` mutators whenever metrics are available.
        """
        metrics = self.session.metrics
        if metrics is None:
            return
        if self.queue_high_water > self._hw_folded:
            metrics.on_ingress_depth(self.queue_high_water)
            self._hw_folded = self.queue_high_water
        while self._bp_folded < self.pauses_sent:
            metrics.on_backpressure()
            self._bp_folded += 1

    # ------------------------------------------------------------------
    # drain task: the only session caller
    # ------------------------------------------------------------------
    async def _drain_loop(self) -> None:
        queue = self._queue
        assert queue is not None
        while True:
            items = [await queue.get()]
            while len(items) < self.drain_batch:
                try:
                    items.append(queue.get_nowait())
                except asyncio.QueueEmpty:
                    break
            for item in items:
                try:
                    self._process_item(item)
                finally:
                    queue.task_done()
            self._fold_metrics()
            self._maybe_resume()
            # yield so readers/writers run between slices even under a
            # saturated queue
            await asyncio.sleep(0)

    def _on_drain_exit(self, task: "asyncio.Task[None]") -> None:
        """The drain task is the only session caller: if it ever exits
        other than by cancellation, nothing would answer again and every
        client would wait forever — tell them and hang up instead."""
        if task.cancelled():
            return
        reason = f"ingress drain task exited: {task.exception()!r}"
        self.errors.append(reason)
        for conn in list(self._conns):
            conn.send({"kind": "error", "error": reason})
            conn.writer.close()

    def _process_item(self, item: _PushItem) -> None:
        kind = item[0]
        if kind in ("push", "tuple"):
            try:
                if kind == "push":
                    _, conn, fid, relation, values, ts, on_late, ack = item
                    self.session.push(relation, values, ts, on_late)
                else:
                    _, conn, fid, tup, on_late, ack = item
                    self.session.push_batch((tup,), on_late)
            except Exception as exc:  # noqa: BLE001 - surfaced to the client
                # not only SessionError: a value the engine cannot hash or
                # compare surfaces from the cascade as TypeError, and must
                # cost its sender an error frame, not everyone the service
                self._report_error(conn, fid, exc)
            else:
                self.ingested += 1
                if ack and conn is not None and fid is not None:
                    conn.send({"kind": "ok", "id": fid, "pushed": self.session.pushed})
        elif kind == "ack":
            _, conn, fid = item
            conn.send({"kind": "ok", "id": fid, "pushed": self.session.pushed})
        elif kind == "control":
            _, conn, fid, op, args = item
            try:
                reply = self._run_control(op, args)
            except Exception as exc:  # noqa: BLE001 - surfaced to the client
                self._report_error(conn, fid, exc)
            else:
                if conn is not None and fid is not None:
                    reply["kind"] = "ok"
                    reply["id"] = fid
                    conn.send(reply)

    def _report_error(
        self, conn: Optional[_Connection], fid: Optional[int], exc: Exception
    ) -> None:
        if conn is not None:
            frame: Dict[str, Any] = {"kind": "error", "error": str(exc)}
            if fid is not None:
                frame["id"] = fid
            conn.send(frame)
        else:
            self.errors.append(str(exc))

    def _run_control(self, op: str, args: Mapping[str, Any]) -> Dict[str, Any]:
        session = self.session
        if op == "flush":
            session.flush()
            return {"pushed": session.pushed}
        if op == "results":
            results = session.results(str(args["query"]))
            return {
                "query": args["query"],
                "count": len(results),
                "results": [
                    {"timestamps": dict(r.timestamps), "values": dict(r.values)}
                    for r in results
                ],
            }
        if op == "stats":
            metrics = session.metrics
            summary = metrics.summary() if metrics is not None else {}
            return {
                "pushed": session.pushed,
                "enqueued": self.enqueued,
                "ingested": self.ingested,
                "queue_high_water": self.queue_high_water,
                "pauses_sent": self.pauses_sent,
                "summary": summary,
            }
        if op == "checkpoint":
            session.checkpoint(str(args["path"]))
            return {"path": args["path"], "pushed": session.pushed}
        if op == "dead_letters":
            letters = session.dead_letters()
            return {
                "count": len(letters),
                "dead_letters": [
                    {
                        "relation": t.trigger,
                        "ts": t.trigger_ts,
                        "values": dict(t.values),
                    }
                    for t in letters
                ],
            }
        raise ValueError(f"unknown op {op!r}")

    # ------------------------------------------------------------------
    # TCP protocol
    # ------------------------------------------------------------------
    async def _handle_conn(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        conn = _Connection(writer)
        self._conns.add(conn)
        try:
            while not self._stopping:
                line = await reader.readline()
                if not line:
                    break
                if not line.strip():
                    continue
                try:
                    frame = json.loads(line)
                except ValueError as exc:
                    conn.send({"kind": "error", "error": f"bad frame: {exc}"})
                    continue
                try:
                    await self._dispatch(conn, frame)
                except (KeyError, TypeError, ValueError) as exc:
                    frame_id = frame.get("id") if isinstance(frame, dict) else None
                    error: Dict[str, Any] = {
                        "kind": "error",
                        "error": f"malformed {frame!r}: {exc}",
                    }
                    if frame_id is not None:
                        error["id"] = frame_id
                    conn.send(error)
        except (ConnectionResetError, asyncio.IncompleteReadError):
            pass
        finally:
            self._conns.discard(conn)
            try:
                await writer.drain()
            except (ConnectionResetError, RuntimeError):
                pass
            writer.close()

    async def _dispatch(self, conn: _Connection, frame: Mapping[str, Any]) -> None:
        op = frame["op"]
        fid = frame.get("id")
        if op == "push":
            await self._enqueue(
                (
                    "push",
                    conn,
                    fid,
                    str(frame["relation"]),
                    dict(frame["values"]),
                    float(frame["ts"]),
                    frame.get("on_late"),
                    fid is not None,
                )
            )
        elif op == "batch":
            # check every entry before enqueueing any: a malformed frame
            # is refused whole, never half-applied
            entries = [_batch_entry(entry) for entry in frame["items"]]
            on_late = frame.get("on_late")
            for relation, values, ts in entries:
                await self._enqueue(
                    ("push", conn, fid, relation, values, ts, on_late, False)
                )
            if fid is not None:
                # the frame's ok reply rides the queue: the drain sends it
                # once every item queued before it is in the session, also
                # when the frame is empty
                await self._enqueue(("ack", conn, fid))
        elif op in ("flush", "results", "stats", "checkpoint", "dead_letters"):
            await self._enqueue(("control", conn, fid, op, dict(frame)))
        else:
            raise ValueError(f"unknown op {op!r}")


class ServiceClient:
    """Async NDJSON client for :class:`JoinServer` with credit gating.

    Sends are gated on the server's ``pause`` / ``resume`` credit frames
    (an :class:`asyncio.Event`); :attr:`pauses_seen` counts how often the
    server paused this client.  Request/reply operations correlate on the
    ``id`` field.
    """

    def __init__(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._reader = reader
        self._writer = writer
        self._resume = asyncio.Event()
        self._resume.set()
        self._next_id = 0
        self._waiting: Dict[int, asyncio.Future[Dict[str, Any]]] = {}
        #: pause frames received from the server so far
        self.pauses_seen = 0
        self._recv_task = asyncio.create_task(self._recv_loop())

    @classmethod
    async def connect(cls, host: str, port: int) -> "ServiceClient":
        reader, writer = await asyncio.open_connection(
            host, port, limit=_FRAME_LIMIT
        )
        return cls(reader, writer)

    async def close(self) -> None:
        self._recv_task.cancel()
        try:
            await self._recv_task
        except asyncio.CancelledError:
            pass
        self._writer.close()
        try:
            await self._writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError):
            pass

    async def __aenter__(self) -> "ServiceClient":
        return self

    async def __aexit__(self, *exc_info: object) -> None:
        await self.close()

    # ------------------------------------------------------------------
    async def _recv_loop(self) -> None:
        try:
            while True:
                line = await self._reader.readline()
                if not line:
                    break
                frame = json.loads(line)
                kind = frame.get("kind")
                if kind == "pause":
                    self.pauses_seen += 1
                    self._resume.clear()
                elif kind == "resume":
                    self._resume.set()
                else:
                    future = self._waiting.pop(frame.get("id"), None)
                    if future is not None and not future.done():
                        future.set_result(frame)
        except (ConnectionResetError, asyncio.IncompleteReadError):
            pass
        except ValueError:
            # a reply line exceeded _FRAME_LIMIT: the stream is no longer
            # frame-aligned, so the connection is unusable — fail waiters
            pass
        finally:
            # unblock anyone waiting on a reply from a dead connection
            self._resume.set()
            for future in self._waiting.values():
                if not future.done():
                    future.set_exception(ConnectionError("server closed"))
            self._waiting.clear()

    async def _send(self, frame: Dict[str, Any]) -> None:
        await self._resume.wait()
        self._writer.write(json.dumps(frame).encode("utf-8") + b"\n")
        await self._writer.drain()

    async def _request(self, frame: Dict[str, Any]) -> Dict[str, Any]:
        self._next_id += 1
        fid = self._next_id
        frame["id"] = fid
        loop = asyncio.get_running_loop()
        future: asyncio.Future[Dict[str, Any]] = loop.create_future()
        self._waiting[fid] = future
        await self._send(frame)
        reply = await future
        if reply.get("kind") == "error":
            raise RuntimeError(f"server error: {reply.get('error')}")
        return reply

    # ------------------------------------------------------------------
    async def push(
        self,
        relation: str,
        values: Mapping[str, object],
        ts: float,
        on_late: Optional[str] = None,
    ) -> None:
        """Fire-and-forget push (flow-controlled by credit frames)."""
        frame: Dict[str, Any] = {
            "op": "push",
            "relation": relation,
            "values": dict(values),
            "ts": float(ts),
        }
        if on_late is not None:
            frame["on_late"] = on_late
        await self._send(frame)

    async def push_batch(
        self,
        items: Iterable[
            Union[StreamTuple, Tuple[str, Mapping[str, object], float]]
        ],
        on_late: Optional[str] = None,
    ) -> Dict[str, Any]:
        """Push many tuples in one frame; resolves when every item, and
        every push queued before them, has been drained into the session
        (an end-to-end ack, also for an empty batch)."""
        triples: List[Tuple[str, Dict[str, Any], float]] = []
        for item in items:
            if isinstance(item, StreamTuple):
                # a tuple carries qualified names ("R.a"); the wire carries
                # the unqualified ones the server qualifies again
                prefix = item.trigger + "."
                values = {
                    name.removeprefix(prefix): value
                    for name, value in item.values.items()
                }
                triples.append((item.trigger, values, float(item.trigger_ts)))
            else:
                relation, values, ts = item
                triples.append((str(relation), dict(values), float(ts)))
        frame: Dict[str, Any] = {"op": "batch", "items": triples}
        if on_late is not None:
            frame["on_late"] = on_late
        return await self._request(frame)

    async def flush(self) -> Dict[str, Any]:
        return await self._request({"op": "flush"})

    async def stats(self) -> Dict[str, Any]:
        return await self._request({"op": "stats"})

    async def results(self, query: str) -> Dict[str, Any]:
        return await self._request({"op": "results", "query": query})

    async def checkpoint(self, path: str) -> Dict[str, Any]:
        return await self._request({"op": "checkpoint", "path": path})

    async def dead_letters(self) -> Dict[str, Any]:
        return await self._request({"op": "dead_letters"})

"""Service-front tests: bounded ingress, credit backpressure, protocol.

The backpressure criterion is *real, not advisory*: the ingress queue
is bounded at the configured depth (the observed high water never
exceeds it), PAUSE frames are emitted when producers are about to block,
and no tuple is lost under pressure.  Runs on plain ``asyncio.run`` —
no pytest-asyncio dependency.
"""

import asyncio
import json

import pytest

from repro import JoinServer, JoinSession, ServiceClient
from repro.streams.adapters import replay_async


def tiny_session(**kwargs):
    kwargs.setdefault("window", 5.0)
    return JoinSession(**kwargs).add_query("q1", "R.a=S.a")


def feed_items(n):
    items = []
    for i in range(n):
        items.append(("R", {"a": i % 3}, i * 0.1))
        items.append(("S", {"a": i % 3}, i * 0.1 + 0.01))
    return items


class TestBackpressure:
    def test_queue_bounded_pauses_emitted_zero_loss(self):
        async def scenario():
            session = tiny_session()
            server = JoinServer(session, queue_depth=4, drain_batch=2)
            async with server:
                client = await ServiceClient.connect(*server.address)
                async with client:
                    for relation, values, ts in feed_items(150):
                        await client.push(relation, values, ts)
                    reply = await client.flush()
                    stats = await client.stats()
                return session, server, client, stats, reply

            # unreachable; context managers close everything above

        session, server, client, stats, reply = asyncio.run(scenario())
        # the queue is *bounded*: observed depth never exceeded the bound
        assert 0 < server.queue_high_water <= 4
        assert stats["queue_high_water"] <= 4
        # PAUSE credit frames actually reached the client
        assert server.pauses_sent > 0
        assert client.pauses_seen > 0
        # zero tuple loss under pressure
        assert stats["pushed"] == 300
        assert server.ingested == 300
        # and the counters surfaced through the engine metrics
        assert session.metrics.backpressure_events == server.pauses_sent
        assert 0 < session.metrics.ingress_queue_high_water <= 4
        assert session.verify().ok

    def test_in_process_ingest_also_bounded(self):
        async def scenario():
            session = tiny_session()
            server = JoinServer(session, queue_depth=8, drain_batch=4)
            async with server:
                count = await replay_async(
                    server,
                    (item for item in feed_items(100)),
                    chunk=16,
                )
                await server.drain()
            return session, server, count

        session, server, count = asyncio.run(scenario())
        assert count == 200
        assert server.ingested == 200
        assert 0 < server.queue_high_water <= 8
        assert session.verify().ok


class TestProtocol:
    def test_push_batch_flush_results_stats_roundtrip(self):
        async def scenario():
            session = tiny_session()
            async with JoinServer(session) as server:
                async with await ServiceClient.connect(*server.address) as client:
                    ack = await client.push_batch(feed_items(20))
                    assert ack["pushed"] == 40
                    res = await client.results("q1")
                    stats = await client.stats()
            return session, res, stats

        session, res, stats = asyncio.run(scenario())
        assert res["count"] == len(session.results("q1")) > 0
        assert stats["summary"]["inputs"] == 40.0
        assert session.verify().ok

    def test_integer_second_pairs_join_over_the_wire(self):
        """Wire clients stamp whole seconds, so partners tie: an R and an S
        pushed at the same second join, as the oracle says they do."""
        items = []
        for second in range(6):
            items.append(("R", {"a": second % 3}, float(second)))
            items.append(("S", {"a": second % 3}, float(second)))

        async def scenario():
            session = tiny_session()
            async with JoinServer(session) as server:
                async with await ServiceClient.connect(*server.address) as client:
                    for relation, values, ts in items:
                        await client.push(relation, values, ts)
                    await client.flush()
                    res = await client.results("q1")
            return session, res

        session, res = asyncio.run(scenario())
        check = session.verify().checks["q1"]
        # one key every 3 s in a 5 s window: 6 ties, plus R/S and S/R for
        # the 3 pairs of seconds 3 s apart
        assert check.ok and check.expected == 12
        assert res["count"] == check.produced == 12

    def test_stats_summary_reports_no_latency(self):
        """A session result completes at its trigger instant, so the
        ``mean_latency`` the summary carried could only ever read 0.0."""
        async def scenario():
            session = tiny_session()
            async with JoinServer(session) as server:
                async with await ServiceClient.connect(*server.address) as client:
                    await client.push_batch(feed_items(20))
                    await client.flush()
                    return await client.stats()

        stats = asyncio.run(scenario())
        assert stats["summary"]["results"] > 0
        assert "mean_latency" not in stats["summary"]

    def test_error_frames_for_bad_input(self):
        async def scenario():
            session = tiny_session()
            async with JoinServer(session) as server:
                async with await ServiceClient.connect(*server.address) as client:
                    with pytest.raises(RuntimeError, match="not read by any"):
                        await client.push_batch([("NOPE", {"x": 1}, 0.0)])
                    with pytest.raises(RuntimeError, match="never installed"):
                        await client.results("ghost")
            return session

        asyncio.run(scenario())

    def test_malformed_frames_answered_not_fatal(self):
        async def scenario():
            session = tiny_session()
            async with JoinServer(session) as server:
                host, port = server.address
                reader, writer = await asyncio.open_connection(host, port)
                writer.write(b"this is not json\n")
                await writer.drain()
                reply = json.loads(await reader.readline())
                assert reply["kind"] == "error" and "bad frame" in reply["error"]
                writer.write(json.dumps({"op": "teleport", "id": 1}).encode() + b"\n")
                await writer.drain()
                reply = json.loads(await reader.readline())
                assert reply["kind"] == "error" and "unknown op" in reply["error"]
                # the connection survived both errors
                writer.write(
                    json.dumps({"op": "stats", "id": 2}).encode() + b"\n"
                )
                await writer.drain()
                reply = json.loads(await reader.readline())
                assert reply["kind"] == "ok" and reply["id"] == 2
                writer.close()

        asyncio.run(scenario())

    def test_dead_letters_over_the_wire(self):
        async def scenario():
            session = tiny_session(
                disorder_bound=0.5, allowed_lateness=0.5, on_late="dead_letter"
            )
            async with JoinServer(session) as server:
                async with await ServiceClient.connect(*server.address) as client:
                    await client.push_batch(
                        [
                            ("R", {"a": 1}, 5.0),
                            ("S", {"a": 1}, 5.0),
                            ("R", {"a": 1}, 1.0),  # lag 4.0 > D+L
                        ]
                    )
                    return await client.dead_letters()

        reply = asyncio.run(scenario())
        assert reply["count"] == 1
        assert reply["dead_letters"] == [
            {"relation": "R", "ts": 1.0, "values": {"R.a": 1}}
        ]


class TestBatchFrame:
    """A ``batch`` frame is one unit: its ``ok`` reply rides the ingress
    queue behind every item queued before it, and a malformed frame is
    refused before any of its items is queued."""

    def test_empty_batch_acks_after_the_pushes_before_it(self):
        async def scenario():
            session = tiny_session()
            async with JoinServer(session) as server:
                async with await ServiceClient.connect(*server.address) as client:
                    for relation, values, ts in feed_items(250):
                        await client.push(relation, values, ts)
                    return await client.push_batch([])

        reply = asyncio.run(scenario())
        assert reply["kind"] == "ok"
        assert reply["pushed"] == 500

    @pytest.mark.parametrize(
        "bad",
        [
            ["bad"],
            "R",
            ["R", {"a": 1}],
            [7, {"a": 1}, 30.0],
            ["R", [["a", 1]], 30.0],
            ["R", {"a": 1}, None],
            ["R", {"a": 1}, "soon"],
        ],
        ids=["one-field", "string", "pair", "int-relation", "list-values",
             "null-ts", "text-ts"],
    )
    def test_malformed_batch_is_refused_whole(self, bad):
        valid = [["R", {"a": 1}, 30.0], ["S", {"a": 1}, 30.1]]

        async def scenario():
            session = tiny_session()
            async with JoinServer(session) as server:
                async with await ServiceClient.connect(*server.address) as client:
                    await client.push_batch(feed_items(250))
                    reader, writer = await asyncio.open_connection(*server.address)
                    frame = {"op": "batch", "id": 1, "items": valid + [bad]}
                    writer.write(json.dumps(frame).encode() + b"\n")
                    await writer.drain()
                    reply = json.loads(await asyncio.wait_for(reader.readline(), 10.0))
                    writer.close()
                    return reply, await client.stats()

        reply, stats = asyncio.run(scenario())
        assert reply["kind"] == "error" and reply["id"] == 1
        assert "malformed" in reply["error"]
        assert stats["pushed"] == 500

    def test_an_item_the_session_refuses_costs_only_that_item(self):
        """Session errors stay per item: the refused item answers an error
        frame, the others are ingested, and the ``ok`` follows them."""

        async def scenario():
            session = tiny_session()
            async with JoinServer(session) as server:
                reader, writer = await asyncio.open_connection(*server.address)
                items = [["R", {"a": 1}, 1.0], ["S", {"a": [1]}, 1.1], ["S", {"a": 1}, 1.2]]
                writer.write(
                    json.dumps({"op": "batch", "id": 1, "items": items}).encode() + b"\n"
                )
                await writer.drain()
                replies = [
                    json.loads(await asyncio.wait_for(reader.readline(), 10.0))
                    for _ in range(2)
                ]
                writer.close()
                return replies

        error, ok = asyncio.run(scenario())
        assert error["kind"] == "error" and error["id"] == 1
        assert "unhashable" in error["error"]
        assert ok == {"kind": "ok", "id": 1, "pushed": 2}


class TestDrainSurvives:
    """One bad item must cost its sender an error frame, never the drain
    task — the only thing that answers anybody."""

    @staticmethod
    async def _exchange(reader, writer, frame):
        writer.write(json.dumps(frame).encode() + b"\n")
        await writer.drain()
        return json.loads(await asyncio.wait_for(reader.readline(), 10.0))

    def test_unhashable_join_value_gets_error_and_service_goes_on(self):
        async def scenario():
            session = tiny_session()
            async with JoinServer(session) as server:
                reader, writer = await asyncio.open_connection(*server.address)
                push = {"op": "push", "relation": "R", "values": {"a": [1, 2]}, "ts": 1.0}
                bad = [
                    await self._exchange(reader, writer, dict(push, id=1)),
                    await self._exchange(
                        reader, writer, dict(push, relation="S", ts=1.1, id=2)
                    ),
                ]
                good = [
                    await self._exchange(
                        reader, writer, dict(push, values={"a": 7}, ts=1.2, id=3)
                    ),
                    await self._exchange(
                        reader,
                        writer,
                        dict(push, relation="S", values={"a": 7}, ts=1.3, id=4),
                    ),
                    await self._exchange(reader, writer, {"op": "flush", "id": 5}),
                ]
                results = await self._exchange(
                    reader, writer, {"op": "results", "query": "q1", "id": 6}
                )
                writer.close()
                return server, bad, good, results

        server, bad, good, results = asyncio.run(scenario())
        for index, frame in enumerate(bad, start=1):
            assert frame["kind"] == "error" and frame["id"] == index
            assert "unhashable" in frame["error"]
        assert [(f["kind"], f["id"]) for f in good] == [("ok", 3), ("ok", 4), ("ok", 5)]
        assert results["count"] == 1
        # the failed items do not count as ingested
        assert server.ingested == 2

    def test_unhashable_value_on_a_live_plan_loses_no_acknowledged_push(self):
        """With a plan live the bad tuple used to be queued in the pending
        micro-batch before its sender got the error; the next relation
        change then failed another sender's push and dropped the batch."""

        async def scenario():
            session = tiny_session()
            async with JoinServer(session) as server:
                reader, writer = await asyncio.open_connection(*server.address)
                frames = [
                    ("R", {"a": 1}, 1.0),
                    ("S", {"a": 1}, 1.1),
                    ("S", {"a": [1]}, 1.2),  # refused
                    ("S", {"a": 2}, 1.3),  # same micro-batch as the bad one
                    ("R", {"a": 2}, 1.4),
                ]
                replies = [
                    await self._exchange(
                        reader,
                        writer,
                        {"op": "push", "id": i, "relation": rel, "values": v, "ts": ts},
                    )
                    for i, (rel, v, ts) in enumerate(frames)
                ]
                results = await self._exchange(
                    reader, writer, {"op": "results", "query": "q1", "id": 9}
                )
                writer.close()
                return session, replies, results

        session, replies, results = asyncio.run(scenario())
        assert [(f["kind"], f["id"]) for f in replies] == [
            ("ok", 0), ("ok", 1), ("error", 2), ("ok", 3), ("ok", 4)
        ]
        assert "unhashable" in replies[2]["error"]
        assert results["count"] == 2
        assert session.verify().ok

    def test_non_finite_timestamp_refused_and_service_goes_on(self):
        """``ts=Infinity`` used to be answered ``ok`` and pin the stream's
        high water at +inf: every later push from every client was late
        forever.  It now costs its sender an error frame and nothing else."""

        async def scenario():
            session = tiny_session(on_late="drop")
            async with JoinServer(session) as server:
                reader, writer = await asyncio.open_connection(*server.address)
                # json.dumps spells float("inf") as the bare token Infinity
                bad = await self._exchange(
                    reader,
                    writer,
                    {"op": "push", "id": 1, "relation": "R", "values": {"a": 1},
                     "ts": float("inf")},
                )
                good = [
                    await self._exchange(
                        reader,
                        writer,
                        {"op": "push", "id": 2, "relation": "R", "values": {"a": 1},
                         "ts": 1.0},
                    ),
                    await self._exchange(
                        reader,
                        writer,
                        {"op": "push", "id": 3, "relation": "S", "values": {"a": 1},
                         "ts": 1.5},
                    ),
                ]
                results = await self._exchange(
                    reader, writer, {"op": "results", "query": "q1", "id": 4}
                )
                writer.close()
                return session, server, bad, good, results

        session, server, bad, good, results = asyncio.run(scenario())
        assert bad["kind"] == "error" and bad["id"] == 1
        assert "finite" in bad["error"]
        assert [(f["kind"], f["id"]) for f in good] == [("ok", 2), ("ok", 3)]
        assert results["count"] == 1
        assert server.ingested == 2
        assert session.metrics.late_dropped == 0

    def test_nan_join_key_over_the_wire_joins_nothing(self):
        """Every ``NaN`` literal ``json.loads`` decodes is one and the same
        object, and hash lookups match by identity before equality: two
        ordinary frames used to join on it, where the oracle (``NaN !=
        NaN``) never does."""

        async def scenario():
            session = tiny_session()
            async with JoinServer(session) as server:
                reader, writer = await asyncio.open_connection(*server.address)
                # json.dumps spells float("nan") as the bare token NaN
                push = {"op": "push", "relation": "R", "values": {"a": float("nan")}}
                replies = [
                    await self._exchange(reader, writer, dict(push, ts=1.0, id=1)),
                    await self._exchange(
                        reader, writer, dict(push, relation="S", ts=1.1, id=2)
                    ),
                    await self._exchange(reader, writer, {"op": "flush", "id": 3}),
                ]
                nothing = await self._exchange(
                    reader, writer, {"op": "results", "query": "q1", "id": 4}
                )
                replies += [
                    await self._exchange(
                        reader, writer, dict(push, values={"a": 7}, ts=1.2, id=5)
                    ),
                    await self._exchange(
                        reader,
                        writer,
                        dict(push, relation="S", values={"a": 7}, ts=1.3, id=6),
                    ),
                    await self._exchange(reader, writer, {"op": "flush", "id": 7}),
                ]
                results = await self._exchange(
                    reader, writer, {"op": "results", "query": "q1", "id": 8}
                )
                writer.close()
                return session, server, replies, nothing, results

        session, server, replies, nothing, results = asyncio.run(scenario())
        assert [f["kind"] for f in replies] == ["ok"] * 6
        assert nothing["count"] == 0
        assert results["count"] == 1
        assert server.ingested == 4
        assert session.verify().ok

    def test_in_process_bad_item_lands_in_server_errors(self):
        async def scenario():
            session = tiny_session()
            async with JoinServer(session) as server:
                await server.ingest("R", {"a": [1, 2]}, 1.0)
                await server.ingest("R", {"a": 1}, 1.1)
                await server.ingest("S", {"a": 1}, 1.2)
                await asyncio.wait_for(server.drain(), 10.0)
                return server

        server = asyncio.run(scenario())
        assert server.ingested == 2
        assert len(server.errors) == 1 and "unhashable" in server.errors[0]

    def test_dead_drain_task_fails_loudly(self, monkeypatch):
        """Should the drain task ever exit other than by cancellation,
        every connection is told and closed instead of left waiting."""

        async def scenario():
            session = tiny_session()
            server = JoinServer(session)
            await server.start()
            reader, writer = await asyncio.open_connection(*server.address)

            def broken():
                raise RuntimeError("drain bookkeeping broke")

            monkeypatch.setattr(server, "_fold_metrics", broken)
            frame = await self._exchange(reader, writer, {"op": "flush", "id": 1})
            assert frame == {"kind": "ok", "id": 1, "pushed": 0}
            frame = json.loads(await asyncio.wait_for(reader.readline(), 10.0))
            eof = await asyncio.wait_for(reader.readline(), 10.0)
            writer.close()
            with pytest.raises(RuntimeError, match="bookkeeping broke"):
                await asyncio.wait_for(server.stop(), 10.0)
            return server, frame, eof

        server, frame, eof = asyncio.run(scenario())
        assert frame["kind"] == "error" and "drain task exited" in frame["error"]
        assert eof == b""
        assert "bookkeeping broke" in server.errors[-1]


class TestClientBatchForms:
    def test_stream_tuples_and_triples_give_identical_results(self):
        """`ServiceClient.push_batch` used to send a StreamTuple's
        *qualified* names, which the server qualified again (``R.R.a``):
        the predicate then read ``None`` on both sides and joined
        ``R.a=1`` with ``S.a=2``."""
        triples = [
            ("R", {"a": 1}, 1.0),
            ("S", {"a": 2}, 1.1),  # must not join R.a=1
            ("S", {"a": 1}, 1.2),  # must
        ]

        async def run(items):
            session = tiny_session()
            async with JoinServer(session) as server:
                async with await ServiceClient.connect(*server.address) as client:
                    await client.push_batch(items)
                    return (await client.results("q1"))["results"]

        from repro.engine import input_tuple

        as_tuples = [input_tuple(rel, ts, values) for rel, values, ts in triples]
        from_triples = asyncio.run(run(triples))
        from_tuples = asyncio.run(run(as_tuples))
        assert from_tuples == from_triples
        assert from_triples == [
            {"timestamps": {"S": 1.2, "R": 1.0}, "values": {"S.a": 1, "R.a": 1}}
        ]


class TestCheckpointOverTheWire:
    def test_checkpoint_restore_parity(self, tmp_path):
        path = tmp_path / "wire.snap"

        async def interrupted():
            session = tiny_session()
            async with JoinServer(session) as server:
                async with await ServiceClient.connect(*server.address) as client:
                    await client.push_batch(feed_items(30))
                    reply = await client.checkpoint(str(path))
                    assert reply["pushed"] == 60

        asyncio.run(interrupted())

        baseline = tiny_session()
        for relation, values, ts in feed_items(60):
            baseline.push(relation, values, ts)
        restored = JoinSession.restore(path)
        for relation, values, ts in feed_items(60)[60:]:
            restored.push(relation, values, ts)
        assert [r.key() for r in restored.results("q1")] == [
            r.key() for r in baseline.results("q1")
        ]
        assert restored.metrics.summary() == baseline.metrics.summary()
        assert restored.verify().ok

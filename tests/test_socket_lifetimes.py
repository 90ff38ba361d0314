"""Nothing a finished query touched outlives it on the socket path.

One :class:`~repro.core.aio_engine.AsyncioWebDisEngine` on EXP-E1's
``wire_tenants`` web runs sequential queries, then overlapping ones.  After
every quiet point no ``WebQuery`` of a query its origin's watermark has
passed is alive anywhere in the process — not the user-site's copy, not a
server's decoded copy, not the last message an idle keep-alive connection
carried — and the codec's decoded-query table, the transport's links and
tasks, the port map and the process's open fds are back at their size after
the warm-up.

The read path is tested on its own: every connection of a transport reads
through one shared buffer, so frames split at every byte boundary, and
interleaved across two connections, must come out of each connection's
stream exactly as they went in.
"""

from __future__ import annotations

import asyncio
import gc
import os

import pytest

from repro import EngineConfig, build_engine, wire
from repro.baselines.docservice import FetchRequest
from repro.core.client import QueryStatus
from repro.core.webquery import WebQuery
from repro.net import FIRST_RESULT_PORT, QUERY_PORT, SendOutcome
from repro.net.aio import AsyncioTransport, StaticPortMap, _BufferedStreamProtocol
from repro.urlutils import parse_url
from repro.wire import (
    ACK_RECORD,
    FrameDecoder,
    decode_envelope,
    encode_envelope,
    encode_frame,
    encode_sequenced,
    split_sequenced,
)

from .test_wire_interning import _clear_tables, _e1_workloads

_FDS = "/proc/self/fd"


def _sizes(engine) -> dict[str, int]:
    transport = engine.network
    sizes = {
        "decoded_queries": len(wire._DECODED_QUERIES),
        "indexed_queries": sum(map(len, wire._QUERY_ORIGINS.values())),
        "links": len(transport._links),
        "tasks": len(transport._tasks),
        "port_map": len(transport.port_map._map),
    }
    if os.path.isdir(_FDS):
        sizes["fds"] = len(os.listdir(_FDS))
    return sizes


#: The user every query of the engine under test is submitted as, so that
#: queries other tests keep alive are not counted.
_USER = "lifetimes"


def _live_query_numbers() -> list[int]:
    """The query number of every ``WebQuery`` of ``_USER`` alive in the process."""
    gc.collect()
    return [
        live.qid.number for live in gc.get_objects()
        if type(live) is WebQuery and live.qid.user == _USER
    ]


async def _quiet(engine, expected: "dict[str, int] | None" = None) -> dict[str, int]:
    """Wait (briefly) for the servers' last sends to the closed result ports
    to settle: until the sizes are ``expected``, or without one until they
    hold still for 50 ms.  Returns the sizes then."""
    sizes, still = _sizes(engine), 0
    for __ in range(200):
        await asyncio.sleep(0.01)
        previous, sizes = sizes, _sizes(engine)
        still = still + 1 if sizes == previous else 0
        if sizes == expected or (expected is None and still == 5):
            break
    return sizes


class TestNothingOutlivesAFinishedQuery:
    def test_sequential_then_overlapping_queries(self):
        workload = _e1_workloads()["wire_tenants"]
        plan = workload.plan(1)

        async def main() -> None:
            engine = build_engine(
                workload.build_web(1),
                config=EngineConfig(transport="asyncio", **workload.config),
                user=_USER,
            )
            _clear_tables()  # what earlier tests decoded is not this engine's
            try:
                await asyncio.sleep(0)
                for text in plan.warmup:
                    handle = engine.submit_disql(text)
                    await engine.run([handle])
                    assert handle.status is QueryStatus.COMPLETE
                del handle
                baseline = await _quiet(engine)
                # Sequential: the servers hold the decoded copy of the last
                # query only (its origin's mark has not passed it yet).
                for text in plan.pool * 2:
                    handle = engine.submit_disql(text)
                    await engine.run([handle])
                    assert handle.status is QueryStatus.COMPLETE
                last = handle.qid.number
                del handle
                assert await _quiet(engine, baseline) == baseline
                assert _live_query_numbers() == [last]
                # Overlapping: a batch shares its oldest member's mark, so its
                # decoded copies stay until the next query's mark passes them.
                for start in range(0, len(plan.pool), 4):
                    batch = [engine.submit_disql(text) for text in plan.pool[start:start + 4]]
                    await engine.run(batch)
                    assert all(h.status is QueryStatus.COMPLETE for h in batch)
                    numbers = [h.qid.number for h in batch]
                    del batch
                    await _quiet(engine)
                    assert len(wire._DECODED_QUERIES) <= len(numbers)
                    assert set(_live_query_numbers()) <= set(numbers)
                    handle = engine.submit_disql(plan.pool[start])
                    await engine.run([handle])
                    last = handle.qid.number
                    del handle
                    assert await _quiet(engine, baseline) == baseline
                    assert _live_query_numbers() == [last]
            finally:
                await engine.aclose()

        asyncio.run(main())


def _payload(request_id: int) -> FetchRequest:
    return FetchRequest(
        parse_url("http://b.example/doc"), "user.example", FIRST_RESULT_PORT, request_id
    )


class TestPortMapForgetsClosedResultPorts:
    """Closing a logical port touches neither the port map nor a connection:
    the site keeps its one real port, and the live connection refuses the
    closed port's frames."""

    def test_a_closed_result_port_is_forgotten_and_still_refused(self):
        async def main() -> None:
            transport = AsyncioTransport()
            for site in ("a.example", "b.example"):
                transport.register_site(site)
            try:
                transport.listen("b.example", QUERY_PORT, lambda src, message: None)
                transport.listen("b.example", FIRST_RESULT_PORT, lambda src, message: None)
                ports = transport.port_map
                real = ports.lookup("b.example")
                transport.close("b.example", FIRST_RESULT_PORT)
                transport.close("b.example", QUERY_PORT)
                assert ports._map == {"b.example": real}
                loop = asyncio.get_running_loop()
                for port, expected in (
                    (FIRST_RESULT_PORT, SendOutcome.REFUSED),
                    (QUERY_PORT, SendOutcome.HOST_DOWN),
                ):
                    settled = loop.create_future()
                    transport.send("a.example", "b.example", port, _payload(port),
                                   on_outcome=settled.set_result)
                    assert await asyncio.wait_for(settled, 10.0) is expected
                assert (transport.stats.refused_sends, transport.stats.down_sends) == (1, 1)
                # Both answered as records on one connection, which is still up.
                assert transport.connections_opened == 1
                assert transport._links[("a.example", "b.example")].writer is not None
            finally:
                await transport.aclose()

        asyncio.run(main())

    def test_the_static_map_still_answers_by_arithmetic(self):
        ports = StaticPortMap(["b.example", "a.example"], first_base=21000)
        assert (ports.lookup("a.example"), ports.lookup("b.example")) == (21000, 21001)
        assert ports._map == {"a.example": 21000, "b.example": 21001}

    def test_daemon_entries_survive(self):
        """A crashed site keeps its entry, so a connect meets the closed real
        port (ECONNREFUSED); its restart binds a fresh one."""

        async def main() -> None:
            transport = AsyncioTransport()
            transport.register_site("a.example")
            try:
                transport.listen("a.example", QUERY_PORT, lambda src, message: None)
                real = transport.port_map.lookup("a.example")
                transport.crash_site("a.example")
                assert transport.port_map._map == {"a.example": real}
                transport.listen("a.example", QUERY_PORT, lambda src, message: None)
                assert len(transport.port_map._map) == 1
                assert transport.port_map.lookup("a.example") is not None
            finally:
                await transport.aclose()

        asyncio.run(main())


class TestABoundSocketIsAlwaysClosed:
    """``listen`` binds a site's real socket at once and a task attaches the
    accept loop to it a step later; whatever closes the site in between
    closes the socket."""

    @staticmethod
    def _recording(transport: AsyncioTransport) -> list:
        bound: list = []
        bind = transport.port_map.bind

        def recording_bind(site: str):
            bound.append(bind(site))
            return bound[-1]

        transport.port_map.bind = recording_bind
        return bound

    def test_aclose_before_the_accept_loop_attaches(self):
        async def main() -> None:
            transport = AsyncioTransport()
            transport.register_site("a.example")
            bound = self._recording(transport)
            transport.listen("a.example", QUERY_PORT, lambda src, message: None)
            await transport.aclose()  # cancels the accept-loop task before its first step
            assert [sock.fileno() for sock in bound] == [-1]

        asyncio.run(main())

    def test_a_crash_and_restart_before_it_attaches(self):
        async def main() -> None:
            transport = AsyncioTransport()
            transport.register_site("a.example")
            bound = self._recording(transport)
            try:
                transport.listen("a.example", QUERY_PORT, lambda src, message: None)
                transport.crash_site("a.example")
                transport.listen("a.example", QUERY_PORT, lambda src, message: None)
                for __ in range(3):
                    await asyncio.sleep(0)
                first, second = bound
                assert first.fileno() == -1
                assert transport._servers["a.example"].sockets[0].fileno() == second.fileno()
            finally:
                await transport.aclose()
            assert [sock.fileno() for sock in bound] == [-1, -1]

        asyncio.run(main())


# --- the read path ------------------------------------------------------------


def _stream(sequences: range, src: str = "a.example") -> bytes:
    return b"".join(
        encode_frame(encode_sequenced(encode_envelope(src, _payload(n)), QUERY_PORT, n))
        for n in sequences
    )


def _received(data: bytes) -> list[tuple[str, object, bytes]]:
    decoded = []
    for body in FrameDecoder().feed(data):
        envelope, port, sequence = split_sequenced(body)
        decoded.append((*decode_envelope(envelope), port, sequence))
    return decoded


def _deliver(protocol: _BufferedStreamProtocol, data: bytes) -> None:
    """What the selector loop does on a readable socket holding ``data``:
    ``recv_into`` the protocol's buffer, then ``buffer_updated``, until the
    socket is drained."""
    while data:
        buffer = protocol.get_buffer(-1)
        size = min(len(buffer), len(data))
        buffer[:size] = data[:size]
        protocol.buffer_updated(size)
        data = data[size:]


class TestSharedReadBuffer:
    def test_frames_split_at_every_byte_and_interleaved_decode_the_same(self):
        async def main() -> None:
            shared = memoryview(bytearray(64))  # smaller than one frame: reads wrap
            one, two = _stream(range(2)), _stream(range(10, 13), "c.example")
            expected_one, expected_two = _received(one), _received(two)
            for split in range(1, max(len(one), len(two))):
                readers = [asyncio.StreamReader(), asyncio.StreamReader()]
                protocols = [_BufferedStreamProtocol(reader, shared) for reader in readers]
                for data, protocol in ((one, protocols[0]), (two, protocols[1])):
                    _deliver(protocol, data[:split])
                for data, protocol in ((two, protocols[1]), (one, protocols[0])):
                    _deliver(protocol, data[split:])
                for reader in readers:
                    reader.feed_eof()
                assert _received(await readers[0].read()) == expected_one
                assert _received(await readers[1].read()) == expected_two

        asyncio.run(main())

    def test_two_real_connections_through_one_transport(self):
        """Byte by byte, alternating between two connections to one listener:
        every frame reaches the listener once, in order per connection."""

        async def main() -> None:
            transport = AsyncioTransport()
            transport.register_site("b.example")
            received: list[int] = []
            transport.listen("b.example", QUERY_PORT,
                             lambda src, message: received.append(message.request_id))
            try:
                await asyncio.sleep(0)
                real = transport.port_map.lookup("b.example")
                sequences = [range(3), range(10, 13)]
                streams = [_stream(sequences[0]), _stream(sequences[1], "c.example")]
                connections = [
                    await transport.open_connection(transport.port_map.host, real)
                    for __ in streams
                ]
                for position in range(max(map(len, streams))):
                    for data, (__, writer) in zip(streams, connections):
                        if position < len(data):
                            writer.write(data[position:position + 1])
                            await writer.drain()
                    await asyncio.sleep(0)
                for (reader, __), expected in zip(connections, sequences):
                    acks = await asyncio.wait_for(reader.readexactly(3 * ACK_RECORD.size), 10.0)
                    assert [n for __, n in ACK_RECORD.iter_unpack(acks)] == list(expected)
                assert sorted(received) == [0, 1, 2, 10, 11, 12]
                assert [r for r in received if r < 10] == [0, 1, 2]
                assert [r for r in received if r >= 10] == [10, 11, 12]
                for __, writer in connections:
                    writer.close()
            finally:
                await transport.aclose()

        asyncio.run(main())

"""The link driver against a scripted in-memory peer: no kernel socket, no sleeping.

``AsyncioTransport.open_connection`` is the one seam: here it hands the
driver an ``asyncio.StreamReader`` the test feeds and a writer that records
what the transport wrote.  Everything else — ``_send_task``, the link's
FIFO, ``_drive``, the ack parser, the watchdog, the connect deadline — is
the code real sockets run.  Time moves only when a test moves it (a patched
``loop.time``), so the watchdog cases take microseconds.

The cases are instances of one invariant, which the Hypothesis test at the
bottom checks over seeded scripts: **every send settles exactly once;
DELIVERED ⇔ the peer acked that sequence; no frame is written more than
twice; frames are first written in queue order.**
"""

from __future__ import annotations

import asyncio
from collections import Counter, deque

from hypothesis import given, settings, strategies as st

from repro.baselines.docservice import FetchRequest
from repro.net import FIRST_RESULT_PORT, QUERY_PORT, NetworkConfig, SendOutcome
from repro.net.aio import AsyncioTransport, PortMap
from repro.urlutils import parse_url
from repro.wire import (
    ACK_BYTE,
    ACK_RECORD,
    NAK_BYTE,
    REFUSE_BYTE,
    FrameDecoder,
    decode_envelope,
    split_sequenced,
)

READ_TIMEOUT = 2.0
CONNECT_TIMEOUT = 1.0


class ScriptedPeer:
    """One in-memory connection: the writer the driver gets, plus its reader.

    Records every frame the transport writes as ``(sequence, request id)``;
    answers nothing by itself — the test calls :meth:`ack` / :meth:`reset`.
    """

    def __init__(self) -> None:
        self.reader = asyncio.StreamReader()
        self.frames: list[tuple[int, int]] = []
        #: The logical port each of ``frames`` named.
        self.ports: list[int] = []
        #: How many of ``frames`` a script has already answered.
        self.answered = 0
        self.writes = 0
        #: What ``get_write_buffer_size`` reports (backpressure on demand).
        self.buffered = 0
        self.aborted = False
        self._decoder = FrameDecoder()

    # -- the writer surface the transport uses ------------------------------

    @property
    def transport(self) -> "ScriptedPeer":
        return self

    def write(self, data: bytes) -> None:
        self.writes += 1
        for body in self._decoder.feed(data):
            envelope, port, sequence = split_sequenced(body)
            __, message = decode_envelope(envelope)
            self.frames.append((int.from_bytes(sequence, "big"), message.request_id))
            self.ports.append(port)

    def get_write_buffer_size(self) -> int:
        return self.buffered

    def get_write_buffer_limits(self) -> tuple[int, int]:
        return (16384, 65536)

    def abort(self) -> None:
        self.aborted = True
        self.reader.feed_eof()  # what connection_lost does to a stream

    # -- the script ---------------------------------------------------------

    def ack(self, *sequences: int, kind: bytes = ACK_BYTE) -> None:
        self.reader.feed_data(b"".join(ACK_RECORD.pack(kind, s) for s in sequences))

    def reset(self) -> None:
        self.reader.set_exception(ConnectionResetError("scripted reset"))


class _AnyPort(PortMap):
    """Every destination resolves; the scripted connect decides what happens."""

    def lookup(self, site: str) -> int:
        return 1


class Harness:
    """A transport whose connects follow a script, on a clock the test moves."""

    def __init__(self, *connections: object) -> None:
        self.loop = asyncio.get_running_loop()
        real_time = self.loop.time
        self._skew = 0.0
        self.loop.time = lambda: real_time() + self._skew  # type: ignore[method-assign]
        self.transport = AsyncioTransport(
            config=NetworkConfig(read_timeout=READ_TIMEOUT, connect_timeout=CONNECT_TIMEOUT),
            port_map=_AnyPort(),
        )
        for site in ("a.example", "b.example"):
            self.transport.register_site(site)
        self._script = deque(connections)
        self.connects = 0
        self.transport.open_connection = self._open
        self.outcomes: dict[int, list[SendOutcome]] = {}

    async def _open(self, host: str, port: int):
        self.connects += 1
        assert self._script, "the transport connected more often than scripted"
        step = self._script.popleft()
        if isinstance(step, tuple):  # (gate, step): the connect takes until the gate opens
            gate, step = step
            await gate
        if isinstance(step, BaseException):
            raise step
        return step.reader, step

    def send(self, request_id: int, port: int = QUERY_PORT, src: str = "a.example") -> None:
        payload = FetchRequest(
            parse_url("http://b.example/doc"), "user.example", FIRST_RESULT_PORT, request_id
        )
        settled = self.outcomes.setdefault(request_id, [])
        first = self.transport.send(src, "b.example", port, payload, on_outcome=settled.append)
        assert first is SendOutcome.IN_FLIGHT

    async def turn(self, rounds: int = 12) -> None:
        """Let every ready callback run (nothing here waits on wall time)."""
        for __ in range(rounds):
            await asyncio.sleep(0)

    async def advance(self, seconds: float) -> None:
        """Move the loop's clock; timers that became due fire."""
        self._skew += seconds
        await self.turn()

    def link(self):
        return self.transport._links.get(("a.example", "b.example"))

    def settled(self) -> dict[int, SendOutcome]:
        assert all(len(seen) <= 1 for seen in self.outcomes.values())
        return {rid: seen[0] for rid, seen in self.outcomes.items() if seen}


def scripted(test):
    """Run ``async def test(...)`` on its own loop and close the transport after."""

    def run(*args, **kwargs):
        async def main():
            harnesses: list[Harness] = []

            def make(*connections: object) -> Harness:
                harnesses.append(Harness(*connections))
                return harnesses[-1]

            try:
                await test(make, *args, **kwargs)
            finally:
                for harness in harnesses:
                    await harness.transport.aclose()

        asyncio.run(main())

    run.__name__ = test.__name__
    run.__doc__ = test.__doc__
    return run


D, O, F = SendOutcome.DELIVERED, SendOutcome.OVERLOADED, SendOutcome.FAULT


# --- the ack stream -----------------------------------------------------------


@scripted
async def test_frames_queued_behind_a_connect_leave_in_one_write(make):
    peer = ScriptedPeer()
    h = make(peer)
    for rid in range(5):
        h.send(rid)
    await h.turn()
    assert peer.writes == 1
    assert peer.frames == [(rid, rid) for rid in range(5)]
    assert h.settled() == {}  # written is not delivered
    peer.ack(0, 1, 2, 3, 4)
    await h.turn()
    assert h.settled() == dict.fromkeys(range(5), D)
    assert h.transport.stats.messages_sent == 5


@scripted
async def test_acks_one_byte_at_a_time(make):
    peer = ScriptedPeer()
    h = make(peer)
    for rid in range(3):
        h.send(rid)
    await h.turn()
    stream = b"".join(ACK_RECORD.pack(ACK_BYTE, s) for s in range(3))
    for index, byte in enumerate(stream):
        peer.reader.feed_data(bytes([byte]))
        await h.turn(3)
        # A frame settles on the last byte of its own record, not before.
        assert len(h.settled()) == (index + 1) // ACK_RECORD.size
    assert h.settled() == dict.fromkeys(range(3), D)
    assert not peer.aborted


@scripted
async def test_acks_ten_per_chunk(make):
    peer = ScriptedPeer()
    h = make(peer)
    for rid in range(30):
        h.send(rid)
    await h.turn()
    for start in (0, 10, 20):
        peer.ack(*range(start, start + 10))
        await h.turn(3)
        assert len(h.settled()) == start + 10
    assert set(h.settled().values()) == {D}


@scripted
async def test_nak_names_exactly_one_frame_and_keeps_the_connection(make):
    peer = ScriptedPeer()
    h = make(peer)
    for rid in range(5):
        h.send(rid)
    await h.turn()
    peer.ack(0)
    peer.ack(1, kind=NAK_BYTE)
    peer.ack(2, 3, 4)
    await h.turn()
    assert h.settled() == {0: D, 1: O, 2: D, 3: D, 4: D}
    assert h.transport.stats.overloaded_sends == 1
    assert h.transport.stats.messages_sent == 4  # DELIVERED-only accounting
    assert not peer.aborted and h.connects == 1
    h.send(5)  # the same connection carries the next frame
    await h.turn()
    assert peer.frames[-1] == (5, 5)


@scripted
async def test_acks_may_skip_a_frame_but_never_credit_it(make):
    """The proxy swallowed frame 1: its neighbours' acks must not settle it."""
    peer = ScriptedPeer()
    h = make(peer)
    for rid in range(3):
        h.send(rid)
    await h.turn()
    peer.ack(0, 2)
    await h.turn()
    assert h.settled() == {0: D, 2: D}
    assert h.link().watchdog is not None  # still armed: frame 1 is out there
    await h.advance(READ_TIMEOUT + 0.1)
    # Written before any ack came back, so the connection was not a reused
    # one: exactly one FAULT, no rewrite.
    assert h.settled() == {0: D, 1: F, 2: D}
    assert h.transport.stats.failed_sends == 1
    assert peer.aborted and h.connects == 1
    assert h.link() is None  # nothing left to deliver: the driver went away


@scripted
async def test_watchdog_is_armed_only_while_something_is_unacknowledged(make):
    peer = ScriptedPeer()
    h = make(peer)
    h.send(0)
    await h.turn()
    assert h.link().watchdog is not None
    peer.ack(0)
    await h.turn()
    assert h.link().watchdog is None
    await h.advance(10 * READ_TIMEOUT)  # an idle link is not timed out
    assert not peer.aborted and h.link() is not None


@scripted
async def test_watchdog_follows_the_oldest_unacknowledged_frame(make):
    peer = ScriptedPeer()
    h = make(peer)
    h.send(0)
    await h.turn()
    await h.advance(READ_TIMEOUT * 0.75)
    h.send(1)
    await h.turn()
    peer.ack(0)
    await h.turn()
    # Frame 0's deadline passes; frame 1 has waited only half a timeout.
    await h.advance(READ_TIMEOUT * 0.5)
    assert not peer.aborted and h.settled() == {0: D}
    await h.advance(READ_TIMEOUT * 0.6)
    assert peer.aborted


# --- lost connections ---------------------------------------------------------


@scripted
async def test_reset_on_a_fresh_connection_faults_every_unacked_frame(make):
    peer = ScriptedPeer()
    h = make(peer)
    for rid in range(3):
        h.send(rid)
    await h.turn()
    peer.reset()
    await h.turn()
    assert h.settled() == {0: F, 1: F, 2: F}
    assert h.transport.stats.failed_sends == 3
    assert h.connects == 1 and h.link() is None


@scripted
async def test_reset_on_a_reused_connection_rewrites_each_frame_once_in_order(make):
    stale, fresh = ScriptedPeer(), ScriptedPeer()
    h = make(stale, fresh)
    h.send(0)
    await h.turn()
    stale.ack(0)  # the connection has now carried an ack: a keep-alive
    await h.turn()
    for rid in (1, 2, 3):
        h.send(rid)
    await h.turn()
    stale.reset()
    await h.turn()
    assert h.settled() == {0: D}  # nothing reported yet: one internal retry
    assert fresh.frames == [(1, 1), (2, 2), (3, 3)] and fresh.writes == 1
    fresh.ack(1, 2, 3)
    await h.turn()
    assert h.settled() == dict.fromkeys(range(4), D)
    assert h.transport.stats.failed_sends == 0


@scripted
async def test_a_frame_is_never_written_a_third_time(make):
    first, second = ScriptedPeer(), ScriptedPeer()
    h = make(first, second)
    h.send(0)
    await h.turn()
    first.ack(0)
    await h.turn()
    h.send(1)
    await h.turn()
    first.reset()
    await h.turn()
    assert second.frames == [(1, 1)]
    second.reset()
    await h.turn()
    assert h.settled() == {0: D, 1: F}
    assert h.connects == 2


@scripted
async def test_idle_link_notices_the_peers_eof_itself(make):
    stale, fresh = ScriptedPeer(), ScriptedPeer()
    h = make(stale, fresh)
    h.send(0)
    await h.turn()
    stale.ack(0)
    await h.turn()
    stale.reader.feed_eof()  # the peer closed its keep-alive
    await h.turn()
    assert stale.aborted and h.link() is None
    h.send(1)  # found before this send, not by it: no retry needed
    await h.turn()
    assert fresh.frames == [(0, 1)] and stale.frames == [(0, 0)]


@scripted
async def test_ack_for_an_unknown_sequence_drops_the_connection(make):
    peer = ScriptedPeer()
    h = make(peer)
    h.send(0)
    h.send(1)
    await h.turn()
    peer.ack(7)
    await h.turn()
    assert peer.aborted
    assert h.settled() == {0: F, 1: F}


@scripted
async def test_ack_of_an_unknown_kind_drops_the_connection(make):
    peer = ScriptedPeer()
    h = make(peer)
    h.send(0)
    h.send(1)
    await h.turn()
    peer.ack(0, kind=b"?")
    await h.turn()
    assert peer.aborted
    assert h.settled() == {0: F, 1: F}
    assert h.transport.stats.failed_sends == 2


# --- connects -----------------------------------------------------------------


@scripted
async def test_refused_connect_settles_and_counts_every_queued_frame(make):
    """One link carries every port: a refused connect settles each queued
    frame by its own port."""
    h = make(ConnectionRefusedError())
    ports = [FIRST_RESULT_PORT, QUERY_PORT, FIRST_RESULT_PORT, QUERY_PORT]
    for rid, port in enumerate(ports):
        h.send(rid, port)
    await h.turn()
    assert h.settled() == {
        0: SendOutcome.REFUSED, 1: SendOutcome.HOST_DOWN,
        2: SendOutcome.REFUSED, 3: SendOutcome.HOST_DOWN,
    }
    assert (h.transport.stats.refused_sends, h.transport.stats.down_sends) == (2, 2)
    assert h.link() is None and h.connects == 1


@scripted
async def test_refuse_record_settles_by_the_frames_port_and_keeps_the_connection(make):
    peer = ScriptedPeer()
    h = make(peer)
    h.send(0, FIRST_RESULT_PORT)
    h.send(1, QUERY_PORT)
    h.send(2, FIRST_RESULT_PORT + 1)
    await h.turn()
    assert peer.ports == [FIRST_RESULT_PORT, QUERY_PORT, FIRST_RESULT_PORT + 1]
    peer.ack(0, 1, kind=REFUSE_BYTE)
    peer.ack(2)
    await h.turn()
    assert h.settled() == {0: SendOutcome.REFUSED, 1: SendOutcome.HOST_DOWN, 2: D}
    stats = h.transport.stats
    assert (stats.refused_sends, stats.down_sends, stats.messages_sent) == (1, 1, 1)
    assert not peer.aborted and h.connects == 1


@scripted
async def test_connect_deadline_is_the_links_own_timer(make):
    h = make((asyncio.get_running_loop().create_future(), ScriptedPeer()))
    waits = []
    original = asyncio.wait_for
    asyncio.wait_for = lambda *a, **k: waits.append(a) or original(*a, **k)
    try:
        h.send(0)
        h.send(1)
        await h.turn()
        assert h.settled() == {}
        await h.advance(CONNECT_TIMEOUT + 0.1)
    finally:
        asyncio.wait_for = original
    assert h.settled() == {0: SendOutcome.HOST_DOWN, 1: SendOutcome.HOST_DOWN}
    assert h.transport.stats.down_sends == 2
    assert waits == [] and h.link() is None


@scripted
async def test_send_during_a_reconnect_queues_behind_the_rewrites(make):
    stale, fresh = ScriptedPeer(), ScriptedPeer()
    reconnected = asyncio.get_running_loop().create_future()
    h = make(stale, (reconnected, fresh))
    h.send(0)
    await h.turn()
    stale.ack(0)
    await h.turn()
    h.send(1)
    await h.turn()
    stale.reset()
    await h.turn()
    h.send(2)  # the driver is between connections
    await h.turn()
    assert fresh.frames == []
    reconnected.set_result(None)
    await h.turn()
    assert fresh.frames == [(1, 1), (2, 2)] and fresh.writes == 1


# --- backpressure ---------------------------------------------------------------


@scripted
async def test_nothing_is_written_above_the_high_water_mark(make):
    peer = ScriptedPeer()
    h = make(peer)
    h.send(0)
    await h.turn()
    peer.buffered = 65537
    h.send(1)
    h.send(2)
    await h.turn()
    assert peer.frames == [(0, 0)]
    assert len(h.link().queue) == 2
    # The ack that shows the peer is reading again is also what flushes.
    peer.buffered = 0
    peer.ack(0)
    await h.turn()
    assert peer.frames == [(0, 0), (1, 1), (2, 2)] and peer.writes == 2


# --- teardown -------------------------------------------------------------------


@scripted
async def test_crash_site_settles_queued_and_unacked_and_never_reconnects(make):
    peer = ScriptedPeer()
    h = make(peer)
    h.send(0)
    h.send(1)
    await h.turn()
    peer.ack(0)
    await h.turn()
    h.send(2)  # on a connection that is now a reused one
    await h.turn()
    peer.buffered = 65537
    h.send(3)
    await h.turn()
    link = h.link()
    assert len(link.unacked) == 2 and len(link.queue) == 1
    h.transport.crash_site("a.example")
    await h.turn()
    assert h.settled() == {0: D, 1: F, 2: F, 3: F}
    assert h.transport.stats.failed_sends == 3
    assert peer.aborted and h.connects == 1 and h.link() is None
    assert link.driver.done() and link.watchdog is None


@scripted
async def test_aclose_leaves_no_future_pending_and_no_task_running(make):
    peer = ScriptedPeer()
    h = make(peer, (asyncio.get_running_loop().create_future(), ScriptedPeer()))
    h.send(0)
    h.send(1)
    await h.turn()
    h.send(2, src="b.example")  # its driver is stuck in a connect
    await h.turn()
    futures = [
        frame.outcome
        for link in h.transport._links.values()
        for frame in (*link.unacked.values(), *link.queue)
    ]
    assert len(futures) == 3 and not any(f.done() for f in futures)
    tasks = list(h.transport._tasks)
    await h.transport.aclose()
    assert all(f.done() for f in futures)
    assert all(t.done() for t in tasks) and not h.transport._tasks
    assert peer.aborted and not h.transport._links
    assert h.settled() == {}  # a closing transport reports nothing


# --- the invariant, over seeded scripts -----------------------------------------

_FATES = st.sampled_from(
    ["ack", "ack", "ack", "nak", "refuse", "swallow", "unknown", "garbage"]
)


@st.composite
def _scripts(draw):
    sends = draw(st.integers(1, 12))
    return {
        "sends": sends,
        #: How many sends are issued before the peers start answering.
        "burst": draw(st.integers(1, sends)),
        #: The fate of the k-th frame to arrive at any peer.
        "fates": draw(st.lists(_FATES, min_size=0, max_size=2 * sends)),
        #: Reset a connection after it has received this many frames.
        "resets": draw(st.lists(st.integers(1, 6), max_size=3)),
        "refuse_reconnect": draw(st.booleans()),
        "chunk": draw(st.integers(1, 3 * ACK_RECORD.size)),
    }


@given(_scripts())
@settings(max_examples=120, deadline=None)
def test_every_send_settles_exactly_once(script):
    asyncio.run(_run_script(script))


async def _run_script(script: dict) -> None:
    sends, fates, chunk = script["sends"], deque(script["fates"]), script["chunk"]
    resets = deque(script["resets"])
    peers: list[ScriptedPeer] = []
    #: ``(peer index, sequence) -> kind`` for every record the driver took.
    taken: dict[tuple[int, int], bytes] = {}

    h = Harness()

    async def open_connection(host, port):
        h.connects += 1
        if script["refuse_reconnect"] and peers:
            raise ConnectionRefusedError()
        peers.append(ScriptedPeer())
        return peers[-1].reader, peers[-1]

    h.transport.open_connection = open_connection

    async def answer() -> None:
        """Give each newly arrived frame its fate, acks in ``chunk``-byte pieces."""
        if not peers or peers[-1].aborted:
            return
        index, peer = len(peers) - 1, peers[-1]
        records = []
        for sequence, __ in peer.frames[peer.answered:]:
            peer.answered += 1
            fate = fates.popleft() if fates else "ack"
            if fate == "swallow":
                continue
            kind = {"nak": NAK_BYTE, "refuse": REFUSE_BYTE, "garbage": b"?"}.get(fate, ACK_BYTE)
            records.append((sequence + 1000 if fate == "unknown" else sequence, kind))
        stream = b"".join(ACK_RECORD.pack(kind, s) for s, kind in records)
        consumed = 0
        for start in range(0, len(stream), chunk):
            if peer.aborted:
                break  # the driver dropped the connection: the rest is lost
            peer.reader.feed_data(stream[start:start + chunk])
            consumed = start + chunk
            await h.turn(3)
        for position, (sequence, kind) in enumerate(records):
            if (position + 1) * ACK_RECORD.size > consumed:
                break
            taken[index, sequence] = kind
            if kind == b"?" or sequence >= 1000:
                break  # the driver stops trusting the stream here
        if resets and len(peer.frames) >= resets[0] and not peer.aborted:
            resets.popleft()
            peer.reset()
            await h.turn()

    def progress() -> tuple:
        return len(peers), sum(peer.answered for peer in peers), len(h.settled())

    try:
        for rid in range(sends):
            h.send(rid)
            if rid + 1 >= script["burst"]:
                await h.turn()
                await answer()
        for __ in range(6 * sends + 12):
            if len(h.settled()) == sends:
                break
            before = progress()
            await h.turn()
            await answer()
            if progress() == before:
                await h.advance(READ_TIMEOUT + 0.1)  # only the watchdog can move it
        outcomes = h.settled()
        assert sorted(outcomes) == list(range(sends)), "every send settles, once"

        written = Counter(rid for peer in peers for __, rid in peer.frames)
        assert max(written.values(), default=0) <= 2
        first_seen = list(dict.fromkeys(rid for peer in peers for __, rid in peer.frames))
        assert first_seen == sorted(first_seen), "first writes follow queue order"

        last_write = {}
        for index, peer in enumerate(peers):
            for sequence, rid in peer.frames:
                last_write[rid] = (index, sequence)
        for rid, outcome in outcomes.items():
            kind = taken.get(last_write.get(rid))
            assert (outcome is D) == (kind == ACK_BYTE), (rid, outcome, kind)
            assert (outcome is O) == (kind == NAK_BYTE), (rid, outcome, kind)
        stats = h.transport.stats
        assert stats.messages_sent == sum(1 for o in outcomes.values() if o is D)
        assert stats.overloaded_sends == sum(1 for o in outcomes.values() if o is O)
    finally:
        await h.transport.aclose()
    assert not h.transport._tasks and not h.transport._links

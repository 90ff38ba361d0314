"""The asyncio transport: real sockets behind the simulator's seam.

Everything here runs against ``127.0.0.1`` TCP — the same protocol objects
the simulator drives, but framed over real connections with delivery acks.
Covers outcome classification off the simulator (REFUSED vs HOST_DOWN from
actual connect errors), the :class:`ReliableChannel` retry properties on a
deferred backend (the satellite requirement: same semantics on *both*
transports), wire-level chaos applied in the receive loop, and end-to-end
engine runs including the sim-vs-socket equivalence check and crash
recovery with real listener teardowns.

No pytest-asyncio in the container: each test drives its own loop via
``asyncio.run``.
"""

from __future__ import annotations

import asyncio
import os
import socket
import threading

import pytest

from repro.baselines.docservice import FetchRequest
from repro.core.aio_engine import AsyncioWebDisEngine
from repro.core.client import QueryStatus
from repro.core.engine import WebDisEngine, build_engine
from repro.core.messages import CloneReport, Disposition, ResultMessage
from repro.core.state import QueryState
from repro.core.webquery import QueryId
from repro.core.config import EngineConfig
from repro.core.supervisor import QuerySupervisor, RecoveryPolicy
from repro.errors import SimulationError
from repro.net import (
    FIRST_RESULT_PORT,
    HELPER_PORT,
    QUERY_PORT,
    Network,
    NetworkConfig,
    SendOutcome,
    SimClock,
    TrafficStats,
    refusal_outcome,
)
from repro.net.aio import AsyncioTransport, StaticPortMap
from repro.net.chaos import ChaosRules
from repro.net.faults import FaultPlan
from repro.net.reliable import ReliableChannel, RetryPolicy
from repro.pre import parse_pre
from repro.testing.invariants import check_run
from repro.urlutils import parse_url
from repro.web.builders import WebBuilder
from repro.web.synthetic import SyntheticWebConfig, build_synthetic_web
from repro.wire import WIRE_VERSION, encode_frame, encode_sequenced


def _payload(request_id: int = 1) -> FetchRequest:
    return FetchRequest(
        url=parse_url("http://a.example/doc"),
        reply_site="user.example",
        reply_port=FIRST_RESULT_PORT,
        request_id=request_id,
    )


async def _transport(*sites: str, **kwargs) -> AsyncioTransport:
    transport = AsyncioTransport(**kwargs)
    for site in sites:
        transport.register_site(site)
    return transport


async def _send(transport: AsyncioTransport, *args) -> SendOutcome:
    """Send and await the settled outcome (inline or deferred)."""
    loop = asyncio.get_running_loop()
    fut: asyncio.Future = loop.create_future()
    transport.send(*args, on_outcome=fut.set_result)
    return await asyncio.wait_for(fut, 10.0)


class TestRefusalClassification:
    def test_daemon_ports_mean_host_down(self):
        assert refusal_outcome(QUERY_PORT) is SendOutcome.HOST_DOWN
        assert refusal_outcome(HELPER_PORT) is SendOutcome.HOST_DOWN

    def test_result_ports_mean_refused(self):
        assert refusal_outcome(FIRST_RESULT_PORT) is SendOutcome.REFUSED
        assert refusal_outcome(FIRST_RESULT_PORT + 37) is SendOutcome.REFUSED


class TestStaticPortMap:
    """One real port per site: every logical port rides on it."""

    def test_same_mapping_in_every_process(self):
        sites = ["b.example", "a.example", "user.example"]
        one = StaticPortMap(sites, first_base=21000)
        # A cooperating process builds its own instance from the same list
        # (different order — the map sorts) and must agree byte-for-byte.
        two = StaticPortMap(sorted(sites), first_base=21000)
        for site in sites:
            assert one.lookup(site) == two.lookup(site)

    def test_ranges_do_not_overlap(self):
        ports = StaticPortMap(["b", "a", "c"], first_base=21000)
        assert [ports.lookup(site) for site in "abc"] == [21000, 21001, 21002]

    def test_unknown_site_has_no_port(self):
        ports = StaticPortMap(["a"], first_base=21000)
        assert ports.lookup("ghost") is None

    def test_any_logical_port_rides_on_the_sites_one_real_port(self):
        """A user-site's result ports are not capped by a port range: result
        port 7000 is served on the same real socket as the daemon port."""

        async def main():
            probe = socket.create_server(("127.0.0.1", 0))  # a free real port
            free = probe.getsockname()[1]
            probe.close()
            # Only b.example binds: the second site in sorted order.
            ports = StaticPortMap(["a.example", "b.example"], first_base=free - 1)
            transport = await _transport("a.example", "b.example", port_map=ports)
            try:
                seen = []
                for port in (QUERY_PORT, 7000):
                    transport.listen("b.example", port, lambda s, m, port=port: seen.append(port))
                for port in (QUERY_PORT, 7000):
                    outcome = await _send(transport, "a.example", "b.example", port, _payload())
                    assert outcome is SendOutcome.DELIVERED
                assert seen == [QUERY_PORT, 7000]
                assert list(transport._inbound) == ["b.example"]
                assert transport.connections_opened == 1
            finally:
                await transport.aclose()

        asyncio.run(main())


class TestTrafficStatsOwnership:
    def test_cross_thread_write_rejected(self):
        stats = TrafficStats()
        stats.bind_owner()
        stats.messages_sent += 1  # owner thread: fine
        errors: list[BaseException] = []

        def intrude():
            try:
                stats.messages_sent += 1
            except BaseException as exc:  # noqa: BLE001 - asserting the type below
                errors.append(exc)

        thread = threading.Thread(target=intrude)
        thread.start()
        thread.join()
        assert len(errors) == 1 and isinstance(errors[0], RuntimeError)

    def test_unbind_restores_free_writes(self):
        stats = TrafficStats()
        stats.bind_owner()
        stats.unbind_owner()
        done = threading.Event()

        def write():
            stats.messages_sent += 1
            done.set()

        thread = threading.Thread(target=write)
        thread.start()
        thread.join()
        assert done.is_set() and stats.messages_sent == 1


class TestAsyncioTransportSends:
    def test_delivered_means_processed(self):
        async def main():
            transport = await _transport("a.example", "b.example")
            try:
                seen = []
                transport.listen(
                    "b.example", QUERY_PORT, lambda src, msg: seen.append((src, msg))
                )
                outcome = await _send(
                    transport, "a.example", "b.example", QUERY_PORT, _payload()
                )
                assert outcome is SendOutcome.DELIVERED
                # The ack is written after the listener ran: processed, not
                # merely buffered somewhere in the kernel.
                assert seen == [("a.example", _payload())]
                assert transport.stats.messages_sent == 1
            finally:
                await transport.aclose()

        asyncio.run(main())

    def test_unknown_destination_settles_inline(self):
        async def main():
            transport = await _transport("a.example")
            try:
                settled = []
                transport.send(
                    "a.example", "ghost.example", QUERY_PORT, _payload(),
                    on_outcome=settled.append,
                )
                assert settled == [SendOutcome.HOST_DOWN]
                assert transport.stats.unknown_host_sends == 1
            finally:
                await transport.aclose()

        asyncio.run(main())

    def test_unregistered_source_raises(self):
        async def main():
            transport = await _transport("a.example")
            try:
                with pytest.raises(SimulationError, match="unregistered"):
                    transport.send("ghost.example", "a.example", QUERY_PORT, _payload())
            finally:
                await transport.aclose()

        asyncio.run(main())

    def test_closed_result_port_is_genuinely_refused(self):
        # The §2.8 termination signal: after close() the receiver answers a
        # frame for the result port with a refuse record, which the sender
        # classifies as REFUSED, as a refused connect to the port would be.
        async def main():
            transport = await _transport("a.example", "b.example")
            try:
                transport.listen("b.example", FIRST_RESULT_PORT, lambda s, m: None)
                transport.close("b.example", FIRST_RESULT_PORT)
                outcome = await _send(
                    transport, "a.example", "b.example", FIRST_RESULT_PORT, _payload()
                )
                assert outcome is SendOutcome.REFUSED
                assert transport.stats.refused_sends == 1
            finally:
                await transport.aclose()

        asyncio.run(main())

    def test_never_listening_daemon_port_is_host_down(self):
        async def main():
            transport = await _transport("a.example", "b.example")
            try:
                outcome = await _send(
                    transport, "a.example", "b.example", QUERY_PORT, _payload()
                )
                assert outcome is SendOutcome.HOST_DOWN
            finally:
                await transport.aclose()

        asyncio.run(main())

    def test_crash_site_tears_down_for_real(self):
        async def main():
            transport = await _transport("a.example", "b.example")
            try:
                transport.listen("b.example", QUERY_PORT, lambda s, m: None)
                transport.crash_site("b.example")
                assert not transport.is_listening("b.example", QUERY_PORT)
                outcome = await _send(
                    transport, "a.example", "b.example", QUERY_PORT, _payload()
                )
                assert outcome is SendOutcome.HOST_DOWN
                # Re-listen = recovery: the very next send goes through.
                transport.listen("b.example", QUERY_PORT, lambda s, m: None)
                outcome = await _send(
                    transport, "a.example", "b.example", QUERY_PORT, _payload()
                )
                assert outcome is SendOutcome.DELIVERED
            finally:
                await transport.aclose()

        asyncio.run(main())

    def test_oversized_payload_rejected_before_the_wire(self):
        async def main():
            transport = await _transport(
                "a.example", "b.example",
                config=NetworkConfig(max_frame_bytes=64),
            )
            try:
                transport.listen("b.example", QUERY_PORT, lambda s, m: None)
                outcome = await _send(
                    transport, "a.example", "b.example", QUERY_PORT, _payload()
                )
                assert outcome is SendOutcome.FAULT
                assert transport.stats.frames_rejected == 1
            finally:
                await transport.aclose()

        asyncio.run(main())

    def test_an_unencodable_result_is_a_rejected_frame(self):
        """A report whose child ids do not fit its entries never reaches the
        wire: the send settles FAULT and counts one rejection."""
        state = QueryState(1, parse_pre("L"))
        node = parse_url("http://b.example/")
        report = CloneReport(
            [node], state, [Disposition.PROCESSED], [], [0], [(node, state)], [], [1],
        )
        message = ResultMessage(QueryId("maya", "user.example", 5000, 1), (report,))

        async def main():
            transport = await _transport("a.example", "b.example")
            try:
                transport.listen("b.example", QUERY_PORT, lambda s, m: None)
                outcome = await _send(transport, "a.example", "b.example", QUERY_PORT, message)
                assert outcome is SendOutcome.FAULT
                assert transport.stats.frames_rejected == 1
            finally:
                await transport.aclose()

        asyncio.run(main())

    def test_valid_json_of_the_wrong_shape_is_a_rejected_frame(self):
        """A message body the codec cannot decode — here a result with no
        fields — aborts the connection with no record and counts one
        rejection; the receive loop ends there, not in the event loop's
        exception handler."""

        async def main():
            loop = asyncio.get_running_loop()
            unhandled: list = []
            loop.set_exception_handler(lambda loop, context: unhandled.append(context))
            transport = await _transport("a.example", "b.example")
            try:
                seen = []
                transport.listen("b.example", QUERY_PORT, lambda src, msg: seen.append(msg))
                await asyncio.sleep(0.02)  # the accept loop attaches
                real = transport.port_map.lookup("b.example")
                reader, writer = await asyncio.open_connection(transport.port_map.host, real)
                body = b'{"v":%d,"k":"result","b":{}}' % WIRE_VERSION
                envelope = b"a.example\x00" + body
                writer.write(encode_frame(encode_sequenced(envelope, QUERY_PORT, 7)))
                await writer.drain()
                try:
                    answer = await asyncio.wait_for(reader.read(), 5.0)
                except ConnectionResetError:
                    answer = b""
                writer.close()
                await asyncio.sleep(0.05)  # the handler's task has finished
                assert answer == b""  # closed by the receiver, no ACK / NAK record
                assert transport.stats.frames_rejected == 1
                assert seen == [] and unhandled == []
            finally:
                await transport.aclose()

        asyncio.run(main())


async def _burst(transport: AsyncioTransport, count: int, port: int = QUERY_PORT):
    """Issue ``count`` sends back-to-back on one link; their outcomes, in order."""
    loop = asyncio.get_running_loop()
    futures = [loop.create_future() for __ in range(count)]
    for request_id, future in enumerate(futures):
        transport.send(
            "a.example", "b.example", port, _payload(request_id),
            on_outcome=future.set_result,
        )
        assert not future.done()  # settles later, on the loop
    return await asyncio.wait_for(asyncio.gather(*futures), 10.0)


class TestPipelinedLink:
    """Many frames in flight on one link, over real sockets."""

    def test_fifty_back_to_back_sends_arrive_in_order(self):
        async def main():
            transport = await _transport("a.example", "b.example")
            try:
                seen = []
                transport.listen(
                    "b.example", QUERY_PORT, lambda src, msg: seen.append(msg.request_id)
                )
                outcomes = await _burst(transport, 50)
                assert outcomes == [SendOutcome.DELIVERED] * 50
                assert seen == list(range(50))
                assert transport.stats.messages_sent == 50
                assert len(transport._links) == 1
            finally:
                await transport.aclose()

        asyncio.run(main())

    def test_admission_nak_names_exactly_the_declined_frames(self):
        async def main():
            transport = await _transport("a.example", "b.example")
            try:
                seen = []
                transport.listen(
                    "b.example", QUERY_PORT, lambda src, msg: seen.append(msg.request_id)
                )
                transport.set_admission(
                    "b.example", QUERY_PORT, lambda src, msg: msg.request_id % 3 != 2
                )
                outcomes = await _burst(transport, 30)
                declined = [rid for rid in range(30) if rid % 3 == 2]
                assert [
                    rid for rid, outcome in enumerate(outcomes)
                    if outcome is SendOutcome.OVERLOADED
                ] == declined
                assert outcomes.count(SendOutcome.DELIVERED) == 20
                assert seen == [rid for rid in range(30) if rid % 3 != 2]
                assert transport.stats.overloaded_sends == 10
            finally:
                await transport.aclose()

        asyncio.run(main())

    def test_proxy_swallowing_the_middle_frame_faults_only_that_frame(self):
        """The case a positional ack gets wrong: chaos eats frame 2 and the
        receiver acks frame 3, which must not be credited to frame 2."""

        class SwallowSecond(ChaosRules):
            frames = 0

            def verdict(self, src, dst, port, wall_now):
                self.frames += 1
                return "swallow" if self.frames == 2 else None

        async def main():
            transport = await _transport(
                "a.example", "b.example",
                config=NetworkConfig(read_timeout=0.3),
                chaos=SwallowSecond(seed=0),
            )
            try:
                seen = []
                transport.listen(
                    "b.example", QUERY_PORT, lambda src, msg: seen.append(msg.request_id)
                )
                outcomes = await _burst(transport, 3)
                assert outcomes == [
                    SendOutcome.DELIVERED, SendOutcome.FAULT, SendOutcome.DELIVERED,
                ]
                assert seen == [0, 2]
                assert transport.stats.messages_sent == 2
                assert transport.stats.failed_sends == 1
                assert transport.chaos_summary()["frames_swallowed"] == 1
            finally:
                await transport.aclose()

        asyncio.run(main())

    def test_refused_connect_settles_every_frame_queued_behind_it(self):
        """A crashed site's real port refuses the connect (the port map
        keeps its entry), and every frame queued behind it settles as its
        result port says."""

        async def main():
            transport = await _transport("a.example", "b.example")
            try:
                transport.listen("b.example", FIRST_RESULT_PORT, lambda s, m: None)
                transport.crash_site("b.example")
                outcomes = await _burst(transport, 4, FIRST_RESULT_PORT)
                assert outcomes == [SendOutcome.REFUSED] * 4
                assert transport.stats.refused_sends == 4
                assert not transport._links
            finally:
                await transport.aclose()

        asyncio.run(main())


class TestOneListenerPerSite:
    """Logical ports ride in the frame: one real listener per site, one
    connection per ``(src, dst)``, and a closed port is a record, not a
    torn-down connection."""

    def test_accepted_connections_have_nodelay(self):
        """The listener is created as IPPROTO_TCP, so asyncio sets
        TCP_NODELAY on every socket it accepts."""

        async def main():
            transport = await _transport("a.example", "b.example")
            try:
                transport.listen("b.example", QUERY_PORT, lambda s, m: None)
                outcome = await _send(transport, "a.example", "b.example", QUERY_PORT, _payload())
                assert outcome is SendOutcome.DELIVERED
                (accepted,) = transport._inbound["b.example"]
                sock = accepted.get_extra_info("socket")
                assert sock.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)
            finally:
                await transport.aclose()

        asyncio.run(main())

    def test_two_pipelined_frames_on_a_reused_link_settle_without_a_nagle_stall(self):
        """Without TCP_NODELAY on the accepted socket the receiver's second
        small record waits for the sender's delayed ACK (≈ 40 ms)."""

        async def main():
            loop = asyncio.get_running_loop()
            transport = await _transport("a.example", "b.example")
            try:
                transport.listen("b.example", QUERY_PORT, lambda s, m: None)
                await _burst(transport, 1)  # the link is up and proven
                rounds = []
                for __ in range(5):
                    start = loop.time()
                    assert await _burst(transport, 2) == [SendOutcome.DELIVERED] * 2
                    rounds.append(loop.time() - start)
                assert sorted(rounds)[2] < 0.02, rounds
                assert transport.connections_opened == 1
            finally:
                await transport.aclose()

        asyncio.run(main())

    def test_the_frame_that_closes_its_own_port_is_refused(self):
        """A user-site's completing report: its listener closes the result
        port, so the frame is answered REFUSE — not counted as delivered."""

        async def main():
            transport = await _transport("a.example", "b.example")
            try:
                seen = []

                def last_report(src, message):
                    seen.append(message.request_id)
                    transport.close("b.example", FIRST_RESULT_PORT)

                transport.listen("b.example", FIRST_RESULT_PORT, last_report)
                outcome = await _send(
                    transport, "a.example", "b.example", FIRST_RESULT_PORT, _payload(5)
                )
                assert outcome is SendOutcome.REFUSED and seen == [5]
                stats = transport.stats
                assert (stats.refused_sends, stats.failed_sends) == (1, 0)
                assert (stats.messages_sent, stats.bytes_sent) == (0, 0)
            finally:
                await transport.aclose()

        asyncio.run(main())

    def test_an_unlistened_daemon_port_on_a_live_site_is_host_down(self):
        async def main():
            transport = await _transport("a.example", "b.example")
            try:
                transport.listen("b.example", QUERY_PORT, lambda s, m: None)
                first = await _send(transport, "a.example", "b.example", QUERY_PORT, _payload())
                assert first is SendOutcome.DELIVERED
                outcome = await _send(
                    transport, "a.example", "b.example", HELPER_PORT, _payload()
                )
                assert outcome is SendOutcome.HOST_DOWN
                assert transport.stats.down_sends == 1
                assert transport.connections_opened == 1
            finally:
                await transport.aclose()

        asyncio.run(main())

    def test_a_closed_result_port_leaves_the_connection_up(self):
        async def main():
            transport = await _transport("a.example", "b.example")
            try:
                transport.listen("b.example", QUERY_PORT, lambda s, m: None)
                transport.listen("b.example", FIRST_RESULT_PORT, lambda s, m: None)
                first = await _send(
                    transport, "a.example", "b.example", FIRST_RESULT_PORT, _payload(1)
                )
                assert first is SendOutcome.DELIVERED
                writer = transport._links[("a.example", "b.example")].writer
                transport.close("b.example", FIRST_RESULT_PORT)
                refused = await _send(
                    transport, "a.example", "b.example", FIRST_RESULT_PORT, _payload(2)
                )
                assert refused is SendOutcome.REFUSED
                after = await _send(transport, "a.example", "b.example", QUERY_PORT, _payload(3))
                assert after is SendOutcome.DELIVERED
                assert transport._links[("a.example", "b.example")].writer is writer
                assert transport.connections_opened == 1
            finally:
                await transport.aclose()

        asyncio.run(main())


class _RecordingClock:
    """Clock wrapper that records every retry delay it is asked to schedule."""

    def __init__(self, inner):
        self.inner = inner
        self.delays: list[float] = []

    @property
    def now(self):
        return self.inner.now

    def schedule(self, delay, callback):
        self.delays.append(round(delay, 9))
        self.inner.schedule(delay, callback)

    def schedule_at(self, time, callback):
        self.inner.schedule_at(time, callback)


POLICY = RetryPolicy(
    max_attempts=3, base_delay=0.02, multiplier=2.0, max_delay=0.1,
    jitter=0.5, seed=42,
)


class TestReliableChannelOnAsyncio:
    """DESIGN.md §4.6 retry semantics must hold identically off the simulator."""

    async def _final(self, channel, *args) -> SendOutcome:
        loop = asyncio.get_running_loop()
        fut: asyncio.Future = loop.create_future()
        channel.send(*args, on_final=fut.set_result)
        return await asyncio.wait_for(fut, 10.0)

    def test_refused_never_retried(self):
        async def main():
            transport = await _transport("a.example", "b.example")
            try:
                channel = ReliableChannel(transport, transport.clock, POLICY, name="t")
                outcome = await self._final(
                    channel, "a.example", "b.example", FIRST_RESULT_PORT, _payload()
                )
                assert outcome is SendOutcome.REFUSED
                assert transport.stats.retried_sends == 0
                assert channel.pending_sends() == 0
            finally:
                await transport.aclose()

        asyncio.run(main())

    def test_exhaustion_is_terminal(self):
        async def main():
            transport = await _transport("a.example", "b.example")
            try:
                channel = ReliableChannel(transport, transport.clock, POLICY, name="t")
                outcome = await self._final(
                    channel, "a.example", "b.example", QUERY_PORT, _payload()
                )
                assert outcome is SendOutcome.HOST_DOWN
                assert transport.stats.retried_sends == POLICY.max_attempts - 1
                assert transport.stats.retries_exhausted == 1
                assert channel.pending_sends() == 0
            finally:
                await transport.aclose()

        asyncio.run(main())

    def test_retry_recovers_after_restart(self):
        async def main():
            transport = await _transport("a.example", "b.example")
            try:
                generous = RetryPolicy(
                    max_attempts=6, base_delay=0.05, multiplier=1.5,
                    max_delay=0.3, jitter=0.0, seed=1,
                )
                channel = ReliableChannel(transport, transport.clock, generous, name="t")
                loop = asyncio.get_running_loop()
                fut: asyncio.Future = loop.create_future()
                channel.send(
                    "a.example", "b.example", QUERY_PORT, _payload(),
                    on_final=fut.set_result,
                )
                # The site comes up while retries are in flight.
                await asyncio.sleep(0.08)
                transport.listen("b.example", QUERY_PORT, lambda s, m: None)
                assert await asyncio.wait_for(fut, 10.0) is SendOutcome.DELIVERED
                assert transport.stats.retried_sends >= 1
            finally:
                await transport.aclose()

        asyncio.run(main())

    def test_seeded_backoff_identical_on_both_transports(self):
        """Same policy seed + channel name ⇒ the same backoff schedule,
        whether the transport is the simulator or real sockets."""
        # Simulator: the destination is down, every attempt is HOST_DOWN.
        sim_clock = SimClock()
        sim_net = Network(sim_clock, TrafficStats())
        sim_net.register_site("a.example")
        sim_net.register_site("b.example")
        sim_net.set_site_down("b.example")
        recording_sim = _RecordingClock(sim_clock)
        sim_channel = ReliableChannel(sim_net, recording_sim, POLICY, name="t")
        sim_channel.send("a.example", "b.example", QUERY_PORT, _payload())
        sim_clock.run()

        # Asyncio: the daemon port is never bound — also HOST_DOWN each try.
        async def main() -> list[float]:
            transport = await _transport("a.example", "b.example")
            try:
                recording = _RecordingClock(transport.clock)
                channel = ReliableChannel(transport, recording, POLICY, name="t")
                loop = asyncio.get_running_loop()
                fut: asyncio.Future = loop.create_future()
                channel.send(
                    "a.example", "b.example", QUERY_PORT, _payload(),
                    on_final=fut.set_result,
                )
                await asyncio.wait_for(fut, 10.0)
                return recording.delays
            finally:
                await transport.aclose()

        aio_delays = asyncio.run(main())
        assert recording_sim.delays == aio_delays
        assert len(aio_delays) == POLICY.max_attempts - 1


class TestChaosRules:
    def test_guaranteed_drop_window(self):
        plan = FaultPlan(seed=9).drop(1.0, start=1.0, end=2.0)
        rules = ChaosRules.from_plan(plan)
        assert rules.verdict("a", "b", QUERY_PORT, 0.5) is None
        assert rules.verdict("a", "b", QUERY_PORT, 1.5) in ("swallow", "reset")
        assert rules.verdict("a", "b", QUERY_PORT, 2.5) is None

    def test_partition_severs_by_envelope_source(self):
        plan = FaultPlan(seed=9).partition(["a"], ["b"], start=0.0, end=5.0)
        rules = ChaosRules.from_plan(plan)
        assert rules.verdict("a", "b", QUERY_PORT, 1.0) in ("swallow", "reset")
        assert rules.verdict("c", "b", QUERY_PORT, 1.0) is None

    def test_time_scale_maps_plan_windows_to_wall_clock(self):
        plan = (
            FaultPlan(seed=9)
            .drop(1.0, start=1.0, end=2.0)
            .crash("x", at=2.0, restart_at=3.0)
        )
        rules = ChaosRules.from_plan(plan, time_scale=0.5)
        # Wall 0.75s = plan 1.5s: inside the window.
        assert rules.verdict("a", "b", QUERY_PORT, 0.75) is not None
        assert rules.verdict("a", "b", QUERY_PORT, 1.25) is None
        assert rules.crash_schedule() == (("x", 1.0, 1.5),)

    def test_seeded_verdicts_reproducible(self):
        plan = FaultPlan(seed=7).drop(0.5, end=10.0)
        draws = [
            tuple(
                ChaosRules.from_plan(plan).verdict("a", "b", QUERY_PORT, 1.0)
                for __ in range(32)
            )
            for __ in range(2)
        ]
        assert draws[0] == draws[1]


class TestChaosProxyWire:
    def test_swallowed_frame_times_out_then_heals(self):
        """A frame chaos eats never acks (FAULT at the sender); once the
        window closes the same link delivers."""

        async def main():
            plan = FaultPlan(seed=3).drop(1.0, end=0.35)
            transport = await _transport(
                "a.example", "b.example",
                config=NetworkConfig(read_timeout=0.25, connect_timeout=0.5),
                chaos=ChaosRules.from_plan(plan),
            )
            try:
                seen = []
                transport.listen(
                    "b.example", QUERY_PORT, lambda src, msg: seen.append(msg)
                )
                first = await _send(
                    transport, "a.example", "b.example", QUERY_PORT, _payload(1)
                )
                assert first in (SendOutcome.FAULT, SendOutcome.HOST_DOWN)
                assert seen == []
                await asyncio.sleep(0.4)  # window closes
                second = await _send(
                    transport, "a.example", "b.example", QUERY_PORT, _payload(2)
                )
                assert second is SendOutcome.DELIVERED
                assert seen == [_payload(2)]
                summary = transport.chaos_summary()
                assert summary["frames_swallowed"] + summary["connections_reset"] >= 1
                assert summary["frames_forwarded"] >= 1
            finally:
                await transport.aclose()

        asyncio.run(main())

    def test_clean_rules_pass_everything_through(self):
        async def main():
            transport = await _transport(
                "a.example", "b.example", chaos=ChaosRules(seed=0)
            )
            try:
                transport.listen("b.example", QUERY_PORT, lambda s, m: None)
                for i in range(3):
                    assert (
                        await _send(
                            transport, "a.example", "b.example", QUERY_PORT, _payload(i)
                        )
                        is SendOutcome.DELIVERED
                    )
                summary = transport.chaos_summary()
                assert summary["frames_forwarded"] == 3
                assert summary["frames_swallowed"] == 0
                assert summary["connections_reset"] == 0
            finally:
                await transport.aclose()

        asyncio.run(main())

    def test_proxy_is_in_path(self):
        """Chaos is in the receive loop itself: a chaos listener binds one
        socket, an idle inbound connection costs one server-side task, and
        every received frame gets exactly one verdict — none bypasses it."""

        class CountingRules(ChaosRules):
            calls = 0

            def verdict(self, src, dst, port, wall_now):
                self.calls += 1
                return super().verdict(src, dst, port, wall_now)

        def open_fds() -> int:
            return len(os.listdir("/proc/self/fd"))

        async def main():
            rules = CountingRules(seed=0)
            transport = await _transport("a.example", "b.example", chaos=rules)
            try:
                seen = []
                before = open_fds()
                transport.listen(
                    "b.example", QUERY_PORT, lambda src, msg: seen.append(msg.request_id)
                )
                await asyncio.sleep(0.02)  # the accept loop attaches
                assert open_fds() - before == 1

                tasks = len(asyncio.all_tasks())
                real = transport.port_map.lookup("b.example")
                __, idle = await asyncio.open_connection(transport.port_map.host, real)
                await asyncio.sleep(0.02)
                assert len(asyncio.all_tasks()) - tasks == 1
                idle.close()

                transport.set_admission(
                    "b.example", QUERY_PORT, lambda src, msg: msg.request_id != 3
                )
                outcomes = await _burst(transport, 5)
                assert outcomes.count(SendOutcome.OVERLOADED) == 1
                assert seen == [0, 1, 2, 4]
                # The declined frame had its verdict too: chaos runs first.
                assert rules.calls == 5
                assert transport.chaos_summary()["frames_forwarded"] == 5
            finally:
                await transport.aclose()

        asyncio.run(main())

    def test_reset_on_the_middle_frame_credits_no_unseen_frame(self):
        """A scripted reset on frame 2 of 3: frame 1 (processed before the
        reset) is DELIVERED, and no frame the listener never saw is."""

        class ResetSecond(ChaosRules):
            frames = 0

            def verdict(self, src, dst, port, wall_now):
                self.frames += 1
                return "reset" if self.frames == 2 else None

        async def main():
            transport = await _transport(
                "a.example", "b.example",
                config=NetworkConfig(read_timeout=0.3),
                chaos=ResetSecond(seed=0),
            )
            try:
                seen = []
                transport.listen(
                    "b.example", QUERY_PORT, lambda src, msg: seen.append(msg.request_id)
                )
                outcomes = await _burst(transport, 3)
                assert outcomes[0] is SendOutcome.DELIVERED
                assert seen[0] == 0
                for request_id, outcome in enumerate(outcomes):
                    if outcome is SendOutcome.DELIVERED:
                        assert request_id in seen
                assert transport.chaos_summary()["connections_reset"] == 1
            finally:
                await transport.aclose()

        asyncio.run(main())


def _small_web():
    builder = WebBuilder()
    builder.site("root.example").page(
        "/", title="root",
        links=[("one", "http://one.example/"), ("two", "http://two.example/")],
    )
    builder.site("one.example").page("/", title="one", emphasized=[("b", "answer 1")])
    builder.site("two.example").page("/", title="two", emphasized=[("b", "answer 2")])
    return builder.build()


SMALL_QUERY = (
    'select d.url, r.text\n'
    'from document d such that "http://root.example/" G d,\n'
    '     relinfon r such that r.delimiter = "b"\n'
    'where r.text contains "answer"'
)


def _retrying_config(seed: int = 0) -> EngineConfig:
    return EngineConfig(
        transport="asyncio",
        retry_policy=RetryPolicy(
            max_attempts=5, base_delay=0.05, multiplier=1.8, max_delay=0.5,
            jitter=0.3, seed=seed,
        ),
    )


def _distinct(handle) -> set:
    return {(label, row.header, row.values) for label, row, __ in handle.results}


class TestAsyncioEngine:
    def test_fault_free_run_matches_simulator(self):
        sim = WebDisEngine(_small_web(), config=EngineConfig())
        sim_handle = sim.submit_disql(SMALL_QUERY)
        sim.run()
        assert sim_handle.status is QueryStatus.COMPLETE

        async def main():
            engine = AsyncioWebDisEngine(
                _small_web(), config=_retrying_config(), trace=True
            )
            try:
                handle = engine.submit_disql(SMALL_QUERY)
                await engine.run([handle], timeout=30.0)
                assert handle.status is QueryStatus.COMPLETE
                assert check_run(engine, [handle]) == []
                return _distinct(handle)
            finally:
                await engine.aclose()

        assert asyncio.run(main()) == _distinct(sim_handle)

    def test_build_engine_dispatches_on_transport(self):
        assert isinstance(build_engine(_small_web()), WebDisEngine)

        async def main():
            engine = build_engine(_small_web(), config=_retrying_config())
            assert isinstance(engine, AsyncioWebDisEngine)
            await engine.aclose()

        asyncio.run(main())

    def test_crash_and_restart_recovers(self):
        """A leaf's sockets die for real mid-run; the supervisor re-forwards
        after restart and the query still completes with full rows."""

        async def main():
            engine = AsyncioWebDisEngine(
                _small_web(), config=_retrying_config(seed=1), trace=True
            )
            try:
                supervisor = QuerySupervisor(
                    engine.client,
                    RecoveryPolicy(
                        quiet_timeout=0.4, max_recoveries=5,
                        backoff_multiplier=1.3, deadline=25.0,
                    ),
                )
                engine.crash_server("one.example")
                handle = engine.submit_disql(SMALL_QUERY)
                supervisor.supervise(handle)
                engine.restart_server("one.example", at=engine.clock.now + 0.5)
                await engine.run([handle], timeout=30.0)
                assert handle.status in (QueryStatus.COMPLETE, QueryStatus.PARTIAL)
                assert check_run(engine, [handle]) == []
                if handle.status is QueryStatus.PARTIAL:
                    coverage = supervisor.coverage(handle)
                    assert coverage.unreachable_sites
                return handle.recovery_epoch, _distinct(handle)

            finally:
                await engine.aclose()

        __, rows = asyncio.run(main())
        # Soundness either way: nothing invented beyond the reference rows.
        sim = WebDisEngine(_small_web(), config=EngineConfig())
        sim_handle = sim.submit_disql(SMALL_QUERY)
        sim.run()
        assert rows <= _distinct(sim_handle)

    def test_apply_faults_directs_to_chaos(self):
        async def main():
            engine = AsyncioWebDisEngine(_small_web(), config=_retrying_config())
            try:
                with pytest.raises(SimulationError, match="chaos"):
                    engine.apply_faults(FaultPlan(seed=0).drop(0.5))
            finally:
                await engine.aclose()

        asyncio.run(main())


_ZERO_COST = {
    "node_service_time": 0.0, "parse_time_per_kb": 0.0, "eval_time_per_tuple": 0.0,
}


def _mesh_web():
    """Six small sites linked mostly across sites, so most hops use a socket."""
    return build_synthetic_web(
        SyntheticWebConfig(
            sites=6, pages_per_site=12, local_out_degree=2,
            global_out_degree=3, padding_words=30,
        )
    )


def _mesh_query(site: int) -> str:
    return (
        f'select d.url, d.title from document d such that '
        f'"http://site{site:03d}.example/" (L|G)*2 d where d.title contains "topic"'
    )


async def _finish(engine, text: str):
    """Submit ``text`` and wait for its completion callback (no polling)."""
    done = asyncio.get_running_loop().create_future()
    handle = engine.submit_disql(text, on_complete=lambda __: done.set_result(None))
    await asyncio.wait_for(done, 30.0)
    return handle


class TestLongLivedSocketEngine:
    """One engine, many queries: per-query sockets must not pile up."""

    def test_hundred_sequential_queries_leak_no_fds_or_links(self):
        async def main():
            engine = AsyncioWebDisEngine(
                _mesh_web(), config=EngineConfig(transport="asyncio", **_ZERO_COST)
            )
            links, tasks = engine.network._links, engine.network._tasks
            try:
                marks = {}
                for serial in range(1, 101):
                    handle = await _finish(engine, _mesh_query(serial % 6))
                    assert handle.status is QueryStatus.COMPLETE
                    if serial in (20, 100):
                        # Let the servers' sends to the closed result port settle.
                        await asyncio.sleep(0.05)
                        marks[serial] = (
                            len(os.listdir("/proc/self/fd")), len(links), len(tasks),
                        )
                        # A link is in the table exactly while its driver
                        # runs, parked drivers included.
                        assert all(not link.driver.done() for link in links.values())
                return marks
            finally:
                await engine.aclose()

        marks = asyncio.run(main())
        (fds_20, links_20, tasks_20), (fds_100, links_100, tasks_100) = marks[20], marks[100]
        # Flat, not growing: 80 more queries used to add ~400 fds / ~480 links
        # (a link per server per result port, each an open socket).  A link to
        # a result port goes when its parked driver reads the port's EOF.
        assert fds_100 - fds_20 <= 16
        assert links_100 - links_20 <= 16
        assert tasks_100 - tasks_20 <= 16

    def test_a_warm_engine_opens_no_connection_per_query(self):
        """Per-query result ports are logical: once every site pair a query
        uses is connected, twelve more queries open no connection at all."""

        async def main():
            engine = AsyncioWebDisEngine(
                _mesh_web(), config=EngineConfig(transport="asyncio", **_ZERO_COST)
            )
            try:
                for site in range(6):
                    assert (await _finish(engine, _mesh_query(site))).status is QueryStatus.COMPLETE
                await asyncio.sleep(0.05)  # the last sends to a closed port settle
                warm = engine.network.connections_opened
                assert warm > 0
                for serial in range(12):
                    handle = await _finish(engine, _mesh_query(serial % 6))
                    assert handle.status is QueryStatus.COMPLETE
                await asyncio.sleep(0.05)
                assert engine.network.connections_opened == warm
            finally:
                await engine.aclose()

        asyncio.run(main())

    def test_run_wakes_on_the_terminal_transition(self):
        """``run()`` returns when the query completes, not at the next tick of
        a 20 ms poll: over ten sequential queries it lags the completion
        callback by well under the ≈ 100 ms ten polls lose on average."""

        async def main():
            engine = AsyncioWebDisEngine(
                _mesh_web(), config=EngineConfig(transport="asyncio", **_ZERO_COST)
            )
            loop = asyncio.get_running_loop()
            try:
                lag = 0.0
                for serial in range(10):
                    completed = []
                    handle = engine.submit_disql(
                        _mesh_query(serial % 6),
                        on_complete=lambda __: completed.append(loop.time()),
                    )
                    await engine.run([handle], timeout=30.0)
                    assert handle.status is QueryStatus.COMPLETE
                    lag += loop.time() - completed[0]
                return lag
            finally:
                await engine.aclose()

        assert asyncio.run(main()) < 0.05

    def test_run_times_out_and_sees_cancellation(self):
        async def main():
            engine = AsyncioWebDisEngine(
                _mesh_web(),
                config=EngineConfig(
                    transport="asyncio", node_service_time=0.2,
                    parse_time_per_kb=0.0, eval_time_per_tuple=0.0,
                ),
            )
            try:
                handle = engine.submit_disql(_mesh_query(0))
                with pytest.raises(SimulationError, match="timed out after 0.05s"):
                    await engine.run([handle], timeout=0.05)
                waiting = asyncio.ensure_future(engine.run([handle], timeout=30.0))
                await asyncio.sleep(0.01)
                engine.cancel(handle)
                await asyncio.wait_for(waiting, 1.0)
                assert handle.status is QueryStatus.CANCELLED
            finally:
                await engine.aclose()

        asyncio.run(main())

    def test_cancel_mid_query_still_terminates_passively(self):
        """§2.8 over sockets: cancel closes the result port, the servers'
        next dispatch is REFUSED for real and they purge the query."""

        async def main():
            engine = AsyncioWebDisEngine(
                _mesh_web(),
                config=EngineConfig(
                    transport="asyncio", node_service_time=0.05,
                    parse_time_per_kb=0.0, eval_time_per_tuple=0.0,
                ),
            )
            try:
                handle = engine.submit_disql(_mesh_query(0))
                await asyncio.sleep(0.02)  # start site is mid-service
                engine.cancel(handle)
                assert handle.status is QueryStatus.CANCELLED
                await asyncio.sleep(0.5)
                purged = [
                    site for site, server in engine.servers.items()
                    if handle.qid in server._purged
                ]
                return engine.stats.refused_sends, purged
            finally:
                await engine.aclose()

        refused, purged = asyncio.run(main())
        assert refused >= 1
        assert purged

"""Real TCP transport: the WEBDIS protocols over asyncio sockets.

This is the second implementation of the :class:`~repro.net.transport.Transport`
seam.  Sites live on ``127.0.0.1`` with one real TCP listening socket per
``(site, logical_port)``; a :class:`PortMap` translates the protocol's
logical ports (:data:`~repro.net.network.QUERY_PORT`, per-query result
ports, ...) into distinct real ports so any number of sites share one
loopback interface — within one process (sites as asyncio tasks) or across
OS processes (:class:`StaticPortMap` + ``tools/socket_cluster.py``).

Wire format and delivery contract
---------------------------------

Each message is one length-prefixed frame (:func:`repro.wire.encode_frame`)
carrying a source-stamped envelope (:func:`repro.wire.encode_envelope`) and,
after it, a per-link sequence number (:func:`repro.wire.encode_sequenced`),
over a persistent per-``(src, dst, port)`` connection.  After the receiving
listener has *processed* a frame the receiver writes back one fixed-size
record (:data:`repro.wire.ACK_RECORD`): :data:`~repro.wire.ACK_BYTE` and the frame's
sequence number.  The sender reports ``DELIVERED`` only on the record that
names the frame, so — exactly as on the simulator, where ``DELIVERED`` means
the delivery event is scheduled and listeners never observe a vanished
delivered message — a delivered send has really been handled.

Frames are **pipelined**: a link is a FIFO of frames and one long-lived
driver coroutine (:meth:`AsyncioTransport._drive`).  A send encodes its
frame, appends it and — when the connection is up and its write buffer is
below the high-water mark — writes everything queued in one ``write``;
frames queued behind a connect leave together when it completes.  The
driver connects, reads the acknowledgement stream and settles each frame's
future; it is parked in that read whenever the link is idle, so a peer that
closes a keep-alive is noticed when it closes, not by the next send.  Any
number of frames may be unacknowledged at once, which is why an ack must
name its frame: a chaos verdict in the receive loop (or a real middlebox)
can swallow frame *k* and ack *k+1*, and a positional ack would then report
``DELIVERED`` for a message no listener saw.  An ack for a sequence number
the link is not waiting for, or of an unknown kind, drops the connection.
Frames are written, and therefore processed, in send order: the simulator's
per-edge FIFO.

One ``loop.call_at`` watchdog per link, armed only while something is
unacknowledged, drops the connection when the oldest written frame has
waited ``read_timeout``.  When a connection is lost (reset, EOF, watchdog,
bad ack) every frame still unacknowledged on it is settled: a frame written
on a *reused* connection — one that had already carried an acknowledgement,
so the peer may simply have closed an idle keep-alive — is written once more
on a fresh connection, in order; any other frame reports ``FAULT``.  No
frame is written more than twice.  The rewrite can duplicate a
processed-but-unacked message — with *n* frames in flight, up to *n* of them
— which is safe because the protocols are idempotent: the CHT's
dispatch-identity accounting absorbs duplicate reports, the log table
absorbs duplicate clones.  That is the same at-least-once envelope the
:class:`~repro.net.reliable.ReliableChannel` already imposes.

Outcome mapping (see :func:`repro.net.transport.refusal_outcome` for the
REFUSED/HOST_DOWN split on refused connects):

=============================  ==========================================
real-socket event              ``SendOutcome``
=============================  ==========================================
frame written, its ack read    DELIVERED
frame written, its nak read    OVERLOADED (admission refused; back off)
ECONNREFUSED, result port      REFUSED (deliberate close = termination)
ECONNREFUSED, daemon port      HOST_DOWN (server process is down)
connect timeout / no route     HOST_DOWN
ack timeout / reset / EOF      FAULT (transient wire fault)
destination never registered   HOST_DOWN (DNS failure analogue)
=============================  ==========================================

Every row holds per frame.  A refused or timed-out connect settles (and
counts) every frame queued behind it; :meth:`AsyncioTransport.crash_site`
fails everything the dead site had in flight and never reconnects for it.

The nak (:data:`~repro.wire.NAK_BYTE`) carries admission control across the wire: a
listener guarded by an admission probe (:meth:`AsyncioTransport.set_admission`)
that declines a frame never sees it — the receiver answers a nak record for
exactly that frame on the same healthy connection, the sender reports the transient
``OVERLOADED`` outcome, and the :class:`~repro.net.reliable.ReliableChannel`
backs off and retries.  Distinct on purpose from a refused connect (§2.8
termination, never retried) and from a missing ack (FAULT — the frame may
or may not have been processed; a nak'd frame definitely was not).

All outcomes settle through the deferred ``on_outcome`` callback;
``send`` itself returns :data:`~repro.net.network.SendOutcome.IN_FLIGHT`
(or, for failures decidable without touching the network, the final
outcome directly, with ``on_outcome`` invoked inline like the simulator).

Everything runs on one event loop: listeners are invoked synchronously
from receive coroutines, settle callbacks from send tasks (one task per
send, alive from queueing to settlement), and
:class:`LoopClock` timers from ``loop.call_later`` — so the protocol code
(written for the single-threaded simulator) needs no locks.  The shared
:class:`~repro.net.stats.TrafficStats` is bound to the loop thread
(:meth:`~repro.net.stats.TrafficStats.bind_owner`) to enforce that.
"""

from __future__ import annotations

import asyncio
import socket
from collections import deque
from typing import TYPE_CHECKING, Callable, Iterable

from ..errors import NetworkError, SimulationError
from ..wire import (
    ACK_BYTE,
    ACK_RECORD,
    NAK_BYTE,
    WireError,
    FrameDecoder,
    decode_envelope,
    encode_envelope,
    encode_frame,
    encode_sequenced,
    split_sequenced,
)
from .network import (
    QUERY_PORT,
    Listener,
    NetworkConfig,
    Payload,
    SendOutcome,
)
from .stats import TrafficStats
from .transport import refusal_outcome

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .chaos import ChaosRules

__all__ = [
    "LoopClock",
    "PortMap",
    "StaticPortMap",
    "AsyncioTransport",
]

_READ_CHUNK = 65536


class LoopClock:
    """:class:`~repro.net.transport.Clock` over the event loop's wall clock.

    ``now`` starts at 0.0 when the clock is constructed, so protocol
    timestamps (CHT add/retire times, supervisor timeouts) look like the
    simulator's — seconds since the run began — just measured by
    ``loop.time()`` instead of virtual time.
    """

    def __init__(self, loop: asyncio.AbstractEventLoop | None = None) -> None:
        self._loop = loop if loop is not None else asyncio.get_running_loop()
        self._t0 = self._loop.time()

    @property
    def now(self) -> float:
        return self._loop.time() - self._t0

    def schedule(self, delay: float, callback: Callable[[], None]) -> None:
        self._loop.call_later(max(delay, 0.0), callback)

    def schedule_at(self, time: float, callback: Callable[[], None]) -> None:
        self._loop.call_at(self._t0 + time, callback)


class PortMap:
    """Dynamic ``(site, logical_port) -> real port`` registry (in-process).

    ``bind`` allocates an ephemeral real port and records it; ``lookup``
    answers senders.  Entries survive :meth:`AsyncioTransport.close` on
    purpose: connecting to the *closed* real socket yields a genuine
    ``ECONNREFUSED``, which is exactly the signal the refusal-classification
    policy feeds on.  Rebinding after a crash allocates a fresh port and
    replaces the entry.
    """

    def __init__(self, host: str = "127.0.0.1") -> None:
        self.host = host
        self._map: dict[tuple[str, int], int] = {}

    def bind(self, site: str, logical_port: int) -> socket.socket:
        """Bind (and start listening on) the real socket for a logical port."""
        sock = self._bound_socket(0)
        self._map[(site, logical_port)] = sock.getsockname()[1]
        return sock

    def lookup(self, site: str, logical_port: int) -> int | None:
        """The real port to connect to, or None if it was never bound."""
        return self._map.get((site, logical_port))

    def _bound_socket(self, real_port: int) -> socket.socket:
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        try:
            sock.bind((self.host, real_port))
            sock.listen(128)
        except OSError:
            sock.close()
            raise
        sock.setblocking(False)
        return sock


class StaticPortMap(PortMap):
    """Arithmetic port map shared by cooperating OS processes.

    Every process derives the same mapping from the same ordered site list,
    with no registry to synchronize: site ``i`` owns the real-port range
    ``[first_base + i*SPAN, first_base + (i+1)*SPAN)`` and logical port
    ``p`` lands on ``base + (p - QUERY_PORT)``.  ``SPAN = 2000`` leaves
    room for the daemon ports (offsets 0 and 500) plus ~1000 per-query
    result ports per site.
    """

    SPAN = 2000

    def __init__(
        self,
        sites: Iterable[str],
        host: str = "127.0.0.1",
        first_base: int = 20000,
    ) -> None:
        super().__init__(host)
        self._bases = {
            site: first_base + index * self.SPAN
            for index, site in enumerate(sorted(sites))
        }

    def bind(self, site: str, logical_port: int) -> socket.socket:
        real = self.lookup(site, logical_port)
        if real is None:
            raise SimulationError(
                f"no static port mapping for {site!r}:{logical_port}"
            )
        sock = self._bound_socket(real)
        self._map[(site, logical_port)] = real
        return sock

    def lookup(self, site: str, logical_port: int) -> int | None:
        base = self._bases.get(site)
        offset = logical_port - QUERY_PORT
        if base is None or not 0 <= offset < self.SPAN:
            return None
        return base + offset


class _Frame:
    """One send on a link, from queueing to settlement."""

    __slots__ = ("sequence", "data", "outcome", "written_at", "reused")

    def __init__(self, sequence: int, data: bytes, outcome: asyncio.Future) -> None:
        self.sequence = sequence
        self.data = data
        #: Settled exactly once, with the frame's ``SendOutcome``.
        self.outcome = outcome
        self.written_at = 0.0
        #: Whether the connection of the latest write had already carried an
        #: acknowledgement (module docstring: the one internal retry).
        self.reused = False


class _Link:
    """One ``(src, dst, port)`` edge: a FIFO of frames and its driver.

    A link is in the transport's table exactly as long as its driver runs:
    while it is connecting, and while its connection is up.
    """

    __slots__ = (
        "queue", "unacked", "sequence", "reader", "writer", "proven",
        "high_water", "driver", "watchdog", "connect_expired",
    )

    def __init__(self) -> None:
        #: Frames not yet written (or waiting to be written again), in order.
        self.queue: deque[_Frame] = deque()
        #: Frames written on the current connection, by sequence number, in
        #: the order they were written.
        self.unacked: dict[int, _Frame] = {}
        self.sequence = 0
        self.reader: asyncio.StreamReader | None = None
        self.writer: asyncio.StreamWriter | None = None
        #: The current connection has carried at least one acknowledgement.
        self.proven = False
        self.high_water = 0
        self.driver: asyncio.Task | None = None
        self.watchdog: asyncio.TimerHandle | None = None
        self.connect_expired = False


class AsyncioTransport:
    """Real TCP sockets on one asyncio event loop (see module docstring).

    Must be constructed on a running loop.  ``local_sites`` restricts which
    sites may :meth:`listen` here — ``None`` (in-process mode) allows all;
    a multi-process worker passes its own site so a misrouted listen fails
    loudly instead of silently binding the wrong process.

    ``chaos`` applies :class:`~repro.net.chaos.ChaosRules` in the receive
    loop: one verdict per received frame, before its listener sees it (see
    :mod:`repro.net.chaos`).
    """

    synchronous = False

    def __init__(
        self,
        clock: LoopClock | None = None,
        stats: TrafficStats | None = None,
        config: NetworkConfig | None = None,
        *,
        port_map: PortMap | None = None,
        local_sites: Iterable[str] | None = None,
        chaos: "ChaosRules | None" = None,
    ) -> None:
        self._loop = asyncio.get_running_loop()
        #: What a link opens its connection with: ``(host, port) -> (reader,
        #: writer)``.  Tests substitute a scripted in-memory peer.
        self.open_connection = asyncio.open_connection
        self.clock = clock if clock is not None else LoopClock(self._loop)
        self.stats = stats if stats is not None else TrafficStats()
        self.stats.bind_owner()
        self.config = config if config is not None else NetworkConfig()
        self.port_map = port_map if port_map is not None else PortMap()
        self.chaos = chaos
        self._local_sites = (
            None if local_sites is None else {site.lower() for site in local_sites}
        )
        self._sites: set[str] = set()
        self._listeners: dict[tuple[str, int], Listener] = {}
        self._admission: dict[tuple[str, int], Callable[[str, Payload], bool]] = {}
        self._servers: dict[tuple[str, int], asyncio.AbstractServer] = {}
        self._inbound: dict[tuple[str, int], set[asyncio.StreamWriter]] = {}
        self._links: dict[tuple[str, str, int], _Link] = {}
        self._tasks: set[asyncio.Task] = set()
        self._taps: list[Callable[[float, str, str, int, Payload], None]] = []
        self._chaos_counts = dict.fromkeys(
            ("frames_forwarded", "frames_swallowed", "frames_delayed", "connections_reset"),
            0,
        )
        self._closed = False

    # -- observation (same surface as the simulator) ------------------------

    def add_tap(self, tap: Callable[[float, str, str, int, Payload], None]) -> None:
        self._taps.append(tap)

    def remove_tap(self, tap: Callable[[float, str, str, int, Payload], None]) -> None:
        self._taps = [t for t in self._taps if t != tap]

    # -- topology -----------------------------------------------------------

    def register_site(self, site: str) -> None:
        self._sites.add(site)

    @property
    def sites(self) -> frozenset[str]:
        return frozenset(self._sites)

    # -- listeners ----------------------------------------------------------

    def listen(self, site: str, port: int, listener: Listener) -> None:
        """Bind ``site:port`` for real and start accepting.

        The OS socket is bound *synchronously* — connects succeed (queueing
        in the backlog) from this call on, killing the race between a
        result-port listen and the first server's result dispatch — while
        the asyncio accept loop attaches as a task moments later.
        """
        if site not in self._sites:
            raise SimulationError(f"unknown site {site!r}; register it first")
        if self._local_sites is not None and site not in self._local_sites:
            raise SimulationError(
                f"site {site!r} is not hosted by this process"
            )
        key = (site, port)
        if key in self._listeners:
            raise NetworkError(f"port {port} already bound at {site}")
        sock = self.port_map.bind(site, port)  # may raise: nothing to undo yet
        self._listeners[key] = listener
        self._inbound[key] = set()
        self._spawn(self._start_server(key, sock))

    async def _start_server(self, key: tuple[str, int], sock: socket.socket) -> None:
        server = await asyncio.start_server(
            lambda reader, writer: self._serve_connection(key, reader, writer),
            sock=sock,
        )
        if key in self._listeners and not self._closed:
            self._servers[key] = server
        else:
            server.close()  # closed before the accept loop attached

    async def _serve_connection(
        self,
        key: tuple[str, int],
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        peers = self._inbound.get(key)
        if peers is None:  # listener closed while the connect was in flight
            _abort(writer)
            return
        peers.add(writer)
        decoder = FrameDecoder(self.config.max_frame_bytes)
        chaos, counts = self.chaos, self._chaos_counts
        try:
            while True:
                chunk = await reader.read(_READ_CHUNK)
                if not chunk:
                    break
                try:
                    frames = decoder.feed(chunk)
                except WireError:
                    self.stats.frames_rejected += 1
                    _abort(writer)
                    return
                for body in frames:
                    try:
                        envelope, sequence = split_sequenced(body)
                        src, message = decode_envelope(envelope)
                    except WireError:
                        self.stats.frames_rejected += 1
                        _abort(writer)
                        return
                    if chaos is not None:
                        action = chaos.verdict(src, *key, self.clock.now)
                        if action == "reset":
                            counts["connections_reset"] += 1
                            return  # aborted below; acks already written stand
                        if action == "swallow":
                            # No ack record: the sender's watchdog reports FAULT.
                            counts["frames_swallowed"] += 1
                            continue
                        delay = chaos.delay_draw()
                        if delay > 0.0:
                            counts["frames_delayed"] += 1
                            await asyncio.sleep(delay)
                            if writer.transport.is_closing():
                                return  # the port closed (maybe re-opened) meanwhile
                        counts["frames_forwarded"] += 1
                    listener = self._listeners.get(key)
                    if listener is None:
                        # Port closed mid-stream: refuse (no ack) so the
                        # sender's retry meets the real refused connect.
                        _abort(writer)
                        return
                    probe = self._admission.get(key)
                    if probe is not None and not probe(src, message):
                        writer.write(NAK_BYTE + sequence)
                        continue
                    listener(src, message)
                    # Written per frame, not per chunk: a later frame's
                    # listener may tear this connection down.
                    writer.write(ACK_BYTE + sequence)
                await writer.drain()
        except (ConnectionError, OSError):
            pass
        except asyncio.CancelledError:
            # Loop shutdown (aclose / asyncio.run teardown): end the
            # handler quietly; the socket is aborted below either way.
            pass
        finally:
            if peers is not None:
                peers.discard(writer)
            _abort(writer)

    def close(self, site: str, port: int) -> None:
        """Close the listener; later connects are refused for real.

        The port-map entry survives, so senders still find the (now
        closed) real port and get ``ECONNREFUSED`` — which
        :func:`~repro.net.transport.refusal_outcome` turns into the
        termination signal on result ports.
        """
        key = (site, port)
        self._listeners.pop(key, None)
        server = self._servers.pop(key, None)
        if server is not None:
            server.close()
        for writer in self._inbound.pop(key, set()):
            _abort(writer)

    def is_listening(self, site: str, port: int) -> bool:
        return (site, port) in self._listeners

    def set_admission(
        self, site: str, port: int, probe: Callable[[str, Payload], bool] | None
    ) -> None:
        """Install (or clear) an admission probe guarding ``site:port``.

        A declined frame is answered with a :data:`~repro.wire.NAK_BYTE` record instead of
        being delivered to the listener; the sender observes the transient
        ``OVERLOADED`` outcome (see module docstring).
        """
        key = (site, port)
        if probe is None:
            self._admission.pop(key, None)
        else:
            self._admission[key] = probe

    # -- whole-site failures ------------------------------------------------

    def crash_site(self, site: str) -> None:
        """Kill every socket the site's process would hold.

        Listeners close (connects now refused), inbound connections are
        reset, and the site's *outbound* links are torn down too — a dead
        process keeps nothing open, so every frame it had queued or
        unacknowledged reports ``FAULT`` and its drivers stop without
        reconnecting.  ``QueryServer.restart`` re-binds via :meth:`listen`,
        which allocates a fresh real port.
        """
        for key in [key for key in self._listeners if key[0] == site]:
            self.close(*key)
        for lkey in [lkey for lkey in self._links if lkey[0] == site]:
            link = self._links.pop(lkey)
            _drop_link(link)
            frames = [*link.unacked.values(), *link.queue]
            link.unacked.clear()
            link.queue.clear()
            self._fault(frames)
            assert link.driver is not None
            link.driver.cancel()

    def set_site_up(self, site: str) -> None:
        """No-op on real sockets: a site is 'up' once its ports re-bind."""

    def chaos_summary(self) -> dict[str, int]:
        """Receive-loop chaos counters over every listener, closed ones included."""
        return dict(self._chaos_counts)

    # -- transfer -----------------------------------------------------------

    def send(
        self,
        src: str,
        dst: str,
        port: int,
        payload: Payload,
        *,
        on_outcome: Callable[[SendOutcome], None] | None = None,
    ) -> SendOutcome:
        if src not in self._sites:
            raise SimulationError(f"send from unregistered site {src!r}")
        if dst not in self._sites:
            self.stats.unknown_host_sends += 1
            if on_outcome is not None:
                on_outcome(SendOutcome.HOST_DOWN)
            return SendOutcome.HOST_DOWN
        self._spawn(self._send_task(src, dst, port, payload, on_outcome))
        return SendOutcome.IN_FLIGHT

    async def _send_task(
        self,
        src: str,
        dst: str,
        port: int,
        payload: Payload,
        on_outcome: Callable[[SendOutcome], None] | None,
    ) -> None:
        """One send: queue the frame on its link, wait for it to settle."""
        key = (src, dst, port)
        link = self._links.get(key)
        if link is None:
            link = self._links[key] = _Link()
            link.driver = self._spawn(self._drive(key, link))
        sequence = link.sequence
        link.sequence = (sequence + 1) & 0xFFFFFFFF
        try:
            data = encode_frame(
                encode_sequenced(encode_envelope(src, payload), sequence),
                self.config.max_frame_bytes,
            )
        except WireError:
            self.stats.frames_rejected += 1
            outcome = SendOutcome.FAULT
        else:
            frame = _Frame(sequence, data, self._loop.create_future())
            link.queue.append(frame)
            self._write_queued(link)
            outcome = await frame.outcome
            if outcome is SendOutcome.DELIVERED:
                size = payload.size_bytes() + self.config.envelope_bytes
                self.stats.record_send(src, payload.kind, size)
                for tap in self._taps:
                    tap(self.clock.now, src, dst, port, payload)
        if on_outcome is not None:
            on_outcome(outcome)

    def _write_queued(self, link: _Link) -> None:
        """Write every queued frame in one ``write``, if the connection can take it.

        Called by whoever may have made that true: a send that queued a
        frame, the driver after a connect and after each batch of acks.
        Frames held back by a full write buffer need no wake-up of their
        own — a buffer that is not draining means unacknowledged frames,
        and those end in an ack or in the watchdog.
        """
        writer, queue = link.writer, link.queue
        if writer is None or not queue:
            return
        if writer.transport.get_write_buffer_size() > link.high_water:
            return
        now = self._loop.time()
        for frame in queue:
            frame.written_at = now
            frame.reused = link.proven
            link.unacked[frame.sequence] = frame
        writer.write(queue[0].data if len(queue) == 1 else b"".join(f.data for f in queue))
        queue.clear()
        if link.watchdog is None:
            self._arm_watchdog(link)

    def _arm_watchdog(self, link: _Link) -> None:
        oldest = next(iter(link.unacked.values()))
        link.watchdog = self._loop.call_at(
            oldest.written_at + self.config.read_timeout, self._on_watchdog, link
        )

    def _on_watchdog(self, link: _Link) -> None:
        """The oldest unacknowledged frame's deadline (or an earlier one's) passed."""
        link.watchdog = None
        oldest = next(iter(link.unacked.values()))
        if self._loop.time() >= oldest.written_at + self.config.read_timeout:
            self._connection_lost(link)
        else:
            self._arm_watchdog(link)

    async def _drive(self, key: tuple[str, str, int], link: _Link) -> None:
        """The link's driver: connect, write, read acks — until nothing is left.

        Runs while there are frames to deliver or a connection to watch, and
        takes the link out of the table when it stops.
        """
        __, dst, port = key
        try:
            while link.queue:
                outcome = await self._connect(link, dst, port)
                if outcome is not None:
                    # Settles, and counts, every frame queued behind the connect.
                    if outcome is SendOutcome.REFUSED:
                        self.stats.refused_sends += len(link.queue)
                    else:
                        self.stats.down_sends += len(link.queue)
                    while link.queue:
                        link.queue.popleft().outcome.set_result(outcome)
                    return
                self._write_queued(link)
                await self._read_acks(link)
        finally:
            _drop_link(link)
            if self._links.get(key) is link:
                del self._links[key]

    async def _read_acks(self, link: _Link) -> None:
        """Settle frames from the ack stream until the connection is lost."""
        reader = link.reader
        assert reader is not None
        partial = b""
        while True:
            try:
                chunk = await reader.read(_READ_CHUNK)
            except OSError:
                chunk = b""
            if link.reader is not reader:
                return  # the watchdog dropped it meanwhile: already settled
            if not chunk:
                break
            data = partial + chunk if partial else chunk
            whole = len(data) - len(data) % ACK_RECORD.size
            partial = data[whole:]
            if not self._take_acks(link, data[:whole]):
                break
            if not link.unacked and link.watchdog is not None:
                link.watchdog.cancel()
                link.watchdog = None
            self._write_queued(link)
        self._connection_lost(link)

    def _take_acks(self, link: _Link, records: bytes) -> bool:
        """Settle the frames ``records`` name; False = drop the connection."""
        for kind, sequence in ACK_RECORD.iter_unpack(records):
            frame = link.unacked.pop(sequence, None)
            if frame is None:
                return False  # names nothing this link is waiting for
            if kind == ACK_BYTE:
                frame.outcome.set_result(SendOutcome.DELIVERED)
            elif kind == NAK_BYTE:
                # Admission refused: definitely not processed, and the
                # connection is still good — the channel backs off.
                self.stats.overloaded_sends += 1
                frame.outcome.set_result(SendOutcome.OVERLOADED)
            else:
                self._fault([frame])
                return False
            link.proven = True
        return True

    def _connection_lost(self, link: _Link) -> None:
        """Drop the connection and settle what was unacknowledged on it.

        A frame written on a reused connection goes back to the head of the
        queue, in order (the driver reconnects for it); any other reports
        ``FAULT`` (module docstring).  Once per frame, by construction: what
        is put back leads the first write of the next connection, which has
        carried no acknowledgement yet.
        """
        _drop_link(link)
        again, lost = [], []
        for frame in link.unacked.values():
            (again if frame.reused else lost).append(frame)
        link.unacked.clear()
        link.queue.extendleft(reversed(again))
        self._fault(lost)

    def _fault(self, frames: Iterable[_Frame]) -> None:
        for frame in frames:
            self.stats.failed_sends += 1
            frame.outcome.set_result(SendOutcome.FAULT)

    async def _connect(
        self, link: _Link, dst: str, port: int
    ) -> SendOutcome | None:
        """Populate ``link``; None on success, else the failure outcome."""
        real = self.port_map.lookup(dst, port)
        if real is None:
            # Never bound: same classification a refused connect would get.
            return refusal_outcome(port)
        # The deadline is a timer that cancels this very task — what
        # ``asyncio.timeout`` does on 3.11+, which 3.10 does not have.
        deadline = self._loop.call_later(
            self.config.connect_timeout, self._expire_connect, link
        )
        try:
            link.reader, link.writer = await self.open_connection(
                self.port_map.host, real
            )
        except ConnectionRefusedError:
            return refusal_outcome(port)
        except OSError:
            return SendOutcome.HOST_DOWN
        except asyncio.CancelledError:
            if not link.connect_expired:
                raise
            link.connect_expired = False
            return SendOutcome.HOST_DOWN
        finally:
            deadline.cancel()
        link.high_water = link.writer.transport.get_write_buffer_limits()[1]
        return None

    def _expire_connect(self, link: _Link) -> None:
        link.connect_expired = True
        assert link.driver is not None
        link.driver.cancel()

    # -- lifecycle ----------------------------------------------------------

    def _spawn(self, coro) -> asyncio.Task:
        task = self._loop.create_task(coro)
        self._tasks.add(task)
        task.add_done_callback(self._tasks.discard)
        return task

    async def aclose(self) -> None:
        """Tear everything down (tests and runners call this on exit)."""
        self._closed = True
        for key in list(self._listeners):
            self.close(*key)
        for link in self._links.values():
            _drop_link(link)
        self._links.clear()
        for task in list(self._tasks):
            task.cancel()
        if self._tasks:
            await asyncio.gather(*self._tasks, return_exceptions=True)
        self.stats.unbind_owner()


def _abort(writer: asyncio.StreamWriter) -> None:
    """Hard-close a stream (RST if data is pending), swallowing raciness."""
    try:
        writer.transport.abort()
    except Exception:
        pass


def _drop_link(link: _Link) -> None:
    """Abort the link's connection, if any, and disarm its watchdog."""
    if link.writer is not None:
        _abort(link.writer)
    link.reader = None
    link.writer = None
    link.proven = False
    if link.watchdog is not None:
        link.watchdog.cancel()
        link.watchdog = None

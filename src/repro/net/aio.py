"""Real TCP transport: the WEBDIS protocols over asyncio sockets.

This is the second implementation of the :class:`~repro.net.transport.Transport`
seam.  Sites live on ``127.0.0.1``, each with **one** real TCP listening
socket, opened by its first :meth:`~AsyncioTransport.listen` and closed only
when the site crashes or the transport closes.  The protocol's *logical*
ports (:data:`~repro.net.network.QUERY_PORT`, per-query result ports, ...)
are not bound: each frame names its port and the receiver hands it to the
listener registered for ``(site, port)``.  A :class:`PortMap` translates a
site into its real port so any number of sites share one loopback interface
— within one process (sites as asyncio tasks) or across OS processes
(:class:`StaticPortMap` + ``tools/socket_cluster.py``).  Opening and closing
a per-query result port (§2.6, §2.8) therefore touches no connection.

Wire format and delivery contract
---------------------------------

Each message is one length-prefixed frame (:func:`repro.wire.encode_frame`)
carrying a source-stamped envelope (:func:`repro.wire.encode_envelope`) and,
after it, the logical port and a per-link sequence number
(:func:`repro.wire.encode_sequenced`), over one persistent connection per
``(src, dst)`` site pair, whatever ports its frames name.  After the
receiving listener has *processed* a frame the receiver writes back one
fixed-size record (:data:`repro.wire.ACK_RECORD`): :data:`~repro.wire.ACK_BYTE`
and the frame's sequence number.  The sender reports ``DELIVERED`` only on
the record that names the frame, so — exactly as on the simulator, where
``DELIVERED`` means the delivery event is scheduled and listeners never
observe a vanished delivered message — a delivered send has really been
handled.

A frame for a port nothing listens on is answered with a
:data:`~repro.wire.REFUSE_BYTE` record instead, and the sender settles it
as :func:`~repro.net.transport.refusal_outcome` of the frame's port — what
a refused connect to that port would give.  So is the frame whose own
listener closed its port (a user-site's completing report): it was
processed, but the port it was for is gone, and the sender learns it from
that frame as from the next.

Frames are **pipelined**: a link is a FIFO of frames and one long-lived
driver coroutine (:meth:`AsyncioTransport._drive`).  A send encodes its
frame, appends it and — when the connection is up and its write buffer is
below the high-water mark — writes everything queued in one ``write``;
frames queued behind a connect leave together when it completes.  The
driver connects, reads the acknowledgement stream and settles each frame's
future; it is parked in that read whenever the link is idle, so a peer that
closes a keep-alive is noticed when it closes, not by the next send.  Any
number of frames may be unacknowledged at once, which is why a record must
name its frame: a chaos verdict in the receive loop (or a real middlebox)
can swallow frame *k* and ack *k+1*, and a positional ack would then report
``DELIVERED`` for a message no listener saw.  A record for a sequence number
the link is not waiting for, or of an unknown kind, drops the connection.
Frames are written, and therefore processed, in send order: the simulator's
per-edge FIFO, here per site pair.

One ``loop.call_at`` watchdog per link, armed only while something is
unacknowledged, drops the connection when the oldest written frame has
waited ``read_timeout``.  When a connection is lost (reset, EOF, watchdog,
bad record) every frame still unacknowledged on it is settled: a frame
written on a *reused* connection — one that had already carried a record,
so the peer may simply have closed an idle keep-alive — is written once more
on a fresh connection, in order; any other frame reports ``FAULT``.  No
frame is written more than twice.  The rewrite can duplicate a
processed-but-unacked message — with *n* frames in flight, up to *n* of them
— which is safe because the protocols are idempotent: the CHT's
dispatch-identity accounting absorbs duplicate reports, the log table
absorbs duplicate clones.  That is the same at-least-once envelope the
:class:`~repro.net.reliable.ReliableChannel` already imposes.

Outcome mapping (see :func:`repro.net.transport.refusal_outcome` for the
REFUSED/HOST_DOWN split by port):

=================================  ==========================================
real-socket event                  ``SendOutcome``
=================================  ==========================================
frame written, its ack read        DELIVERED
frame written, its nak read        OVERLOADED (admission refused; back off)
refuse read, result port           REFUSED (deliberate close = termination)
refuse read, daemon port           HOST_DOWN (nothing serves it there)
ECONNREFUSED / site never bound    as a refuse, by each queued frame's port
connect timeout / no route         HOST_DOWN
ack timeout / reset / EOF          FAULT (transient wire fault)
destination never registered       HOST_DOWN (DNS failure analogue)
=================================  ==========================================

Every row holds per frame.  A refused or timed-out connect settles (and
counts) every frame queued behind it, each by its own port;
:meth:`AsyncioTransport.crash_site` fails everything the dead site had in
flight and never reconnects for it.

The nak (:data:`~repro.wire.NAK_BYTE`) carries admission control across the wire: a
listener guarded by an admission probe (:meth:`AsyncioTransport.set_admission`)
that declines a frame never sees it — the receiver answers a nak record for
exactly that frame on the same healthy connection, the sender reports the transient
``OVERLOADED`` outcome, and the :class:`~repro.net.reliable.ReliableChannel`
backs off and retries.  Distinct on purpose from a refused connect (§2.8
termination, never retried) and from a missing ack (FAULT — the frame may
or may not have been processed; a nak'd frame definitely was not).

Every outcome settles through the ``on_outcome`` callback — later, on the
loop, or inline for a destination never registered, the one failure
decidable without touching the network; ``send`` itself returns nothing.

Read path
---------

Every connection of a transport, inbound or outbound, reads through one
:class:`_BufferedStreamProtocol`: the event loop reads (``recv_into``) into
one buffer the transport owns and hands the bytes straight to the
connection's ``StreamReader``, which copies them.  One buffer serves every
connection because the selector loop calls ``get_buffer``, ``recv_into``
and ``buffer_updated`` back to back, with nothing in between.  The stock stream protocol instead
reads each chunk into a fresh 256 KiB ``bytes`` and shrinks it, and the
heap those reads are carved from keeps growing under sustained traffic.
The receive loops (:meth:`AsyncioTransport._serve_connection`,
:meth:`AsyncioTransport._read_acks`) still read their ``StreamReader``.
A site's receive loop, one per inbound connection, routes each frame by the
port it names; a frame for a port with no listener is refused before its
message is decoded.

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
from functools import partial
from typing import TYPE_CHECKING, Callable, Iterable

from ..errors import SimulationError
from ..wire import (
    ACK_BYTE,
    ACK_RECORD,
    NAK_BYTE,
    REFUSE_BYTE,
    WireError,
    FrameDecoder,
    decode_envelope,
    encode_envelope,
    envelope_source,
    encode_frame,
    encode_sequenced,
    split_sequenced,
)
from .network import (
    Listener,
    NetworkConfig,
    Payload,
    SendOutcome,
)
from .stats import TrafficStats
from .transport import Transport, refusal_outcome

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
    """Dynamic ``site -> real port`` registry (in-process).

    A site has one real listening socket, whatever logical ports it serves:
    the logical port rides in each frame (module docstring).  ``bind``
    allocates an ephemeral real port and records it; ``lookup`` answers
    senders.  The entry survives a crash on purpose: connecting to the
    *closed* real socket yields a genuine ``ECONNREFUSED``, which the
    refusal-classification policy turns into ``HOST_DOWN`` for a daemon
    port, and the restarted site's :meth:`bind` allocates a fresh port and
    replaces the entry.
    """

    def __init__(self, host: str = "127.0.0.1") -> None:
        self.host = host
        self._map: dict[str, int] = {}

    def bind(self, site: str) -> socket.socket:
        """Bind (and start listening on) the site's real socket."""
        sock = self._bound_socket(0)
        self._map[site] = sock.getsockname()[1]
        return sock

    def lookup(self, site: str) -> int | None:
        """The real port to connect to, or None if the site never bound one."""
        return self._map.get(site)

    def _bound_socket(self, real_port: int) -> socket.socket:
        # IPPROTO_TCP, not 0: asyncio sets TCP_NODELAY only on sockets that
        # say so, and accepted sockets inherit the listener's protocol.
        # Without it a reused connection's second small record waits for the
        # peer's delayed ACK (Nagle).
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM, socket.IPPROTO_TCP)
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
    with no registry to synchronize: site ``i`` owns real port
    ``first_base + i``, and every logical port it serves rides on it.
    """

    def __init__(
        self,
        sites: Iterable[str],
        host: str = "127.0.0.1",
        first_base: int = 20000,
    ) -> None:
        super().__init__(host)
        self._map = {site: first_base + index for index, site in enumerate(sorted(sites))}

    def bind(self, site: str) -> socket.socket:
        real = self.lookup(site)
        if real is None:
            raise SimulationError(f"no static port mapping for {site!r}")
        return self._bound_socket(real)


class _BufferedStreamProtocol(asyncio.StreamReaderProtocol, asyncio.BufferedProtocol):
    """A stream protocol the loop reads into through a buffer it is given.

    All connections of one transport share the buffer (module docstring,
    "Read path"): ``feed_data`` copies what ``buffer_updated`` passes on
    before the loop can read the next connection into it.
    """

    def __init__(
        self,
        reader: asyncio.StreamReader,
        buffer: memoryview,
        client_connected_cb: Callable | None = None,
    ) -> None:
        super().__init__(reader, client_connected_cb)
        self._read_buffer = buffer

    def get_buffer(self, sizehint: int) -> memoryview:
        return self._read_buffer

    def buffer_updated(self, nbytes: int) -> None:
        self.data_received(self._read_buffer[:nbytes])


async def _open_connection(
    host: str, port: int, *, buffer: memoryview
) -> tuple[asyncio.StreamReader, asyncio.StreamWriter]:
    """``asyncio.open_connection``, reading through ``buffer``."""
    loop = asyncio.get_running_loop()
    reader = asyncio.StreamReader(loop=loop)
    protocol = _BufferedStreamProtocol(reader, buffer)
    transport, __ = await loop.create_connection(lambda: protocol, host, port)
    return reader, asyncio.StreamWriter(transport, protocol, reader, loop)


class _Frame:
    """One send on a link, from queueing to settlement."""

    __slots__ = ("port", "sequence", "data", "outcome", "written_at", "reused")

    def __init__(self, port: int, sequence: int, data: bytes, outcome: asyncio.Future) -> None:
        #: The logical port at the destination, which settles a refusal.
        self.port = port
        self.sequence = sequence
        self.data = data
        #: Settled exactly once, with the frame's ``SendOutcome``.
        self.outcome = outcome
        self.written_at = 0.0
        #: Whether the connection of the latest write had already carried an
        #: acknowledgement (module docstring: the one internal retry).
        self.reused = False


class _Link:
    """One ``(src, dst)`` edge: a FIFO of frames, whatever their ports, and its driver.

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


class AsyncioTransport(Transport):
    """Real TCP sockets on one asyncio event loop (see module docstring).

    Must be constructed on a running loop.  ``local_sites`` restricts which
    sites may :meth:`listen` here — ``None`` (in-process mode) allows all;
    a multi-process worker passes its own site so a misrouted listen fails
    loudly instead of silently binding the wrong process.

    ``chaos`` applies :class:`~repro.net.chaos.ChaosRules` in the receive
    loop: one verdict per received frame, before its listener sees it (see
    :mod:`repro.net.chaos`).
    """

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
        super().__init__()
        self._loop = asyncio.get_running_loop()
        #: What every connection of this transport reads into.
        self._read_buffer = memoryview(bytearray(_READ_CHUNK))
        #: What a link opens its connection with: ``(host, port) -> (reader,
        #: writer)``.  Tests substitute a scripted in-memory peer.
        self.open_connection = partial(_open_connection, buffer=self._read_buffer)
        self.clock = clock if clock is not None else LoopClock(self._loop)
        self.stats = stats if stats is not None else TrafficStats()
        self.stats.bind_owner()
        self.config = config if config is not None else NetworkConfig()
        self.port_map = port_map if port_map is not None else PortMap()
        self.chaos = chaos
        self._local_sites = (
            None if local_sites is None else {site.lower() for site in local_sites}
        )
        #: A site's bound real socket until its accept loop attaches to it.
        self._unattached: dict[str, socket.socket] = {}
        #: A site's real listener, once its accept loop has attached.
        self._servers: dict[str, asyncio.AbstractServer] = {}
        #: The inbound connections of every site whose real socket is bound.
        self._inbound: dict[str, set[asyncio.StreamWriter]] = {}
        self._links: dict[tuple[str, str], _Link] = {}
        self._tasks: set[asyncio.Task] = set()
        self._chaos_counts = dict.fromkeys(
            ("frames_forwarded", "frames_swallowed", "frames_delayed", "connections_reset"),
            0,
        )
        #: Connections this transport's links have opened, ever.
        self.connections_opened = 0
        self._closed = False

    # -- listeners ----------------------------------------------------------

    def listen(self, site: str, port: int, listener: Listener) -> None:
        """Serve logical ``port`` at ``site``.

        The site's first listen binds its one real socket *synchronously* —
        connects succeed (queueing in the backlog) from this call on, killing
        the race between a result-port listen and the first server's result
        dispatch — while the asyncio accept loop attaches as a task moments
        later.  Every later listen only registers ``listener``.
        """
        self._check_bindable(site, port)
        if self._local_sites is not None and site not in self._local_sites:
            raise SimulationError(
                f"site {site!r} is not hosted by this process"
            )
        if site not in self._inbound:
            sock = self.port_map.bind(site)  # may raise: nothing to undo yet
            self._inbound[site] = set()
            self._unattached[site] = sock
            self._spawn(self._start_server(site, sock))
        self._listeners[(site, port)] = listener

    async def _start_server(self, site: str, sock: socket.socket) -> None:
        """Attach the accept loop to ``sock``, unless the site closed it first.

        Until this task's first step the transport owns the socket
        (``_unattached``), so a crash or ``aclose`` before then — which
        also cancels this task — closes it; from that step on the server
        does.  Creating the server with ``start_serving=False`` does not
        suspend, so no step sees the socket owned by neither.
        """
        if self._unattached.get(site) is not sock:
            return  # the site closed its socket before the accept loop attached
        del self._unattached[site]
        if self._closed:  # a listen after aclose: nothing would close the server
            sock.close()
            return

        def protocol() -> _BufferedStreamProtocol:
            return _BufferedStreamProtocol(
                asyncio.StreamReader(loop=self._loop),
                self._read_buffer,
                lambda reader, writer: self._serve_connection(site, reader, writer),
            )

        try:
            server = await self._loop.create_server(protocol, sock=sock, start_serving=False)
        except BaseException:
            sock.close()
            raise
        self._servers[site] = server
        await server.start_serving()

    async def _serve_connection(
        self,
        site: str,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        peers = self._inbound.get(site)
        if peers is None:  # the site crashed while the connect was in flight
            _abort(writer)
            return
        peers.add(writer)
        decoder = FrameDecoder(self.config.max_frame_bytes)
        chaos, counts, listeners = self.chaos, self._chaos_counts, self._listeners
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
                        envelope, port, sequence = split_sequenced(body)
                        src = envelope_source(envelope)
                    except WireError:
                        self.stats.frames_rejected += 1
                        _abort(writer)
                        return
                    if chaos is not None:
                        action = chaos.verdict(src, site, port, self.clock.now)
                        if action == "reset":
                            counts["connections_reset"] += 1
                            return  # aborted below; records already written stand
                        if action == "swallow":
                            # No record: the sender's watchdog reports FAULT.
                            counts["frames_swallowed"] += 1
                            continue
                        delay = chaos.delay_draw()
                        if delay > 0.0:
                            counts["frames_delayed"] += 1
                            await asyncio.sleep(delay)
                            if writer.transport.is_closing():
                                return  # the site crashed meanwhile
                        counts["frames_forwarded"] += 1
                    key = (site, port)
                    listener = listeners.get(key)
                    if listener is None:
                        # Nothing listens there: what a refused connect to
                        # the port says, on a connection that stays up.
                        writer.write(REFUSE_BYTE + sequence)
                        continue
                    try:
                        __, message = decode_envelope(envelope)
                    except WireError:
                        self.stats.frames_rejected += 1
                        _abort(writer)
                        return
                    probe = self._admission.get(key)
                    if probe is not None and not probe(src, message):
                        writer.write(NAK_BYTE + sequence)
                        continue
                    listener(src, message)
                    # Written per frame, not per chunk: a later frame's
                    # listener may crash this site.  A listener that closed
                    # its own port (the completing report) refuses the frame
                    # that closed it, as the closed port refuses the next.
                    kind = ACK_BYTE if listeners.get(key) is listener else REFUSE_BYTE
                    writer.write(kind + sequence)
                # An idle keep-alive must not keep its last message (and so
                # its query) alive until the next frame arrives.
                frames = body = envelope = message = listener = probe = None
                await writer.drain()
        except (ConnectionError, OSError):
            pass
        except asyncio.CancelledError:
            # Loop shutdown (aclose / asyncio.run teardown): end the
            # handler quietly; the socket is aborted below either way.
            pass
        finally:
            peers.discard(writer)
            _abort(writer)

    # -- whole-site failures ------------------------------------------------

    def crash_site(self, site: str) -> None:
        """Kill every socket the site's process would hold.

        Its ports and its real listener close (connects now refused),
        inbound connections are reset, and the site's *outbound* links are
        torn down too — a dead process keeps nothing open, so every frame it
        had queued or unacknowledged reports ``FAULT`` and its drivers stop
        without reconnecting.  ``QueryServer.restart`` re-binds via
        :meth:`listen`, which binds the site's real socket anew.
        """
        for key in [key for key in self._listeners if key[0] == site]:
            self.close(*key)
        self._close_socket(site)
        for lkey in [lkey for lkey in self._links if lkey[0] == site]:
            link = self._links.pop(lkey)
            _drop_link(link)
            frames = [*link.unacked.values(), *link.queue]
            link.unacked.clear()
            link.queue.clear()
            self._fault(frames)
            assert link.driver is not None
            link.driver.cancel()

    def _close_socket(self, site: str) -> None:
        """Close the site's real listener and reset its inbound connections."""
        sock = self._unattached.pop(site, None)
        if sock is not None:
            sock.close()
        server = self._servers.pop(site, None)
        if server is not None:
            server.close()
        for writer in self._inbound.pop(site, ()):
            _abort(writer)

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
    ) -> None:
        if src not in self._sites:
            raise SimulationError(f"send from unregistered site {src!r}")
        if dst not in self._sites:
            self.stats.unknown_host_sends += 1
            if on_outcome is not None:
                on_outcome(SendOutcome.HOST_DOWN)
            return
        self._spawn(self._send_task(src, dst, port, payload, on_outcome))

    async def _send_task(
        self,
        src: str,
        dst: str,
        port: int,
        payload: Payload,
        on_outcome: Callable[[SendOutcome], None] | None,
    ) -> None:
        """One send: queue the frame on its link, wait for it to settle."""
        key = (src, dst)
        link = self._links.get(key)
        if link is None:
            link = self._links[key] = _Link()
            link.driver = self._spawn(self._drive(key, link))
        sequence = link.sequence
        link.sequence = (sequence + 1) & 0xFFFFFFFF
        try:
            data = encode_frame(
                encode_sequenced(encode_envelope(src, payload), port, sequence),
                self.config.max_frame_bytes,
            )
        except WireError:
            self.stats.frames_rejected += 1
            outcome = SendOutcome.FAULT
        else:
            frame = _Frame(port, sequence, data, self._loop.create_future())
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

    async def _drive(self, key: tuple[str, str], link: _Link) -> None:
        """The link's driver: connect, write, read acks — until nothing is left.

        Runs while there are frames to deliver or a connection to watch, and
        takes the link out of the table when it stops.
        """
        try:
            while link.queue:
                failure = await self._connect(link, key[1])
                if failure is not None:
                    # Settles, and counts, every frame queued behind the
                    # connect: a refused one by each frame's own port.
                    while link.queue:
                        frame = link.queue.popleft()
                        if failure is SendOutcome.REFUSED:
                            self._refuse(frame)
                        else:
                            self.stats.down_sends += 1
                            frame.outcome.set_result(failure)
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
            elif kind == REFUSE_BYTE:
                # Nothing listens on the frame's port: not processed, and the
                # connection is still good for the site's other ports.
                self._refuse(frame)
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

    def _refuse(self, frame: _Frame) -> None:
        """Settle a frame its port refused, as a refused connect to it would be."""
        outcome = refusal_outcome(frame.port)
        if outcome is SendOutcome.REFUSED:
            self.stats.refused_sends += 1
        else:
            self.stats.down_sends += 1
        frame.outcome.set_result(outcome)

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

    async def _connect(self, link: _Link, dst: str) -> SendOutcome | None:
        """Populate ``link``; None on success, else how the connect failed.

        ``REFUSED`` stands for a refused connect (or a site that never
        bound), which each frame settles by its own port; ``HOST_DOWN`` for
        any other failure.
        """
        real = self.port_map.lookup(dst)
        if real is None:
            # Never bound: same classification a refused connect would get.
            return SendOutcome.REFUSED
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
            return SendOutcome.REFUSED
        except OSError:
            return SendOutcome.HOST_DOWN
        except asyncio.CancelledError:
            if not link.connect_expired:
                raise
            link.connect_expired = False
            return SendOutcome.HOST_DOWN
        finally:
            deadline.cancel()
        self.connections_opened += 1
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
        self._listeners.clear()
        for site in list(self._inbound):
            self._close_socket(site)
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

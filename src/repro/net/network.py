"""The simulated network: sites, listeners, latency, failures.

Semantics mirror what the WEBDIS protocols rely on:

* ``send`` models a TCP connect + transfer.  The *connect* outcome is known
  synchronously (this is what Figure 3's "if dispatch of results is
  successful" tests, and what passive termination exploits when the
  user-site closes its listening socket); the *delivery* happens after the
  modelled latency.
* The connect outcome is a :class:`SendOutcome`, not a bare bool, because
  the protocols assign opposite meanings to different failures: a REFUSED
  connect is an *active* signal (the peer is up but not listening — passive
  termination, or a non-participating site), while HOST_DOWN and FAULT are
  *transient* conditions that a reliability layer may retry
  (:mod:`repro.net.reliable`).  Retrying a REFUSED connect is forbidden —
  it would erase the paper's zero-message termination protocol (§2.8).
* Every site hosts listeners on numbered ports.  Query-servers all listen on
  the common :data:`QUERY_PORT`; each user query opens its own result port.
* Failure injection: one-shot scheduled failures (optionally per port), a
  port-aware fault injector (see :mod:`repro.net.faults` for the composable
  plan DSL), and whole-site crash/recovery.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, Mapping, Protocol

from ..errors import NetworkError, SimulationError
from .simclock import SimClock
from .stats import TrafficStats

__all__ = [
    "Payload",
    "Listener",
    "NetworkConfig",
    "Network",
    "SendOutcome",
    "QUERY_PORT",
    "HELPER_PORT",
    "FIRST_RESULT_PORT",
]

#: The "common pre-specified port number" all query-servers listen on (§4.4).
QUERY_PORT = 4000

#: Port of the user-site central helper (hybrid engine, paper §7.1).
HELPER_PORT = 4500

#: First per-query result port the user-site client allocates (Figure 2's
#: ``receive_results`` socket).  Everything at or above this is an
#: ephemeral, query-scoped port; the real transport's refusal
#: classification (:func:`repro.net.transport.refusal_outcome`) keys on it.
FIRST_RESULT_PORT = 5000


class SendOutcome(enum.Enum):
    """The synchronously-known result of one connect attempt.

    Truthiness equals "connect succeeded", so legacy ``if network.send(...)``
    call sites keep working; callers that must tell termination apart from
    faults test the named predicates instead.
    """

    #: Connect succeeded; delivery is scheduled after the transfer time.
    DELIVERED = "delivered"
    #: The destination host is up but nothing listens on the port.  This is
    #: an *active* refusal — the termination signal — and must never be
    #: retried.
    REFUSED = "refused"
    #: The destination host is crashed or unknown; connect timed out.
    HOST_DOWN = "host-down"
    #: A transient network fault broke this particular connect.
    FAULT = "fault"
    #: The destination accepted the connect but refused to *admit* the
    #: payload: its queues are at their configured ceiling (admission
    #: control).  Transient — the sender's reliability layer retries with
    #: backoff, which is the backpressure.  Distinct from REFUSED: an
    #: overloaded server is alive and still working the query; a refused
    #: connect is the §2.8 termination signal and must never be retried.
    OVERLOADED = "overloaded"
    #: The sending process gave the send up before it could settle — its
    #: channel was reset (process crash, query cancellation).  Terminal:
    #: the payload was never delivered and no further attempt will be made.
    ABANDONED = "abandoned"
    #: Returned (never delivered to callbacks) by *deferred* transports —
    #: real sockets cannot know the connect outcome synchronously, so
    #: ``send`` returns this placeholder and the final outcome arrives via
    #: the ``on_outcome`` callback.  The simulator never returns it.
    IN_FLIGHT = "in-flight"

    def __bool__(self) -> bool:
        return self is SendOutcome.DELIVERED

    @property
    def delivered(self) -> bool:
        return self is SendOutcome.DELIVERED

    @property
    def refused(self) -> bool:
        return self is SendOutcome.REFUSED

    @property
    def transient(self) -> bool:
        """True for outcomes a retry could plausibly fix."""
        return self in (SendOutcome.HOST_DOWN, SendOutcome.FAULT, SendOutcome.OVERLOADED)


class Payload(Protocol):
    """Anything sendable: must know its serialized size and kind."""

    def size_bytes(self) -> int: ...

    @property
    def kind(self) -> str: ...


Listener = Callable[[str, "Payload"], None]  # (src_site, payload) -> None

#: ``probe(src, payload) -> bool`` — True admits the payload; False turns the
#: connect into :attr:`SendOutcome.OVERLOADED` (admission control).
AdmissionProbe = Callable[[str, "Payload"], bool]

#: ``injector(src, dst, port, now) -> bool`` — True breaks the connect.
FaultInjector = Callable[[str, str, int, float], bool]


@dataclass(frozen=True, slots=True)
class NetworkConfig:
    """Latency/cost model parameters (abstract seconds and bytes).

    ``latency_base`` is the per-message setup cost; transfer time adds
    ``size / bandwidth``.  ``intra_site_latency`` applies when src == dst
    (loopback); WEBDIS forwards same-site clones without the network at all,
    so this only matters for baselines that centralize processing.

    ``latency_overrides`` replaces the base latency for specific directed
    ``(src, dst)`` pairs — the knob for modelling WAN/LAN asymmetry and for
    forcing *message reordering* in protocol tests (a slow path's report
    can then arrive after its children's reports).

    The timeout fields are the **one policy surface shared by both
    transport backends** (they used to live as scattered literals).  The
    simulator resolves connects synchronously and ignores them; the real
    asyncio backend (:mod:`repro.net.aio`) bounds every TCP connect with
    ``connect_timeout`` and every framed write's delivery ack with
    ``read_timeout`` (both wall-clock seconds), surfacing expiry as the
    transient ``SendOutcome`` the :class:`~repro.net.reliable.RetryPolicy`
    then retries.  ``max_frame_bytes`` caps one framed message on the wire
    (oversized frames abort the connection, see :mod:`repro.wire`).
    """

    latency_base: float = 0.050
    bandwidth: float = 100_000.0  # bytes per simulated second
    intra_site_latency: float = 0.001
    envelope_bytes: int = 64
    latency_overrides: Mapping[tuple[str, str], float] | None = None
    #: TCP connect budget on the real backend (wall seconds); expiry is
    #: HOST_DOWN, exactly like the simulator's crashed-site connects.
    connect_timeout: float = 1.0
    #: Delivery-ack budget per framed message on the real backend (wall
    #: seconds); expiry is FAULT — a transient wire fault, retryable.
    read_timeout: float = 2.0
    #: Per-frame size ceiling on the real backend.
    max_frame_bytes: int = 8 * 1024 * 1024

    def transfer_time(self, src: str, dst: str, size: int) -> float:
        if src == dst:
            return self.intra_site_latency
        base = self.latency_base
        if self.latency_overrides is not None:
            base = self.latency_overrides.get((src, dst), base)
        return base + size / self.bandwidth


class Network:
    """Message fabric between sites."""

    #: The simulator resolves every connect before ``send`` returns; real
    #: transports set this ``False`` and settle through ``on_outcome``.
    synchronous = True

    def __init__(
        self,
        clock: SimClock,
        stats: TrafficStats | None = None,
        config: NetworkConfig | None = None,
    ) -> None:
        self.clock = clock
        self.stats = stats if stats is not None else TrafficStats()
        self.config = config if config is not None else NetworkConfig()
        self._listeners: dict[tuple[str, int], Listener] = {}
        self._admission: dict[tuple[str, int], AdmissionProbe] = {}
        self._sites: set[str] = set()
        self._fail_once: list[tuple[str, str, int | None]] = []
        self._fault_injector: FaultInjector | None = None
        self._down_sites: set[str] = set()
        self._taps: list[Callable[[float, str, str, int, Payload], None]] = []

    def add_tap(self, tap: Callable[[float, str, str, int, "Payload"], None]) -> None:
        """Add an observer called for every successfully sent message.

        The tap sees ``(time, src, dst, port, payload)`` and must not mutate
        anything.  Multiple subsystems — the protocol journal, the DST
        harness's message-log fingerprint — can observe traffic
        simultaneously; taps fire in installation order.
        """
        self._taps.append(tap)

    def remove_tap(self, tap: Callable[[float, str, str, int, "Payload"], None]) -> None:
        """Remove a tap previously installed via :meth:`add_tap`.

        Taps match by equality, not identity: ``obj.method`` is a new bound
        method object on every access, and ``remove_tap(journal._record)``
        must still find the one ``add_tap`` got.
        """
        self._taps = [t for t in self._taps if t != tap]

    # -- topology ---------------------------------------------------------

    def register_site(self, site: str) -> None:
        """Declare that ``site`` exists (needed before listening/sending)."""
        self._sites.add(site)

    @property
    def sites(self) -> frozenset[str]:
        return frozenset(self._sites)

    # -- listeners (sockets) ----------------------------------------------

    def listen(self, site: str, port: int, listener: Listener) -> None:
        """Open a listening socket at ``site:port``."""
        if site not in self._sites:
            raise SimulationError(f"unknown site {site!r}; register it first")
        key = (site, port)
        if key in self._listeners:
            raise NetworkError(f"port {port} already bound at {site}")
        self._listeners[key] = listener

    def close(self, site: str, port: int) -> None:
        """Close the socket; later connects to it are refused (termination)."""
        self._listeners.pop((site, port), None)

    def is_listening(self, site: str, port: int) -> bool:
        return (site, port) in self._listeners

    def set_admission(self, site: str, port: int, probe: AdmissionProbe | None) -> None:
        """Install (or clear) an admission probe guarding ``site:port``.

        The probe is consulted after a connect reaches a live listener and
        before any bytes are accounted; rejecting returns
        :attr:`SendOutcome.OVERLOADED` to the sender, whose
        :class:`~repro.net.reliable.ReliableChannel` backs off and retries.
        """
        key = (site, port)
        if probe is None:
            self._admission.pop(key, None)
        else:
            self._admission[key] = probe

    # -- failure injection --------------------------------------------------

    def fail_next(self, src: str, dst: str, port: int | None = None) -> None:
        """Make the next ``src -> dst`` send fail (transient fault).

        With ``port`` given, only a send to that destination port trips the
        fault — necessary when one server talks to another site on several
        ports (e.g. a clone forward on :data:`QUERY_PORT` versus a result
        dispatch on the query's result port): a portless injection could hit
        the wrong one.
        """
        self._fail_once.append((src, dst, port))

    def set_fault_injector(self, injector: FaultInjector | None) -> None:
        """Install ``injector(src, dst, port, now) -> bool`` breaking connects.

        A :class:`repro.net.faults.FaultPlan` installs one from its rules.
        """
        self._fault_injector = injector

    # -- whole-site failures (crash / recovery, §7.1 future work) -----------

    def set_site_down(self, site: str) -> None:
        """Crash ``site``: every connect to it times out (HOST_DOWN) and
        in-flight deliveries to it are lost until :meth:`set_site_up`."""
        if site not in self._sites:
            raise SimulationError(f"cannot crash unregistered site {site!r}")
        self._down_sites.add(site)

    def set_site_up(self, site: str) -> None:
        """Bring ``site`` back; its listeners resume receiving."""
        self._down_sites.discard(site)

    def is_site_up(self, site: str) -> bool:
        return site not in self._down_sites

    def crash_site(self, site: str) -> None:
        """Hard-crash ``site``: mark it down *and* drop all its sockets.

        Unlike :meth:`set_site_down` alone, the site's listening sockets do
        not survive into recovery — a restarted process must re-bind them
        (``QueryServer.restart`` does).  In-flight deliveries are lost.
        """
        self.set_site_down(site)
        for key in [key for key in self._listeners if key[0] == site]:
            del self._listeners[key]

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
        """Attempt a connect + transfer of ``payload`` from ``src`` to ``dst:port``.

        Returns the connect's :class:`SendOutcome`.  On DELIVERED, delivery
        to the listener is scheduled after the modelled transfer time (but
        may still be lost if the listener closes or the site crashes before
        it — see :meth:`_deliver`).  The caller decides what each failure
        means; for WEBDIS, REFUSED means "do not forward" / "purge the
        query", while transient outcomes may be retried by a
        :class:`repro.net.reliable.ReliableChannel`.

        ``on_outcome`` is the backend-agnostic way to learn the outcome
        (see :class:`repro.net.transport.Transport`): the simulator invokes
        it inline with the same value it returns, so callers written
        against the deferred contract behave identically here.
        """
        outcome = self._send_impl(src, dst, port, payload)
        if on_outcome is not None:
            on_outcome(outcome)
        return outcome

    def _send_impl(self, src: str, dst: str, port: int, payload: Payload) -> SendOutcome:
        if src not in self._sites:
            raise SimulationError(f"send from unregistered site {src!r}")
        if dst not in self._sites:
            # Unknown destination host: behaves like a DNS failure / connect
            # timeout, which is what forwarding to a nonexistent site hits.
            self.stats.unknown_host_sends += 1
            return SendOutcome.HOST_DOWN
        if dst in self._down_sites:
            self.stats.down_sends += 1
            return SendOutcome.HOST_DOWN
        for index, (fsrc, fdst, fport) in enumerate(self._fail_once):
            if fsrc == src and fdst == dst and (fport is None or fport == port):
                del self._fail_once[index]
                self.stats.failed_sends += 1
                return SendOutcome.FAULT
        if self._fault_injector is not None and self._fault_injector(
            src, dst, port, self.clock.now
        ):
            self.stats.failed_sends += 1
            return SendOutcome.FAULT
        listener = self._listeners.get((dst, port))
        if listener is None:
            self.stats.refused_sends += 1
            return SendOutcome.REFUSED
        probe = self._admission.get((dst, port))
        if probe is not None and not probe(src, payload):
            self.stats.overloaded_sends += 1
            return SendOutcome.OVERLOADED
        size = payload.size_bytes() + self.config.envelope_bytes
        self.stats.record_send(src, payload.kind, size)
        for tap in self._taps:
            tap(self.clock.now, src, dst, port, payload)
        delay = self.config.transfer_time(src, dst, size)
        self.clock.schedule(delay, lambda: self._deliver(src, dst, port, payload))
        return SendOutcome.DELIVERED

    def _deliver(self, src: str, dst: str, port: int, payload: Payload) -> None:
        # The listener may have closed — or the whole site crashed — between
        # connect and delivery; in-flight data is then lost silently.
        if dst in self._down_sites:
            return
        listener = self._listeners.get((dst, port))
        if listener is not None:
            listener(src, payload)

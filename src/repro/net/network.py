"""The simulated network: sites, listeners, latency, failures.

Semantics mirror what the WEBDIS protocols rely on:

* ``send`` models a TCP connect + transfer.  The *connect* outcome is
  resolved inside ``send`` and reported to ``on_outcome`` before it returns
  (this is what Figure 3's "if dispatch of results is successful" tests,
  and what passive termination exploits when the user-site closes its
  listening socket); the *delivery* happens after the modelled latency.
* The connect outcome is a :class:`SendOutcome`, not a bare bool, because
  the protocols assign opposite meanings to different failures: a REFUSED
  connect is an *active* signal (the peer is up but not listening — passive
  termination, or a non-participating site), while HOST_DOWN and FAULT are
  *transient* conditions that a reliability layer may retry
  (:mod:`repro.net.reliable`).  Retrying a REFUSED connect is forbidden —
  it would erase the paper's zero-message termination protocol (§2.8).
* Every site hosts listeners on numbered ports.  Query-servers all listen on
  the common :data:`QUERY_PORT`; each user query opens its own result port.
  The port vocabulary, :class:`SendOutcome` and the port table live in
  :mod:`repro.net.transport`; they are re-exported here.
* Failure injection: one-shot scheduled failures (optionally per port), a
  port-aware fault injector (see :mod:`repro.net.faults` for the composable
  plan DSL), and whole-site crash/recovery.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping

from ..errors import SimulationError
from .simclock import SimClock
from .stats import TrafficStats
from .transport import (
    FIRST_RESULT_PORT,
    HELPER_PORT,
    QUERY_PORT,
    Listener,
    Payload,
    SendOutcome,
    Transport,
)

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
    simulator resolves connects at once and ignores them; the real
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


class Network(Transport):
    """Message fabric between sites."""

    def __init__(
        self,
        clock: SimClock,
        stats: TrafficStats | None = None,
        config: NetworkConfig | None = None,
    ) -> None:
        super().__init__()
        self.clock = clock
        self.stats = stats if stats is not None else TrafficStats()
        self.config = config if config is not None else NetworkConfig()
        self._fail_once: list[tuple[str, str, int | None]] = []
        self._fault_injector: FaultInjector | None = None
        self._down_sites: set[str] = set()

    def listen(self, site: str, port: int, listener: Listener) -> None:
        """Open a listening socket at ``site:port``."""
        self._check_bindable(site, port)
        self._listeners[(site, port)] = listener

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
    ) -> None:
        """Attempt a connect + transfer of ``payload`` from ``src`` to ``dst:port``.

        The connect's :class:`SendOutcome` goes to ``on_outcome`` before
        ``send`` returns.  On DELIVERED, delivery to the listener is
        scheduled after the modelled transfer time (but may still be lost if
        the listener closes or the site crashes before it — see
        :meth:`_deliver`).  The caller decides what each failure means; for
        WEBDIS, REFUSED means "do not forward" / "purge the query", while
        transient outcomes may be retried by a
        :class:`repro.net.reliable.ReliableChannel`.
        """
        if src not in self._sites:
            raise SimulationError(f"send from unregistered site {src!r}")
        stats = self.stats
        if dst not in self._sites:
            # Unknown destination host: behaves like a DNS failure / connect
            # timeout, which is what forwarding to a nonexistent site hits.
            stats.unknown_host_sends += 1
            outcome = SendOutcome.HOST_DOWN
        elif dst in self._down_sites:
            stats.down_sends += 1
            outcome = SendOutcome.HOST_DOWN
        elif self._faulted(src, dst, port):
            stats.failed_sends += 1
            outcome = SendOutcome.FAULT
        elif (dst, port) not in self._listeners:
            stats.refused_sends += 1
            outcome = SendOutcome.REFUSED
        elif (probe := self._admission.get((dst, port))) is not None and not probe(
            src, payload
        ):
            stats.overloaded_sends += 1
            outcome = SendOutcome.OVERLOADED
        else:
            size = payload.size_bytes() + self.config.envelope_bytes
            stats.record_send(src, payload.kind, size)
            for tap in self._taps:
                tap(self.clock.now, src, dst, port, payload)
            delay = self.config.transfer_time(src, dst, size)
            self.clock.schedule(delay, lambda: self._deliver(src, dst, port, payload))
            outcome = SendOutcome.DELIVERED
        if on_outcome is not None:
            on_outcome(outcome)

    def _faulted(self, src: str, dst: str, port: int) -> bool:
        """Whether a :meth:`fail_next` failure (used up) or the injector breaks it."""
        for index, (fsrc, fdst, fport) in enumerate(self._fail_once):
            if fsrc == src and fdst == dst and (fport is None or fport == port):
                del self._fail_once[index]
                return True
        injector = self._fault_injector
        return injector is not None and injector(src, dst, port, self.clock.now)

    def _deliver(self, src: str, dst: str, port: int, payload: Payload) -> None:
        # The listener may have closed — or the whole site crashed — between
        # connect and delivery; in-flight data is then lost silently.
        if dst in self._down_sites:
            return
        listener = self._listeners.get((dst, port))
        if listener is not None:
            listener(src, payload)

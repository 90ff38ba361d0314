"""The transport seam: what the WEBDIS protocols require from a network.

Every protocol component — :class:`~repro.core.server.QueryServer`,
:class:`~repro.core.client.UserSiteClient`,
:class:`~repro.net.reliable.ReliableChannel` — talks to the network through
this small surface: register sites, open/close listening ports, send a
payload to ``(site, port)`` and learn how the send settled, a
:class:`SendOutcome`, through its ``on_outcome`` callback.  ``send`` returns
nothing; the callback is the one way to learn an outcome.  Two
implementations subclass :class:`Transport`, which keeps the sites,
listeners, admission probes and taps they share:

* :class:`~repro.net.network.Network` — the deterministic discrete-event
  simulator: it resolves the connect inside ``send``, calling
  ``on_outcome`` inline, and delivery rides the
  :class:`~repro.net.simclock.SimClock`;
* :class:`~repro.net.aio.AsyncioTransport` — real TCP sockets on an asyncio
  event loop: ``on_outcome`` fires later, once an actual connect, a framed
  write and a delivery ack resolve the send.

Both implementations deliver messages to listeners as ``(src_site,
payload)`` and settle every send with exactly one final outcome, so the
protocol layer is transport-agnostic: the same :class:`ReliableChannel`
retry/backoff, the same Figure-3 dispatch-before-forward ordering, the same
self-healing supervisor run unchanged over either backend.

Refusal classification on real sockets
--------------------------------------

The simulator knows authoritatively whether a refused connect means
"nothing listens on that port" (REFUSED — the active passive-termination
signal, §2.8) or "the host is down" (HOST_DOWN — transient, retryable).  On
real sockets a frame for a port nothing listens on is answered with a
refuse record, and a crashed site's connect gets ``ECONNREFUSED``; neither
says which of the two it means, so the real backend applies a *port-role*
policy to the frame's port, :func:`refusal_outcome`:

* daemon ports (:data:`QUERY_PORT`, :data:`HELPER_PORT`) are expected to be
  listening for as long as their host is up, so a refused connect there
  means the server process is down — ``HOST_DOWN``, retryable;
* ephemeral result ports (>= :data:`FIRST_RESULT_PORT`) belong to the
  user-site client, which closes them *deliberately* to signal termination
  — ``REFUSED``, final, never retried.

This keeps the paper's zero-message termination protocol intact over real
sockets: a query-server whose result dispatch is refused purges the query,
exactly as in the simulator.
"""

from __future__ import annotations

import enum
from typing import Callable, Protocol

from ..errors import NetworkError, SimulationError
from .stats import TrafficStats

__all__ = ["Clock", "Transport", "DAEMON_PORTS", "refusal_outcome"]

#: The "common pre-specified port number" all query-servers listen on (§4.4).
QUERY_PORT = 4000

#: Port of the user-site central helper (hybrid engine, paper §7.1).
HELPER_PORT = 4500

#: First per-query result port the user-site client allocates (Figure 2's
#: ``receive_results`` socket).  Everything at or above this is an
#: ephemeral, query-scoped port; :func:`refusal_outcome` keys on it.
FIRST_RESULT_PORT = 5000

#: Ports expected to be bound whenever their host process is alive.
DAEMON_PORTS = frozenset({QUERY_PORT, HELPER_PORT})


class SendOutcome(enum.Enum):
    """How one send settled.

    The protocols assign opposite meanings to different failures, so
    callers that must tell termination apart from faults test the named
    predicates.
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

#: ``probe(src, payload) -> bool`` — True admits the payload; False settles
#: the send :attr:`SendOutcome.OVERLOADED` (admission control).
AdmissionProbe = Callable[[str, "Payload"], bool]

#: ``tap(time, src, dst, port, payload)`` — observes one delivered send.
Tap = Callable[[float, str, str, int, "Payload"], None]


def refusal_outcome(port: int) -> SendOutcome:
    """Classify a refused connect by the destination port's protocol role.

    See the module docstring: daemon ports refuse only when their process
    is down (``HOST_DOWN``); result ports refuse because the user-site
    closed them on purpose (``REFUSED`` — termination, never retried).
    Ports below :data:`FIRST_RESULT_PORT` that are not daemon ports get the
    conservative transient reading.
    """
    if port in DAEMON_PORTS:
        return SendOutcome.HOST_DOWN
    if port >= FIRST_RESULT_PORT:
        return SendOutcome.REFUSED
    return SendOutcome.HOST_DOWN


class Clock(Protocol):
    """What the protocol layer needs from a clock.

    :class:`~repro.net.simclock.SimClock` implements it over virtual time;
    :class:`~repro.net.aio.LoopClock` over the asyncio event loop's wall
    clock.  Timers are fire-and-forget: the protocols guard staleness with
    epochs, not by cancelling callbacks.
    """

    @property
    def now(self) -> float: ...

    def schedule(self, delay: float, callback: Callable[[], None]) -> None: ...

    def schedule_at(self, time: float, callback: Callable[[], None]) -> None: ...


class Transport:
    """The message fabric between sites, simulated or real.

    Keeps the port table both backends share — registered sites, listeners
    by ``(site, port)``, admission probes and taps.  A backend defines
    ``listen`` (after :meth:`_check_bindable`) and ``send``, which returns
    nothing: ``on_outcome`` — when supplied — fires exactly once per send
    with its final :class:`SendOutcome`.
    """

    stats: TrafficStats

    def __init__(self) -> None:
        self._sites: set[str] = set()
        self._listeners: dict[tuple[str, int], Listener] = {}
        self._admission: dict[tuple[str, int], AdmissionProbe] = {}
        self._taps: list[Tap] = []

    # -- observation ---------------------------------------------------------

    def add_tap(self, tap: Tap) -> None:
        """Add an observer called for every delivered send.

        The tap sees ``(time, src, dst, port, payload)`` and must not mutate
        anything.  Multiple subsystems — the protocol journal, the DST
        harness's message-log fingerprint — can observe traffic
        simultaneously; taps fire in installation order.
        """
        self._taps.append(tap)

    def remove_tap(self, tap: Tap) -> None:
        """Remove a tap previously installed via :meth:`add_tap`.

        Taps match by equality, not identity: ``obj.method`` is a new bound
        method object on every access, and ``remove_tap(journal._record)``
        must still find the one ``add_tap`` got.
        """
        self._taps = [t for t in self._taps if t != tap]

    # -- topology ------------------------------------------------------------

    def register_site(self, site: str) -> None:
        """Declare that ``site`` exists (needed before listening/sending)."""
        self._sites.add(site)

    @property
    def sites(self) -> frozenset[str]:
        return frozenset(self._sites)

    # -- listeners -----------------------------------------------------------

    def listen(self, site: str, port: int, listener: Listener) -> None:
        raise NotImplementedError

    def _check_bindable(self, site: str, port: int) -> None:
        """Raise unless ``site`` is registered and ``site:port`` is free."""
        if site not in self._sites:
            raise SimulationError(f"unknown site {site!r}; register it first")
        if (site, port) in self._listeners:
            raise NetworkError(f"port {port} already bound at {site}")

    def close(self, site: str, port: int) -> None:
        """Stop serving ``site:port``; later sends to it are refused.

        On a result port that refusal is the termination signal (§2.8).
        """
        self._listeners.pop((site, port), None)

    def is_listening(self, site: str, port: int) -> bool:
        return (site, port) in self._listeners

    def set_admission(self, site: str, port: int, probe: AdmissionProbe | None) -> None:
        """Install (or clear) an admission probe guarding ``site:port``.

        A payload the probe declines never reaches the listener: the send
        settles :attr:`SendOutcome.OVERLOADED`, and the sender's
        :class:`~repro.net.reliable.ReliableChannel` backs off and retries.
        """
        key = (site, port)
        if probe is None:
            self._admission.pop(key, None)
        else:
            self._admission[key] = probe

    # -- transfer ------------------------------------------------------------

    def send(
        self,
        src: str,
        dst: str,
        port: int,
        payload: Payload,
        *,
        on_outcome: Callable[[SendOutcome], None] | None = None,
    ) -> None:
        raise NotImplementedError

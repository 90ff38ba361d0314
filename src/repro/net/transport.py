"""The transport seam: what the WEBDIS protocols require from a network.

Every protocol component — :class:`~repro.core.server.QueryServer`,
:class:`~repro.core.client.UserSiteClient`,
:class:`~repro.net.reliable.ReliableChannel` — talks to the network through
this small surface: register sites, open/close listening ports, send a
payload to ``(site, port)`` and learn the connect's
:class:`~repro.net.network.SendOutcome`.  Two implementations exist:

* :class:`~repro.net.network.Network` — the deterministic discrete-event
  simulator (``synchronous = True``: the connect outcome is returned from
  ``send`` itself, and delivery rides the :class:`~repro.net.simclock.SimClock`);
* :class:`~repro.net.aio.AsyncioTransport` — real TCP sockets on an asyncio
  event loop (``synchronous = False``: ``send`` returns
  :data:`~repro.net.network.SendOutcome.IN_FLIGHT` and the real outcome —
  resolved by an actual connect, a framed write and a one-byte delivery
  ack — arrives later through the ``on_outcome`` callback).

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

* daemon ports (:data:`~repro.net.network.QUERY_PORT`,
  :data:`~repro.net.network.HELPER_PORT`) are expected to be listening for
  as long as their host is up, so a refused connect there means the server
  process is down — ``HOST_DOWN``, retryable;
* ephemeral result ports (>= :data:`~repro.net.network.FIRST_RESULT_PORT`)
  belong to the user-site client, which closes them *deliberately* to
  signal termination — ``REFUSED``, final, never retried.

This keeps the paper's zero-message termination protocol intact over real
sockets: a query-server whose result dispatch is refused purges the query,
exactly as in the simulator.
"""

from __future__ import annotations

from typing import Callable, Protocol, runtime_checkable

from .network import (
    FIRST_RESULT_PORT,
    HELPER_PORT,
    QUERY_PORT,
    Listener,
    Payload,
    SendOutcome,
)
from .stats import TrafficStats

__all__ = ["Clock", "Transport", "DAEMON_PORTS", "refusal_outcome"]

#: Ports expected to be bound whenever their host process is alive.
DAEMON_PORTS = frozenset({QUERY_PORT, HELPER_PORT})


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


@runtime_checkable
class Transport(Protocol):
    """The message fabric between sites, simulated or real.

    ``synchronous`` declares whether ``send`` resolves the connect outcome
    before returning (the simulator) or settles it later through
    ``on_outcome`` (real sockets, returning
    :data:`~repro.net.network.SendOutcome.IN_FLIGHT` immediately).  Either
    way ``on_outcome`` — when supplied — fires exactly once per send with
    the final connect outcome; callers that need the outcome must use the
    callback, not the return value, to stay backend-agnostic.
    """

    synchronous: bool
    stats: TrafficStats

    def register_site(self, site: str) -> None: ...

    @property
    def sites(self) -> frozenset[str]: ...

    def listen(self, site: str, port: int, listener: Listener) -> None: ...

    def close(self, site: str, port: int) -> None: ...

    def is_listening(self, site: str, port: int) -> bool: ...

    def set_admission(
        self, site: str, port: int, probe: Callable[[str, Payload], bool] | None
    ) -> None: ...

    def send(
        self,
        src: str,
        dst: str,
        port: int,
        payload: Payload,
        *,
        on_outcome: Callable[[SendOutcome], None] | None = None,
    ) -> SendOutcome: ...

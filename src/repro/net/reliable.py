"""Reliable transport: retry/backoff on top of the raw network.

The WEBDIS protocols (and the paper's §7.1 open problem of node failures)
need one missing layer: a channel that distinguishes *what kind* of connect
failure occurred and retries only the transient kinds.  The policy mirrors
per-hop retry/timeout layers in distributed XQuery network specs:

* DELIVERED — done;
* REFUSED — **final, never retried**.  A refused connect is the active
  signal passive termination (§2.8) and the §7.1 participation test are
  built on; retrying it would turn "the user cancelled" into "try again
  later" and break both protocols;
* HOST_DOWN / FAULT / OVERLOADED — transient: retried with exponential
  backoff and seeded jitter on the simulation clock, up to the policy's
  attempt budget and deadline.  OVERLOADED (admission control: the
  receiver is alive but its queues are full) additionally counts as a
  *deferral* — the backoff is the backpressure.  Exhaustion is reported to
  the caller, who falls back to the protocol's existing failure paths
  (CHT retraction, purge).

Everything is deterministic: jitter comes from a ``random.Random`` seeded
from the policy seed plus the channel's name, and retries are ordinary
clock events.  The generator is built on a channel's first retry: its
seeding is the dearest part of a channel, and most channels never retry.

The channel runs over any :class:`~repro.net.transport.Transport`.  On the
synchronous simulator each attempt's outcome is known when ``send``
returns; on a deferred backend (real sockets) the outcome arrives through
the transport's ``on_outcome`` callback and ``send`` returns
:data:`~repro.net.network.SendOutcome.IN_FLIGHT` — either way the retry
loop and the caller's ``on_final`` behave identically.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

from .network import Payload, SendOutcome

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .transport import Clock, Transport

__all__ = ["RetryPolicy", "ReliableChannel"]

#: Callback receiving the final outcome of a reliable send: DELIVERED,
#: REFUSED, the last transient outcome once retries are exhausted, or
#: ABANDONED when the channel was reset while the send awaited a retry.
FinalCallback = Callable[[SendOutcome], None]


@dataclass(frozen=True, slots=True)
class RetryPolicy:
    """Retry budget and backoff shape for one :class:`ReliableChannel`.

    ``max_attempts`` counts every connect, including the first; 1 disables
    retrying.  The delay before retry *n* is
    ``base_delay * multiplier**(n-1)`` capped at ``max_delay``, then
    jittered by up to ±``jitter`` (a fraction).  ``deadline`` bounds the
    total elapsed time since the first attempt: a retry that would fire
    past it is not scheduled.
    """

    max_attempts: int = 5
    base_delay: float = 0.05
    multiplier: float = 2.0
    max_delay: float = 2.0
    jitter: float = 0.5
    deadline: float | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {self.max_attempts}")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError(f"jitter must be in [0, 1], got {self.jitter}")

    def backoff(self, attempt: int, rng: random.Random) -> float:
        """Delay before attempt ``attempt + 1`` (``attempt`` just failed)."""
        delay = min(self.base_delay * self.multiplier ** (attempt - 1), self.max_delay)
        if self.jitter:
            delay *= 1.0 + self.jitter * (2.0 * rng.random() - 1.0)
        return max(delay, 0.0)


class ReliableChannel:
    """Connect-with-retry over one :class:`~repro.net.transport.Transport`.

    On the simulator ``send`` performs the first connect synchronously and
    returns its outcome, so existing dispatch-before-forward ordering still
    observes immediate REFUSED/DELIVERED results.  On a deferred backend
    ``send`` returns :data:`~repro.net.network.SendOutcome.IN_FLIGHT` and
    settles later.  Either way, when the outcome is transient and the
    policy allows, retries are scheduled on the clock; ``on_final`` fires
    exactly once with the final outcome (synchronously when the backend is
    synchronous and no retry is needed).

    With ``policy=None`` the channel is a passthrough — a single attempt
    whose transient failure is immediately final — which reproduces the
    pre-reliability protocol behaviour exactly.
    """

    def __init__(
        self,
        network: "Transport",
        clock: "Clock",
        policy: RetryPolicy | None = None,
        *,
        name: str = "",
        trace: Callable[[str, str], None] | None = None,
    ) -> None:
        self.network = network
        self.clock = clock
        self.policy = policy
        self.stats = network.stats
        self._seed = f"{policy.seed if policy is not None else 0}:{name}"
        self._rng: random.Random | None = None  # built on the first retry
        self._trace = trace
        self._send_serial = 0
        #: Unsettled sends: key -> (on_final, tag).  Registered *before*
        #: the transport attempt (a deferred backend may settle — or the
        #: channel may be reset — while the connect is in flight) and
        #: removed on the final outcome.  A key removed by :meth:`reset`
        #: makes any scheduled retry or late transport callback a no-op.
        self._pending: dict[int, tuple[FinalCallback | None, object]] = {}

    def pending_sends(self, tag: object | None = None) -> int:
        """Sends not yet settled — awaiting a scheduled retry or, on a
        deferred backend, an in-flight connect (optionally by tag)."""
        if tag is None:
            return len(self._pending)
        return sum(1 for __, t in self._pending.values() if t == tag)

    def reset(self, tag: object | None = None) -> int:
        """Abandon scheduled retries; their ``on_final`` fires with ABANDONED.

        Used on server crash (a dead process does not keep retrying) and on
        query cancellation (retries aimed at a closed result port are
        pointless).  With ``tag`` given, only sends carrying that tag are
        abandoned — so cancelling one query leaves another query's retries
        running on a shared channel.  Every abandoned send's ``on_final``
        is invoked exactly once with :data:`SendOutcome.ABANDONED`, so no
        caller waits forever on a send that will never settle.  Returns the
        number of sends abandoned.
        """
        if tag is None:
            doomed = list(self._pending.keys())
        else:
            doomed = [key for key, (__, t) in self._pending.items() if t == tag]
        for key in doomed:
            on_final, __ = self._pending.pop(key)
            self.stats.sends_abandoned += 1
            if self._trace is not None:
                self._trace("send-abandoned", f"serial {key}")
            if on_final is not None:
                on_final(SendOutcome.ABANDONED)
        return len(doomed)

    def send(
        self,
        src: str,
        dst: str,
        port: int,
        payload: Payload,
        on_final: FinalCallback | None = None,
        *,
        tag: object | None = None,
    ) -> SendOutcome:
        """Reliably send ``payload``; returns the *first* attempt's outcome
        (or :data:`SendOutcome.IN_FLIGHT` on a deferred backend).

        ``tag`` labels the send for selective :meth:`reset` (e.g. the qid of
        the query the send belongs to).
        """
        self._send_serial += 1
        return self._attempt(
            src, dst, port, payload, on_final,
            attempt=1, started=self.clock.now, key=self._send_serial, tag=tag,
        )

    # -- internals -----------------------------------------------------------

    def _attempt(
        self,
        src: str,
        dst: str,
        port: int,
        payload: Payload,
        on_final: FinalCallback | None,
        attempt: int,
        started: float,
        key: int,
        tag: object | None,
    ) -> SendOutcome:
        # Register the pending entry *before* the transport attempt: on a
        # deferred backend the connect may still be in flight when a crash
        # or cancellation calls reset(), and the entry is what lets the
        # abandonment win (the late transport callback then no-ops).
        self._pending[key] = (on_final, tag)
        first: list[SendOutcome] = []

        def settle(outcome: SendOutcome) -> None:
            first.append(outcome)
            self._settle(
                src, dst, port, payload, on_final, attempt, started, key, tag, outcome
            )

        self.network.send(src, dst, port, payload, on_outcome=settle)
        return first[0] if first else SendOutcome.IN_FLIGHT

    def _settle(
        self,
        src: str,
        dst: str,
        port: int,
        payload: Payload,
        on_final: FinalCallback | None,
        attempt: int,
        started: float,
        key: int,
        tag: object | None,
        outcome: SendOutcome,
    ) -> None:
        if key not in self._pending:
            return  # reset() abandoned this send mid-connect: on_final fired
        if not outcome.transient:
            # DELIVERED or REFUSED: final either way.  REFUSED is the
            # termination/participation signal and is deliberately never
            # retried, no matter the policy.
            self._pending.pop(key, None)
            if outcome.delivered and attempt > 1 and self._trace is not None:
                self._trace("retry-delivered", f"{dst}:{port} attempt {attempt}")
            if on_final is not None:
                on_final(outcome)
            return
        if self._retry_allowed(attempt, started):
            rng = self._rng
            if rng is None:
                rng = self._rng = random.Random(self._seed)
            delay = self.policy.backoff(attempt, rng)
            if (
                self.policy.deadline is None
                or (self.clock.now + delay) - started <= self.policy.deadline
            ):
                self.stats.retried_sends += 1
                if outcome is SendOutcome.OVERLOADED:
                    # Backpressure: the receiver is alive but full, so this
                    # backoff is a deferral, not a fault recovery.
                    self.stats.sends_deferred += 1
                if self._trace is not None:
                    self._trace(
                        "retry-scheduled",
                        f"{dst}:{port} attempt {attempt + 1} in {delay:.3f}s"
                        f" ({outcome.value})",
                    )
                self.clock.schedule(
                    delay,
                    lambda: self._fire(
                        src, dst, port, payload, on_final, attempt + 1, started, key, tag
                    ),
                )
                return
        self._pending.pop(key, None)
        if self.policy is not None:
            self.stats.retries_exhausted += 1
            if self._trace is not None:
                self._trace(
                    "retries-exhausted",
                    f"{dst}:{port} after {attempt} attempt(s) ({outcome.value})",
                )
        if on_final is not None:
            on_final(outcome)

    def _retry_allowed(self, attempt: int, started: float) -> bool:
        return self.policy is not None and attempt < self.policy.max_attempts

    def _fire(
        self,
        src: str,
        dst: str,
        port: int,
        payload: Payload,
        on_final: FinalCallback | None,
        attempt: int,
        started: float,
        key: int,
        tag: object | None,
    ) -> None:
        if key not in self._pending:
            return  # abandoned by reset (crash/cancel): on_final already fired
        self._attempt(src, dst, port, payload, on_final, attempt, started, key, tag)

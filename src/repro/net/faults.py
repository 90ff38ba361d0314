"""A seeded, composable fault-injection plan DSL.

A bare :meth:`~repro.net.network.Network.set_fault_injector` callable
cannot be combined, reused, described or replayed on real sockets.  A
:class:`FaultPlan` is a declarative bundle of fault rules sharing one
seeded RNG:

* :meth:`drop` — per-edge drop probability, optionally filtered by source,
  destination, port and a time window;
* :meth:`flaky` — sugar for a guaranteed-drop window on one directed edge;
* :meth:`partition` — all connects crossing between two site groups fail
  during a window (both directions);
* :meth:`crash` — schedule a query-server crash (and optional restart) on
  the engine.

``install`` wires the message rules into the network's port-aware fault
injector and the crash schedule onto the engine.  Every probabilistic
decision draws from ``random.Random(seed)`` in event order, so a plan
replays identically on the deterministic simulator.  Both fault paths —
the simulator's injector and the socket receive loop's
:meth:`~repro.net.chaos.ChaosRules.verdict` — decide a message with the
one matcher :func:`drops_message`.

Injected message faults surface as ``SendOutcome.FAULT`` — transient, hence
retryable by a :class:`repro.net.reliable.ReliableChannel`; crashes surface
as ``SendOutcome.HOST_DOWN`` while the site is down.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterable, Protocol

from ..errors import SimulationError
from .network import Network

__all__ = ["DropRule", "PartitionRule", "CrashRule", "FaultPlan", "drops_message"]


class _CrashableEngine(Protocol):
    """What :meth:`FaultPlan.install` needs from an engine for crash rules."""

    def crash_server(self, site: str, at: float | None = None) -> None: ...

    def restart_server(self, site: str, at: float | None = None) -> None: ...


@dataclass(frozen=True, slots=True)
class DropRule:
    """Drop matching connects with ``probability`` inside ``[start, end)``."""

    probability: float
    src: str | None = None
    dst: str | None = None
    port: int | None = None
    start: float = 0.0
    end: float | None = None

    def matches(self, src: str, dst: str, port: int, now: float) -> bool:
        return (
            (self.src is None or self.src == src)
            and (self.dst is None or self.dst == dst)
            and (self.port is None or self.port == port)
            and now >= self.start
            and (self.end is None or now < self.end)
        )


@dataclass(frozen=True, slots=True)
class PartitionRule:
    """Sever all connects crossing between two site groups (both ways)."""

    group_a: frozenset[str]
    group_b: frozenset[str]
    start: float = 0.0
    end: float | None = None

    def severs(self, src: str, dst: str, now: float) -> bool:
        if now < self.start or (self.end is not None and now >= self.end):
            return False
        return (src in self.group_a and dst in self.group_b) or (
            src in self.group_b and dst in self.group_a
        )


@dataclass(frozen=True, slots=True)
class CrashRule:
    """Crash ``site``'s query-server at ``at``; restart at ``restart_at``."""

    site: str
    at: float
    restart_at: float | None = None


def drops_message(
    rng: random.Random,
    drops: Iterable[DropRule],
    partitions: Iterable[PartitionRule],
    src: str,
    dst: str,
    port: int,
    now: float,
) -> bool:
    """Whether the rules break one message: partitions first, then one draw
    per matching drop rule (``p = 1.0`` rules draw too) until one fires.

    The draw sequence is part of every simulator fingerprint: change it and
    every seeded DST replay changes.
    """
    for rule in partitions:
        if rule.severs(src, dst, now):
            return True
    for rule in drops:
        if rule.matches(src, dst, port, now) and rng.random() < rule.probability:
            return True
    return False


class FaultPlan:
    """A reproducible bundle of fault rules.  Builder methods chain."""

    def __init__(self, seed: int = 0) -> None:
        self.seed = seed
        self._drops: list[DropRule] = []
        self._partitions: list[PartitionRule] = []
        self._crashes: list[CrashRule] = []

    # -- builders -----------------------------------------------------------

    def drop(
        self,
        probability: float,
        *,
        src: str | None = None,
        dst: str | None = None,
        port: int | None = None,
        start: float = 0.0,
        end: float | None = None,
    ) -> "FaultPlan":
        """Drop matching connects with ``probability`` (0..1)."""
        if not 0.0 <= probability <= 1.0:
            raise SimulationError(f"drop probability must be in [0, 1], got {probability}")
        self._drops.append(DropRule(probability, src, dst, port, start, end))
        return self

    def flaky(
        self,
        src: str | None = None,
        dst: str | None = None,
        *,
        start: float,
        end: float,
        probability: float = 1.0,
    ) -> "FaultPlan":
        """A time window during which the (src, dst) edge is broken."""
        return self.drop(probability, src=src, dst=dst, start=start, end=end)

    def partition(
        self,
        group_a: Iterable[str],
        group_b: Iterable[str],
        *,
        start: float = 0.0,
        end: float | None = None,
    ) -> "FaultPlan":
        """Sever every connect between the two groups during the window."""
        self._partitions.append(
            PartitionRule(frozenset(group_a), frozenset(group_b), start, end)
        )
        return self

    def crash(
        self, site: str, *, at: float, restart_at: float | None = None
    ) -> "FaultPlan":
        """Crash ``site``'s query-server at ``at`` (restarting if asked)."""
        if restart_at is not None and restart_at <= at:
            raise SimulationError(f"restart_at {restart_at} must follow crash at {at}")
        self._crashes.append(CrashRule(site, at, restart_at))
        return self

    # -- rule inspection -----------------------------------------------------
    # Read-only views used by the real-socket backend to translate the plan
    # into receive-loop chaos rules and kill/restart schedules (repro.net.chaos).

    @property
    def drops(self) -> tuple[DropRule, ...]:
        return tuple(self._drops)

    @property
    def partitions(self) -> tuple[PartitionRule, ...]:
        return tuple(self._partitions)

    @property
    def crashes(self) -> tuple[CrashRule, ...]:
        return tuple(self._crashes)

    # -- installation --------------------------------------------------------

    def install(self, network: Network, engine: _CrashableEngine | None = None) -> None:
        """Activate the plan: message rules on ``network``, crashes on ``engine``.

        Replaces any previously installed fault injector.  Crash rules need
        the engine (they touch server state, not just the network).
        """
        if self._crashes and engine is None:
            raise SimulationError("a FaultPlan with crash rules needs the engine")
        rng = random.Random(self.seed)
        drops = tuple(self._drops)
        partitions = tuple(self._partitions)

        def injector(src: str, dst: str, port: int, now: float) -> bool:
            return drops_message(rng, drops, partitions, src, dst, port, now)

        if drops or partitions:
            network.set_fault_injector(injector)
        for crash in self._crashes:
            engine.crash_server(crash.site, at=crash.at)
            if crash.restart_at is not None:
                engine.restart_server(crash.site, at=crash.restart_at)

    def describe(self) -> str:
        """One line per rule — chaos benches print this next to results."""
        lines = [f"FaultPlan(seed={self.seed})"]
        for rule in self._drops:
            edge = f"{rule.src or '*'} -> {rule.dst or '*'}"
            port = f":{rule.port}" if rule.port is not None else ""
            window = "" if rule.end is None else f" in [{rule.start}, {rule.end})"
            lines.append(f"  drop p={rule.probability} {edge}{port}{window}")
        for rule in self._partitions:
            window = "" if rule.end is None else f" in [{rule.start}, {rule.end})"
            lines.append(
                f"  partition {sorted(rule.group_a)} | {sorted(rule.group_b)}{window}"
            )
        for rule in self._crashes:
            restart = "" if rule.restart_at is None else f", restart at {rule.restart_at}"
            lines.append(f"  crash {rule.site} at {rule.at}{restart}")
        return "\n".join(lines)

"""The WEBDIS engine over real sockets.

``AsyncioWebDisEngine`` assembles the same deployment as
:class:`~repro.core.engine.WebDisEngine` — one
:class:`~repro.core.server.QueryServer` per participating site plus a
:class:`~repro.core.client.UserSiteClient` — but wires them to an
:class:`~repro.net.aio.AsyncioTransport` instead of the simulator: every
site listens on a real ``127.0.0.1`` TCP port, every clone forward and
result report is a framed message over a real connection, and time is the
event loop's wall clock (:class:`~repro.net.aio.LoopClock`).  The protocol
objects are byte-for-byte the same classes the simulator runs; only the
transport seam differs — which is the point: self-healing proved here is
proved off the simulator.

Must be constructed (and driven) inside a running event loop::

    async def main():
        engine = AsyncioWebDisEngine(build_campus_web())
        handle = engine.submit_disql(CAMPUS_QUERY_DISQL)
        await engine.run([handle])
        await engine.aclose()

Chaos goes in at construction (``chaos=ChaosRules.from_plan(plan)``) so
every frame any listener receives gets a seeded verdict in the transport's
receive loop (:mod:`repro.net.chaos`); :meth:`apply_chaos_crashes` schedules the plan's kill/restart rules as real
socket teardowns.  Unlike the simulator there is no global quiescence:
:meth:`run` waits for the handles' terminal transitions under a wall-clock
timeout, and a :class:`~repro.core.supervisor.QuerySupervisor` (same class,
same policy) provides the re-forward→degrade path under real faults.

Two simulator-only conveniences are rejected here rather than silently
misbehaving: ``central_fallback`` (its legacy call site reads the
*synchronous* send outcome, which a deferred transport cannot provide) and
fault plans installed via ``apply_faults`` (use ``chaos=``).
"""

from __future__ import annotations

import asyncio
from typing import Iterable

from ..errors import SimulationError
from ..net.aio import AsyncioTransport, LoopClock, PortMap
from ..net.chaos import ChaosRules
from ..net.network import NetworkConfig
from ..net.stats import TrafficStats
from ..web.web import Web
from .client import QueryHandle, QueryStatus
from .config import EngineConfig
from .engine import DEFAULT_USER_SITE, EngineBase

__all__ = ["AsyncioWebDisEngine"]


class AsyncioWebDisEngine(EngineBase):
    """One runnable WEBDIS deployment over real asyncio sockets.

    Submission, cancellation, crash/restart and introspection are
    :class:`~repro.core.engine.EngineBase`'s.
    """

    def __init__(
        self,
        web: Web,
        *,
        config: EngineConfig | None = None,
        net_config: NetworkConfig | None = None,
        user_site: str = DEFAULT_USER_SITE,
        user: str = "maya",
        participating_sites: Iterable[str] | None = None,
        trace: bool = False,
        chaos: ChaosRules | None = None,
        port_map: PortMap | None = None,
    ) -> None:
        config = config if config is not None else EngineConfig()
        if config.central_fallback:
            raise SimulationError(
                "central_fallback reads the synchronous send outcome and is "
                "not supported on the asyncio transport"
            )
        clock = LoopClock()
        stats = TrafficStats()
        super().__init__(
            web,
            config,
            clock,
            stats,
            AsyncioTransport(clock, stats, net_config, chaos=chaos, port_map=port_map),
            user_site=user_site,
            user=user,
            participating_sites=participating_sites,
            trace=trace,
        )
        self.chaos = chaos
        #: What every :meth:`run` in progress waits on; resolved (and then
        #: replaced) each time a query leaves RUNNING.
        self._terminal: asyncio.Future | None = None
        self.client.on_terminal = self._wake_runs

    # -- execution -----------------------------------------------------------

    async def run(
        self,
        handles: Iterable[QueryHandle],
        *,
        timeout: float = 60.0,
    ) -> float:
        """Wait until every handle reaches a terminal status.

        There is no quiescence signal on real sockets, so this waits for
        the terminal transitions themselves — completion fires on the
        report that exactly empties the CHT, escalation on a supervisor
        timer, cancellation on the call — and looks at the handles again
        after each.  Raises :class:`SimulationError` with the stuck handles
        after ``timeout`` wall seconds — a run that trips it without a
        supervisor usually just needs one.  Returns elapsed wall-clock
        seconds.
        """
        pending = list(handles)
        started = self.clock.now
        while True:
            pending = [h for h in pending if h.status is QueryStatus.RUNNING]
            if not pending:
                return self.clock.now - started
            remaining = started + timeout - self.clock.now
            if remaining <= 0:
                stuck = ", ".join(str(h.qid) for h in pending)
                raise SimulationError(
                    f"run timed out after {timeout}s; still RUNNING: {stuck}"
                )
            if self._terminal is None or self._terminal.done():
                self._terminal = asyncio.get_running_loop().create_future()
            try:
                # Shielded: the future is shared by every run() in progress,
                # and one of them timing out must not cancel it for the rest.
                await asyncio.wait_for(asyncio.shield(self._terminal), remaining)
            except asyncio.TimeoutError:
                pass  # the check above raises, with the handles still stuck

    def _wake_runs(self, handle: QueryHandle) -> None:
        if self._terminal is not None and not self._terminal.done():
            self._terminal.set_result(None)

    def apply_faults(self, plan) -> None:
        raise SimulationError(
            "FaultPlan.install targets the simulator; pass "
            "chaos=ChaosRules.from_plan(plan) at construction and call "
            "apply_chaos_crashes() instead"
        )

    def apply_chaos_crashes(self) -> None:
        """Schedule the chaos rules' crash/restart draws as real teardowns."""
        if self.chaos is None:
            return
        for site, kill_at, restart_at in self.chaos.crash_schedule():
            self.crash_server(site, at=kill_at)
            if restart_at is not None:
                self.restart_server(site, at=restart_at)

    # -- lifecycle ----------------------------------------------------------

    async def aclose(self) -> None:
        """Close every socket and cancel in-flight transport tasks."""
        await self.network.aclose()

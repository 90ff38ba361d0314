"""The WEBDIS engine façade.

``WebDisEngine`` assembles one complete deployment: a simulated
:class:`~repro.web.web.Web`, a :class:`~repro.net.network.Network` over a
:class:`~repro.net.simclock.SimClock`, one
:class:`~repro.core.server.QueryServer` per participating site, and a
:class:`~repro.core.client.UserSiteClient`.  Typical use::

    engine = WebDisEngine(build_campus_web(), trace=True)
    handle = engine.submit_disql(CAMPUS_QUERY_DISQL)
    engine.run()
    for row in handle.unique_rows("q2"):
        print(row)

``participating_sites`` restricts which sites run query-servers — sites
outside the set refuse query connections, which the hybrid engine
(:mod:`repro.baselines.hybrid`) uses to model the paper's Section 7.1
migration path.
"""

from __future__ import annotations

from typing import Iterable

from ..disql.translate import compile_disql
from ..errors import SimulationError
from ..net.network import Network, NetworkConfig
from ..net.simclock import SimClock
from ..net.stats import TrafficStats
from ..web.web import Web
from .client import QueryHandle, UserSiteClient
from .config import EngineConfig
from .server import QueryServer
from .trace import Tracer
from .webquery import WebQuery

__all__ = ["EngineBase", "WebDisEngine", "DEFAULT_USER_SITE", "build_engine"]

DEFAULT_USER_SITE = "user.example"


def build_engine(web: Web, *, config: EngineConfig | None = None, **kwargs):
    """Assemble an engine for ``config.transport``.

    ``"sim"`` (default) returns the deterministic :class:`WebDisEngine`;
    ``"asyncio"`` returns an
    :class:`~repro.core.aio_engine.AsyncioWebDisEngine` — which must be
    constructed inside a running event loop and accepts the extra
    ``chaos=`` / ``port_map=`` keywords.  Extra keyword arguments pass
    through to the chosen engine class.
    """
    config = config if config is not None else EngineConfig()
    if config.transport == "sim":
        return WebDisEngine(web, config=config, **kwargs)
    if config.transport == "asyncio":
        from .aio_engine import AsyncioWebDisEngine

        return AsyncioWebDisEngine(web, config=config, **kwargs)
    raise SimulationError(
        f"unknown transport {config.transport!r}; expected 'sim' or 'asyncio'"
    )


class EngineBase:
    """Site/server/client wiring and the operations both transports share.

    A subclass builds its clock and transport and hands them here; one
    :class:`~repro.core.server.QueryServer` per participating site and the
    :class:`~repro.core.client.UserSiteClient` are wired to them.
    """

    def __init__(
        self,
        web: Web,
        config: EngineConfig,
        clock,
        stats: TrafficStats,
        network,
        *,
        user_site: str,
        user: str,
        participating_sites: Iterable[str] | None,
        trace: bool,
    ) -> None:
        self.web = web
        self.config = config
        self.clock = clock
        self.stats = stats
        self.tracer = Tracer(enabled=trace)
        self.network = network
        self.user_site = user_site

        participating = (
            set(web.site_names)
            if participating_sites is None
            else {name.lower() for name in participating_sites}
        )
        network.register_site(user_site)
        self.servers: dict[str, QueryServer] = {}
        for site in web.site_names:
            network.register_site(site)
            if site in participating:
                self.servers[site] = QueryServer(
                    site, web, network, clock, config, stats, self.tracer
                )
        self.client = UserSiteClient(
            user_site, network, clock, stats, self.tracer, config, user
        )

    # -- submission ---------------------------------------------------------------

    def submit(self, query: WebQuery, on_result=None, on_complete=None) -> QueryHandle:
        """Submit a pre-built web-query (optionally with streaming hooks)."""
        return self.client.submit(query, on_result, on_complete)

    def submit_disql(
        self, text: str, on_result=None, on_complete=None, search_index=None
    ) -> QueryHandle:
        """Parse, translate and submit a DISQL query.

        ``search_index`` resolves ``index("keywords", k)`` StartNode sources
        (§1.1's automated pipeline, surfaced in the language).
        """
        return self.submit(
            compile_disql(text, search_index=search_index), on_result, on_complete
        )

    def cancel(self, handle: QueryHandle, at: float | None = None) -> None:
        """Cancel ``handle`` now, or schedule the cancellation at time ``at``."""
        if at is None:
            self.client.cancel(handle)
        else:
            self.clock.schedule_at(at, lambda: self.client.cancel(handle))

    # -- crash / recovery (§7.1 open problem) ------------------------------------

    def crash_server(self, site: str, at: float | None = None) -> None:
        """Crash ``site``'s query-server host now (or at time ``at``).

        The host goes down (connects to it return HOST_DOWN on the
        simulator, are refused on real sockets; in-flight deliveries to it
        are lost), its sockets are dropped, and the server process loses
        all volatile state: queue, log table, document store and pending
        retries.  Queries whose clones die inside the crash are recovered by
        sender-side retries (the connect never succeeded), by the client's
        :meth:`~repro.core.client.UserSiteClient.reforward_pending` (the
        connect succeeded but the clone was lost), or by retraction.
        """
        site = site.lower()
        server = self._server_or_raise(site)
        if at is not None:
            self.clock.schedule_at(at, lambda: self.crash_server(site))
            return
        self.network.crash_site(site)
        server.crash()

    def restart_server(self, site: str, at: float | None = None) -> None:
        """Restart a crashed query-server now (or at time ``at``).

        The host comes back up and the server re-binds its query port with
        a blank state — exactly what a process restart provides.  (On real
        sockets "up" *is* the re-bind: a fresh real port the port map
        re-points to, so ``set_site_up`` is a no-op there.)
        """
        site = site.lower()
        server = self._server_or_raise(site)
        if at is not None:
            self.clock.schedule_at(at, lambda: self.restart_server(site))
            return
        self.network.set_site_up(site)
        server.restart()

    def advance_memo_epoch(self) -> None:
        """Bump every server's web epoch (EXP-P4 seam).

        Explicit, deployment-wide invalidation of memo and document store:
        nothing cached before the bump can ever be served after it.  The
        hook a future live-web mutation source drives; today tests and
        operators call it to model "the web changed" without a crash.
        """
        for server in self.servers.values():
            server.advance_memo_epoch()

    def _server_or_raise(self, site: str) -> QueryServer:
        server = self.servers.get(site)
        if server is None:
            raise SimulationError(f"no query-server at {site!r}")
        return server

    # -- introspection -----------------------------------------------------------------

    def server_for(self, site: str) -> QueryServer:
        return self.servers[site.lower()]

    def total_log_entries(self) -> int:
        return sum(server.log_table.entry_count() for server in self.servers.values())


class WebDisEngine(EngineBase):
    """One runnable WEBDIS deployment over a simulated web.

    Submission, cancellation, crash/restart and introspection are
    :class:`EngineBase`'s.
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
    ) -> None:
        clock = SimClock()
        stats = TrafficStats()
        super().__init__(
            web,
            config if config is not None else EngineConfig(),
            clock,
            stats,
            Network(clock, stats, net_config),
            user_site=user_site,
            user=user,
            participating_sites=participating_sites,
            trace=trace,
        )

    # -- execution ------------------------------------------------------------------

    def run(self, until: float | None = None) -> float:
        """Drive the simulation until quiescence (or virtual time ``until``)."""
        return self.clock.run(until)

    def run_query(self, disql_text: str) -> QueryHandle:
        """Submit DISQL and run to completion — the one-call happy path."""
        handle = self.submit_disql(disql_text)
        self.run()
        return handle

    def apply_faults(self, plan) -> None:
        """Install a :class:`~repro.net.faults.FaultPlan` on this deployment."""
        plan.install(self.network, self)

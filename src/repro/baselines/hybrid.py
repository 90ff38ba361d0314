"""The hybrid engine — the paper's Section 7.1 migration path.

"Queries related to documents on [non-participating] web-servers can be
handled in the traditional manner by retrieving all documents from the
remote site and then applying the query predicates locally at the
user-site.  Therefore, we can expect a gradual migration path ... from a
largely centralized to a fully distributed system."

Mechanics:

* participating sites run normal :class:`~repro.core.server.QueryServer`
  daemons;
* every site serves plain documents (:mod:`repro.baselines.docservice`);
* a :class:`CentralProcessor` at the user-site accepts clones whose
  destination sites refused the query connection, *downloads* their
  documents, processes them locally with the identical per-node logic, and
  resumes query-shipping for forwards that target participating sites.

Sweeping the participation fraction from 0 to 1 interpolates between the
data-shipping and query-shipping cost profiles (bench EXP-C7).
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import replace
from typing import Iterable

from ..core.config import EngineConfig
from ..core.engine import DEFAULT_USER_SITE, WebDisEngine
from ..core.logtable import NodeQueryLogTable
from ..core.messages import ChtEntry, CloneBundle, Disposition, NodeReport, ResultMessage
from ..core.plancache import PlanCache
from ..core.server import CloneProcessor
from ..core.trace import Tracer
from ..core.webquery import QueryClone, QueryId
from ..model.database import DatabaseConstructor
from ..net.network import HELPER_PORT, QUERY_PORT, Network, NetworkConfig, SendOutcome
from ..net.reliable import ReliableChannel
from ..net.simclock import SimClock
from ..net.stats import TrafficStats
from ..urlutils import Url
from ..web.web import Web
from .docservice import DOC_PORT, DocResponse, FetchRequest, install_doc_servers

__all__ = ["CentralProcessor", "HybridEngine"]

_CENTRAL_FETCH_PORT = 4501


class CentralProcessor(CloneProcessor):
    """Processes clones for non-participating sites at the user-site.

    Runs the query-server's own per-node loop
    (:class:`~repro.core.server.CloneProcessor`), except every document
    must first be *fetched* over the network — the centralized cost the
    paper wants to migrate away from.
    """

    def __init__(
        self,
        user_site: str,
        network: Network,
        clock: SimClock,
        config: EngineConfig,
        stats: TrafficStats,
        tracer: Tracer,
        participating: set[str],
        web: Web,
    ) -> None:
        self.site = user_site
        self.web = web
        self.network = network
        self.clock = clock
        self.config = config
        self.stats = stats
        self.tracer = tracer
        self.participating = participating
        self.channel = ReliableChannel(
            network, clock, config.retry_policy, name=f"central:{user_site}"
        )
        self.constructor = DatabaseConstructor(stats=stats)
        self.log_table = NodeQueryLogTable(config.log_subsumption)
        self.plans = PlanCache(stats=stats)
        self._queue: deque[QueryClone] = deque()
        self._busy = False
        self._purged: set[QueryId] = set()
        self._request_ids = itertools.count(1)
        self._dispatch_serial = itertools.count(1)
        self._awaiting: dict[int, Url] = {}
        self._documents: dict[Url, str | None] = {}
        self._current: QueryClone | None = None
        network.listen(user_site, HELPER_PORT, self._on_clone)
        network.listen(user_site, _CENTRAL_FETCH_PORT, self._on_document)

    # -- clone intake ------------------------------------------------------------

    def _on_clone(self, src: str, payload: object) -> None:
        if isinstance(payload, CloneBundle):
            # A coalesced forward redirected here wholesale (frontier
            # batching + central fallback): unpack like a query-server.
            self._queue.extend(payload.clones)
            self._pump()
            return
        assert isinstance(payload, QueryClone)
        self._queue.append(payload)
        self._pump()

    def _pump(self) -> None:
        if self._busy or not self._queue:
            return
        clone = self._queue.popleft()
        if clone.query.qid in self._purged:
            self._pump()
            return
        self._busy = True
        self._current = clone
        self._documents = {}
        self._awaiting = {}
        for node in clone.dest:
            request_id = next(self._request_ids)
            request = FetchRequest(node, self.site, _CENTRAL_FETCH_PORT, request_id)
            if self.network.send(self.site, node.host, DOC_PORT, request):
                self._awaiting[request_id] = node
            else:
                self._documents[node] = None
        self._maybe_process()

    def _on_document(self, src: str, payload: object) -> None:
        assert isinstance(payload, DocResponse)
        node = self._awaiting.pop(payload.request_id, None)
        if node is None:
            return
        self._documents[node] = payload.html
        self._maybe_process()

    # -- local processing -----------------------------------------------------------

    def _maybe_process(self) -> None:
        if self._current is None or self._awaiting:
            return
        clone = self._current
        reports, clones, service = self._process(clone)
        self.stats.record_processing(self.site, service)
        self.clock.schedule(service, lambda: self._complete(clone, reports, clones))

    def _html_for(self, node: Url) -> str | None:
        return self._documents.get(node)

    def _mint_dispatch_id(self) -> str:
        return f"c{next(self._dispatch_serial)}@{self.site}"

    def _child_history(self, clone: QueryClone) -> tuple[str, ...]:
        return ()  # the helper sits at the user-site: nothing to retrace through

    def _complete(self, clone: QueryClone, reports, clones) -> None:
        qid = clone.query.qid

        def after_dispatch(outcome: SendOutcome) -> None:
            # REFUSED = passive termination; an exhausted transient outcome
            # means the user-site is unreachable.  Either way the central
            # helper stops working on this query.
            if not outcome.delivered:
                self._purged.add(qid)
                return
            for fclone in clones:
                self._forward(fclone)

        try:
            if reports:
                self.channel.send(
                    self.site, qid.host, qid.port,
                    ResultMessage(qid, tuple(reports)), after_dispatch,
                )
            else:
                for fclone in clones:
                    self._forward(fclone)
        finally:
            self._busy = False
            self._current = None
            self._pump()

    def _forward(self, fclone: QueryClone) -> None:
        qid = fclone.query.qid
        if fclone.site in self.participating:

            def after_forward(outcome: SendOutcome) -> None:
                if outcome.delivered:
                    self.stats.clones_forwarded += 1
                else:
                    self._retract(fclone)

            self.channel.send(self.site, fclone.site, QUERY_PORT, fclone, after_forward)
            return
        if self.network.send(self.site, self.site, HELPER_PORT, fclone):
            # Not participating: keep it central.
            self.stats.local_hops += 1
            return
        self._retract(fclone)

    def _retract(self, fclone: QueryClone) -> None:
        qid = fclone.query.qid
        retractions = tuple(
            NodeReport(
                ChtEntry(url, fclone.state), Disposition.UNREACHABLE,
                dispatch_id=fclone.dispatch_id, epoch=fclone.epoch,
            )
            for url in fclone.dest
        )
        self.channel.send(
            self.site, qid.host, qid.port, ResultMessage(qid, retractions, kind="cht")
        )


class HybridEngine(WebDisEngine):
    """A WEBDIS deployment in which only some sites participate (§7.1)."""

    def __init__(
        self,
        web: Web,
        participating_sites: Iterable[str],
        *,
        config: EngineConfig | None = None,
        net_config: NetworkConfig | None = None,
        user_site: str = DEFAULT_USER_SITE,
        user: str = "maya",
        trace: bool = False,
    ) -> None:
        base = config if config is not None else EngineConfig()
        super().__init__(
            web,
            config=replace(base, central_fallback=True),
            net_config=net_config,
            user_site=user_site,
            user=user,
            participating_sites=participating_sites,
            trace=trace,
        )
        install_doc_servers(web, self.network, self.clock, self.stats)
        self.central = CentralProcessor(
            user_site,
            self.network,
            self.clock,
            self.config,
            self.stats,
            self.tracer,
            set(self.servers),
            web=web,
        )

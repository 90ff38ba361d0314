"""The per-site WEBDIS query-server daemon.

Implements the algorithms of Figures 3 and 4 plus the optimizations of
Section 3: the node-query log table, per-site clone batching, combined
result + CHT shipping, and passive termination.  There is one pump loop
(:meth:`QueryServer._pump`): each step takes the scheduler's next clone,
traverses a frontier from it under a hop budget and the engine's CPU cost
model, dispatches the reports and forwards what is left.  *Which* pending
clone runs next is the scheduler's choice (:mod:`repro.core.scheduler`):
the paper's §4.4 single FIFO under ``scheduler="fifo"``, or per-query
run-queues served round-robin under ``"fair"`` (the default) so one hot
query cannot head-of-line-block other tenants at the site.

Multi-tenant overload control (EXP-P3): per-query and per-server queue
ceilings (``per_query_queue_limit`` / ``server_queue_limit``) are enforced
twice — once at the transport layer via an admission probe, where an
over-limit clone message is refused with the transient OVERLOADED outcome
(the sender's ReliableChannel backs off and retries: backpressure), and
once at delivery, where a clone losing the admission race is shed with an
OVERLOADED retraction.  A server continuously saturated for ``shed_after``
seconds evicts the query with the deepest run-queue the same way, so the
victim degrades to PARTIAL with per-node coverage attribution instead of
starving every other tenant.

Frontier batching (EXP-P2, ``EngineConfig.frontier_batching``): a pump step
gathers every queued clone of one query and traverses the site-local
PRE × link-graph product as a single frontier
(:func:`~repro.core.processing.process_frontier`) — Local/Interior hops are
absorbed synchronously, log-table admission is bulk per clone, the whole
frontier's reports ship in **one** combined result+CHT message (BFS order,
parents before children, so the user-site CHT sees announce-before-retire),
and clone forwards coalesce into one :class:`CloneBundle` per destination
site.  The paper's server — "sequentially processes the queue of pending
web-queries", one clone per step (§4.4) — is the same traversal with a hop
budget of 1 and no bundling, which is all ``frontier_batching=False`` (or
path retrace) selects.  Costs change — far fewer SimClock events and
network messages — but answers, CHT outcomes and log-table end states are
identical with the knob on or off.

Protocol ordering (Section 2.7.1, deliberately preserved): the result/CHT
message is dispatched to the user-site **first**; clones are forwarded only
when that dispatch succeeds.  A failed dispatch (user closed the result
socket — termination, Section 2.8) purges the query at this server.

One engineering extension beyond the paper (DESIGN.md §4): when a clone
*forward* fails — the destination site is unreachable or refuses — the
server sends a supplementary report retiring the affected CHT entries, so
completion detection stays exact instead of hanging.

Reliability extension (DESIGN.md §4.6): result dispatch and clone forwards
are routed through a :class:`~repro.net.reliable.ReliableChannel`.  Only
*transient* outcomes (HOST_DOWN / FAULT) are retried; a REFUSED connect
stays final because it is the passive-termination signal.  The Figure-3
ordering survives retries: clones are forwarded only once the result
dispatch has actually DELIVERED, however many attempts that took.  The
server also supports crash/recovery: :meth:`crash` loses the queue, log
table and document store (and abandons pending retries); :meth:`restart`
re-binds the query port with a blank process state.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import replace

from ..model.database import DatabaseConstructor
from ..net.network import HELPER_PORT, QUERY_PORT, Network, SendOutcome
from ..net.reliable import ReliableChannel
from ..net.simclock import SimClock
from ..net.stats import TrafficStats
from ..urlutils import Url
from ..web.web import Web
from .config import EngineConfig
from .logtable import LogAction, NodeQueryLogTable
from .messages import ChtEntry, CloneBundle, Disposition, NodeReport, RelayMessage, ResultMessage
from .plancache import PlanCache
from .processing import MAX_FRONTIER_CLONES, Forward, process_frontier, process_node
from .resultmemo import ResultMemo
from .scheduler import CloneScheduler
from .trace import Tracer
from .webquery import QueryClone, QueryId

__all__ = ["CloneProcessor", "QueryServer"]


class CloneProcessor:
    """Figure 3's per-node loop — the one copy.

    :class:`QueryServer` runs it at a participating site; the hybrid
    engine's :class:`~repro.baselines.hybrid.CentralProcessor` runs it at
    the user-site over documents it had to download.  A subclass provides
    the state the loop reads — ``site``, ``web``, ``clock``, ``config``,
    ``stats``, ``tracer``, ``constructor``, ``log_table``, ``plans``,
    ``_purged`` — and the places the two differ:
    :attr:`memo`, :meth:`_html_for`, :meth:`_mint_dispatch_id` and
    :meth:`_child_history`.
    """

    #: Cross-query memo of per-node rows and forward fan-outs, or None.
    memo: ResultMemo | None = None

    def _html_for(self, node: Url) -> str | None:
        """The document at ``node``, or None when it cannot be had."""
        raise NotImplementedError

    def _mint_dispatch_id(self) -> str:
        """A fresh dispatch identity for one forwarded clone."""
        raise NotImplementedError

    def _child_history(self, clone: QueryClone) -> tuple[str, ...]:
        """The retrace trail forwarded clones carry (§2.6 alternative)."""
        if self.config.direct_result_return:
            return ()
        if clone.history and clone.history[-1] == self.site:
            return clone.history  # local hop: the retrace chain is unchanged
        return clone.history + (self.site,)

    def _process(
        self, clone: QueryClone
    ) -> tuple[list[NodeReport], list[QueryClone], float]:
        now = self.clock.now
        qid = clone.query.qid
        if qid in self._purged:
            # Passive termination already observed here; drop silently.
            self._trace_nodes(clone, "purged")
            return [], [], self.config.node_service_time

        row = clone.row
        state = row.state
        #: Per visited node: its report minus the identities, which exist
        #: only once the node list is done and the forwards are grouped into
        #: clones — ``(entry, disposition, results, forwards announced)``.
        visits: list[tuple[ChtEntry, Disposition, tuple, int]] = []
        all_forwards: list[Forward] = []
        #: Forwards already announced for an earlier node of this clone.
        #: Without it, two destination nodes at one site pointing at the same
        #: target would add two CHT entries for a single eventual visit and
        #: the query would never be detected complete.
        announced: set[Forward] = set()
        service = 0.0
        plan_for = self.plans.bind(clone.query) if self.config.compiled_plans else None
        tracing = self.tracer.enabled
        # §7.1 site table: fetched once per clone, at the first node evaluated.
        sitewide, site_documents = clone.query.sitewide, None

        # Bulk admission: one log-table pass for the clone's whole node
        # list (all nodes share the clone's state).  Node order — and
        # therefore every drop/rewrite outcome — is the per-node sequence.
        observations = (
            self.log_table.observe_bulk(clone.dest, qid, state, now)
            if self.config.log_table_enabled
            else None
        )

        for index, node in enumerate(clone.dest):
            entry = ChtEntry(node, state)
            visit_row = row
            disposition = Disposition.PROCESSED

            if observations is not None:
                observation = observations[index]
                if observation.action is LogAction.DROP:
                    self.stats.duplicates_dropped += 1
                    service += self.config.node_service_time
                    if tracing:
                        self.tracer.record(
                            now, str(node), self.site, state, "-", "duplicate-dropped"
                        )
                    visits.append((entry, Disposition.DUPLICATE, (), 0))
                    continue
                if observation.action is LogAction.REWRITE:
                    visit_row = row.rewritten()
                    disposition = Disposition.REWRITTEN
                    self.stats.queries_rewritten += 1
                    if tracing:
                        self.tracer.record(
                            now, str(node), self.site, state, "-", "rewritten",
                            detail=f"rem -> {visit_row.rem}",
                        )

            html = self._html_for(node)
            if html is None:
                service += self.config.node_service_time
                if tracing:
                    self.tracer.record(
                        now, str(node), self.site, state, "-", "missing"
                    )
                visits.append((entry, Disposition.MISSING, (), 0))
                continue

            # The database is built lazily: a node fully served from the
            # cross-query memo (EXP-P4) never parses its document, and is
            # charged only the base per-node service time (like a duplicate
            # drop).  Without a memo the first worklist item always resolves
            # the database, so ``built`` is set and parse + scan is charged.
            built: list = []

            def provider(node=node, html=html, built=built):
                if not built:
                    built.append(self.constructor.construct(node, html))
                    self.stats.documents_parsed += 1
                return built[0]

            if sitewide and site_documents is None:
                site_documents = self.constructor.site_documents(
                    self.web.site(node.host), self.stats
                )
            outcome = process_node(
                node, provider, clone.query, visit_row.step_index, visit_row.rem,
                self.config,
                site_documents=site_documents,
                plan_for=plan_for,
                memo=self.memo,
            )
            if built:
                service += self.config.service_time(len(html), outcome.tuples_scanned)
            else:
                service += self.config.node_service_time
            self.stats.node_queries_evaluated += len(outcome.evaluations)
            self._trace_outcome(now, node, clone, outcome)

            before = len(all_forwards)
            for forward in outcome.forwards:
                if forward not in announced:
                    announced.add(forward)
                    all_forwards.append(forward)
            visits.append(
                (entry, disposition, tuple(outcome.results), len(all_forwards) - before)
            )

        # Identities: each outgoing clone travels under a fresh dispatch id
        # (epoch inherited from the parent), and the reports announce it via
        # ``child_ids`` so the user-site registers exactly the identity the
        # child's own report will later echo.
        clones, child_ids = self._build_clones(clone, all_forwards)
        reports: list[NodeReport] = []
        start = 0
        for entry, disposition, results, count in visits:
            stop = start + count
            reports.append(
                NodeReport(
                    entry, disposition,
                    tuple(
                        [ChtEntry(fw.target, fw.row.state) for fw in all_forwards[start:stop]]
                    ),
                    results, clone.dispatch_id, clone.epoch, tuple(child_ids[start:stop]),
                )
            )
            start = stop
        return reports, clones, service

    def _build_clones(
        self, clone: QueryClone, forwards: list[Forward]
    ) -> tuple[list[QueryClone], list[str]]:
        """Group forwards into clones (optimization 4: one per site & state).

        Returns the clones, each stamped with a freshly minted dispatch
        identity, and — parallel to ``forwards`` — the identity each forward
        travels under.  ``forwards`` holds no duplicates (the caller's
        ``announced`` set), so neither does a clone's node list.

        With a ``pump_budget`` configured, each group's node list is further
        chunked to at most ``pump_budget`` nodes per clone: a whole BFS
        layer coalesced into one fat clone would otherwise be indivisible —
        one pump would process every node of the layer no matter the
        budget, and the fair scheduler would have nothing to interleave.
        Chunks keep the (site, state) grouping, travel in the same bundle,
        and each carries its own dispatch identity, so CHT accounting is
        exactly as without chunking.
        """
        per_site = self.config.batch_per_site
        groups: dict[tuple, list[int]] = {}
        for index, (row, target) in enumerate(forwards):
            groups.setdefault((target.host if per_site else target, row), []).append(index)
        history = self._child_history(clone)
        budget = self.config.pump_budget
        query, epoch = clone.query, clone.epoch
        clones: list[QueryClone] = []
        child_ids = [""] * len(forwards)
        for (__, row), members in groups.items():
            size = len(members) if budget is None else budget
            for start in range(0, len(members), size):
                chunk = members[start:start + size]
                dispatch_id = self._mint_dispatch_id()
                clones.append(
                    QueryClone.at(
                        query, row, tuple([forwards[i].target for i in chunk]),
                        history, dispatch_id, epoch,
                    )
                )
                for i in chunk:
                    child_ids[i] = dispatch_id
        return clones, child_ids

    # -- tracing ----------------------------------------------------------------

    def _trace_outcome(self, now: float, node: Url, clone: QueryClone, outcome) -> None:
        if not self.tracer.enabled:
            # Keep the stats side effect; skip all event formatting.
            if outcome.dead_end:
                self.stats.dead_ends += 1
            return
        state = clone.state
        for step_index, success in outcome.evaluations:
            label = clone.query.step_label(step_index)
            action = "answered" if success else "failed"
            self.tracer.record(
                now, str(node), self.site, state, outcome.role, action, detail=label
            )
        if not outcome.evaluations:
            self.tracer.record(now, str(node), self.site, state, outcome.role, "routed")
        if outcome.dead_end:
            self.stats.dead_ends += 1
            self.tracer.record(now, str(node), self.site, state, outcome.role, "dead-end")
        elif outcome.forwards:
            self.tracer.record(
                now, str(node), self.site, state, outcome.role, "forwarded",
                detail=f"{len(outcome.forwards)} link(s)",
            )

    def _trace_nodes(self, clone: QueryClone, action: str) -> None:
        if not self.tracer.enabled:
            return
        for node in clone.dest:
            self.tracer.record(
                self.clock.now, str(node), self.site, clone.state, "-", action
            )


class QueryServer(CloneProcessor):
    """One site's query-server daemon, listening on :data:`QUERY_PORT`."""

    def __init__(
        self,
        site: str,
        web: Web,
        network: Network,
        clock: SimClock,
        config: EngineConfig,
        stats: TrafficStats,
        tracer: Tracer,
    ) -> None:
        self.site = site
        self.web = web
        self.network = network
        self.clock = clock
        self.config = config
        self.stats = stats
        self.tracer = tracer
        self.constructor = DatabaseConstructor(stats=stats)
        self.log_table = NodeQueryLogTable(config.log_subsumption)
        #: Compiled node-query plans, structurally keyed so tenants share
        #: compilations — volatile process state, cleared by crash()
        #: exactly like the document store.
        self.plans = PlanCache(stats=stats)
        #: Cross-query memo of per-node rows and forward fan-outs (EXP-P4);
        #: None when the knob is off.  Volatile like the plan cache, plus
        #: an explicit epoch hook for future live-web mutation.
        self.memo = ResultMemo(stats) if config.cross_query_caching else None
        self.channel = ReliableChannel(
            network, clock, config.retry_policy,
            name=f"server:{site}", trace=self._trace_transport,
        )
        #: Pending clones: per-query run-queues round-robined under
        #: ``scheduler="fair"``, the paper's single FIFO under ``"fifo"`` —
        #: the same queue ceilings either way.
        self._scheduler = CloneScheduler(
            config.scheduler, config.per_query_queue_limit, config.server_queue_limit
        )
        self._active_workers = 0
        self._purged: set[QueryId] = set()
        self._last_purge = 0.0
        #: When the queue total first reached ``server_queue_limit`` and has
        #: stayed there since; None while below the limit.  Drives shedding.
        self._saturated_since: float | None = None
        #: Bumped by crash(): callbacks scheduled by a dead process must not
        #: touch the reborn one's state.
        self._epoch = 0
        #: Mints dispatch identities for forwarded clones.  Deliberately
        #: *not* reset by crash(): identities must stay unique across the
        #: server's incarnations or a reborn server could mint an id that
        #: collides with a pre-crash dispatch still tracked by a user-site.
        self._dispatch_serial = itertools.count(1)
        network.listen(site, QUERY_PORT, self._on_message)
        if (
            config.per_query_queue_limit is not None
            or config.server_queue_limit is not None
        ):
            # Admission control: refuse clone traffic at the transport layer
            # (OVERLOADED, retryable-with-backoff) before it is delivered.
            # Guarded getattr: minimal Transport fakes need not implement it.
            set_admission = getattr(network, "set_admission", None)
            if set_admission is not None:
                set_admission(site, QUERY_PORT, self._admission_probe)

    def _mint_dispatch_id(self) -> str:
        return f"s{next(self._dispatch_serial)}@{self.site}"

    def _html_for(self, node: Url) -> str | None:
        return self.web.html_for(node)

    # -- crash / recovery (§7.1 open problem) ------------------------------------

    def crash(self) -> None:
        """The server process dies: all volatile state is lost.

        The queue, log table, document store and purge memory are gone;
        pending retries are abandoned; in-progress processing never
        completes.  The caller (the engine) is responsible for the
        network side: marking the site down and dropping its sockets.
        """
        self._epoch += 1
        lost = self._scheduler.drain()
        if lost:
            # Queued clones from *every* tenant die with the process; the
            # count lets the oracle attribute PARTIAL coverage afterwards.
            self.stats.clones_lost_in_crash += len(lost)
        self._saturated_since = None
        self._active_workers = 0
        self.log_table = NodeQueryLogTable(self.config.log_subsumption)
        self.constructor = DatabaseConstructor(stats=self.stats)
        self.plans.clear()
        if self.memo is not None:
            self.memo.clear()
        self._purged = set()
        self._last_purge = 0.0
        self.channel.reset()

    def restart(self) -> None:
        """Re-bind the query port with a blank process state.

        Purge memory was lost with the crash; termination is re-discovered
        the usual way (a REFUSED result dispatch).
        """
        if not self.network.is_listening(self.site, QUERY_PORT):
            self.network.listen(self.site, QUERY_PORT, self._on_message)

    def advance_memo_epoch(self) -> None:
        """Invalidate everything derived from page content, without a crash.

        The seam a live-web mutation source will drive when this site's pages
        change: drops the two caches an edit makes stale, memo and store.
        """
        if self.memo is not None:
            self.memo.advance_epoch()
        self.constructor.purge()

    # -- ingress ----------------------------------------------------------------

    def _on_message(self, src: str, payload: object) -> None:
        if isinstance(payload, RelayMessage):
            self._relay(payload)
            return
        if isinstance(payload, CloneBundle):
            # Coalesced dispatch: unpack in order; each clone keeps its own
            # dispatch identity, so accounting matches separate messages.
            for clone in payload.clones:
                self._admit(clone)
            self._pump()
            return
        assert isinstance(payload, QueryClone), f"unexpected payload {payload!r}"
        self._admit(payload)
        self._pump()

    def _relay(self, message: RelayMessage) -> None:
        """Forward a retracing result message one hop back (§2.6 alternative).

        Relaying loads this server — the very drawback the paper cites —
        which we account as processing time without blocking the query queue.
        """
        self.stats.record_processing(self.site, self.config.node_service_time)
        qid = message.inner.qid
        if message.remaining:
            next_hop, rest = message.remaining[0], message.remaining[1:]
            self.channel.send(self.site, next_hop, QUERY_PORT, RelayMessage(rest, message.inner))
        else:
            self.channel.send(self.site, qid.host, qid.port, message.inner)

    def enqueue_local(self, clone: QueryClone) -> None:
        """Accept a clone forwarded within this site (no network message)."""
        self.stats.local_hops += 1
        self._admit(clone)
        self._pump()

    def _admit(self, clone: QueryClone) -> None:
        """Queue one arriving clone, or shed it if a ceiling refuses it.

        The transport-level admission probe keeps most over-limit traffic
        from ever being delivered; this delivery-time re-check catches the
        race where the queue filled between connect and delivery (and
        local enqueues, which never cross the transport).  A refused clone
        is shed with a retraction so its CHT entries retire instead of
        hanging the query.
        """
        if self._scheduler.push(clone):
            self._update_saturation()
            return
        self._shed_clones(clone.query.qid, [clone])

    def _admission_probe(self, __: str, payload: object) -> bool:
        """Transport admission probe for :data:`QUERY_PORT` (see __init__)."""
        if isinstance(payload, CloneBundle):
            counts: Counter = Counter(clone.query.qid for clone in payload.clones)
        elif isinstance(payload, QueryClone):
            counts = Counter((payload.query.qid,))
        else:
            return True  # relay/control traffic is never refused admission
        return self._scheduler.would_admit(counts)

    @property
    def queue_depth(self) -> int:
        return self._scheduler.total

    def queue_depths(self) -> dict[QueryId, int]:
        """Per-query run-queue depths (only queries with queued clones)."""
        return self._scheduler.depths()

    @property
    def peak_query_queue_depth(self) -> int:
        """High-water mark of any one query's run-queue depth — audited by
        the DST ceiling invariant against ``per_query_queue_limit``."""
        return self._scheduler.max_query_depth_seen

    # -- scheduled processing loop -----------------------------------------------

    @property
    def _frontier_enabled(self) -> bool:
        """Frontier batching needs direct result return: a combined frontier
        dispatch cannot carry one retrace trail per hop (§2.6 alternative).

        Decides two numbers, no code path: how many clones one pump step may
        traverse (:meth:`_pump`) and whether forwards bound for one site
        share a message (:meth:`_forward_all`)."""
        return self.config.frontier_batching and self.config.direct_result_return

    def _pump(self) -> None:
        """Start a pump step on every idle worker (EXP-P2, §4.4).

        A step seeds the frontier with the scheduler's next clone plus queued
        clones of the same query (they would each have cost their own pump
        round trip), and :func:`~repro.core.processing.process_frontier`
        runs the site-local BFS, absorbing Local/Interior hops
        synchronously.  One combined report list and one clone list come
        back; the summed service time is paid with a single SimClock event.

        The hop budget bounds the whole step — seeds taken plus hops
        absorbed.  With the frontier engaged it is ``pump_budget``, so under
        multi-tenant load one query's frontier cannot monopolize the pump
        (unset, only the runaway ceiling applies and a frontier runs to
        exhaustion); disengaged it is 1, the paper's one clone per step.
        Same-site clones past the budget come back with the remote ones and
        re-enter this query's run-queue behind the other tenants' turns.
        """
        hop_budget = 1
        if self._frontier_enabled:
            hop_budget = self.config.pump_budget or MAX_FRONTIER_CLONES
        while self._active_workers < self.config.server_threads:
            head = self._scheduler.pop()
            if head is None:
                break
            self._active_workers += 1
            self._maybe_purge_log()
            seeds = [head]
            seeds += self._scheduler.take_same_query(head.query.qid, hop_budget - 1)
            result = process_frontier(seeds, self.site, self._process, max_clones=hop_budget)
            # A same-site clone is one local hop, counted where it is taken
            # up: here if this pass absorbed it (every clone processed
            # beyond the seeds), in enqueue_local if it was re-queued.
            absorbed = result.clones_processed - len(seeds)
            self.stats.local_hops += absorbed
            if result.clones_processed > 1:
                self.stats.frontier_batches += 1
                self.stats.frontier_clones_batched += result.clones_processed
                if self.tracer.enabled:
                    self.tracer.record(
                        self.clock.now, "-", self.site, "-", "-", "frontier-batched",
                        detail=(
                            f"{result.clones_processed} clones"
                            f" ({absorbed} local hops absorbed)"
                        ),
                    )
            self.stats.record_processing(self.site, result.service)
            epoch = self._epoch
            self.clock.schedule(
                result.service,
                lambda c=head, r=result.reports, f=result.remote, e=epoch: self._complete(
                    c, r, f, e
                ),
            )
        self._update_saturation()

    def _maybe_purge_log(self) -> None:
        """Purge log entries past ``log_max_age``, once per ``log_max_age``."""
        max_age = self.config.log_max_age
        if max_age is None:
            return
        now = self.clock.now
        if now - self._last_purge >= max_age:
            self._last_purge = now
            self.log_table.purge_older_than(now - max_age)

    # -- completion: dispatch results first, then forward (Figure 3, 17-20) ----

    def _complete(
        self,
        clone: QueryClone,
        reports: list[NodeReport],
        clones: list[QueryClone],
        epoch: int,
    ) -> None:
        if epoch != self._epoch:
            return  # the process that started this work crashed; work is lost
        try:
            if reports:
                self._dispatch_and_forward(clone, reports, clones)
        finally:
            self._active_workers -= 1
            self._pump()

    def _dispatch_and_forward(
        self,
        clone: QueryClone,
        reports: list[NodeReport],
        clones: list[QueryClone],
    ) -> None:
        qid = clone.query.qid
        epoch = self._epoch
        if self.config.combine_results_and_cht:
            self._dispatch_report(
                clone,
                ResultMessage(qid, tuple(reports)),
                lambda outcome: self._after_dispatch(outcome, clone, clones, epoch),
            )
            return
        # Ablation: CHT bookkeeping and result rows travel separately.
        cht_half = tuple(replace(r, results=()) for r in reports)
        data_half = tuple(
            NodeReport(
                r.entry, Disposition.DATA_ONLY, (), r.results,
                dispatch_id=r.dispatch_id, epoch=r.epoch,
            )
            for r in reports
            if r.results
        )

        def after_cht(outcome: SendOutcome) -> None:
            if outcome.delivered and data_half:
                # Pure payload message: loss doesn't affect completion keys.
                self._dispatch_report(clone, ResultMessage(qid, data_half))
            self._after_dispatch(outcome, clone, clones, epoch)

        self._dispatch_report(clone, ResultMessage(qid, cht_half, kind="cht"), after_cht)

    def _after_dispatch(
        self,
        outcome: SendOutcome,
        clone: QueryClone,
        clones: list[QueryClone],
        epoch: int,
    ) -> None:
        """Figure-3 ordering: forward clones only once the dispatch DELIVERED.

        REFUSED means the user closed the result socket — passive
        termination.  A transient outcome arriving here has already been
        through the channel's retry budget: the user-site is effectively
        unreachable, so the query is purged locally too (its entries will be
        re-resolved if the user's stall recovery re-forwards them).  An
        ABANDONED outcome (or any outcome observed after a crash bumped the
        epoch) belongs to a dead incarnation and must not touch this one.
        """
        if epoch != self._epoch or outcome is SendOutcome.ABANDONED:
            return
        if outcome.delivered:
            self._forward_all(clones)
            return
        if not outcome.refused:
            self._trace_transport("dispatch-exhausted", str(clone.query.qid))
        self._purge(clone)

    def _send_to_user(self, qid: QueryId, message: ResultMessage, on_final=None) -> SendOutcome:
        return self.channel.send(self.site, qid.host, qid.port, message, on_final)

    def _dispatch_report(
        self, clone: QueryClone, message: ResultMessage, on_final=None
    ) -> SendOutcome:
        """Send a report either directly (§2.6 design) or by path retrace.

        ``on_final`` observes the channel's final outcome — DELIVERED,
        REFUSED, or the last transient failure after retry exhaustion.
        Under retrace, "delivered" only means the *first backward hop*
        accepted the message — the weaker guarantee the paper criticizes
        (termination no longer propagates to this server).
        """
        qid = clone.query.qid
        if self.config.direct_result_return or not clone.history:
            return self._send_to_user(qid, message, on_final)
        trail = clone.history
        first_hop, rest = trail[-1], tuple(reversed(trail[:-1]))
        return self.channel.send(
            self.site, first_hop, QUERY_PORT, RelayMessage(rest, message), on_final
        )

    def _forward_all(self, clones: list[QueryClone]) -> None:
        """Forward a completed pump step's clones.

        Same-site clones — the hops past the step's budget — re-enter the
        local queue, behind other tenants' turns.  With the frontier engaged,
        every clone bound for one destination site travels in a single
        :class:`CloneBundle` (optimization 4 of §3.2 taken one step further:
        one *message* per site per frontier, whatever mix of states it
        carries); otherwise each clone is its own message, as in the paper.
        """
        bundling = self._frontier_enabled
        groups: dict[object, list[QueryClone]] = {}
        for fclone in clones:
            if fclone.site == self.site:
                self.stats.clones_requeued += 1
                self.enqueue_local(fclone)
            else:
                key = fclone.site if bundling else len(groups)  # unbundled: its own group
                groups.setdefault(key, []).append(fclone)
        for group in groups.values():
            self._forward(group)

    def _forward(self, group: list[QueryClone]) -> None:
        """Send one destination site's clones as one message."""
        epoch = self._epoch

        def after_forward(outcome: SendOutcome) -> None:
            if epoch != self._epoch or outcome is SendOutcome.ABANDONED:
                return  # a dead incarnation's send; the reborn process moved on
            if not outcome.delivered:
                # Per-clone failure handling: retractions (or the central
                # fallback) resolve each clone's entries exactly as a
                # separately-travelling clone's failure would.
                for fclone in group:
                    self._forward_failed(fclone)
                return
            self.stats.clones_forwarded += len(group)
            if len(group) > 1:
                self.stats.clone_bundles_sent += 1
                self.stats.clones_bundled += len(group)

        payload = group[0] if len(group) == 1 else CloneBundle(tuple(group))
        self.channel.send(self.site, payload.site, QUERY_PORT, payload, after_forward)

    def _forward_failed(self, fclone: QueryClone) -> None:
        """The forward's connect refused, or exhausted its retries."""
        qid = fclone.query.qid
        if self.config.central_fallback:
            # §7.1: the destination site does not participate — ship the
            # clone to the user-site's central helper for local processing.
            if self.network.send(self.site, qid.host, HELPER_PORT, fclone):
                self.stats.clones_forwarded += 1
                return
        # Destination site unreachable: retire the CHT entries we announced.
        # The retraction echoes the clone's own dispatch identity — it is
        # resolving exactly the instances this server announced for it.
        retractions = tuple(
            NodeReport(
                ChtEntry(url, fclone.state), Disposition.UNREACHABLE,
                dispatch_id=fclone.dispatch_id, epoch=fclone.epoch,
            )
            for url in fclone.dest
        )
        if self.tracer.enabled:
            for url in fclone.dest:
                self.tracer.record(
                    self.clock.now, str(url), self.site, fclone.state, "-",
                    "unreachable-site",
                )
        self._send_to_user(qid, ResultMessage(qid, retractions, kind="cht"))

    def _purge(self, clone: QueryClone) -> None:
        qid = clone.query.qid
        self._purged.add(qid)
        self._trace_nodes(clone, "purged")
        # Drop any queued clones of the same query right away.
        self._scheduler.drop_query(qid)
        self._update_saturation()

    # -- overload shedding (graceful degradation under saturation) ---------------

    def _update_saturation(self) -> None:
        """Track time-at-ceiling; arm the shed timer on entering saturation."""
        limit = self.config.server_queue_limit
        if limit is None or self.config.shed_after is None:
            return
        if self._scheduler.total >= limit:
            if self._saturated_since is None:
                self._saturated_since = self.clock.now
                epoch, started = self._epoch, self._saturated_since
                self.clock.schedule(
                    self.config.shed_after, lambda: self._shed_check(epoch, started)
                )
        else:
            self._saturated_since = None

    def _shed_check(self, epoch: int, started: float) -> None:
        """Fires ``shed_after`` after saturation began: still saturated ⇒ shed.

        Stale guards: the timer belongs to one (epoch, saturation episode);
        a crash or any dip below the limit in between voids it — a new
        episode arms its own timer.
        """
        if epoch != self._epoch or self._saturated_since != started:
            return
        victim = self._scheduler.victim()
        if victim is not None:
            dropped = self._scheduler.drop_query(victim)
            if dropped:
                self.stats.queries_shed += 1
                self._shed_clones(victim, dropped)
        # Re-evaluate: if the server is *still* at the ceiling, this starts
        # a fresh saturation episode (and timer) for the next victim.
        self._saturated_since = None
        self._update_saturation()

    def _shed_clones(self, qid: QueryId, clones: list[QueryClone]) -> None:
        """Drop queued clones of one query, retracting their CHT entries.

        The retraction echoes each clone's own dispatch identity with the
        OVERLOADED disposition, so the user-site retires exactly the
        pending instances this server was holding — the query degrades to
        PARTIAL with per-node attribution instead of hanging.
        """
        self.stats.clones_shed += len(clones)
        retractions = []
        for clone in clones:
            for url in clone.dest:
                retractions.append(
                    NodeReport(
                        ChtEntry(url, clone.state), Disposition.OVERLOADED,
                        dispatch_id=clone.dispatch_id, epoch=clone.epoch,
                    )
                )
                if self.tracer.enabled:
                    self.tracer.record(
                        self.clock.now, str(url), self.site, clone.state, "-",
                        "overload-shed",
                    )
        self._send_to_user(qid, ResultMessage(qid, tuple(retractions), kind="cht"))

    # -- tracing ----------------------------------------------------------------

    def _trace_transport(self, action: str, detail: str) -> None:
        """Channel-level events (retries, exhaustion) — no node/state context."""
        if self.tracer.enabled:
            self.tracer.record(self.clock.now, "-", self.site, "-", "-", action, detail)

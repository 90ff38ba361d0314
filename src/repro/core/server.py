"""The per-site WEBDIS query-server daemon.

Implements the algorithms of Figures 3 and 4 plus the optimizations of
Section 3: the node-query log table, per-site clone batching, combined
result + CHT shipping, and passive termination.  Each clone runs through
the stages of :class:`~repro.core.visit.CloneProcessor` (log-table
admission, a visit per node, the report); this module owns the rest: clone
ingress and queue admission, shedding, the pump, dispatch and recovery.
There is one pump loop (:meth:`QueryServer._pump`): each step takes the
scheduler's next clone, traverses a frontier from it under a hop budget and
the engine's CPU cost model, dispatches the reports and forwards what is
left.  *Which* pending clone runs next is the scheduler's choice
(:mod:`repro.core.scheduler`): per-query run-queues served round-robin,
so one hot query cannot head-of-line-block other tenants at the site.

Multi-tenant overload control: per-query and per-server queue
ceilings (``per_query_queue_limit`` / ``server_queue_limit``) are enforced
twice — once at the transport layer via an admission probe, where an
over-limit clone message is refused with the transient OVERLOADED outcome
(the sender's ReliableChannel backs off and retries: backpressure), and
once at delivery, where a clone losing the admission race is shed with an
OVERLOADED retraction.  A server continuously saturated for ``shed_after``
seconds evicts the query with the deepest run-queue the same way, so the
victim degrades to PARTIAL with per-node coverage attribution instead of
starving every other tenant.

Frontier batching (``EngineConfig.frontier_batching``): a pump step
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

from collections import Counter

from ..model.database import DatabaseConstructor
from ..net.network import HELPER_PORT, QUERY_PORT, Network, SendOutcome
from ..net.reliable import ReliableChannel
from ..net.simclock import SimClock
from ..net.stats import TrafficStats
from ..web.web import Web
from .config import EngineConfig
from .logtable import NodeQueryLogTable
from .messages import CloneBundle, CloneReport, Disposition, RelayMessage, ResultMessage
from .processing import MAX_FRONTIER_CLONES, process_frontier
from .resultmemo import ResultMemo
from .scheduler import CloneScheduler
from .trace import Tracer
from .visit import CloneProcessor
from .webquery import QueryClone, QueryId

__all__ = ["QueryServer"]


class QueryServer(CloneProcessor):
    """One site's query-server daemon, listening on :data:`QUERY_PORT`."""

    _dispatch_prefix = "s"

    #: §7.1 migration path: a clone whose forward fails goes to the
    #: user-site's central helper instead of being retracted.  Set by
    #: :class:`~repro.baselines.hybrid.HybridEngine`, which installs one.
    redirect_to_helper = False

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
        super().__init__(site, web, network, clock, config, stats, tracer)
        #: Cross-query memo of per-node rows, forward fan-outs and visits.
        #: Volatile like the plan cache, plus an explicit epoch hook for
        #: live-web mutation.
        self.memo = ResultMemo(stats)
        self.channel = ReliableChannel(
            network, clock, config.retry_policy, name=f"server:{site}",
            trace=(lambda action, detail: tracer.site(clock.now, site, action, detail))
            if tracer.enabled else None,
        )
        #: Pending clones: per-query run-queues served round-robin.
        self._scheduler = CloneScheduler(
            config.per_query_queue_limit, config.server_queue_limit
        )
        self._active_workers = 0
        self._last_purge = 0.0
        #: When the queue total first reached ``server_queue_limit`` and has
        #: stayed there since; None while below the limit.  Drives shedding.
        self._saturated_since: float | None = None
        #: Bumped by crash(): callbacks scheduled by a dead process must not
        #: touch the reborn one's state.
        self._epoch = 0
        network.listen(site, QUERY_PORT, self._on_message)
        if (
            config.per_query_queue_limit is not None
            or config.server_queue_limit is not None
        ):
            # Admission control: refuse clone traffic at the transport layer
            # (OVERLOADED, retryable-with-backoff) before it is delivered.
            network.set_admission(site, QUERY_PORT, self._admission_probe)

    # -- crash / recovery (§7.1 open problem) ------------------------------------

    def crash(self) -> None:
        """The server process dies: all volatile state is lost.

        The queue, log table, document store, purge memory and watermarks
        are gone; pending retries are abandoned; in-progress processing
        never completes.  The caller (the engine) is responsible for the
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
        self.memo.clear()
        self._purged = set()
        self._marks = {}
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
        """Start a pump step on every idle worker (§4.4).

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
                    self.tracer.site(
                        self.clock.now, self.site, "frontier-batched",
                        f"{result.clones_processed} clones ({absorbed} local hops absorbed)",
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
        reports: list[CloneReport],
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
        reports: list[CloneReport],
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
        cht_half = tuple([report.without_rows() for report in reports])
        data_half = tuple(
            [half for half in map(CloneReport.rows_only, reports) if half is not None]
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
        if not outcome.refused and self.tracer.enabled:
            self.tracer.site(self.clock.now, self.site, "dispatch-exhausted", str(clone.query.qid))
        self._purge(clone)

    def _send_to_user(self, qid: QueryId, message: ResultMessage, on_final=None) -> None:
        self.channel.send(self.site, qid.host, qid.port, message, on_final)

    def _dispatch_report(
        self, clone: QueryClone, message: ResultMessage, on_final=None
    ) -> None:
        """Send a report either directly (§2.6 design) or by path retrace.

        ``on_final`` observes the channel's final outcome — DELIVERED,
        REFUSED, or the last transient failure after retry exhaustion.
        Under retrace, "delivered" only means the *first backward hop*
        accepted the message — the weaker guarantee the paper criticizes
        (termination no longer propagates to this server).
        """
        qid = clone.query.qid
        if self.config.direct_result_return or not clone.history:
            self._send_to_user(qid, message, on_final)
            return
        trail = clone.history
        first_hop, rest = trail[-1], tuple(reversed(trail[:-1]))
        self.channel.send(
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
        if not self.redirect_to_helper:
            self._retract(fclone)
            return
        epoch = self._epoch

        def after_redirect(outcome: SendOutcome) -> None:
            if epoch != self._epoch:
                return  # a dead incarnation's send
            if outcome.delivered:
                self.stats.clones_forwarded += 1
            else:
                self._retract(fclone)

        # §7.1: the destination site does not participate — ship the clone
        # to the user-site's central helper for local processing.
        qid = fclone.query.qid
        self.network.send(self.site, qid.host, HELPER_PORT, fclone, on_outcome=after_redirect)

    def _retract(self, fclone: QueryClone) -> None:
        """Destination site unreachable: retire the CHT entries we announced.

        The retraction echoes the clone's own dispatch identity — it is
        resolving exactly the instances this server announced for it.
        """
        qid = fclone.query.qid
        retraction = CloneReport.retraction(fclone, Disposition.UNREACHABLE)
        if self.tracer.enabled:
            self.tracer.nodes(self.clock.now, fclone, self.site, "unreachable-site")
        self._send_to_user(qid, ResultMessage(qid, (retraction,), kind="cht"))

    def _purge(self, clone: QueryClone) -> None:
        qid = clone.query.qid
        self._note_purged(qid)
        if self.tracer.enabled:
            self.tracer.nodes(self.clock.now, clone, self.site, "purged")
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
        retractions = tuple(
            [CloneReport.retraction(clone, Disposition.OVERLOADED) for clone in clones]
        )
        if self.tracer.enabled:
            for clone in clones:
                self.tracer.nodes(self.clock.now, clone, self.site, "overload-shed")
        self._send_to_user(qid, ResultMessage(qid, retractions, kind="cht"))

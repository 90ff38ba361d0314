"""Figure 3's clone loop, in three named stages.

For each clone a query-server takes from its queue, the paper's per-node
algorithm runs as three methods of :class:`CloneProcessor`: log-table
admission (:meth:`~CloneProcessor._observe`), the visit of each admitted
node — one memo probe for the whole visit, or else its document, then rows
and forwards from the memo or the node's database
(:meth:`~CloneProcessor._visit`) — and the clone's report and
child clones (:meth:`~CloneProcessor._report`).  ``docs/architecture.md``
("The server's stages") lists each stage with the trace call it makes.
Dispatching results before forwards, retries, shedding and recovery are
the caller's: :class:`~repro.core.server.QueryServer` at a participating
site, :class:`~repro.baselines.hybrid.CentralProcessor` at the user-site.
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING, Iterator

from ..model.database import DatabaseConstructor
from ..urlutils import Url
from .logtable import LogAction, NodeQueryLogTable
from .messages import CloneReport, Disposition
from .plancache import PlanCache
from .processing import Forward, NodeOutcome, process_node
from .resultmemo import ResultMemo, VisitEntry
from .webquery import QueryClone, QueryId, WebQuery

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..net.network import Network
    from ..net.simclock import SimClock
    from ..net.stats import TrafficStats
    from ..web.web import Web
    from .config import EngineConfig
    from .program import QueryProgram, StateRow
    from .trace import Tracer

__all__ = ["CloneProcessor"]


class CloneProcessor:
    """Figure 3's per-node loop — the one copy.

    Holds the per-process state the loop reads.  The query-server and the
    hybrid engine's central processor differ in :attr:`memo`,
    :attr:`_dispatch_prefix`, and — the central processor fetches every
    document and retraces nothing — :meth:`_html_for` and
    :meth:`_child_history`.
    """

    #: Cross-query memo of per-node rows, forward fan-outs and visits, or None.
    memo: ResultMemo | None = None
    #: Leads every dispatch identity this processor mints.
    _dispatch_prefix: str

    def __init__(
        self, site: str, web: "Web", network: "Network", clock: "SimClock",
        config: "EngineConfig", stats: "TrafficStats", tracer: "Tracer",
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
        #: Node-query lowerings by shape, bound per lookup — volatile
        #: process state, lost in a crash exactly like the document store.
        self.plans = PlanCache()
        #: Queries whose passive termination was observed here.
        self._purged: set[QueryId] = set()
        #: Visits that took the part path (``process_node``), and visits in
        #: a state with nothing to forward.  A visit served whole is counted
        #: by ``memo.visit_hits``.
        self.part_path_visits = 0
        self.no_fanout_visits = 0
        #: Completion watermark per origin ``(user, user-site)``: the highest
        #: ``WebQuery.mark`` a clone brought here.  Every query of the origin
        #: numbered below it is terminal.
        self._marks: dict[tuple[str, str], int] = {}
        #: Mints dispatch identities for forwarded clones.  Deliberately
        #: *not* reset by a crash: identities must stay unique across the
        #: process's incarnations or a reborn one could mint an id that
        #: collides with a pre-crash dispatch still tracked by a user-site.
        self._dispatch_serial = itertools.count(1)

    def _html_for(self, node: Url) -> str | None:
        """The document at ``node``, or None when it cannot be had."""
        return self.web.html_for(node)

    def _mint_dispatch_id(self) -> str:
        """A fresh dispatch identity for one forwarded clone."""
        return f"{self._dispatch_prefix}{next(self._dispatch_serial)}@{self.site}"

    def _child_history(self, clone: QueryClone) -> tuple[str, ...]:
        """The retrace trail forwarded clones carry (§2.6 alternative)."""
        if self.config.direct_result_return:
            return ()
        if clone.history and clone.history[-1] == self.site:
            return clone.history  # local hop: the retrace chain is unchanged
        return clone.history + (self.site,)

    def _process(
        self, clone: QueryClone
    ) -> tuple[list[CloneReport], list[QueryClone], float]:
        """One clone: admission, a visit per admitted node, the report.

        Returns the reports, the child clones and the service time charged.
        """
        now = self.clock.now
        if self._terminal(clone.query):
            # Passive termination already observed here, or the origin's
            # watermark passed the query: drop silently.
            if self.tracer.enabled:
                self.tracer.nodes(now, clone, self.site, "purged")
            return [], [], self.config.node_service_time
        # §7.1 site table: fetched once per clone, at its first node with a document.
        sitewide: list | None = [] if clone.query.sitewide else None
        visits = [
            (row, None if row is None else self._visit(clone, node, row, now, sitewide))
            for node, row in self._observe(clone, now)
        ]
        return self._report(clone, visits)

    # -- the stages --------------------------------------------------------------

    def _terminal(self, query: WebQuery) -> bool:
        """Whether ``query`` is known terminal here; applies its watermark.

        A watermark above the origin's held one purges what the origin's
        queries below it left here — log entries and purge memory — once
        per server per query.  Below the held watermark a query is
        terminal without a purge record.
        """
        qid = query.qid
        origin = (qid.user, qid.host)
        held = self._marks.get(origin, 0)
        mark = query.done_below or qid.number  # ``query.mark``, without the call
        if mark > held:
            self._marks[origin] = mark
            self.log_table.drop_below(qid.user, qid.host, mark)
            if self._purged:
                self._purged = {gone for gone in self._purged if not self._below_mark(gone)}
        elif qid.number < held:
            return True
        return qid in self._purged

    def _below_mark(self, qid: QueryId) -> bool:
        """Whether the held watermark of ``qid``'s origin passed it."""
        return qid.number < self._marks.get((qid.user, qid.host), 0)

    def _note_purged(self, qid: QueryId) -> None:
        """Remember passive termination of ``qid`` — unless its watermark did."""
        if not self._below_mark(qid):
            self._purged.add(qid)

    def _observe(
        self, clone: QueryClone, now: float
    ) -> Iterator[tuple[Url, "StateRow | None"]]:
        """Log-table admission: each node with the row it is visited in.

        One bulk log-table pass for the clone's whole node list (all nodes
        share the clone's state); node order — and therefore every
        drop/rewrite outcome — is the per-node sequence.  A DUPLICATE node
        comes with None, a REWRITTEN one with its rewritten row, any other
        with the clone's own row.  Yielded lazily, so each node's admission
        event precedes its visit's events in the trace.
        """
        row = clone.row
        if not self.config.log_table_enabled:
            for node in clone.dest:
                yield node, row
            return
        tracing = self.tracer.enabled
        observations = self.log_table.observe_bulk(
            clone.dest, clone.query.qid, row.state, now, clone.epoch
        )
        for node, observation in zip(clone.dest, observations):
            if observation.action is LogAction.DROP:
                self.stats.duplicates_dropped += 1
                visit_row, action, detail = None, "duplicate-dropped", ""
            elif observation.action is LogAction.REWRITE:
                visit_row = row.rewritten()
                self.stats.queries_rewritten += 1
                action, detail = "rewritten", f"rem -> {visit_row.rem}"
            else:
                yield node, row
                continue
            if tracing:
                self.tracer.node(now, node, self.site, row.state, action, detail)
            yield node, visit_row

    def _visit(
        self,
        clone: QueryClone,
        node: Url,
        row: "StateRow",
        now: float,
        sitewide: list | None,
    ) -> tuple[NodeOutcome | None, float]:
        """One admitted node, visited in ``row``'s state.

        Returns the outcome — None when the document cannot be had — and the
        service time charged.  First one probe for the memo's visit entry of
        (node, state): a hit is the whole visit — no document, no database,
        no part probes — charged the base per-node service time.  Otherwise
        the part path: the database is built lazily, so a node whose rows
        and fan-out probes all hit never parses its document, is charged
        only the base service time too (like a duplicate drop), and is kept
        as a visit entry.  Without a memo the first worklist item always
        resolves the database, so ``built`` is set and parse + scan is
        charged.  ``sitewide`` holds the clone's site table once fetched
        (None: the query needs none); such a clone keeps the part path.
        """
        memo = self.memo if sitewide is None else None
        service = self.config.node_service_time
        entry = None
        if memo is not None:
            key = row.visit_key()
            entry = memo.visit_for(node, key)
        if entry is not None:
            outcome = _served(entry, row.program)
        else:
            html = self._html_for(node)
            outcome = None
            if html is not None:
                version = memo.open_visit() if memo is not None else 0
                built: list = []

                def provider():
                    if not built:
                        built.append(self.constructor.construct(node, html))
                        self.stats.documents_parsed += 1
                    return built[0]

                if sitewide is not None and not sitewide:
                    sitewide.append(
                        self.constructor.site_documents(self.web.site(node.host), self.stats)
                    )
                self.part_path_visits += 1
                outcome = process_node(
                    node, provider, clone.query, row.step_index, row.rem, self.config,
                    site_documents=sitewide[0] if sitewide else None,
                    plans=self.plans if self.config.compiled_plans else None,
                    memo=self.memo,
                )
                if built:
                    service = self.config.service_time(len(html), outcome.tuples_scanned)
                elif memo is not None:
                    memo.store_visit(node, key, outcome, version, not row.fanout())
        # A hit reads the flag its entry keeps: the row's fan-out may be underived.
        self.no_fanout_visits += entry.no_fanout if entry is not None else not row.fanout()
        if outcome is not None:
            self.stats.node_queries_evaluated += len(outcome.evaluations)
            if outcome.dead_end:
                self.stats.dead_ends += 1
        if self.tracer.enabled:
            self.tracer.outcome(now, node, self.site, clone.state, outcome, clone.query)
        return outcome, service

    def _report(
        self,
        clone: QueryClone,
        visits: "list[tuple[StateRow | None, tuple[NodeOutcome | None, float] | None]]",
    ) -> tuple[list[CloneReport], list[QueryClone], float]:
        """The clone's report, its child clones and the summed service time.

        ``visits`` pairs each node's admission row with what :meth:`_visit`
        returned for it (None for a node dropped at admission), in node
        order.  The report's per-node columns are appended to node by node
        (see :class:`CloneReport`): a disposition, then where the node's rows
        and the forwards it announced end in the shared lists.  A node
        dropped at admission costs the base per-node service time.
        """
        dispositions: list[Disposition] = []
        rows: list = []
        row_ends: list[int] = []
        forward_ends: list[int] = []
        all_forwards: list[Forward] = []
        #: Forwards already announced for an earlier node of this clone.
        #: Without it, two destination nodes at one site pointing at the same
        #: target would add two CHT entries for a single eventual visit and
        #: the query would never be detected complete.
        announced: set[Forward] = set()
        service = 0.0
        own_row = clone.row
        for row, visit in visits:
            if visit is None:
                service += self.config.node_service_time
                dispositions.append(Disposition.DUPLICATE)
            else:
                outcome, cost = visit
                service += cost
                if outcome is None:
                    dispositions.append(Disposition.MISSING)
                else:
                    for forward in outcome.forwards:
                        if forward not in announced:
                            announced.add(forward)
                            all_forwards.append(forward)
                    dispositions.append(
                        Disposition.PROCESSED if row is own_row else Disposition.REWRITTEN
                    )
                    rows += outcome.results
            row_ends.append(len(rows))
            forward_ends.append(len(all_forwards))

        # Identities: each outgoing clone travels under a fresh dispatch id
        # (epoch inherited from the parent), and the report announces it via
        # ``child_ids`` so the user-site registers exactly the identity the
        # child's own report will later echo.
        clones, child_ids = self._build_clones(clone, all_forwards)
        report = CloneReport(
            clone.dest, clone.state, dispositions, rows, row_ends,
            [(forward.target, forward.row.state) for forward in all_forwards],
            child_ids, forward_ends, clone.dispatch_id, clone.epoch,
        )
        return [report], clones, service

    def _build_clones(
        self, clone: QueryClone, forwards: list[Forward]
    ) -> tuple[list[QueryClone], list[str]]:
        """Group forwards into clones (optimization 4: one per site & state).

        Returns the clones, each stamped with a freshly minted dispatch
        identity, and — parallel to ``forwards`` — the identity each forward
        travels under: the report's ``child_ids`` column.  ``forwards`` holds
        no duplicates (the caller's ``announced`` set), so neither does a
        clone's node list.

        With a ``pump_budget`` configured, each group's node list is further
        chunked to at most ``pump_budget`` nodes per clone: a whole BFS
        layer coalesced into one fat clone would otherwise be indivisible —
        one pump would process every node of the layer no matter the
        budget, and the scheduler would have nothing to interleave.
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


def _served(entry: VisitEntry, program: "QueryProgram") -> NodeOutcome:
    """The outcome a visit entry stands for, its forwards bound to the rows
    of the visiting query's ``program``."""
    row_for = program.row
    forwards: list[Forward] = []
    for step_index, rem, targets in entry.forwards:
        next_row = row_for(step_index, rem)
        forwards += [Forward(next_row, target) for target in targets]
    return NodeOutcome(list(entry.results), forwards, list(entry.evaluations))

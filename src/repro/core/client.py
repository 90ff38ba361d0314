"""The user-site WEBDIS client: submission, result collection, termination.

Implements Figure 2's ``send_query`` / ``receive_results`` pair:

* ``submit`` allocates a result port, opens the listening socket, seeds the
  CHT with the StartNodes, and dispatches the initial clones (grouped per
  start site);
* each arriving :class:`ResultMessage` hands each clone's report to the
  CHT in one call (retiring its nodes' entries, merging the new entries)
  and stores its result rows; when the CHT shows all
  entries deleted the query is complete — exact completion detection with
  no timeouts;
* ``cancel`` implements passive termination (Section 2.8): the listening
  socket is closed and the query is purged locally; servers discover the
  cancellation when their next result dispatch fails.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import Callable

from ..errors import ProtocolError, QueryLifecycleError
from ..net.network import (
    FIRST_RESULT_PORT,
    HELPER_PORT,
    QUERY_PORT,
    Network,
    SendOutcome,
)
from ..net.reliable import ReliableChannel
from ..net.simclock import SimClock
from ..net.stats import TrafficStats
from ..relational.query import ResultRow
from ..urlutils import Url
from .cht import CurrentHostsTable, RetireResult
from .config import EngineConfig
from .messages import ChtEntry, CloneReport, Disposition, ResultMessage
from .trace import START_NODE, Tracer
from .webquery import QueryClone, QueryId, WebQuery

__all__ = ["QueryStatus", "QueryHandle", "UserSiteClient"]


class QueryStatus(enum.Enum):
    RUNNING = "running"
    COMPLETE = "complete"
    CANCELLED = "cancelled"
    #: Recovery gave up on part of the query (graceful degradation): the
    #: reachable portion of the answer was collected, the rest written off.
    PARTIAL = "partial"


@dataclass
class QueryHandle:
    """The user's view of one submitted web-query."""

    query: WebQuery
    cht: CurrentHostsTable
    submit_time: float
    status: QueryStatus = QueryStatus.RUNNING
    completion_time: float | None = None
    first_result_time: float | None = None
    cancel_time: float | None = None
    results: list[tuple[str, ResultRow, float]] = field(default_factory=list)
    messages_received: int = 0
    #: Arrival time of the most recent report message (None before any).
    last_message_time: float | None = None
    #: Streaming hooks — results display incrementally, like the paper's
    #: GUI, which showed rows as they arrived rather than at completion.
    on_result: Callable[[str, ResultRow, float], None] | None = None
    on_complete: Callable[["QueryHandle"], None] | None = None
    #: Set by the :class:`~repro.core.supervisor.QuerySupervisor` when the
    #: query made no progress past a deadline.  Note this is a *failure
    #: detector*, not completion detection — the CHT makes completion exact
    #: without timeouts (§2.7); the supervisor only flags queries stalled by
    #: lost messages or dead servers.
    stall_detected_at: float | None = None
    #: Bumped by each :meth:`UserSiteClient.reforward_pending` round; clones
    #: re-dispatched by recovery carry the new epoch, so reports from the
    #: superseded dispatches are recognizably stale.
    recovery_epoch: int = 0
    #: ``(node, step label)`` pairs whose result rows were already ingested
    #: — a node-query's evaluation at a node is deterministic, so a second
    #: report for the same pair (re-processing after a crash wiped the
    #: target's log table, in whatever state) carries rows the user already
    #: has.
    row_sources: set = field(default_factory=set)
    #: Why the query finished PARTIAL (empty otherwise).
    partial_reason: str = ""
    #: Nodes whose pending clones a saturated server shed (OVERLOADED
    #: retractions).  Non-empty at quiescence ⇒ the query's coverage has a
    #: hole, so completion finishes it PARTIAL, never COMPLETE.
    shed_nodes: set = field(default_factory=set)
    #: The results/CHT-separation ablation's halves that arrived alone, by
    #: ``(dispatch id, node)``: the state of a CHT half whose node waits for
    #: its rows before it retires, or None for rows whose CHT half is still
    #: to come.
    lone_halves: dict = field(default_factory=dict)

    @property
    def stalled(self) -> bool:
        return self.stall_detected_at is not None

    @property
    def finished(self) -> bool:
        return self.status is not QueryStatus.RUNNING

    @property
    def qid(self) -> QueryId:
        return self.query.qid

    def rows(self, label: str | None = None) -> list[ResultRow]:
        """Result rows, optionally restricted to one node-query label."""
        return [row for lbl, row, __ in self.results if label is None or lbl == label]

    def unique_rows(self, label: str | None = None) -> list[ResultRow]:
        """Rows with exact duplicates removed, preserving first-seen order."""
        seen: set[tuple[tuple[str, ...], tuple[object, ...]]] = set()
        unique = []
        for row in self.rows(label):
            key = (row.header, row.values)
            if key not in seen:
                seen.add(key)
                unique.append(row)
        return unique

    def response_time(self) -> float | None:
        """Submission-to-completion latency (None while running)."""
        if self.completion_time is None:
            return None
        return self.completion_time - self.submit_time

    def first_result_latency(self) -> float | None:
        if self.first_result_time is None:
            return None
        return self.first_result_time - self.submit_time

    def display_rows(self, label: str | None = None) -> list[ResultRow]:
        """Rows after applying the query's display directives.

        ``select distinct`` collapses duplicates; ``order by`` sorts, per key,
        the rows whose own header has it (rows from steps that lack a key keep
        their arrival places).  This is the result collector's "process
        results for display" step (Figure 2, line 13).
        """
        rows = self.unique_rows(label) if self.query.display_distinct else self.rows(label)
        for name, descending in reversed(self.query.display_order):
            places = [i for i, row in enumerate(rows) if name in row.header]
            ordered = sorted(
                (rows[i] for i in places), reverse=descending,
                key=lambda r: str(r.values[r.header.index(name)]),
            )
            for i, row in zip(places, ordered):
                rows[i] = row
        if self.query.display_limit is not None:
            rows = rows[: self.query.display_limit]
        return rows

    def display_table(self) -> str:
        """Render results grouped by node-query, Figure-8 style."""
        lines = [f"Results of the query {self.qid.number} by user {self.qid.user}"]
        labels = list(dict.fromkeys(lbl for lbl, __, ___ in self.results))
        for label in labels:
            has_directives = (
                self.query.display_order
                or self.query.display_distinct
                or self.query.display_limit is not None
            )
            rows = self.display_rows(label) if has_directives else self.unique_rows(label)
            if not rows:
                continue
            header = rows[0].header
            widths = [
                max(len(h), *(len(str(r.values[i])) for r in rows))
                for i, h in enumerate(header)
            ]
            lines.append("")
            lines.append("  ".join(h.ljust(w) for h, w in zip(header, widths)))
            lines.append("  ".join("-" * w for w in widths))
            for row in rows:
                lines.append(
                    "  ".join(str(v).ljust(w) for v, w in zip(row.values, widths))
                )
        return "\n".join(lines)


class UserSiteClient:
    """The WEBDIS client process at one user site."""

    #: Builds each submitted query's CHT.  The one substitution seam the
    #: DST harness uses to swap in a deliberately broken table.
    cht_factory: Callable[[], CurrentHostsTable] = CurrentHostsTable

    def __init__(
        self,
        site: str,
        network: Network,
        clock: SimClock,
        stats: TrafficStats,
        tracer: Tracer,
        config: EngineConfig,
        user: str = "maya",
    ) -> None:
        self.site = site
        self.network = network
        self.clock = clock
        self.stats = stats
        self.tracer = tracer
        self.config = config
        self.user = user
        self.channel = ReliableChannel(
            network, clock, config.retry_policy, name=f"client:{site}",
            trace=(lambda action, detail: tracer.site(clock.now, site, action, detail))
            if tracer.enabled else None,
        )
        self._query_numbers = itertools.count(1)
        self._ports = itertools.count(FIRST_RESULT_PORT)
        self._dispatch_serial = itertools.count(1)
        #: Numbers of the submitted queries that are not yet terminal; the
        #: smallest is the completion watermark each new query carries.
        self._live: set[int] = set()
        #: Called with the handle whenever a query leaves RUNNING — complete,
        #: partial or cancelled.  An engine with no quiescence signal of its
        #: own (real sockets) waits on this instead of polling.
        self.on_terminal: Callable[[QueryHandle], None] | None = None

    def _close_result_port(self, handle: QueryHandle) -> None:
        """The step every way out of RUNNING shares (§2.8: close the socket)."""
        self._live.discard(handle.qid.number)
        self.network.close(self.site, handle.qid.port)
        if self.on_terminal is not None:
            self.on_terminal(handle)

    def _mint_dispatch_id(self) -> str:
        """A dispatch identity unique across the run (site-scoped serial)."""
        return f"u{next(self._dispatch_serial)}@{self.site}"

    # -- Figure 2: send_query ---------------------------------------------------

    def submit(
        self,
        query: WebQuery,
        on_result: Callable[[str, ResultRow, float], None] | None = None,
        on_complete: Callable[[QueryHandle], None] | None = None,
    ) -> QueryHandle:
        """Dispatch ``query`` to its StartNodes and start listening.

        ``on_result(label, row, time)`` fires per arriving row (streaming
        display); ``on_complete(handle)`` fires once at exact completion.
        """
        number = next(self._query_numbers)
        port = next(self._ports)
        qid = QueryId(self.user, self.site, port, number)
        self._live.add(number)
        oldest = min(self._live)
        query = query.with_qid(qid, oldest if oldest < number else None)
        handle = QueryHandle(
            query,
            self.cht_factory(),
            submit_time=self.clock.now,
            on_result=on_result,
            on_complete=on_complete,
        )
        self.network.listen(
            self.site, port, lambda src, payload: self._receive(handle, src, payload)
        )

        start = query.program.starts[0]
        state = start.state
        by_site: dict[str, list[Url]] = {}
        for url in query.start_urls:
            node = url.without_fragment()
            if self.tracer.enabled:
                self.tracer.node(
                    self.clock.now, node, node.host, state, "dispatched", role=START_NODE
                )
            by_site.setdefault(node.host, []).append(node)

        for site, nodes in by_site.items():
            groups = [tuple(nodes)] if self.config.batch_per_site else [(n,) for n in nodes]
            for group in groups:
                clone = QueryClone.at(
                    query, start, group,
                    dispatch_id=self._mint_dispatch_id(), epoch=handle.recovery_epoch,
                )
                for node in group:
                    handle.cht.add(
                        ChtEntry(node, state), self.clock.now,
                        dispatch_id=clone.dispatch_id, epoch=clone.epoch,
                    )
                self._dispatch_clone(handle, clone, "unreachable-start")
        self._check_completion(handle)
        return handle

    def _dispatch_clone(
        self, handle: QueryHandle, clone: QueryClone, failure_action: str
    ) -> None:
        """Send ``clone`` to its site reliably; retire its entries on failure.

        The channel retries transient faults; the callback fires with the
        final outcome (synchronously when the first connect settles it).
        All of the clone's CHT entries must already be in the table —
        retirement on failure keeps completion exact.
        """
        state = clone.state

        def after_send(outcome: SendOutcome) -> None:
            if outcome.delivered:
                self.stats.clones_forwarded += 1
                return
            if outcome is not SendOutcome.ABANDONED and (
                self.config.central_fallback
                and self.network.send(self.site, self.site, HELPER_PORT, clone)
            ):
                self.stats.clones_forwarded += 1
                return
            if handle.status is not QueryStatus.RUNNING:
                return  # cancelled/escalated while the send awaited a retry
            # Destination unreachable / not participating: retire entries.
            for node in clone.dest:
                handle.cht.mark_deleted(
                    ChtEntry(node, state), self.clock.now,
                    dispatch_id=clone.dispatch_id,
                )
                if self.tracer.enabled:
                    self.tracer.node(
                        self.clock.now, node, clone.site, state, failure_action, role=START_NODE
                    )
            self._check_completion(handle)

        self.channel.send(
            self.site, clone.site, QUERY_PORT, clone, after_send, tag=handle.qid
        )

    # -- Figure 2: receive_results ------------------------------------------------

    def _receive(self, handle: QueryHandle, src: str, payload: object) -> None:
        assert isinstance(payload, ResultMessage)
        if handle.status is not QueryStatus.RUNNING:
            return
        now = self.clock.now
        handle.messages_received += 1
        handle.last_message_time = now
        cht = handle.cht
        for report in payload.reports:
            if report.bookkeeping:
                if not report.dispatch_id or len(report.child_ids) != len(report.new_entries):
                    raise ProtocolError(
                        f"malformed report for {list(map(str, report.nodes))} from {src}: "
                        f"dispatch id {report.dispatch_id!r}, {len(report.child_ids)} child "
                        f"id(s) for {len(report.new_entries)} new entr(ies)"
                    )
                if Disposition.OVERLOADED in report.dispositions:
                    # A saturated server shed this pending clone: its entries
                    # retire like any retraction, but the coverage hole is
                    # remembered — completion degrades to PARTIAL.
                    handle.shed_nodes.update(
                        node
                        for node, disposition in zip(report.nodes, report.dispositions)
                        if disposition is Disposition.OVERLOADED
                    )
                # Announcements are accepted even from an absorbed report:
                # the server really did forward those children (forwards
                # follow a *successful* report connect), so the CHT must
                # expect their reports.  Idempotence comes from the child
                # dispatch identities, not from dropping the announcement.
                held = self._hold_for_rows(handle, report) if report.rows_follow else ()
                duplicates, stale = cht.apply(report, now, held)
                self.stats.duplicate_reports_absorbed += duplicates
                self.stats.stale_reports_absorbed += stale
                if (duplicates or stale) and self.tracer.enabled:
                    absorbed = [f"duplicate {report.dispatch_id}"] * duplicates
                    absorbed += [f"stale {report.dispatch_id} epoch {report.epoch}"] * stale
                    for detail in absorbed:
                        self.tracer.site(self.clock.now, self.site, "report-absorbed", detail)
            if report.rows:
                self._ingest_rows(handle, report, now)
                if not report.bookkeeping:
                    self._rows_arrived(handle, report, now)
        cht.check_consistency()
        self._check_completion(handle)

    # The results/CHT-separation ablation sends a report as two messages: the
    # CHT half (every column but the rows; ``row_ends`` still counts them) and
    # the rows.  The half that retires a node could otherwise complete the
    # query — and close its result port — before the rows are in, so a node
    # with rows retires only once both halves have arrived, in either order.

    def _hold_for_rows(self, handle: QueryHandle, report: CloneReport) -> set[int]:
        """The positions of a CHT half's nodes whose rows are not in yet."""
        halves, dispatch_id, state = handle.lone_halves, report.dispatch_id, report.state
        held: set[int] = set()
        start = 0
        for index, (node, stop) in enumerate(zip(report.nodes, report.row_ends)):
            if stop > start:
                key = (dispatch_id, node)
                if key in halves and halves[key] is None:
                    del halves[key]  # its rows came first: it retires now
                else:
                    halves[key] = state
                    held.add(index)
            start = stop
        return held

    def _rows_arrived(self, handle: QueryHandle, report: CloneReport, now: float) -> None:
        """Retire the nodes whose CHT half came first; remember the others."""
        halves, dispatch_id = handle.lone_halves, report.dispatch_id
        for node in report.nodes:
            key = (dispatch_id, node)
            state = halves.pop(key, None)
            if state is None:
                halves[key] = None  # retired when its CHT half arrives
                continue
            result = handle.cht.mark_deleted(ChtEntry(node, state), now, dispatch_id=dispatch_id)
            self.stats.duplicate_reports_absorbed += result is RetireResult.ABSORBED_DUPLICATE
            self.stats.stale_reports_absorbed += result is RetireResult.ABSORBED_STALE

    def _ingest_rows(self, handle: QueryHandle, report: CloneReport, now: float) -> None:
        """Store a report's rows, deduplicating re-processed work.

        A node-query's evaluation at a node is deterministic, so two reports
        of rows for the same ``(node, step)`` carry identical rows — the
        second is a recovery artifact (the clone was re-forwarded and the
        target's log table had been wiped by a crash, so the node may act
        again in a *different* state).  A row's label names its node-query
        step, and a node that acts for two steps reports a run of rows per
        step, so each run is keyed by ``(node, label)``.  Only queries that
        have been through a recovery round can see those; before that, a
        repeated ``(node, step)`` is legitimate protocol traffic (e.g. the
        log-table-disabled ablation) and is kept.
        """
        rows = report.rows
        sources = handle.row_sources
        deduplicate = handle.recovery_epoch > 0
        on_result = handle.on_result
        start = 0
        for node, stop in zip(report.nodes, report.row_ends):
            while start < stop:
                label = rows[start][0]
                end = start + 1
                while end < stop and rows[end][0] == label:
                    end += 1
                source = (node, label)
                if deduplicate and source in sources:
                    self.stats.duplicate_rows_dropped += end - start
                    if self.tracer.enabled:
                        self.tracer.site(
                            self.clock.now, self.site, "rows-deduplicated",
                            f"{node} x{end - start}",
                        )
                    start = end
                    continue
                sources.add(source)
                if handle.first_result_time is None:
                    handle.first_result_time = now
                for __, row in rows[start:end]:
                    handle.results.append((label, row, now))
                    if on_result is not None:
                        on_result(label, row, now)
                start = end

    def _check_completion(self, handle: QueryHandle) -> None:
        if handle.status is QueryStatus.RUNNING and handle.cht.all_deleted():
            if handle.shed_nodes:
                # Every entry resolved, but some were resolved by overload
                # shedding — coverage has a known hole, so this is the
                # graceful-degradation outcome, not completion.
                handle.status = QueryStatus.PARTIAL
                handle.partial_reason = (
                    f"overload-shed ({len(handle.shed_nodes)} node(s))"
                )
                self.stats.queries_partial += 1
                if self.tracer.enabled:
                    self.tracer.site(
                        self.clock.now, self.site, "finished-partial",
                        f"{handle.qid}: {len(handle.shed_nodes)} node(s) shed",
                    )
            else:
                handle.status = QueryStatus.COMPLETE
            handle.completion_time = self.clock.now
            self._close_result_port(handle)
            if handle.on_complete is not None:
                handle.on_complete(handle)

    # -- crash recovery (extension): re-forward orphaned clones --------------------

    def reforward_pending(self, handle: QueryHandle) -> int:
        """Re-dispatch a clone for every outstanding CHT entry.

        A clone that died inside a crashed query-server (queued, being
        processed, or in flight to it) leaves its CHT entry pending forever:
        the forwarder saw a successful connect, so no retry fires and no
        retraction arrives.  The entry's ``(node, state)`` key is exactly the
        paper's complete clone state (§2.7.1), so the user-site can rebuild
        the clone and forward it afresh — each re-forward is resolved by a
        new report (possibly a DUPLICATE drop at the target's log table) or,
        if the site stays unreachable, a retraction.

        Meant for entries believed *orphaned* — e.g. by the
        :class:`~repro.core.supervisor.QuerySupervisor` — but safe when the
        original report is merely slow: each pending instance is superseded
        under a new recovery epoch, so the late report is absorbed as stale
        and only the re-forward's own report retires the entry.  Returns the number of clones re-forwarded.
        """
        if handle.status is not QueryStatus.RUNNING:
            return 0
        now = self.clock.now
        query = handle.query
        handle.recovery_epoch += 1
        epoch = handle.recovery_epoch

        # Group the pending instances, supersede under the new epoch,
        # re-dispatch.
        instance_groups: dict[tuple[str, int, object], list] = {}
        for instance in handle.cht.pending_instances():
            entry = instance.entry
            step_index = len(query.steps) - entry.state.num_q
            key = (entry.node.host, step_index, entry.state.rem)
            instance_groups.setdefault(key, []).append(instance)
        count = 0
        for (site, step_index, rem), instances in sorted(
            instance_groups.items(), key=lambda item: str(item[0])
        ):
            seen: dict[Url, object] = {}
            for instance in instances:
                seen.setdefault(instance.node, instance)
            clone = QueryClone(
                query, step_index, rem, tuple(seen),
                dispatch_id=self._mint_dispatch_id(), epoch=epoch,
            )
            for node, instance in seen.items():
                handle.cht.supersede(
                    instance.dispatch_id, node, clone.dispatch_id, epoch, now
                )
                if self.tracer.enabled:
                    self.tracer.node(
                        now, node, site, clone.state, "re-forwarded",
                        f"epoch {epoch} supersedes {instance.dispatch_id}",
                    )
            self.stats.clones_reforwarded += 1
            count += 1
            self._dispatch_clone(handle, clone, "unreachable-reforward")

        handle.cht.check_consistency()
        return count

    # -- Section 2.8: passive termination ----------------------------------------

    def cancel(self, handle: QueryHandle) -> None:
        """Cancel a running query by closing its result socket.

        Outbound sends still awaiting a retry for this query are abandoned
        too — a cancelled query must not keep re-offering its clones to
        sites that were down when it was alive.
        """
        if handle.status is not QueryStatus.RUNNING:
            raise QueryLifecycleError(f"cannot cancel a {handle.status.value} query")
        handle.status = QueryStatus.CANCELLED
        handle.cancel_time = self.clock.now
        self._close_result_port(handle)
        abandoned = self.channel.reset(tag=handle.qid)
        if abandoned and self.tracer.enabled:
            self.tracer.site(
                self.clock.now, self.site, "cancel-abandoned-sends", f"{handle.qid}: {abandoned}"
            )

    # -- graceful degradation (extension): finish with partial coverage ------------

    def finish_partial(self, handle: QueryHandle, reason: str) -> int:
        """Give up on the outstanding entries and finish the query PARTIAL.

        Every pending dispatch instance is written off (visible afterwards
        via ``handle.cht.abandoned_instances()`` for the coverage report),
        the result socket closes so lingering servers purge via passive
        termination, and pending outbound retries are abandoned.  Returns
        the number of instances written off.
        """
        if handle.status is not QueryStatus.RUNNING:
            raise QueryLifecycleError(
                f"cannot finish a {handle.status.value} query as partial"
            )
        now = self.clock.now
        written_off = 0
        for instance in handle.cht.pending_instances():
            handle.cht.abandon(instance.dispatch_id, instance.node, reason, now)
            written_off += 1
        handle.status = QueryStatus.PARTIAL
        handle.partial_reason = reason
        handle.completion_time = now
        handle.cancel_time = now
        self.stats.queries_partial += 1
        self._close_result_port(handle)
        self.channel.reset(tag=handle.qid)
        if self.tracer.enabled:
            self.tracer.site(
                self.clock.now, self.site, "finished-partial",
                f"{handle.qid}: {written_off} written off ({reason})",
            )
        if handle.on_complete is not None:
            handle.on_complete(handle)
        return written_off

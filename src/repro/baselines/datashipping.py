"""The centralized data-shipping baseline.

This is the architecture of every pre-WEBDIS web-query system ([14], [12],
[11] in the paper): the user-site downloads each candidate document, builds
its virtual relations *locally*, evaluates node-queries *locally*, and
decides from the local results which documents to download next.

To make the comparison about the *architecture* and nothing else, this
engine reuses the identical components: the same
:func:`~repro.core.processing.process_node` traversal semantics, the same
:class:`~repro.core.logtable.NodeQueryLogTable` duplicate suppression, and
the same CPU cost model — all charged to the single user site.  The network
carries :class:`FetchRequest`/:class:`DocResponse` pairs instead of clones,
so bytes scale with document volume (paper §1's criticism) rather than with
query+result volume.

``max_concurrent_fetches`` models HTTP pipelining; processing is strictly
sequential at the user site, which is what makes it the bottleneck
(EXP-C6).
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass, field

from ..core.config import EngineConfig
from ..core.logtable import LogAction, NodeQueryLogTable
from ..core.plancache import PlanCache
from ..core.processing import process_node
from ..core.trace import Tracer
from ..core.webquery import WebQuery
from ..disql.translate import compile_disql
from ..model.database import DatabaseConstructor
from ..net.network import Network, NetworkConfig, SendOutcome
from ..net.reliable import ReliableChannel
from ..net.simclock import SimClock
from ..net.stats import TrafficStats
from ..pre.ast import Pre
from ..relational.query import ResultRow
from ..urlutils import Url
from ..web.web import Web
from .docservice import DOC_PORT, DocResponse, FetchRequest, install_doc_servers

__all__ = ["DataShippingEngine", "DataShippingResult", "JournalEntry"]

_RESULT_PORT = 9000


@dataclass
class DataShippingResult:
    """Results of one centralized run; mirrors the QueryHandle accessors."""

    query: WebQuery
    submit_time: float
    completion_time: float | None = None
    first_result_time: float | None = None
    results: list[tuple[str, ResultRow, float]] = field(default_factory=list)
    documents_fetched: int = 0

    def rows(self, label: str | None = None) -> list[ResultRow]:
        return [row for lbl, row, __ in self.results if label is None or lbl == label]

    def unique_rows(self, label: str | None = None) -> list[ResultRow]:
        seen: set[tuple[tuple[str, ...], tuple[object, ...]]] = set()
        unique = []
        for row in self.rows(label):
            key = (row.header, row.values)
            if key not in seen:
                seen.add(key)
                unique.append(row)
        return unique

    def response_time(self) -> float | None:
        if self.completion_time is None:
            return None
        return self.completion_time - self.submit_time

    def first_result_latency(self) -> float | None:
        if self.first_result_time is None:
            return None
        return self.first_result_time - self.submit_time


@dataclass(frozen=True, slots=True)
class JournalEntry:
    """Provenance of one processed node (``record_journal=True``).

    The DST oracle replays a fault-free centralized run and needs to know,
    for every node the traversal touched, which result rows that node
    produced and which nodes it forwarded to — the edges of the reference
    provenance graph used to decide whether a row missing from a PARTIAL
    distributed run is attributable to an abandoned dispatch.
    """

    node: str
    rows: tuple[tuple[str, tuple[str, ...], tuple[object, ...]], ...]
    forwards: tuple[str, ...]


@dataclass(frozen=True, slots=True)
class _Work:
    """One pending node visit: evaluate step ``step_index`` after ``rem``."""

    url: Url
    step_index: int
    rem: Pre


class DataShippingEngine:
    """Centralized engine: all processing at the user site."""

    def __init__(
        self,
        web: Web,
        *,
        config: EngineConfig | None = None,
        net_config: NetworkConfig | None = None,
        user_site: str = "user.example",
        max_concurrent_fetches: int = 4,
        trace: bool = False,
        record_journal: bool = False,
    ) -> None:
        self.web = web
        self.config = config if config is not None else EngineConfig()
        self.clock = SimClock()
        self.stats = TrafficStats()
        self.tracer = Tracer(enabled=trace)
        self.network = Network(self.clock, self.stats, net_config)
        self.user_site = user_site
        self.max_concurrent_fetches = max_concurrent_fetches

        self.network.register_site(user_site)
        for site in web.site_names:
            self.network.register_site(site)
        install_doc_servers(web, self.network, self.clock, self.stats)
        self.network.listen(user_site, _RESULT_PORT, self._on_response)

        self.channel = ReliableChannel(
            self.network, self.clock, self.config.retry_policy,
            name=f"datashipping:{user_site}",
        )
        self.constructor = DatabaseConstructor(stats=self.stats)
        self.log_table = NodeQueryLogTable(self.config.log_subsumption)
        self.plans = PlanCache(stats=self.stats)
        self._request_ids = itertools.count(1)
        self._frontier: deque[_Work] = deque()
        self._in_flight: dict[int, _Work] = {}
        self._processing_backlog: deque[tuple[_Work, str | None]] = deque()
        self._busy = False
        self._result: DataShippingResult | None = None
        self._record_journal = record_journal
        #: Per-node provenance (:class:`JournalEntry`) when recording.
        self.journal: list[JournalEntry] = []

    # -- public API -----------------------------------------------------------

    def submit(self, query: WebQuery) -> DataShippingResult:
        """Start the centralized evaluation of ``query``."""
        if self._result is not None:
            raise RuntimeError("DataShippingEngine handles one query per instance")
        self._result = DataShippingResult(query, submit_time=self.clock.now)
        initial = query.steps[0].pre
        for url in query.start_urls:
            self._frontier.append(_Work(url.without_fragment(), 0, initial))
        self._issue_fetches()
        return self._result

    def submit_disql(self, text: str) -> DataShippingResult:
        return self.submit(compile_disql(text))

    def run(self, until: float | None = None) -> float:
        return self.clock.run(until)

    def run_query(self, disql_text: str) -> DataShippingResult:
        result = self.submit_disql(disql_text)
        self.run()
        return result

    # -- fetch pipeline ------------------------------------------------------

    def _issue_fetches(self) -> None:
        while self._frontier and len(self._in_flight) < self.max_concurrent_fetches:
            work = self._frontier.popleft()
            if not self._should_process(work):
                continue
            request_id = next(self._request_ids)
            request = FetchRequest(work.url, self.user_site, _RESULT_PORT, request_id)
            # Count the fetch in flight across any retries — otherwise a
            # pending retry would be invisible to _maybe_finish and the run
            # could be declared complete with work still outstanding.
            self._in_flight[request_id] = work

            def after_send(outcome: SendOutcome, rid: int = request_id) -> None:
                if not outcome.delivered:
                    # Unreachable site: skip, like a failed HTTP connect.
                    self._in_flight.pop(rid, None)
                    self._maybe_finish()

            self.channel.send(self.user_site, work.url.host, DOC_PORT, request, after_send)
        self._maybe_finish()

    def _should_process(self, work: _Work) -> bool:
        """Apply the same duplicate suppression the distributed engine uses."""
        assert self._result is not None
        qid = self._result.query.qid
        state = _state_of(self._result.query, work)
        observation = self.log_table.observe(work.url, qid, state, self.clock.now)
        if observation.action is LogAction.DROP:
            self.stats.duplicates_dropped += 1
            return False
        if observation.action is LogAction.REWRITE:
            assert observation.rewritten_rem is not None
            self.stats.queries_rewritten += 1
            self._frontier.appendleft(
                _Work(work.url, work.step_index, observation.rewritten_rem)
            )
            return False
        return True

    def _on_response(self, src: str, payload: object) -> None:
        assert isinstance(payload, DocResponse)
        work = self._in_flight.pop(payload.request_id, None)
        if work is None:
            return
        self._processing_backlog.append((work, payload.html))
        self._pump()
        self._issue_fetches()

    # -- sequential local processing (the client bottleneck) --------------------

    def _pump(self) -> None:
        if self._busy or not self._processing_backlog:
            return
        self._busy = True
        work, html = self._processing_backlog.popleft()
        service = self._process(work, html)
        self.stats.record_processing(self.user_site, service)
        self.clock.schedule(service, self._processing_done)

    def _processing_done(self) -> None:
        self._busy = False
        self._pump()
        self._issue_fetches()

    def _process(self, work: _Work, html: str | None) -> float:
        assert self._result is not None
        query = self._result.query
        if html is None:
            if self.tracer.enabled:
                self.tracer.record(
                    self.clock.now, str(work.url), self.user_site,
                    _state_of(query, work), "-", "missing",
                )
            return self.config.node_service_time
        self._result.documents_fetched += 1
        database = self.constructor.construct(work.url, html)
        self.stats.documents_parsed += 1
        outcome = process_node(
            work.url, database, query, work.step_index, work.rem, self.config,
            site_documents=(
                self.constructor.site_documents(self.web.site(work.url.host), self.stats)
                if query.sitewide
                else None
            ),
            plan_for=self.plans.bind(query) if self.config.compiled_plans else None,
        )
        self.stats.node_queries_evaluated += len(outcome.evaluations)
        now = self.clock.now
        for label, row in outcome.results:
            if self._result.first_result_time is None:
                self._result.first_result_time = now
            self._result.results.append((label, row, now))
        if outcome.dead_end:
            self.stats.dead_ends += 1
        if self.tracer.enabled:
            for step_index, success in outcome.evaluations:
                self.tracer.record(
                    now, str(work.url), self.user_site, _state_of(query, work),
                    outcome.role, "answered" if success else "failed",
                    detail=query.step_label(step_index),
                )
        for forward in outcome.forwards:
            self._frontier.append(_Work(forward.target, forward.step_index, forward.rem))
        if self._record_journal:
            self.journal.append(
                JournalEntry(
                    node=str(work.url),
                    rows=tuple(
                        (label, row.header, row.values)
                        for label, row in outcome.results
                    ),
                    forwards=tuple(
                        str(forward.target.without_fragment())
                        for forward in outcome.forwards
                    ),
                )
            )
        return self.config.service_time(len(html), outcome.tuples_scanned)

    # -- completion -----------------------------------------------------------

    def _maybe_finish(self) -> None:
        if (
            self._result is not None
            and self._result.completion_time is None
            and not self._frontier
            and not self._in_flight
            and not self._processing_backlog
            and not self._busy
        ):
            self._result.completion_time = self.clock.now


def _state_of(query: WebQuery, work: _Work):
    return query.program.row(work.step_index, work.rem).state

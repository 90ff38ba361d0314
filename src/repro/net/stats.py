"""Traffic and load accounting.

A single :class:`TrafficStats` instance is shared by the network and every
engine in a run, so query-shipping and data-shipping executions of the same
workload produce directly comparable numbers (EXP-C1, EXP-C6 in DESIGN.md).

Concurrency rule
----------------

The counters are plain ints updated with read-modify-write — safe on the
single-threaded simulator, and equally safe on the asyncio backend
*provided every update happens on one event loop's thread*: asyncio tasks
only interleave at ``await`` points, so ``self.x += 1`` is atomic with
respect to other tasks on the same loop.  What would silently corrupt the
numbers is updates from a second loop or a worker thread.  Call
:meth:`bind_owner` (the asyncio backend does) to *enforce* that rule:
after binding, any counter write from a different thread raises instead of
racing, so backend stats are trustworthy by construction rather than by
convention.  The check exists only between :meth:`~TrafficStats.bind_owner`
and :meth:`~TrafficStats.unbind_owner`; the simulator's counters are plain
attribute writes.
"""

from __future__ import annotations

import threading
from collections import Counter
from dataclasses import dataclass, field, fields

__all__ = ["TrafficStats"]

#: :meth:`TrafficStats.summary` keys that predate the ``*_sent`` field names.
_SUMMARY_NAMES = {"messages_sent": "messages", "bytes_sent": "bytes"}


@dataclass
class TrafficStats:
    """Counters for one simulation run."""

    messages_sent: int = 0
    bytes_sent: int = 0
    messages_by_kind: Counter = field(default_factory=Counter)
    bytes_by_kind: Counter = field(default_factory=Counter)
    messages_by_site: Counter = field(default_factory=Counter)
    #: Injected transient connect faults (SendOutcome.FAULT).
    failed_sends: int = 0
    #: Wire frames rejected by the real-socket backend (oversized frame or
    #: an undecodable body); the offending connection is aborted.
    frames_rejected: int = 0
    #: Active refusals — the destination host is up but nothing listens on
    #: the port (closed result socket, non-participating site).
    refused_sends: int = 0
    #: Connects to a crashed (down) site (SendOutcome.HOST_DOWN).
    down_sends: int = 0
    #: Connects to a host that does not exist at all (DNS failure).
    unknown_host_sends: int = 0
    #: Retry attempts scheduled by a ReliableChannel after a transient fault.
    retried_sends: int = 0
    #: Reliable sends that exhausted their retry budget without delivery.
    retries_exhausted: int = 0
    #: In-flight reliable sends terminated by a channel reset (crash or
    #: cancellation) before they could settle — reported as ABANDONED.
    sends_abandoned: int = 0

    # Multi-tenant overload control (scheduler + admission + shedding).
    #: Connects rejected by an admission probe (SendOutcome.OVERLOADED) —
    #: the receiver is alive but its queues are at a configured ceiling.
    overloaded_sends: int = 0
    #: Reliable sends deferred (backed off for retry) specifically because
    #: the receiver answered OVERLOADED; a subset of ``retried_sends``.
    sends_deferred: int = 0
    #: Clones dropped by overload shedding, with retractions sent so the
    #: CHT retires their entries and the query degrades to PARTIAL.
    clones_shed: int = 0
    #: Queries evicted from a saturated server's run-queues by shedding.
    queries_shed: int = 0
    #: Same-site clones put back on their own run-queue instead of being
    #: processed in the same pump step: the hops past ``pump_budget``, and,
    #: with ``frontier_batching`` off (hop budget 1), every local hop.
    clones_requeued: int = 0
    #: Queued clones lost when a server crashed (all run-queues drain);
    #: lets the oracle attribute PARTIAL coverage under multi-tenant load.
    clones_lost_in_crash: int = 0

    # Completion-protocol idempotence counters (incremented by the client).
    #: Reports retiring a CHT entry instance that was already retired —
    #: absorbed harmlessly by dispatch-identity accounting.
    duplicate_reports_absorbed: int = 0
    #: Reports for a superseded dispatch (an older recovery epoch) whose
    #: retirement was absorbed because a re-forward replaced the dispatch.
    stale_reports_absorbed: int = 0
    #: Result rows dropped after a recovery round because the same
    #: (node, node-query step) already contributed them.
    duplicate_rows_dropped: int = 0
    #: Clones re-dispatched by recovery (reforward_pending).
    clones_reforwarded: int = 0
    #: Queries escalated to PARTIAL by a supervisor (graceful degradation).
    queries_partial: int = 0

    # Engine-level counters (incremented by query processors).
    documents_shipped: int = 0
    document_bytes_shipped: int = 0
    documents_parsed: int = 0
    node_queries_evaluated: int = 0
    duplicates_dropped: int = 0
    queries_rewritten: int = 0
    clones_forwarded: int = 0
    dead_ends: int = 0
    local_hops: int = 0
    processing_by_site: Counter = field(default_factory=Counter)

    # Frontier batching (tests/test_frontier_batching.py).
    #: Pump steps that coalesced more than one clone into a frontier.
    frontier_batches: int = 0
    #: Clones processed inside those frontiers (seeds + absorbed local
    #: hops).  Each beyond the first per frontier is a saved SimClock
    #: schedule/complete round trip.
    frontier_clones_batched: int = 0
    #: Coalesced clone-forward messages (one CloneBundle per destination
    #: site per frontier) and the clones they carried; each bundle replaces
    #: ``clones_bundled`` separate network messages with one.
    clone_bundles_sent: int = 0
    clones_bundled: int = 0

    # Cross-query caching (tests/test_cross_query_caching.py).
    #: ResultMemo probes answered from cache — each one skipped a node-query
    #: evaluation (rows probe) or a link-graph fan-out scan (state probe).
    memo_hits: int = 0
    #: ResultMemo probes that missed and paid the full computation (which
    #: then populated the memo for the next structurally-equal query).
    memo_misses: int = 0
    #: Memo hits served from a strictly more general logged PRE state via
    #: A*m·B containment plus a residual fan-out filter.
    residual_filters: int = 0
    #: Memo entries dropped by the flushes of the bound (``ResultMemo.capacity``).
    memo_evictions: int = 0
    #: Estimated bytes currently held by result memos — a gauge, not a
    #: counter: stores add their entry's estimate, flushes/clears subtract.
    memo_bytes_est: int = 0

    # The constructor's document store (model/database.py).
    #: Node databases served from the store without rebuilding.
    db_cache_hits: int = 0
    #: Constructions that had to parse the page and (re)build its database.
    db_cache_misses: int = 0
    #: Always 0 — no build can skip the parse any more.  Kept because
    #: EXP-E1 (``benchmarks/e2e/spans.py::read_counters``) reads it.
    parse_cache_hits: int = 0

    #: Always 0 — the batch executor builds no hash index any more.  Kept
    #: because EXP-E1 (``benchmarks/e2e/spans.py::read_counters``) reads it.
    index_builds: int = 0
    #: Always 0, like ``index_builds``; kept because EXP-E1 reads it.
    index_hits: int = 0
    #: Batch-pipeline runs that raised, dropped their partial rows and
    #: replayed the plan through the tree interpreter
    #: (:meth:`~repro.relational.compile.CompiledPlan.execute_columnar`).
    #: Correct either way — the replay is what preserves lazy error
    #: semantics — but a plan that replays on every call pays both
    #: evaluators, which this makes visible.
    plan_replays: int = 0

    @property
    def events_saved(self) -> int:
        """SimClock events avoided by frontier batching (one schedule +
        one completion callback per clone that rode along instead of being
        pumped individually)."""
        return 2 * (self.frontier_clones_batched - self.frontier_batches)

    @property
    def messages_saved(self) -> int:
        """Network messages avoided by coalescing forwards into bundles."""
        return self.clones_bundled - self.clone_bundles_sent

    def bind_owner(self, thread_id: int | None = None) -> None:
        """Restrict counter writes to one thread (default: the caller's).

        The asyncio backend binds its event-loop thread so that any stray
        update from another loop or worker thread raises immediately
        instead of silently losing increments to a read-modify-write race.
        Scalar counter writes are checked by the ``__setattr__`` of
        :class:`_OwnedTrafficStats`, which the instance becomes while
        bound; the Counter fields are only mutated through
        :meth:`record_send` / :meth:`record_processing`, whose scalar twins
        trip the same check.
        """
        self.__dict__["_owner_thread"] = (
            threading.get_ident() if thread_id is None else thread_id
        )
        self.__class__ = _OwnedTrafficStats

    def unbind_owner(self) -> None:
        """Lift the :meth:`bind_owner` restriction (single-threaded again)."""
        object.__setattr__(self, "__class__", TrafficStats)
        self.__dict__.pop("_owner_thread", None)

    def record_send(self, src_site: str, kind: str, size: int) -> None:
        """Account one successfully initiated message."""
        self.messages_sent += 1
        self.bytes_sent += size
        self.messages_by_kind[kind] += 1
        self.bytes_by_kind[kind] += size
        self.messages_by_site[src_site] += 1

    def record_processing(self, site: str, weight: float = 1.0) -> None:
        """Account ``weight`` units of CPU work done at ``site``."""
        self.processing_by_site[site] += weight

    def max_site_load(self) -> tuple[str, float]:
        """The most loaded site and its processing weight (EXP-C6)."""
        if not self.processing_by_site:
            return ("", 0.0)
        site, load = self.processing_by_site.most_common(1)[0]
        return (site, load)

    def summary(self) -> dict[str, object]:
        """A flat dictionary of every counter, for bench tables.

        Int fields in declaration order (the two send totals under their
        short names), then the derived savings.
        """
        flat: dict[str, object] = {
            _SUMMARY_NAMES.get(spec.name, spec.name): getattr(self, spec.name)
            for spec in fields(self)
            if spec.type == "int"
        }
        flat["events_saved"] = self.events_saved
        flat["messages_saved"] = self.messages_saved
        return flat


class _OwnedTrafficStats(TrafficStats):
    """A :class:`TrafficStats` while bound to an owner thread.

    Same fields, same methods; the write check lives here so that an
    unbound instance pays nothing for it.
    """

    def __setattr__(self, name: str, value: object) -> None:
        owner = self.__dict__["_owner_thread"]
        if threading.get_ident() != owner:
            raise RuntimeError(
                f"TrafficStats.{name} written from thread {threading.get_ident()}"
                f" but the stats are owned by thread {owner}; counters are not"
                " thread-safe — route updates through the owning event loop"
            )
        object.__setattr__(self, name, value)

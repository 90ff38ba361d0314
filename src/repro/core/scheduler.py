"""Run-queue scheduling for the per-site query-server (multi-tenancy).

The paper's §4.4 server "sequentially processes the queue of pending
web-queries" — one FIFO shared by every tenant, so a hot query's backlog
head-of-line-blocks every other query at its site.  :class:`CloneScheduler`
files each clone under its query instead: one run-queue per query on a
round-robin ring, each pump step serves the next tenant, and a deep backlog
only delays its own query.  With clones of a single query queued the ring
has one member, so a single-tenant run is the paper's FIFO.

:meth:`~CloneScheduler.push` refuses a clone that would exceed the
per-query or per-server queue limit, and :meth:`~CloneScheduler.would_admit`
answers the transport-level admission probe *before* a sender's message is
delivered — the refusal then travels back as the transient ``OVERLOADED``
outcome and the sender's :class:`~repro.net.reliable.ReliableChannel` backs
off (backpressure).  :attr:`~CloneScheduler.max_query_depth_seen` is the
high-water mark the DST ceiling invariant audits after a run.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Mapping

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .webquery import QueryClone, QueryId

__all__ = ["CloneScheduler"]


class CloneScheduler:
    """A ring of per-query run-queues under queue ceilings.

    Invariant: ``_ring`` holds exactly the queries with a non-empty
    run-queue, each once, in service order; ``pop`` serves the front
    query's next clone and rotates it to the back.  A query's depth is its
    run-queue's length.
    """

    def __init__(self, per_query_limit: int | None, server_limit: int | None) -> None:
        self.per_query_limit = per_query_limit
        self.server_limit = server_limit
        self.total = 0
        #: High-water mark of any single query's run-queue depth.
        self.max_query_depth_seen = 0
        self._queues: dict["QueryId", deque["QueryClone"]] = {}
        self._ring: deque["QueryId"] = deque()

    # -- ceilings ------------------------------------------------------------

    def depths(self) -> dict["QueryId", int]:
        """Live per-query queue depths (only non-empty queues appear)."""
        return {qid: len(queue) for qid, queue in self._queues.items()}

    def would_admit(self, counts: Mapping["QueryId", int]) -> bool:
        """Would a message carrying ``counts`` clones per query fit the
        ceilings?  Consulted by the transport admission probe, so a
        rejection costs the receiver nothing — the message is never built,
        queued or delivered."""
        extra = sum(counts.values())
        if self.server_limit is not None and self.total + extra > self.server_limit:
            return False
        if self.per_query_limit is not None:
            for qid, count in counts.items():
                queue = self._queues.get(qid)
                if (len(queue) if queue else 0) + count > self.per_query_limit:
                    return False
        return True

    def victim(self) -> "QueryId | None":
        """The query with the deepest run-queue — the load-shedding target.

        Ties break on the qid's string form so the choice is deterministic
        regardless of dict insertion history.
        """
        if not self._queues:
            return None
        return max(self._queues, key=lambda qid: (len(self._queues[qid]), str(qid)))

    # -- the run-queues ------------------------------------------------------

    def push(self, clone: "QueryClone") -> bool:
        """Queue ``clone``; False if a ceiling refuses it (caller sheds)."""
        qid = clone.query.qid
        if not self.would_admit({qid: 1}):
            return False
        queue = self._queues.get(qid)
        if queue is None:
            queue = self._queues[qid] = deque()
            self._ring.append(qid)
        queue.append(clone)
        self.total += 1
        if len(queue) > self.max_query_depth_seen:
            self.max_query_depth_seen = len(queue)
        return True

    def pop(self) -> "QueryClone | None":
        """The next clone to process, or None if idle."""
        if not self._ring:
            return None
        qid = self._ring.popleft()
        queue = self._queues[qid]
        clone = queue.popleft()
        if queue:
            self._ring.append(qid)
        else:
            del self._queues[qid]
        self.total -= 1
        return clone

    def take_same_query(
        self, qid: "QueryId", budget: int | None = None
    ) -> list["QueryClone"]:
        """Remove up to ``budget`` queued clones of ``qid`` (None = all), in
        queue order — the frontier's seed gather."""
        queue = self._queues.get(qid)
        if queue is None:
            return []
        count = len(queue) if budget is None else min(budget, len(queue))
        taken = [queue.popleft() for __ in range(count)]
        if not queue:
            del self._queues[qid]
            self._ring.remove(qid)
        self.total -= count
        return taken

    def drop_query(self, qid: "QueryId") -> list["QueryClone"]:
        """Remove and return every queued clone of ``qid`` (purge / shed)."""
        return self.take_same_query(qid)

    def drain(self) -> list["QueryClone"]:
        """Remove and return everything (crash: the queue dies with the
        process; the count feeds ``clones_lost_in_crash``)."""
        drained = [clone for qid in self._ring for clone in self._queues[qid]]
        self._queues.clear()
        self._ring.clear()
        self.total = 0
        return drained

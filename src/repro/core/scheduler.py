"""Run-queue scheduling for the per-site query-server (multi-tenancy).

The paper's §4.4 server "sequentially processes the queue of pending
web-queries" — one FIFO shared by every tenant, so a hot query's backlog
head-of-line-blocks every other query at its site.  :class:`CloneScheduler`
is that queue generalised by one choice, the *key* a clone is filed under:

* ``EngineConfig.scheduler = "fifo"`` — every clone shares one key, so there
  is one run-queue: the paper's single FIFO;
* ``"fair"`` (the default) — the key is the clone's query id: one run-queue
  per query on a round-robin ring, each pump step serves the next tenant,
  and a deep backlog only delays its own query.

Everything else is one code path.  With clones of a single query queued the
ring has one member either way, so single-tenant runs are bit-identical
under both settings.

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
from typing import TYPE_CHECKING, Hashable, Mapping

from ..errors import SimulationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .webquery import QueryClone, QueryId

__all__ = ["CloneScheduler"]


class CloneScheduler:
    """A ring of run-queues under queue ceilings.

    Invariant: ``_ring`` holds exactly the keys with a non-empty run-queue,
    each once, in service order; ``pop`` serves the front key's next clone
    and rotates it to the back.  Under ``"fifo"`` the one shared key makes
    that a single queue in arrival order.
    """

    def __init__(
        self, policy: str, per_query_limit: int | None, server_limit: int | None
    ) -> None:
        if policy not in ("fair", "fifo"):
            raise SimulationError(
                f"unknown scheduler {policy!r}; expected 'fair' or 'fifo'"
            )
        self._per_query = policy == "fair"
        self.per_query_limit = per_query_limit
        self.server_limit = server_limit
        self.total = 0
        #: High-water mark of any single query's run-queue depth.
        self.max_query_depth_seen = 0
        self._depths: dict["QueryId", int] = {}
        self._queues: dict[Hashable, deque["QueryClone"]] = {}
        self._ring: deque[Hashable] = deque()

    # -- ceilings ------------------------------------------------------------

    def depths(self) -> dict["QueryId", int]:
        """Live per-query queue depths (only non-empty queues appear)."""
        return {qid: depth for qid, depth in self._depths.items() if depth}

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
                if self._depths.get(qid, 0) + count > self.per_query_limit:
                    return False
        return True

    def victim(self) -> "QueryId | None":
        """The query with the deepest run-queue — the load-shedding target.

        Ties break on the qid's string form so the choice is deterministic
        regardless of dict insertion history.
        """
        if not self._depths:
            return None
        return max(self._depths, key=lambda qid: (self._depths[qid], str(qid)))

    def _release(self, qid: "QueryId", count: int = 1) -> None:
        depth = self._depths.get(qid, 0) - count
        if depth > 0:
            self._depths[qid] = depth
        else:
            self._depths.pop(qid, None)
        self.total -= count

    # -- the run-queues ------------------------------------------------------

    def _key(self, qid: "QueryId") -> Hashable:
        return qid if self._per_query else None

    def push(self, clone: "QueryClone") -> bool:
        """Queue ``clone``; False if a ceiling refuses it (caller sheds)."""
        qid = clone.query.qid
        if not self.would_admit({qid: 1}):
            return False
        depth = self._depths.get(qid, 0) + 1
        self._depths[qid] = depth
        self.total += 1
        if depth > self.max_query_depth_seen:
            self.max_query_depth_seen = depth
        key = self._key(qid)
        queue = self._queues.get(key)
        if queue is None:
            queue = self._queues[key] = deque()
            self._ring.append(key)
        queue.append(clone)
        return True

    def pop(self) -> "QueryClone | None":
        """The next clone to process, or None if idle."""
        if not self._ring:
            return None
        key = self._ring.popleft()
        queue = self._queues[key]
        clone = queue.popleft()
        if queue:
            self._ring.append(key)
        else:
            del self._queues[key]
        self._release(clone.query.qid)
        return clone

    def take_same_query(
        self, qid: "QueryId", budget: int | None = None
    ) -> list["QueryClone"]:
        """Remove up to ``budget`` queued clones of ``qid`` (None = all), in
        queue order — the frontier's seed gather.  Other tenants' clones in
        the same run-queue keep their places."""
        key = self._key(qid)
        queue = self._queues.get(key)
        if queue is None:
            return []
        taken: list["QueryClone"] = []
        passed: list["QueryClone"] = []
        while queue and (budget is None or len(taken) < budget):
            clone = queue.popleft()
            (taken if clone.query.qid == qid else passed).append(clone)
        queue.extendleft(reversed(passed))
        if not queue:
            del self._queues[key]
            self._ring.remove(key)
        self._release(qid, len(taken))
        return taken

    def drop_query(self, qid: "QueryId") -> list["QueryClone"]:
        """Remove and return every queued clone of ``qid`` (purge / shed)."""
        return self.take_same_query(qid)

    def drain(self) -> list["QueryClone"]:
        """Remove and return everything (crash: the queue dies with the
        process; the count feeds ``clones_lost_in_crash``)."""
        drained = [clone for key in self._ring for clone in self._queues[key]]
        self._queues.clear()
        self._ring.clear()
        self._depths.clear()
        self.total = 0
        return drained

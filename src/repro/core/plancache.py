"""Per-process cache of compiled node-query plans.

A WEBDIS query-server evaluates the same node-query over and over as a
web-query's clones arrive (paper §2.4); the DXQ line of work makes compiled
per-site plans a first-class protocol object for exactly this reason.  The
:class:`PlanCache` keys plans by the **structural key** of the node-query
(:func:`~repro.relational.compile.structural_key`) — qid-independent, so
overlapping queries from different tenants share one compilation the moment
their node-queries are structurally equal (cross-query sharing).  A plan is
a pure function of the query structure, which is what makes the qid-free
key sound, and the key is the structure itself, so two distinct structures
can never share an entry.

Under the value-keyed plans sit **lowerings keyed by shape**: the query
structure with each string or number literal replaced by a slot and its
kind (:func:`~repro.relational.compile.compile_node_query`).  A value miss
hands the second mapping to ``compile_node_query``, which lowers a shape it
has not seen and otherwise only *binds* the new literals to the shared
lowering — so a server that evaluates one node-query with a hundred
different literals lowers it once.  Both mappings have the same bound.
Lowerings stay per server, like plans: nothing is shared between sites.

Plans and lowerings are **volatile process state**, exactly like the
server's document store: a crash loses them
(:meth:`~repro.core.server.QueryServer.crash` calls :meth:`clear`), and the
reborn process recompiles on first touch.  That is what makes the cache
trivially coherent — a stale entry can never be served across incarnations
because nothing survives one.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import TYPE_CHECKING, Callable

from ..relational.compile import CompiledPlan, compile_node_query, structural_key
from ..relational.query import NodeQuery
from .webquery import QueryId, WebQuery

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..net.stats import TrafficStats

__all__ = ["PlanCache"]


class PlanCache:
    """Bounded LRUs of compiled plans, by structure, and of their lowerings, by shape.

    A cached plan carries its batch-pipeline lowering — a pure function of
    the query's shape — bound to the query's literals, which keeps the
    structural key sound (a replay goes through the tree interpreter, no
    lowering).
    """

    __slots__ = (
        "max_size", "hits", "misses", "lowerings", "shared_hits", "_plans", "_lowerings", "_stats",
    )

    def __init__(self, max_size: int = 256, stats: "TrafficStats | None" = None) -> None:
        if max_size < 1:
            raise ValueError("plan cache needs room for at least one plan")
        self.max_size = max_size
        self.hits = 0
        self.misses = 0
        #: Misses that lowered a new shape; the other misses bound one.
        self.lowerings = 0
        #: Hits where the plan was compiled on behalf of a *different*
        #: query — cross-query sharing.
        self.shared_hits = 0
        self._stats = stats
        #: structural key → (origin qid, plan).
        self._plans: OrderedDict[str, tuple[QueryId | None, CompiledPlan]] = OrderedDict()
        #: query shape → lowering, for :func:`compile_node_query`.
        self._lowerings: OrderedDict = OrderedDict()

    def plan_for(self, query: NodeQuery, origin: QueryId | None = None) -> CompiledPlan:
        """The compiled plan for ``query``, shared across structural equals.

        Compiles on first touch; later touches are O(1) lookups.  ``origin``
        is the web-query asking — only used to tell a same-query re-hit from
        genuine cross-query sharing in the counters.
        """
        key = structural_key(query)
        entry = self._plans.get(key)
        if entry is not None:
            stored_origin, plan = entry
            self._plans.move_to_end(key)
            self.hits += 1
            if origin is not None and stored_origin is not None and origin != stored_origin:
                self.shared_hits += 1
                if self._stats is not None:
                    self._stats.plans_shared += 1
            return plan
        self.misses += 1
        kept = len(self._lowerings)
        plan = compile_node_query(query, lowerings=self._lowerings)
        self.lowerings += len(self._lowerings) - kept  # a new shape's lowering is kept
        self._plans[key] = (origin, plan)
        for entries in (self._plans, self._lowerings):
            while len(entries) > self.max_size:
                entries.popitem(last=False)
        return plan

    def bind(self, query: WebQuery) -> Callable[[int], CompiledPlan]:
        """A step-index → compiled-plan lookup bound to ``query``.

        The ``plan_for`` argument of
        :func:`~repro.core.processing.process_node`.
        """
        qid = query.qid
        steps = query.steps
        return lambda k: self.plan_for(steps[k].query, qid)

    def clear(self) -> None:
        """Drop every plan and lowering (process crash / incarnation boundary)."""
        self._plans.clear()
        self._lowerings.clear()

    def __len__(self) -> int:
        return len(self._plans)

    def __contains__(self, query: NodeQuery) -> bool:
        return structural_key(query) in self._plans

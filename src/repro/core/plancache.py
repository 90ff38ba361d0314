"""Per-process cache of node-query lowerings, keyed by shape.

A WEBDIS query-server evaluates the same node-query over and over as a
web-query's clones arrive (paper §2.4); the DXQ line of work makes compiled
per-site plans a first-class protocol object for exactly this reason.  What
is worth keeping is the **lowering**: the batch pipeline built for the
query's *shape* — its structure with each string or number literal
replaced by a slot and its kind
(:func:`~repro.relational.compile.compile_node_query`).  The
:class:`PlanCache` is one bounded LRU of shape → lowering, and every lookup
hands it to ``compile_node_query``: a shape already lowered is only *bound*
to the query's literals (a hit), a new one is lowered (a miss).  So a
server that evaluates one node-query with a hundred different literals, or
from a hundred tenants, lowers it once and keeps one entry.  The shape key
is the shape itself, so two distinct shapes never share an entry; the
label and the qid are not in it.  Lowerings stay per server: nothing is
shared between sites.

Lowerings are **volatile process state**, exactly like the server's
document store: a crash loses them
(:meth:`~repro.core.server.QueryServer.crash` calls :meth:`clear`), and the
reborn process lowers again on first touch.  That is what makes the cache
trivially coherent — a stale entry can never be served across incarnations
because nothing survives one.
"""

from __future__ import annotations

from collections import OrderedDict

from ..relational.compile import CompiledPlan, compile_node_query
from ..relational.query import NodeQuery

__all__ = ["PlanCache"]


class PlanCache:
    """A bounded LRU of node-query lowerings, by shape; every lookup binds."""

    __slots__ = ("max_size", "hits", "misses", "_lowerings")

    def __init__(self, max_size: int = 256) -> None:
        if max_size < 1:
            raise ValueError("plan cache needs room for at least one lowering")
        self.max_size = max_size
        #: Lookups that bound a kept lowering.
        self.hits = 0
        #: Lookups that lowered a new shape.
        self.misses = 0
        #: query shape → lowering, for :func:`compile_node_query`.
        self._lowerings: OrderedDict = OrderedDict()

    def plan_for(self, query: NodeQuery) -> CompiledPlan:
        """The compiled plan for ``query``: its shape's lowering, bound.

        A kept shape only binds the query's literals (a hit); a new one is
        lowered first and kept (a miss)."""
        lowerings = self._lowerings
        kept = len(lowerings)
        plan = compile_node_query(query, lowerings=lowerings)
        if len(lowerings) == kept:
            self.hits += 1
        else:
            self.misses += 1
            if len(lowerings) > self.max_size:
                lowerings.popitem(last=False)
        return plan

    def clear(self) -> None:
        """Drop every lowering (process crash / incarnation boundary)."""
        self._lowerings.clear()

    def __len__(self) -> int:
        return len(self._lowerings)

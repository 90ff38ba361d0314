"""Per-process cache of compiled node-query plans.

A WEBDIS query-server evaluates the same node-query over and over as a
web-query's clones arrive (paper §2.4); the DXQ line of work makes compiled
per-site plans a first-class protocol object for exactly this reason.  The
:class:`PlanCache` keys plans by the **structural hash** of the node-query
(:func:`~repro.relational.compile.structural_hash`) — qid-independent, so
overlapping queries from different tenants share one compilation the moment
their node-queries are structurally equal (EXP-P4 cross-query sharing).  A
plan is a pure function of the query structure, which is what makes the
qid-free key sound.

Collision safety: the digest is short, so every entry stores its full
:func:`~repro.relational.compile.structural_key` alongside the plan and a
hit is only served after the full key verifies.  A colliding probe is
treated as a miss (recompiled, entry replaced) and counted in
``collisions`` — a collision may cost a recompile but can never serve the
wrong plan.

Plans are **volatile process state**, exactly like the server's document
store: a crash loses them (:meth:`~repro.core.server.QueryServer.crash`
calls :meth:`clear`), and the reborn process recompiles on first touch.
That is what makes the cache trivially coherent — a stale entry can never
be served across incarnations because nothing survives one.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import TYPE_CHECKING, Callable

from ..relational.compile import (
    CompiledPlan,
    compile_node_query,
    structural_hash,
    structural_key,
)
from ..relational.query import NodeQuery
from .webquery import QueryId, WebQuery

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..net.stats import TrafficStats

__all__ = ["PlanCache"]


class PlanCache:
    """Bounded LRU of :class:`CompiledPlan` objects, structurally keyed.

    A cached plan carries its batch-pipeline lowering, built once at compile
    time — a pure function of the query structure, which keeps the structural
    key sound (a replay goes through the tree interpreter, no lowering).
    """

    __slots__ = (
        "max_size", "hits", "misses", "shared_hits", "collisions",
        "_plans", "_stats", "_hash_fn",
    )

    def __init__(
        self,
        max_size: int = 256,
        stats: "TrafficStats | None" = None,
        hash_fn: Callable[[NodeQuery], str] | None = None,
    ) -> None:
        if max_size < 1:
            raise ValueError("plan cache needs room for at least one plan")
        self.max_size = max_size
        self.hits = 0
        self.misses = 0
        #: Verified hits where the plan was compiled on behalf of a
        #: *different* query — the cross-query sharing EXP-P4 measures.
        self.shared_hits = 0
        #: Probes whose digest matched but whose full key did not; each one
        #: recompiled instead of serving the colliding entry's plan.
        self.collisions = 0
        self._stats = stats
        #: Injectable for the collision regression test; production always
        #: uses the real structural digest.
        self._hash_fn = structural_hash if hash_fn is None else hash_fn
        #: digest → (full structural key, origin qid, plan).
        self._plans: OrderedDict[str, tuple[str, QueryId | None, CompiledPlan]] = (
            OrderedDict()
        )

    def plan_for(self, query: NodeQuery, origin: QueryId | None = None) -> CompiledPlan:
        """The compiled plan for ``query``, shared across structural equals.

        Compiles on first touch; later touches are O(1) lookups.  ``origin``
        is the web-query asking — only used to tell a same-query re-hit from
        genuine cross-query sharing in the counters.
        """
        digest = self._hash_fn(query)
        full_key = structural_key(query)
        entry = self._plans.get(digest)
        if entry is not None:
            stored_key, stored_origin, plan = entry
            if stored_key == full_key:
                self._plans.move_to_end(digest)
                self.hits += 1
                if (
                    origin is not None
                    and stored_origin is not None
                    and origin != stored_origin
                ):
                    self.shared_hits += 1
                    if self._stats is not None:
                        self._stats.plans_shared += 1
                return plan
            # Digest collision between distinct structures: never serve the
            # stored plan.  Recompile and let the newcomer take the slot.
            self.collisions += 1
        self.misses += 1
        plan = compile_node_query(query)
        self._plans[digest] = (full_key, origin, plan)
        self._plans.move_to_end(digest)
        while len(self._plans) > self.max_size:
            self._plans.popitem(last=False)
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
        """Drop every plan (process crash / incarnation boundary)."""
        self._plans.clear()

    def __len__(self) -> int:
        return len(self._plans)

    def __contains__(self, query: NodeQuery) -> bool:
        entry = self._plans.get(self._hash_fn(query))
        return entry is not None and entry[0] == structural_key(query)

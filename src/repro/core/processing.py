"""Per-node query processing — the heart of Figures 3 and 4.

Given one destination node's virtual-relation database and the clone state
``(step_index, rem)``, :func:`process_node` decides:

* whether the node acts as a **ServerRouter** (the remaining PRE is nullable
  — "contains the null link" — so the node-query is evaluated) or a
  **PureRouter** (forward only);
* which result rows to return;
* which ``(step_index, rem', target)`` forwards to emit.

The state ``(step_index, rem)`` is a row of the query's protocol table
(:mod:`repro.core.program`): what the PRE says about a state — nullable?
which link types, leading where? — is read off the row, which derived it
once per query by calling :mod:`repro.pre.ops`.

State worklist: a successful node-query both *continues the current PRE*
(deeper nodes may also satisfy ``q_k``) and *starts the next PRE* at this
very node — when ``p_{k+1}`` is itself nullable the node immediately
evaluates ``q_{k+1}`` too (the paper's node 4 "acts twice").  A failed
node-query blocks progression to the next stage; under
``strict_dead_end=True`` it additionally blocks the current PRE's
continuations (Figure 4's literal rule — see DESIGN.md §4.2 for why the
lenient rule is the default).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, NamedTuple

from ..model.database import NodeDatabase
from ..pre.ast import Pre
from ..relational.query import ResultRow, evaluate_node_query
from ..urlutils import Url
from .config import EngineConfig
from .program import StateRow
from .trace import PURE_ROUTER, SERVER_ROUTER
from .webquery import WebQuery

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..relational.compile import CompiledPlan
    from .messages import NodeReport
    from .resultmemo import ResultMemo
    from .webquery import QueryClone

__all__ = ["Forward", "FrontierResult", "NodeOutcome", "process_frontier", "process_node"]

#: Runaway ceiling on one synchronous frontier pass: with duplicate
#: suppression disabled a cyclic site would otherwise spin inside
#: :func:`process_frontier` forever, invisible to the SimClock's
#: ``max_events`` guard.
MAX_FRONTIER_CLONES = 100_000


class Forward(NamedTuple):
    """One outgoing clone seed: ``target`` is to be visited in state ``row``.

    Hashes and compares as ``(row identity, target)`` — within one query's
    program that is ``(step_index, rem, target)``.
    """

    row: StateRow
    target: Url

    @property
    def step_index(self) -> int:
        return self.row.step_index

    @property
    def rem(self) -> Pre:
        return self.row.rem


@dataclass
class NodeOutcome:
    """Everything that happened while processing one node."""

    results: list[tuple[str, ResultRow]] = field(default_factory=list)
    forwards: list[Forward] = field(default_factory=list)
    #: Step indices whose node-query was evaluated here, with success flag.
    evaluations: list[tuple[int, bool]] = field(default_factory=list)
    #: Tuples scanned across evaluations (input to the CPU cost model).
    tuples_scanned: int = 0
    #: Forwards already emitted, maintained incrementally so emission is
    #: O(links) across the whole worklist instead of rebuilding this set
    #: from ``forwards`` on every iteration (O(links²)).
    _emitted: set[Forward] = field(default_factory=set, repr=False, compare=False)

    @property
    def role(self) -> str:
        """ServerRouter if any node-query ran here, else PureRouter."""
        return SERVER_ROUTER if self.evaluations else PURE_ROUTER

    @property
    def answered(self) -> bool:
        return any(success for __, success in self.evaluations)

    @property
    def failed(self) -> bool:
        return any(not success for __, success in self.evaluations)

    @property
    def dead_end(self) -> bool:
        """No results and nothing forwarded — the clone dies at this node."""
        return not self.results and not self.forwards


def process_node(
    node: Url,
    database: "NodeDatabase | Callable[[], NodeDatabase]",
    query: WebQuery,
    step_index: int,
    rem: Pre,
    config: EngineConfig,
    site_documents=None,
    plan_for: "Callable[[int], CompiledPlan] | None" = None,
    memo: "ResultMemo | None" = None,
) -> NodeOutcome:
    """Run the ServerRouter/PureRouter logic for one node.

    ``site_documents`` is the site-spanning DOCUMENT table required by
    node-queries with sitewide aliases (§7.1 multi-document extension).

    ``plan_for`` maps a step index to that step's compiled node-query plan
    (normally a :class:`~repro.core.plancache.PlanCache` lookup bound to the
    query); when None, evaluation falls back to the tree-walking
    interpreter.  Both paths are result-identical — same rows, same order.

    ``memo`` is the site's cross-query memo (EXP-P4): this node's rows and
    forward fan-outs are served from it when present, and ``database`` may
    then be a zero-arg *provider* that is only invoked — paying the
    document parse and table build — if some probe actually misses.  A full
    memo hit processes the node without ever materializing its database.
    Role accounting is unchanged either way: a served evaluation still
    counts as the node acting as a ServerRouter.

    Pure function: no network, no tables — the server layers protocol
    bookkeeping (log table, CHT reports, message batching) on top.
    """
    outcome = NodeOutcome()
    if callable(database):
        resolve_db: "Callable[[], NodeDatabase]" = database
    else:
        def resolve_db(db: NodeDatabase = database) -> NodeDatabase:
            return db
    steps = query.steps
    pending: deque[StateRow] = deque([query.program.row(step_index, rem)])
    seen: set[StateRow] = set()

    while pending:
        row = pending.popleft()
        if row in seen:
            continue
        seen.add(row)

        forward_continuations = True
        if row.nullable:
            k = row.step_index
            step = steps[k]
            rows = memo.rows_for(node, step.query) if memo is not None else None
            if rows is None:
                db = resolve_db()
                if plan_for is None:
                    rows = evaluate_node_query(step.query, db, site_documents)
                else:
                    rows = plan_for(k).execute_columnar(db, site_documents)
                outcome.tuples_scanned += db.tuple_count()
                if step.query.sitewide_aliases and site_documents is not None:
                    outcome.tuples_scanned += len(site_documents)
                if memo is not None:
                    memo.store_rows(node, step.query, tuple(rows))
            success = bool(rows)
            outcome.evaluations.append((k, success))
            if success:
                label = step.query.label
                outcome.results.extend([(label, result) for result in rows])
                if row.next_start is not None:
                    pending.append(row.next_start)
            elif config.strict_dead_end:
                forward_continuations = False

        if forward_continuations:
            _emit_forwards(outcome, resolve_db, node, row, memo)

    return outcome


@dataclass
class FrontierResult:
    """Aggregate outcome of one site-local frontier traversal (EXP-P2).

    ``reports`` accumulate in BFS order — every parent's report precedes
    its children's, the announce-before-retire order the user-site's CHT
    relies on when the whole frontier ships as one message.  ``remote``
    holds the clones still to be forwarded: those that left the site, in
    emission order, then the same-site ones the budget left unprocessed.
    """

    reports: "list[NodeReport]" = field(default_factory=list)
    remote: "list[QueryClone]" = field(default_factory=list)
    #: Total simulated CPU time across the frontier (one schedule pays it).
    service: float = 0.0
    #: Clones evaluated: the seeds, then (FIFO) same-site children absorbed
    #: into this pass instead of being re-queued through the event loop —
    #: each of those is a saved SimClock round trip (schedule + complete +
    #: re-pump).
    clones_processed: int = 0


def process_frontier(
    seeds: "list[QueryClone]",
    site: str,
    process_clone: "Callable[[QueryClone], tuple[list[NodeReport], list[QueryClone], float]]",
    max_clones: int = MAX_FRONTIER_CLONES,
) -> FrontierResult:
    """Traverse the PRE × site-link-graph product as one batched frontier.

    :func:`process_node` already walks the PRE × *node* product (the
    ``(step, rem)`` worklist at one document); this driver extends the
    product across the site's link graph: every child clone that targets
    ``site`` itself (a Local or Interior hop) is pushed onto the FIFO
    worklist and processed in the same pass, instead of being bounced
    through the server queue and the SimClock.  FIFO order makes the
    traversal exactly the breadth-first order the unbatched event loop
    produces for the same seeds, so log-table outcomes — which are
    order-sensitive under the ``A*m·B`` rewrite — match the per-event path.

    ``process_clone`` is the protocol layer's per-clone step (log-table
    admission, node-query evaluation, report building and child identity
    stamping); this function owns only the product traversal.

    ``max_clones`` is the pass's hop budget — seeds plus absorbed hops.  The
    server passes ``pump_budget`` (the default is only the runaway ceiling)
    or 1, the paper's one clone per pump step.  Worklist entries past the
    budget are handed back at the end of ``remote`` for the caller to
    re-queue, so the traversal continues on a later pump under clock
    supervision and a runaway query still surfaces as a clock-level event
    storm.  Pure driver: no network, no clock, no tables.
    """
    worklist: deque["QueryClone"] = deque(seeds)
    result = FrontierResult()
    while worklist and result.clones_processed < max_clones:
        clone = worklist.popleft()
        reports, children, service = process_clone(clone)
        result.clones_processed += 1
        result.service += service
        result.reports.extend(reports)
        for child in children:
            if child.site == site:
                worklist.append(child)
            else:
                result.remote.append(child)
    # Past the budget: the rest of the worklist is the caller's to re-queue.
    result.remote.extend(worklist)
    return result


def _emit_forwards(
    outcome: NodeOutcome,
    resolve_db: "Callable[[], NodeDatabase]",
    node: Url,
    row: StateRow,
    memo: "ResultMemo | None" = None,
) -> None:
    """Append one forward per (link matching ``row``'s first symbols).

    Which link types to follow, and the row each leads to, come from the
    row's fan-out.  Targets are the database's precomputed per-``LinkType``
    selections (:meth:`NodeDatabase.forward_targets` — fragments stripped
    once per database, not per probe).  With a memo they come from (and
    feed) the cross-query fan-out memo, and the database is only resolved
    on a miss.
    """
    emitted = outcome._emitted
    forwards = outcome.forwards
    fanout = row.fanout()
    targets = memo.fanout_for(node, row.rem) if memo is not None else None
    if targets is None:
        database = resolve_db()
        targets = {ltype: database.forward_targets(ltype) for ltype, __ in fanout}
        if memo is not None:
            memo.store_fanout(node, row.rem, targets)
    for ltype, next_row in fanout:
        for target in targets.get(ltype, ()):
            forward = Forward(next_row, target)
            if forward not in emitted:
                emitted.add(forward)
                forwards.append(forward)

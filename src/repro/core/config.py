"""Engine configuration: paper ablations and operational settings.

Defaults run the paper's full design plus this repo's extensions.  The
fields are of two kinds.

**Paper ablations** — each switches off one of the paper's mechanisms (or
one of our extensions, to get the paper's server back) so a bench can
quantify it; the EXP-C*/F*/S*/X4 tables own them and nothing else should
need them:

============================  ====================================================
``log_table_enabled``         Section 3.1 duplicate suppression (EXP-C3)
``batch_per_site``            Section 3.2 item 4 — one clone per site (EXP-C4)
``combine_results_and_cht``   Section 3.2 item 3 — results + CHT together (EXP-C4)
``direct_result_return``      Section 2.6 — direct socket vs. path retrace (EXP-C2)
``strict_dead_end``           Figure 4's literal dead-end rule (DESIGN.md §4.2)
``server_threads``            §4.4's single query-processor thread (EXP-X4)
``frontier_batching=False``   §4.4's one clone per step (EXP-C*/F*/S*/X4)
============================  ====================================================

**Operational** — everything else: which evaluator and transport run
(``compiled_plans``, ``transport``, ``log_subsumption``), reliability
(``retry_policy``), multi-tenant limits
(``pump_budget``, ``per_query_queue_limit``, ``server_queue_limit``,
``shed_after``, ``log_max_age``) and the three constants of the CPU cost
model.

Node-queries run on one compiled executor (the batch pipeline, with the
tree interpreter behind ``compiled_plans=False`` as the executable reference)
over one storage (the paper's temporary in-memory tables, §2.4, retained
per process in one bounded, content-checked document store — footnote 3,
:class:`~repro.model.database.DatabaseConstructor`); every server keeps a
cross-query memo (:class:`~repro.core.resultmemo.ResultMemo`) and serves
its pending clones from per-query run-queues in round-robin
(:class:`~repro.core.scheduler.CloneScheduler`); and query completion rests
on one CHT accounting (dispatch identities, cross-checked after every
report).  The §7.1 redirect to a central helper is on exactly where one is
installed: :class:`~repro.baselines.hybrid.HybridEngine` turns it on for its
own servers and client.  None of these is configurable — see "Removed
knobs" in ``docs/performance.md``.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..net.reliable import RetryPolicy

__all__ = ["EngineConfig"]


@dataclass(frozen=True, slots=True)
class EngineConfig:
    """Behavioural switches plus the CPU cost model."""

    # --- protocol mechanisms ------------------------------------------------
    log_table_enabled: bool = True
    #: Log-table equivalence test: "paper" (exact + A*m·B subsumption,
    #: Section 3.1.1) or "language" (exact regular-language containment —
    #: an extension that also recognizes rewritten clones as duplicates).
    log_subsumption: str = "paper"
    batch_per_site: bool = True
    combine_results_and_cht: bool = True
    direct_result_return: bool = True
    strict_dead_end: bool = False

    #: Execute node-queries through compiled plans (each bound per lookup
    #: from the lowering of its shape, kept in the per-process
    #: :class:`~repro.core.plancache.PlanCache`, cleared by crashes) instead
    #: of the tree-walking interpreter.  A compiled plan runs as a batch
    #: pipeline over the tables' column arrays
    #: (:mod:`repro.relational.columnar`) and, on any batch exception, drops
    #: its partial rows and replays through that same interpreter, so
    #: lazily-raised errors are the interpreter's by construction
    #: (``TrafficStats.plan_replays`` counts those).  Result-identical —
    #: the DST oracle cross-checks both paths — so the toggle exists for
    #: that cross-check and the executor tests; only wall-clock changes,
    #: the simulated cost model is evaluator-independent.
    compiled_plans: bool = True

    #: Frontier-batched clone processing: when a server pumps its
    #: queue it gathers every pending clone of the head clone's query and
    #: runs a site-local BFS over the PRE × site-link-graph product —
    #: Local/Interior hops are absorbed into the same pump instead of each
    #: costing a queue→log-table→process→dispatch round trip through the
    #: SimClock.  One combined result+CHT message goes to the user-site per
    #: frontier and forwards to the same destination site coalesce into one
    #: :class:`~repro.core.messages.CloneBundle`.  Off, the same pump step
    #: has a hop budget of one clone and sends each clone on its own — the
    #: paper's server.  Answers, CHT completion outcomes and log-table end
    #: states are identical either way (the DST harness draws it per case
    #: and cross-checks); only event and message counts change.  Engages
    #: only under ``direct_result_return`` — the path-retrace alternative
    #: needs one history trail per hop, which per-hop messages carry and a
    #: combined frontier dispatch cannot.
    frontier_batching: bool = True

    #: Reliability extension (DESIGN.md §4.6): retry transient send faults
    #: (HOST_DOWN / FAULT — never REFUSED) through a per-process
    #: ReliableChannel.  None disables retrying, reproducing the paper's
    #: single-attempt transport exactly.
    retry_policy: RetryPolicy | None = None

    #: Which transport backend :func:`~repro.core.engine.build_engine`
    #: assembles: ``"sim"`` (the deterministic SimClock simulator — the
    #: default, and what tier-1 tests and DST run on) or ``"asyncio"``
    #: (real TCP sockets on an asyncio event loop,
    #: :class:`~repro.core.aio_engine.AsyncioWebDisEngine`).
    transport: str = "sim"

    # --- server resource management ------------------------------------------
    #: Query-processor threads per server.  The paper's design is a single
    #: thread that "sequentially processes the queue of pending web-queries"
    #: (§4.4); >1 is an ablation of that choice (bench EXP-X4).
    server_threads: int = 1

    # --- multi-tenant scheduling / admission control ---------------------------
    #: Hop budget of a frontier-batched pump step: at most this many clones
    #: of one query are processed before the scheduler moves on to the next
    #: run-queue.  Same-site clones past it go back on their own run-queue
    #: (``clones_requeued``), and forwarded clones carry at most this many
    #: nodes each.  None = unbounded (a frontier runs to exhaustion).
    pump_budget: int | None = None
    #: Ceiling on one query's run-queue depth at one server.  Arriving
    #: clones that would exceed it are refused admission with the transient
    #: OVERLOADED outcome (sender backs off and retries).  None = unbounded.
    per_query_queue_limit: int | None = None
    #: Ceiling on the sum of all run-queue depths at one server.  Also the
    #: saturation threshold for load shedding.  None = unbounded.
    server_queue_limit: int | None = None
    #: Load shedding: if a server stays at/over ``server_queue_limit``
    #: continuously for this many simulated seconds, it evicts the query
    #: with the deepest run-queue, retracting its entries so the user-site
    #: degrades that query to PARTIAL instead of letting the site stall.
    #: None = never shed.
    shed_after: float | None = None
    #: Purge log entries older than this many simulated seconds, checking
    #: once per that many seconds (None = keep; EXP-C3's purge column).
    log_max_age: float | None = None

    # --- CPU cost model (simulated seconds) -----------------------------------
    #: Fixed cost of handling one destination node.
    node_service_time: float = 0.002
    #: Cost of parsing one KiB of HTML into the virtual relations.
    parse_time_per_kb: float = 0.001
    #: Cost per virtual-relation tuple scanned during node-query evaluation.
    eval_time_per_tuple: float = 0.0001

    def service_time(self, html_bytes: int, tuples_scanned: int) -> float:
        """CPU time to parse a document and evaluate node-queries over it."""
        return (
            self.node_service_time
            + self.parse_time_per_kb * (html_bytes / 1024.0)
            + self.eval_time_per_tuple * tuples_scanned
        )

"""Protocol invariant checks for chaos and DST runs.

The soak harness (``benchmarks/bench_soak.py``), the self-healing tests and
the deterministic-simulation-testing runner (:mod:`repro.testing.runner`)
drive seeded schedules of crashes, partitions and flaky windows, and after
every run ask this module: *did the protocol stay correct, not just
alive?*  Seven invariants, each a direct consequence of the design:

``cht-consistent``
    The CHT's accounting agrees with itself: additions minus deletions
    equals pending instances minus unmatched early retirements, and the
    incremental counters match a full recount
    (``CurrentHostsTable.audit``).

``retire-once``
    Per dispatch identity ``(dispatch_id, node)``, at most one *effective*
    retirement and at most one effective addition ever happened — duplicate
    and stale reports were absorbed, never double-counted.

``terminal``
    Every query reached COMPLETE, PARTIAL or CANCELLED — no handle left
    RUNNING once the simulation quiesced (no hung queries).

``no-refused-retry``
    No retry was ever scheduled after a REFUSED connect: REFUSED is the
    passive-termination / participation signal and stays final, so
    recovery respects termination.

``rows-sound``
    Result rows match the fault-free ground truth: a COMPLETE query
    collected exactly the reference answer set (no loss, nothing invented),
    and any query's rows are a sub-multiset of what fault-free processing
    could produce — re-processed work was deduplicated, not double-counted.
    In a multi-query run each query is checked against its *own* solo
    reference, so an invented row is cross-query contamination.

``queue-ceiling``
    When ``per_query_queue_limit`` is configured, no server's per-query
    run-queue ever exceeded it (high-water audit of
    :attr:`~repro.core.server.QueryServer.peak_query_queue_depth`) — the
    admission control actually held the line it advertises.

``watermark``
    No server holds a log entry or purge record of a query its origin's
    completion watermark passed, and no server holds a watermark above a
    query still running (:func:`check_watermark`).

All checks are read-only and deterministic.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from ..core.client import QueryHandle, QueryStatus
from ..errors import ProtocolError

__all__ = [
    "Violation",
    "check_document_store",
    "check_handle",
    "check_memo_coherence",
    "check_no_refused_retry",
    "check_queue_ceilings",
    "check_run",
    "check_watermark",
    "reference_rows",
]


@dataclass(frozen=True, slots=True)
class Violation:
    """One invariant breach, with enough detail to reproduce it."""

    invariant: str
    qid: str
    detail: str

    def __str__(self) -> str:
        return f"[{self.invariant}] {self.qid}: {self.detail}"


def reference_rows(handle: QueryHandle) -> Counter:
    """The row multiset a fault-free run produced (ground truth)."""
    return Counter((label, row.header, row.values) for label, row, __ in handle.results)


def _check_cht(handle: QueryHandle) -> list[Violation]:
    qid = str(handle.qid)
    try:
        handle.cht.audit()
    except ProtocolError as exc:
        return [Violation("cht-consistent", qid, str(exc))]
    violations = []
    if handle.status is QueryStatus.COMPLETE and handle.cht.imbalance() != 0:
        violations.append(
            Violation(
                "cht-consistent", qid,
                f"COMPLETE with imbalance {handle.cht.imbalance()}",
            )
        )
    return violations


def _check_retire_once(handle: QueryHandle) -> list[Violation]:
    """Per dispatch identity: at most one effective add and one retire.

    Read off the CHT history: ``note`` distinguishes effective events from
    absorbed ones ("absorbed", "stale") and recovery bookkeeping
    ("superseded", "abandoned: ...").
    """
    qid = str(handle.qid)
    adds: Counter = Counter()
    retires: Counter = Counter()
    for record in handle.cht.history():
        key = (record.dispatch_id, record.entry.node)
        if record.deleted:
            if record.note in ("", "early"):
                retires[key] += 1
        else:
            adds[key] += 1
    violations = []
    for key, count in retires.items():
        if count > 1:
            violations.append(
                Violation("retire-once", qid, f"{key} retired {count} times")
            )
    for key, count in adds.items():
        if count > 1:
            violations.append(
                Violation("retire-once", qid, f"{key} added {count} times")
            )
    return violations


def _check_terminal(handle: QueryHandle) -> list[Violation]:
    if handle.status is QueryStatus.RUNNING:
        return [
            Violation(
                "terminal", str(handle.qid),
                f"still RUNNING after quiescence (imbalance {handle.cht.imbalance()}, "
                f"{len(handle.cht.pending_entries())} pending entr(ies))",
            )
        ]
    return []


def check_no_refused_retry(tracer) -> list[Violation]:
    """No retry is ever scheduled after a REFUSED connect.

    REFUSED is the passive-termination / participation signal and must stay
    final; retrying it would turn "the user cancelled" into "try again
    later".  The retry trace records the failed attempt's outcome, so a
    ``(refused)`` marker inside any ``retry-scheduled`` event is a breach.
    (A retry after a *transient* fault aimed at a port that happens to be
    closed is fine — the sender has not observed the refusal yet; its retry
    will, and will stop.)  Run-level: scans the whole trace once.
    """
    if tracer is None or not getattr(tracer, "enabled", False):
        return []
    violations = []
    for record in tracer.events:
        if record.action == "retry-scheduled" and "(refused)" in record.detail:
            violations.append(
                Violation(
                    "no-refused-retry", "-",
                    f"retry at t={record.time:.3f} after REFUSED: {record.detail}",
                )
            )
    return violations


def check_memo_coherence(engine) -> list[Violation]:
    """No cross-query memo entry outlives a crash or an epoch bump.

    Every :class:`~repro.core.resultmemo.ResultMemo` entry is stamped with
    the memo version that wrote it; ``clear()`` (crash) and
    ``advance_epoch()`` bump the version *and* drop the entries, so any
    surviving entry stamped with an older version means an invalidation
    path leaked cached state across an incarnation or web-epoch boundary —
    exactly the silently-wrong-rows failure mode caching introduces.  A
    visit entry must also name only live part entries
    (:meth:`~repro.core.resultmemo.ResultMemo.orphaned_visits`): one that
    outlived a part would serve, at the base service time, a visit the part
    path would now charge a parse for.
    The same sweep audits the memo's byte gauge: ``bytes_est`` is
    maintained incrementally across stores, overwrites, flushes and
    clears, over all three entry kinds, and must always equal a
    from-scratch recount
    (:meth:`~repro.core.resultmemo.ResultMemo.recount_bytes`) — drift means
    some store path forgot to subtract a replaced entry's estimate, or an
    entry kind went uncounted.  Run-level check; engines without per-site
    servers, and servers without a memo, are skipped.
    """
    servers = getattr(engine, "servers", None)
    if not servers:
        return []
    violations = []
    for site, server in servers.items():
        memo = getattr(server, "memo", None)
        if memo is None:
            continue
        stale = memo.stale_entries()
        if stale:
            violations.append(
                Violation(
                    "memo-coherence", "-",
                    f"server {site} memo holds {len(stale)} entr(y/ies) from "
                    f"a dead version, e.g. {stale[0]}",
                )
            )
        orphans = memo.orphaned_visits()
        if orphans:
            violations.append(
                Violation(
                    "memo-coherence", "-",
                    f"server {site} memo holds {len(orphans)} visit entr(y/ies) "
                    f"outliving a part, e.g. {orphans[0]}",
                )
            )
        recount = memo.recount_bytes()
        if recount != memo.bytes_est:
            violations.append(
                Violation(
                    "memo-coherence", "-",
                    f"server {site} memo byte gauge drifted: bytes_est="
                    f"{memo.bytes_est} but a from-scratch recount gives "
                    f"{recount}",
                )
            )
    return violations


def check_document_store(engine) -> list[Violation]:
    """Every server's document store is bounded and holds only current pages.

    The other content-derived cache beside the memo, failing the same
    silent way — rows from a page that no longer reads like that.  Per
    server: at most ``cache_size`` records retained, each record's HTML
    identical (``is``, the store's own fast path) to what the web serves for
    its URL now.  Run-level; engines without per-site servers are skipped.
    """
    violations = []
    for site, server in (getattr(engine, "servers", None) or {}).items():
        records = server.constructor.retained()
        capacity = server.constructor.cache_size
        stale = [url for url, html in records if engine.web.html_for(url) is not html]
        problems = []
        if len(records) > capacity:
            problems.append(f"{len(records)} document(s) (> capacity {capacity})")
        if stale:
            problems.append(
                f"{len(stale)} record(s) built from HTML the web no longer "
                f"serves, e.g. {stale[0]}"
            )
        violations += [
            Violation("document-store", "-", f"server {site} retains {problem}")
            for problem in problems
        ]
    return violations


def check_watermark(engine, handles=()) -> list[Violation]:
    """Every server applied the completion watermarks it saw, and only sound ones.

    Per server and origin ``(user, user-site)``: no log entry and no purge
    record of a query numbered below the watermark the server holds for
    that origin; and no held watermark above a query of ``handles`` that is
    still RUNNING (it would have purged a live query's log).  Run-level;
    engines without per-site servers are skipped.
    """
    live: dict[tuple[str, str], int] = {}
    for handle in handles:
        if not handle.finished:
            origin = (handle.qid.user, handle.qid.host)
            live[origin] = min(live.get(origin, handle.qid.number), handle.qid.number)
    violations = []
    for site, server in (getattr(engine, "servers", None) or {}).items():
        marks = server._marks
        for origin, mark in marks.items():
            if mark > live.get(origin, mark):
                violations.append(Violation(
                    "watermark", f"{origin[0]}@{origin[1]}",
                    f"server {site} holds watermark {mark} above running query "
                    f"{live[origin]}",
                ))
        held = [("log entries", qid) for qid in server.log_table.queries()]
        held += [("a purge record", qid) for qid in server._purged]
        for what, qid in held:
            mark = marks.get((qid.user, qid.host), 0)
            if qid.number < mark:
                violations.append(Violation(
                    "watermark", str(qid),
                    f"server {site} holds {what} below its watermark {mark}",
                ))
    return violations


def check_queue_ceilings(engine) -> list[Violation]:
    """No server's per-query run-queue ever exceeded the configured ceiling.

    Audits each server's high-water mark after the run; engines without
    per-site servers (the asyncio engine exposes the same attribute, the
    data-shipping baseline has none) are skipped.  Run-level check.
    """
    servers = getattr(engine, "servers", None)
    if not servers:
        return []
    violations = []
    for site, server in servers.items():
        limit = server.config.per_query_queue_limit
        if limit is None:
            continue
        peak = server.peak_query_queue_depth
        if peak > limit:
            violations.append(
                Violation(
                    "queue-ceiling", "-",
                    f"server {site} per-query queue peaked at {peak} "
                    f"(> limit {limit})",
                )
            )
    return violations


def _check_rows(
    handle: QueryHandle, reference: Counter | None, expect_full: bool
) -> list[Violation]:
    if reference is None:
        return []
    qid = str(handle.qid)
    observed = reference_rows(handle)
    violations = []
    invented = observed - reference
    if invented:
        sample = next(iter(invented))
        violations.append(
            Violation(
                "rows-sound", qid,
                f"{sum(invented.values())} row occurrence(s) beyond the fault-free "
                f"reference, e.g. {sample[0]}={sample[2]}",
            )
        )
    # Full coverage is opt-in: a COMPLETE query can legitimately lack rows
    # from sites that stayed unreachable (their entries were *retired* as
    # unreachable, which is exact).  The unconditional invariant is that
    # nothing beyond the ground truth is ever invented or double-counted.
    if expect_full and handle.status is QueryStatus.COMPLETE:
        missing = {key for key in reference if key not in observed}
        if missing:
            sample = next(iter(missing))
            violations.append(
                Violation(
                    "rows-sound", qid,
                    f"COMPLETE but missing {len(missing)} distinct reference row(s), "
                    f"e.g. {sample[0]}={sample[2]}",
                )
            )
    return violations


def check_handle(
    handle: QueryHandle,
    *,
    tracer=None,
    reference: Counter | None = None,
    require_terminal: bool = True,
    expect_full: bool = False,
) -> list[Violation]:
    """All invariant checks for one query handle.

    ``require_terminal=False`` is for mid-run checks (the query may still
    legitimately be RUNNING).  ``expect_full=True`` additionally demands a
    COMPLETE query cover the whole reference answer set — only sound when
    every site was reachable often enough for recovery to succeed.
    """
    violations = []
    violations += _check_cht(handle)
    violations += _check_retire_once(handle)
    if require_terminal:
        violations += _check_terminal(handle)
    violations += _check_rows(handle, reference, expect_full)
    return violations


def check_run(
    engine,
    handles,
    *,
    references: dict | None = None,
    require_terminal: bool = True,
    expect_full: bool = False,
) -> list[Violation]:
    """Check every handle of a finished run against all invariants.

    ``references`` maps ``handle.qid.number`` to the fault-free row
    multiset (from :func:`reference_rows` on a clean run of the same
    query).
    """
    violations: list[Violation] = []
    for handle in handles:
        reference = None
        if references is not None:
            reference = references.get(handle.qid.number)
        violations += check_handle(
            handle,
            tracer=engine.tracer,
            reference=reference,
            require_terminal=require_terminal,
            expect_full=expect_full,
        )
    violations += check_no_refused_retry(engine.tracer)
    violations += check_queue_ceilings(engine)
    violations += check_memo_coherence(engine)
    violations += check_document_store(engine)
    violations += check_watermark(engine, handles)
    return violations

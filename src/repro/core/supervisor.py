"""Self-healing query supervision: watch, re-forward, degrade gracefully.

The paper's completion detection is exact but *passive* — a query whose
clones died inside a crashed server would simply never complete (§7.1 lists
node failures as an open problem).  The user-site can re-forward a query's
outstanding clones (``reforward_pending``); this module is the loop that
decides when, and the client's only stall detector:

1. **Watch.**  After ``quiet_timeout`` simulated seconds with no *effective*
   progress — CHT movement or new result rows; absorbed stale/duplicate
   reports do not count — the query is considered stalled.
2. **Recover.**  A recovery round bumps the query's epoch and re-forwards
   every outstanding dispatch (superseding the old instances, so a slow —
   not dead — original report is absorbed as stale rather than
   double-retiring).  Consecutive fruitless rounds back off geometrically.
3. **Escalate.**  After ``max_recoveries`` fruitless rounds, or at the
   absolute per-query ``deadline``, the supervisor stops fighting: the
   outstanding dispatches are written off, their sites marked unreachable,
   and the query finishes ``PARTIAL`` with a :class:`CoverageReport`
   saying exactly which nodes were abandoned and why.

Everything runs on the simulation clock and is deterministic for a given
seed/schedule.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from ..net.simclock import SimClock
from ..urlutils import Url
from .client import QueryHandle, QueryStatus, UserSiteClient
from .state import QueryState
from .webquery import QueryId

__all__ = ["RecoveryPolicy", "AbandonedDispatch", "CoverageReport", "QuerySupervisor"]


@dataclass(frozen=True, slots=True)
class RecoveryPolicy:
    """Shape of one supervisor's watch/recover/escalate behaviour.

    ``quiet_timeout`` is the silence that triggers the first recovery round;
    each consecutive fruitless round multiplies it by ``backoff_multiplier``
    (progress resets both the counter and the timeout).  ``max_recoveries``
    bounds consecutive fruitless rounds before escalation.  ``deadline``
    bounds the query's total lifetime regardless of progress; None disables
    the absolute deadline (escalation then only happens via the round
    budget).
    """

    quiet_timeout: float = 1.0
    max_recoveries: int = 3
    backoff_multiplier: float = 2.0
    deadline: float | None = 30.0

    def __post_init__(self) -> None:
        if self.quiet_timeout <= 0:
            raise ValueError(f"quiet_timeout must be > 0, got {self.quiet_timeout}")
        if self.max_recoveries < 0:
            raise ValueError(f"max_recoveries must be >= 0, got {self.max_recoveries}")
        if self.backoff_multiplier < 1.0:
            raise ValueError(
                f"backoff_multiplier must be >= 1, got {self.backoff_multiplier}"
            )


@dataclass(frozen=True, slots=True)
class AbandonedDispatch:
    """One written-off dispatch instance, for the coverage report."""

    node: Url
    state: QueryState
    dispatch_id: str
    reason: str
    abandoned_at: float


@dataclass(frozen=True, slots=True)
class CoverageReport:
    """What a supervised query actually covered when it finished.

    A COMPLETE query has full coverage (``abandoned`` and ``shed_nodes``
    empty).  A PARTIAL query lists every dispatch that was written off,
    the sites judged unreachable, the nodes shed by overloaded servers
    (load shedding — the coverage hole is the *server's* doing, not a
    fault), and how hard recovery tried before giving up.
    """

    qid: QueryId
    status: QueryStatus
    reason: str
    rows_collected: int
    recoveries_attempted: int
    recovery_epoch: int
    abandoned: tuple[AbandonedDispatch, ...]
    unreachable_sites: tuple[str, ...]
    shed_nodes: tuple[str, ...] = ()

    @property
    def complete(self) -> bool:
        return (
            not self.abandoned
            and not self.shed_nodes
            and self.status is QueryStatus.COMPLETE
        )

    def summary(self) -> str:
        if self.complete:
            return f"{self.qid}: complete, {self.rows_collected} row(s)"
        sites = ", ".join(self.unreachable_sites) or "-"
        shed = f", {len(self.shed_nodes)} node(s) shed" if self.shed_nodes else ""
        return (
            f"{self.qid}: {self.status.value} ({self.reason}); "
            f"{self.rows_collected} row(s) collected, "
            f"{len(self.abandoned)} dispatch(es) abandoned, "
            f"unreachable: {sites}{shed}, "
            f"{self.recoveries_attempted} recovery round(s)"
        )


@dataclass
class _Supervision:
    """Mutable per-query supervisor state."""

    handle: QueryHandle
    started: float
    #: Consecutive fruitless recovery rounds (reset by progress).
    consecutive: int = 0
    #: Total recovery rounds over the query's lifetime.
    total_recoveries: int = 0
    escalated: bool = False
    on_final: Callable[[CoverageReport], None] | None = None
    finalized: bool = False
    sites_recovered: set = field(default_factory=set)
    #: Effective-progress snapshot the armed timer compares against.
    token: tuple = ()


class QuerySupervisor:
    """Automatic watch→re-forward→degrade driver for one client's queries."""

    def __init__(
        self,
        client: UserSiteClient,
        policy: RecoveryPolicy | None = None,
    ) -> None:
        self.client = client
        self.clock: SimClock = client.clock
        self.policy = policy or RecoveryPolicy()
        self._supervised: dict[QueryId, _Supervision] = {}

    # -- public API ---------------------------------------------------------------

    def supervise(
        self,
        handle: QueryHandle,
        on_final: Callable[[CoverageReport], None] | None = None,
    ) -> None:
        """Drive ``handle`` to a terminal status within the policy's bounds.

        ``on_final`` fires exactly once with the coverage report when the
        query reaches COMPLETE, PARTIAL or CANCELLED under supervision.
        """
        sup = _Supervision(handle, self.clock.now, on_final=on_final)
        self._supervised[handle.qid] = sup
        if self.policy.deadline is not None:
            self.clock.schedule(self.policy.deadline, lambda: self._deadline(sup))
        self._arm(sup, self.policy.quiet_timeout)

    def coverage(self, handle: QueryHandle) -> CoverageReport:
        """The coverage report for ``handle`` in its current state."""
        sup = self._supervised.get(handle.qid)
        abandoned = tuple(
            AbandonedDispatch(
                instance.node,
                instance.entry.state,
                instance.dispatch_id,
                instance.reason,
                instance.resolved_at,
            )
            for instance in handle.cht.abandoned_instances()
        )
        return CoverageReport(
            qid=handle.qid,
            status=handle.status,
            reason=handle.partial_reason,
            rows_collected=len(handle.results),
            recoveries_attempted=sup.total_recoveries if sup is not None else 0,
            recovery_epoch=handle.recovery_epoch,
            abandoned=abandoned,
            unreachable_sites=tuple(
                sorted({dispatch.node.host for dispatch in abandoned})
            ),
            shed_nodes=tuple(sorted(str(node) for node in handle.shed_nodes)),
        )

    def supervised(self) -> list[QueryHandle]:
        return [sup.handle for sup in self._supervised.values()]

    # -- the watch loop -----------------------------------------------------------

    @staticmethod
    def _progress_token(handle: QueryHandle) -> tuple:
        """Effective progress only: CHT movement and rows collected.

        Deliberately *not* ``messages_received``: an absorbed stale or
        duplicate report resolves nothing, and counting it as progress lets
        a quiet_timeout shorter than the report round-trip livelock the
        loop — every round resets the backoff and supersedes a re-forward
        whose own report is already in flight.  Absorbed retirements do not
        move ``deletions``, so they do not move this token.
        """
        return (handle.cht.additions, handle.cht.deletions, len(handle.results))

    def _arm(self, sup: _Supervision, timeout: float) -> None:
        # Snapshot *now*, after any recovery round this call follows — the
        # round's own supersessions must not read as next check's progress.
        sup.token = self._progress_token(sup.handle)
        self.clock.schedule(timeout, lambda: self._check(sup, timeout))

    def _check(self, sup: _Supervision, timeout: float) -> None:
        handle = sup.handle
        if handle.finished:
            self._finalize(sup)
            return
        if self._progress_token(handle) != sup.token:
            # Effective progress since the timer was armed: recovery (if
            # any) worked.
            sup.consecutive = 0
            self._arm(sup, self.policy.quiet_timeout)
            return
        if sup.consecutive >= self.policy.max_recoveries:
            self._escalate(
                sup,
                f"no progress after {sup.consecutive} recovery round(s)",
            )
            return
        sup.consecutive += 1
        sup.total_recoveries += 1
        handle.stall_detected_at = self.clock.now
        for instance in handle.cht.pending_instances():
            sup.sites_recovered.add(instance.node.host)
        reforwarded = self.client.reforward_pending(handle)
        if self.client.tracer.enabled:
            self.client.tracer.site(
                self.clock.now, self.client.site, "recovery-round",
                f"{handle.qid}: round {sup.total_recoveries}, {reforwarded} clone(s) re-forwarded",
            )
        if handle.finished:
            # Re-forwarding can complete the query synchronously (e.g. every
            # outstanding site now refuses and the entries retire).
            self._finalize(sup)
            return
        self._arm(sup, timeout * self.policy.backoff_multiplier)

    def _deadline(self, sup: _Supervision) -> None:
        if sup.handle.finished:
            self._finalize(sup)
            return
        self._escalate(sup, f"deadline {self.policy.deadline:g}s exceeded")

    # -- escalation ---------------------------------------------------------------

    def _escalate(self, sup: _Supervision, reason: str) -> None:
        if sup.escalated or sup.handle.finished:
            self._finalize(sup)
            return
        sup.escalated = True
        handle = sup.handle
        self.client.finish_partial(handle, reason)
        self._finalize(sup)

    def _finalize(self, sup: _Supervision) -> None:
        if sup.finalized or not sup.handle.finished:
            return
        sup.finalized = True
        if sup.on_final is not None:
            sup.on_final(self.coverage(sup.handle))

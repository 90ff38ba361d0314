"""The Current Hosts Table (CHT) — exact query-completion detection.

Paper Section 2.7.1: the user-site tracks every node currently hosting a
clone of the query.  Servers send the CHT delta (their own retired entry on
top, the new entries below) *before* forwarding clones, so the table always
has complete knowledge and "all entries marked deleted" is an exact
completion test.

**One accounting: dispatch-identity instances.**  The paper's table is a
bare multiset of ``(node, state)`` keys, which cannot survive recovery:
re-forwarding an entry whose original report is merely slow (not lost)
makes two reports retire one addition, and a signed count per key has no
way to tell the second from a legitimate retirement.  (The retained race
test, ``tests/test_self_healing.py::TestLegacyFootgun``, replays exactly
that event sequence.)  Every operation therefore names one *instance* —
``(dispatch_id, node)``, the identity minted by whoever dispatched the
clone and echoed in its report.  Retirement is idempotent per instance: a
second report for an already-retired instance is absorbed
(``duplicates_absorbed``), a report for a dispatch that a re-forward
superseded is absorbed as stale (``stale_absorbed``), and a retirement
racing ahead of its own announcement — result messages from different
servers are independent connections, so deltas can arrive out of order —
is held as an *early* retirement until the announcement lands.  Completion
is "no pending instance and no unmatched early retirement" — exact under
arbitrary re-forwarding, duplication and reordering.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from ..errors import ProtocolError
from ..urlutils import Url
from .messages import ChtEntry

__all__ = [
    "ChtRecord",
    "CurrentHostsTable",
    "DispatchInstance",
    "InstanceStatus",
    "RetireResult",
]


class InstanceStatus(enum.Enum):
    """Lifecycle of one dispatch-identity instance."""

    PENDING = "pending"  # clone dispatched, report awaited
    RETIRED = "retired"  # resolved by exactly one report
    SUPERSEDED = "superseded"  # replaced by a re-forward under a newer epoch
    ABANDONED = "abandoned"  # written off by recovery escalation (PARTIAL)


class RetireResult(enum.Enum):
    """What one retirement attempt actually did."""

    RETIRED = "retired"  # a pending instance was resolved
    EARLY = "early"  # retirement arrived before its announcement
    ABSORBED_DUPLICATE = "absorbed-duplicate"  # instance already retired
    ABSORBED_STALE = "absorbed-stale"  # instance superseded/abandoned


@dataclass
class DispatchInstance:
    """One ``(dispatch_id, node)`` accounting unit."""

    dispatch_id: str
    node: Url
    entry: ChtEntry
    epoch: int
    status: InstanceStatus
    added_at: float
    resolved_at: float | None = None
    reason: str = ""
    #: True while a retirement has been recorded but the matching
    #: announcement has not arrived yet (out-of-order delivery).
    early: bool = False


@dataclass(frozen=True, slots=True)
class ChtRecord:
    """One historical table row (kept for traces and debugging)."""

    entry: ChtEntry
    time: float
    deleted: bool
    dispatch_id: str = ""
    note: str = ""


class CurrentHostsTable:
    """The CHT: one accounting instance per ``(dispatch_id, node)``."""

    def __init__(self) -> None:
        self._instances: dict[tuple[str, Url], DispatchInstance] = {}
        self._pending_count = 0
        self._early_unmatched = 0
        self._history: list[ChtRecord] = []
        self._abandoned: list[DispatchInstance] = []
        self._additions = 0
        self._deletions = 0
        self._duplicates_absorbed = 0
        self._stale_absorbed = 0
        self._duplicate_adds_absorbed = 0

    # -- additions --------------------------------------------------------------

    def add(
        self,
        entry: ChtEntry,
        time: float = 0.0,
        *,
        dispatch_id: str,
        epoch: int = 0,
    ) -> None:
        """Record that the clone ``dispatch_id`` is (about to be) active at ``entry``."""
        if not dispatch_id:
            raise ProtocolError(f"CHT addition for {entry} carries no dispatch id")
        key = (dispatch_id, entry.node)
        instance = self._instances.get(key)
        if instance is None:
            self._instances[key] = DispatchInstance(
                dispatch_id, entry.node, entry, epoch, InstanceStatus.PENDING, time
            )
            self._pending_count += 1
            self._additions += 1
            self._history.append(ChtRecord(entry, time, deleted=False, dispatch_id=dispatch_id))
            return
        if instance.early:
            # The retirement beat its own announcement; match them up.
            instance.early = False
            instance.entry = entry
            instance.epoch = epoch
            self._early_unmatched -= 1
            self._additions += 1
            self._history.append(
                ChtRecord(entry, time, deleted=False, dispatch_id=dispatch_id, note="early-match")
            )
            return
        # A duplicate announcement of the same instance: absorb.
        self._duplicate_adds_absorbed += 1

    # -- retirements ------------------------------------------------------------

    def mark_deleted(
        self,
        entry: ChtEntry,
        time: float = 0.0,
        *,
        dispatch_id: str,
    ) -> RetireResult:
        """Retire ``entry`` — idempotently per dispatch identity."""
        if not dispatch_id:
            raise ProtocolError(f"CHT retirement for {entry} carries no dispatch id")
        key = (dispatch_id, entry.node)
        instance = self._instances.get(key)
        if instance is None:
            # Out-of-order: the report retiring this instance arrived before
            # the report announcing it.  Hold it; the announcement will match.
            self._instances[key] = DispatchInstance(
                dispatch_id, entry.node, entry, 0, InstanceStatus.RETIRED,
                time, resolved_at=time, early=True,
            )
            self._early_unmatched += 1
            self._deletions += 1
            self._history.append(
                ChtRecord(entry, time, deleted=True, dispatch_id=dispatch_id, note="early")
            )
            return RetireResult.EARLY
        if instance.status is InstanceStatus.PENDING:
            instance.status = InstanceStatus.RETIRED
            instance.resolved_at = time
            self._pending_count -= 1
            self._deletions += 1
            self._history.append(ChtRecord(entry, time, deleted=True, dispatch_id=dispatch_id))
            return RetireResult.RETIRED
        if instance.status is InstanceStatus.RETIRED:
            self._duplicates_absorbed += 1
            self._history.append(
                ChtRecord(entry, time, deleted=True, dispatch_id=dispatch_id, note="absorbed")
            )
            return RetireResult.ABSORBED_DUPLICATE
        # SUPERSEDED or ABANDONED: a stale report from an older recovery
        # epoch (or for a written-off entry) — absorbed harmlessly.
        self._stale_absorbed += 1
        instance.resolved_at = time
        self._history.append(
            ChtRecord(entry, time, deleted=True, dispatch_id=dispatch_id, note="stale")
        )
        return RetireResult.ABSORBED_STALE

    # -- recovery: supersession and write-off ------------------------------------

    def supersede(
        self,
        dispatch_id: str,
        node: Url,
        new_dispatch_id: str,
        new_epoch: int,
        time: float = 0.0,
    ) -> bool:
        """Replace a pending instance with a re-forwarded one (epoch fence).

        The old instance stops blocking completion — its late report, if the
        original dispatch was merely slow, will be absorbed as stale — and a
        fresh pending instance under ``new_dispatch_id`` takes its place.
        """
        instance = self._instances.get((dispatch_id, node))
        if instance is None or instance.status is not InstanceStatus.PENDING:
            return False
        instance.status = InstanceStatus.SUPERSEDED
        instance.resolved_at = time
        instance.reason = f"superseded by {new_dispatch_id}"
        self._pending_count -= 1
        self._deletions += 1
        entry = instance.entry
        self._history.append(
            ChtRecord(entry, time, deleted=True, dispatch_id=dispatch_id, note="superseded")
        )
        self.add(entry, time, dispatch_id=new_dispatch_id, epoch=new_epoch)
        return True

    def abandon(self, dispatch_id: str, node: Url, reason: str, time: float = 0.0) -> bool:
        """Write off a pending instance (graceful degradation — PARTIAL)."""
        instance = self._instances.get((dispatch_id, node))
        if instance is None or instance.status is not InstanceStatus.PENDING:
            return False
        instance.status = InstanceStatus.ABANDONED
        instance.resolved_at = time
        instance.reason = reason
        self._pending_count -= 1
        self._deletions += 1
        self._abandoned.append(instance)
        self._history.append(
            ChtRecord(
                instance.entry, time, deleted=True, dispatch_id=dispatch_id,
                note=f"abandoned: {reason}",
            )
        )
        return True

    # -- completion and introspection ---------------------------------------------

    def all_deleted(self) -> bool:
        """True exactly when the query has fully completed (see module doc)."""
        return (
            self._additions == self._deletions
            and self._pending_count == 0
            and self._early_unmatched == 0
        )

    @property
    def additions(self) -> int:
        return self._additions

    @property
    def deletions(self) -> int:
        return self._deletions

    @property
    def duplicates_absorbed(self) -> int:
        """Reports absorbed because their instance was already retired."""
        return self._duplicates_absorbed

    @property
    def stale_absorbed(self) -> int:
        """Reports absorbed because their dispatch was superseded/abandoned."""
        return self._stale_absorbed

    def pending_entries(self) -> list[ChtEntry]:
        """Entries still awaited (active clone locations), deduplicated."""
        entries = {
            instance.entry
            for instance in self._instances.values()
            if instance.status is InstanceStatus.PENDING
        }
        return sorted(entries, key=str)

    def pending_instances(self) -> list[DispatchInstance]:
        """Identity instances still awaiting their report, stable order."""
        return sorted(
            (
                instance
                for instance in self._instances.values()
                if instance.status is InstanceStatus.PENDING
            ),
            key=lambda inst: (str(inst.node), inst.dispatch_id),
        )

    def abandoned_instances(self) -> list[DispatchInstance]:
        """Instances written off by recovery escalation, in write-off order."""
        return list(self._abandoned)

    def imbalance(self) -> int:
        """Net outstanding additions; 0 at completion."""
        return self._additions - self._deletions

    def history(self) -> list[ChtRecord]:
        return list(self._history)

    def check_consistency(self) -> None:
        """Raise :class:`ProtocolError` if the accounting disagrees with itself.

        O(1): cross-checks the incrementally maintained aggregates.  The
        invariant — additions minus deletions equals pending instances
        minus unmatched early retirements — holds after every message when
        accounting is correct; a double-retired or double-added instance
        breaks it immediately.
        """
        expected = self._pending_count - self._early_unmatched
        if self._additions - self._deletions != expected:
            raise ProtocolError(
                "CHT counts diverged from addition/deletion totals: "
                f"additions={self._additions} deletions={self._deletions} "
                f"pending={self._pending_count} "
                f"early={self._early_unmatched}"
            )
        if self._pending_count < 0 or self._early_unmatched < 0:
            raise ProtocolError(
                f"CHT instance counters negative: pending={self._pending_count} "
                f"early={self._early_unmatched}"
            )

    def audit(self) -> None:
        """Full O(n) recount of every aggregate (invariant-monitor check)."""
        pending = sum(
            1 for i in self._instances.values() if i.status is InstanceStatus.PENDING
        )
        early = sum(1 for i in self._instances.values() if i.early)
        if pending != self._pending_count:
            raise ProtocolError(
                f"CHT pending recount {pending} != counter {self._pending_count}"
            )
        if early != self._early_unmatched:
            raise ProtocolError(
                f"CHT early recount {early} != counter {self._early_unmatched}"
            )
        self.check_consistency()

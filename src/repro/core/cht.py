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

**A clone at a time.**  A server's report covers every node of one clone
(:class:`~repro.core.messages.CloneReport`), and :meth:`CurrentHostsTable.apply`
takes it in one call: each node of the column retires under the clone's one
``dispatch_id``, followed by the entries that node announced — the order
node-by-node processing always had.  The books hold one small record per
instance and one log item per call; the per-instance
:class:`DispatchInstance` and per-row :class:`ChtRecord` values that
:meth:`~CurrentHostsTable.pending_instances`,
:meth:`~CurrentHostsTable.abandoned_instances` and
:meth:`~CurrentHostsTable.history` return are built when they are read.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import TYPE_CHECKING

from ..errors import ProtocolError
from ..urlutils import Url
from .messages import ChtEntry
from .state import QueryState

if TYPE_CHECKING:  # pragma: no cover - typing only
    from collections.abc import Collection

    from .messages import CloneReport

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


#: The history note each retirement outcome leaves.
_RETIRE_NOTES = {
    RetireResult.RETIRED: "",
    RetireResult.EARLY: "early",
    RetireResult.ABSORBED_DUPLICATE: "absorbed",
    RetireResult.ABSORBED_STALE: "stale",
}

_PENDING = InstanceStatus.PENDING
_RETIRED = InstanceStatus.RETIRED


@dataclass
class DispatchInstance:
    """One ``(dispatch_id, node)`` accounting unit, as read off the books."""

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


class _Instance:
    """The books' own record of one instance: a :class:`DispatchInstance`
    without the key it is filed under."""

    __slots__ = ("state", "epoch", "status", "added_at", "resolved_at", "reason", "early")

    def __init__(
        self,
        state: QueryState,
        epoch: int,
        status: InstanceStatus,
        added_at: float,
        resolved_at: float | None = None,
        early: bool = False,
    ) -> None:
        self.state = state
        self.epoch = epoch
        self.status = status
        self.added_at = added_at
        self.resolved_at = resolved_at
        self.reason = ""
        self.early = early


class CurrentHostsTable:
    """The CHT: one accounting instance per ``(dispatch_id, node)``."""

    def __init__(self) -> None:
        self._instances: dict[tuple[str, Url], _Instance] = {}
        self._pending_count = 0
        self._early_unmatched = 0
        #: One item per call, in call order; :meth:`history` expands it.
        #: ``(node, state, time, deleted, dispatch_id, note)`` for one row;
        #: for :meth:`apply`, the report's CHT columns (not its rows) with
        #: ``(time, retire notes, add notes)`` — a notes list is None when
        #: every row of its kind carries no note, and an add note of None is
        #: an absorbed announcement, which writes no row.
        self._log: list[tuple] = []
        self._abandoned: list[tuple[str, Url]] = []
        self._additions = 0
        self._deletions = 0
        self._duplicates_absorbed = 0
        self._stale_absorbed = 0
        self._duplicate_adds_absorbed = 0

    # -- the shared steps ------------------------------------------------------------

    def _announce(
        self, key: tuple[str, Url], state: QueryState, epoch: int, time: float
    ) -> str | None:
        """Register one announced instance; the history note, None if absorbed."""
        instance = self._instances.get(key)
        if instance is None:
            self._instances[key] = _Instance(state, epoch, _PENDING, time)
            self._pending_count += 1
            self._additions += 1
            return ""
        if instance.early:
            # The retirement beat its own announcement; match them up.
            instance.early = False
            instance.state = state
            instance.epoch = epoch
            self._early_unmatched -= 1
            self._additions += 1
            return "early-match"
        # A duplicate announcement of the same instance: absorb.
        self._duplicate_adds_absorbed += 1
        return None

    def _retire(self, key: tuple[str, Url], state: QueryState, time: float) -> RetireResult:
        """Retire one instance — idempotently per dispatch identity."""
        instance = self._instances.get(key)
        if instance is None:
            # Out-of-order: the report retiring this instance arrived before
            # the report announcing it.  Hold it; the announcement will match.
            self._instances[key] = _Instance(
                state, 0, _RETIRED, time, resolved_at=time, early=True
            )
            self._early_unmatched += 1
            self._deletions += 1
            return RetireResult.EARLY
        if instance.status is _PENDING:
            instance.status = _RETIRED
            instance.resolved_at = time
            self._pending_count -= 1
            self._deletions += 1
            return RetireResult.RETIRED
        if instance.status is _RETIRED:
            self._duplicates_absorbed += 1
            return RetireResult.ABSORBED_DUPLICATE
        # SUPERSEDED or ABANDONED: a stale report from an older recovery
        # epoch (or for a written-off entry) — absorbed harmlessly.
        self._stale_absorbed += 1
        instance.resolved_at = time
        return RetireResult.ABSORBED_STALE

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
        note = self._announce((dispatch_id, entry.node), entry.state, epoch, time)
        if note is not None:
            self._log.append((entry.node, entry.state, time, False, dispatch_id, note))

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
        result = self._retire((dispatch_id, entry.node), entry.state, time)
        self._log.append(
            (entry.node, entry.state, time, True, dispatch_id, _RETIRE_NOTES[result])
        )
        return result

    # -- a whole clone at once ------------------------------------------------------

    def apply(
        self, report: CloneReport, time: float = 0.0, held: Collection[int] = ()
    ) -> tuple[int, int]:
        """Apply one clone's report: retire each node, then take its announcements.

        Exactly :meth:`mark_deleted` of ``(node, report.state)`` under
        ``report.dispatch_id`` followed by :meth:`add` of the entries that
        node announced, node by node — one call and one log item instead of
        one object per node.  The announcements are taken even when the
        retirement was absorbed: the server really did forward those
        children.  The nodes at the positions in ``held`` are not retired
        here: their rows are still to come, and the caller retires them
        with :meth:`mark_deleted` once they are in.  Returns how many
        retirements were absorbed as ``(duplicates, stale)``.  The caller
        checks the report's columns.
        """
        dispatch_id = report.dispatch_id
        if not dispatch_id:
            raise ProtocolError(f"CHT report for {report.nodes} carries no dispatch id")
        state, epoch = report.state, report.epoch
        nodes, new_entries, child_ids = report.nodes, report.new_entries, report.child_ids
        retire_notes: list[str | None] | None = None
        add_notes: list[str | None] | None = None
        duplicates = stale = 0
        start = 0
        if held:
            retire_notes = [None if index in held else "" for index in range(len(nodes))]
        for index, (node, stop) in enumerate(zip(nodes, report.forward_ends)):
            result = (
                self._retire((dispatch_id, node), state, time)
                if index not in held else RetireResult.RETIRED
            )
            if result is not RetireResult.RETIRED:
                duplicates += result is RetireResult.ABSORBED_DUPLICATE
                stale += result is RetireResult.ABSORBED_STALE
                if retire_notes is None:
                    retire_notes = [""] * len(nodes)
                retire_notes[index] = _RETIRE_NOTES[result]
            for position in range(start, stop):
                target, target_state = new_entries[position]
                note = self._announce((child_ids[position], target), target_state, epoch, time)
                if note != "":
                    if add_notes is None:
                        add_notes = [""] * len(new_entries)
                    add_notes[position] = note
            start = stop
        self._log.append(
            (
                nodes, state, dispatch_id, report.forward_ends, new_entries, child_ids,
                time, retire_notes, add_notes,
            )
        )
        return duplicates, stale

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
        if instance is None or instance.status is not _PENDING:
            return False
        instance.status = InstanceStatus.SUPERSEDED
        instance.resolved_at = time
        instance.reason = f"superseded by {new_dispatch_id}"
        self._pending_count -= 1
        self._deletions += 1
        state = instance.state
        self._log.append((node, state, time, True, dispatch_id, "superseded"))
        self.add(ChtEntry(node, state), time, dispatch_id=new_dispatch_id, epoch=new_epoch)
        return True

    def abandon(self, dispatch_id: str, node: Url, reason: str, time: float = 0.0) -> bool:
        """Write off a pending instance (graceful degradation — PARTIAL)."""
        key = (dispatch_id, node)
        instance = self._instances.get(key)
        if instance is None or instance.status is not _PENDING:
            return False
        instance.status = InstanceStatus.ABANDONED
        instance.resolved_at = time
        instance.reason = reason
        self._pending_count -= 1
        self._deletions += 1
        self._abandoned.append(key)
        self._log.append(
            (node, instance.state, time, True, dispatch_id, f"abandoned: {reason}")
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

    def _read(self, key: tuple[str, Url]) -> DispatchInstance:
        instance = self._instances[key]
        dispatch_id, node = key
        return DispatchInstance(
            dispatch_id, node, ChtEntry(node, instance.state), instance.epoch,
            instance.status, instance.added_at, instance.resolved_at,
            instance.reason, instance.early,
        )

    def pending_entries(self) -> list[ChtEntry]:
        """Entries still awaited (active clone locations), deduplicated."""
        entries = {
            ChtEntry(node, instance.state)
            for (__, node), instance in self._instances.items()
            if instance.status is _PENDING
        }
        return sorted(entries, key=str)

    def pending_instances(self) -> list[DispatchInstance]:
        """Identity instances still awaiting their report, stable order."""
        return sorted(
            (
                self._read(key)
                for key, instance in self._instances.items()
                if instance.status is _PENDING
            ),
            key=lambda inst: (str(inst.node), inst.dispatch_id),
        )

    def abandoned_instances(self) -> list[DispatchInstance]:
        """Instances written off by recovery escalation, in write-off order."""
        return [self._read(key) for key in self._abandoned]

    def imbalance(self) -> int:
        """Net outstanding additions; 0 at completion."""
        return self._additions - self._deletions

    def history(self) -> list[ChtRecord]:
        """Every table row in the order it was written, node by node."""
        records: list[ChtRecord] = []
        for item in self._log:
            if len(item) == 6:
                node, state, time, deleted, dispatch_id, note = item
                records.append(ChtRecord(ChtEntry(node, state), time, deleted, dispatch_id, note))
                continue
            (
                nodes, state, dispatch_id, forward_ends, new_entries, child_ids,
                time, retire_notes, add_notes,
            ) = item
            start = 0
            for index, (node, stop) in enumerate(zip(nodes, forward_ends)):
                note = retire_notes[index] if retire_notes is not None else ""
                if note is not None:  # None: held for its rows, retired later
                    records.append(
                        ChtRecord(ChtEntry(node, state), time, True, dispatch_id, note)
                    )
                for position in range(start, stop):
                    note = add_notes[position] if add_notes is not None else ""
                    if note is not None:
                        records.append(
                            ChtRecord(
                                ChtEntry(*new_entries[position]), time, False,
                                child_ids[position], note,
                            )
                        )
                start = stop
        return records

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
            1 for i in self._instances.values() if i.status is _PENDING
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

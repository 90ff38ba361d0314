"""The node-query log table — duplicate detection and the multi-rewrite.

Paper Section 3.1.1.  Each site logs ``[URL_node, Query_ID, State]`` for
every node-query it processes.  A newly arrived clone for the same node and
query id is compared state-wise against the logged entries:

* identical state, or ``A*m·B`` with ``m <= n`` — the clone is a duplicate
  and is dropped;
* ``A*m·B`` with ``m > n`` — the clone covers strictly more paths: the log
  entry is replaced and the query is rewritten ``A·A*(m-1)·B``, forcing this
  node to act as a PureRouter for the rewritten clone;
* otherwise — a genuinely new state: logged and processed normally.

``A*0·B`` is written ``B``, so ``m = 0`` and ``n = 0`` are recognized by the
tail (:func:`~repro.pre.ops.compare_for_log`).

An entry keeps the recovery epoch of the clone that logged it.  A recovery
round re-forwards what the user-site no longer counts on under a newer epoch,
and an entry of an older epoch neither drops nor rewrites such a clone: it is
processed, and the entry takes its state and epoch, so the report the round
waits for carries the rows and announcements again (a slow report of the old
epoch may have been superseded in flight; the user-site deduplicates the
rows of a query with a recovery epoch).  Paper runs never recover, so every
entry and clone is at epoch 0 and the comparison is the paper's.

Old entries are purged periodically; an over-eager purge only costs
recomputation, never correctness (Section 3.1.1), which the ablation bench
EXP-C3 demonstrates.  Here the purge that runs is exact instead: a query
server drops a query's entries once its user-site's completion watermark
passes it (:meth:`NodeQueryLogTable.drop_below`); the periodic purge by age
(``EngineConfig.log_max_age``) stays available.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterator

from ..pre.ast import Pre
from ..pre.automaton import AutomatonLimitError, language_subsumes
from ..pre.ops import LogComparison, compare_for_log, rewrite_superset
from ..urlutils import Url
from .state import QueryState
from .webquery import QueryId

__all__ = ["LogAction", "LogObservation", "NodeQueryLogTable"]


class LogAction(enum.Enum):
    """What the server should do with an arriving clone at one node."""

    PROCESS = "process"
    DROP = "drop"
    REWRITE = "rewrite"


@dataclass(frozen=True, slots=True)
class LogObservation:
    """The outcome of a log-table check.

    ``rewritten_rem`` is set only for :attr:`LogAction.REWRITE`.
    """

    action: LogAction
    rewritten_rem: Pre | None = None


@dataclass(slots=True)
class _LogEntry:
    state: QueryState
    time: float
    #: The recovery epoch of the clone that logged the entry.
    epoch: int = 0


#: The two outcomes that carry no rewrite, shared by every observation.
_PROCESS = LogObservation(LogAction.PROCESS)
_DROP = LogObservation(LogAction.DROP)


class NodeQueryLogTable:
    """Per-site log of node-query visits: per query, per node, the entries.

    Query-major (``{qid: {node: [entry]}}``), so everything one query left
    here goes in one step — :meth:`drop_below` when its origin's completion
    watermark passes it.

    ``mode`` selects the equivalence test:

    * ``"paper"`` (default) — exact match plus the ``A*m·B`` subsumption of
      Section 3.1.1;
    * ``"language"`` — exact regular-language containment
      (:func:`~repro.pre.automaton.language_subsumes`): strictly more
      duplicates recognized (e.g. a rewritten ``L·L*2·B`` clone arriving
      where ``L*4·B`` is logged), still with the paper's rewrite for the
      ``A*m·B`` superset case.
    """

    def __init__(self, mode: str = "paper") -> None:
        if mode not in ("paper", "language"):
            raise ValueError(f"unknown log-table mode {mode!r}")
        self.mode = mode
        self._entries: dict[QueryId, dict[Url, list[_LogEntry]]] = {}
        self.drops = 0
        self.rewrites = 0
        self.inserts = 0

    def observe(
        self, node: Url, qid: QueryId, state: QueryState, now: float, epoch: int = 0
    ) -> LogObservation:
        """Check (and update) the table for a clone arriving at ``node``.

        Implements the paper's three-way outcome; comparisons only apply
        between states with equal ``num_q`` (the paper requires all fields
        equal except the PRE) and with entries logged under the clone's
        recovery ``epoch`` or a newer one.  A clone of a newer epoch than an
        entry that would drop or rewrite it is a recovery round's re-forward
        of a dispatch the user-site no longer counts on: it is processed, and
        that entry takes its state and epoch.
        """
        return self._observe_node(self._entries.setdefault(qid, {}), node, state, now, epoch)

    def observe_bulk(
        self, nodes: tuple[Url, ...], qid: QueryId, state: QueryState, now: float,
        epoch: int = 0,
    ) -> list[LogObservation]:
        """Admit one clone's whole destination list in a single pass.

        All of a clone's nodes arrive in the same ``state``, so the rewrite
        is derived once for the pass.  Observation order (and therefore
        every drop/rewrite/insert outcome and counter) is exactly the
        per-node ``observe`` sequence.
        """
        per_node = self._entries.setdefault(qid, {})
        rewritten: Pre | None = None
        observations = []
        for node in nodes:
            obs = self._observe_node(per_node, node, state, now, epoch)
            if obs.action is LogAction.REWRITE:
                # rewrite_superset(state.rem) is node-independent too.
                if rewritten is None:
                    rewritten = obs.rewritten_rem
                else:
                    obs = LogObservation(LogAction.REWRITE, rewritten)
            observations.append(obs)
        return observations

    def _observe_node(
        self, per_node: dict[Url, list[_LogEntry]], node: Url, state: QueryState, now: float,
        epoch: int,
    ) -> LogObservation:
        entries = per_node.get(node)
        if entries is None:
            per_node[node] = [_LogEntry(state, now, epoch)]
            self.inserts += 1
            return _PROCESS
        # A state minted by a query's protocol table remembers its §3.1.1
        # relations (num_q already matched, so the logged PRE is the key).
        row = state.row
        stale = None  # an older epoch's entry that would drop or rewrite the clone
        for entry in entries:
            if entry.state.num_q != state.num_q:
                continue
            if row is None:
                relation = compare_for_log(state.rem, entry.state.rem)
            else:
                relation = row.relation(entry.state.rem)
            covered = relation is not LogComparison.UNRELATED or (
                self.mode == "language" and self._language_covered(state.rem, entry.state.rem)
            )
            if not covered:
                continue
            if entry.epoch < epoch:
                if stale is None:
                    stale = entry
                continue
            if relation is LogComparison.SUPERSET:
                # Replace the existing entry with the wider incoming state,
                # then hand back the rewritten PRE (paper step 1 + 2).
                entry.state = state
                entry.time = now
                self.rewrites += 1
                return LogObservation(LogAction.REWRITE, rewrite_superset(state.rem))
            self.drops += 1
            return _DROP
        if stale is None:
            entries.append(_LogEntry(state, now, epoch))
        else:
            stale.state, stale.time, stale.epoch = state, now, epoch
        self.inserts += 1
        return _PROCESS

    @staticmethod
    def _language_covered(incoming: Pre, logged: Pre) -> bool:
        try:
            return language_subsumes(logged, incoming)
        except AutomatonLimitError:
            # Pathological PRE: fall back to the conservative answer.
            return False

    def purge_older_than(self, cutoff: float) -> int:
        """Drop entries logged strictly before ``cutoff``; returns the count.

        This is the paper's periodic purge.  It can only cause duplicate
        recomputation, never wrong answers.
        """
        removed = 0
        for qid, per_node in list(self._entries.items()):
            for node, entries in list(per_node.items()):
                kept = [entry for entry in entries if entry.time >= cutoff]
                removed += len(entries) - len(kept)
                if kept:
                    per_node[node] = kept
                else:
                    del per_node[node]
            if not per_node:
                del self._entries[qid]
        return removed

    def drop_below(self, user: str, host: str, mark: int) -> None:
        """Forget every query of origin ``(user, host)`` numbered below ``mark``.

        The origin's completion watermark: each of those queries is terminal
        at its user-site, so no observation can consult its entries again
        (DESIGN.md, "The completion watermark").
        """
        entries = self._entries
        for qid in list(entries):
            if qid.number < mark and qid.host == host and qid.user == user:
                del entries[qid]

    def _logged(self) -> Iterator[tuple[Url, QueryId, list[_LogEntry]]]:
        for qid, per_node in self._entries.items():
            for node, entries in per_node.items():
                yield node, qid, entries

    def entry_count(self) -> int:
        return sum(len(entries) for __, ___, entries in self._logged())

    def queries(self) -> list[QueryId]:
        """The queries that hold entries here."""
        return list(self._entries)

    def canonical_snapshot(self) -> dict[tuple[str, str], frozenset[str]]:
        """The table's semantic end state: maximal logged states per key.

        Which clones get *inserted* is schedule-dependent under paper-mode
        subsumption — a later ``A*m·B`` superset replaces the entry it
        covers, but children forwarded before the replacement may log
        derivative states a different schedule never produces.  What every
        schedule converges on is the set of path-languages marked covered:
        per ``(node, qid)``, the logged states that no other logged state
        language-contains.  Equivalence tests (frontier batching on/off,
        ``tests/test_frontier_batching.py``) compare these snapshots.
        """
        snapshot: dict[tuple[str, str], frozenset[str]] = {}
        for node, qid, entries in self._logged():
            states = [entry.state for entry in entries]
            keep = set()
            for state in states:
                dominated = False
                for other in states:
                    if other is state or other.num_q != state.num_q:
                        continue
                    if self._language_covered(state.rem, other.rem):
                        # Strict cover loses; mutual (equal-language) states
                        # collapse onto the lexicographically first form.
                        if not self._language_covered(other.rem, state.rem) or str(
                            other
                        ) < str(state):
                            dominated = True
                            break
                if not dominated:
                    keep.add(str(state))
            snapshot[(str(node), str(qid))] = frozenset(keep)
        return snapshot

    def states_for(self, node: Url, qid: QueryId) -> list[QueryState]:
        """Logged states for one node/query (test and trace support)."""
        return [entry.state for entry in self._entries.get(qid, {}).get(node, [])]

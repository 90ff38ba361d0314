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

Old entries are purged periodically; an over-eager purge only costs
recomputation, never correctness (Section 3.1.1), which the ablation bench
EXP-C3 demonstrates.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

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


@dataclass
class _LogEntry:
    state: QueryState
    time: float


class NodeQueryLogTable:
    """Per-site log of node-query visits, keyed by ``(node, qid)``.

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
        self._entries: dict[tuple[Url, QueryId], list[_LogEntry]] = {}
        self.drops = 0
        self.rewrites = 0
        self.inserts = 0

    def observe(self, node: Url, qid: QueryId, state: QueryState, now: float) -> LogObservation:
        """Check (and update) the table for a clone arriving at ``node``.

        Implements the paper's three-way outcome; comparisons only apply
        between states with equal ``num_q`` (the paper requires all fields
        equal except the PRE).
        """
        return self._observe_entry(self._entries.setdefault((node, qid), []), state, now)

    def observe_bulk(
        self, nodes: tuple[Url, ...], qid: QueryId, state: QueryState, now: float
    ) -> list[LogObservation]:
        """Admit one clone's whole destination list in a single pass.

        All of a clone's nodes arrive in the same ``state``, so the rewrite
        is derived once for the pass.  Observation order (and therefore
        every drop/rewrite/insert outcome and counter) is exactly the
        per-node ``observe`` sequence.
        """
        entries_map = self._entries
        rewritten: Pre | None = None
        observations = []
        for node in nodes:
            obs = self._observe_entry(entries_map.setdefault((node, qid), []), state, now)
            if obs.action is LogAction.REWRITE:
                # rewrite_superset(state.rem) is node-independent too.
                if rewritten is None:
                    rewritten = obs.rewritten_rem
                else:
                    obs = LogObservation(LogAction.REWRITE, rewritten)
            observations.append(obs)
        return observations

    def _observe_entry(
        self, entries: list[_LogEntry], state: QueryState, now: float
    ) -> LogObservation:
        # A state minted by a query's protocol table remembers its §3.1.1
        # relations (num_q already matched, so the logged PRE is the key).
        row = state.row
        for entry in entries:
            if entry.state.num_q != state.num_q:
                continue
            if row is None:
                relation = compare_for_log(state.rem, entry.state.rem)
            else:
                relation = row.relation(entry.state.rem)
            if relation is LogComparison.DUPLICATE:
                self.drops += 1
                return LogObservation(LogAction.DROP)
            if relation is LogComparison.SUPERSET:
                # Replace the existing entry with the wider incoming state,
                # then hand back the rewritten PRE (paper step 1 + 2).
                entry.state = state
                entry.time = now
                self.rewrites += 1
                return LogObservation(LogAction.REWRITE, rewrite_superset(state.rem))
            if self.mode == "language" and self._language_covered(state.rem, entry.state.rem):
                self.drops += 1
                return LogObservation(LogAction.DROP)
        entries.append(_LogEntry(state, now))
        self.inserts += 1
        return LogObservation(LogAction.PROCESS)

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
        for key in list(self._entries):
            kept = [entry for entry in self._entries[key] if entry.time >= cutoff]
            removed += len(self._entries[key]) - len(kept)
            if kept:
                self._entries[key] = kept
            else:
                del self._entries[key]
        return removed

    def entry_count(self) -> int:
        return sum(len(entries) for entries in self._entries.values())

    def canonical_snapshot(self) -> dict[tuple[str, str], frozenset[str]]:
        """The table's semantic end state: maximal logged states per key.

        Which clones get *inserted* is schedule-dependent under paper-mode
        subsumption — a later ``A*m·B`` superset replaces the entry it
        covers, but children forwarded before the replacement may log
        derivative states a different schedule never produces.  What every
        schedule converges on is the set of path-languages marked covered:
        per ``(node, qid)``, the logged states that no other logged state
        language-contains.  Equivalence tests (frontier batching on/off,
        EXP-P2) compare these snapshots.
        """
        snapshot: dict[tuple[str, str], frozenset[str]] = {}
        for (node, qid), entries in self._entries.items():
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
        return [entry.state for entry in self._entries.get((node, qid), [])]

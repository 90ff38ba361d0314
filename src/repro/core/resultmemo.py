"""Cross-query result memoization — the reuse layer.

The log table (paper §3.1) dedups clone visits *within* one qid and the
plan cache shares *lowerings*; this module shares the actual per-node
work across queries.  Under the millions-of-users traffic shape, many
overlapping queries re-walk the same popular pages, and for a frozen web
incarnation both halves of :func:`~repro.core.processing.process_node` are
pure functions of per-node data:

* **rows** — ``(node, structural key of the node-query) → result rows``.
  Two structurally equal node-queries (same select/from/where/sitewide
  aliases, any label, any qid) compute the same rows at the same node, so
  the evaluation — including the document parse feeding it — can be
  skipped entirely.  An empty tuple is a real entry: "evaluated, no rows"
  (the failed-evaluation outcome) is as reusable as a hit.
* **forward fan-out** — ``(node, PRE-state) → {link type → destinations}``
  (:meth:`~repro.model.database.NodeDatabase.forward_targets`: each once).
  Which links leave a node per link type is *state-independent* node data;
  the PRE state only selects which link types matter.  That is what makes
  subsumption-aware reuse sound: an entry logged for a more general state
  serves any contained state (``A*m·B`` containment via
  :func:`~repro.pre.ops.compare_for_log`, exactly the log table's §3.1.1
  machinery) after a **residual filter** that restricts the stored buckets
  to the contained state's own first symbols.

Rows entries are keyed by the
:func:`~repro.relational.compile.structural_key` itself, so two distinct
structures can never share an entry.

A third kind of entry caches a whole visit, built from the two above:

* **visit** — ``(node, visit key of the state) → evaluations, (label, row)
  results and forwards``.  The key
  (:meth:`~repro.core.program.StateRow.visit_key`) holds everything a visit
  reads of its query: the step index, ``rem``, and the label and structure
  of every node-query from that step on (with the PREs after it).  Forwards
  are kept as ``(step, rem, targets)`` and rebound to the visiting query's
  own rows on a hit.  An entry is stored only from a visit whose every part
  probe hit — it resolved no database — so a hit serves exactly what the
  part path would have, at the same base service time; it keeps the part
  probes it stands for, and a hit adds their number to ``memo_hits``.  This
  is the (node, automaton state) pair that *Processing Regular Path Queries
  on Arbitrarily Distributed Data* visits once, used as a key.

Invalidation is explicit and coarse: the memo belongs to one *(process
incarnation, web epoch)*.  :meth:`ResultMemo.clear` (called by
:meth:`~repro.core.server.QueryServer.crash`) and
:meth:`ResultMemo.advance_epoch` (the seam a future live-web mutation
feature drives) both bump ``version`` and drop everything; every entry is
stamped with the version that wrote it, so the DST
``check_memo_coherence`` invariant can audit that no entry ever outlives
an invalidation.  The capacity bound drops everything the same way (a
*flush*), so a visit entry and the part entries it was built from always
leave together.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from ..model.relations import LinkType
from ..pre.ast import Pre
from ..pre.ops import LogComparison, compare_for_log, first_symbols
from ..relational.compile import structural_key
from ..relational.query import NodeQuery, ResultRow
from ..urlutils import Url

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..net.stats import TrafficStats
    from .processing import NodeOutcome

__all__ = ["ResultMemo", "VisitEntry"]

#: Fan-out payload: per link type, the distinct destinations
#: (fragment-stripped), in first-occurrence order of the page's links.
FanoutTargets = dict[LinkType, tuple[Url, ...]]


@dataclass(frozen=True, slots=True)
class _RowsEntry:
    rows: tuple[ResultRow, ...]
    version: int
    #: The byte estimate the gauge was charged, subtracted on overwrite.
    size: int


@dataclass(frozen=True, slots=True)
class _FanoutEntry:
    targets: FanoutTargets
    version: int
    size: int


@dataclass(frozen=True, slots=True)
class VisitEntry:
    """One whole visit, served by a single probe (see the module docstring)."""

    #: ``(step index, success)`` per node-query evaluated, in order.
    evaluations: tuple[tuple[int, bool], ...]
    #: The ``(label, row)`` results, in order.
    results: tuple[tuple[str, ResultRow], ...]
    #: The forwards in order, as runs ``(step, rem, targets)`` of one state.
    forwards: tuple[tuple[int, Pre, tuple[Url, ...]], ...]
    #: One key per part probe the visit made, all hits: ``("r", node,
    #: structural key)`` or ``("f", node, rem)``.
    parts: tuple[tuple, ...]
    version: int
    #: Whether the visited state has no link to follow (``StateRow.fanout()``
    #: is empty), for ``CloneProcessor.no_fanout_visits``.
    no_fanout: bool


class ResultMemo:
    """One site's cross-query memo of rows, forward fan-outs and visits.

    Bounded: the three kinds share one count of at most ``capacity``
    entries.  A part store at the bound first *flushes* — drops every
    entry, as :meth:`clear` does, counting them in ``evictions`` — so a hit
    is one dict probe with no recency bookkeeping, and a visit entry never
    outlives the part entries it stands for.  A visit entry is a shortcut,
    not data: at the bound it is simply not stored.  Sizes go to the
    ``bytes_est`` gauge; both are mirrored to ``TrafficStats`` as
    ``memo_evictions`` / ``memo_bytes_est``.  The default bound is a leak
    guard, not a tuning knob: the benchmark workloads never reach it.
    Entries are plain ``ResultRow`` tuples and URL tuples, independent of
    which evaluator (compiled plan or interpreter) produced them.
    """

    __slots__ = (
        "version", "capacity", "evictions", "flushes", "visit_hits", "bytes_est",
        "_count", "_rows", "_fanout", "_visits", "_trail", "_stats",
    )

    def __init__(
        self,
        stats: "TrafficStats | None" = None,
        capacity: int = 4096,
    ) -> None:
        if capacity < 1:
            raise ValueError("memo capacity must be at least 1 entry")
        #: Bumped by every invalidation and every flush; entries stamped
        #: with an older version must not exist (audited by
        #: ``check_memo_coherence``).
        self.version = 0
        self.capacity = capacity
        #: Entries dropped by flushes, and the flushes themselves.
        self.evictions = 0
        self.flushes = 0
        #: :meth:`visit_for` probes that hit: visits served whole.
        self.visit_hits = 0
        #: Rough retained-size gauge (strings + per-object overhead); an
        #: estimate for observability, not an allocator measurement.
        self.bytes_est = 0
        #: Live entries of all three kinds.
        self._count = 0
        self._rows: dict[tuple[Url, str], _RowsEntry] = {}
        self._fanout: dict[Url, dict[Pre, _FanoutEntry]] = {}
        self._visits: dict[tuple[Url, str], VisitEntry] = {}
        #: Part keys of the hits since the last :meth:`open_visit`, until
        #: :meth:`store_visit` takes them (a visit that resolved a database
        #: is not stored, and the next ``open_visit`` starts afresh); None
        #: when nothing is being recorded.
        self._trail: list[tuple] | None = None
        self._stats = stats

    # -- rows -----------------------------------------------------------------

    def rows_for(self, node: Url, query: NodeQuery) -> tuple[ResultRow, ...] | None:
        """The memoized rows of ``query`` at ``node``; None on a miss.

        Exact structural equality only — a contained *node-query* (unlike a
        contained PRE state) computes a genuinely different relation, so
        there is nothing sound to filter from.
        """
        key = (node, structural_key(query))
        entry = self._rows.get(key)
        stats = self._stats
        if entry is None:
            if stats is not None:
                stats.memo_misses += 1
            return None
        if self._trail is not None:
            self._trail.append(("r",) + key)
        if stats is not None:
            stats.memo_hits += 1
        return entry.rows

    def store_rows(self, node: Url, query: NodeQuery, rows: tuple[ResultRow, ...]) -> None:
        key = (node, structural_key(query))
        size = _rows_bytes(key[1], rows)
        previous = self._rows.get(key)
        if previous is None:
            self._make_room()
        else:
            self._gauge(-previous.size)
        self._rows[key] = _RowsEntry(rows, self.version, size)
        self._gauge(size)

    # -- forward fan-out ------------------------------------------------------

    def fanout_for(self, node: Url, rem: Pre) -> FanoutTargets | None:
        """The memoized link fan-out for state ``rem`` at ``node``.

        Exact hit first; otherwise any logged state at this node that
        *subsumes* ``rem`` (A*m·B containment, §3.1.1) serves it through a
        residual filter — the stored buckets restricted to ``rem``'s own
        first symbols.  The filtered fan-out is promoted to an exact entry
        so the residual filter is paid once per (node, state).
        """
        stats = self._stats
        per_node = self._fanout.get(node)
        entry = None if per_node is None else per_node.get(rem)
        if entry is None and per_node is not None:
            entry = self._residual(node, rem, per_node)
            if entry is not None and stats is not None:
                stats.residual_filters += 1
        if entry is None:
            if stats is not None:
                stats.memo_misses += 1
            return None
        if self._trail is not None:
            self._trail.append(("f", node, rem))
        if stats is not None:
            stats.memo_hits += 1
        return entry.targets

    def _residual(
        self, node: Url, rem: Pre, per_node: dict[Pre, _FanoutEntry]
    ) -> _FanoutEntry | None:
        """``rem``'s fan-out filtered from a subsuming entry and promoted to
        an exact one; None when no logged state at ``node`` serves it."""
        needed = first_symbols(rem)
        for general, candidate in per_node.items():
            if compare_for_log(rem, general) is not LogComparison.DUPLICATE:
                continue
            if not all(ltype in candidate.targets for ltype in needed):
                # Conservative coverage check: only reuse when the general
                # entry logged a bucket for every link type ``rem`` can
                # follow.  (Containment implies it for the A*m·B shapes,
                # but reuse must stay locally provable.)
                continue
            return self._put_fanout(
                node, rem, {ltype: candidate.targets[ltype] for ltype in needed}
            )
        return None

    def store_fanout(self, node: Url, rem: Pre, targets: FanoutTargets) -> None:
        # A residual promotion is part of a probe, so it stores through
        # ``_put_fanout`` and never counts as a call of this one.
        self._put_fanout(node, rem, targets)

    def _put_fanout(self, node: Url, rem: Pre, targets: FanoutTargets) -> _FanoutEntry:
        size = _fanout_bytes(targets)
        per_node = self._fanout.get(node)
        previous = None if per_node is None else per_node.get(rem)
        if previous is None:
            self._make_room()  # may flush, so the node's bucket is looked up after
            per_node = self._fanout.setdefault(node, {})
        else:
            self._gauge(-previous.size)
        entry = per_node[rem] = _FanoutEntry(targets, self.version, size)  # type: ignore[index]
        self._gauge(size)
        return entry

    # -- whole visits ---------------------------------------------------------

    def visit_for(self, node: Url, key: str) -> VisitEntry | None:
        """The memoized visit of ``node`` in the state whose visit key is
        ``key``; None on a miss, which no counter records (the part probes
        that follow do)."""
        entry = self._visits.get((node, key))
        if entry is not None:
            self.visit_hits += 1
            if self._stats is not None:
                self._stats.memo_hits += len(entry.parts)
        return entry

    def open_visit(self) -> int:
        """Start recording a visit's part probes for :meth:`store_visit`.

        Returns the version to hand back to it: a flush or an invalidation
        in between changes the version, and the visit is then not stored.
        """
        self._trail = []
        return self.version

    def store_visit(
        self, node: Url, key: str, outcome: "NodeOutcome", version: int, no_fanout: bool
    ) -> None:
        """Keep the visit just made as one entry.

        The caller vouches that the visit resolved no database, i.e. every
        part probe since :meth:`open_visit` hit.  Nothing is stored if the
        memo was flushed or invalidated since that call returned
        ``version``, if the memo is full, or if the entry is already there
        (it holds this very visit: same node, same key, same parts).
        """
        parts, self._trail = self._trail, None
        if (
            parts is None
            or version != self.version
            or self._count >= self.capacity
            or (node, key) in self._visits
        ):
            return
        runs: list[tuple] = []
        for row, target in outcome.forwards:
            if runs and runs[-1][0] is row:
                runs[-1][1].append(target)
            else:
                runs.append((row, [target]))
        evaluations = tuple(outcome.evaluations)
        results = tuple(outcome.results)
        forwards = tuple([(row.step_index, row.rem, tuple(targets)) for row, targets in runs])
        self._visits[(node, key)] = VisitEntry(
            evaluations, results, forwards, tuple(parts), version, no_fanout
        )
        self._count += 1
        self._gauge(_visit_bytes(key, evaluations, results, forwards, parts))

    # -- invalidation ---------------------------------------------------------

    def clear(self) -> None:
        """Crash invalidation: the incarnation died, nothing survives it."""
        self.version += 1
        self._rows.clear()
        self._fanout.clear()
        self._visits.clear()
        self._count = 0
        self._gauge(-self.bytes_est)

    def advance_epoch(self) -> int:
        """The live-web mutation seam: declare every cached entry stale.

        Today the simulated web is frozen, so nothing calls this on the hot
        path; a future mutation source bumps the epoch when page content or
        links change, and in-flight queries recompute from the live web.
        Returns the new version for callers that stamp downstream state.
        """
        self.clear()
        return self.version

    # -- audit ----------------------------------------------------------------

    def stale_entries(self) -> list[str]:
        """Entries stamped with a dead version — always empty unless an
        invalidation path forgot to drop them (the coherence invariant)."""
        stale = [
            f"rows {key[1]} @ {key[0]} (v{entry.version} != v{self.version})"
            for key, entry in self._rows.items()
            if entry.version != self.version
        ]
        stale += [
            f"fanout {rem} @ {node} (v{entry.version} != v{self.version})"
            for node, per_node in self._fanout.items()
            for rem, entry in per_node.items()
            if entry.version != self.version
        ]
        stale += [
            f"visit {key[1]} @ {key[0]} (v{entry.version} != v{self.version})"
            for key, entry in self._visits.items()
            if entry.version != self.version
        ]
        return stale

    def orphaned_visits(self) -> list[str]:
        """Visit entries naming a part entry that is gone — always empty
        unless some path dropped a part without its visits (the coherence
        invariant).  Such a visit would serve what the part path would now
        recompute, and charge less for it."""
        orphans = []
        for (node, key), entry in self._visits.items():
            for part in entry.parts:
                if part[0] == "r":
                    present = (part[1], part[2]) in self._rows
                else:
                    present = part[2] in self._fanout.get(part[1], {})
                if not present:
                    orphans.append(f"visit {key} @ {node} names a dropped {part[0]} entry")
                    break
        return orphans

    def recount_bytes(self) -> int:
        """Recompute the byte gauge from scratch over the live entries.

        The audit twin of ``bytes_est``: the gauge is maintained
        incrementally (stores add, overwrites subtract the replaced entry's
        estimate first, flushes and clears subtract), and overwrite-heavy
        sequences are exactly where incremental accounting drifts if any
        path forgets the subtraction — an entry shrinking in place must
        *decrease* the gauge.  ``check_memo_coherence`` (and the regression
        test) assert ``recount_bytes() == bytes_est`` so any future store
        path that breaks the invariant fails loudly instead of skewing the
        dashboard gauge.
        """
        total = sum(_rows_bytes(key[1], entry.rows) for key, entry in self._rows.items())
        for per_node in self._fanout.values():
            total += sum(_fanout_bytes(entry.targets) for entry in per_node.values())
        total += sum(
            _visit_bytes(key[1], entry.evaluations, entry.results, entry.forwards, entry.parts)
            for key, entry in self._visits.items()
        )
        return total

    def entry_counts(self) -> dict[str, int]:
        """Live entries by kind: ``rows``, ``fanout`` and ``visits``."""
        return {
            "rows": len(self._rows),
            "fanout": sum(len(per_node) for per_node in self._fanout.values()),
            "visits": len(self._visits),
        }

    def __len__(self) -> int:
        return self._count

    # -- the bound ------------------------------------------------------------

    def _make_room(self) -> None:
        """Count one new part entry, flushing first if the memo is full."""
        if self._count >= self.capacity:
            dropped = self._count
            self.evictions += dropped
            self.flushes += 1
            if self._stats is not None:
                self._stats.memo_evictions += dropped
            self.clear()
        self._count += 1

    def _gauge(self, delta: int) -> None:
        self.bytes_est += delta
        if self._stats is not None and delta:
            self._stats.memo_bytes_est += delta


# Flat per-object size guesses (CPython-ish): this is a gauge for dashboards
# and eviction sanity checks, not an allocator audit.  URLs and rows are
# shared objects, so a visit entry is charged references plus a constant.
_ROW_OVERHEAD = 56
_ENTRY_OVERHEAD = 80
_URL_EST = 64
_REF = 8


def _rows_bytes(key: str, rows: tuple[ResultRow, ...]) -> int:
    total = _ENTRY_OVERHEAD + len(key)
    for row in rows:
        total += _ROW_OVERHEAD
        for value in row.values:
            total += (len(value) + 49) if isinstance(value, str) else 28
    return total


def _fanout_bytes(targets: FanoutTargets) -> int:
    total = _ENTRY_OVERHEAD
    for urls in targets.values():
        total += 24 + _URL_EST * len(urls)
    return total


def _visit_bytes(key: str, evaluations, results, forwards, parts) -> int:
    total = _ENTRY_OVERHEAD + len(key) + 40 * (len(evaluations) + len(results) + len(parts))
    for __, ___, targets in forwards:
        total += 48 + _REF * len(targets)
    return total

"""Cross-query result memoization — the reuse layer.

The log table (paper §3.1) dedups clone visits *within* one qid and the
plan cache shares *compilation*; this module shares the actual per-node
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

Rows entries are keyed, like the plan cache, by the
:func:`~repro.relational.compile.structural_key` itself, so two distinct
structures can never share an entry.

Invalidation is explicit and coarse: the memo belongs to one *(process
incarnation, web epoch)*.  :meth:`ResultMemo.clear` (called by
:meth:`~repro.core.server.QueryServer.crash`) and
:meth:`ResultMemo.advance_epoch` (the seam a future live-web mutation
feature drives) both bump ``version`` and drop everything; every entry is
stamped with the version that wrote it, so the DST
``check_memo_coherence`` invariant can audit that no entry ever outlives
an invalidation.
"""

from __future__ import annotations

from collections import OrderedDict
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

__all__ = ["ResultMemo"]

#: Fan-out payload: per link type, the distinct destinations
#: (fragment-stripped), in first-occurrence order of the page's links.
FanoutTargets = dict[LinkType, tuple[Url, ...]]


@dataclass(frozen=True, slots=True)
class _RowsEntry:
    rows: tuple[ResultRow, ...]
    version: int


@dataclass(frozen=True, slots=True)
class _FanoutEntry:
    targets: FanoutTargets
    version: int


class ResultMemo:
    """One site's cross-query memo of rows and forward fan-outs.

    Bounded: rows and fan-out entries share one LRU of ``capacity`` entries
    (hits refresh recency, stores evict the coldest entry once the ceiling
    is crossed), accounted in ``evictions`` and the ``bytes_est`` size
    gauge — mirrored to ``TrafficStats`` as ``memo_evictions`` /
    ``memo_bytes_est``.  The default bound is a leak guard, not a tuning
    knob: the benchmark workloads peak at 131 entries per site.  Entries
    are plain ``ResultRow`` tuples and URL tuples, independent of which
    evaluator (compiled plan or interpreter) produced them.
    """

    __slots__ = ("version", "capacity", "evictions", "bytes_est", "_rows", "_fanout", "_lru", "_stats")

    def __init__(
        self,
        stats: "TrafficStats | None" = None,
        capacity: int = 4096,
    ) -> None:
        if capacity < 1:
            raise ValueError("memo capacity must be at least 1 entry")
        #: Bumped by every invalidation; entries stamped with an older
        #: version must not exist (audited by ``check_memo_coherence``).
        self.version = 0
        self.capacity = capacity
        self.evictions = 0
        #: Rough retained-size gauge (strings + per-object overhead); an
        #: estimate for observability, not an allocator measurement.
        self.bytes_est = 0
        self._rows: dict[tuple[Url, str], _RowsEntry] = {}
        self._fanout: dict[Url, dict[Pre, _FanoutEntry]] = {}
        #: Shared recency order over both entry kinds: key → byte estimate.
        #: ``("r", node, key)`` addresses ``_rows``; ``("f", node, rem)``
        #: addresses ``_fanout``.  Holds exactly the stored entries' keys,
        #: so a hit can move its key to the end unchecked.
        self._lru: "OrderedDict[tuple, int]" = OrderedDict()
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
        self._lru.move_to_end(("r",) + key)
        if stats is not None:
            stats.memo_hits += 1
        return entry.rows

    def store_rows(self, node: Url, query: NodeQuery, rows: tuple[ResultRow, ...]) -> None:
        key = (node, structural_key(query))
        self._rows[key] = _RowsEntry(rows, self.version)
        self._account(("r",) + key, _rows_bytes(key[1], rows))

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
        if per_node is None:
            if stats is not None:
                stats.memo_misses += 1
            return None
        entry = per_node.get(rem)
        if entry is not None:
            self._lru.move_to_end(("f", node, rem))
            if stats is not None:
                stats.memo_hits += 1
            return entry.targets
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
            filtered: FanoutTargets = {
                ltype: candidate.targets[ltype] for ltype in needed
            }
            per_node[rem] = _FanoutEntry(filtered, self.version)
            self._account(("f", node, rem), _fanout_bytes(filtered))
            if stats is not None:
                stats.memo_hits += 1
                stats.residual_filters += 1
            return filtered
        if stats is not None:
            stats.memo_misses += 1
        return None

    def store_fanout(self, node: Url, rem: Pre, targets: FanoutTargets) -> None:
        self._fanout.setdefault(node, {})[rem] = _FanoutEntry(targets, self.version)
        self._account(("f", node, rem), _fanout_bytes(targets))

    # -- invalidation ---------------------------------------------------------

    def clear(self) -> None:
        """Crash invalidation: the incarnation died, nothing survives it."""
        self.version += 1
        self._rows.clear()
        self._fanout.clear()
        self._lru.clear()
        self._gauge(-self.bytes_est)
        self.bytes_est = 0

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
        return stale

    def recount_bytes(self) -> int:
        """Recompute the byte gauge from scratch over the live entries.

        The audit twin of ``bytes_est``: the gauge is maintained
        incrementally (stores add, overwrites subtract the replaced entry's
        estimate first, evictions and clears subtract), and overwrite-heavy
        sequences are exactly where incremental accounting drifts if any
        path forgets the subtraction — an entry shrinking in place must
        *decrease* the gauge.  ``check_memo_coherence`` (and the regression
        test) assert ``recount_bytes() == bytes_est`` so any future store
        path that breaks the invariant fails loudly instead of skewing the
        dashboard gauge and the LRU's eviction pressure.
        """
        total = sum(_rows_bytes(key[1], entry.rows) for key, entry in self._rows.items())
        for per_node in self._fanout.values():
            total += sum(_fanout_bytes(entry.targets) for entry in per_node.values())
        return total

    def __len__(self) -> int:
        return len(self._rows) + sum(len(v) for v in self._fanout.values())

    # -- LRU bookkeeping ------------------------------------------------------

    def _account(self, key: tuple, size: int) -> None:
        """Register a (re)stored entry under ``key`` and enforce capacity."""
        lru = self._lru
        previous = lru.pop(key, None)
        if previous is not None:
            self.bytes_est -= previous
            self._gauge(-previous)
        lru[key] = size
        self.bytes_est += size
        self._gauge(size)
        while len(lru) > self.capacity:
            victim, victim_size = lru.popitem(last=False)
            if victim[0] == "r":
                self._rows.pop((victim[1], victim[2]), None)
            else:
                per_node = self._fanout.get(victim[1])
                if per_node is not None:
                    per_node.pop(victim[2], None)
                    if not per_node:
                        del self._fanout[victim[1]]
            self.bytes_est -= victim_size
            self._gauge(-victim_size)
            self.evictions += 1
            if self._stats is not None:
                self._stats.memo_evictions += 1

    def _gauge(self, delta: int) -> None:
        if self._stats is not None and delta:
            self._stats.memo_bytes_est += delta


# Flat per-object size guesses (CPython-ish): this is a gauge for dashboards
# and eviction sanity checks, not an allocator audit.  URLs are shared
# objects, so they are charged as references plus a small constant.
_ROW_OVERHEAD = 56
_ENTRY_OVERHEAD = 80
_URL_EST = 64


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

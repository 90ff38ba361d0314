"""Messages flowing back to the user-site.

Optimization 3 of Section 3.2: node-query results and the new
``(NextNode, QueryState)`` information for the CHT are *shipped together* in
one message, batched across all the nodes a clone covered at a site.  A
:class:`ResultMessage` holds one :class:`CloneReport` per clone, and the
report keeps what the user-site learns about each node of ``clone.dest`` in
parallel *columns*: the node (the CHT entry it retires is ``(node, state)``,
the state shared by the whole clone), its disposition, a slice of one rows
list and a slice of one list of new entries with the dispatch identities
their clones travel under.  The server appends to the columns as it walks
the clone's nodes and the user-site's CHT applies a report in one call, so
no object is built per node on the warm path.

Only the in-memory shape is per clone.  The wire and the modelled bytes
stay per node: :mod:`repro.wire` writes one JSON object per node straight
from the columns and regroups them into reports on decode, and
``size_bytes()`` is exactly the sum of the per-node formula over the same
nodes, computed once per report — on first use, so a report a receiver
decoded and never sizes costs nothing.  Reports, and so messages, compare
by their columns.

Frontier batching widens the batch: one :class:`ResultMessage` then covers
*every* clone a site-local frontier processed, in BFS order.  That order is
load-bearing for the CHT — a child's report (retiring its entry) always
appears *after* the parent report whose ``new_entries`` announced it, so the
user-site processes announce-before-retire within the one message exactly as
it would across separate per-hop messages.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Sequence

from ..errors import DisqlSemanticsError
from ..relational.query import ResultRow
from ..storedhash import cache_field, stored_hash
from ..urlutils import Url
from .state import QueryState
from .webquery import QueryClone, QueryId

#: ``(node, state)``: one announced CHT entry, as a report's column holds it.
NewEntry = tuple[Url, QueryState]

__all__ = [
    "Disposition",
    "ChtEntry",
    "CloneReport",
    "ResultMessage",
    "CloneBundle",
]

#: The per-node columns of a :class:`CloneReport`, which equality compares as
#: lists: a server builds some of them as tuples, a decoder as lists.
_COLUMNS = (
    "nodes", "dispositions", "rows", "row_ends", "new_entries", "child_ids", "forward_ends",
)


class Disposition(enum.Enum):
    """How the server handled one destination node."""

    PROCESSED = "processed"  # node-query stage processed normally
    DATA_ONLY = "data-only"  # result rows only; carries no CHT bookkeeping
    DUPLICATE = "duplicate"  # dropped by the node-query log table
    REWRITTEN = "rewritten"  # log table superset: query rewritten, processed
    MISSING = "missing"  # node does not exist at this site (floating link)
    UNREACHABLE = "unreachable"  # forward of this entry's clone failed
    PURGED = "purged"  # query purged at the server (termination)
    OVERLOADED = "overloaded"  # clone shed by a saturated server (load shedding)


@dataclass(frozen=True, slots=True)
@stored_hash
class ChtEntry:
    """One ``(node URL, query state)`` pair — the CHT's key."""

    node: Url
    state: QueryState
    _hash: int | None = cache_field()

    def size_bytes(self) -> int:
        return len(str(self.node)) + self.state.size_bytes()

    def __str__(self) -> str:
        return f"{self.node} {self.state}"


@dataclass(slots=True, eq=False)
class CloneReport:
    """The outcome of one clone at one site: per-node columns, shared fields.

    Node ``i`` of ``nodes`` (the clone's ``dest``) was handled as
    ``dispositions[i]``; its rows are ``rows[row_ends[i-1]:row_ends[i]]``
    and the entries it announces are ``new_entries`` over the same kind of
    range in ``forward_ends``, each travelling under the dispatch identity
    at the same position of ``child_ids`` (``row_ends[-1]`` and
    ``forward_ends[-1]`` read as 0).  Every node retires ``(node, state)``
    under the clone's own ``dispatch_id``.

    A report is never mutated once handed out (the decoder fills a report's
    columns before it returns the report).  Either every disposition is
    DATA_ONLY (a rows-only report of the results/CHT-separation ablation)
    or none is.  The only report whose ``child_ids`` is not parallel to
    ``new_entries`` is a malformed one-node report off the wire, which the
    user-site refuses; the codec writes its ``child_ids`` back verbatim.
    """

    nodes: Sequence[Url]
    state: QueryState
    dispositions: Sequence[Disposition]
    rows: Sequence[tuple[str, ResultRow]]
    row_ends: Sequence[int]
    new_entries: Sequence[NewEntry]
    child_ids: Sequence[str]
    forward_ends: Sequence[int]
    dispatch_id: str = ""
    epoch: int = 0
    #: The modelled size, filled by the first ``size_bytes()``.
    _size: int | None = cache_field()

    @classmethod
    def retraction(cls, clone: QueryClone, disposition: Disposition) -> "CloneReport":
        """Retire every node of ``clone`` under its own dispatch identity.

        What a server sends when the clone can no longer be processed —
        its forward failed (UNREACHABLE) or a saturated server shed it
        (OVERLOADED): no rows, no announcements.
        """
        count = len(clone.dest)
        zeros = [0] * count
        return cls(
            clone.dest, clone.state, [disposition] * count, [], zeros, [], [], zeros,
            clone.dispatch_id, clone.epoch,
        )

    def without_rows(self) -> "CloneReport":
        """The CHT half of this report: every column but the rows."""
        return CloneReport(
            self.nodes, self.state, self.dispositions, [], [0] * len(self.nodes),
            self.new_entries, self.child_ids, self.forward_ends,
            self.dispatch_id, self.epoch,
        )

    def rows_only(self) -> "CloneReport | None":
        """The data half: one DATA_ONLY node per node that has rows, or None."""
        if not self.rows:
            return None
        nodes, ends, start = [], [], 0
        for node, stop in zip(self.nodes, self.row_ends):
            if stop > start:
                nodes.append(node)
                ends.append(stop)
            start = stop
        zeros = [0] * len(nodes)
        return CloneReport(
            nodes, self.state, [Disposition.DATA_ONLY] * len(nodes), self.rows, ends,
            [], [], zeros, self.dispatch_id, self.epoch,
        )

    @property
    def bookkeeping(self) -> bool:
        """False for a rows-only (DATA_ONLY) report, which the CHT ignores."""
        return not self.dispositions or self.dispositions[0] is not Disposition.DATA_ONLY

    def size_bytes(self) -> int:
        """The per-node formula summed over ``nodes``, computed once."""
        size = self._size
        if size is None:
            nodes = self.nodes
            size = len(nodes) * (self.state.size_bytes() + 5 + len(self.dispatch_id))
            for node in nodes:
                size += len(str(node))
            for node, state in self.new_entries:
                size += len(str(node)) + state.size_bytes()
            for label, row in self.rows:
                size += len(label) + row.value_bytes()
            for child_id in self.child_ids:
                size += len(child_id)
            self._size = size
        return size

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CloneReport):
            return NotImplemented
        return (self.state, self.dispatch_id, self.epoch) == (
            other.state, other.dispatch_id, other.epoch
        ) and all(list(getattr(self, name)) == list(getattr(other, name)) for name in _COLUMNS)


@dataclass(frozen=True, slots=True)
class ResultMessage:
    """A batch of clone reports sent directly to the user-site (§2.6, §3.2).

    ``kind`` is ``"result"`` for the paper's combined message; the
    results/CHT-separation ablation labels the CHT-only half ``"cht"``.
    """

    qid: QueryId
    reports: tuple[CloneReport, ...]
    kind: str = "result"

    def size_bytes(self) -> int:
        return self.qid.size_bytes() + sum([report.size_bytes() for report in self.reports]) + 8

    def result_count(self) -> int:
        return sum([len(report.rows) for report in self.reports])


@dataclass(frozen=True, slots=True)
class CloneBundle:
    """Several clones travelling to one destination site in one message.

    Coalesced dispatch (frontier batching): a frontier can seed
    clones in *different* states for the same remote site; instead of one
    network message per ``(site, state)`` group, the server ships them all
    under a single envelope.  The receiving server unpacks the bundle into
    its queue — each inner clone keeps its own dispatch identity, so CHT
    accounting is exactly as if the clones had travelled separately.
    """

    clones: tuple[QueryClone, ...]

    def __post_init__(self) -> None:
        if not self.clones:
            raise DisqlSemanticsError("clone bundle is empty")
        sites = {clone.site for clone in self.clones}
        if len(sites) != 1:
            raise DisqlSemanticsError(f"bundle spans multiple sites: {sorted(sites)}")

    @property
    def site(self) -> str:
        return self.clones[0].site

    @property
    def kind(self) -> str:
        return "query-batch"

    def size_bytes(self) -> int:
        return sum(clone.size_bytes() for clone in self.clones) + 8


@dataclass(frozen=True, slots=True)
class RelayMessage:
    """A result message retracing the query's path (§2.6 alternative).

    ``remaining`` lists the server sites still to traverse backwards; the
    last hop delivers ``inner`` to the user-site's result port.  Only used
    when ``EngineConfig.direct_result_return`` is False.
    """

    remaining: tuple[str, ...]
    inner: ResultMessage

    @property
    def kind(self) -> str:
        return "relay"

    def size_bytes(self) -> int:
        return self.inner.size_bytes() + sum(len(site) + 2 for site in self.remaining) + 8

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

Only the in-memory shape is per clone.  The accounting, the wire and the
modelled bytes stay per node: :meth:`CloneReport.node_reports` is the
per-node view (one :class:`NodeReport` record per node, with the field
names the protocol has always used) that the wire codec encodes, the
journal audits and tests read, and ``size_bytes()`` is exactly the sum of
the per-node formula over the same nodes, computed once per report — on
first use, so a report a receiver decoded and never sizes costs nothing.

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
from typing import Iterable, Iterator, Sequence

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
    "NodeReport",
    "ResultMessage",
    "CloneBundle",
    "group_node_records",
]


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


@dataclass(frozen=True, slots=True)
class NodeReport:
    """Everything the user-site learns about one processed node — a *view*.

    Read side only: :meth:`CloneReport.node_reports` builds these from a
    report's columns, and :meth:`ResultMessage.of_nodes` groups them back
    into reports.  ``entry`` is the CHT entry this node retires (the
    paper's "top-most entry in the list").  ``new_entries`` are the entries
    for the clones the server is about to forward — sent *before* the
    forwarding happens so the CHT always has complete knowledge (Section
    2.7.1).  ``results`` pairs each row with the node-query label that
    produced it.

    Dispatch identity (self-healing extension): ``dispatch_id`` echoes the
    identity of the clone dispatch this report resolves, and ``epoch`` the
    recovery epoch that dispatch was issued under.  ``child_ids`` runs
    parallel to ``new_entries`` — ``child_ids[i]`` is the dispatch identity
    the clone carrying ``new_entries[i]`` will travel under, minted by the
    reporting server *before* the forward.  The user-site rejects a
    bookkeeping report with no ``dispatch_id``, or with ``child_ids`` not
    parallel to ``new_entries`` (``ProtocolError``).
    """

    entry: ChtEntry
    disposition: Disposition
    new_entries: tuple[ChtEntry, ...] = ()
    results: tuple[tuple[str, ResultRow], ...] = ()
    dispatch_id: str = ""
    epoch: int = 0
    child_ids: tuple[str, ...] = ()


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

    A report is never mutated once built.  Either every disposition is
    DATA_ONLY (a rows-only report of the results/CHT-separation ablation)
    or none is.  The only report whose ``child_ids`` is not parallel to
    ``new_entries`` is a malformed one-node report off the wire, which the
    user-site refuses; the view gives its ``child_ids`` back verbatim.
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

    def node_reports(self) -> Iterator[NodeReport]:
        """The per-node view, in node order."""
        state, dispatch_id, epoch = self.state, self.dispatch_id, self.epoch
        rows, new_entries, child_ids = self.rows, self.new_entries, self.child_ids
        parallel = len(child_ids) == len(new_entries)
        row_start = forward_start = 0
        for node, disposition, row_stop, forward_stop in zip(
            self.nodes, self.dispositions, self.row_ends, self.forward_ends
        ):
            yield NodeReport(
                ChtEntry(node, state),
                disposition,
                tuple([ChtEntry(*pair) for pair in new_entries[forward_start:forward_stop]]),
                tuple(rows[row_start:row_stop]),
                dispatch_id,
                epoch,
                tuple(child_ids[forward_start:forward_stop] if parallel else child_ids),
            )
            row_start, forward_start = row_stop, forward_stop

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CloneReport):
            return NotImplemented
        return list(self.node_reports()) == list(other.node_reports())


def group_node_records(records: Iterable[tuple]) -> list[CloneReport]:
    """Regroup consecutive per-node records into :class:`CloneReport` s.

    A record is ``(node, state, disposition, new entries, rows, dispatch_id,
    epoch, child_ids)`` — a :class:`NodeReport` with its entries split into
    ``(node, state)`` pairs.  It joins the report being filled when it
    shares that report's state *object*, dispatch identity, epoch and
    DATA_ONLY-ness, its node is not in the report yet, and both have
    ``child_ids`` parallel to their new entries — so every report a server
    built comes back as itself, and a malformed record stays on its own.
    States are compared by identity: two ``==`` states spelled differently
    on the wire must not share a report, or re-encoding would change bytes.
    """
    reports: list[CloneReport] = []
    columns: tuple | None = None
    key: tuple = ()
    joinable = False
    seen: set[Url] = set()
    for node, state, disposition, new, rows, dispatch_id, epoch, child_ids in records:
        parallel = len(child_ids) == len(new)
        record_key = (id(state), dispatch_id, epoch, disposition is Disposition.DATA_ONLY)
        if columns is None or record_key != key or not (parallel and joinable) or node in seen:
            if columns is not None:
                reports.append(CloneReport(*columns))
            columns = ([], state, [], [], [], [], [], [], dispatch_id, epoch)
            key, joinable, seen = record_key, parallel, set()
        nodes, __, dispositions, all_rows, row_ends, entries, ids, forward_ends = columns[:8]
        seen.add(node)
        nodes.append(node)
        dispositions.append(disposition)
        all_rows.extend(rows)
        row_ends.append(len(all_rows))
        entries.extend(new)
        ids.extend(child_ids)
        forward_ends.append(len(entries))
    if columns is not None:
        reports.append(CloneReport(*columns))
    return reports


@dataclass(frozen=True, slots=True, eq=False)
class ResultMessage:
    """A batch of clone reports sent directly to the user-site (§2.6, §3.2).

    ``kind`` is ``"result"`` for the paper's combined message; the
    results/CHT-separation ablation labels the CHT-only half ``"cht"``.
    Two messages are equal when their per-node views are: how the nodes
    are grouped into reports is an in-memory detail.
    """

    qid: QueryId
    reports: tuple[CloneReport, ...]
    kind: str = "result"

    @classmethod
    def of_nodes(
        cls, qid: QueryId, reports: Iterable[NodeReport], kind: str = "result"
    ) -> "ResultMessage":
        """A message from per-node reports, grouped by :func:`group_node_records`."""
        records = [
            (
                r.entry.node, r.entry.state, r.disposition,
                [(e.node, e.state) for e in r.new_entries], list(r.results),
                r.dispatch_id, r.epoch, list(r.child_ids),
            )
            for r in reports
        ]
        return cls(qid, tuple(group_node_records(records)), kind)

    def size_bytes(self) -> int:
        return self.qid.size_bytes() + sum([report.size_bytes() for report in self.reports]) + 8

    def result_count(self) -> int:
        return sum([len(report.rows) for report in self.reports])

    def node_reports(self) -> Iterator[NodeReport]:
        """Every report's per-node view, in message order."""
        for report in self.reports:
            yield from report.node_reports()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ResultMessage):
            return NotImplemented
        return (
            self.qid == other.qid
            and self.kind == other.kind
            and list(self.node_reports()) == list(other.node_reports())
        )


@dataclass(frozen=True, slots=True)
class CloneBundle:
    """Several clones travelling to one destination site in one message.

    Coalesced dispatch (frontier batching, EXP-P2): a frontier can seed
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

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

The wire and the modelled bytes are written by one walk over the message
(``_write_reports``, docs/protocol.md "Messages"): :mod:`repro.wire`
writes the columns as they are — the state and dispatch identity once per
report, a row whose label and header repeat the row above as a bare value
list in which a value repeating the one above is a one-byte *ditto* — and a
URL or dispatch identity that the message already wrote as its index into
the message's one table of strings, when the index is shorter.
``ResultMessage.size_bytes()`` charges what that walk charges, computed
once per message on first use, so a message a receiver decoded and never
sizes costs nothing.  Reports, and so messages, compare by their columns.

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

from ..errors import DisqlSemanticsError, WireError
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


#: Values that a bare row cannot hold unless they repeat the value above: the
#: ditto is itself an empty JSON array.
_ARRAYS = (list, tuple)
#: What a repeated value is written as.
_DITTO: list = []
#: ``_INDEX_BELOW[n]``: the indexes below it have fewer digits than ``n``
#: characters — none for one character, ``0``–``9`` for two.  Every index a
#: message can hold has fewer digits than a longer string.
_INDEX_BELOW = (0, 0, *(10 ** digits for digits in range(1, 10)))


def _spell(table: dict, text: str) -> "tuple[str | int, int]":
    """``text`` as a body writes it, and its charge: its index when ``table``
    holds it and the index is shorter, else the string, which enters
    ``table`` the first time and costs its length and its two quotes."""
    index = table.get(text)
    if index is None:
        table[text] = len(table)
    elif len(text) >= len(_INDEX_BELOW) or index < _INDEX_BELOW[len(text)]:
        return index, len(str(index))
    return text, len(text) + 2


def _write_reports(reports: Sequence["CloneReport"], out: "list | None" = None) -> int:
    """What ``reports``' version 3 bodies charge; each body appended to ``out``.

    The one walk behind both :meth:`ResultMessage.size_bytes` (``out`` None:
    no body is built) and :mod:`repro.wire`'s encoder, which writes ``out``
    as it is (docs/protocol.md, "Messages"): states are in their wire form
    (:meth:`QueryState.wire_form`).  Every string the bodies write enters
    one table, in write order, the first time it is written: report
    ``did``s, node URLs, string row values, entry URLs and child ids.  A
    ``did``, node URL, entry URL or child id already in the table is written
    as its index when the index is shorter; a row never holds an index.  A
    report whose child ids do not fit its entries is a :class:`WireError`.

    The charge: per report the state, its ``did`` and 4; per node its URL
    and 5; per announced entry its URL, its state and its child id, the last
    two at 1 byte each when a ditto (the previous entry's state object, an
    equal child id); per row its label and header names when they differ
    from the row above, else 1, and each value at ``len(str(value))``, or 1
    when it repeats the value above it.  A ``did``, URL or child id written
    in full costs its length and its two quotes, as an index its digits.
    """
    table: dict[str, int] = {}
    size = 0
    for report in reports:
        nodes = report.nodes
        size += report.state.size_bytes() + 4 + 5 * len(nodes)
        did = report.dispatch_id
        if did:
            did, cost = _spell(table, did)
            size += cost
        urls = None if out is None else []
        for node in nodes:
            url, cost = _spell(table, str(node))
            size += cost
            if urls is not None:
                urls.append(url)
        rows = None if out is None else []
        size += _write_rows(report.rows, rows, table)
        new_entries, child_ids = report.new_entries, report.child_ids
        if len(child_ids) != len(new_entries):
            raise WireError(f"{len(child_ids)} child id(s) for {len(new_entries)} new entr(ies)")
        new = None if out is None else []
        last_state = last_id = None
        for (node, state), child_id in zip(new_entries, child_ids):
            url, cost = _spell(table, str(node))
            size += cost
            if state is last_state:
                written_state = _DITTO
                size += 1
            else:
                last_state = state
                written_state = None if new is None else state.wire_form()
                size += state.size_bytes()
            if child_id == last_id:
                written_id = _DITTO
                size += 1
            else:
                last_id = child_id
                written_id, cost = _spell(table, child_id)
                size += cost
            if new is not None:
                new.append([url, written_state, written_id])
        if out is not None:
            body: dict = {"state": report.state.wire_form()}
            if report.dispatch_id:
                body["did"] = did
            if report.epoch:
                body["ep"] = report.epoch
            body["nodes"] = urls
            body["disp"] = [disposition.value for disposition in report.dispositions]
            body["rows"] = rows
            body["rend"] = report.row_ends
            body["new"] = new
            body["fend"] = report.forward_ends
            out.append(body)
    return size


def _write_rows(
    rows: Sequence[tuple[str, ResultRow]], out: "list | None", table: dict
) -> int:
    """What a report's rows column charges; each row appended to ``out``.

    A row is bare — a value list — when its label and header are the row
    above's and none of its values is an empty array that is not a ditto;
    otherwise it is written in full, label and header names included.  A
    value is a ditto when it has the type of the value above and ``==`` it,
    and is not a float: ``-0.0 == 0.0`` and NaN is not equal to itself.
    Every string value written enters ``table`` (a bare attempt that falls
    back to a full row enters nothing the full row would not, in its order).
    """
    size = 0
    last_label = last_header = last_values = None
    for label, row in rows:
        header, values = row.header, row.values
        if label == last_label and header == last_header:
            bare = None if out is None else []
            cost = 1 + row.value_bytes()
            for value, above in zip(values, last_values):
                kind = type(value)
                if value == above and kind is type(above) and kind is not float:
                    cost -= len(str(value)) - 1
                    if bare is not None:
                        bare.append(_DITTO)
                    continue
                if kind is str:
                    if value not in table:
                        table[value] = len(table)
                elif not value and kind in _ARRAYS:
                    break  # would read back as a ditto: write the row in full
                if bare is not None:
                    bare.append(value)
            else:
                if bare is not None:
                    out.append(bare)
                size += cost
                last_values = values
                continue
        for value in values:
            if type(value) is str and value not in table:
                table[value] = len(table)
        if out is not None:
            out.append({"q": label, "h": header, "v": values})
        size += len(label) + sum(map(len, header)) + row.value_bytes()
        last_label, last_header, last_values = label, header, values
    return size


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
    or none is.  The CHT half of that ablation (:meth:`without_rows`) ships
    no rows but keeps ``row_ends``: they count the rows its data twin
    carries for each node (:attr:`rows_follow`).
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
        """The CHT half of this report: every column but the rows.

        Its ``row_ends`` stay, so the user-site knows which nodes have a
        data twin still to come and retires those only once both halves
        are in, whichever arrives first.
        """
        return CloneReport(
            self.nodes, self.state, self.dispositions, [], self.row_ends,
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

    @property
    def rows_follow(self) -> bool:
        """True for a CHT half whose nodes' rows travel in a data twin."""
        ends = self.row_ends
        return bool(ends) and ends[-1] > len(self.rows)

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
    #: The modelled size, filled by the first ``size_bytes()``.
    _size: int | None = cache_field()

    def size_bytes(self) -> int:
        """What the version 3 body charges, computed once (:meth:`walk`).

        A message a receiver decoded and never sizes costs nothing.
        """
        size = self._size
        if size is None:
            size = self.walk()
        return size

    def walk(self, out: "list | None" = None) -> int:
        """The one walk over the reports (:func:`_write_reports`): keeps and
        returns the modelled size and, with ``out``, appends each report's
        body to it — the encoder's pass sizes the message too."""
        size = self.qid.size_bytes() + _write_reports(self.reports, out) + 8
        object.__setattr__(self, "_size", size)
        return size

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
    accounting is exactly as if the clones had travelled separately.  The
    clones are of one query, which the bundle carries once.
    """

    clones: tuple[QueryClone, ...]

    def __post_init__(self) -> None:
        if not self.clones:
            raise DisqlSemanticsError("clone bundle is empty")
        sites = {clone.site for clone in self.clones}
        if len(sites) != 1:
            raise DisqlSemanticsError(f"bundle spans multiple sites: {sorted(sites)}")
        query = self.clones[0].query
        if any(clone.query is not query and clone.query != query for clone in self.clones):
            raise DisqlSemanticsError("bundle carries clones of different queries")

    @property
    def site(self) -> str:
        return self.clones[0].site

    @property
    def kind(self) -> str:
        return "query-batch"

    def size_bytes(self) -> int:
        """The query once, at the earliest step a clone is at, then each
        clone's own fields (:meth:`QueryClone.size_bytes`)."""
        clones = self.clones
        query = max([clone.query_bytes() for clone in clones])
        return query + sum([clone.own_bytes() for clone in clones]) + 8


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

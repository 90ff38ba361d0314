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
list in which a value repeating the one above is a one-byte *ditto* — and
refers back into the message's one table of strings wherever that is
shorter: a URL or dispatch identity the message already wrote as its index,
a row value as ``[index]``.  A child identity that is the previous one with
its serial raised by ``k`` is written ``-k``.  ``ResultMessage.size_bytes()``
charges what that walk charges, computed once per message on first use, so
a message a receiver decoded and never sizes costs nothing.  Reports, and
so messages, compare by their columns.

Frontier batching widens the batch: one :class:`ResultMessage` then covers
*every* clone a site-local frontier processed, in BFS order.  That order is
load-bearing for the CHT — a child's report (retiring its entry) always
appears *after* the parent report whose ``new_entries`` announced it, so the
user-site processes announce-before-retire within the one message exactly as
it would across separate per-hop messages.
"""

from __future__ import annotations

import enum
import re
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


#: What a repeated value is written as.
_DITTO: list = []
#: ``_INDEX_BELOW[n]``: the indexes below it have fewer digits than ``n``
#: characters — none for one character, ``0``–``9`` for two.  Every index a
#: message can hold has fewer digits than a longer string.
_INDEX_BELOW = (0, 0, *(10 ** digits for digits in range(1, 10)))
#: ``_REFERENCE_BELOW[n]``: the indexes whose reference, ``[index]``, is
#: shorter than ``n`` characters.
_REFERENCE_BELOW = (0, 0, *_INDEX_BELOW)
#: A disposition as a report's ``d`` column writes it: one character per node.
_DISPOSITION_CODES = {
    Disposition.PROCESSED: "p",
    Disposition.DATA_ONLY: "d",
    Disposition.DUPLICATE: "u",
    Disposition.REWRITTEN: "r",
    Disposition.MISSING: "m",
    Disposition.UNREACHABLE: "n",
    Disposition.PURGED: "x",
    Disposition.OVERLOADED: "o",
}
#: Row values written escaped, ``{"=": value}``.
_ESCAPED = (list, tuple, dict)
#: An id of the minted form, ``<prefix><serial>@<minter>``: the serial is the
#: run of 1 to 18 ASCII digits that ends just before the first ``@`` (a
#: longer run is not read as a serial, so no step is written from it).
_MINTED = re.compile(r"([^@]*?)(?<![0-9])([0-9]{1,18})(@.*)", re.DOTALL)
_SERIAL_LIMIT = 10**18


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


def _minted(dispatch_id: str) -> "tuple[str, int, str] | None":
    """``(prefix, serial, "@minter")`` of an id of the minted form
    (:data:`_MINTED`), else None."""
    match = _MINTED.fullmatch(dispatch_id)
    if match is None:
        return None
    prefix, serial, minter = match.groups()
    return prefix, int(serial), minter


def _stepped(previous: "tuple[str, int, str]", k: int) -> str:
    """The id a step of ``k`` from ``previous`` (as :func:`_minted` reads it) names."""
    prefix, serial, minter = previous
    return f"{prefix}{serial + k}{minter}"


def _write_reports(reports: Sequence["CloneReport"], out: "list | None" = None) -> int:
    """What ``reports``' version 4 bodies charge; each body appended to ``out``.

    The one walk behind both :meth:`ResultMessage.size_bytes` (``out`` None:
    no body is built) and :mod:`repro.wire`'s encoder, which writes ``out``
    as it is (docs/protocol.md, "Messages"): states are in their wire form
    (:meth:`QueryState.wire_form`).  Every string the bodies write enters
    one table, in write order, the first time it is written: report
    ``did``s, node URLs, string row values, entry URLs and child ids.  A
    ``did``, node URL, entry URL or child id already in the table is written
    as its index when the index is shorter, a row value as a reference
    (:func:`_write_rows`).  A child id that is the body's previous child id
    with its serial (:func:`_minted`) raised by ``k >= 1`` is written ``-k``
    when that is shorter than its index or the string; it enters the table
    all the same.  A report whose child ids do not fit its entries is a
    :class:`WireError`.

    The charge: per report the state, its ``did`` and 4; per node its URL
    and 5; per announced entry its URL, its state and its child id, the last
    two at 1 byte each when a ditto (the previous entry's state object, an
    equal child id); the rows as :func:`_write_rows` charges them.  A
    ``did``, URL or child id written in full costs its length and its two
    quotes, as an index its digits, as a step its length.
    """
    table: dict[str, int] = {}
    size = 0
    # The body's previous child id as _minted() reads it (prefix None: none,
    # or not of the minted form).
    prefix = serial = minter = None
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
                if prefix is not None and child_id == f"{prefix}{serial + 1}{minter}":
                    # The usual case: the next serial of one minter.
                    if cost > 2:
                        written_id, cost = -1, 2
                    serial += 1
                    if serial >= _SERIAL_LIMIT:
                        prefix = None
                else:
                    current = _minted(child_id)
                    if current is not None and prefix is not None and current[1] > serial:
                        step = serial - current[1]
                        if len(str(step)) < cost and _stepped(
                            (prefix, serial, minter), -step
                        ) == child_id:
                            written_id, cost = step, len(str(step))
                    prefix, serial, minter = current or (None, None, None)
                size += cost
            if new is not None:
                new.append([url, written_state, written_id])
        if out is not None:
            body: dict = {"s": report.state.wire_form()}
            if report.dispatch_id:
                body["i"] = did
            if report.epoch:
                body["e"] = report.epoch
            body["n"] = urls
            body["d"] = "".join([_DISPOSITION_CODES[d] for d in report.dispositions])
            body["r"] = rows
            body["re"] = report.row_ends
            body["a"] = new
            body["fe"] = report.forward_ends
            out.append(body)
    return size


def _write_rows(
    rows: Sequence[tuple[str, ResultRow]], out: "list | None", table: dict
) -> int:
    """What a report's rows column charges; each row appended to ``out``.

    A row is bare — a value list — when its label and header are the row
    above's; otherwise it is written in full, label and header names
    included.  In a bare row a value is a ditto, ``[]``, when it has the type
    of the value above and ``==`` it and is not a float (``-0.0 == 0.0`` and
    NaN is not equal to itself).  Otherwise, in either kind of row, a string
    that is already in ``table`` is written as a reference, ``[index]``,
    when that is shorter than the string; any other string is written as
    itself and enters ``table``.  A value that is itself an array or an
    object is written inside one, ``{"=": value}``, so it reads as neither a
    ditto nor a reference.

    The charge: per row its label and header names in full, else 1; each
    value at ``len(str(value))``, a ditto at 1, a reference at its digits
    and 2.
    """
    size = 0
    last_label = last_header = last_values = None
    for label, row in rows:
        header, values = row.header, row.values
        written = None if out is None else []
        bare = label == last_label and header == last_header
        if bare:
            cost = 1 + row.value_bytes()
        else:
            cost = len(label) + sum(map(len, header)) + row.value_bytes()
            last_label, last_header = label, header
        for value, old in zip(values, last_values if bare else values):
            kind = type(value)
            if bare and value == old and kind is type(old) and kind is not float:
                cost -= len(str(value)) - 1
                if written is not None:
                    written.append(_DITTO)
                continue
            if kind is str:
                index = table.get(value)
                if index is None:
                    table[value] = len(table)
                elif len(value) >= len(_REFERENCE_BELOW) or index < _REFERENCE_BELOW[len(value)]:
                    cost -= len(value) - len(str(index)) - 2
                    if written is not None:
                        written.append([index])
                    continue
            elif kind in _ESCAPED:
                value = {"=": value}
            if written is not None:
                written.append(value)
        if out is not None:
            out.append(written if bare else {"q": label, "h": header, "v": written})
        size += cost
        last_values = values
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
        """What the version 4 body charges, computed once (:meth:`walk`).

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

"""Wire format: serialization of every WEBDIS message type.

The original system shipped queries between sites with Java object
serialization (paper Section 4).  This module provides the equivalent for
the reproduction: a compact, versioned JSON encoding of every payload —
query clones, result/CHT messages, relay wrappers, and document fetches —
with full round-trip fidelity (PRE ASTs, node-query expression trees,
states, URLs).

Uses:

* the engines' default ``size_bytes()`` methods are fast *estimates*; pass
  ``NetworkConfig(...)`` unchanged but call :func:`wire_size` when exact
  sizes matter (the codec tests assert the estimates stay within a small
  factor of the real encoding);
* :func:`encode_message` / :func:`decode_message` support persisting or
  replaying protocol traffic.

Security note: :func:`decode_message` only constructs the library's own
frozen dataclasses — no arbitrary object instantiation.

Real-transport framing (the asyncio backend, :mod:`repro.net.aio`): the
simulator hands payload *objects* to listeners, but a TCP stream needs
explicit message boundaries.  :func:`encode_frame` / :class:`FrameDecoder`
implement length-prefixed framing (4-byte big-endian length, then the body)
with an oversized-frame guard, and :func:`encode_envelope` /
:func:`decode_envelope` stamp each framed message with its *source site* —
the one piece of addressing information a raw socket does not carry but
every :data:`~repro.net.network.Listener` receives; it is also what the
receive loop's chaos verdicts (:mod:`repro.net.chaos`) key partition rules
on.  :func:`envelope_source` reads just that stamp, without decoding the
message.  A frame body ends in the logical port it is for and its link's
sequence number (:func:`encode_sequenced`): one connection carries every
port between two sites, and the receiver echoes the sequence number in a
fixed-size :data:`ACK_RECORD` — that is what lets a link keep many frames
in flight.
``docs/protocol.md`` ("Wire format") is the specification;
:data:`FRAME_REVISION` numbers it.

The codec does the work for what every message repeats once.  On encode, a
web-query's and a query state's wire form is kept on the object itself, so it
lives exactly as long as the query.  On decode, URL text, query states and the
web-query each clone carries are interned in bounded process-global tables;
a decoded web-query is forgotten once its origin's completion watermark
(:attr:`~repro.core.webquery.WebQuery.mark`) passes it.  Encoded bytes depend
on none of this — see "what every message repeats" below.

A result message writes each :class:`~repro.core.messages.CloneReport` as its
columns, and a string the message already wrote — a URL, a dispatch id, a row
value — as a back-reference into the message's one string table; a child id
that continues the previous one's serials is a step.  The decoder rebuilds
that table in body order and fills a report's columns straight from the body,
checking their shape, every index and every step (see "result bodies" below).
A clone bundle writes its query once.  These back-references are per message:
no table outlives the message, so no peer has to remember what another sent.
"""

from __future__ import annotations

import json
import marshal
import struct
from collections import OrderedDict
from typing import Any

from .baselines.docservice import DocResponse, FetchRequest
from .core.messages import (
    _DISPOSITION_CODES,
    CloneBundle,
    CloneReport,
    Disposition,
    RelayMessage,
    ResultMessage,
    _minted,
    _stepped,
)
from .core.state import QueryState
from .core.webquery import QueryClone, QueryId, WebQuery, WebQueryStep
from .errors import WebDisError, WireError
from .model.relations import LinkType
from .pre.ast import Alt, Atom, Concat, Empty, Never, Pre, Repeat
from .relational.expr import (
    And,
    Attr,
    Compare,
    Contains,
    Expr,
    Literal,
    Not,
    Or,
)
from .relational.query import NodeQuery, ResultRow, TableDecl
from .urlutils import Url, parse_url

__all__ = [
    "WIRE_VERSION",
    "FRAME_REVISION",
    "MAX_FRAME_BYTES",
    "ACK_BYTE",
    "NAK_BYTE",
    "REFUSE_BYTE",
    "ACK_RECORD",
    "WireError",
    "encode_message",
    "decode_message",
    "wire_size",
    "pre_to_wire",
    "pre_from_wire",
    "expr_to_wire",
    "expr_from_wire",
    "encode_frame",
    "FrameDecoder",
    "encode_envelope",
    "decode_envelope",
    "envelope_source",
    "encode_sequenced",
    "split_sequenced",
]

#: Version of the message encoding (the ``"v"`` of every JSON envelope).
#: 1: a result message listed one JSON object per node.
#: 2: a result message writes each clone report once, as columns, a repeat
#:    of the value above as a ditto ("result bodies" below).
#: 3: a result body writes a URL or dispatch id it already wrote as an index
#:    into its one string table, and a clone bundle writes its query once.
#: 4: a row value the table holds may be a reference, ``[index]``; a child id
#:    may be a step, ``-k``, from the body's previous one; a disposition is one
#:    character and a report's keys are one or two letters.
WIRE_VERSION = 4

#: Revision of the stream format *around* the messages — frames, sequence
#: numbers, acknowledgement records (docs/protocol.md, "Wire format").
#: 1: one positional ack byte per frame, one frame in flight per connection.
#: 2: each frame body ends in a sequence number and each ack names it.
#: 3: the logical port rides in the frame, before the sequence number, so one
#:    connection per site pair carries every port; a frame for a port with no
#:    listener is answered with a :data:`REFUSE_BYTE` record.
#: Message bytes did not change between them.
FRAME_REVISION = 3

#: Hard ceiling on one framed message.  A length prefix beyond this is
#: treated as protocol corruption (or an attack) and the connection is
#: aborted rather than buffering unbounded data.
MAX_FRAME_BYTES = 8 * 1024 * 1024

_FRAME_HEADER = struct.Struct(">I")
#: What ends every frame body: the logical port, then the sequence number.
_TRAILER = struct.Struct(">II")

#: Kind byte of the record a receiver writes after its listener has
#: *processed* a frame.
ACK_BYTE = b"\x06"

#: Kind byte of the record a receiver writes when an admission probe declines
#: a frame: it was *not* processed and the sender should back off and retry.
#: The connection itself stays healthy.
NAK_BYTE = b"\x15"

#: Kind byte of the record a receiver writes when nothing listens on the
#: frame's port — never bound, closed before the frame arrived, or closed by
#: that frame's own listener.  The frame counts as not delivered, and the
#: sender settles it as a refused connect to that port would settle.  The
#: connection itself stays healthy.
REFUSE_BYTE = b"\x18"

#: One acknowledgement: a kind byte, then the sequence number of the frame it
#: answers.  Fixed size, so a stream of them needs no framing of its own.
ACK_RECORD = struct.Struct(">cI")


# --- PRE <-> wire -----------------------------------------------------------


def pre_to_wire(pre: Pre) -> Any:
    """Encode a PRE as a JSON-able structure."""
    if isinstance(pre, Empty):
        return "N"
    if isinstance(pre, Never):
        return "0"
    if isinstance(pre, Atom):
        return pre.ltype.value
    if isinstance(pre, Concat):
        return {"cat": [pre_to_wire(p) for p in pre.parts]}
    if isinstance(pre, Alt):
        return {"alt": [pre_to_wire(p) for p in pre.options]}
    if isinstance(pre, Repeat):
        return {"rep": pre_to_wire(pre.body), "max": pre.bound}
    raise WireError(f"unencodable PRE node {pre!r}")


def pre_from_wire(data: Any) -> Pre:
    """Decode :func:`pre_to_wire` output."""
    if data == "N":
        return Empty()
    if data == "0":
        return Never()
    if isinstance(data, str):
        return Atom(LinkType.from_symbol(data))
    if isinstance(data, dict):
        if "cat" in data:
            return Concat(tuple(pre_from_wire(p) for p in data["cat"]))
        if "alt" in data:
            return Alt(tuple(pre_from_wire(p) for p in data["alt"]))
        if "rep" in data:
            return Repeat(pre_from_wire(data["rep"]), data["max"])
    raise WireError(f"bad PRE wire data {data!r}")


# --- expressions <-> wire ------------------------------------------------------


def expr_to_wire(expr: Expr) -> Any:
    if isinstance(expr, Literal):
        return {"lit": expr.value}
    if isinstance(expr, Attr):
        return {"attr": [expr.alias, expr.name]}
    if isinstance(expr, Compare):
        return {"cmp": expr.op, "l": expr_to_wire(expr.left), "r": expr_to_wire(expr.right)}
    if isinstance(expr, Contains):
        encoded = {"has": [expr_to_wire(expr.haystack), expr_to_wire(expr.needle)]}
        if expr.max_edits:
            encoded["k"] = expr.max_edits
        return encoded
    if isinstance(expr, And):
        return {"and": [expr_to_wire(expr.left), expr_to_wire(expr.right)]}
    if isinstance(expr, Or):
        return {"or": [expr_to_wire(expr.left), expr_to_wire(expr.right)]}
    if isinstance(expr, Not):
        return {"not": expr_to_wire(expr.operand)}
    raise WireError(f"unencodable expression {expr!r}")


def expr_from_wire(data: Any) -> Expr:
    if not isinstance(data, dict):
        raise WireError(f"bad expression wire data {data!r}")
    if "lit" in data:
        return Literal(data["lit"])
    if "attr" in data:
        alias, name = data["attr"]
        return Attr(alias, name)
    if "cmp" in data:
        return Compare(data["cmp"], expr_from_wire(data["l"]), expr_from_wire(data["r"]))
    if "has" in data:
        haystack, needle = data["has"]
        return Contains(
            expr_from_wire(haystack), expr_from_wire(needle), data.get("k", 0)
        )
    if "and" in data:
        left, right = data["and"]
        return And(expr_from_wire(left), expr_from_wire(right))
    if "or" in data:
        left, right = data["or"]
        return Or(expr_from_wire(left), expr_from_wire(right))
    if "not" in data:
        return Not(expr_from_wire(data["not"]))
    raise WireError(f"bad expression wire data {data!r}")


# --- what every message repeats ---------------------------------------------------
#
# A query's messages name the same few dozen URLs, the same handful of query
# states and — in every clone — the same web-query, over and over.  The codec
# does the work for each distinct one once.
#
# Encoding keeps a ``WebQuery``'s text and a ``QueryState``'s JSON on the
# object (its ``_wire`` cache field): an encoding is a function of the frozen
# object, and it is freed with the query, so nothing a finished query touched
# outlives it here.
#
# Decoding interns in process-global tables: a site's traffic is about its own
# neighbourhood of the web whichever query it belongs to, so every process of
# a deployment fills its own.  They are bounded (oldest out first), their sizes
# are constants, and they never need resetting for correctness: a decode table
# is keyed by the complete received value, so a hit returns exactly what a miss
# would build.

_DECODE_TABLE_SIZE = 4096

#: URL text as received -> the ``Url`` it parses to.
_DECODED_URLS: "dict[str, Url]" = {}
#: ``repr`` of a query state's JSON object as received -> the ``QueryState``.
#: The repr tells apart everything ``==`` on JSON values conflates — ``1`` /
#: ``1.0`` / ``true``, key order — so equal keys *are* the equality proof.
_DECODED_STATES: "dict[str, QueryState]" = {}


def _remember(table: dict, key: Any, value: Any, limit: int) -> None:
    if len(table) >= limit:
        del table[next(iter(table))]
    table[key] = value


def _url_from_wire(text: Any) -> Url:
    if type(text) is not str:
        return parse_url(text)  # not a JSON string: fails as it always did
    url = _DECODED_URLS.get(text)
    if url is None:
        url = parse_url(text)
        _remember(_DECODED_URLS, text, url, _DECODE_TABLE_SIZE)
    return url


_dumps = json.JSONEncoder(
    separators=(",", ":"), ensure_ascii=False, check_circular=False
).encode


# --- query pieces ---------------------------------------------------------------


def _node_query_to_wire(query: NodeQuery) -> Any:
    encoded = {
        "select": [[a.alias, a.name] for a in query.select],
        "tables": [[t.relation, t.alias] for t in query.tables],
        "where": expr_to_wire(query.where),
        "label": query.label,
    }
    if query.sitewide_aliases:
        encoded["sitewide"] = list(query.sitewide_aliases)
    return encoded


def _node_query_from_wire(data: Any) -> NodeQuery:
    return NodeQuery(
        select=tuple(Attr(alias, name) for alias, name in data["select"]),
        tables=tuple(TableDecl(rel, alias) for rel, alias in data["tables"]),
        where=expr_from_wire(data["where"]),
        label=data["label"],
        sitewide_aliases=tuple(data.get("sitewide", ())),
    )


def _qid_to_wire(qid: QueryId) -> Any:
    return [qid.user, qid.host, qid.port, qid.number]


def _qid_from_wire(data: Any) -> QueryId:
    user, host, port, number = data
    return QueryId(user, host, port, number)


def _webquery_to_wire(query: WebQuery) -> Any:
    encoded = {
        "qid": _qid_to_wire(query.qid),
        "starts": [str(u) for u in query.start_urls],
        "steps": [
            {"pre": pre_to_wire(s.pre), "q": _node_query_to_wire(s.query)}
            for s in query.steps
        ],
        "header": list(query.select_header),
    }
    if query.display_distinct:
        encoded["distinct"] = True
    if query.display_order:
        encoded["order"] = [[name, desc] for name, desc in query.display_order]
    if query.display_limit is not None:
        encoded["limit"] = query.display_limit
    if query.done_below is not None:
        encoded["mark"] = query.done_below
    return encoded


#: The web-queries this process decoded and whose origin has not finished
#: them, keyed by the JSON object each was decoded from.  Every clone of a
#: query carries the whole query, so a site decodes the same object once per
#: clone; serving a repeat from here also keeps the query's protocol table
#: (:attr:`WebQuery.program`) — one ``WebQuery`` instance per query per
#: process, as on the simulator.
_DECODED_QUERIES: "OrderedDict[bytes, WebQuery]" = OrderedDict()
#: The same entries by origin ``(user, host)``: key -> query number.  A
#: decode whose watermark is ``m`` drops its origin's entries numbered below
#: ``m`` — the rule the admission stage applies to the log table.
_QUERY_ORIGINS: "dict[tuple[str, str], dict[bytes, int]]" = {}
#: The backstop for origins that go silent and for hostile frames.
_QUERY_TABLE_SIZE = 256


def _webquery_from_wire(data: Any) -> WebQuery:
    """Decode a web-query, reusing the retained decode of the same JSON.

    The key is the received object's ``marshal`` serialization: unlike
    ``==`` on JSON values it tells ``1`` / ``1.0`` / ``true`` apart (and
    key orders), so an equal key *is* the proof, at a third of ``repr``'s
    cost.  A query is never written as references, so the bytes depend on
    the value alone.
    """
    key = marshal.dumps(data, 2)
    query = _DECODED_QUERIES.get(key)
    if query is not None:
        _DECODED_QUERIES.move_to_end(key)
        return query
    query = _DECODED_QUERIES[key] = _decode_webquery(data)
    origin = _origin(query.qid)
    if origin is not None:
        entries = _QUERY_ORIGINS.setdefault(origin, {})
        mark = query.mark
        for finished in [old for old, number in entries.items() if number < mark]:
            del entries[finished], _DECODED_QUERIES[finished]
        entries[key] = query.qid.number
    while len(_DECODED_QUERIES) > _QUERY_TABLE_SIZE:
        evicted, old_query = _DECODED_QUERIES.popitem(last=False)
        origin = _origin(old_query.qid)
        if origin is not None:
            entries = _QUERY_ORIGINS[origin]
            del entries[evicted]
            if not entries:
                del _QUERY_ORIGINS[origin]
    return query


def _origin(qid: QueryId) -> "tuple[str, str] | None":
    """The origin a decoded query is indexed under; None for an ill-typed id."""
    if type(qid.user) is str and type(qid.host) is str and type(qid.number) is int:
        return qid.user, qid.host
    return None


def _decode_webquery(data: Any) -> WebQuery:
    qid = _qid_from_wire(data["qid"])
    return WebQuery(
        qid=qid,
        start_urls=tuple(_url_from_wire(u) for u in data["starts"]),
        steps=tuple(
            WebQueryStep(pre_from_wire(s["pre"]), _node_query_from_wire(s["q"]))
            for s in data["steps"]
        ),
        select_header=tuple(data["header"]),
        display_distinct=bool(data.get("distinct", False)),
        display_order=tuple((name, desc) for name, desc in data.get("order", ())),
        display_limit=data.get("limit"),
        done_below=_mark_from_wire(data, qid),
    )


def _mark_from_wire(data: Any, qid: QueryId) -> int | None:
    """A web-query's completion watermark: absent, or in ``1..number``."""
    if "mark" not in data:
        return None
    mark = data["mark"]
    if type(mark) is not int or not 1 <= mark <= qid.number:
        raise WireError(f"bad watermark {mark!r} for query {qid}")
    return None if mark == qid.number else mark


def _state_from_wire(data: Any) -> QueryState:
    return QueryState(data["n"], pre_from_wire(data["rem"]))


def _state_from_spelling(spelled: Any) -> QueryState:
    """A query state, interned by its spelling (``_DECODED_STATES``)."""
    key = repr(spelled)  # total on any JSON value
    state = _DECODED_STATES.get(key)
    if state is None:
        state = _state_from_wire(spelled)
        _remember(_DECODED_STATES, key, state, _DECODE_TABLE_SIZE)
    return state


# --- result bodies: columns and one string table ----------------------------------
#
# A report is one JSON object holding its columns, and its shared fields once:
# ``{"s":…,"i":…,"e":…,"n":[…],"d":"…","r":[…],"re":[…],"a":[…],"fe":[…]}`` —
# state, dispatch id, epoch, nodes, one disposition code per node, rows, row
# ends, announced entries, forward ends — ``i`` / ``e`` absent when empty.  A
# row is ``{"q":label,"h":[…],"v":[…]}`` when its label or header differs from
# the row above, else a bare value list in which a value repeating the one
# above is a ditto, ``[]``; an entry of ``a`` is ``[url, state, child id]``,
# its state a ditto when it is the previous entry's state object (one per
# protocol state on a server, one per spelling here), its child id when it
# equals the previous entry's.
#
# Every string a body writes enters one table per body, in write order, the
# first time it is written: ``i``s, node URLs, string row values, entry URLs
# and child ids.  A string already in the table may be written as a reference
# (the encoder does so when it is shorter): an ``i``, node URL, entry URL or
# child id as its index, a non-negative integer; a row value as ``[index]``.
# A child id may also be a step, ``-k``: the body's previous child id with its
# serial raised by ``k`` (``core.messages._minted``).  A row value that is an
# array or an object is escaped, ``{"=":value}``, so in a row ``[]`` is always
# a ditto, ``[n]`` a reference and a bare integer a value.
# ``ResultMessage.walk`` (``core.messages._write_reports``) is the one walk
# that both writes a body and charges it: an encoded message is sized.

_DISPOSITIONS = {code: disposition for disposition, code in _DISPOSITION_CODES.items()}


def _is_ditto(value: Any) -> bool:
    return type(value) is list and not value


class _StringTable:
    """A body's string table as its decoder rebuilds it, in body order, and
    the body's previous child id (what a step counts from)."""

    __slots__ = ("strings", "known", "child")

    def __init__(self) -> None:
        self.strings: list[str] = []
        self.known: set[str] = set()
        self.child: str | None = None

    def enter(self, text: str) -> None:
        if text not in self.known:
            self.known.add(text)
            self.strings.append(text)

    def index(self, spelled: int, what: str) -> str:
        if not 0 <= spelled < len(self.strings):
            raise WireError(
                f"{what} index {spelled} is outside the {len(self.strings)} strings before it"
            )
        return self.strings[spelled]

    def read(self, spelled: Any, what: str) -> str:
        """A string written in full (which enters the table) or as its index."""
        if type(spelled) is str:
            self.enter(spelled)
            return spelled
        if type(spelled) is not int:  # a bool is not an index
            raise WireError(f"{what} {spelled!r} is neither a string nor an index")
        return self.index(spelled, what)

    def url(self, spelled: Any) -> Url:
        return _url_from_wire(self.read(spelled, "URL"))

    def child_id(self, spelled: Any) -> str:
        """A child id: in full, an index, or ``-k``, a step of ``k`` from the
        body's previous child id.  However it is spelled it enters the table."""
        if type(spelled) is int and spelled < 0:
            previous = None if self.child is None else _minted(self.child)
            if previous is None:
                raise WireError(f"child id step {spelled} from {self.child!r}, not a minted id")
            child = _stepped(previous, -spelled)
            self.enter(child)
        else:
            child = self.read(spelled, "child id")
        self.child = child
        return child

    def reference(self, spelled: list) -> str:
        """A row value written as a reference, ``[index]``."""
        if len(spelled) != 1 or type(spelled[0]) is not int:  # a bool is not an index
            raise WireError(f"row value {spelled!r} is not a reference")
        return self.index(spelled[0], "row value")


def _escaped(spelled: dict) -> Any:
    """A row value that is an array or an object, written ``{"=": value}``."""
    if len(spelled) != 1 or type(spelled.get("=")) not in (list, dict):
        raise WireError(f"row value {spelled!r} is not an escaped array or object")
    return spelled["="]


def _rows_from_wire(data: Any, table: _StringTable) -> list:
    rows: list = []
    label = header = values = None
    known, strings = table.known, table.strings  # _StringTable.enter, inlined
    for item in data:
        if type(item) is dict:
            label, header, written = item["q"], item["h"], item["v"]
            if type(label) is not str or type(header) is not list or type(written) is not list:
                raise WireError(f"bad row {item!r}")
            if not all(type(name) is str for name in header) or len(written) != len(header):
                raise WireError(f"bad row header, or values that do not fit it: {item!r}")
            header = tuple(header)
            bare = False
        elif type(item) is list and header is not None:
            if len(item) != len(header):
                raise WireError(f"row {item!r} does not match its header {list(header)!r}")
            written, bare = item, True
        else:
            raise WireError(f"bad row {item!r}: not a row, or a ditto with no row above")
        read = []
        for value, old in zip(written, values if bare else written):
            kind = type(value)
            if kind is str:
                if value not in known:
                    known.add(value)
                    strings.append(value)
            elif kind is list:
                if value:
                    value = table.reference(value)
                elif bare:
                    value = old
                else:
                    raise WireError(f"row {item!r} holds a ditto with no row above")
            elif kind is dict:
                value = _escaped(value)
            read.append(value)
        values = tuple(read)
        rows.append((label, ResultRow(header, values)))
    return rows


def _entries_from_wire(data: Any, table: _StringTable) -> tuple[list, list]:
    entries: list = []
    child_ids: list = []
    state = child_id = None
    for item in data:
        if type(item) is not list or len(item) != 3:
            raise WireError(f"bad new entry {item!r}")
        node, spelled, spelled_id = item
        url = table.url(node)
        if not _is_ditto(spelled):
            state = _state_from_spelling(spelled)
        if not _is_ditto(spelled_id):
            child_id = table.child_id(spelled_id)
        if state is None or child_id is None:
            raise WireError(f"new entry {item!r} repeats a previous entry there is none of")
        entries.append((url, state))
        child_ids.append(child_id)
    return entries, child_ids


def _check_ends(ends: Any, count: int, total: "int | None", name: str) -> None:
    """``ends``: one non-decreasing end per node, the last one ``total``
    (unless ``total`` is None)."""
    if type(ends) is not list or len(ends) != count:
        raise WireError(f"{name} is not one end per node: {ends!r}")
    previous = 0
    for end in ends:
        if type(end) is not int or end < previous:
            raise WireError(f"{name} goes backwards or is not an integer: {ends!r}")
        previous = end
    if total is not None and previous != total:
        raise WireError(f"{name} ends at {previous}, not at {total}: {ends!r}")


def _column(data: Any, key: str) -> list:
    column = data[key]
    if type(column) is not list:
        raise WireError(f"{key} is not a list: {column!r}")
    return column


def _report_from_wire(data: Any, cht_half: bool, table: _StringTable) -> CloneReport:
    """One report's columns, checked for shape, its strings read through ``table``.

    In a CHT half (``"chan":"cht"``) ``rows`` is empty and ``rend`` counts
    the rows the data twin carries, so it need not end at 0.
    """
    dispatch_id = table.read(data["i"], "dispatch id") if "i" in data else ""
    epoch = data.get("e", 0)
    if type(epoch) is not int:
        raise WireError(f"bad epoch {epoch!r}")
    nodes = [table.url(url) for url in _column(data, "n")]
    codes = data["d"]
    if type(codes) is not str:
        raise WireError(f"d is not a string of disposition codes: {codes!r}")
    dispositions = [_DISPOSITIONS[code] for code in codes]
    count = len(nodes)
    if len(dispositions) != count:
        raise WireError(f"{len(dispositions)} dispositions for {count} nodes")
    data_only = dispositions.count(Disposition.DATA_ONLY)
    if data_only and data_only != count:
        raise WireError("a report mixes DATA_ONLY with other dispositions")
    rows = _rows_from_wire(_column(data, "r"), table)
    if cht_half and rows:
        raise WireError("a CHT half carries rows")
    row_ends = data["re"]
    _check_ends(row_ends, count, None if cht_half else len(rows), "re")
    entries, child_ids = _entries_from_wire(_column(data, "a"), table)
    forward_ends = data["fe"]
    _check_ends(forward_ends, count, len(entries), "fe")
    return CloneReport(
        nodes, _state_from_spelling(data["s"]), dispositions, rows, row_ends,
        entries, child_ids, forward_ends, dispatch_id, epoch,
    )


# --- top-level messages ----------------------------------------------------------

_KIND_CLONE = "clone"
_KIND_RESULT = "result"
_KIND_RELAY = "relay"
_KIND_FETCH = "fetch"
_KIND_DOC = "doc"
_KIND_BUNDLE = "clone-bundle"

#: ``{"v":1,"k":"<kind>","b":`` per kind: what every message's text opens with.
_ENVELOPE_HEADS = {
    kind: f'{{"v":{_dumps(WIRE_VERSION)},"k":{_dumps(kind)},"b":'
    for kind in (_KIND_CLONE, _KIND_RESULT, _KIND_RELAY, _KIND_FETCH, _KIND_DOC, _KIND_BUNDLE)
}


def _webquery_text(query: WebQuery) -> str:
    """``query``'s wire text, built once and kept on the object."""
    text = query._wire
    if text is None:
        text = _dumps(_webquery_to_wire(query))
        object.__setattr__(query, "_wire", text)
    return text


def _clone_rest(clone: QueryClone) -> str:
    """A clone's own fields as a JSON object, the query left out."""
    rest = {
        "step": clone.step_index,
        "rem": pre_to_wire(clone.rem),
        "dest": [str(u) for u in clone.dest],
        "hist": list(clone.history),
    }
    if clone.dispatch_id:
        rest["did"] = clone.dispatch_id
    if clone.epoch:
        rest["ep"] = clone.epoch
    return _dumps(rest)


def _clone_from_rest(query: WebQuery, body: Any) -> QueryClone:
    return QueryClone(
        query=query,
        step_index=body["step"],
        rem=pre_from_wire(body["rem"]),
        dest=tuple(_url_from_wire(u) for u in body["dest"]),
        history=tuple(body["hist"]),
        dispatch_id=body.get("did", ""),
        epoch=body.get("ep", 0),
    )


def _result_body(message: ResultMessage) -> dict:
    reports: list = []
    message.walk(reports)
    return {"qid": _qid_to_wire(message.qid), "reports": reports, "chan": message.kind}


def _result_from_body(body: Any) -> ResultMessage:
    kind = body["chan"]
    cht_half = kind == "cht"
    table = _StringTable()
    return ResultMessage(
        qid=_qid_from_wire(body["qid"]),
        reports=tuple([_report_from_wire(report, cht_half, table) for report in body["reports"]]),
        kind=kind,
    )


def encode_message(message: object) -> bytes:
    """Serialize any WEBDIS payload to wire bytes."""
    if isinstance(message, CloneBundle):
        clones = ",".join([_clone_rest(clone) for clone in message.clones])
        body = f'{{"query":{_webquery_text(message.clones[0].query)},"clones":[{clones}]}}'
        kind = _KIND_BUNDLE
    elif isinstance(message, QueryClone):
        body = f'{{"query":{_webquery_text(message.query)},{_clone_rest(message)[1:]}'
        kind = _KIND_CLONE
    elif isinstance(message, ResultMessage):
        body = _dumps(_result_body(message))
        kind = _KIND_RESULT
    elif isinstance(message, RelayMessage):
        body = _dumps(
            {"path": list(message.remaining), "inner": _result_body(message.inner)}
        )
        kind = _KIND_RELAY
    elif isinstance(message, FetchRequest):
        body = _dumps(
            {
                "url": str(message.url),
                "site": message.reply_site,
                "port": message.reply_port,
                "id": message.request_id,
            }
        )
        kind = _KIND_FETCH
    elif isinstance(message, DocResponse):
        body = _dumps(
            {"url": str(message.url), "html": message.html, "id": message.request_id}
        )
        kind = _KIND_DOC
    else:
        raise WireError(f"unencodable message type {type(message).__name__}")
    return f'{_ENVELOPE_HEADS[kind]}{body}}}'.encode("utf-8")


#: What decoding valid JSON of the wrong shape raises — a missing key or
#: index, a value of the wrong type or range, a bad URL or PRE, nesting too
#: deep to walk.  :func:`decode_message` reports each as a :class:`WireError`.
_MALFORMED = (LookupError, TypeError, ValueError, AttributeError, RecursionError, WebDisError)


def decode_message(data: bytes) -> object:
    """Inverse of :func:`encode_message`.

    Anything else raises :class:`WireError` — undecodable text, an unknown
    version or kind, or a body of the wrong shape (chained to the error that
    found it) — so a receiver has one exception to catch.
    """
    try:
        envelope = json.loads(data.decode("utf-8"))
    except (ValueError, RecursionError) as exc:
        raise WireError(f"undecodable wire data: {exc}") from exc
    if not isinstance(envelope, dict) or envelope.get("v") != WIRE_VERSION:
        raise WireError(f"unsupported wire version in {envelope!r}")
    kind = envelope.get("k")
    try:
        return _decode_body(kind, envelope.get("b"))
    except WireError:
        raise
    except _MALFORMED as exc:
        raise WireError(f"malformed {kind!r} message: {exc!r}") from exc


def _decode_body(kind: Any, body: Any) -> object:
    if kind == _KIND_CLONE:
        return _clone_from_rest(_webquery_from_wire(body["query"]), body)
    if kind == _KIND_RESULT:
        return _result_from_body(body)
    if kind == _KIND_RELAY:
        return RelayMessage(tuple(body["path"]), _result_from_body(body["inner"]))
    if kind == _KIND_FETCH:
        return FetchRequest(
            _url_from_wire(body["url"]), body["site"], body["port"], body["id"]
        )
    if kind == _KIND_DOC:
        return DocResponse(_url_from_wire(body["url"]), body["html"], body["id"])
    if kind == _KIND_BUNDLE:
        query = _webquery_from_wire(body["query"])
        return CloneBundle(tuple([_clone_from_rest(query, clone) for clone in body["clones"]]))
    raise WireError(f"unknown message kind {kind!r}")


def wire_size(message: object) -> int:
    """Exact encoded size in bytes."""
    return len(encode_message(message))


# --- stream framing (real transports) ----------------------------------------


def encode_frame(body: bytes, max_frame_bytes: int = MAX_FRAME_BYTES) -> bytes:
    """Prefix ``body`` with its 4-byte big-endian length."""
    if len(body) > max_frame_bytes:
        raise WireError(
            f"frame of {len(body)} bytes exceeds the {max_frame_bytes}-byte limit"
        )
    return _FRAME_HEADER.pack(len(body)) + body


class FrameDecoder:
    """Incremental inverse of :func:`encode_frame` over an arbitrary chunking.

    Feed raw stream chunks as they arrive — any split is legal: one byte at
    a time, several concatenated frames in one read, a header straddling two
    chunks.  Complete frame bodies come back in order.  A length prefix
    larger than ``max_frame_bytes`` raises :class:`WireError` immediately
    (the caller must abort the connection: the stream cannot be re-synced).
    """

    def __init__(self, max_frame_bytes: int = MAX_FRAME_BYTES) -> None:
        self.max_frame_bytes = max_frame_bytes
        self._buffer = bytearray()

    @property
    def pending(self) -> bool:
        """True when the stream ended (or paused) mid-frame.

        At a clean point between frames the buffer is empty; bytes left
        over after the peer closed mean the connection was reset mid-frame
        and the partial message must be discarded, never delivered.
        """
        return bool(self._buffer)

    def feed(self, chunk: bytes) -> list[bytes]:
        """Consume ``chunk``; return every frame body it completed."""
        self._buffer.extend(chunk)
        frames: list[bytes] = []
        while len(self._buffer) >= _FRAME_HEADER.size:
            (length,) = _FRAME_HEADER.unpack_from(self._buffer)
            if length > self.max_frame_bytes:
                raise WireError(
                    f"incoming frame of {length} bytes exceeds the "
                    f"{self.max_frame_bytes}-byte limit"
                )
            end = _FRAME_HEADER.size + length
            if len(self._buffer) < end:
                break
            frames.append(bytes(self._buffer[_FRAME_HEADER.size:end]))
            del self._buffer[:end]
        return frames


# --- source-stamped envelopes (frame bodies) ---------------------------------

_ENVELOPE_SEPARATOR = b"\x00"


def encode_envelope(src: str, message: object) -> bytes:
    """One frame body: the source site, a NUL, then the encoded message.

    The simulator's delivery callback receives ``(src_site, payload)``; a
    TCP stream only carries bytes, so the source site travels in-band.  The
    site name is UTF-8 and never contains NUL (site names are host names).
    """
    stamp = src.encode("utf-8")
    if _ENVELOPE_SEPARATOR in stamp:
        raise WireError(f"source site {src!r} contains NUL")
    return stamp + _ENVELOPE_SEPARATOR + encode_message(message)


def envelope_source(body: bytes) -> str:
    """The source-site stamp of an envelope, without decoding the message."""
    stamp, separator, __ = body.partition(_ENVELOPE_SEPARATOR)
    if not separator:
        raise WireError("envelope missing source stamp")
    try:
        return stamp.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise WireError(f"undecodable source stamp: {exc}") from exc


def encode_sequenced(envelope: bytes, port: int, sequence: int) -> bytes:
    """A frame body: ``envelope``, the logical port, the per-link sequence number.

    The trailer follows the envelope so the receiver splits it off the end
    (:func:`split_sequenced`) and what reads an envelope's head —
    :func:`envelope_source` — is untouched by it.
    """
    return envelope + _TRAILER.pack(port, sequence)


def split_sequenced(body: bytes) -> tuple[bytes, int, bytes]:
    """Inverse of :func:`encode_sequenced`: ``(envelope, port, sequence bytes)``.

    The sequence number comes back as the four bytes received: a receiver
    only ever echoes it into an :data:`ACK_RECORD`.
    """
    if len(body) < _TRAILER.size:
        raise WireError(f"frame body of {len(body)} bytes has no port and sequence number")
    end = len(body) - _TRAILER.size
    return body[:end], int.from_bytes(body[end:end + 4], "big"), body[end + 4:]


def decode_envelope(body: bytes) -> tuple[str, object]:
    """Inverse of :func:`encode_envelope`: ``(src_site, decoded message)``."""
    src = envelope_source(body)
    __, ___, message_bytes = body.partition(_ENVELOPE_SEPARATOR)
    return src, decode_message(message_bytes)

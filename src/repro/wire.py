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
message.  A frame body ends in its link's sequence
number (:func:`encode_sequenced`), which the receiver echoes in a fixed-size
:data:`ACK_RECORD` — that is what lets a link keep many frames in flight.
``docs/protocol.md`` ("Wire format") is the specification;
:data:`FRAME_REVISION` numbers it.

The codec interns what every message repeats (URL text, CHT entries, the
web-query each clone carries, query states) in bounded process-global tables;
encoded bytes do not depend on them — see "what every message repeats" below.
"""

from __future__ import annotations

import json
import struct
from collections import OrderedDict
from typing import Any

from .baselines.docservice import DocResponse, FetchRequest
from .core.messages import (
    ChtEntry,
    CloneBundle,
    Disposition,
    NodeReport,
    RelayMessage,
    ResultMessage,
)
from .core.state import QueryState
from .core.webquery import QueryClone, QueryId, WebQuery, WebQueryStep
from .errors import WebDisError
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
from .urlutils import parse_url

__all__ = [
    "WIRE_VERSION",
    "FRAME_REVISION",
    "MAX_FRAME_BYTES",
    "ACK_BYTE",
    "NAK_BYTE",
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
WIRE_VERSION = 1

#: Revision of the stream format *around* the messages — frames, sequence
#: numbers, acknowledgement records (docs/protocol.md, "Wire format").
#: 1: one positional ack byte per frame, one frame in flight per connection.
#: 2: each frame body ends in a sequence number and each ack names it.
#: Message bytes did not change between the two, so ``WIRE_VERSION`` did not.
FRAME_REVISION = 2

#: Hard ceiling on one framed message.  A length prefix beyond this is
#: treated as protocol corruption (or an attack) and the connection is
#: aborted rather than buffering unbounded data.
MAX_FRAME_BYTES = 8 * 1024 * 1024

_FRAME_HEADER = struct.Struct(">I")
_SEQUENCE = struct.Struct(">I")

#: Kind byte of the record a receiver writes after its listener has
#: *processed* a frame.
ACK_BYTE = b"\x06"

#: Kind byte of the record a receiver writes when an admission probe declines
#: a frame: it was *not* processed and the sender should back off and retry.
#: The connection itself stays healthy.
NAK_BYTE = b"\x15"

#: One acknowledgement: a kind byte, then the sequence number of the frame it
#: answers.  Fixed size, so a stream of them needs no framing of its own.
ACK_RECORD = struct.Struct(">cI")


class WireError(WebDisError):
    """Malformed or unsupported wire data."""


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
# states and — in every clone — the same web-query, over and over.  The tables
# below let the codec do the work for each distinct one once.  They are
# process-global, like ``_DECODED_QUERIES``: a site's traffic is about its own
# neighbourhood of the web whichever query it belongs to, so every process of
# a deployment fills its own.  They are bounded (oldest out first), their sizes
# are constants, and they never need resetting for correctness: a decode table
# is keyed by the complete received value, so a hit returns exactly what a miss
# would build; an encode table is keyed by the object being encoded.

_DECODE_TABLE_SIZE = 4096
_FRAGMENT_TABLE_SIZE = 1024

#: URL text as received -> the ``Url`` it parses to.
_DECODED_URLS: "dict[str, Url]" = {}
#: ``repr`` of a CHT entry's JSON object as received -> the ``ChtEntry``.  The
#: repr tells apart everything ``==`` on JSON values conflates — ``1`` /
#: ``1.0`` / ``true``, key order — so equal keys *are* the equality proof.
_DECODED_ENTRIES: "dict[str, ChtEntry]" = {}
#: ``id`` of a ``WebQuery`` / ``QueryState`` being encoded -> that object (held,
#: so the id cannot be reused) and what was built for it.
_ENCODED_FRAGMENTS: "dict[int, tuple[object, Any]]" = {}


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


def _fragment(value: object, build: Any) -> Any:
    """``build(value)``, built once per object for as long as the table holds it."""
    held = _ENCODED_FRAGMENTS.get(id(value))
    if held is not None and held[0] is value:
        return held[1]
    built = build(value)
    _remember(_ENCODED_FRAGMENTS, id(value), (value, built), _FRAGMENT_TABLE_SIZE)
    return built


_dumps = json.JSONEncoder(separators=(",", ":"), ensure_ascii=False).encode


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
    return encoded


#: The web-queries this process decoded most recently, by qid, each beside
#: the JSON object it was decoded from.  Every clone of a query carries the
#: whole query, so a site decodes the same object once per clone; serving a
#: repeat from here also keeps the query's protocol table
#: (:attr:`WebQuery.program`) — one ``WebQuery`` instance per query per
#: process, as on the simulator.
_DECODED_QUERIES: "OrderedDict[str, tuple[Any, WebQuery]]" = OrderedDict()


def _webquery_from_wire(data: Any) -> WebQuery:
    """Decode a web-query, reusing the retained decode of the same JSON.

    A retained query is served only when the received object ``==`` the one
    it was decoded from — the qid is the lookup key, never the proof.
    """
    key = repr(data["qid"])  # total on any JSON value, unlike hashing it
    retained = _DECODED_QUERIES.get(key)
    if retained is not None and retained[0] == data:
        _DECODED_QUERIES.move_to_end(key)
        return retained[1]
    query = _decode_webquery(data)
    _DECODED_QUERIES[key] = (data, query)
    _DECODED_QUERIES.move_to_end(key)
    while len(_DECODED_QUERIES) > 256:
        _DECODED_QUERIES.popitem(last=False)
    return query


def _decode_webquery(data: Any) -> WebQuery:
    return WebQuery(
        qid=_qid_from_wire(data["qid"]),
        start_urls=tuple(_url_from_wire(u) for u in data["starts"]),
        steps=tuple(
            WebQueryStep(pre_from_wire(s["pre"]), _node_query_from_wire(s["q"]))
            for s in data["steps"]
        ),
        select_header=tuple(data["header"]),
        display_distinct=bool(data.get("distinct", False)),
        display_order=tuple((name, desc) for name, desc in data.get("order", ())),
        display_limit=data.get("limit"),
    )


def _state_to_wire(state: QueryState) -> Any:
    return {"n": state.num_q, "rem": pre_to_wire(state.rem)}


def _state_from_wire(data: Any) -> QueryState:
    return QueryState(data["n"], pre_from_wire(data["rem"]))


def _entry_to_wire(entry: ChtEntry) -> Any:
    return {"node": str(entry.node), "state": _fragment(entry.state, _state_to_wire)}


def _entry_from_wire(data: Any) -> ChtEntry:
    key = repr(data)  # total on any JSON value
    entry = _DECODED_ENTRIES.get(key)
    if entry is None:
        entry = ChtEntry(_url_from_wire(data["node"]), _state_from_wire(data["state"]))
        _remember(_DECODED_ENTRIES, key, entry, _DECODE_TABLE_SIZE)
    return entry


def _report_to_wire(report: NodeReport) -> Any:
    encoded = {
        "entry": _entry_to_wire(report.entry),
        "disp": report.disposition.value,
        "new": [_entry_to_wire(e) for e in report.new_entries],
        "rows": [
            {"q": label, "h": list(row.header), "v": list(row.values)}
            for label, row in report.results
        ],
    }
    # Dispatch identity travels only when stamped, so legacy traffic
    # round-trips byte-identically.
    if report.dispatch_id:
        encoded["did"] = report.dispatch_id
    if report.epoch:
        encoded["ep"] = report.epoch
    if report.child_ids:
        encoded["cids"] = list(report.child_ids)
    return encoded


def _report_from_wire(data: Any) -> NodeReport:
    return NodeReport(
        entry=_entry_from_wire(data["entry"]),
        disposition=Disposition(data["disp"]),
        new_entries=tuple(_entry_from_wire(e) for e in data["new"]),
        results=tuple(
            (r["q"], ResultRow(tuple(r["h"]), tuple(r["v"]))) for r in data["rows"]
        ),
        dispatch_id=data.get("did", ""),
        epoch=data.get("ep", 0),
        child_ids=tuple(data.get("cids", ())),
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
    return _dumps(_webquery_to_wire(query))


def _clone_text(clone: QueryClone) -> str:
    """A clone's JSON object: the query's text, then the clone's own fields."""
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
    return f'{{"query":{_fragment(clone.query, _webquery_text)},{_dumps(rest)[1:]}'


def _clone_from_body(body: Any) -> QueryClone:
    return QueryClone(
        query=_webquery_from_wire(body["query"]),
        step_index=body["step"],
        rem=pre_from_wire(body["rem"]),
        dest=tuple(_url_from_wire(u) for u in body["dest"]),
        history=tuple(body["hist"]),
        dispatch_id=body.get("did", ""),
        epoch=body.get("ep", 0),
    )


def _result_body(message: ResultMessage) -> dict:
    return {
        "qid": _qid_to_wire(message.qid),
        "reports": [_report_to_wire(r) for r in message.reports],
        "chan": message.kind,
    }


def _result_from_body(body: Any) -> ResultMessage:
    return ResultMessage(
        qid=_qid_from_wire(body["qid"]),
        reports=tuple(_report_from_wire(r) for r in body["reports"]),
        kind=body["chan"],
    )


def encode_message(message: object) -> bytes:
    """Serialize any WEBDIS payload to wire bytes."""
    if isinstance(message, CloneBundle):
        body = f'{{"clones":[{",".join([_clone_text(clone) for clone in message.clones])}]}}'
        kind = _KIND_BUNDLE
    elif isinstance(message, QueryClone):
        body = _clone_text(message)
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


def decode_message(data: bytes) -> object:
    """Inverse of :func:`encode_message`."""
    try:
        envelope = json.loads(data.decode("utf-8"))
    except (ValueError, UnicodeDecodeError) as exc:
        raise WireError(f"undecodable wire data: {exc}") from exc
    if not isinstance(envelope, dict) or envelope.get("v") != WIRE_VERSION:
        raise WireError(f"unsupported wire version in {envelope!r}")
    kind = envelope.get("k")
    body = envelope.get("b")
    if kind == _KIND_CLONE:
        return _clone_from_body(body)
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
        return CloneBundle(tuple(_clone_from_body(clone) for clone in body["clones"]))
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


def encode_sequenced(envelope: bytes, sequence: int) -> bytes:
    """A frame body: ``envelope`` followed by its per-link sequence number.

    The number trails the envelope so the receiver splits it off the end
    (:func:`split_sequenced`) and what reads an envelope's head —
    :func:`envelope_source` — is untouched by it.
    """
    return envelope + _SEQUENCE.pack(sequence)


def split_sequenced(body: bytes) -> tuple[bytes, bytes]:
    """Inverse of :func:`encode_sequenced`: ``(envelope, sequence bytes)``.

    The sequence number comes back as the four bytes received: a receiver
    only ever echoes it into an :data:`ACK_RECORD`.
    """
    if len(body) < _SEQUENCE.size:
        raise WireError(f"frame body of {len(body)} bytes has no sequence number")
    return body[: -_SEQUENCE.size], body[-_SEQUENCE.size :]


def decode_envelope(body: bytes) -> tuple[str, object]:
    """Inverse of :func:`encode_envelope`: ``(src_site, decoded message)``."""
    src = envelope_source(body)
    __, ___, message_bytes = body.partition(_ENVELOPE_SEPARATOR)
    return src, decode_message(message_bytes)

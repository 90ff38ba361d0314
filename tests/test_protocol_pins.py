"""Pins around the compiled protocol path: what it must not have changed.

The per-query protocol table and the stored hashes are accelerators.  These
tests hold the values they must leave alone to what the previous
implementation produced — literals and digests captured there, and the
``size_bytes()`` formulas written out: a clone's kept verbatim, a result
message's read back off its columnar wire body — plus the one count that
cannot drift with machine noise: what a warm repeat of a query allocates.
"""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import fields, is_dataclass

import pytest
from hypothesis import given, settings, strategies as st

from repro import EngineConfig, WebDisEngine
from repro.core.messages import (
    ChtEntry,
    CloneBundle,
    CloneReport,
    Disposition,
    RelayMessage,
    ResultMessage,
)
from repro.core.state import QueryState
from repro.core.webquery import QueryClone, QueryId, WebQuery
from repro.disql import compile_disql
from repro.model.relations import LinkType
from repro.pre.ast import Alt, Atom, Concat, Empty, Never, Repeat
from repro.pre.ops import pre_size
from repro.pre.parser import parse_pre
from repro.relational.compile import structural_key
from repro.relational.query import NodeQuery, ResultRow
from repro.urlutils import Url
from repro.web import SyntheticWebConfig, build_campus_web, build_synthetic_web
from repro.web.campus import CAMPUS_QUERY_DISQL
from repro.web.synthetic import synthetic_start_url
from repro.wire import decode_message, encode_message, pre_to_wire

QID = QueryId("maya", "user.example", 5001, 7)


def _query() -> WebQuery:
    return compile_disql(
        'select d.url, d.title, a.href from document d such that "http://root.example/" '
        '(L|G)*3 d, anchor a where d.title contains "topic"'
    ).with_qid(QID)


def _bundle() -> CloneBundle:
    query = _query()
    return CloneBundle((
        QueryClone(
            query, 0, parse_pre("(L|G)*2"), (Url("b.example", "/x"), Url("b.example", "/y")),
            dispatch_id="s1@a.example", epoch=2,
        ),
        QueryClone(
            query, 0, parse_pre("L|G"), (Url("b.example", "/z", "frag"),),
            history=("a.example",),
        ),
    ))


def _result() -> ResultMessage:
    """One two-node report: the first node has rows and announces two
    entries, the second was a duplicate.  Lists, as a decoder builds them."""
    state = QueryState(1, parse_pre("(L|G)*2"))
    child = QueryState(1, parse_pre("L|G"))
    row = ResultRow(("d.url", "d.title", "a.href"), ("http://b.example/x", "topic é", 3))
    return ResultMessage(QID, (
        CloneReport(
            [Url("b.example", "/x"), Url("b.example", "/y")], state,
            [Disposition.PROCESSED, Disposition.DUPLICATE], [("q1", row), ("q1", row)], [2, 2],
            [(Url("c.example", "/"), child), (Url("b.example", "/q"), child)],
            ["s4@b.example", "s5@b.example"], [2, 2], "s1@a.example", 2,
        ),
    ))


def _referring_result() -> ResultMessage:
    """A parent report and the child report it announced, as one frontier
    batch sends them: the child's dispatch id and node were written above it,
    and the parent's entry URL is the ``a.href`` of its own row."""
    state = QueryState(1, parse_pre("(L|G)*2"))
    child = QueryState(1, parse_pre("L|G"))
    b_x, b_y = Url("b.example", "/x"), Url("b.example", "/y")
    row = ResultRow(("d.url", "d.title", "a.href"), ("http://b.example/x", "topic", str(b_y)))
    return ResultMessage(QID, (
        CloneReport(
            [b_x], state, [Disposition.PROCESSED], [("q1", row)], [1], [(b_y, child)],
            ["s4@b.example"], [1], "s1@a.example",
        ),
        CloneReport(
            [b_y], child, [Disposition.PROCESSED], [], [0], [], [], [0], "s4@b.example",
        ),
    ))


def _relay() -> RelayMessage:
    return RelayMessage(("a.example", "root.example"), _result())


# --- stored hashes are invisible -------------------------------------------------

_L, _G = Atom(LinkType.LOCAL), Atom(LinkType.GLOBAL)


def _clone_with(rem, query=None) -> QueryClone:
    return QueryClone(query or _query(), 0, rem, (Url("b.example", "/x"),))


def _via_clone_rem(rem):
    return decode_message(encode_message(_clone_with(rem))).rem


def _via_report_entry(entry: ChtEntry) -> ChtEntry:
    report = CloneReport(
        [entry.node], entry.state, [Disposition.PROCESSED], [], [0], [], [], [0], "u1"
    )
    [decoded] = decode_message(encode_message(ResultMessage(QID, (report,)))).reports
    return ChtEntry(decoded.nodes[0], decoded.state)


#: ``(value, the same value after encode_message / decode_message)``.
_VALUES = {
    "Url": (
        Url("b.example", "/x", "frag"),
        lambda url: decode_message(
            encode_message(QueryClone(_query(), 0, _L, (url,)))
        ).dest[0],
    ),
    "QueryId": (QID, lambda qid: decode_message(encode_message(ResultMessage(qid, ()))).qid),
    "QueryState": (
        QueryState(2, Repeat(Alt((_L, _G)), 3)),
        lambda state: _via_report_entry(ChtEntry(Url("b.example"), state)).state,
    ),
    "Empty": (Empty(), _via_clone_rem),
    "Never": (Never(), _via_clone_rem),
    "Atom": (_L, _via_clone_rem),
    "Concat": (Concat((_L, Repeat(_G, None))), _via_clone_rem),
    "Alt": (Alt((_L, _G)), _via_clone_rem),
    "Repeat": (Repeat(Alt((_L, _G)), 3), _via_clone_rem),
    "NodeQuery": (
        _query().steps[0].query,
        lambda nq: decode_message(encode_message(_clone_with(_L))).query.steps[0].query,
    ),
    "ChtEntry": (ChtEntry(Url("b.example", "/x"), QueryState(1, _L)), _via_report_entry),
}


@pytest.mark.parametrize("name", sorted(_VALUES))
def test_stored_hash_is_not_part_of_the_value(name):
    value, round_trip = _VALUES[name]
    assert type(value).__name__ == name
    hash(value)  # fill the cache first: a filled slot must stay invisible too
    str(value)
    init = [spec for spec in fields(value) if spec.init]
    assert value._hash is not None and "_hash" not in repr(value)
    rebuilt = type(value)(*[getattr(value, spec.name) for spec in init])
    for other in (rebuilt, round_trip(value)):
        assert other is not value
        assert other == value and hash(other) == hash(value)
        assert {value: "found"}[other] == "found"
        assert repr(other) == repr(value)


def test_reprs_are_byte_identical_to_the_previous_implementation():
    state = _bundle().clones[0].state
    hash(state)
    assert repr(state) == (
        "QueryState(num_q=1, rem=Repeat(body=Alt(options=(Atom(ltype=<LinkType.LOCAL: 'L'>), "
        "Atom(ltype=<LinkType.GLOBAL: 'G'>))), bound=2))"
    )
    report = _result().reports[0]
    entry = ChtEntry(report.nodes[0], report.state)
    hash(entry), str(entry.node)
    assert repr(entry) == (
        "ChtEntry(node=Url(host='b.example', path='/x', fragment='', scheme='http'), "
        "state=QueryState(num_q=1, rem=Repeat(body=Alt(options=(Atom(ltype=<LinkType.LOCAL: 'L'>), "
        "Atom(ltype=<LinkType.GLOBAL: 'G'>))), bound=2)))"
    )


#: The node-query of each EXP-E1 workload's first pool query, with the sha256
#: of the ``structural_key`` it had before node-queries stored it.
_E1_SHAPES = {
    "cold_default": (
        'select d.url, d.title, a.href from document d such that '
        '"http://site000.example/" (L|G)*2 d, anchor a where d.title contains "topic"',
        "eb0f1b8cd4c171c18a49a40993045d3b3f1ba8fe03167c49c6d7bf1f47a75bde",
    ),
    "warm_zipf": (
        'select d.url, d.title, a.href from document d such that '
        '"http://site000.example/" (L|G)*3 d, anchor a where d.title contains "topic"',
        "eb0f1b8cd4c171c18a49a40993045d3b3f1ba8fe03167c49c6d7bf1f47a75bde",
    ),
    "eval_join": (
        'select d.url, a.href, r.text from document d such that '
        '"http://rich0.example/p0.html" (G|L)*2 d, anchor a, relinfon r '
        'where r.text contains "q0abcd" and a.label contains r.delimiter and a.href != a.base',
        "b435d7caa8c24a80e861d6654962ffa1ac719148a6393f974904179fe6134437",
    ),
    "wire_tenants": (
        'select d.url, d.title, a.href from document d such that '
        '"http://site000.example/page1.html" (L|G)*2 d, anchor a where d.title contains "topic"',
        "eb0f1b8cd4c171c18a49a40993045d3b3f1ba8fe03167c49c6d7bf1f47a75bde",
    ),
}


@pytest.mark.parametrize("workload", sorted(_E1_SHAPES))
def test_structural_keys_did_not_move(workload):
    text, key_sha = _E1_SHAPES[workload]
    node_query = compile_disql(text).steps[0].query
    hash(node_query)  # a stored hash must not leak into the repr-built key
    for __ in range(2):  # computed, then served from the node-query
        assert hashlib.sha256(structural_key(node_query).encode()).hexdigest() == key_sha


# --- wire bytes -------------------------------------------------------------------
# Re-captured at ``WIRE_VERSION`` 4.  The bundle moved only in the envelope's
# ``"v"``.  The result and the relay write the row's ``d.url`` as a reference to
# the node URL, ``[1]``, the second entry's child id as a step, ``-1``, the
# dispositions as one code each and a report's keys as one or two letters;
# ``result-references`` writes its ``d.url`` as a reference too, and still the
# child report's dispatch id and node, and the parent's entry URL, as indexes.

_WIRE_DIGESTS = {
    "bundle": (_bundle, "dbff341c8da9a53408956ac47e965d869a444384319bc7383c905d2f66c04c22"),
    "relay": (_relay, "188facf7c0a20ebb88a2535ef8287920225e601d1d2f90a9854f61ccec64aed7"),
    "result": (_result, "c1d5813814d167347ac296e8ab96d0aeae6f510c0c1a7d7b657a3fff2777945a"),
    "result-references": (
        _referring_result, "6956d201f97921fc16ecb5a0e1d543da8db031315d6d3814fea147a68a9d0e50"
    ),
}


@pytest.mark.parametrize("name", sorted(_WIRE_DIGESTS))
def test_wire_bytes_did_not_move(name):
    build, digest = _WIRE_DIGESTS[name]
    message = build()
    encoded = encode_message(message)
    assert hashlib.sha256(encoded).hexdigest() == digest
    assert decode_message(encoded) == message


def test_a_query_is_decoded_once_per_process_and_only_when_identical():
    first, second = _bundle().clones
    one = decode_message(encode_message(first)).query
    assert decode_message(encode_message(second)).query is one
    assert decode_message(encode_message(_bundle())).clones[1].query is one
    # Same qid, different query: the retained decode must not be served.
    other = compile_disql(
        'select d.url from document d such that "http://root.example/" L d'
    ).with_qid(QID)
    decoded = decode_message(encode_message(_clone_with(_L, other))).query
    assert decoded == other and decoded is not one


# --- the size model ----------------------------------------------------------------
# A clone's size_bytes() formula as the previous implementation had it,
# verbatim, plus the one term added since: its completion watermark.  A bundle
# charges its query's share once, at its clones' earliest step.  A result
# message is charged what its body writes, so its formula reads that body: the
# encoded message itself, where a string costs its length and an index its
# digits.


def _url_text(url: Url) -> str:
    base = f"{url.scheme}://{url.host}{url.path}"
    return f"{base}#{url.fragment}" if url.fragment else base


def _qid_size(qid: QueryId) -> int:
    return len(qid.user) + len(qid.host) + 8


def _state_size(state: QueryState) -> int:
    return 4 + 4 * pre_size(state.rem)


def _clone_shares(clone: QueryClone) -> tuple[int, int]:
    """``(the query's share, the clone's own share)`` of a clone's size."""
    remaining = sum(
        4 * pre_size(step.pre) + len(str(step.query))
        for step in clone.query.steps[clone.step_index:]
    )
    mark = 0 if clone.query.done_below is None else 4
    dests = sum(len(_url_text(url)) for url in clone.dest)
    trail = sum(len(site) + 2 for site in clone.history)
    identity = len(clone.dispatch_id) + 4
    return (
        _qid_size(clone.query.qid) + remaining + mark,
        4 * pre_size(clone.rem) + dests + trail + identity + 16,
    )


def _clone_size(clone: QueryClone) -> int:
    return sum(_clone_shares(clone))


def _bundle_size(bundle: CloneBundle) -> int:
    queries, owns = zip(*map(_clone_shares, bundle.clones))
    return max(queries) + sum(owns) + 8


_DITTO: list = []


def _written(spelled) -> int:
    """What a string, an index or a step costs: its length and its quotes, or
    its digits (and a step's sign)."""
    return len(spelled) + 2 if isinstance(spelled, str) else len(str(spelled))


def _value_size(value) -> int:
    """What a row value costs as a body writes it: a reference ``[index]``
    its digits and 2, an escaped array or object ``{"=": value}`` what the
    value renders to, anything else what it renders to."""
    if isinstance(value, list):
        (index,) = value
        return len(str(index)) + 2
    if isinstance(value, dict):
        return len(str(value["="]))
    return len(str(value))


def _report_size(report: CloneReport, body: dict) -> int:
    """What ``body``, the report's wire form, writes: its state, dispatch id
    and 4; 5 and the URL per node; per entry the URL, the state and the child
    id, each ditto at 1; per row the label and header names of a full row or
    1 for a bare one, and each value as :func:`_value_size` says, a ditto at
    1.  A dispatch id, URL or child id costs what :func:`_written` says."""
    size = _state_size(report.state) + 4
    if "i" in body:
        size += _written(body["i"])
    size += sum(_written(url) + 5 for url in body["n"])
    for (url, state, child_id), (__, entry_state) in zip(body["a"], report.new_entries):
        size += _written(url)
        size += 1 if state == _DITTO else _state_size(entry_state)
        size += 1 if child_id == _DITTO else _written(child_id)
    for row in body["r"]:
        if isinstance(row, dict):
            size += len(row["q"]) + sum(map(len, row["h"]))
            size += sum(map(_value_size, row["v"]))
        else:
            size += 1 + sum(1 if value == _DITTO else _value_size(value) for value in row)
    return size


def _result_size(message: ResultMessage, body: dict | None = None) -> int:
    if body is None:
        body = json.loads(encode_message(message))["b"]
    reports = sum(map(_report_size, message.reports, body["reports"]))
    return _qid_size(message.qid) + reports + 8


def _reference_size(payload) -> int:
    if isinstance(payload, QueryClone):
        return _clone_size(payload)
    if isinstance(payload, CloneBundle):
        return _bundle_size(payload)
    if isinstance(payload, ResultMessage):
        return _result_size(payload)
    assert isinstance(payload, RelayMessage)
    inner = json.loads(encode_message(payload))["b"]["inner"]
    return (
        _result_size(payload.inner, inner) + sum(len(s) + 2 for s in payload.remaining) + 8
    )


def _synthetic():
    config = SyntheticWebConfig(sites=5, pages_per_site=5, seed=3)
    text = (
        f'select d.url, d.title, a.href from document d such that '
        f'"{synthetic_start_url(config)}" (L|G)*3 d, anchor a where d.title contains "topic"'
    )
    return build_synthetic_web(config), text


_RUNS = {
    "campus": (lambda: (build_campus_web(), CAMPUS_QUERY_DISQL), EngineConfig(), 1),
    "synthetic": (_synthetic, EngineConfig(), 1),
    "synthetic-retrace": (_synthetic, EngineConfig(direct_result_return=False), 1),
    # The second query is submitted while the first runs: it carries a mark.
    "synthetic-overlapping": (_synthetic, EngineConfig(), 2),
}


@pytest.mark.parametrize("run", sorted(_RUNS))
def test_every_tapped_message_has_the_previous_size(run):
    build, config, queries = _RUNS[run]
    web, text = build()
    engine = WebDisEngine(web, config=config)
    tapped = []
    engine.network.add_tap(lambda now, src, dst, port, payload: tapped.append(payload))
    handles = [engine.submit_disql(text) for __ in range(queries)]
    engine.run()
    assert all(handle.results for handle in handles)
    marked = [
        clone for payload in tapped if isinstance(payload, (QueryClone, CloneBundle))
        for clone in getattr(payload, "clones", (payload,))
        if clone.query.done_below is not None
    ]
    assert bool(marked) == (queries > 1)
    kinds = {type(payload) for payload in tapped}
    assert {QueryClone, ResultMessage} <= kinds
    if run == "synthetic":
        assert CloneBundle in kinds
    if run == "synthetic-retrace":
        assert RelayMessage in kinds
    for payload in tapped:
        assert payload.size_bytes() == _reference_size(payload), payload
        assert payload.size_bytes() == _reference_size(payload)  # and when cached


# --- a message's bytes are its reports' columns and one string table -------------
# ``CloneReport`` keeps per-node columns and the wire writes them as they are,
# a string the message already wrote as its index (a row value as
# ``[index]``) and a child id that continues the previous one's serial as a
# step: a message's bytes are checked against the encoding spelled out here —
# the reference and step rules written out again, independently of
# ``core.messages`` — and its modelled size against the formula above, read
# off those bytes.  The child ids step (``s4`` → ``s5``), and rows repeat node
# URLs, entry URLs and child ids, so every rule is drawn.

_NODE_URLS = [Url(f"s{i % 3}.example", f"/p{i}.html") for i in range(8)]
_STATES = [QueryState(1, parse_pre(text)) for text in ("(L|G)*2", "L|G", "G.(G|L)", "N")]
_DISPOSITIONS = [d for d in Disposition if d is not Disposition.DATA_ONLY]
#: Dispatch ids: unstamped, a user-site's, servers' — and the child ids a
#: report announces, so a later report's ``did`` can repeat one.  ``"a"`` is
#: too short for any index to be shorter.
_CHILD_IDS = ["s4@b.example", "s5@b.example", "a"]
_DISPATCH_IDS = ["", "s1@a.example", "u12@user.example", *_CHILD_IDS]
_ROWS = [
    ("q1", ResultRow(("d.url",), ("http://s0.example/",))),
    ("q1", ResultRow(("d.url",), ("http://s1.example/",))),
    ("q2", ResultRow(("d.url", "d.title"), ("http://s1.example/x", "topic é"))),
    ("q2", ResultRow(("d.url", "d.title"), ("http://s1.example/x", None))),
    ("q3", ResultRow(("d.title", "a.href"), ("topic", "http://s1.example/p1.html"))),
    ("q3", ResultRow(("d.title", "a.href"), ("s5@b.example", "http://s2.example/p5.html"))),
    ("q1", ResultRow(("a.href",), (7,))),
    ("q1", ResultRow(("a.href",), (7.0,))),
    ("q1", ResultRow(("a.href",), (True,))),
    ("q1", ResultRow(("a.href",), (-0.0,))),
    ("q1", ResultRow(("a.href",), (0.0,))),
    ("q1", ResultRow(("a.href",), ([],))),
    ("q1", ResultRow(("a.href",), ([3],))),
    ("q1", ResultRow(("a.href",), ({"=": [3]},))),
]


@st.composite
def clone_reports(draw, dispatch_id=None):
    """A report as a server builds one: distinct nodes, parallel child ids
    that often repeat, rows that often repeat the row above."""
    nodes = draw(st.lists(st.sampled_from(_NODE_URLS), min_size=1, max_size=5, unique=True))
    data_only = draw(st.booleans())
    if dispatch_id is None:
        dispatch_id = draw(st.sampled_from(_DISPATCH_IDS))
    dispositions, rows, row_ends, entries, child_ids, forward_ends = [], [], [], [], [], []
    for __ in nodes:
        dispositions.append(
            Disposition.DATA_ONLY if data_only else draw(st.sampled_from(_DISPOSITIONS))
        )
        rows += draw(st.lists(st.sampled_from(_ROWS), max_size=4))  # empty or many
        row_ends.append(len(rows))
        if not data_only:  # zero or more forwards
            for target in draw(st.lists(st.sampled_from(_NODE_URLS), max_size=3)):
                entries.append((target, draw(st.sampled_from(_STATES))))
                child_ids.append(draw(st.sampled_from(_CHILD_IDS)))
        forward_ends.append(len(entries))
    return CloneReport(
        tuple(nodes), draw(st.sampled_from(_STATES)), dispositions, rows, row_ends,
        entries, child_ids, forward_ends, dispatch_id, draw(st.sampled_from([0, 0, 3])),
    )


@st.composite
def server_messages(draw):
    """A message shaped like a server's: up to four reports, each under its
    own dispatch id — or their CHT halves, which ship no rows."""
    ids = draw(st.lists(st.sampled_from(_DISPATCH_IDS), max_size=4, unique=True))
    reports = tuple(draw(clone_reports(dispatch_id)) for dispatch_id in ids)
    if draw(st.booleans()):
        return ResultMessage(QID, reports)
    return ResultMessage(QID, tuple(report.without_rows() for report in reports), "cht")


def _typed_rows(message: ResultMessage) -> list:
    """Every row's values with their types: ``==`` takes ``7`` for ``7.0``."""
    return [
        (label, row.header, [(type(value), repr(value)) for value in row.values])
        for report in message.reports
        for label, row in report.rows
    ]


def _repeats(value, above) -> bool:
    return type(value) is type(above) and not isinstance(value, float) and value == above


def _serial(child_id: str):
    """``(text before the serial, serial, "@" and the rest)`` of a minted id —
    a serial of at most 18 digits just before its first ``@`` — or None."""
    head, at, rest = child_id.partition("@")
    match = re.fullmatch(r"(.*?)([0-9]+)", head)
    if not at or match is None or len(match[2]) > 18:
        return None
    return match[1], int(match[2]), at + rest


class _Strings:
    """A message's string table: each string it writes, once, in write order;
    and the last child id it wrote."""

    def __init__(self) -> None:
        self.written: list[str] = []
        self.child: str | None = None

    def refer(self, text: str):
        """A URL, dispatch id or child id: its index when that is shorter."""
        if text in self.written:
            index = self.written.index(text)
            return index if len(str(index)) < len(text) else text
        self.written.append(text)
        return text

    def child_id(self, text: str):
        """A child id: ``-k`` when it is the last child id with its serial
        raised by ``k`` and that is shorter than what :meth:`refer` writes."""
        spelled = self.refer(text)
        previous, current = self.child and _serial(self.child), _serial(text)
        self.child = text
        if previous and current and current[1] > previous[1]:
            k = current[1] - previous[1]
            if f"{previous[0]}{previous[1] + k}{previous[2]}" == text and (
                len(str(-k)) < _written(spelled)
            ):
                return -k
        return spelled

    def value(self, value):
        """A row value: a string the table holds as ``[index]`` when that is
        shorter than the string, else as itself, entering the table; an
        array or an object as ``{"=": value}``."""
        if isinstance(value, (list, tuple, dict)):
            return {"=": value}
        if isinstance(value, str):
            if value in self.written:
                index = self.written.index(value)
                if len(str(index)) + 2 < len(value):
                    return [index]
            else:
                self.written.append(value)
        return value


_CODES = {
    Disposition.PROCESSED: "p", Disposition.DATA_ONLY: "d", Disposition.DUPLICATE: "u",
    Disposition.REWRITTEN: "r", Disposition.MISSING: "m", Disposition.UNREACHABLE: "n",
    Disposition.PURGED: "x", Disposition.OVERLOADED: "o",
}


def _column_encoding(message: ResultMessage) -> bytes:
    """The wire bytes of ``message``, spelled out column by column."""

    def state(value: QueryState) -> dict:
        return {"n": value.num_q, "rem": pre_to_wire(value.rem)}

    strings = _Strings()
    reports = []
    for report in message.reports:
        encoded = {"s": state(report.state)}
        if report.dispatch_id:
            encoded["i"] = strings.refer(report.dispatch_id)
        if report.epoch:
            encoded["e"] = report.epoch
        encoded["n"] = [strings.refer(_url_text(node)) for node in report.nodes]
        encoded["d"] = "".join(_CODES[disposition] for disposition in report.dispositions)
        rows, above = [], None
        for label, row in report.rows:
            if above is None or (label, row.header) != (above[0], above[1].header):
                rows.append({"q": label, "h": list(row.header),
                             "v": [strings.value(value) for value in row.values]})
            else:
                rows.append([
                    [] if _repeats(value, old) else strings.value(value)
                    for value, old in zip(row.values, above[1].values)
                ])
            above = (label, row)
        encoded["r"] = rows
        encoded["re"] = list(report.row_ends)
        new, last = [], (None, None)
        for (node, target_state), child_id in zip(report.new_entries, report.child_ids):
            new.append([
                strings.refer(_url_text(node)),
                [] if target_state is last[0] else state(target_state),
                [] if child_id == last[1] else strings.child_id(child_id),
            ])
            last = (target_state, child_id)
        encoded["a"] = new
        encoded["fe"] = list(report.forward_ends)
        reports.append(encoded)
    body = {"qid": [QID.user, QID.host, QID.port, QID.number], "reports": reports,
            "chan": message.kind}
    text = json.dumps({"v": 4, "k": "result", "b": body}, separators=(",", ":"),
                      ensure_ascii=False)
    return text.encode("utf-8")


class TestAReportsBytesAreItsColumns:
    @settings(max_examples=200, deadline=None)
    @given(server_messages())
    def test_size_and_bytes_are_the_columns(self, message):
        encoded = encode_message(message)
        assert encoded == _column_encoding(message)
        assert message.size_bytes() == _result_size(message)
        decoded = decode_message(encoded)
        assert decoded == message and decoded.size_bytes() == message.size_bytes()
        assert _typed_rows(decoded) == _typed_rows(message)
        assert encode_message(decoded) == encoded

    @settings(max_examples=100, deadline=None)
    @given(clone_reports())
    def test_the_ablation_halves_split_the_columns(self, report):
        cht_half, data_half = report.without_rows(), report.rows_only()
        assert not cht_half.rows and list(cht_half.row_ends) == list(report.row_ends)
        assert cht_half.rows_follow == bool(report.rows)
        for name in ("nodes", "dispositions", "new_entries", "child_ids", "forward_ends"):
            assert list(getattr(cht_half, name)) == list(getattr(report, name))
        with_rows = [
            (node, stop) for node, start, stop in
            zip(report.nodes, [0, *report.row_ends], report.row_ends) if stop > start
        ]
        if data_half is None:
            assert not with_rows
        else:
            assert list(zip(data_half.nodes, data_half.row_ends)) == with_rows
            assert set(data_half.dispositions) == {Disposition.DATA_ONLY}
            assert list(data_half.rows) == list(report.rows) and not data_half.new_entries
            assert not data_half.rows_follow
        for half, kind in ((cht_half, "cht"), (data_half, "result")):
            if half is None:
                continue
            assert (half.dispatch_id, half.epoch) == (report.dispatch_id, report.epoch)
            message = ResultMessage(QID, (half,), kind)
            assert message.size_bytes() == _result_size(message)
            assert decode_message(encode_message(message)) == message


# --- what a warm repeat allocates -----------------------------------------------------


def test_a_warm_repeat_mints_one_state_per_row_and_copies_nothing(monkeypatch):
    import repro.core.server as server_module
    import repro.core.webquery as webquery_module

    web, text = _synthetic()
    engine = WebDisEngine(web)
    engine.submit_disql(text)
    engine.run()  # warm: every later probe is a memo hit

    states: list[QueryState] = []
    original_post_init = QueryState.__post_init__

    def counting_post_init(self):
        states.append(self)
        original_post_init(self)

    copies = {"webquery": 0}

    def counting_replace(module_name, original):
        def replace(*args, **kwargs):
            copies[module_name] += 1
            return original(*args, **kwargs)

        return replace

    monkeypatch.setattr(QueryState, "__post_init__", counting_post_init)
    monkeypatch.setattr(
        webquery_module, "replace", counting_replace("webquery", webquery_module.replace)
    )
    handle = engine.submit_disql(text)
    engine.run()

    assert len(handle.results) > 20 and engine.stats.clones_forwarded > 10
    program = handle.query.program
    # One QueryState per distinct protocol state, however many clones,
    # reports, CHT entries and log-table entries carried it...
    assert len(states) == len(program)
    assert all(state.row.state is state for state in states)
    # ...and no dataclasses.replace per clone (the server has none at all):
    # the one copy is submit's with_qid.
    assert copies == {"webquery": 1}
    assert not hasattr(server_module, "replace")


def test_every_cache_field_in_the_package_is_invisible():
    """``cache_field()`` is the only way a value type grows derived data."""
    import repro.core.messages
    import repro.core.state
    import repro.core.webquery
    import repro.pre.ast
    import repro.relational.query
    import repro.urlutils

    checked = 0
    for module in (
        repro.core.messages, repro.core.state, repro.core.webquery,
        repro.pre.ast, repro.relational.query, repro.urlutils,
    ):
        for cls in vars(module).values():
            if not (isinstance(cls, type) and is_dataclass(cls)):
                continue
            for spec in fields(cls):
                if spec.name.startswith("_") or spec.name == "row":
                    assert (spec.init, spec.repr, spec.compare) == (False, False, False), (
                        f"{cls.__name__}.{spec.name}"
                    )
                    checked += 1
    assert checked >= 15
    assert NodeQuery.__dataclass_fields__["_structure"].default is None

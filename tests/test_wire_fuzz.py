"""Wire round-trip fuzz: result messages survive the codec bit-exactly.

Hypothesis draws result messages two ways.  Messages shaped like a server's —
one clone report per dispatch id, with the full dispatch-identity stamping
``(qid, dispatch_id, recovery_epoch)`` plus ``child_ids`` — must come back
column for column.  Arbitrary per-node result JSON must decode into reports
that obey the decoder's grouping rule (the only code that builds reports from
per-node records) and re-encode to the same bytes: states spelled alike and
differently, repeated nodes, empty, parallel and mis-sized ``cids``,
DATA_ONLY switches, ``did`` / ``ep`` changes, unicode site names (the
envelope is UTF-8 JSON with ``ensure_ascii=False``), and epoch 0 (elided on
the wire, restored on decode).  The user-site must refuse unstamped
bookkeeping and mis-sized ``child_ids``.

The last suites poison the codec's tables: frames that differ from an honest
one only in what ``==`` on JSON values cannot see (``1`` / ``1.0`` / ``true``,
key order) must decode exactly as they did before the tables existed,
whatever was decoded before them; and floods of origins and of watermarks
that are hostile, go backwards or equal the query's number keep the
decoded-query table and its origin index within their cap.
"""

from __future__ import annotations

import copy
import itertools
import json
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from repro import WebDisEngine
from repro.core.messages import ChtEntry, CloneReport, Disposition, ResultMessage
from repro.core.state import QueryState
from repro.core.webquery import QueryClone, QueryId
from repro.disql import compile_disql
from repro.errors import ProtocolError
from repro.pre import parse_pre
from repro.urlutils import parse_url
from repro.web.campus import CAMPUS_QUERY_DISQL
from repro import wire
from repro.wire import WireError, decode_message, encode_message

from .test_protocol_pins import clone_reports
from .test_wire_interning import _clear_tables

HOSTS = st.sampled_from(
    [
        "s0.example",
        "csa.iisc.ernet.in",
        "sité-α.example",  # unicode site name
        "ドメイン.example",  # non-latin site name
        "a-b.example",
    ]
)

qids = st.builds(
    QueryId,
    user=st.sampled_from(["maya", "u", "ユーザ", "op-7"]),
    host=HOSTS,
    port=st.integers(1024, 65535),
    number=st.integers(0, 10**6),
)


@st.composite
def dispatch_ids(draw):
    if draw(st.booleans()):
        return ""  # unstamped: legal on the wire, refused by the user-site
    n = draw(st.integers(0, 99))
    host = draw(HOSTS)
    return f"u{n}@{host}"


@st.composite
def stamped_messages(draw):
    """Messages shaped like a server's: each report under its own dispatch
    id, so no two of them are one clone to the decoder."""
    ids = draw(st.lists(dispatch_ids(), max_size=3, unique=True))
    reports = tuple(draw(clone_reports(dispatch_id)) for dispatch_id in ids)
    return ResultMessage(draw(qids), reports, draw(st.sampled_from(["result", "cht"])))


# --- arbitrary per-node result JSON -----------------------------------------------
# Every value is spelled as the encoder spells it (no key an encoder would
# elide, keys in its order), so re-encoding must give the bytes back.

_NODES = [
    "http://s0.example/",
    "http://s0.example/p1.html",
    "http://sité-α.example/a/b.html",
    "http://ドメイン.example/p2.html#sec1",
]

#: State spellings: the first three are ``==`` as values and spelled
#: differently, as are the two ``(L|G)*2`` ones.
_STATE_SPELLINGS = [
    {"n": 1, "rem": "L"},
    {"n": 1.0, "rem": "L"},
    {"n": True, "rem": "L"},
    {"n": 2, "rem": {"rep": {"alt": ["L", "G"]}, "max": 2}},
    {"n": 2, "rem": {"rep": {"alt": ["L", "G"]}, "max": 2.0}},
    {"n": 0, "rem": "N"},
]

_entries_json = st.builds(
    lambda node, state: {"node": node, "state": state},
    st.sampled_from(_NODES), st.sampled_from(_STATE_SPELLINGS),
)

_rows_json = st.builds(
    lambda label, header, value: {"q": label, "h": [header], "v": [value]},
    st.sampled_from(["d", "d0", "r"]),
    st.sampled_from(["d.url", "d.title", "r.text"]),
    st.one_of(st.text(max_size=12), st.integers(-1000, 1000)),  # "", unicode, quotes
)

#: What a report's nodes share: the state as spelled, the dispatch id, the
#: epoch and whether the node is DATA_ONLY.
_shared_fields = st.tuples(
    st.sampled_from(_STATE_SPELLINGS),
    st.sampled_from(["", "u1@s0.example", "u2@sité-α.example"]),
    st.sampled_from([0, 1, 7]),
    st.booleans(),
)

_DISPOSITIONS = [d.value for d in Disposition if d is not Disposition.DATA_ONLY]


@st.composite
def node_record(draw, shared):
    """One node's JSON object; ``cids`` parallel (mostly), absent or mis-sized."""
    state, dispatch_id, epoch, data_only = shared
    new = draw(st.lists(_entries_json, max_size=2))
    record = {
        "entry": {"node": draw(st.sampled_from(_NODES)), "state": state},
        "disp": "data-only" if data_only else draw(st.sampled_from(_DISPOSITIONS)),
        "new": new,
        "rows": draw(st.lists(_rows_json, max_size=2)),
    }
    if dispatch_id:
        record["did"] = dispatch_id
    if epoch:
        record["ep"] = epoch
    shape = draw(st.sampled_from(["parallel"] * 4 + ["absent", "mis-sized"]))
    if shape == "parallel" and new:
        record["cids"] = [f"c{i}@{draw(HOSTS)}" for i in range(len(new))]
    elif shape == "mis-sized":
        size = draw(st.integers(1, 3).filter(lambda size: size != len(new)))
        record["cids"] = [f"c{i}@s0.example" for i in range(size)]
    return record


@st.composite
def node_records(draw):
    """Up to seven records; each keeps the previous one's shared fields
    three times in four, so runs that may join are common."""
    records, shared = [], None
    for __ in range(draw(st.integers(0, 7))):
        if shared is None or draw(st.integers(0, 3)) == 0:
            shared = draw(_shared_fields)
        records.append(draw(node_record(shared)))
    return records


def _result_wire(records: list, kind: str = "result", qid: QueryId | None = None) -> bytes:
    """A result message whose body lists ``records``, as the encoder spells it."""
    qid = qid or QueryId("maya", "user.example", 5001, 7)
    body = {"qid": [qid.user, qid.host, qid.port, qid.number], "reports": records, "chan": kind}
    text = json.dumps({"v": 1, "k": "result", "b": body}, separators=(",", ":"),
                      ensure_ascii=False)
    return text.encode("utf-8")


def _groups(records: list, message: ResultMessage) -> list[list]:
    """The records each decoded report was built from, in order."""
    groups, start = [], 0
    for report in message.reports:
        groups.append(records[start:start + len(report.nodes)])
        start += len(report.nodes)
    assert start == len(records)
    return groups


def _shares(record: dict) -> tuple:
    return (
        repr(record["entry"]["state"]), record.get("did", ""), record.get("ep", 0),
        record["disp"] == "data-only",
    )


def _parallel(record: dict) -> bool:
    return len(record.get("cids", ())) == len(record["new"])


class TestStampedRoundTrip:
    @settings(max_examples=200, deadline=None)
    @given(stamped_messages())
    def test_decode_inverts_encode(self, message):
        assert decode_message(encode_message(message)) == message

    @settings(max_examples=200, deadline=None)
    @given(node_records(), st.sampled_from(["result", "cht"]))
    def test_reencode_is_bit_exact(self, records, kind):
        wire = _result_wire(records, kind)
        assert encode_message(decode_message(wire)) == wire

    @settings(max_examples=100, deadline=None)
    @given(node_records())
    def test_stamping_survives(self, records):
        decoded = decode_message(_result_wire(records))
        for report, group in zip(decoded.reports, _groups(records, decoded)):
            for record in group:
                assert report.dispatch_id == record.get("did", "")
                assert report.epoch == record.get("ep", 0)
            assert list(report.child_ids) == [cid for r in group for cid in r.get("cids", [])]

    @settings(max_examples=300, deadline=None)
    @given(node_records())
    def test_every_decoded_report_obeys_the_grouping_rule(self, records):
        decoded = decode_message(_result_wire(records))
        groups = _groups(records, decoded)
        for report, group in zip(decoded.reports, groups):
            # One state object, dispatch id, epoch and DATA_ONLY-ness...
            assert len({_shares(record) for record in group}) == 1
            assert len({d is Disposition.DATA_ONLY for d in report.dispositions}) == 1
            # ...no repeated node, and a malformed record stands alone.
            assert len(set(report.nodes)) == len(report.nodes)
            assert len(group) == 1 or all(map(_parallel, group))
        # Greedy: a report ends only where its next record could not join it.
        pairs = itertools.pairwise(zip(decoded.reports, groups))
        for (before, earlier), (report, group) in pairs:
            joinable = _parallel(group[0]) and all(map(_parallel, earlier))
            assert (
                _shares(group[0]) != _shares(earlier[0]) or not joinable
                or report.nodes[0] in before.nodes
            )


@st.composite
def malformed_records(draw):
    """A bookkeeping node with no dispatch id, or with mis-sized ``cids``."""
    state = draw(st.sampled_from(_STATE_SPELLINGS))
    if draw(st.booleans()):
        return draw(node_record((state, "", 0, False)))
    record = draw(node_record((state, "u0@s0.example", 0, False)))
    record["cids"] = ["c0@s0.example"] * (len(record["new"]) + 1)
    return record


_ROOT = {"node": "http://s0.example/", "state": {"n": 1, "rem": "L"}}


class TestUserSiteRefusesMalformedReports:
    @settings(max_examples=50, deadline=None)
    @given(malformed_records())
    @example({"entry": _ROOT, "disp": "processed", "new": [], "rows": []})  # unstamped
    @example(
        {"entry": _ROOT, "disp": "processed", "new": [_ROOT], "rows": [], "did": "u1@s0.example"}
    )
    def test_receive_raises_protocol_error(self, campus_web, record):
        engine = WebDisEngine(campus_web)
        handle = engine.submit_disql(CAMPUS_QUERY_DISQL)
        wire = _result_wire([record], qid=handle.qid)
        with pytest.raises(ProtocolError):
            engine.client._receive(handle, "s0.example", decode_message(wire))
        assert handle.cht.deletions == 0


def _one_node(entry: ChtEntry, new=(), dispatch_id="", epoch=0, child_ids=()) -> CloneReport:
    """A one-node PROCESSED report with no rows."""
    return CloneReport(
        [entry.node], entry.state, [Disposition.PROCESSED], [], [0],
        [(e.node, e.state) for e in new], list(child_ids), [len(new)], dispatch_id, epoch,
    )


class TestEdgeCases:
    def test_empty_child_ids_stays_empty_tuple(self):
        root = ChtEntry(parse_url(_ROOT["node"]), QueryState(1, parse_pre("L")))
        message = ResultMessage(QueryId("maya", "user.example", 5001, 7), (_one_node(root),))
        [decoded] = decode_message(encode_message(message)).reports
        assert not decoded.child_ids
        assert decoded.dispatch_id == ""
        assert decoded.epoch == 0

    def test_unicode_site_name_round_trips(self):
        entry = ChtEntry(
            parse_url("http://sité-α.example/p1.html"),
            QueryState(2, parse_pre("(L|G)*2")),
        )
        report = _one_node(
            entry, (entry,), dispatch_id="u3@sité-α.example", epoch=1,
            child_ids=("c0@ドメイン.example",),
        )
        message = ResultMessage(QueryId("ユーザ", "sité-α.example", 5001, 7), (report,))
        assert decode_message(encode_message(message)) == message


# --- poisoning the interning tables ----------------------------------------------

_HONEST = {
    "node": "http://b.example/x",
    "state": {"n": 1, "rem": {"rep": {"alt": ["L", "G"]}, "max": 1}},
}


def _variant(**changes):
    entry = copy.deepcopy(_HONEST)
    for path, value in changes.items():
        *parents, leaf = path.split("__")
        target = entry
        for key in parents:
            target = target[key]
        target[leaf] = value
    return entry


def _entry_repr(num_q="1", bound="1"):
    return (
        "ChtEntry(node=Url(host='b.example', path='/x', fragment='', scheme='http'), "
        f"state=QueryState(num_q={num_q}, rem=Repeat(body=Alt(options=("
        "Atom(ltype=<LinkType.LOCAL: 'L'>), Atom(ltype=<LinkType.GLOBAL: 'G'>))), "
        f"bound={bound})))"
    )


#: ``name -> (entry as received, what the codec without tables made of it)``:
#: the ``repr`` of the decoded entry — which shows ``1`` / ``1.0`` / ``True``
#: apart — captured before the tables existed, or the name of the exception:
#: ``WireError`` for every entry of the wrong shape.
_POISON = {
    "honest": (_HONEST, _entry_repr()),
    "n_true": (_variant(state__n=True), _entry_repr(num_q="True")),
    "n_float_one": (_variant(state__n=1.0), _entry_repr(num_q="1.0")),
    "n_float": (_variant(state__n=1.5), _entry_repr(num_q="1.5")),
    "n_string": (_variant(state__n="1"), "WireError"),
    "node_int": (_variant(node=5), "WireError"),
    "node_list": (_variant(node=["http://b.example/x"]), "WireError"),
    "node_null": (_variant(node=None), "WireError"),
    "node_spaces": (_variant(node=" http://b.example/x "), _entry_repr()),
    "node_upper": (_variant(node="HTTP://B.EXAMPLE/x"), _entry_repr()),
    "rem_key_order": (
        {"node": _HONEST["node"],
         "state": {"n": 1, "rem": {"max": 1, "rep": {"alt": ["L", "G"]}}}},
        _entry_repr(),
    ),
    "state_key_order": ({"state": _HONEST["state"], "node": _HONEST["node"]}, _entry_repr()),
    "max_float": (_variant(state__rem__max=1.0), _entry_repr(bound="1.0")),
    "max_true": (_variant(state__rem__max=True), _entry_repr(bound="True")),
    "max_null": (_variant(state__rem__max=None), _entry_repr(bound="None")),
    "extra_key": ({**_HONEST, "extra": 1}, _entry_repr()),
    "entry_list": (["http://b.example/x", {"n": 1, "rem": "N"}], "WireError"),
    "missing_state": ({"node": _HONEST["node"]}, "WireError"),
}


def _decoded_entries(entry):
    """The retired and the announced ``(node, state)`` of a frame carrying
    ``entry`` twice, as the decoded report's columns hold them."""
    report = {"entry": entry, "disp": "processed", "new": [entry], "rows": [], "did": "u1"}
    body = {"qid": ["maya", "user.example", 5001, 7], "reports": [report], "chan": "result"}
    [decoded] = decode_message(json.dumps({"v": 1, "k": "result", "b": body}).encode()).reports
    return (decoded.nodes[0], decoded.state), decoded.new_entries[0]


def _same_objects(first, second) -> bool:
    return first[0] is second[0] and first[1] is second[1]


def _outcome(entry):
    try:
        first, second = _decoded_entries(entry)
    except Exception as exc:  # noqa: BLE001 - the type is the assertion
        return type(exc).__name__, None
    assert _same_objects(first, second)  # one frame, one value, one object each
    return repr(ChtEntry(*first)), first


class TestPoisonedEntriesNeverShareAnObject:
    @pytest.mark.parametrize("name", sorted(_POISON))
    def test_decodes_as_it_did_without_tables(self, name):
        entry, expected = _POISON[name]
        for warm_with in (None, "honest", name):
            _clear_tables()
            if warm_with is not None:
                _outcome(_POISON[warm_with][0])
            assert _outcome(entry)[0] == expected

    def test_every_order_of_arrival_gives_every_frame_its_own_value(self):
        """Whatever was decoded first, a frame gets the value it spells —
        and two frames share an object only if they spell the same value."""
        names = sorted(_POISON)
        for order in (names, names[::-1], names[1::2] + names[::2]):
            _clear_tables()
            objects = {}
            for name in itertools.chain(order, order):  # cold, then all warm
                seen, decoded = _outcome(_POISON[name][0])
                assert seen == _POISON[name][1], name
                if decoded is not None:
                    objects.setdefault(name, decoded)
                    assert _same_objects(objects[name], decoded)  # a repeat is interned
            for (a, first), (b, second) in itertools.combinations(objects.items(), 2):
                if repr(ChtEntry(*first)) != repr(ChtEntry(*second)):
                    assert not _same_objects(first, second), (a, b)

    def test_a_poisoned_entry_does_not_change_what_honest_traffic_encodes(self):
        _clear_tables()
        qid = QueryId("maya", "user.example", 5001, 7)
        honest = ChtEntry(*_decoded_entries(_HONEST)[0])
        message = ResultMessage(qid, (_one_node(honest, dispatch_id="u1"),))
        before = encode_message(message)
        for name in ("n_true", "n_float_one", "max_true", "max_float"):
            (node, state), __ = _decoded_entries(_POISON[name][0])
            poisoned = ChtEntry(node, state)
            assert poisoned == honest  # equal to Python, and yet:
            forged = ResultMessage(qid, (_one_node(poisoned, dispatch_id="u1"),))
            assert encode_message(forged) != before
            assert decode_message(encode_message(forged)).reports[0].state is state
        assert encode_message(message) == before


# --- poisoning the decoded-query table --------------------------------------------

_QID = QueryId("maya", "user.example", 5001, 7)

#: The same ``where`` literal spelled three ways that ``==`` cannot tell apart.
_LITERALS = {"int": 1, "float": 1.0, "true": True}


def _clone_wire(spelling: str) -> bytes:
    """A clone whose query's ``where`` compares ``d.length`` with the literal
    spelled ``spelling`` — every clone under the one qid."""
    query = compile_disql(
        'select d.url from document d such that "http://b.example/" L d where d.length = 1'
    ).with_qid(_QID)
    clone = QueryClone.at(query, query.program.starts[0], (parse_url("http://b.example/"),))
    envelope = json.loads(encode_message(clone))
    envelope["b"]["query"]["steps"][0]["q"]["where"]["r"] = {"lit": _LITERALS[spelling]}
    return json.dumps(envelope, separators=(",", ":"), ensure_ascii=False).encode("utf-8")


def _decoded_where(spelling: str):
    return decode_message(_clone_wire(spelling)).query.steps[0].query.where


class TestPoisonedQueriesNeverShareAnObject:
    @pytest.mark.parametrize("name", sorted(_LITERALS))
    def test_decodes_as_it_did_without_the_table(self, name):
        _clear_tables()
        cold = repr(_decoded_where(name))
        assert type(_decoded_where(name).right.value) is type(_LITERALS[name])
        for warm_with in sorted(_LITERALS):
            _clear_tables()
            _decoded_where(warm_with)
            assert repr(_decoded_where(name)) == cold, warm_with

    def test_a_repeat_of_the_same_spelling_is_served_from_the_table(self):
        _clear_tables()
        for name in sorted(_LITERALS):
            first = decode_message(_clone_wire(name)).query
            assert decode_message(_clone_wire(name)).query is first


# --- the completion watermark -------------------------------------------------------


def _clone_with_mark(mark) -> bytes:
    """A clone of query 7 whose web-query carries ``mark`` as its watermark."""
    envelope = json.loads(_clone_wire("int"))
    envelope["b"]["query"]["mark"] = mark
    return json.dumps(envelope, separators=(",", ":"), ensure_ascii=False).encode("utf-8")


class TestWatermarkOnTheWire:
    @pytest.mark.parametrize(
        "mark", ["3", 3.0, True, None, [3], {"n": 3}, 0, -1, 8, 2**40],
        ids=["str", "float", "bool", "null", "list", "object", "zero", "negative",
             "above-number", "huge"],
    )
    def test_a_malformed_mark_is_a_wire_error(self, mark):
        _clear_tables()
        with pytest.raises(WireError):
            decode_message(_clone_with_mark(mark))

    @pytest.mark.parametrize("mark", [1, 6])
    def test_a_mark_below_the_number_round_trips(self, mark):
        _clear_tables()
        query = decode_message(_clone_with_mark(mark)).query
        assert (query.done_below, query.mark) == (mark, mark)
        clone = QueryClone.at(query, query.program.starts[0], (parse_url("http://b.example/"),))
        assert decode_message(encode_message(clone)).query == query

    def test_a_mark_equal_to_the_number_reads_as_absent(self):
        _clear_tables()
        query = decode_message(_clone_with_mark(7)).query
        assert (query.done_below, query.mark) == (None, 7)
        assert query == decode_message(_clone_wire("int")).query


# --- floods of origins and marks ---------------------------------------------------

#: Watermarks no honest user-site sends: wrong types, out of ``1..number``.
_HOSTILE_MARKS = ("3", 3.0, True, None, [1], 0, -1, 2**40)


def _flood(rng: random.Random, limit: int) -> list[bytes]:
    """10× the cap of distinct origins, then 10× the cap of frames from a few
    origins whose marks go forward, go backwards, equal the number or are
    hostile — and some query ids of the wrong shape."""
    template = json.loads(_clone_wire("int"))
    frames = []

    def frame(user, number, mark) -> None:
        envelope = copy.deepcopy(template)
        query = envelope["b"]["query"]
        query["qid"][0], query["qid"][3] = user, number
        if mark is not None:
            query["mark"] = mark
        frames.append(json.dumps(envelope, ensure_ascii=False).encode("utf-8"))

    for serial in range(10 * limit):
        frame(f"user{serial}", rng.randint(1, 40), None)
    for __ in range(10 * limit):
        number = rng.randint(1, 40)
        draw = rng.random()
        if draw < 0.4:
            mark = rng.randint(1, number)  # forward or backwards, per origin
        elif draw < 0.6:
            mark = number
        elif draw < 0.9:
            mark = rng.choice(_HOSTILE_MARKS + (number + 1,))
        else:
            mark = None
            number = rng.choice([str(number), float(number), None])
        user = rng.choice(["maya", "ravi", "op-7", 5, ["maya"]])
        frame(user, number, mark)
    return frames


def _decoded(frame: bytes) -> str:
    try:
        return repr(decode_message(frame))
    except WireError as exc:
        return f"WireError {exc}"


class TestFloodsStayWithinTheCap:
    def test_every_decode_equals_a_cold_decode_and_the_tables_stay_bounded(self):
        limit = wire._QUERY_TABLE_SIZE
        frames = _flood(random.Random("wire-flood"), limit)
        cold = []
        for frame in frames:
            _clear_tables()
            cold.append(_decoded(frame))
        assert any(outcome.startswith("WireError") for outcome in cold)
        _clear_tables()
        fullest = 0
        for frame, expected in zip(frames, cold):
            assert _decoded(frame) == expected
            fullest = max(fullest, len(wire._DECODED_QUERIES))
            indexed = [key for entries in wire._QUERY_ORIGINS.values() for key in entries]
            assert len(wire._DECODED_QUERIES) <= limit
            assert len(indexed) == len(set(indexed)) <= limit
            assert set(indexed) <= set(wire._DECODED_QUERIES)
            assert all(wire._QUERY_ORIGINS.values())  # no origin left with nothing
        assert fullest == limit  # the backstop did have to evict

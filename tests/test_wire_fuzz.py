"""Wire round-trip fuzz: stamped messages survive the codec bit-exactly.

Hypothesis generates ``ResultMessage``s whose reports carry the full
dispatch-identity stamping — ``(qid, dispatch_id, recovery_epoch)`` plus
``child_ids`` — including the edge cases the self-healing protocol relies
on: empty ``child_ids`` (leaf reports), unicode site names (the envelope
is UTF-8 JSON with ``ensure_ascii=False``), and epoch 0 (elided on the
wire, restored on decode).  The codec also carries unstamped reports and
mis-sized ``child_ids``; the user-site must refuse those.

The last suite poisons the codec's interning tables: frames whose CHT entry
differs from an honest one only in what ``==`` on JSON values cannot see
(``1`` / ``1.0`` / ``true``, key order) must decode exactly as they did before
the tables existed, whatever was decoded before them.
"""

from __future__ import annotations

import copy
import itertools
import json
from dataclasses import replace

import pytest
from hypothesis import example, given, settings, strategies as st

from repro import WebDisEngine
from repro.core.messages import ChtEntry, Disposition, NodeReport, ResultMessage
from repro.core.state import QueryState
from repro.core.webquery import QueryId
from repro.errors import ProtocolError
from repro.pre import parse_pre
from repro.relational.query import ResultRow
from repro.urlutils import parse_url
from repro.web.campus import CAMPUS_QUERY_DISQL
from repro.wire import decode_message, encode_message

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

PRE_TEXTS = st.sampled_from(["N", "G", "L*1", "L*", "(L|G)*2", "G.(G|L)", "I.L.G"])

qids = st.builds(
    QueryId,
    user=st.sampled_from(["maya", "u", "ユーザ", "op-7"]),
    host=HOSTS,
    port=st.integers(1024, 65535),
    number=st.integers(0, 10**6),
)

states = st.builds(
    QueryState,
    num_q=st.integers(0, 5),
    rem=PRE_TEXTS.map(parse_pre),
)


@st.composite
def urls(draw):
    host = draw(HOSTS)
    path = draw(st.sampled_from(["/", "/p1.html", "/a/b.html", "/p2.html#sec1"]))
    return parse_url(f"http://{host}{path}")


entries = st.builds(ChtEntry, node=urls(), state=states)

rows = st.builds(
    ResultRow,
    header=st.tuples(st.sampled_from(["d.url", "d.title", "r.text"])),
    values=st.tuples(
        st.one_of(
            st.text(max_size=12),  # includes "", unicode, quotes
            st.integers(-1000, 1000),
        )
    ),
)


@st.composite
def dispatch_ids(draw):
    if draw(st.booleans()):
        return ""  # unstamped: legal on the wire, refused by the user-site
    n = draw(st.integers(0, 99))
    host = draw(HOSTS)
    return f"u{n}@{host}"


@st.composite
def reports(draw):
    n_children = draw(st.integers(0, 3))
    new_entries = tuple(draw(entries) for _ in range(n_children))
    # child_ids runs parallel to new_entries — or is empty.
    if n_children and draw(st.booleans()):
        child_ids = tuple(
            f"c{i}@{draw(HOSTS)}" for i in range(n_children)
        )
    else:
        child_ids = ()
    return NodeReport(
        entry=draw(entries),
        disposition=draw(st.sampled_from(list(Disposition))),
        new_entries=new_entries,
        results=tuple(
            (draw(st.sampled_from(["d", "d0", "r"])), draw(rows))
            for _ in range(draw(st.integers(0, 2)))
        ),
        dispatch_id=draw(dispatch_ids()),
        epoch=draw(st.sampled_from([0, 0, 1, 2, 7])),
        child_ids=child_ids,
    )


messages = st.builds(
    ResultMessage.of_nodes,
    qid=qids,
    reports=st.lists(reports(), min_size=0, max_size=3),
    kind=st.sampled_from(["result", "cht"]),
)


class TestStampedRoundTrip:
    @settings(max_examples=200, deadline=None)
    @given(messages)
    def test_decode_inverts_encode(self, message):
        assert decode_message(encode_message(message)) == message

    @settings(max_examples=200, deadline=None)
    @given(messages)
    def test_reencode_is_bit_exact(self, message):
        wire = encode_message(message)
        assert encode_message(decode_message(wire)) == wire

    @settings(max_examples=100, deadline=None)
    @given(messages)
    def test_stamping_survives(self, message):
        decoded = decode_message(encode_message(message))
        for sent, received in zip(message.node_reports(), decoded.node_reports()):
            assert received.dispatch_id == sent.dispatch_id
            assert received.epoch == sent.epoch
            assert received.child_ids == sent.child_ids
            assert len(received.child_ids) in (0, len(received.new_entries))


@st.composite
def malformed_reports(draw):
    """A bookkeeping report with no dispatch id, or with mis-sized ``child_ids``."""
    report = draw(reports().filter(lambda r: r.disposition is not Disposition.DATA_ONLY))
    if draw(st.booleans()):
        return replace(report, dispatch_id="")
    return replace(
        report,
        dispatch_id="u0@s0.example",
        child_ids=("c0@s0.example",) * (len(report.new_entries) + 1),
    )


_ROOT = ChtEntry(parse_url("http://s0.example/"), QueryState(1, parse_pre("L")))


class TestUserSiteRefusesMalformedReports:
    @settings(max_examples=50, deadline=None)
    @given(malformed_reports())
    @example(NodeReport(_ROOT, Disposition.PROCESSED))  # unstamped
    @example(NodeReport(_ROOT, Disposition.PROCESSED, (_ROOT,), dispatch_id="u1@s0.example"))
    def test_receive_raises_protocol_error(self, campus_web, report):
        engine = WebDisEngine(campus_web)
        handle = engine.submit_disql(CAMPUS_QUERY_DISQL)
        wire = encode_message(ResultMessage.of_nodes(handle.qid, (report,)))
        with pytest.raises(ProtocolError):
            engine.client._receive(handle, "s0.example", decode_message(wire))
        assert handle.cht.deletions == 0


class TestEdgeCases:
    def test_empty_child_ids_stays_empty_tuple(self):
        report = NodeReport(entry=_ROOT, disposition=Disposition.PROCESSED)
        message = ResultMessage.of_nodes(QueryId("maya", "user.example", 5001, 7), (report,))
        [decoded] = decode_message(encode_message(message)).node_reports()
        assert decoded.child_ids == ()
        assert decoded.dispatch_id == ""
        assert decoded.epoch == 0

    def test_unicode_site_name_round_trips(self):
        entry = ChtEntry(
            parse_url("http://sité-α.example/p1.html"),
            QueryState(2, parse_pre("(L|G)*2")),
        )
        report = NodeReport(
            entry=entry,
            disposition=Disposition.PROCESSED,
            new_entries=(entry,),
            dispatch_id="u3@sité-α.example",
            epoch=1,
            child_ids=("c0@ドメイン.example",),
        )
        message = ResultMessage.of_nodes(
            QueryId("ユーザ", "sité-α.example", 5001, 7), (report,)
        )
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
#: apart — or the name of the exception, both captured at the previous commit.
_POISON = {
    "honest": (_HONEST, _entry_repr()),
    "n_true": (_variant(state__n=True), _entry_repr(num_q="True")),
    "n_float_one": (_variant(state__n=1.0), _entry_repr(num_q="1.0")),
    "n_float": (_variant(state__n=1.5), _entry_repr(num_q="1.5")),
    "n_string": (_variant(state__n="1"), "TypeError"),
    "node_int": (_variant(node=5), "AttributeError"),
    "node_list": (_variant(node=["http://b.example/x"]), "AttributeError"),
    "node_null": (_variant(node=None), "AttributeError"),
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
    "entry_list": (["http://b.example/x", {"n": 1, "rem": "N"}], "TypeError"),
    "missing_state": ({"node": _HONEST["node"]}, "KeyError"),
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
        report = NodeReport(
            ChtEntry(*_decoded_entries(_HONEST)[0]), Disposition.PROCESSED, dispatch_id="u1"
        )
        message = ResultMessage.of_nodes(qid, (report,))
        before = encode_message(message)
        for name in ("n_true", "n_float_one", "max_true", "max_float"):
            (node, state), __ = _decoded_entries(_POISON[name][0])
            poisoned = ChtEntry(node, state)
            assert poisoned == report.entry  # equal to Python, and yet:
            forged = ResultMessage.of_nodes(qid, (replace(report, entry=poisoned),))
            assert encode_message(forged) != before
            assert decode_message(encode_message(forged)).reports[0].state is state
        assert encode_message(message) == before

"""Wire round-trip fuzz: result messages survive the codec bit-exactly.

Hypothesis draws result messages two ways.  Messages shaped like a server's —
clone reports with the full dispatch-identity stamping ``(qid, dispatch_id,
recovery_epoch)`` plus ``child_ids`` — must come back column for column,
every row value with its type.  Arbitrary columnar report JSON, spelled as
the encoder spells it, must decode into the columns it writes — a bare row's
dittos read as the values above, an entry's as the previous entry's, an index
or a row reference as the string of the message's table it names, a child id
step as the previous child id's serial raised by the step, an escaped array
or object as itself — and re-encode to the same bytes: states spelled alike
and differently, repeated nodes, DATA_ONLY reports, CHT halves, ``did`` /
``ep`` present or absent, unicode site names (the envelope is UTF-8 JSON with
``ensure_ascii=False``), epoch 0 (elided on the wire, restored on decode),
floats next to equal ints, and row values that are arrays or objects shaped
like a ditto, a reference or the escape.  Hostile columns — lengths that
disagree, ends that go backwards or do not close, a ditto with nothing above
it or in a full row, a row that does not fit its header, an index outside
the table, negative, a bool or a float, an index in a URL column that names a
title, a row reference that is not one int or names nothing, an escape of a
string, a step with no minted child id before it or that is not an int, an
unknown disposition code — are a ``WireError``, and so are version 1, 2 and
3 bodies; a bare integer in a row is a value, never an index.  The user-site
must refuse unstamped bookkeeping.

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
import math
import random
from collections import Counter
from dataclasses import replace

import pytest
from hypothesis import example, given, settings, strategies as st

import repro.core.engine as engine_module
import repro.testing.runner as runner_module
from repro import WebDisEngine
from repro.core.messages import ChtEntry, CloneReport, Disposition, RelayMessage, ResultMessage
from repro.core.state import QueryState
from repro.core.webquery import QueryClone, QueryId
from repro.disql import compile_disql
from repro.errors import ProtocolError
from repro.net.network import Network
from repro.pre import parse_pre
from repro.relational.query import ResultRow
from repro.testing import generate_case, run_case
from repro.urlutils import parse_url
from repro.web.campus import CAMPUS_QUERY_DISQL
from repro import wire
from repro.wire import WireError, decode_message, encode_message, wire_size

from . import test_dst_regressions as dst_regressions
from .test_protocol_pins import (
    _CODES, _repeats, _result_size, _Strings, _typed_rows, clone_reports,
)
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
    id, or a CHT half of each."""
    ids = draw(st.lists(dispatch_ids(), max_size=3, unique=True))
    reports = tuple(draw(clone_reports(dispatch_id)) for dispatch_id in ids)
    if draw(st.booleans()):
        return ResultMessage(draw(qids), reports)
    return ResultMessage(draw(qids), tuple(r.without_rows() for r in reports), "cht")


# --- arbitrary columnar result JSON ------------------------------------------------
# Every value is spelled as the encoder spells it (no key an encoder would
# elide, keys in its order, a ditto wherever it would write one, an index for
# a URL, dispatch id or child id the message already wrote wherever the index
# is shorter), so re-encoding must give the bytes back.

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

_HEADERS = [["d.url"], ["d.url", "d.title"], ["r.text"]]

#: Row values: text ("", unicode, quotes, a URL a column also writes), small
#: ints — which a row reads as values, never as indexes — the values ``==``
#: conflates — ``1`` / ``1.0`` / ``true``, ``-0.0`` / ``0.0`` — null, and
#: arrays and objects, which no relation produces and a row writes escaped:
#: ones that look like a ditto, a reference or the escape itself.
_VALUES = st.one_of(
    st.text(max_size=6), st.sampled_from(_NODES), st.integers(-2, 2),
    st.sampled_from([None, True, False, 1.0, -0.0, 0.0, 2.5]),
    st.sampled_from([[], [0], [1], [[]], [True], {}, {"=": [2]}, {"=": 1}]),
)

_DISPOSITIONS = [_CODES[d] for d in Disposition if d is not Disposition.DATA_ONLY]

_rows = st.lists(
    st.tuples(
        st.sampled_from(["d", "d0"]), st.sampled_from(range(len(_HEADERS))),
        st.lists(_VALUES, min_size=2, max_size=2),
    ).map(lambda row: (row[0], _HEADERS[row[1]], row[2][: len(_HEADERS[row[1]])])),
    max_size=3,
)


def _spell_rows(rows: list, strings: _Strings) -> list:
    """``(label, header, values)`` rows as the encoder writes them."""
    spelled, above = [], None
    for label, header, values in rows:
        if above is None or (label, header) != above[:2]:
            spelled.append({"q": label, "h": header, "v": [strings.value(v) for v in values]})
        else:
            spelled.append([
                [] if _repeats(v, a) else strings.value(v) for v, a in zip(values, above[2])
            ])
        above = (label, header, values)
    return spelled


def _state_value(spelled) -> QueryState:
    return wire._state_from_wire(spelled)


def _spell_entries(entries: list, strings: _Strings) -> list:
    """``(node, state spelling, child id)`` entries as the encoder writes them:
    a state spelled as the previous one decodes to the same object, a ditto."""
    spelled, last_state, last_id = [], None, None
    for node, state, child_id in entries:
        spelled.append([
            strings.refer(node), [] if repr(state) == repr(last_state) else state,
            [] if child_id == last_id else strings.child_id(child_id),
        ])
        last_state, last_id = state, child_id
    return spelled


#: Report dispatch ids: unstamped, two, and one a report's entries announce.
_REPORT_IDS = ["", "u1@s0.example", "u2@sité-α.example", "c0@s0.example"]


@st.composite
def raw_reports(draw, cht_half=False):
    """One report's fields as a report holds them, unspelled: its rows as
    ``(label, header, values)`` and its entries as ``(node, state spelling,
    child id)``."""
    count = draw(st.integers(0, 4))
    data_only = draw(st.booleans()) and not cht_half
    rows, row_ends, entries, forward_ends = [], [], [], []
    for __ in range(count):
        rows += draw(_rows)
        row_ends.append(len(rows))
        if not data_only:
            for node in draw(st.lists(st.sampled_from(_NODES), max_size=2)):
                child_id = f"c{draw(st.integers(0, 1))}@{draw(HOSTS)}"
                entries.append((node, draw(st.sampled_from(_STATE_SPELLINGS)), child_id))
        forward_ends.append(len(entries))
    return {
        "state": draw(st.sampled_from(_STATE_SPELLINGS)),
        "did": draw(st.sampled_from(_REPORT_IDS)),
        "ep": draw(st.sampled_from([0, 1, 7])),
        "nodes": draw(st.lists(st.sampled_from(_NODES), min_size=count, max_size=count)),
        "disp": (
            "d" * count if data_only
            else "".join(
                draw(st.lists(st.sampled_from(_DISPOSITIONS), min_size=count, max_size=count))
            )
        ),
        "rows": [] if cht_half else rows,
        "rend": row_ends,
        "entries": entries,
        "fend": forward_ends,
    }


def _spell(raws: list) -> list:
    """The reports' JSON objects as the encoder writes them: one string table
    for the whole message."""
    strings = _Strings()
    spelled = []
    for raw in raws:
        report = {"s": raw["state"]}
        if raw["did"]:
            report["i"] = strings.refer(raw["did"])
        if raw["ep"]:
            report["e"] = raw["ep"]
        report["n"] = [strings.refer(node) for node in raw["nodes"]]
        report["d"] = raw["disp"]
        report["r"] = _spell_rows(raw["rows"], strings)
        report["re"] = raw["rend"]
        report["a"] = _spell_entries(raw["entries"], strings)
        report["fe"] = raw["fend"]
        spelled.append(report)
    return spelled


@st.composite
def results_json(draw):
    """A message's kind and its reports, each as ``(JSON object, raw fields)``."""
    kind = draw(st.sampled_from(["result", "cht"]))
    raws = draw(st.lists(raw_reports(cht_half=kind == "cht"), max_size=3))
    return kind, list(zip(_spell(raws), raws))


def _result_wire(reports: list, kind: str = "result", qid: QueryId | None = None) -> bytes:
    """A result message whose body lists ``reports``, as the encoder spells it."""
    qid = qid or QueryId("maya", "user.example", 5001, 7)
    body = {"qid": [qid.user, qid.host, qid.port, qid.number], "reports": reports, "chan": kind}
    text = json.dumps({"v": wire.WIRE_VERSION, "k": "result", "b": body},
                      separators=(",", ":"), ensure_ascii=False)
    return text.encode("utf-8")


def _typed(values) -> list:
    return [(type(value), repr(value)) for value in values]


class TestStampedRoundTrip:
    @settings(max_examples=200, deadline=None)
    @given(stamped_messages())
    def test_decode_inverts_encode(self, message):
        decoded = decode_message(encode_message(message))
        assert decoded == message and _typed_rows(decoded) == _typed_rows(message)

    @settings(max_examples=200, deadline=None)
    @given(results_json())
    def test_reencode_is_bit_exact(self, drawn):
        kind, reports = drawn
        wire = _result_wire([report for report, __ in reports], kind)
        decoded = decode_message(wire)
        assert encode_message(decoded) == wire
        assert decoded.size_bytes() == _result_size(decoded)

    @settings(max_examples=100, deadline=None)
    @given(results_json())
    def test_stamping_survives(self, drawn):
        kind, reports = drawn
        decoded = decode_message(_result_wire([report for report, __ in reports], kind))
        for report, (__, raw) in zip(decoded.reports, reports):
            assert report.dispatch_id == raw["did"]
            assert report.epoch == raw["ep"]
            assert list(report.child_ids) == [child_id for __, __, child_id in raw["entries"]]

    @settings(max_examples=300, deadline=None)
    @given(results_json())
    def test_decoded_columns_are_the_wire_columns(self, drawn):
        """Dittos read as the value above, indexes as the string they name;
        every other column as written."""
        kind, reports = drawn
        decoded = decode_message(_result_wire([report for report, __ in reports], kind))
        assert len(decoded.reports) == len(reports)
        for report, (__, raw) in zip(decoded.reports, reports):
            assert [str(node) for node in report.nodes] == [
                str(parse_url(node)) for node in raw["nodes"]
            ]
            assert "".join(_CODES[d] for d in report.dispositions) == raw["disp"]
            assert list(report.row_ends) == raw["rend"]
            assert list(report.forward_ends) == raw["fend"]
            assert [(label, list(row.header), _typed(row.values)) for label, row in report.rows] == [
                (label, header, _typed(values)) for label, header, values in raw["rows"]
            ]
            assert [
                (str(node), repr(state)) for node, state in report.new_entries
            ] == [
                (str(parse_url(node)), repr(_state_value(state)))
                for node, state, __ in raw["entries"]
            ]
            ends = raw["rend"]
            assert report.rows_follow == (kind == "cht" and bool(ends) and ends[-1] > 0)


# --- hostile columns ------------------------------------------------------------------

_N0, _N1 = _NODES[:2]
_STATE = {"n": 1, "rem": "L"}

#: A valid report as a report holds it: a bare row dittoing the first value
#: above it, a header change, an entry repeating the previous entry's state
#: and child id, then one whose child id is a step from it.
_VALID_RAW = {
    "state": _STATE,
    "did": "u1@s0.example",
    "ep": 0,
    "nodes": [_N0, _N1],
    "disp": "pu",
    "rows": [
        ("q1", ["d.url", "d.title"], [_N0, "t"]),
        ("q1", ["d.url", "d.title"], [_N0, "u"]),
        ("q1", ["d.url"], ["x"]),
    ],
    "rend": [2, 3],
    "entries": [
        (_N0, _STATE, "c1@s0.example"), (_N1, _STATE, "c1@s0.example"),
        (_N1, _STATE, "c2@s0.example"),
    ],
    "fend": [1, 3],
}

#: ``_VALID_RAW`` spelled by hand as the encoder spells it.  Its string table
#: is ``u1@s0.example``, ``_N0``, ``_N1``, ``t``, ``u``, ``x``,
#: ``c1@s0.example``, ``c2@s0.example``: the first row's ``_N0`` is reference
#: 1, the entries' URLs are indexes 1 and 2, the last child id a step of 1.
_VALID = {
    "s": _STATE,
    "i": "u1@s0.example",
    "n": [_N0, _N1],
    "d": "pu",
    "r": [
        {"q": "q1", "h": ["d.url", "d.title"], "v": [[1], "t"]},
        [[], "u"],
        {"q": "q1", "h": ["d.url"], "v": ["x"]},
    ],
    "re": [2, 3],
    "a": [[1, _STATE, "c1@s0.example"], [2, [], []], [2, [], -1]],
    "fe": [1, 3],
}


def _set(path: str, value):
    def mutate(report: dict) -> None:
        *parents, leaf = path.split(".")
        target = report
        for key in parents:
            target = target[int(key) if isinstance(target, list) else key]
        target[int(leaf) if isinstance(target, list) else leaf] = value
    return mutate


def _append(key: str, value):
    return lambda report: report[key].append(value)


#: ``name -> how it spoils _VALID``; every one is a ``WireError``.
_HOSTILE = {
    "nodes-longer": _append("n", _NODES[2]),
    "disp-shorter": _set("d", "p"),
    "disp-a-list": _set("d", ["p", "u"]),
    "rend-shorter": _set("re", [3]),
    "fend-longer": _append("fe", 3),
    "rend-backwards": _set("re", [3, 2]),
    "fend-backwards": _set("fe", [3, 1]),
    "rend-open": _set("re", [2, 2]),
    "fend-past-the-end": _set("fe", [1, 4]),
    "rend-negative": _set("re", [-1, 3]),
    "rend-float": _set("re", [2.0, 3]),
    "rend-bool": _set("re", [True, 3]),
    "ditto-in-the-first-row": _set("r.0", [[], "t"]),
    "ditto-in-a-full-row": _set("r.2.v", [[]]),
    "bare-first-row": _set("r.0", [_N0, "t"]),
    "bare-row-after-a-header-change": _append("r", [[], "y"]),
    "bare-row-too-short": _set("r.1", [[]]),
    "full-row-misfit": _set("r.0.v", [_N0]),
    "header-not-text": _set("r.0.h", ["d.url", 5]),
    "label-not-text": _set("r.0.q", 1),
    "values-not-a-list": _set("r.2.v", "x"),
    "row-reference-bool": _set("r.0.v.0", [True]),
    "row-reference-float": _set("r.0.v.0", [1.0]),
    "row-reference-null": _set("r.0.v.0", [None]),
    "row-reference-a-list": _set("r.0.v.0", [[1]]),
    "row-reference-a-string": _set("r.0.v.0", ["x"]),
    "row-reference-two-indexes": _set("r.0.v.0", [1, 1]),
    "row-reference-past-the-table": _set("r.0.v.0", [3]),
    "row-reference-negative": _set("r.0.v.0", [-1]),
    "bare-row-reference-past-the-table": _set("r.1.1", [5]),
    "escape-of-a-string": _set("r.2.v.0", {"=": "x"}),
    "escape-of-nothing": _set("r.2.v.0", {}),
    "escape-with-another-key": _set("r.2.v.0", {"=": [], "x": 1}),
    "an-object-unescaped": _set("r.2.v.0", {"x": []}),
    "state-ditto-in-the-first-entry": _set("a.0.1", []),
    "child-id-ditto-in-the-first-entry": _set("a.0.2", []),
    "entry-without-child-id": _set("a.0", [_N0, _STATE]),
    "child-id-not-text": _set("a.0.2", {"c": 1}),
    "step-in-the-first-entry": _set("a.0.2", -1),
    "step-bool": _set("a.2.2", True),
    "step-float": _set("a.2.2", -1.0),
    "step-from-an-unminted-id": _set("a.0.2", "c1-s0.example"),
    "mixed-data-only": _set("d", "dp"),
    "unknown-disposition": _set("d", "pq"),
    "disposition-name": _set("d", "processed"),
    "dispatch-id-not-text": _set("i", {"d": 1}),
    "dispatch-id-index-before-any-string": _set("i", 0),
    "dispatch-id-step": _set("i", -1),
    "url-index-past-the-table": _set("a.0.0", 6),
    "url-index-negative": _set("n.1", -1),
    "url-index-bool": _set("n.1", True),
    "url-index-float": _set("a.0.0", 1.0),
    "url-index-null": _set("n.0", None),
    "url-index-names-a-title": _set("a.1.0", 3),
    "child-id-index-past-the-table": _set("a.0.2", 9),
    "child-id-index-bool": _set("a.0.2", False),
    "epoch-not-an-int": _set("e", 1.0),
    "nodes-an-object": _set("n", {_N0: 1, _N1: 2}),
    "rows-an-object": _set("r", {}),
    "no-state": lambda report: report.pop("s"),
}


class TestHostileColumnsAreWireErrors:
    def test_the_valid_report_decodes_and_reencodes(self):
        assert _spell([_VALID_RAW]) == [_VALID]
        wire = _result_wire([_VALID])
        [report] = decode_message(wire).reports
        assert [row.values for __, row in report.rows] == [(_N0, "t"), (_N0, "u"), ("x",)]
        assert [str(node) for node, __ in report.new_entries] == [_N0, _N1, _N1]
        assert report.new_entries[1][1] is report.new_entries[0][1]
        assert list(report.child_ids) == ["c1@s0.example"] * 2 + ["c2@s0.example"]
        assert encode_message(decode_message(wire)) == wire

    def test_an_integer_in_a_row_is_a_value(self):
        report = copy.deepcopy(_VALID)
        report["r"][2]["v"] = [1]  # reference [1] would be _N0
        [decoded] = decode_message(_result_wire([report])).reports
        assert _typed(decoded.rows[2][1].values) == [(int, "1")]
        # ...and enters no table: with "x" gone there are five strings before
        # the first child id, so index 5 names nothing.
        report["a"][0][2] = 5
        with pytest.raises(WireError, match="outside the 5 strings"):
            decode_message(_result_wire([report]))

    @pytest.mark.parametrize("name", sorted(_HOSTILE))
    def test_is_a_wire_error(self, name):
        report = copy.deepcopy(_VALID)
        _HOSTILE[name](report)
        with pytest.raises(WireError):
            decode_message(_result_wire([report]))

    def test_a_cht_half_carries_no_rows(self):
        with pytest.raises(WireError):
            decode_message(_result_wire([_VALID], "cht"))
        half = {**_VALID, "r": []}
        [report] = decode_message(_result_wire([half], "cht")).reports
        assert not report.rows and list(report.row_ends) == [2, 3] and report.rows_follow
        with pytest.raises(WireError):  # ...and only a CHT half may count rows it lacks
            decode_message(_result_wire([half]))

    def test_a_version_3_body_is_an_unsupported_version(self):
        """``_VALID`` as version 3 spelled it: long keys, disposition names,
        every row value and child id in full."""
        report = {
            "state": _STATE, "did": "u1@s0.example", "nodes": [_N0, _N1],
            "disp": ["processed", "duplicate"],
            "rows": [
                {"q": "q1", "h": ["d.url", "d.title"], "v": [_N0, "t"]}, [[], "u"],
                {"q": "q1", "h": ["d.url"], "v": ["x"]},
            ],
            "rend": [2, 3],
            "new": [[1, _STATE, "c1@s0.example"], [2, [], []], [2, [], "c2@s0.example"]],
            "fend": [1, 3],
        }
        body = {"qid": ["maya", "user.example", 5001, 7], "reports": [report], "chan": "result"}
        with pytest.raises(WireError, match="unsupported wire version"):
            decode_message(json.dumps({"v": 3, "k": "result", "b": body}).encode())
        with pytest.raises(WireError, match="malformed"):  # nor is it a version 4 body
            decode_message(json.dumps({"v": 4, "k": "result", "b": body}).encode())

    def test_a_version_2_body_is_an_unsupported_version(self):
        body = {"qid": ["maya", "user.example", 5001, 7], "reports": [_VALID], "chan": "result"}
        with pytest.raises(WireError, match="unsupported wire version"):
            decode_message(json.dumps({"v": 2, "k": "result", "b": body}).encode())

    def test_a_version_1_body_is_an_unsupported_version(self):
        record = {"entry": {"node": _N0, "state": _STATE}, "disp": "processed", "new": [],
                  "rows": [], "did": "u1@s0.example"}
        body = {"qid": ["maya", "user.example", 5001, 7], "reports": [record], "chan": "result"}
        with pytest.raises(WireError, match="unsupported wire version"):
            decode_message(json.dumps({"v": 1, "k": "result", "b": body}).encode())


class TestUnencodableReportsAreWireErrors:
    def test_a_child_id_column_that_does_not_fit_the_entries(self):
        """What a transport catches as an unsendable frame: a wire error."""
        state = QueryState(1, parse_pre("L"))
        report = CloneReport(
            [parse_url(_N0)], state, [Disposition.PROCESSED], [], [0],
            [(parse_url(_N1), state)], ["c1@s0.example", "c2@s0.example"], [1],
        )
        message = ResultMessage(QueryId("maya", "user.example", 5001, 7), (report,))
        with pytest.raises(WireError, match="2 child id"):
            encode_message(message)


def _one_column(values: list) -> ResultMessage:
    """One node whose rows are ``values`` under one label and header."""
    rows = [("q1", ResultRow(("a.x",), (value,))) for value in values]
    report = CloneReport(
        [parse_url(_N0)], QueryState(1, parse_pre("L")), [Disposition.PROCESSED], rows,
        [len(rows)], [], [], [0], "u1@s0.example",
    )
    return ResultMessage(QueryId("maya", "user.example", 5001, 7), (report,))


class TestOnlyTheSameTypeAndValueIsADitto:
    def test_a_float_next_to_an_equal_int_is_written_out(self):
        values = [1, 1, 1.0, 1.0, True, 1, -0.0, 0.0, 0.0, None, None, "1", "1"]
        message = _one_column(values)
        text = encode_message(message).decode()
        assert '"r":[{"q":"q1","h":["a.x"],"v":[1]},[[]],[1.0],[1.0],[true],[1],' in text
        assert '[1],[-0.0],[0.0],[0.0],[null],[[]],["1"],[[]]],' in text
        decoded = decode_message(encode_message(message))
        assert _typed_rows(decoded) == _typed_rows(message)
        assert message.size_bytes() == _result_size(message)

    def test_nan_is_never_a_ditto(self):
        message = _one_column([math.nan, math.nan])
        rows = json.loads(encode_message(message))["b"]["reports"][0]["r"]
        assert rows[1] != [[]]
        [first, second] = [row.values[0] for __, row in decode_message(
            encode_message(message)).reports[0].rows]
        assert math.isnan(first) and math.isnan(second)

    def test_an_empty_list_value_is_never_read_as_a_ditto(self):
        message = _one_column(["x", [], []])
        rows = json.loads(encode_message(message))["b"]["reports"][0]["r"]
        assert rows[1] == [{"=": []}] and rows[2] == [[]]
        decoded = decode_message(encode_message(message))
        assert [row.values for __, row in decoded.reports[0].rows] == [("x",), ([],), ([],)]
        assert message.size_bytes() == _result_size(message)


class TestUserSiteRefusesMalformedReports:
    @settings(max_examples=50, deadline=None)
    @given(raw_reports())
    @example(_VALID_RAW)
    def test_receive_raises_protocol_error(self, campus_web, raw):
        """A bookkeeping report with no dispatch id."""
        if not raw["nodes"] or "d" in raw["disp"]:  # "d": DATA_ONLY
            raw = _VALID_RAW
        [report] = _spell([{**raw, "did": ""}])
        engine = WebDisEngine(campus_web)
        handle = engine.submit_disql(CAMPUS_QUERY_DISQL)
        wire = _result_wire([report], qid=handle.qid)
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
        root = ChtEntry(parse_url(_N0), QueryState(1, parse_pre("L")))
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


def _report_carrying(entry) -> dict:
    """A report that retires ``entry`` and announces it: its node in ``nodes``
    and an entry of ``new``, its state as the report's and the entry's, each
    spelled as received and in the received key order.  An entry that is not
    an object stands in ``new`` as it is, short of a child id."""
    if not isinstance(entry, dict):
        return {"s": entry[1], "n": [entry[0]], "a": [entry]}
    report = {}
    for key, value in entry.items():
        if key == "node":
            report["n"] = [value]
        elif key == "state":
            report["s"] = value
        else:
            report[key] = value
    report["a"] = [[entry["node"], entry["state"], "c1"]] if "state" in entry else []
    return report


def _decoded_entries(entry):
    """The retired and the announced ``(node, state)`` of a frame carrying
    ``entry`` twice, as the decoded report's columns hold them."""
    report = {
        **_report_carrying(entry), "i": "u1", "d": "p", "r": [], "re": [0], "fe": [1],
    }
    body = {"qid": ["maya", "user.example", 5001, 7], "reports": [report], "chan": "result"}
    envelope = {"v": wire.WIRE_VERSION, "k": "result", "b": body}
    [decoded] = decode_message(json.dumps(envelope).encode()).reports
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


# --- every payload a DST case sends ------------------------------------------------
# The E1 message sets never retract, split a report into its CHT and data
# halves, relay, or stamp a recovery epoch; DST cases do all of these.  Every
# payload the simulator is handed in a case — delivered, refused or dropped —
# must survive the codec: decode to an ``==`` message that re-encodes to the
# same bytes and, for a result, sizes the same.  A case's engine config has no
# retrace knob, so relays come from the same cases run with results retracing
# the query's path.

class _RecordingNetwork(Network):
    """The simulator, keeping every payload it is asked to send."""

    sent: list = []

    def send(self, src, dst, port, payload, *, on_outcome=None):
        _RecordingNetwork.sent.append(payload)
        super().send(src, dst, port, payload, on_outcome=on_outcome)


def _sent_by(spec: dict, monkeypatch, *, retrace: bool = False) -> list:
    monkeypatch.setattr(engine_module, "Network", _RecordingNetwork)
    if retrace:
        drawn = runner_module._engine_config
        monkeypatch.setattr(
            runner_module, "_engine_config",
            lambda spec, **kwargs: replace(drawn(spec, **kwargs), direct_result_return=False),
        )
    _RecordingNetwork.sent = []
    try:
        run_case(spec)
    finally:
        monkeypatch.undo()
    return _RecordingNetwork.sent


def _check_codec(payloads: list) -> Counter:
    """Every payload round-trips; the count of each kind and disposition."""
    seen: Counter = Counter()
    for payload in payloads:
        encoded = encode_message(payload)
        decoded = decode_message(encoded)
        assert decoded == payload, payload
        assert encode_message(decoded) == encoded
        assert wire_size(payload) == len(encoded)
        seen[payload.kind] += 1
        if isinstance(payload, (ResultMessage, RelayMessage)):
            assert decoded.size_bytes() == payload.size_bytes()
            result = payload.inner if isinstance(payload, RelayMessage) else payload
            for report in result.reports:
                seen.update(disposition.value for disposition in report.dispositions)
                seen["epoch"] += report.epoch > 0
    return seen


def _with_halves_split(spec: dict) -> dict:
    split = copy.deepcopy(spec)
    split.setdefault("config", {})["combine_results_and_cht"] = False
    return split


_SHRUNK = {
    name: value for name, value in sorted(vars(dst_regressions).items())
    if name.startswith("SEED_") and isinstance(value, dict)
}


class TestEveryDstPayloadRoundTrips:
    def test_seeds_0_to_63_as_drawn_with_the_halves_split_and_retracing(self, monkeypatch):
        seen: Counter = Counter()
        for seed in range(64):
            spec = generate_case(seed)
            seen += _check_codec(_sent_by(spec, monkeypatch))
            seen += _check_codec(_sent_by(_with_halves_split(spec), monkeypatch))
            seen += _check_codec(_sent_by(spec, monkeypatch, retrace=True))
        kinds = {"query", "query-batch", "result", "cht", "relay", "epoch", "unreachable"}
        assert kinds <= set(seen), seen

    @pytest.mark.parametrize("name", sorted(_SHRUNK))
    def test_the_shrunk_regression_specs(self, name, monkeypatch):
        assert _check_codec(_sent_by(_SHRUNK[name], monkeypatch))

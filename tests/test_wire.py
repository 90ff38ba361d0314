"""Tests for the wire codec: round-trips and size-estimate sanity."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.baselines.docservice import DocResponse, FetchRequest
from repro.core.messages import CloneReport, Disposition, RelayMessage, ResultMessage
from repro.core.state import QueryState
from repro.core.webquery import QueryClone, QueryId, WebQuery, WebQueryStep
from repro.disql import compile_disql
from repro.pre import parse_pre
from repro.relational.expr import And, Attr, Compare, Contains, Literal, Not, Or
from repro.relational.query import NodeQuery, ResultRow, TableDecl
from repro.urlutils import Url, parse_url
from repro.wire import (
    WireError,
    decode_message,
    encode_message,
    expr_from_wire,
    expr_to_wire,
    pre_from_wire,
    pre_to_wire,
    wire_size,
)

QID = QueryId("maya", "user.example", 5001, 7)


def _webquery() -> WebQuery:
    return compile_disql(
        "select d0.url, d1.url, r.text\n"
        'from document d0 such that "http://csa.iisc.ernet.in" L d0\n'
        'where d0.title contains "lab"\n'
        "     document d1 such that d0 G.(L*1) d1,\n"
        '     relinfon r such that r.delimiter = "hr"\n'
        'where r.text contains "convener"'
    ).with_qid(QID)


class TestPreWire:
    @pytest.mark.parametrize(
        "text", ["N", "G", "L*4", "L*", "G.(G|L)", "N|G.(L*4)", "I.L.G", "(G|L)*2"]
    )
    def test_round_trip(self, text):
        pre = parse_pre(text)
        assert pre_from_wire(pre_to_wire(pre)) == pre

    def test_never_round_trips(self):
        from repro.pre.ast import NEVER

        assert pre_from_wire(pre_to_wire(NEVER)) == NEVER

    def test_bad_data_rejected(self):
        with pytest.raises(WireError):
            pre_from_wire({"bogus": 1})


class TestExprWire:
    def test_round_trip_nested(self):
        expr = And(
            Or(
                Compare("=", Attr("a", "ltype"), Literal("G")),
                Not(Contains(Attr("r", "text"), Literal("x"))),
            ),
            Compare(">=", Attr("d", "length"), Literal(100)),
        )
        assert expr_from_wire(expr_to_wire(expr)) == expr

    def test_bad_data_rejected(self):
        with pytest.raises(WireError):
            expr_from_wire({"mystery": []})
        with pytest.raises(WireError):
            expr_from_wire(42)


class TestMessageRoundTrips:
    def test_query_clone(self):
        query = _webquery()
        clone = QueryClone(
            query, 1, parse_pre("L*1"),
            (Url("dsl.serc.iisc.ernet.in", "/"), Url("dsl.serc.iisc.ernet.in", "/people")),
            history=("www.csa.iisc.ernet.in",),
        )
        decoded = decode_message(encode_message(clone))
        assert decoded == clone

    def test_result_message(self):
        row = ResultRow(("d1.url", "r.text"), ("http://x.example/", "CONVENER X"))
        other = (Url("y.example", "/p"), QueryState(1, parse_pre("N")))
        message = ResultMessage(
            QID,
            (
                CloneReport(
                    (Url("x.example", "/"),), QueryState(1, parse_pre("L*1")),
                    (Disposition.PROCESSED,), (("q2", row),), (1,), (other,), ("s2@x.example",),
                    (1,),
                ),
                CloneReport((other[0],), other[1], (Disposition.DUPLICATE,), (), (0,), (), (), (0,)),
            ),
        )
        assert decode_message(encode_message(message)) == message

    def test_cht_channel_preserved(self):
        message = ResultMessage(QID, (), kind="cht")
        decoded = decode_message(encode_message(message))
        assert isinstance(decoded, ResultMessage) and decoded.kind == "cht"

    def test_relay_message(self):
        inner = ResultMessage(QID, ())
        relay = RelayMessage(("a.example", "b.example"), inner)
        assert decode_message(encode_message(relay)) == relay

    def test_fetch_request(self):
        request = FetchRequest(parse_url("http://a.example/x"), "user.example", 9000, 3)
        assert decode_message(encode_message(request)) == request

    def test_doc_response(self):
        response = DocResponse(parse_url("http://a.example/x"), "<html>ünïcode</html>", 3)
        assert decode_message(encode_message(response)) == response

    def test_doc_response_404(self):
        response = DocResponse(parse_url("http://a.example/x"), None, 3)
        assert decode_message(encode_message(response)) == response

    def test_unknown_type_rejected(self):
        with pytest.raises(WireError):
            encode_message(object())

    def test_garbage_rejected(self):
        with pytest.raises(WireError):
            decode_message(b"\x00\xff")
        with pytest.raises(WireError):
            decode_message(b'{"v": 99, "k": "clone", "b": {}}')


class TestSizeEstimates:
    """The engines' size_bytes() estimates must track real wire sizes."""

    def _ratio(self, message) -> float:
        return message.size_bytes() / wire_size(message)

    def test_clone_estimate_within_factor(self):
        clone = QueryClone(
            _webquery(), 0, parse_pre("L"), (Url("csa.iisc.ernet.in", "/"),)
        )
        assert 0.2 <= self._ratio(clone) <= 5.0

    def test_result_estimate_within_factor(self):
        row = ResultRow(("d1.url",), ("http://x.example/path/page.html",))
        report = CloneReport(
            (Url("x.example", "/"),), QueryState(1, parse_pre("L*1")),
            (Disposition.PROCESSED,), (("q1", row),), (1,), (), (), (0,),
        )
        message = ResultMessage(QID, (report,))
        assert 0.2 <= self._ratio(message) <= 5.0

    def test_document_bytes_dominate_doc_response(self):
        html = "x" * 50_000
        response = DocResponse(parse_url("http://a.example/x"), html, 1)
        assert wire_size(response) >= 50_000
        assert response.size_bytes() >= 50_000


@settings(max_examples=60, deadline=None)
@given(
    st.recursive(
        st.sampled_from([parse_pre(t) for t in ("N", "I", "L", "G")]),
        lambda kids: st.one_of(
            st.lists(kids, min_size=2, max_size=3).map(
                lambda ps: parse_pre(".".join(f"({p})" for p in ps))
            ),
            st.lists(kids, min_size=2, max_size=2).map(
                lambda ps: parse_pre("|".join(f"({p})" for p in ps))
            ),
            st.tuples(kids, st.integers(1, 5)).map(
                lambda pair: parse_pre(f"({pair[0]})*{pair[1]}")
            ),
        ),
        max_leaves=6,
    )
)
def test_pre_wire_round_trip_property(pre):
    assert pre_from_wire(pre_to_wire(pre)) == pre


# --- property: arbitrary compiled queries round-trip -----------------------

_pre_texts = st.sampled_from(
    ["L", "G", "L*2", "G.(L*1)", "N|G", "(L|G)*2", "L*", "I.L"]
)
_keywords = st.sampled_from(["alpha", "beta topic", "convener", "x"])


@st.composite
def _clone_strategy(draw):
    pre1 = draw(_pre_texts)
    pre2 = draw(_pre_texts)
    keyword = draw(_keywords)
    fuzzy = draw(st.sampled_from(["", "~1", "~2"]))
    text = (
        "select d.url, d2.url\n"
        f'from document d such that "http://start.example/" {pre1} d\n'
        f'where d.title contains{fuzzy} "{keyword}"\n'
        f"     document d2 such that d {pre2} d2"
    )
    query = compile_disql(text).with_qid(QID)
    step = draw(st.integers(0, 1))
    rem = query.steps[step].pre
    dests = tuple(
        Url("site.example", f"/p{i}") for i in range(draw(st.integers(1, 3)))
    )
    history = tuple(draw(st.lists(st.sampled_from(["a.example", "b.example"]), max_size=2)))
    return QueryClone(query, step, rem, dests, history)


@settings(max_examples=80, deadline=None)
@given(_clone_strategy())
def test_arbitrary_clone_round_trip(clone):
    assert decode_message(encode_message(clone)) == clone

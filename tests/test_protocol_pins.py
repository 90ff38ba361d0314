"""Pins around the compiled protocol path: what it must not have changed.

The per-query protocol table and the stored hashes are accelerators.  These
tests hold the values they must leave alone to what the previous
implementation produced — literals and digests captured there, and its
``size_bytes()`` formulas kept verbatim — plus the one count that cannot drift
with machine noise: what a warm repeat of a query allocates.
"""

from __future__ import annotations

import hashlib
from dataclasses import fields, is_dataclass

import pytest

from repro import EngineConfig, WebDisEngine
from repro.core.messages import (
    ChtEntry,
    CloneBundle,
    Disposition,
    NodeReport,
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
from repro.relational.compile import structural_hash, structural_key
from repro.relational.query import NodeQuery, ResultRow
from repro.urlutils import Url
from repro.web import SyntheticWebConfig, build_campus_web, build_synthetic_web
from repro.web.campus import CAMPUS_QUERY_DISQL
from repro.web.synthetic import synthetic_start_url
from repro.wire import decode_message, encode_message

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
    state = QueryState(1, parse_pre("(L|G)*2"))
    child = QueryState(1, parse_pre("L|G"))
    row = ResultRow(("d.url", "d.title", "a.href"), ("http://b.example/x", "topic é", 3))
    return ResultMessage(QID, (
        NodeReport(
            ChtEntry(Url("b.example", "/x"), state), Disposition.PROCESSED,
            (ChtEntry(Url("c.example", "/"), child), ChtEntry(Url("b.example", "/q"), child)),
            (("q1", row), ("q1", row)),
            dispatch_id="s1@a.example", epoch=2, child_ids=("s4@b.example", "s5@b.example"),
        ),
        NodeReport(
            ChtEntry(Url("b.example", "/y"), state), Disposition.DUPLICATE,
            dispatch_id="s1@a.example", epoch=2,
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
    message = ResultMessage(QID, (NodeReport(entry, Disposition.PROCESSED, dispatch_id="u1"),))
    return decode_message(encode_message(message)).reports[0].entry


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
    entry = _result().reports[0].entry
    hash(entry), str(entry.node)
    assert repr(entry) == (
        "ChtEntry(node=Url(host='b.example', path='/x', fragment='', scheme='http'), "
        "state=QueryState(num_q=1, rem=Repeat(body=Alt(options=(Atom(ltype=<LinkType.LOCAL: 'L'>), "
        "Atom(ltype=<LinkType.GLOBAL: 'G'>))), bound=2)))"
    )


#: The node-query of each EXP-E1 workload's first pool query, with the
#: ``structural_hash`` and the sha256 of the ``structural_key`` it had before
#: node-queries stored either.
_E1_SHAPES = {
    "cold_default": (
        'select d.url, d.title, a.href from document d such that '
        '"http://site000.example/" (L|G)*2 d, anchor a where d.title contains "topic"',
        "da9080c81b2fdb03",
        "eb0f1b8cd4c171c18a49a40993045d3b3f1ba8fe03167c49c6d7bf1f47a75bde",
    ),
    "warm_zipf": (
        'select d.url, d.title, a.href from document d such that '
        '"http://site000.example/" (L|G)*3 d, anchor a where d.title contains "topic"',
        "da9080c81b2fdb03",
        "eb0f1b8cd4c171c18a49a40993045d3b3f1ba8fe03167c49c6d7bf1f47a75bde",
    ),
    "eval_join": (
        'select d.url, a.href, r.text from document d such that '
        '"http://rich0.example/p0.html" (G|L)*2 d, anchor a, relinfon r '
        'where r.text contains "q0abcd" and a.label contains r.delimiter and a.href != a.base',
        "17756148df06430b",
        "b435d7caa8c24a80e861d6654962ffa1ac719148a6393f974904179fe6134437",
    ),
    "wire_tenants": (
        'select d.url, d.title, a.href from document d such that '
        '"http://site000.example/page1.html" (L|G)*2 d, anchor a where d.title contains "topic"',
        "da9080c81b2fdb03",
        "eb0f1b8cd4c171c18a49a40993045d3b3f1ba8fe03167c49c6d7bf1f47a75bde",
    ),
}


@pytest.mark.parametrize("workload", sorted(_E1_SHAPES))
def test_structural_keys_did_not_move(workload):
    text, digest, key_sha = _E1_SHAPES[workload]
    node_query = compile_disql(text).steps[0].query
    hash(node_query)  # a stored hash must not leak into the repr-built key
    for __ in range(2):  # computed, then served from the node-query
        assert structural_hash(node_query) == digest
        assert hashlib.sha256(structural_key(node_query).encode()).hexdigest() == key_sha


# --- wire bytes -------------------------------------------------------------------

_WIRE_DIGESTS = {
    "bundle": (_bundle, "0a563c28a27a83ffa1b29f99d159559ad12aa976dcb28c924ac9306ddfc39700"),
    "relay": (_relay, "a1ebb07f05a94272427631b149f9bb8fcbcc7984e3e6d0096810358458ba4d2b"),
    "result": (_result, "a7126f9616aa57562efb707033ac02dccea6e19aa9fd2eba4979203e340e92fc"),
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
# The previous implementation's size_bytes() formulas, verbatim.


def _url_text(url: Url) -> str:
    base = f"{url.scheme}://{url.host}{url.path}"
    return f"{base}#{url.fragment}" if url.fragment else base


def _qid_size(qid: QueryId) -> int:
    return len(qid.user) + len(qid.host) + 8


def _state_size(state: QueryState) -> int:
    return 4 + 4 * pre_size(state.rem)


def _entry_size(entry: ChtEntry) -> int:
    return len(_url_text(entry.node)) + _state_size(entry.state)


def _clone_size(clone: QueryClone) -> int:
    remaining = sum(
        4 * pre_size(step.pre) + len(str(step.query))
        for step in clone.query.steps[clone.step_index:]
    )
    dests = sum(len(_url_text(url)) for url in clone.dest)
    trail = sum(len(site) + 2 for site in clone.history)
    identity = len(clone.dispatch_id) + 4
    return (
        _qid_size(clone.query.qid) + remaining + 4 * pre_size(clone.rem)
        + dests + trail + identity + 16
    )


def _report_size(report: NodeReport) -> int:
    size = _entry_size(report.entry) + 1
    size += sum(_entry_size(entry) for entry in report.new_entries)
    for label, row in report.results:
        size += len(label) + sum(len(str(value)) for value in row.values)
    size += len(report.dispatch_id) + 4 + sum(len(cid) for cid in report.child_ids)
    return size


def _result_size(message: ResultMessage) -> int:
    return _qid_size(message.qid) + sum(_report_size(r) for r in message.reports) + 8


def _reference_size(payload) -> int:
    if isinstance(payload, QueryClone):
        return _clone_size(payload)
    if isinstance(payload, CloneBundle):
        return sum(_clone_size(clone) for clone in payload.clones) + 8
    if isinstance(payload, ResultMessage):
        return _result_size(payload)
    assert isinstance(payload, RelayMessage)
    return _result_size(payload.inner) + sum(len(s) + 2 for s in payload.remaining) + 8


def _synthetic():
    config = SyntheticWebConfig(sites=5, pages_per_site=5, seed=3)
    text = (
        f'select d.url, d.title, a.href from document d such that '
        f'"{synthetic_start_url(config)}" (L|G)*3 d, anchor a where d.title contains "topic"'
    )
    return build_synthetic_web(config), text


_RUNS = {
    "campus": (lambda: (build_campus_web(), CAMPUS_QUERY_DISQL), EngineConfig()),
    "synthetic": (_synthetic, EngineConfig()),
    "synthetic-retrace": (_synthetic, EngineConfig(direct_result_return=False)),
}


@pytest.mark.parametrize("run", sorted(_RUNS))
def test_every_tapped_message_has_the_previous_size(run):
    build, config = _RUNS[run]
    web, text = build()
    engine = WebDisEngine(web, config=config)
    tapped = []
    engine.network.add_tap(lambda now, src, dst, port, payload: tapped.append(payload))
    handle = engine.submit_disql(text)
    engine.run()
    assert handle.results
    kinds = {type(payload) for payload in tapped}
    assert {QueryClone, ResultMessage} <= kinds
    if run == "synthetic":
        assert CloneBundle in kinds
    if run == "synthetic-retrace":
        assert RelayMessage in kinds
    for payload in tapped:
        assert payload.size_bytes() == _reference_size(payload), payload
        assert payload.size_bytes() == _reference_size(payload)  # and when cached


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

    copies = {"server": 0, "webquery": 0}

    def counting_replace(module_name, original):
        def replace(*args, **kwargs):
            copies[module_name] += 1
            return original(*args, **kwargs)

        return replace

    monkeypatch.setattr(QueryState, "__post_init__", counting_post_init)
    monkeypatch.setattr(
        server_module, "replace", counting_replace("server", server_module.replace)
    )
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
    # ...and no dataclasses.replace per clone or per report: the one copy is
    # submit's with_qid.
    assert copies == {"server": 0, "webquery": 1}


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

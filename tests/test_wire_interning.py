"""The codec's tables change what the codec costs, never what it says.

``repro.wire`` interns what every message repeats — URL text → ``Url``, a
query state's JSON → ``QueryState`` and a web-query's JSON → ``WebQuery`` on
decode — and keeps a ``WebQuery``'s and a ``QueryState``'s wire form on the
object on encode.  These tests hold the other side of that bargain: encoded
bytes are the pinned ones, byte for byte, whether the objects and tables are
cold or warm; a decode returns ``==`` values whose repeated
parts are the *same* objects; the tables stay bounded; and an encoded
fragment lives exactly as long as its object.  (What a hostile frame can and
cannot do to the tables is in ``test_wire_fuzz.py``.)
"""

from __future__ import annotations

import functools
import gc
import hashlib
import importlib.util
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from repro import EngineConfig, WebDisEngine, wire
from repro.core.messages import CloneBundle, RelayMessage, ResultMessage
from repro.core.state import QueryState
from repro.core.webquery import QueryClone, WebQuery
from repro.web import build_campus_web
from repro.web.campus import CAMPUS_QUERY_DISQL
from repro.wire import decode_message, encode_message, wire_size

from .test_protocol_pins import _WIRE_DIGESTS, _bundle, _relay, _result

_TABLES = (
    wire._DECODED_URLS, wire._DECODED_STATES, wire._DECODED_QUERIES, wire._QUERY_ORIGINS,
)


def _clear_tables() -> None:
    for table in _TABLES:
        table.clear()


def _e1_workloads():
    """EXP-E1's workload table, loaded by path (``benchmarks/`` is not a package)."""
    name = "e2e_workloads_for_wire_pins"
    if name not in sys.modules:
        path = Path(__file__).resolve().parents[1] / "benchmarks" / "e2e" / "workloads.py"
        spec = importlib.util.spec_from_file_location(name, path)
        module = importlib.util.module_from_spec(spec)
        sys.modules[name] = module  # dataclasses look their module up by name
        spec.loader.exec_module(module)
    return {workload.name: workload for workload in sys.modules[name].WORKLOADS}


#: Per EXP-E1 workload: messages tapped while the simulator runs the first
#: two pool queries of the seed-1 plan, their encoded bytes in total, and the
#: sha256 of those bytes in delivery order.  Re-captured at ``WIRE_VERSION`` 4,
#: where a row value the body's table holds is a reference, a child id a step
#: from the previous one, a disposition one character and a report's keys one
#: or two letters (the message count is unchanged); ``_E1_PARENTS`` holds what
#: they were.
_E1_MESSAGES = {
    "cold_default": (50, 27317, "d4bbc9df66cc408bde1e802c52a44da4e82a9047fbd12b65c741649aa5cfbe30"),
    "warm_zipf": (190, 107564, "8ef90a53b1de5ca4b5c297df7ae89b77ccf10a8e83d61c38adf573fb75b24903"),
    "eval_join": (16, 10137, "cec57f2548f293f56d25127f8651a6ad741c917fa2528b3bd1b7d3967830b010"),
    "wire_tenants": (48, 26773, "fdf00cc132c39db12d7b44f335bd8cd3080ece4c6257d08eb9577b404e19559b"),
}

#: The same message sets at earlier versions, ``(encoded bytes, modelled
#: bytes)`` in total: ``WIRE_VERSION`` 1 wrote one JSON object per node in
#: each result message, version 2 each report once, as columns.  Version 3
#: wrote cold_default in (30230, 16249), warm_zipf in (119738, 65165),
#: eval_join in (10848, 5412) and wire_tenants in (29755, 15856).
_E1_PARENTS = {
    1: {
        "cold_default": (49260, 26348),
        "warm_zipf": (198090, 105463),
        "eval_join": (14432, 7137),
        "wire_tenants": (45327, 23456),
    },
    2: {
        "cold_default": (33277, 18695),
        "warm_zipf": (133956, 75549),
        "eval_join": (11120, 5580),
        "wire_tenants": (33251, 17841),
    },
}


def _fell_to(name: str, tapped: list, version: int) -> tuple[float, float]:
    """``tapped``'s encoded and modelled totals as fractions of ``version``'s."""
    real_before, modelled_before = _E1_PARENTS[version][name]
    real = sum(wire_size(payload) for payload in tapped)
    modelled = sum(payload.size_bytes() for payload in tapped)
    return real / real_before, modelled / modelled_before


def _tapped(name: str) -> list:
    workload = _e1_workloads()[name]
    engine = WebDisEngine(workload.build_web(1), config=EngineConfig(**workload.config))
    tapped: list = []
    engine.network.add_tap(lambda now, src, dst, port, payload: tapped.append(payload))
    for text in workload.plan(1).pool[:2]:
        engine.submit_disql(text)
        engine.run()
    return tapped


def _digest(blobs) -> tuple[int, int, str]:
    blobs = list(blobs)
    return len(blobs), sum(map(len, blobs)), hashlib.sha256(b"".join(blobs)).hexdigest()


@functools.cache
def _tapped_once(name: str) -> list:
    """``_tapped(name)``, run once per test session."""
    return _tapped(name)


@pytest.fixture(scope="module", params=sorted(_E1_MESSAGES))
def e1_messages(request):
    return request.param, _tapped_once(request.param)


class TestEncodedBytesAreThePreviousOnes:
    def test_cold_and_warm_tables_encode_the_pinned_bytes(self, e1_messages):
        name, __ = e1_messages
        fresh = _tapped(name)  # objects no encode has touched yet
        holders = [part for payload in fresh for part in _encoded_parts(payload)]
        assert holders and all(part._wire is None for part in holders)
        _clear_tables()
        cold = [encode_message(payload) for payload in fresh]
        assert all(part._wire is not None for part in holders)  # kept on the object
        warm = [encode_message(payload) for payload in fresh]
        assert _digest(cold) == _digest(warm) == _E1_MESSAGES[name]

    def test_an_equal_but_distinct_object_encodes_identically(self, e1_messages):
        __, tapped = e1_messages
        for payload in tapped:
            encoded = encode_message(payload)
            _clear_tables()  # the twin is built from nothing this process holds
            twin = decode_message(encoded)
            assert twin == payload and twin is not payload
            assert encode_message(twin) == encoded

    def test_wire_size_is_unchanged(self, e1_messages):
        name, tapped = e1_messages
        assert sum(wire_size(payload) for payload in tapped) == _E1_MESSAGES[name][1]

    def test_real_bytes_fell_by_at_least_the_modelled_fraction(self, e1_messages):
        """The size model may understate what a leaner body saves, never
        overstate it: since version 1, encoded bytes fell at least as far as
        modelled ones."""
        real, modelled = _fell_to(*e1_messages, version=1)
        assert real <= modelled < 1

    @pytest.mark.parametrize("name", [
        "eval_join",
        "wire_tenants",
        *(pytest.param(name, marks=pytest.mark.xfail(
            strict=True,
            raises=AssertionError,
            reason="the size model charges a string's quotes but no other JSON syntax, so "
            "what the model counts is a larger share of the modelled bytes than of the "
            "encoded ones: since version 2, real/modelled fractions are 0.821/0.792 on "
            "cold_default and 0.803/0.782 on warm_zipf (ROADMAP item 8)",
        )) for name in ("cold_default", "warm_zipf")),
    ])
    def test_since_version_2_real_bytes_fell_by_at_least_the_modelled_fraction(self, name):
        real, modelled = _fell_to(name, _tapped_once(name), version=2)
        assert real <= modelled < 1

    @pytest.mark.parametrize("pin", sorted(_WIRE_DIGESTS))
    def test_protocol_pin_messages_cold_and_warm(self, pin):
        build, digest = _WIRE_DIGESTS[pin]
        for clear in (True, False, False):
            if clear:
                _clear_tables()
            message = build()
            assert hashlib.sha256(encode_message(message)).hexdigest() == digest
            assert wire_size(message) == len(encode_message(message))


def _encoded_parts(message) -> list:
    """Every ``WebQuery`` / ``QueryState`` an encode keeps a fragment on."""
    if isinstance(message, CloneBundle):
        return [part for clone in message.clones for part in _encoded_parts(clone)]
    if isinstance(message, QueryClone):
        return [message.query]
    if isinstance(message, RelayMessage):
        return _encoded_parts(message.inner)
    return [
        state
        for report in message.reports
        for state in (report.state, *(state for __, state in report.new_entries))
    ]


def _interned_parts(message) -> list:
    """Every ``Url``, ``QueryState`` and ``WebQuery`` a decoded message holds."""
    if isinstance(message, CloneBundle):
        return [part for clone in message.clones for part in _interned_parts(clone)]
    if isinstance(message, QueryClone):
        return [message.query, *message.query.start_urls, *message.dest]
    if isinstance(message, RelayMessage):
        return _interned_parts(message.inner)
    assert isinstance(message, ResultMessage)
    parts = []
    for report in message.reports:
        parts += [report.state, *report.nodes]
        for node, state in report.new_entries:
            parts += [node, state]
    return parts


class TestDecodeInterns:
    def test_decoding_twice_yields_equal_messages_sharing_their_parts(self, e1_messages):
        __, tapped = e1_messages
        _clear_tables()
        for payload in tapped:
            encoded = encode_message(payload)
            first, second = decode_message(encoded), decode_message(encoded)
            assert first == second == payload and first is not second
            ones, twos = _interned_parts(first), _interned_parts(second)
            assert ones and len(ones) == len(twos)
            assert all(one is two for one, two in zip(ones, twos))

    def test_the_same_url_text_is_one_object_wherever_it_appears(self):
        _clear_tables()
        result = decode_message(encode_message(_result()))
        bundle = decode_message(encode_message(_bundle()))
        relay = decode_message(encode_message(_relay()))
        assert bundle.clones[0].dest[0] is result.reports[0].nodes[0]  # b.example/x
        assert relay.inner.reports[0].nodes[0] is result.reports[0].nodes[0]
        assert relay.inner.reports[0].state is result.reports[0].state
        # ...but a fragment makes a different URL, not a different spelling.
        assert bundle.clones[1].dest[0] is not result.reports[0].nodes[0]

    def test_a_hit_is_what_a_miss_would_build(self):
        _clear_tables()
        cold = decode_message(encode_message(_result()))
        warm = decode_message(encode_message(_result()))
        _clear_tables()
        again = decode_message(encode_message(_result()))
        assert cold == warm == again == _result()
        assert repr(cold) == repr(warm) == repr(again) == repr(_result())
        assert warm.reports[0].nodes[0] is cold.reports[0].nodes[0]
        assert warm.reports[0].state is cold.reports[0].state
        assert again.reports[0].nodes[0] is not cold.reports[0].nodes[0]
        assert again.reports[0].state is not cold.reports[0].state


class TestFragmentsLiveWithTheirObject:
    def test_an_equal_but_distinct_query_encodes_the_same_bytes(self):
        clone = _bundle().clones[0]
        expected = encode_message(clone)
        assert clone.query._wire is not None
        twin = replace(clone, query=clone.query.with_qid(clone.query.qid))
        assert twin.query == clone.query and twin.query._wire is None
        assert encode_message(twin) == expected
        assert twin.query._wire == clone.query._wire
        assert twin.query._wire is not clone.query._wire  # its own, built again

    def test_an_equal_but_distinct_state_encodes_the_same_bytes(self):
        message = _result()
        expected = encode_message(message)
        report = message.reports[0]
        twin = QueryState(report.state.num_q, report.state.rem)
        assert twin == report.state and twin._wire is None
        twinned = replace(message, reports=(replace(report, state=twin), *message.reports[1:]))
        assert encode_message(twinned) == expected
        assert twin._wire == report.state._wire and twin._wire is not report.state._wire

    def test_dropping_the_query_frees_its_fragment(self):
        clone = _bundle().clones[0]
        query = clone.query.with_qid(clone.query.qid)
        qid = query.qid
        encode_message(replace(clone, query=query))
        fragment = query._wire
        # Held by the query's slot and this frame only: no codec table has it.
        assert sys.getrefcount(fragment) == 3
        del query
        gc.collect()
        assert sys.getrefcount(fragment) == 2
        assert not [
            live for live in gc.get_objects()
            if type(live) is WebQuery and live.qid == qid and live._wire is fragment
        ]

    def test_dropping_a_state_frees_its_fragment(self):
        state = QueryState(3, _result().reports[0].state.rem)
        message = _result()
        report = message.reports[0]
        encode_message(replace(message, reports=(replace(report, state=state),)))
        fragment = state._wire
        assert sys.getrefcount(fragment) == 3
        del state
        assert sys.getrefcount(fragment) == 2


class TestTablesAreBounded:
    def test_ten_times_the_table_of_distinct_urls(self):
        _clear_tables()
        limit = wire._DECODE_TABLE_SIZE
        template = encode_message(_result()).decode()
        node = '"n":["http://b.example/x"'
        assert template.count(node) == 1
        for serial in range(10 * limit):
            message = decode_message(
                template.replace(node, f'"n":["http://b.example/x{serial}"').encode()
            )
            assert message.reports[0].nodes[0].path == f"/x{serial}"
        assert len(wire._DECODED_URLS) <= limit
        assert len(wire._DECODED_STATES) <= limit
        # Oldest out first: the latest are still interned, the first are not.
        assert f"http://b.example/x{10 * limit - 1}" in wire._DECODED_URLS
        assert "http://b.example/x0" not in wire._DECODED_URLS

    def test_ten_times_the_table_of_distinct_queries(self):
        """Distinct queries of one origin that never advances its mark (every
        clone marked 1), and of as many origins as queries: the cap holds."""
        clone = _bundle().clones[0]
        limit = wire._QUERY_TABLE_SIZE
        for origins in ("one", "many"):
            _clear_tables()
            for serial in range(2, 10 * limit + 2):
                user = "maya" if origins == "one" else f"user{serial}"
                qid = replace(clone.query.qid, user=user, number=serial)
                sent = replace(clone, query=clone.query.with_qid(qid, done_below=1))
                assert decode_message(encode_message(sent)) == sent
            assert len(wire._DECODED_QUERIES) == limit
            assert sum(map(len, wire._QUERY_ORIGINS.values())) == limit
            assert len(wire._QUERY_ORIGINS) == (1 if origins == "one" else limit)

    def test_a_mark_drops_its_origins_older_queries(self):
        """Decoding a query marked ``m`` forgets its origin's queries numbered
        below ``m``, and nobody else's."""
        _clear_tables()
        clone = _bundle().clones[0]
        host = clone.query.qid.host

        def decode(user: str, number: int, mark: int | None = None) -> None:
            qid = replace(clone.query.qid, user=user, number=number)
            sent = replace(clone, query=clone.query.with_qid(qid, done_below=mark))
            assert decode_message(encode_message(sent)) == sent

        def numbers(user: str) -> list[int]:
            return sorted(wire._QUERY_ORIGINS.get((user, host), {}).values())

        decode("maya", 1)
        for number in (2, 3):
            decode("maya", number, mark=1)
        decode("ravi", 1)
        assert numbers("maya") == [1, 2, 3]
        decode("maya", 5, mark=3)
        assert (numbers("maya"), numbers("ravi")) == ([3, 5], [1])
        decode("maya", 4, mark=2)  # a late clone with an older mark drops nothing new
        assert numbers("maya") == [3, 4, 5]
        decode("maya", 6)  # sequential: nothing older is live
        assert (numbers("maya"), numbers("ravi")) == ([6], [1])
        assert len(wire._DECODED_QUERIES) == 2

    def test_no_reset_is_needed_between_engines_or_after_a_crash(self):
        """One engine's traffic warms the tables, a server crashes, a second
        engine runs over a different web: everything still decodes to itself."""
        _clear_tables()
        campus = WebDisEngine(build_campus_web())
        tapped: list = []
        campus.network.add_tap(lambda now, src, dst, port, payload: tapped.append(payload))
        campus.submit_disql(CAMPUS_QUERY_DISQL)
        campus.run()
        before = [decode_message(encode_message(payload)) for payload in tapped]
        campus.crash_server(sorted(campus.servers)[0])
        for payload in _tapped("wire_tenants"):
            assert decode_message(encode_message(payload)) == payload
        after = [decode_message(encode_message(payload)) for payload in tapped]
        assert before == after == tapped

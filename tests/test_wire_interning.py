"""The codec's tables change what the codec costs, never what it says.

``repro.wire`` interns what every message repeats — URL text → ``Url`` and a
CHT entry's JSON → ``ChtEntry`` on decode, a ``WebQuery``'s and a
``QueryState``'s fragment on encode.  These tests hold the other side of that
bargain: encoded bytes are the previous implementation's, byte for byte,
whether the tables are cold or warm; a decode returns ``==`` values whose
repeated parts are the *same* objects; and the tables stay bounded.  (What a
hostile frame can and cannot do to them is in ``test_wire_fuzz.py``.)
"""

from __future__ import annotations

import hashlib
import importlib.util
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from repro import EngineConfig, WebDisEngine, wire
from repro.core.messages import CloneBundle, RelayMessage, ResultMessage
from repro.core.webquery import QueryClone
from repro.web import build_campus_web
from repro.web.campus import CAMPUS_QUERY_DISQL
from repro.wire import decode_message, encode_message, wire_size

from .test_protocol_pins import _WIRE_DIGESTS, _bundle, _relay, _result

_TABLES = (wire._DECODED_URLS, wire._DECODED_ENTRIES, wire._ENCODED_FRAGMENTS)


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
#: sha256 of those bytes in delivery order — captured at the previous commit.
_E1_MESSAGES = {
    "cold_default": (50, 50813, "4cc6a19c15d09703008c7f766e64713c44c50fe3b46f7acc8f0586c464f13328"),
    "warm_zipf": (190, 205284, "99fb35deb4a103af73bebdd9e48c0842d996baed559d79416e6453a670e12492"),
    "eval_join": (16, 14432, "b91e9871af794738c8459b10ec8c138553f3a6c9f376231d23c6ccc4c9dbbe10"),
    "wire_tenants": (48, 46116, "0b129a551600484ec16ab7c7f4f5f3dd6f8c06e0247205d92e19de656e3f7631"),
}


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


@pytest.fixture(scope="module", params=sorted(_E1_MESSAGES))
def e1_messages(request):
    return request.param, _tapped(request.param)


class TestEncodedBytesAreThePreviousOnes:
    def test_cold_and_warm_tables_encode_the_pinned_bytes(self, e1_messages):
        name, tapped = e1_messages
        _clear_tables()
        cold = [encode_message(payload) for payload in tapped]
        assert wire._ENCODED_FRAGMENTS  # the run did go through the tables
        warm = [encode_message(payload) for payload in tapped]
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

    @pytest.mark.parametrize("pin", sorted(_WIRE_DIGESTS))
    def test_protocol_pin_messages_cold_and_warm(self, pin):
        build, digest = _WIRE_DIGESTS[pin]
        for clear in (True, False, False):
            if clear:
                _clear_tables()
            message = build()
            assert hashlib.sha256(encode_message(message)).hexdigest() == digest
            assert wire_size(message) == len(encode_message(message))


def _interned_parts(message) -> list:
    """Every ``Url``, ``ChtEntry`` and ``WebQuery`` a decoded message holds."""
    if isinstance(message, CloneBundle):
        return [part for clone in message.clones for part in _interned_parts(clone)]
    if isinstance(message, QueryClone):
        return [message.query, *message.query.start_urls, *message.dest]
    if isinstance(message, RelayMessage):
        return _interned_parts(message.inner)
    assert isinstance(message, ResultMessage)
    parts = []
    for report in message.reports:
        for entry in (report.entry, *report.new_entries):
            parts += [entry, entry.node]
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
        assert bundle.clones[0].dest[0] is result.reports[0].entry.node  # b.example/x
        assert relay.inner.reports[0].entry is result.reports[0].entry
        # ...but a fragment makes a different URL, not a different spelling.
        assert bundle.clones[1].dest[0] is not result.reports[0].entry.node

    def test_a_hit_is_what_a_miss_would_build(self):
        _clear_tables()
        cold = decode_message(encode_message(_result()))
        warm = decode_message(encode_message(_result()))
        _clear_tables()
        again = decode_message(encode_message(_result()))
        assert cold == warm == again == _result()
        assert repr(cold) == repr(warm) == repr(again) == repr(_result())
        assert warm.reports[0].entry is cold.reports[0].entry
        assert again.reports[0].entry is not cold.reports[0].entry


class TestTablesAreBounded:
    def test_ten_times_the_table_of_distinct_urls(self):
        _clear_tables()
        limit = wire._DECODE_TABLE_SIZE
        template = encode_message(_result()).decode()
        node = '"node":"http://b.example/x"'
        assert template.count(node) == 1
        for serial in range(10 * limit):
            message = decode_message(
                template.replace(node, f'"node":"http://b.example/x{serial}"').encode()
            )
            assert message.reports[0].entry.node.path == f"/x{serial}"
        assert len(wire._DECODED_URLS) <= limit
        assert len(wire._DECODED_ENTRIES) <= limit
        # Oldest out first: the latest are still interned, the first are not.
        assert f"http://b.example/x{10 * limit - 1}" in wire._DECODED_URLS
        assert "http://b.example/x0" not in wire._DECODED_URLS

    def test_ten_times_the_table_of_distinct_queries(self):
        _clear_tables()
        bundle = _bundle()
        limit = wire._FRAGMENT_TABLE_SIZE
        expected = encode_message(bundle.clones[0])
        for serial in range(3 * limit):
            query = bundle.clones[0].query.with_qid(bundle.clones[0].query.qid)
            clone = replace(bundle.clones[0], query=query)  # equal, distinct object
            assert encode_message(clone) == expected
        assert len(wire._ENCODED_FRAGMENTS) <= limit

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

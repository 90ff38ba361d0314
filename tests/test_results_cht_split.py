"""The results/CHT-separation ablation returns every row the combined message does.

With ``combine_results_and_cht=False`` (§3.2's optimization 3 switched off) a
server sends each batch of reports twice: the CHT half — every column but the
rows, its ``row_ends`` still counting them — and then the rows.  The CHT half
of a query's last report could complete the query, and close its result port,
before the rows arrive: on the simulator a later, smaller message overtakes
them, and on sockets the rows leave only once the CHT half was processed.  So
the user-site retires a node with rows only once both halves are in, in either
order, and the ablation changes what crosses the network, never the answer.
"""

from __future__ import annotations

import asyncio
from collections import Counter

from repro import EngineConfig, QueryStatus, WebDisEngine
from repro.core.aio_engine import AsyncioWebDisEngine
from repro.core.messages import ResultMessage
from repro.web.campus import CAMPUS_QUERY_DISQL, EXPECTED_CONVENER_ROWS

from .test_wire_interning import _e1_workloads

_SPLIT = {"combine_results_and_cht": False}


def _rows(handle) -> Counter:
    return Counter((label, row.values) for label, row, __ in handle.results)


def _run(web, config: EngineConfig, text: str):
    engine = WebDisEngine(web, config=config)
    handle = engine.run_query(text)
    assert handle.status is QueryStatus.COMPLETE
    assert handle.cht.imbalance() == 0
    return handle


class TestSimulator:
    def test_the_cold_pool_returns_the_combined_rows(self):
        workload = _e1_workloads()["cold_default"]
        web = workload.build_web(1)
        for text in workload.plan(1).pool:
            combined = _run(web, EngineConfig(**workload.config), text)
            split = _run(web, EngineConfig(**workload.config, **_SPLIT), text)
            assert _rows(split) == _rows(combined), text

    def test_a_node_retires_once_both_halves_are_in_whatever_their_order(self, campus_web):
        recorder = WebDisEngine(campus_web, config=EngineConfig(**_SPLIT))
        messages: list = []
        recorder.network.add_tap(
            lambda now, src, dst, port, payload: messages.append((src, payload))
            if isinstance(payload, ResultMessage) else None
        )
        recorded = recorder.run_query(CAMPUS_QUERY_DISQL)
        halves = [(src, message) for src, message in messages if message.kind == "cht"]
        rows = [(src, message) for src, message in messages if message.kind != "cht"]
        assert halves and rows

        for order in (halves + rows, rows + halves):
            # The same query on a fresh engine, its messages handed to the
            # user-site straight, in ``order``: first every CHT half, then
            # every message of rows — and the other way round.
            engine = WebDisEngine(campus_web, config=EngineConfig(**_SPLIT))
            handle = engine.submit_disql(CAMPUS_QUERY_DISQL)
            for index, (src, message) in enumerate(order):
                assert handle.status is QueryStatus.RUNNING, index
                engine.client._receive(handle, src, message)
            assert handle.status is QueryStatus.COMPLETE
            assert _rows(handle) == _rows(recorded)
            assert not handle.lone_halves and handle.cht.imbalance() == 0


def _on_sockets(web, config: EngineConfig, texts: list[str]) -> list:
    async def main() -> list:
        engine = AsyncioWebDisEngine(web, config=config)
        try:
            handles = []
            for text in texts:
                handle = engine.submit_disql(text)
                await engine.run([handle], timeout=30.0)
                handles.append(handle)
            return handles
        finally:
            await engine.aclose()

    return asyncio.run(main())


class TestSockets:
    def test_the_campus_query_returns_figure_8(self, campus_web):
        [handle] = _on_sockets(
            campus_web, EngineConfig(transport="asyncio", **_SPLIT), [CAMPUS_QUERY_DISQL]
        )
        assert handle.status is QueryStatus.COMPLETE
        assert {row.values for row in handle.unique_rows("q2")} == set(EXPECTED_CONVENER_ROWS)

    def test_the_first_cold_queries_return_the_combined_rows(self):
        workload = _e1_workloads()["cold_default"]
        web = workload.build_web(1)
        texts = list(workload.plan(1).pool[:4])
        config = dict(workload.config, transport="asyncio", **_SPLIT)
        for text, handle in zip(texts, _on_sockets(web, EngineConfig(**config), texts)):
            assert handle.status is QueryStatus.COMPLETE
            combined = _run(web, EngineConfig(**workload.config), text)
            assert _rows(handle) == _rows(combined), text

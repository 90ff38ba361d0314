"""The completion watermark: finished queries leave nothing behind.

Each query a user-site submits carries the smallest number among its
queries not yet terminal (``WebQuery.mark``; explicit ``done_below`` only
when an older query is still running).  A server's admission stage keeps
the highest mark per origin and drops the log entries and purge records of
that origin's queries below it; a clone of a query below the mark is
dropped like a purged one.  Every case checks rows against the
data-shipping oracle and the run against ``check_watermark``.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

from repro import (
    EngineConfig, FaultPlan, NetworkConfig, QueryStatus, RetryPolicy, WebDisEngine,
)
from repro.baselines.datashipping import DataShippingEngine
from repro.core.webquery import QueryClone
from repro.net.network import QUERY_PORT
from repro.testing.invariants import check_watermark
from repro.web.synthetic import SyntheticWebConfig, build_synthetic_web

WEB = build_synthetic_web(SyntheticWebConfig(sites=5, pages_per_site=5, seed=3))
SITES = WEB.site_names


def _query(site: str, depth: int = 3) -> str:
    return (
        f'select d.url, d.title, a.href from document d such that "http://{site}/" '
        f'(L|G)*{depth} d, anchor a where d.title contains "topic"'
    )


def _rows(results) -> frozenset:
    return frozenset((label, row.header, row.values) for label, row, __ in results)


_ORACLE: dict[str, frozenset] = {}


def _oracle(text: str) -> frozenset:
    if text not in _ORACLE:
        _ORACLE[text] = _rows(DataShippingEngine(WEB).run_query(text).results)
    return _ORACLE[text]


def _held(engine) -> dict[str, list[int]]:
    """Per server, the numbers of the queries holding log entries there."""
    return {
        site: sorted(qid.number for qid in server.log_table.queries())
        for site, server in engine.servers.items()
    }


def _slow_engine(**kwargs) -> WebDisEngine:
    """Transfers slow enough that a second query overlaps the first."""
    return WebDisEngine(WEB, net_config=NetworkConfig(latency_base=0.2), **kwargs)


def test_sequential_warm_queries_keep_the_log_flat():
    engine = WebDisEngine(WEB)
    texts = [_query(site, depth) for site in SITES[:3] for depth in (3, 2)]
    entries = []
    for index in range(300):
        text = texts[index % len(texts)]
        handle = engine.submit_disql(text)
        engine.run()
        assert handle.status is QueryStatus.COMPLETE
        assert handle.query.done_below is None  # nothing older was running
        assert _rows(handle.results) == _oracle(text)
        entries.append(engine.total_log_entries())
    # Each server holds at most the last query that visited it.
    assert max(entries[len(texts):]) <= max(entries[: len(texts)])
    assert all(numbers and numbers[-1] - numbers[0] < len(texts)
               for numbers in _held(engine).values())
    assert check_watermark(engine) == []


def test_an_older_running_query_keeps_its_entries():
    engine = _slow_engine()
    text = _query(SITES[0])
    first = engine.submit_disql(text)
    engine.run(until=0.5)
    before = _held(engine)
    assert all(1 in numbers for numbers in before.values())

    second = engine.submit_disql(text)
    assert (second.query.done_below, second.query.mark) == (1, 1)
    engine.run(until=1.0)
    assert first.status is QueryStatus.RUNNING
    during = _held(engine)
    assert all(numbers == [1, 2] for numbers in during.values()), during
    assert check_watermark(engine, [first, second]) == []

    engine.run()
    assert first.status is second.status is QueryStatus.COMPLETE
    third = engine.submit_disql(text)
    assert third.query.done_below is None and third.query.mark == 3
    engine.run()
    assert all(numbers == [3] for numbers in _held(engine).values())
    for handle in (first, second, third):
        assert _rows(handle.results) == _oracle(text)
    assert check_watermark(engine, [first, second, third]) == []


def test_a_query_submitted_behind_two_running_ones_carries_the_oldest():
    engine = _slow_engine()
    handles = [engine.submit_disql(_query(site)) for site in SITES[:3]]
    assert [handle.query.mark for handle in handles] == [1, 1, 1]
    engine.run()
    later = engine.submit_disql(_query(SITES[3]))
    assert later.query.done_below is None
    engine.run()
    assert check_watermark(engine, [*handles, later]) == []


@pytest.mark.parametrize("finish", ["cancel", "partial"])
def test_the_mark_passes_a_cancelled_or_partial_query(finish):
    engine = _slow_engine(trace=True)
    text = _query(SITES[0])
    first = engine.submit_disql(text)
    engine.run(until=0.5)
    if finish == "cancel":
        engine.client.cancel(first)
    else:
        engine.client.finish_partial(first, "given up")
    engine.run()
    # Clones still in flight were processed, their reports refused, and the
    # query purged where that happened — as without the watermark.
    assert engine.stats.refused_sends > 0
    assert any(first.qid in server._purged for server in engine.servers.values())

    second = engine.submit_disql(text)
    assert second.query.done_below is None
    engine.run()
    assert second.status is QueryStatus.COMPLETE
    assert _rows(second.results) == _oracle(text)
    for server in engine.servers.values():
        assert first.qid not in server._purged
        assert first.qid not in server.log_table.queries()
    assert check_watermark(engine, [first, second]) == []

    # A late clone of the finished query is dropped at admission now: no
    # visit, no log entry, no report to refuse.
    late = QueryClone.at(
        first.query, first.query.program.starts[0], (first.query.start_urls[0],),
        dispatch_id="late@test",
    )
    seen, refused = len(engine.tracer.events), engine.stats.refused_sends
    engine.network.send(engine.user_site, late.site, QUERY_PORT, late)
    engine.run()
    assert [event.action for event in engine.tracer.events[seen:]] == ["purged"]
    assert engine.stats.refused_sends == refused
    # A refusal landing after the mark (a report retried across it) records
    # nothing either.
    engine.servers[late.site]._purge(late)
    assert check_watermark(engine, [first, second]) == []


def test_a_superseded_clone_of_a_complete_query_is_dropped_past_the_mark():
    """A re-forward can complete a query while the clone it superseded flies."""
    config = EngineConfig(retry_policy=RetryPolicy(
        max_attempts=2, base_delay=30.0, max_delay=30.0, jitter=0.0,
    ))
    engine = WebDisEngine(WEB, config=config, trace=True)
    start = SITES[0]
    # The first connect to the start site fails; its retry fires at 30 s.
    engine.apply_faults(FaultPlan(seed=0).drop(1.0, src=engine.user_site, dst=start, end=0.05))
    text = _query(start)
    first = engine.submit_disql(text)
    engine.run(until=0.1)
    assert engine.client.reforward_pending(first) == 1
    engine.run(until=10.0)
    assert first.status is QueryStatus.COMPLETE  # the re-forward's report did it

    second = engine.submit_disql(text)
    assert second.query.mark == 2
    seen = len(engine.tracer.events)
    engine.run()
    assert engine.stats.retried_sends == 1 and engine.clock.now > 30.0
    # The superseded clone reached a server holding mark 2: dropped unvisited.
    late = [event for event in engine.tracer.events[seen:] if event.time > 30.0]
    assert [(event.action, event.site) for event in late] == [("purged", start)]
    assert engine.stats.refused_sends == 0
    for handle in (first, second):
        assert handle.status is QueryStatus.COMPLETE
        assert _rows(handle.results) == _oracle(text)
    assert check_watermark(engine, [first, second]) == []


def test_a_crashed_server_loses_its_marks_with_its_table():
    engine = WebDisEngine(WEB)
    text = _query(SITES[0])
    for __ in range(2):
        engine.submit_disql(text)
        engine.run()
    server = engine.servers[SITES[1]]
    assert server._marks == {("maya", engine.user_site): 2}
    engine.crash_server(SITES[1])
    assert server._marks == {} and server.log_table.queries() == []
    engine.restart_server(SITES[1])
    handle = engine.submit_disql(text)
    engine.run()
    assert handle.status is QueryStatus.COMPLETE
    assert _rows(handle.results) == _oracle(text)
    assert server._marks == {("maya", engine.user_site): 3}
    assert check_watermark(engine, [handle]) == []


def test_check_watermark_flags_state_below_the_mark_and_a_mark_above_a_live_query():
    engine = _slow_engine()
    first = engine.submit_disql(_query(SITES[0]))
    engine.run(until=0.5)
    assert check_watermark(engine, [first]) == []
    server = engine.servers[SITES[0]]
    server._marks[("maya", engine.user_site)] = 2
    server._purged.add(first.qid)
    details = sorted(violation.detail for violation in check_watermark(engine, [first]))
    assert details == [
        f"server {SITES[0]} holds a purge record below its watermark 2",
        f"server {SITES[0]} holds log entries below its watermark 2",
        f"server {SITES[0]} holds watermark 2 above running query 1",
    ]


def test_a_silent_origin_ages_out_with_log_max_age():
    """The backstop for a user-site that never advances its mark."""
    config = EngineConfig(log_max_age=10.0)
    engine = WebDisEngine(WEB, config=config)
    text = _query(SITES[0])
    engine.submit_disql(text)
    engine.run()
    assert all(numbers == [1] for numbers in _held(engine).values())
    engine.clock.schedule(config.log_max_age + 1.0, lambda: None)
    engine.run()
    engine.client.user = "other"  # maya went silent; another origin keeps querying
    handle = engine.submit_disql(text)
    engine.run()
    assert _rows(handle.results) == _oracle(text)
    assert all(numbers == [2] for numbers in _held(engine).values())


def test_the_load_driver_keeps_the_log_at_the_in_flight_level():
    """``tools/load.py``: overlapping warm queries under Poisson arrivals."""
    spec = importlib.util.spec_from_file_location(
        "load_for_tests", Path(__file__).resolve().parents[1] / "tools" / "load.py"
    )
    load = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(load)
    result = load.run_load(
        queries=120, rate=4.0, mix=(0, 1, 0), intervals=4, seed=1, cancel_share=0.0,
    )
    assert (result["finished"], result["failed"]) == (120, 0)
    assert max(sample["running"] for sample in result["intervals"]) > 1  # they overlap
    # A warm query logs about 94 entries; without the watermark these 120
    # left over 11,000 behind.
    assert max(sample["log_entries"] for sample in result["intervals"]) < 1000
    assert all(sample["purge_records"] == 0 for sample in result["intervals"])

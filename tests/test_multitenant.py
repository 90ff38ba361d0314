"""Multi-tenant robustness: fair scheduling, admission control, shedding.

The scheduler (``repro.core.scheduler``) replaces the §4.4 single FIFO
with per-query run-queues; these tests pin down the ring's mechanics
(RR order, ceilings, victim choice), the transport-level admission path
(``SendOutcome.OVERLOADED`` — transient, retried with backoff, distinct
from the never-retried §2.8 REFUSED), graceful load shedding (saturated
server → victim query degrades to PARTIAL with per-node attribution),
crash queue-loss accounting, and the headline isolation property: N
interleaved queries each compute exactly what they compute solo.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro import EngineConfig, QueryStatus, WebDisEngine
from repro.core.messages import Disposition
from repro.core.scheduler import CloneScheduler
from repro.core.supervisor import QuerySupervisor, RecoveryPolicy
from repro.net import Network, SendOutcome, SimClock, TrafficStats
from repro.net.reliable import ReliableChannel, RetryPolicy
from repro.wire import decode_message, encode_message
from repro.testing.invariants import check_handle, check_queue_ceilings
from repro.web import SyntheticWebConfig, build_synthetic_web
from tests.conftest import outcome_of, without_memo


def _rows(handle):
    return frozenset(
        (label, row.header, row.values) for label, row, __ in handle.results
    )


class _FakeQid:
    """Orderable stand-in for QueryId in scheduler unit tests."""

    def __init__(self, name: str) -> None:
        self.name = name

    def __repr__(self) -> str:
        return self.name

    def __hash__(self) -> int:
        return hash(self.name)

    def __eq__(self, other) -> bool:
        return isinstance(other, _FakeQid) and self.name == other.name


class _FakeClone:
    def __init__(self, qid, tag: int) -> None:
        self.query = type("Q", (), {"qid": qid})()
        self.tag = tag


def _clones(qid, count: int, start: int = 0):
    return [_FakeClone(qid, start + i) for i in range(count)]


# -- scheduler policy mechanics -----------------------------------------------


class TestFairScheduler:
    """The ring of per-query run-queues."""

    def _scheduler(self, per_query_limit=None, server_limit=None):
        return CloneScheduler(per_query_limit, server_limit)

    def test_round_robin_interleaves_queries(self):
        scheduler = self._scheduler()
        a, b = _FakeQid("a"), _FakeQid("b")
        for clone in _clones(a, 3) + _clones(b, 2):
            assert scheduler.push(clone)
        order = [scheduler.pop().query.qid for __ in range(5)]
        assert order == [a, b, a, b, a]
        assert scheduler.pop() is None
        assert scheduler.total == 0

    def test_fifo_order_across_queries(self):
        # One clone per tenant per round: arrival order is also RR order.
        scheduler = self._scheduler()
        a, b = _FakeQid("a"), _FakeQid("b")
        scheduler.push(_FakeClone(a, 0))
        scheduler.push(_FakeClone(b, 1))
        scheduler.push(_FakeClone(a, 2))
        assert [scheduler.pop().tag for __ in range(3)] == [0, 1, 2]

    def test_single_query_degenerates_to_fifo(self):
        scheduler = self._scheduler()
        for clone in _clones(_FakeQid("solo"), 5):
            scheduler.push(clone)
        assert [scheduler.pop().tag for __ in range(5)] == [0, 1, 2, 3, 4]

    def test_per_query_ceiling_refuses_and_tracks_high_water(self):
        scheduler = self._scheduler(per_query_limit=2)
        q = _FakeQid("q")
        pushed = [scheduler.push(clone) for clone in _clones(q, 4)]
        assert pushed == [True, True, False, False]
        assert scheduler.max_query_depth_seen == 2
        assert not scheduler.would_admit({q: 1})
        other = _FakeQid("other")
        assert scheduler.would_admit({other: 2})
        assert not scheduler.would_admit({other: 3})

    def test_server_ceiling_spans_queries(self):
        scheduler = self._scheduler(server_limit=3)
        a, b = _FakeQid("a"), _FakeQid("b")
        assert all(scheduler.push(clone) for clone in _clones(a, 2))
        assert scheduler.push(_FakeClone(b, 0))
        assert not scheduler.push(_FakeClone(b, 1))
        assert not scheduler.would_admit({a: 1})

    def test_victim_is_deepest_queue(self):
        scheduler = self._scheduler()
        a, b = _FakeQid("a"), _FakeQid("b")
        for clone in _clones(a, 1) + _clones(b, 3):
            scheduler.push(clone)
        assert scheduler.victim() == b
        dropped = scheduler.drop_query(b)
        assert [clone.tag for clone in dropped] == [0, 1, 2]
        assert scheduler.depths() == {a: 1}
        # The dropped query is no longer served.
        assert scheduler.pop().query.qid == a
        assert scheduler.pop() is None
        assert scheduler.victim() is None

    def test_drop_query_keeps_other_tenants_in_order(self):
        scheduler = self._scheduler()
        a, b = _FakeQid("a"), _FakeQid("b")
        for tag, qid in enumerate((b, a, b, a, b)):
            scheduler.push(_FakeClone(qid, tag))
        assert [clone.tag for clone in scheduler.drop_query(a)] == [1, 3]
        assert scheduler.drop_query(a) == []
        assert scheduler.total == 3 and scheduler.depths() == {b: 3}
        assert [scheduler.pop().tag for __ in range(3)] == [0, 2, 4]

    def test_take_same_query_respects_budget_and_ring(self):
        scheduler = self._scheduler()
        a, b = _FakeQid("a"), _FakeQid("b")
        for clone in _clones(a, 4) + _clones(b, 1):
            scheduler.push(clone)
        taken = scheduler.take_same_query(a, 2)
        assert [clone.tag for clone in taken] == [0, 1]
        assert scheduler.depths()[a] == 2
        # Draining the rest removes the query from service entirely.
        assert len(scheduler.take_same_query(a, None)) == 2
        assert scheduler.pop().query.qid == b
        assert scheduler.pop() is None
        assert scheduler.take_same_query(a, 0) == []

    def test_take_same_query_skips_other_tenants(self):
        scheduler = self._scheduler()
        a, b = _FakeQid("a"), _FakeQid("b")
        for tag, qid in enumerate((b, a, b, a, a, b)):
            scheduler.push(_FakeClone(qid, tag))
        # Budget 0 (a hop budget of one clone) takes nothing, moves nothing.
        assert scheduler.take_same_query(a, 0) == []
        assert scheduler.total == 6
        assert [clone.tag for clone in scheduler.take_same_query(a, 1)] == [1]
        assert [clone.tag for clone in scheduler.take_same_query(a, None)] == [3, 4]
        assert scheduler.depths() == {b: 3} and scheduler.total == 3
        # The other tenant's clones kept their places.
        assert [scheduler.pop().tag for __ in range(3)] == [0, 2, 5]
        assert scheduler.pop() is None

    def test_drain_returns_everything_in_ring_order(self):
        scheduler = self._scheduler()
        a, b = _FakeQid("a"), _FakeQid("b")
        for clone in _clones(a, 2) + _clones(b, 1, start=2):
            scheduler.push(clone)
        drained = scheduler.drain()
        assert [clone.tag for clone in drained] == [0, 1, 2]
        assert scheduler.total == 0 and scheduler.depths() == {}
        assert scheduler.pop() is None
        assert scheduler.push(_FakeClone(a, 3)) and scheduler.pop().tag == 3


# -- OVERLOADED: transient admission refusal with backoff ----------------------


class _Blob:
    kind = "blob"

    def size_bytes(self) -> int:
        return 8


class TestOverloadedOutcome:
    def _net(self):
        clock = SimClock()
        network = Network(clock, TrafficStats())
        network.register_site("a.example")
        network.register_site("b.example")
        return clock, network

    def test_admission_probe_refusal_is_transient_not_refused(self):
        clock, network = self._net()
        network.listen("b.example", 80, lambda s, p: None)
        network.set_admission("b.example", 80, lambda src, payload: False)
        outcome = outcome_of(network, "a.example", "b.example", 80, _Blob())
        assert outcome is SendOutcome.OVERLOADED
        assert outcome.transient
        assert outcome is not SendOutcome.REFUSED
        assert network.stats.overloaded_sends == 1

    def test_reliable_channel_backs_off_and_recovers(self):
        clock, network = self._net()
        received = []
        network.listen("b.example", 80, lambda s, p: received.append(p))
        admitted = {"open": False}
        network.set_admission(
            "b.example", 80, lambda src, payload: admitted["open"]
        )
        channel = ReliableChannel(
            network, clock, RetryPolicy(max_attempts=3, jitter=0.0), name="test"
        )
        finals = []
        channel.send("a.example", "b.example", 80, _Blob(), finals.append)
        assert network.stats.overloaded_sends == 1 and finals == []
        admitted["open"] = True  # pressure clears before the retry fires
        clock.run()
        assert finals == [SendOutcome.DELIVERED]
        assert received
        assert network.stats.sends_deferred == 1

    def test_clearing_the_probe_restores_admission(self):
        clock, network = self._net()
        network.listen("b.example", 80, lambda s, p: None)
        network.set_admission("b.example", 80, lambda src, payload: False)
        assert outcome_of(network, "a.example", "b.example", 80, _Blob()) \
            is SendOutcome.OVERLOADED
        network.set_admission("b.example", 80, None)
        assert outcome_of(network, "a.example", "b.example", 80, _Blob()) \
            is SendOutcome.DELIVERED

    def test_overloaded_disposition_round_trips_on_the_wire(self):
        from repro.core.messages import CloneReport, ResultMessage
        from repro.core.state import QueryState
        from repro.pre.parser import parse_pre
        from repro.urlutils import Url
        from repro.core.webquery import QueryId

        report = CloneReport(
            (Url("x.example", "/"),), QueryState(0, parse_pre("L*1")),
            (Disposition.OVERLOADED,), (), (0,), (), (), (0,), dispatch_id="d-1",
        )
        message = ResultMessage(
            QueryId("user.example", "user.example", 9000, 1), (report,), kind="cht"
        )
        assert decode_message(encode_message(message)) == message


# -- engine-level overload behaviour ------------------------------------------


def _dense_web():
    return build_synthetic_web(
        SyntheticWebConfig(
            sites=6, pages_per_site=20, local_out_degree=3,
            global_out_degree=2, padding_words=5, seed=917,
        )
    )


HOT_DISQL = (
    'select d.url from document d such that'
    ' "http://site000.example/" (L|G)*2 L* d\n'
    'where d.title contains "topic"'
)
SMALL_DISQL = (
    'select d.url, d.title from document d such that'
    ' "http://site001.example/" L d'
)


class TestLoadShedding:
    def test_saturated_server_sheds_to_partial_with_attribution(self):
        engine = WebDisEngine(
            _dense_web(),
            config=EngineConfig(
                pump_budget=2, server_queue_limit=3, shed_after=0.05,
                node_service_time=0.05,
            ),
            trace=True,
        )
        supervisor = QuerySupervisor(
            engine.client, RecoveryPolicy(quiet_timeout=5.0, deadline=120.0)
        )
        handle = engine.submit_disql(HOT_DISQL)
        supervisor.supervise(handle)
        engine.run()

        assert handle.status is QueryStatus.PARTIAL
        assert handle.partial_reason.startswith("overload-shed")
        assert handle.shed_nodes
        assert engine.stats.clones_shed > 0
        coverage = supervisor.coverage(handle)
        assert coverage.shed_nodes and not coverage.complete
        assert "shed" in coverage.summary()
        # The shed retractions retired their entries: the CHT still balances.
        assert handle.cht.imbalance() == 0
        assert not check_handle(handle, tracer=engine.tracer)

    def test_no_shedding_without_the_knobs(self):
        engine = WebDisEngine(_dense_web(), config=EngineConfig(pump_budget=2))
        handle = engine.run_query(HOT_DISQL)
        assert handle.status is QueryStatus.COMPLETE
        assert engine.stats.clones_shed == 0
        assert engine.stats.queries_shed == 0


class TestQueueIntrospection:
    def test_queue_depths_and_ceiling_audit(self):
        engine = WebDisEngine(
            _dense_web(),
            config=EngineConfig(pump_budget=4, per_query_queue_limit=50),
        )
        handle = engine.run_query(HOT_DISQL)
        assert handle.status is QueryStatus.COMPLETE
        servers = engine.servers.values()
        # Quiesced: every run-queue drained, but backlogs did build up.
        assert all(server.queue_depths() == {} for server in servers)
        assert max(server.peak_query_queue_depth for server in servers) > 1
        assert check_queue_ceilings(engine) == []

    def test_ceiling_audit_flags_breach(self):
        engine = WebDisEngine(
            _dense_web(), config=EngineConfig(per_query_queue_limit=1)
        )
        server = next(iter(engine.servers.values()))
        server._scheduler.max_query_depth_seen = 7  # simulated breach
        violations = check_queue_ceilings(engine)
        assert violations and violations[0].invariant == "queue-ceiling"


class TestCrashQueueLoss:
    def test_crash_counts_drained_clones(self):
        engine = WebDisEngine(
            _dense_web(), config=EngineConfig(pump_budget=2), trace=True
        )
        handle = engine.submit_disql(HOT_DISQL)
        # Step the clock until the flood builds a backlog somewhere, then
        # kill whichever server has the deepest queue.
        deadline, step = 5.0, 0.01
        site = server = None
        while engine.clock.now < deadline:
            engine.run(until=engine.clock.now + step)
            site, server = max(
                engine.servers.items(), key=lambda item: item[1].queue_depth
            )
            if server.queue_depth > 0:
                break
        queued = server.queue_depth
        assert queued > 0, "flood never built a backlog"
        engine.crash_server(site)
        assert engine.stats.clones_lost_in_crash == queued
        assert server.queue_depth == 0 and server.queue_depths() == {}
        del handle


class TestStarvationFreedom:
    def test_small_query_overtakes_hot_flood_under_fair(self):
        """The point query arrives once the flood's backlog is queued at its
        start site, and does not wait for that backlog."""
        engine = WebDisEngine(_dense_web(), config=EngineConfig(pump_budget=2))
        hot = engine.submit_disql(HOT_DISQL)
        arrival, backlog, smalls = 0.15, [], []

        def submit_small():
            backlog.append(engine.servers["site001.example"].queue_depth)
            smalls.append(engine.submit_disql(SMALL_DISQL))

        engine.clock.schedule(arrival, submit_small)
        engine.run()
        (small,) = smalls
        assert hot.status is QueryStatus.COMPLETE
        assert small.status is QueryStatus.COMPLETE
        assert backlog[0] > 0  # the flood's clones are queued at site001
        # Round-robin serves the point query between the flood's clones:
        # 0.148 virtual seconds.  One shared queue (every clone filed under
        # one key) puts it behind the backlog: 0.204.
        assert small.completion_time - arrival < 0.16
        assert small.completion_time < hot.completion_time

    @staticmethod
    def _staggered_latencies():
        """The hot flood at t=0, then 20 point queries arriving 10 ms apart
        while its backlog is queued: (small-query latencies, hot completion).
        The memo is taken away, so every repeat of a point query queues real
        work."""
        engine = without_memo(
            WebDisEngine(_dense_web(), config=EngineConfig(pump_budget=2))
        )
        hot = engine.submit_disql(HOT_DISQL)
        smalls = []

        def submit(index):
            text = SMALL_DISQL.replace("site001", f"site{index % 6:03d}")
            smalls.append((engine.clock.now, engine.submit_disql(text)))

        for index in range(20):
            engine.clock.schedule(index * 0.01, lambda index=index: submit(index))
        engine.run()
        assert hot.status is QueryStatus.COMPLETE
        assert all(handle.status is QueryStatus.COMPLETE for __, handle in smalls)
        return [handle.completion_time - at for at, handle in smalls], hot.completion_time

    def test_staggered_small_queries_have_a_shorter_tail_under_fair(self):
        fair, hot_fair = self._staggered_latencies()
        jain = sum(fair) ** 2 / (len(fair) * sum(v * v for v in fair))
        # Round-robin keeps the small queries' tail at 0.155 virtual seconds
        # and their Jain index at 0.992; one shared FIFO (every clone filed
        # under one key) gives 0.247 and 0.938.  None of them waits for the
        # flood.
        assert max(fair) < 0.16
        assert jain > 0.99
        assert max(fair) < hot_fair


# -- the isolation property ----------------------------------------------------

isolation_webs = st.builds(
    SyntheticWebConfig,
    sites=st.integers(2, 4),
    pages_per_site=st.integers(2, 5),
    local_out_degree=st.integers(1, 2),
    global_out_degree=st.integers(1, 2),
    topic_fraction=st.sampled_from([0.3, 0.7]),
    padding_words=st.just(5),
    seed=st.integers(0, 10_000),
)

isolation_pres = st.lists(
    st.sampled_from(["L*2", "G", "(L|G)*2", "L*", "G.L*1"]),
    min_size=2, max_size=4,
)


@given(isolation_webs, isolation_pres, st.sampled_from([None, 1, 3]))
@settings(max_examples=20, deadline=None)
def test_interleaved_queries_match_solo_runs(config, pres, pump_budget):
    """N tenants interleaved under the fair scheduler each produce exactly
    the rows they produce alone, and all complete — cross-query isolation."""
    web = build_synthetic_web(config)
    texts = [
        (
            "select d.url, d.title\n"
            f'from document d such that'
            f' "http://site{i % config.sites:03d}.example/" {pre} d'
        )
        for i, pre in enumerate(pres)
    ]
    engine_config = EngineConfig(pump_budget=pump_budget)

    solo_rows = []
    for text in texts:
        engine = WebDisEngine(web, config=engine_config)
        handle = engine.run_query(text)
        assert handle.status is QueryStatus.COMPLETE
        solo_rows.append(_rows(handle))

    engine = WebDisEngine(web, config=engine_config)
    handles = [engine.submit_disql(text) for text in texts]
    engine.run()
    for handle, expected in zip(handles, solo_rows):
        assert handle.status is QueryStatus.COMPLETE
        assert _rows(handle) == expected

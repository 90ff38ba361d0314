"""Tests for the discrete-event clock and the simulated network."""

from __future__ import annotations

from dataclasses import dataclass

import pytest

from repro.errors import NetworkError, SimulationError
from repro.net import Network, NetworkConfig, SendOutcome, SimClock, TrafficStats


@dataclass(frozen=True)
class _Blob:
    size: int
    kind: str = "blob"

    def size_bytes(self) -> int:
        return self.size


class TestSimClock:
    def test_starts_at_zero(self):
        assert SimClock().now == 0.0

    def test_events_run_in_time_order(self):
        clock = SimClock()
        order = []
        clock.schedule(2.0, lambda: order.append("b"))
        clock.schedule(1.0, lambda: order.append("a"))
        clock.run()
        assert order == ["a", "b"]

    def test_ties_fifo(self):
        clock = SimClock()
        order = []
        for name in "abc":
            clock.schedule(1.0, lambda n=name: order.append(n))
        clock.run()
        assert order == ["a", "b", "c"]

    def test_now_advances(self):
        clock = SimClock()
        seen = []
        clock.schedule(1.5, lambda: seen.append(clock.now))
        clock.run()
        assert seen == [1.5]
        assert clock.now == 1.5

    def test_nested_scheduling(self):
        clock = SimClock()
        seen = []
        clock.schedule(1.0, lambda: clock.schedule(1.0, lambda: seen.append(clock.now)))
        clock.run()
        assert seen == [2.0]

    def test_until_stops_early(self):
        clock = SimClock()
        seen = []
        clock.schedule(1.0, lambda: seen.append(1))
        clock.schedule(5.0, lambda: seen.append(5))
        clock.run(until=2.0)
        assert seen == [1]
        assert clock.now == 2.0
        clock.run()
        assert seen == [1, 5]

    def test_negative_delay_rejected(self):
        with pytest.raises(SimulationError):
            SimClock().schedule(-1.0, lambda: None)

    def test_runaway_guard(self):
        clock = SimClock()

        def loop():
            clock.schedule(0.001, loop)

        clock.schedule(0.0, loop)
        with pytest.raises(SimulationError):
            clock.run(max_events=100)

    def test_schedule_at_absolute(self):
        clock = SimClock()
        seen = []
        clock.schedule_at(3.0, lambda: seen.append(clock.now))
        clock.run()
        assert seen == [3.0]


def _net():
    clock = SimClock()
    network = Network(clock, TrafficStats())
    network.register_site("a.example")
    network.register_site("b.example")
    return clock, network


class TestNetwork:
    def test_send_delivers_after_latency(self):
        clock, network = _net()
        received = []
        network.listen("b.example", 80, lambda src, p: received.append((src, p, clock.now)))
        ok = network.send("a.example", "b.example", 80, _Blob(1000))
        assert ok
        assert received == []  # not yet delivered
        clock.run()
        src, payload, when = received[0]
        assert src == "a.example"
        expected = network.config.latency_base + (1000 + 64) / network.config.bandwidth
        assert when == pytest.approx(expected)

    def test_bigger_messages_take_longer(self):
        clock, network = _net()
        times = {}
        network.listen("b.example", 80, lambda src, p: times.setdefault(p.size, clock.now))
        network.send("a.example", "b.example", 80, _Blob(100))
        network.send("a.example", "b.example", 80, _Blob(100_000))
        clock.run()
        assert times[100_000] > times[100]

    def test_refused_when_no_listener(self):
        __, network = _net()
        outcome = network.send("a.example", "b.example", 81, _Blob(1))
        assert outcome is SendOutcome.REFUSED
        assert not outcome and outcome.refused and not outcome.transient
        assert network.stats.refused_sends == 1

    def test_send_to_unregistered_destination_host_down(self):
        # Unknown hosts behave like DNS failures, not programming errors —
        # and not like active refusals: they are transient, hence retryable.
        __, network = _net()
        outcome = network.send("a.example", "zzz.example", 80, _Blob(1))
        assert outcome is SendOutcome.HOST_DOWN
        assert outcome.transient
        assert network.stats.unknown_host_sends == 1
        assert network.stats.refused_sends == 0

    def test_send_from_unregistered_source_raises(self):
        __, network = _net()
        with pytest.raises(SimulationError):
            network.send("zzz.example", "a.example", 80, _Blob(1))

    def test_listen_before_register_raises(self):
        __, network = _net()
        with pytest.raises(SimulationError):
            network.listen("zzz.example", 80, lambda s, p: None)

    def test_double_bind_raises(self):
        __, network = _net()
        network.listen("b.example", 80, lambda s, p: None)
        with pytest.raises(NetworkError):
            network.listen("b.example", 80, lambda s, p: None)

    def test_close_then_refused(self):
        clock, network = _net()
        network.listen("b.example", 80, lambda s, p: None)
        network.close("b.example", 80)
        assert network.send("a.example", "b.example", 80, _Blob(1)) is SendOutcome.REFUSED

    def test_close_is_idempotent(self):
        __, network = _net()
        network.close("b.example", 80)  # no listener: no error

    def test_in_flight_message_dropped_when_listener_closes(self):
        clock, network = _net()
        received = []
        network.listen("b.example", 80, lambda s, p: received.append(p))
        assert network.send("a.example", "b.example", 80, _Blob(1))
        network.close("b.example", 80)
        clock.run()
        assert received == []

    def test_fail_next_is_one_shot(self):
        clock, network = _net()
        network.listen("b.example", 80, lambda s, p: None)
        network.fail_next("a.example", "b.example")
        outcome = network.send("a.example", "b.example", 80, _Blob(1))
        assert outcome is SendOutcome.FAULT
        assert outcome.transient
        assert network.send("a.example", "b.example", 80, _Blob(1)) is SendOutcome.DELIVERED
        assert network.stats.failed_sends == 1

    def test_fail_next_port_specific(self):
        # A fault injected for port 81 must not break a port-80 send from the
        # same pair — the bug that used to corrupt clone-forward failure tests.
        clock, network = _net()
        network.listen("b.example", 80, lambda s, p: None)
        network.listen("b.example", 81, lambda s, p: None)
        network.fail_next("a.example", "b.example", port=81)
        assert network.send("a.example", "b.example", 80, _Blob(1)) is SendOutcome.DELIVERED
        assert network.send("a.example", "b.example", 81, _Blob(1)) is SendOutcome.FAULT
        assert network.send("a.example", "b.example", 81, _Blob(1)) is SendOutcome.DELIVERED
        assert network.stats.failed_sends == 1

    def test_fail_next_portless_matches_any_port(self):
        clock, network = _net()
        network.listen("b.example", 80, lambda s, p: None)
        network.fail_next("a.example", "b.example")
        assert network.send("a.example", "b.example", 80, _Blob(1)) is SendOutcome.FAULT

    def test_failure_predicate(self):
        clock, network = _net()
        network.listen("b.example", 80, lambda s, p: None)
        network.set_fault_injector(lambda src, dst, port, now: dst == "b.example")
        assert network.send("a.example", "b.example", 80, _Blob(1)) is SendOutcome.FAULT
        network.set_fault_injector(None)
        assert network.send("a.example", "b.example", 80, _Blob(1)) is SendOutcome.DELIVERED

    def test_fault_injector_sees_port(self):
        clock, network = _net()
        network.listen("b.example", 80, lambda s, p: None)
        network.listen("b.example", 81, lambda s, p: None)
        network.set_fault_injector(lambda src, dst, port, now: port == 81)
        assert network.send("a.example", "b.example", 80, _Blob(1)) is SendOutcome.DELIVERED
        assert network.send("a.example", "b.example", 81, _Blob(1)) is SendOutcome.FAULT

    def test_site_down_is_host_down_not_refused(self):
        clock, network = _net()
        network.listen("b.example", 80, lambda s, p: None)
        network.set_site_down("b.example")
        outcome = network.send("a.example", "b.example", 80, _Blob(1))
        assert outcome is SendOutcome.HOST_DOWN
        assert outcome.transient
        assert network.stats.down_sends == 1
        assert network.stats.refused_sends == 0

    def test_crash_site_drops_listeners(self):
        clock, network = _net()
        network.listen("b.example", 80, lambda s, p: None)
        network.crash_site("b.example")
        assert not network.is_listening("b.example", 80)
        # Recovery without re-binding: connects are now REFUSED, not served.
        network.set_site_up("b.example")
        assert network.send("a.example", "b.example", 80, _Blob(1)) is SendOutcome.REFUSED

    def test_stats_accounting(self):
        clock, network = _net()
        network.listen("b.example", 80, lambda s, p: None)
        network.send("a.example", "b.example", 80, _Blob(100))
        stats = network.stats
        assert stats.messages_sent == 1
        assert stats.bytes_sent == 100 + 64
        assert stats.messages_by_kind["blob"] == 1
        assert stats.messages_by_site["a.example"] == 1

    def test_intra_site_latency(self):
        clock, network = _net()
        times = []
        network.listen("a.example", 80, lambda s, p: times.append(clock.now))
        network.send("a.example", "a.example", 80, _Blob(10_000))
        clock.run()
        assert times[0] == pytest.approx(network.config.intra_site_latency)


class TestTrafficStats:
    def test_max_site_load(self):
        stats = TrafficStats()
        stats.record_processing("a", 2.0)
        stats.record_processing("b", 5.0)
        assert stats.max_site_load() == ("b", 5.0)

    def test_max_site_load_empty(self):
        assert TrafficStats().max_site_load() == ("", 0.0)

    def test_summary_keys(self):
        """summary() is derived from the dataclass fields; its keys (and
        their order) are the hand-written dict's it replaced."""
        assert list(TrafficStats().summary()) == [
            "messages", "bytes", "failed_sends", "frames_rejected", "refused_sends",
            "down_sends", "unknown_host_sends", "retried_sends", "retries_exhausted",
            "sends_abandoned", "overloaded_sends", "sends_deferred", "clones_shed",
            "queries_shed", "clones_requeued", "clones_lost_in_crash",
            "duplicate_reports_absorbed", "stale_reports_absorbed",
            "duplicate_rows_dropped", "clones_reforwarded", "queries_partial",
            "documents_shipped", "document_bytes_shipped", "documents_parsed",
            "node_queries_evaluated", "duplicates_dropped", "queries_rewritten",
            "clones_forwarded", "dead_ends", "local_hops", "frontier_batches",
            "frontier_clones_batched", "clone_bundles_sent", "clones_bundled",
            "memo_hits", "memo_misses", "residual_filters",
            "memo_evictions", "memo_bytes_est", "db_cache_hits", "db_cache_misses",
            "parse_cache_hits", "index_builds", "index_hits", "plan_replays",
            "events_saved", "messages_saved",
        ]

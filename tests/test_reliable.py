"""The reliable channel: retry/backoff semantics (DESIGN.md §4.6)."""

from __future__ import annotations

import random
from dataclasses import dataclass

import pytest

from repro.net import Network, SendOutcome, SimClock, TrafficStats
from repro.net.reliable import ReliableChannel, RetryPolicy


@dataclass(frozen=True)
class _Blob:
    size: int = 10
    kind: str = "blob"

    def size_bytes(self) -> int:
        return self.size


def _net():
    clock = SimClock()
    network = Network(clock, TrafficStats())
    network.register_site("a.example")
    network.register_site("b.example")
    return clock, network


def _channel(network, clock, policy, name="test"):
    return ReliableChannel(network, clock, policy, name=name)


class TestRetryPolicy:
    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(jitter=1.5)

    def test_backoff_grows_and_caps(self):
        policy = RetryPolicy(base_delay=0.5, multiplier=2.0, max_delay=2.0, jitter=0.0)
        rng = random.Random(0)
        assert policy.backoff(1, rng) == 0.5
        assert policy.backoff(2, rng) == 1.0
        assert policy.backoff(3, rng) == 2.0
        assert policy.backoff(4, rng) == 2.0  # capped

    def test_jitter_bounded(self):
        policy = RetryPolicy(base_delay=1.0, multiplier=1.0, max_delay=1.0, jitter=0.5)
        rng = random.Random(42)
        for __ in range(100):
            assert 0.5 <= policy.backoff(1, rng) <= 1.5


class TestReliableChannel:
    def test_delivered_final_synchronously(self):
        clock, network = _net()
        network.listen("b.example", 80, lambda s, p: None)
        channel = _channel(network, clock, RetryPolicy())
        finals = []
        out = channel.send("a.example", "b.example", 80, _Blob(), finals.append)
        assert out is SendOutcome.DELIVERED
        assert finals == [SendOutcome.DELIVERED]

    def test_retry_recovers_transient_fault(self):
        clock, network = _net()
        received = []
        network.listen("b.example", 80, lambda s, p: received.append(p))
        network.fail_next("a.example", "b.example")
        channel = _channel(network, clock, RetryPolicy(max_attempts=3, jitter=0.0))
        finals = []
        first = channel.send("a.example", "b.example", 80, _Blob(), finals.append)
        # First attempt fails transiently; the retry is on the clock.
        assert first is SendOutcome.FAULT
        assert finals == []
        clock.run()
        assert finals == [SendOutcome.DELIVERED]
        assert received  # the payload actually arrived
        assert network.stats.retried_sends == 1
        assert network.stats.retries_exhausted == 0

    def test_refused_never_retried(self):
        # REFUSED is the passive-termination / participation signal: final,
        # regardless of how generous the policy is.
        clock, network = _net()
        channel = _channel(network, clock, RetryPolicy(max_attempts=50))
        finals = []
        out = channel.send("a.example", "b.example", 80, _Blob(), finals.append)
        assert out is SendOutcome.REFUSED
        assert finals == [SendOutcome.REFUSED]
        clock.run()
        assert finals == [SendOutcome.REFUSED]  # exactly once, no retry fired
        assert network.stats.retried_sends == 0
        assert network.stats.retries_exhausted == 0

    def test_exhaustion_reports_last_transient_outcome(self):
        clock, network = _net()
        network.listen("b.example", 80, lambda s, p: None)
        network.set_fault_injector(lambda src, dst, port, now: True)
        channel = _channel(
            network, clock, RetryPolicy(max_attempts=3, base_delay=0.1, jitter=0.0)
        )
        finals = []
        channel.send("a.example", "b.example", 80, _Blob(), finals.append)
        clock.run()
        assert finals == [SendOutcome.FAULT]
        assert network.stats.retried_sends == 2  # attempts 2 and 3
        assert network.stats.retries_exhausted == 1

    def test_deadline_stops_retrying(self):
        clock, network = _net()
        network.listen("b.example", 80, lambda s, p: None)
        network.set_fault_injector(lambda src, dst, port, now: True)
        policy = RetryPolicy(
            max_attempts=100, base_delay=1.0, multiplier=1.0, jitter=0.0, deadline=2.5
        )
        channel = _channel(network, clock, policy)
        finals = []
        channel.send("a.example", "b.example", 80, _Blob(), finals.append)
        clock.run()
        # Retries at t=1 and t=2 fit the 2.5s deadline; t=3 would not.
        assert finals == [SendOutcome.FAULT]
        assert network.stats.retried_sends == 2
        assert clock.now <= 2.5

    def test_policy_none_is_passthrough(self):
        clock, network = _net()
        network.listen("b.example", 80, lambda s, p: None)
        network.fail_next("a.example", "b.example")
        channel = _channel(network, clock, None)
        finals = []
        out = channel.send("a.example", "b.example", 80, _Blob(), finals.append)
        # Single attempt; the transient failure is immediately final — the
        # pre-reliability protocol behaviour, byte for byte.
        assert out is SendOutcome.FAULT
        assert finals == [SendOutcome.FAULT]
        assert network.stats.retried_sends == 0
        assert network.stats.retries_exhausted == 0

    def test_reset_abandons_scheduled_retries(self):
        clock, network = _net()
        received = []
        network.listen("b.example", 80, lambda s, p: received.append(p))
        network.fail_next("a.example", "b.example")
        channel = _channel(network, clock, RetryPolicy(max_attempts=3, jitter=0.0))
        finals = []
        channel.send("a.example", "b.example", 80, _Blob(), finals.append)
        channel.reset()  # the process crashed: dead processes do not retry
        clock.run()
        # The callback is not left dangling: it observes a terminal
        # ABANDONED outcome (previously reset dropped the send silently
        # and the caller waited forever).
        assert finals == [SendOutcome.ABANDONED]
        assert received == []
        assert network.stats.sends_abandoned == 1

    def test_seeded_backoff_is_deterministic(self):
        def run(seed):
            clock, network = _net()
            network.listen("b.example", 80, lambda s, p: None)
            fails = iter([True, True, False])
            network.set_fault_injector(lambda *a, f=fails: next(f))
            channel = _channel(
                network, clock, RetryPolicy(max_attempts=5, seed=seed), name="chan"
            )
            times = []
            channel.send(
                "a.example", "b.example", 80, _Blob(),
                lambda out: times.append((clock.now, out)),
            )
            clock.run()
            return times

        assert run(7) == run(7)
        assert run(7) != run(8)  # different seed, different jitter

    def test_a_channel_that_never_retries_builds_no_generator(self):
        clock, network = _net()
        network.listen("b.example", 80, lambda s, p: None)
        channel = _channel(network, clock, RetryPolicy(max_attempts=5))
        channel.send("a.example", "b.example", 80, _Blob(), None)
        clock.run()
        assert channel._rng is None

    def test_the_first_retry_draws_what_an_eager_generator_would(self):
        clock, network = _net()
        network.listen("b.example", 80, lambda s, p: None)
        fails = iter([True, True, True, False])
        network.set_fault_injector(lambda *a: next(fails))
        policy = RetryPolicy(max_attempts=5, seed=7)
        channel = _channel(network, clock, policy, name="chan")
        times = []
        channel.send("a.example", "b.example", 80, _Blob(), lambda out: times.append(clock.now))
        clock.run()
        eager = random.Random("7:chan")
        assert times == [pytest.approx(sum(policy.backoff(n, eager) for n in (1, 2, 3)))]

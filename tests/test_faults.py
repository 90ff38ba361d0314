"""The seeded, composable FaultPlan DSL."""

from __future__ import annotations

from dataclasses import dataclass

import pytest

from repro import FaultPlan, SendOutcome, WebDisEngine
from repro.errors import SimulationError
from repro.net import Network, SimClock, TrafficStats
from repro.net.faults import DropRule, PartitionRule
from repro.net.network import QUERY_PORT
from repro.web.builders import WebBuilder
from tests.conftest import outcome_of


@dataclass(frozen=True)
class _Blob:
    size: int = 10
    kind: str = "blob"

    def size_bytes(self) -> int:
        return self.size


def _net(*sites):
    clock = SimClock()
    network = Network(clock, TrafficStats())
    for site in sites or ("a.example", "b.example"):
        network.register_site(site)
        network.listen(site, 80, lambda s, p: None)
    return clock, network


def _pair_web():
    builder = WebBuilder()
    builder.site("a.example").page("/", title="a")
    builder.site("b.example").page("/", title="b")
    return builder.build()


class TestRules:
    def test_drop_rule_filters(self):
        rule = DropRule(1.0, src="a", dst="b", port=80, start=1.0, end=2.0)
        assert rule.matches("a", "b", 80, 1.5)
        assert not rule.matches("x", "b", 80, 1.5)  # wrong src
        assert not rule.matches("a", "x", 80, 1.5)  # wrong dst
        assert not rule.matches("a", "b", 81, 1.5)  # wrong port
        assert not rule.matches("a", "b", 80, 0.5)  # before window
        assert not rule.matches("a", "b", 80, 2.0)  # end is exclusive

    def test_drop_rule_wildcards(self):
        rule = DropRule(1.0)
        assert rule.matches("anything", "anywhere", 9999, 1e9)

    def test_partition_rule_severs_both_directions(self):
        rule = PartitionRule(frozenset({"a"}), frozenset({"b"}), start=0.0, end=5.0)
        assert rule.severs("a", "b", 1.0)
        assert rule.severs("b", "a", 1.0)
        assert not rule.severs("a", "c", 1.0)  # edge not crossing the cut
        assert not rule.severs("a", "b", 5.0)  # window over

    def test_validation(self):
        with pytest.raises(SimulationError):
            FaultPlan().drop(1.5)
        with pytest.raises(SimulationError):
            FaultPlan().crash("a.example", at=2.0, restart_at=1.0)

    def test_crash_rules_need_an_engine(self):
        __, network = _net()
        plan = FaultPlan().crash("a.example", at=1.0)
        with pytest.raises(SimulationError):
            plan.install(network)


class TestInstalledInjector:
    def test_certain_drop_faults_matching_sends(self):
        clock, network = _net()
        FaultPlan().drop(1.0, src="a.example", dst="b.example").install(network)
        assert outcome_of(network, "a.example", "b.example", 80, _Blob()) is SendOutcome.FAULT
        # The reverse edge does not match the rule.
        assert outcome_of(network, "b.example", "a.example", 80, _Blob()) is SendOutcome.DELIVERED

    def test_flaky_window(self):
        clock, network = _net()
        FaultPlan().flaky("a.example", "b.example", start=1.0, end=2.0).install(network)
        assert outcome_of(network, "a.example", "b.example", 80, _Blob()) is SendOutcome.DELIVERED
        clock.schedule_at(1.5, lambda: None)
        clock.run()
        assert outcome_of(network, "a.example", "b.example", 80, _Blob()) is SendOutcome.FAULT
        clock.schedule_at(3.0, lambda: None)
        clock.run()
        assert outcome_of(network, "a.example", "b.example", 80, _Blob()) is SendOutcome.DELIVERED

    def test_partition_blocks_both_directions(self):
        clock, network = _net("a.example", "b.example", "c.example")
        FaultPlan().partition(["a.example"], ["b.example"], end=10.0).install(network)
        assert outcome_of(network, "a.example", "b.example", 80, _Blob()) is SendOutcome.FAULT
        assert outcome_of(network, "b.example", "a.example", 80, _Blob()) is SendOutcome.FAULT
        # c is on neither side: unaffected.
        assert outcome_of(network, "a.example", "c.example", 80, _Blob()) is SendOutcome.DELIVERED

    def test_seeded_drops_replay_identically(self):
        def outcomes(seed):
            clock, network = _net()
            FaultPlan(seed=seed).drop(0.5).install(network)
            return [
                outcome_of(network, "a.example", "b.example", 80, _Blob()) for __ in range(32)
            ]

        first, second = outcomes(3), outcomes(3)
        assert first == second
        assert SendOutcome.FAULT in first and SendOutcome.DELIVERED in first
        assert outcomes(3) != outcomes(4)

    def test_probability_zero_never_drops(self):
        clock, network = _net()
        FaultPlan().drop(0.0).install(network)
        for __ in range(16):
            assert outcome_of(network, "a.example", "b.example", 80, _Blob()).delivered


class TestCrashSchedule:
    def test_crash_and_restart_applied_through_engine(self):
        engine = WebDisEngine(_pair_web())
        plan = FaultPlan().crash("a.example", at=1.0, restart_at=2.0)
        engine.apply_faults(plan)
        observed = {}

        def probe(label):
            observed[label] = (
                engine.network.is_site_up("a.example"),
                engine.network.is_listening("a.example", QUERY_PORT),
            )

        engine.clock.schedule_at(1.5, lambda: probe("down"))
        engine.clock.schedule_at(2.5, lambda: probe("up"))
        engine.run()
        assert observed["down"] == (False, False)
        assert observed["up"] == (True, True)


class TestDescribe:
    def test_describe_lists_every_rule(self):
        plan = (
            FaultPlan(seed=9)
            .drop(0.1, dst="b.example", port=80)
            .flaky("a.example", "b.example", start=1.0, end=2.0)
            .partition(["a.example"], ["b.example"], start=0.0, end=5.0)
            .crash("a.example", at=1.0, restart_at=2.0)
        )
        text = plan.describe()
        assert "seed=9" in text
        assert "drop p=0.1" in text
        assert "partition" in text
        assert "crash a.example at 1.0" in text
        assert "restart at 2.0" in text

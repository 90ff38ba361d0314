"""CHT property test: arbitrary interleavings stay consistent.

Hypothesis builds a population of dispatch-identity instances — plain
add/retire, retirement-before-announcement, duplicate reports in any
permutation, supersession chains and abandonments — then merges their
per-instance event sequences into one random interleaving.  After every
single operation the O(1) :meth:`check_consistency` must hold; at the end
the O(n) :meth:`audit` must pass, the table must report completion, and no
instance may have been effectively retired twice.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.core.cht import CurrentHostsTable, RetireResult
from repro.core.messages import ChtEntry
from repro.core.state import QueryState
from repro.pre import parse_pre
from repro.urlutils import parse_url

ENTRIES = [
    ChtEntry(parse_url(f"http://s{i}.example/"), QueryState(1, parse_pre("L")))
    for i in range(4)
]

#: Effective retirements — at most one per (dispatch_id, node) key, ever.
_EFFECTIVE = {RetireResult.RETIRED, RetireResult.EARLY}


@st.composite
def instance_plans(draw):
    """Per-instance event sequences whose internal order must be respected."""
    plans = []
    n = draw(st.integers(1, 7))
    for i in range(n):
        entry = draw(st.sampled_from(ENTRIES))
        kind = draw(
            st.sampled_from(["stamped", "early", "duplicate", "superseded", "abandoned"])
        )
        did = f"d{i}@{entry.node.host}"
        if kind == "stamped":
            plans.append([("add", did, entry), ("ret", did, entry)])
        elif kind == "early":
            # The retirement outruns its own announcement.
            plans.append([("ret", did, entry), ("add", did, entry)])
        elif kind == "duplicate":
            # One announcement plus 2-3 reports, in ANY order: whichever
            # report lands first is the retirement, the rest are duplicates.
            events = [("add", did, entry)] + [
                ("ret", did, entry) for __ in range(draw(st.integers(2, 3)))
            ]
            plans.append(draw(st.permutations(events)))
        elif kind == "superseded":
            new_did = f"{did}'"
            plans.append(
                [
                    ("add", did, entry),
                    ("sup", did, new_did, entry),
                    ("ret", did, entry),  # late report for the old dispatch
                    ("ret", new_did, entry),
                ]
            )
        else:  # abandoned
            plans.append(
                [
                    ("add", did, entry),
                    ("aband", did, entry),
                    ("ret", did, entry),  # report after the write-off
                ]
            )
    return plans


@st.composite
def interleavings(draw):
    """A random merge of the instance plans, preserving per-plan order."""
    plans = [list(plan) for plan in draw(instance_plans())]
    merged = []
    while plans:
        index = draw(st.integers(0, len(plans) - 1))
        merged.append(plans[index].pop(0))
        if not plans[index]:
            del plans[index]
    return merged


def _apply(cht: CurrentHostsTable, event, time: float):
    op = event[0]
    if op == "add":
        cht.add(event[2], time, dispatch_id=event[1])
    elif op == "ret":
        return cht.mark_deleted(event[2], time, dispatch_id=event[1]), (
            event[1],
            event[2].node,
        )
    elif op == "sup":
        assert cht.supersede(event[1], event[3].node, event[2], new_epoch=1, time=time)
    elif op == "aband":
        assert cht.abandon(event[1], event[2].node, "test write-off", time=time)
    return None, None


class TestInterleavings:
    @settings(max_examples=150, deadline=None)
    @given(events=interleavings())
    def test_any_interleaving_stays_consistent(self, events):
        cht = CurrentHostsTable()
        effective: dict[tuple, int] = {}
        for step, event in enumerate(events):
            result, key = _apply(cht, event, float(step))
            if result in _EFFECTIVE:
                effective[key] = effective.get(key, 0) + 1
            # The O(1) balance invariant holds after EVERY operation.
            cht.check_consistency()
        # Never double-retire: each key resolved at most once.
        assert all(count == 1 for count in effective.values())
        # Quiescence: every instance resolved.
        cht.audit()
        assert cht.all_deleted()
        assert cht.imbalance() == 0
        assert cht.pending_instances() == []

    @settings(max_examples=150, deadline=None)
    @given(events=interleavings())
    def test_duplicate_reports_are_absorbed_not_counted(self, events):
        cht = CurrentHostsTable()
        retire_attempts = 0
        effective = 0
        for step, event in enumerate(events):
            if event[0] == "ret":
                retire_attempts += 1
            result, __ = _apply(cht, event, float(step))
            if result in _EFFECTIVE:
                effective += 1
        # Every retirement attempt is either the one effective
        # resolution of its instance or explicitly absorbed — none leak
        # into the deletion totals twice.
        absorbed = cht.duplicates_absorbed + cht.stale_absorbed
        assert retire_attempts == effective + absorbed


"""CHT property test: arbitrary interleavings stay consistent.

Hypothesis builds a population of dispatch-identity instances — plain
add/retire, retirement-before-announcement, duplicate reports in any
permutation, supersession chains and abandonments — then merges their
per-instance event sequences into one random interleaving.  After every
single operation the O(1) :meth:`check_consistency` must hold; at the end
the O(n) :meth:`audit` must pass, the table must report completion, and no
instance may have been effectively retired twice.

A second property replays random clone reports — in any order, some twice,
with supersessions and write-offs mixed in — once through
:meth:`~CurrentHostsTable.apply` (a clone at a time) and once node by node,
and asks for the same books.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.core.cht import CurrentHostsTable, RetireResult
from repro.core.messages import ChtEntry, CloneReport, Disposition
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


# --- a clone at a time is a node at a time ----------------------------------------
# ``CurrentHostsTable.apply`` takes a whole clone's report in one call.  The
# reference is what the user-site did before reports had columns: for each
# node of the report, in column order, ``mark_deleted`` of its entry, then
# ``add`` of each entry it announced under the child's dispatch identity.

_URLS = [parse_url(f"http://s{i % 2}.example/p{i}") for i in range(4)]
_STATES = [QueryState(1, parse_pre(text)) for text in ("L", "G|L")]
_IDS = [f"d{i}@s{i % 2}.example" for i in range(4)]


@st.composite
def clone_reports(draw):
    """A report over distinct nodes whose announcements reuse the same small
    pools of nodes, states and identities — so they collide with each other,
    with the seeds and with later supersessions."""
    nodes = draw(st.lists(st.sampled_from(_URLS), min_size=1, max_size=3, unique=True))
    entries, child_ids, forward_ends, row_ends = [], [], [], []
    for __ in nodes:
        for __ in range(draw(st.integers(0, 2))):  # zero-forward nodes included
            entries.append((draw(st.sampled_from(_URLS)), draw(st.sampled_from(_STATES))))
            child_ids.append(draw(st.sampled_from(_IDS)))
        forward_ends.append(len(entries))
        row_ends.append(0)
    dispositions = [
        draw(st.sampled_from([Disposition.PROCESSED, Disposition.DUPLICATE])) for __ in nodes
    ]
    return CloneReport(
        tuple(nodes), draw(st.sampled_from(_STATES)), dispositions, [], row_ends,
        entries, child_ids, forward_ends, draw(st.sampled_from(_IDS)),
        draw(st.sampled_from([0, 1])),
    )


@st.composite
def report_schedules(draw):
    """Seeds, then reports delivered in any order, some more than once, with
    supersessions and write-offs of whatever the pools name mixed in."""
    seeds = draw(st.lists(st.tuples(st.sampled_from(_IDS), st.sampled_from(_URLS)), max_size=3))
    reports = draw(st.lists(clone_reports(), min_size=1, max_size=5))
    events = [("report", index) for index in range(len(reports))]
    events += [("report", draw(st.sampled_from(range(len(reports))))) for __ in range(
        draw(st.integers(0, 3))
    )]  # duplicates
    for __ in range(draw(st.integers(0, 3))):
        did, node = draw(st.sampled_from(_IDS)), draw(st.sampled_from(_URLS))
        if draw(st.booleans()):
            events.append(("sup", did, node, f"{did}'"))
        else:
            events.append(("aband", did, node))
    return seeds, reports, draw(st.permutations(events))


def _run(seeds, reports, events, per_clone: bool) -> tuple[CurrentHostsTable, list]:
    cht = CurrentHostsTable()
    for did, node in seeds:
        cht.add(ChtEntry(node, _STATES[0]), 0.0, dispatch_id=did)
    outcomes = []
    for step, event in enumerate(events, start=1):
        time = float(step)
        if event[0] == "sup":
            outcomes.append(cht.supersede(event[1], event[2], event[3], 1, time))
        elif event[0] == "aband":
            outcomes.append(cht.abandon(event[1], event[2], "written off", time))
        elif per_clone:
            outcomes.append(cht.apply(reports[event[1]], time))
        else:
            report = reports[event[1]]
            duplicates = stale = start = 0
            for node, stop in zip(report.nodes, report.forward_ends):
                result = cht.mark_deleted(
                    ChtEntry(node, report.state), time, dispatch_id=report.dispatch_id
                )
                duplicates += result is RetireResult.ABSORBED_DUPLICATE
                stale += result is RetireResult.ABSORBED_STALE
                for position in range(start, stop):
                    cht.add(
                        ChtEntry(*report.new_entries[position]), time,
                        dispatch_id=report.child_ids[position], epoch=report.epoch,
                    )
                start = stop
            outcomes.append((duplicates, stale))
        cht.check_consistency()
    cht.audit()
    return cht, outcomes


class TestCloneAtATime:
    @settings(max_examples=300, deadline=None)
    @given(report_schedules())
    def test_apply_keeps_the_per_node_books(self, schedule):
        by_clone, clone_outcomes = _run(*schedule, per_clone=True)
        by_node, node_outcomes = _run(*schedule, per_clone=False)
        assert clone_outcomes == node_outcomes
        assert by_clone.history() == by_node.history()
        assert by_clone.pending_instances() == by_node.pending_instances()
        assert by_clone.pending_entries() == by_node.pending_entries()
        assert by_clone.abandoned_instances() == by_node.abandoned_instances()
        for counter in ("additions", "deletions", "duplicates_absorbed", "stale_absorbed"):
            assert getattr(by_clone, counter) == getattr(by_node, counter), counter
        assert by_clone.imbalance() == by_node.imbalance()
        assert by_clone.all_deleted() == by_node.all_deleted()

"""Invariant sweep: Figure 8 must survive every engine-configuration combo.

The paper's optimizations and our extensions are all supposed to change
*cost*, never *answers*.  This matrix runs the sample query under all
combinations of the behavioural toggles and asserts the exact Figure-8
result set and exact completion each time.
"""

from __future__ import annotations

import itertools

import pytest

from repro import EngineConfig, QueryStatus, WebDisEngine
from repro.web.campus import CAMPUS_QUERY_DISQL, EXPECTED_CONVENER_ROWS

_FLAG_AXES = {
    "log_table_enabled": (True, False),
    "batch_per_site": (True, False),
    "combine_results_and_cht": (True, False),
    "direct_result_return": (True, False),
    "frontier_batching": (True, False),
    "scheduler": ("fair", "fifo"),
}

_COMBOS = [
    dict(zip(_FLAG_AXES, values))
    for values in itertools.product(*_FLAG_AXES.values())
]


def _combo_id(combo: dict) -> str:
    parts = [k for k, v in combo.items() if v is False]
    parts += [v for v in combo.values() if isinstance(v, str)]
    return ",".join(parts) or "all-on"


@pytest.mark.parametrize("combo", _COMBOS, ids=_combo_id)
def test_figure8_invariant_under_flags(campus_web, combo):
    engine = WebDisEngine(campus_web, config=EngineConfig(**combo))
    handle = engine.run_query(CAMPUS_QUERY_DISQL)
    assert handle.status is QueryStatus.COMPLETE
    assert {r.values for r in handle.unique_rows("q2")} == set(EXPECTED_CONVENER_ROWS)
    handle.cht.check_consistency()
    assert handle.cht.imbalance() == 0


_EXTENSION_AXES = [
    EngineConfig(log_subsumption="language"),
    EngineConfig(server_threads=4),
    EngineConfig(log_subsumption="language", server_threads=4),
    EngineConfig(log_max_age=0.001),
    EngineConfig(strict_dead_end=False, server_threads=2, batch_per_site=False),
    EngineConfig(frontier_batching=False, log_subsumption="language"),
    EngineConfig(frontier_batching=True, batch_per_site=False, server_threads=2),
    # Multi-tenancy knobs: bounded pump budgets chunk the frontier but must
    # not change answers; generous ceilings must never shed the campus query.
    EngineConfig(pump_budget=1),
    EngineConfig(scheduler="fifo", pump_budget=3),
    EngineConfig(pump_budget=2, per_query_queue_limit=64, server_queue_limit=128,
                 shed_after=30.0),
    EngineConfig(scheduler="fifo", pump_budget=4, per_query_queue_limit=64,
                 log_subsumption="language", server_threads=2),
]


@pytest.mark.parametrize("config", _EXTENSION_AXES, ids=range(len(_EXTENSION_AXES)))
def test_figure8_invariant_under_extensions(campus_web, config):
    engine = WebDisEngine(campus_web, config=config)
    handle = engine.run_query(CAMPUS_QUERY_DISQL)
    assert handle.status is QueryStatus.COMPLETE
    assert {r.values for r in handle.unique_rows("q2")} == set(EXPECTED_CONVENER_ROWS)


# Cross-query caching (EXP-P4) crossed against the knobs it interacts with
# on the hot path: the scheduler (interleaves tenants, so memo warm-up
# order varies), frontier batching (moves probes into the frontier pump)
# and compiled plans (plan sharing vs interpreter).  Two identical tenants
# run per combo so the memo genuinely engages — both must stay row-exact.
_CACHING_AXES = {
    "cross_query_caching": (True, False),
    "scheduler": ("fair", "fifo"),
    "frontier_batching": (True, False),
    "compiled_plans": (True, False),
}

_CACHING_COMBOS = [
    dict(zip(_CACHING_AXES, values))
    for values in itertools.product(*_CACHING_AXES.values())
]


@pytest.mark.parametrize("combo", _CACHING_COMBOS, ids=_combo_id)
def test_figure8_invariant_under_caching_axis(campus_web, combo):
    engine = WebDisEngine(campus_web, config=EngineConfig(**combo))
    first = engine.submit_disql(CAMPUS_QUERY_DISQL)
    second = engine.submit_disql(CAMPUS_QUERY_DISQL)
    engine.run()
    for handle in (first, second):
        assert handle.status is QueryStatus.COMPLETE
        assert {r.values for r in handle.unique_rows("q2")} == set(
            EXPECTED_CONVENER_ROWS
        )
        handle.cht.check_consistency()
        assert handle.cht.imbalance() == 0


# The EXP-P6 outer-level batching crossed with join depth: node-queries of
# 1, 2 and 3 aliases — the 3-alias one carries explicit equality joins on
# shared variables (a.base = d.url, r.url = a.base), i.e. the shapes the
# batch pipeline lowers to hash-index probes.  The default engine must match
# the interpreter's statuses and distinct rows exactly; the depth-1/2/3
# queries between them cover leaf-only, one expansion level and two
# expansion levels of the pipeline.
_JOIN_DEPTH_QUERIES = {
    1: """
select d.url, d.title
from document d such that "http://www.csa.iisc.ernet.in/" L d
where d.text contains "lab"
""",
    2: """
select d.url, r.text
from document d such that "http://www.csa.iisc.ernet.in/" L.G.(L*1) d,
     relinfon r such that r.delimiter = "hr"
where r.text contains "convener"
""",
    3: """
select d.url, a.href, r.text
from document d such that "http://www.csa.iisc.ernet.in/" G.(L*1) d,
     anchor a such that a.base = d.url,
     relinfon r such that r.url = a.base
where a.href != a.base
""",
}

def _join_depth_state(campus_web, depth, **config):
    engine = WebDisEngine(campus_web, config=EngineConfig(**config))
    handle = engine.run_query(_JOIN_DEPTH_QUERIES[depth])
    rows = frozenset(
        (label, row.header, row.values) for label, row, __ in handle.results
    )
    return (handle.status, rows)


@pytest.mark.parametrize("depth", sorted(_JOIN_DEPTH_QUERIES))
def test_join_depth_invariant_under_compiled_plans(campus_web, depth):
    status, rows = baseline = _join_depth_state(
        campus_web, depth, compiled_plans=False
    )
    assert status is QueryStatus.COMPLETE
    assert rows  # every depth's query genuinely produces rows
    assert _join_depth_state(campus_web, depth) == baseline

"""EXP-C3 — the node-query log table prevents recomputation cascades.

Paper Section 3.1: without duplicate detection, "a 'mirror' clone chasing a
previously processed clone over the Web" wastes computation at every
downstream node and floods the user with duplicate results.

The bench uses densely cross-linked webs (many distinct paths to the same
nodes) and compares evaluations, messages and duplicate result rows with
the log table on and off, plus a purge-period sensitivity sweep showing
that over-eager purging costs recomputation but never correctness.
"""

from __future__ import annotations

from repro import EngineConfig, QueryStatus, WebDisEngine
from repro.web import SyntheticWebConfig, build_synthetic_web
from repro.web.synthetic import synthetic_start_url

from harness import format_table, report

QUERY = (
    'select d.url from document d such that "{start}" (L|G)*{radius} d\n'
    'where d.title contains "topic"'
)


def _run(config: SyntheticWebConfig, radius: int, engine_config: EngineConfig):
    web = build_synthetic_web(config)
    engine = WebDisEngine(web, config=engine_config)
    handle = engine.run_query(
        QUERY.format(start=synthetic_start_url(config), radius=radius)
    )
    assert handle.status is QueryStatus.COMPLETE
    return engine, handle


def bench_logtable_ablation(benchmark):
    rows = []
    for radius in (2, 3, 4):
        config = SyntheticWebConfig(
            sites=6, pages_per_site=5, local_out_degree=3, global_out_degree=3, seed=9
        )
        on_engine, on_handle = _run(config, radius, EngineConfig())
        off_engine, off_handle = _run(config, radius, EngineConfig(log_table_enabled=False))
        assert {r.values for r in on_handle.unique_rows()} == {
            r.values for r in off_handle.unique_rows()
        }
        rows.append(
            (
                f"radius {radius}",
                on_engine.stats.node_queries_evaluated,
                off_engine.stats.node_queries_evaluated,
                on_engine.stats.duplicates_dropped,
                on_engine.stats.messages_sent,
                off_engine.stats.messages_sent,
                len(on_handle.rows()),
                len(off_handle.rows()),
            )
        )

    body = format_table(
        ("path radius", "evals ON", "evals OFF", "dups dropped",
         "msgs ON", "msgs OFF", "user rows ON", "user rows OFF"),
        rows,
    )

    # Purge-period sensitivity: an over-eager purge recomputes, never breaks.
    purge_rows = []
    config = SyntheticWebConfig(
        sites=6, pages_per_site=5, local_out_degree=3, global_out_degree=3, seed=9
    )
    reference = None
    for max_age in (None, 10.0, 0.01, 0.0001):
        engine, handle = _run(config, 3, EngineConfig(log_max_age=max_age))
        answers = {r.values for r in handle.unique_rows()}
        if reference is None:
            reference = answers
        assert answers == reference  # correctness unaffected
        purge_rows.append(
            (
                "keep forever" if max_age is None else f"purge after {max_age}s",
                engine.stats.node_queries_evaluated,
                engine.stats.duplicates_dropped,
                len(handle.rows()),
            )
        )
    body += "\n\npurge-period sensitivity (radius 3):\n"
    body += format_table(
        ("log retention", "evaluations", "dups dropped", "user rows"), purge_rows
    )
    body += (
        "\n\nclaim shape: evaluations and messages grow sharply without the"
        " table (mirror-clone cascades); the user receives duplicate rows;"
        " purging early only re-adds recomputation"
    )
    report("EXP-C3", "node-query log table ablation", body)

    last = rows[-1]
    assert last[2] > last[1]  # more evaluations without the table
    assert last[7] >= last[6]  # at least as many (duplicate) user rows

    cfg = SyntheticWebConfig(
        sites=6, pages_per_site=5, local_out_degree=3, global_out_degree=3, seed=9
    )
    benchmark(lambda: _run(cfg, 2, EngineConfig())[0].stats.node_queries_evaluated)

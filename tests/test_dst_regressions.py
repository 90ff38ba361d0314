"""Shrunk DST cases that once failed ``rows-sound``, replayed as regressions.

Each spec is the minimal repro ``tools/dst.py`` wrote for a generated seed
of the ``--seeds 0..4000 --schedules 2`` sweep.  Both returned a row
occurrence the fault-free run did not:

* seed 978 — two sites, a window of dropped messages, ``(L|G)*3``.  The
  retries reorder arrivals, so a clone and a logged state met with one side
  at zero repeats (``(L|G)*0`` normalizes to the empty PRE).  The log
  table, blind to ``m = 0`` and ``n = 0``, had the node evaluated again.
* seed 1919 — two crashes in ``language`` mode.  A crash wipes the log
  table, and the recovery re-forward made a node act again in a *different*
  state; the client deduplicated recovered rows by ``(node, state)``, so the
  second report's rows were kept.  They are keyed by ``(node, step)`` now.
"""

from __future__ import annotations

from repro.testing import run_case

_L_OR_G_3 = {"bound": 3, "rep": {"alt": ["L", "G"]}}


def _page(path, title, links=(), emphasized=(), paragraphs=()):
    return {
        "path": path,
        "title": title,
        "links": [list(link) for link in links],
        "emphasized": [list(item) for item in emphasized],
        "paragraphs": list(paragraphs),
    }


def _query(pre, start, contains, delimiter):
    return {
        "anchor": False, "contains": contains, "delimiter": delimiter,
        "label_join": False, "pre": pre, "relinfon": False, "start": start,
    }


SEED_978 = {
    "seed": 978,
    "schedule_seed": None,
    "config": {
        "batch_per_site": True, "compiled_plans": False, "cross_query_caching": False,
        "frontier_batching": False, "log_subsumption": "paper", "pump_budget": 4,
        "scheduler": "fair",
    },
    "faults": [{"kind": "drop", "p": 0.149, "end": 4.264}],
    "latency": [],
    "queries": [],
    "query": _query(_L_OR_G_3, "http://s0.example/", "beta", "i"),
    "web": {"sites": [
        {"name": "s0.example", "pages": [
            _page("/", "beta 0/",
                  links=[("query", "http://s1.example/"), ("alpha", "/p1.html")]),
            _page("/p1.html", "query 0/p1.html", links=[("archive", "http://s1.example/")]),
        ]},
        {"name": "s1.example", "pages": [
            _page("/", "answer 1/", links=[("report", "/p1.html")],
                  paragraphs=["beta answer report", "gamma archive lab"]),
            _page("/p1.html", "beta 1/p1.html"),
        ]},
    ]},
}

SEED_1919 = {
    "seed": 1919,
    "schedule_seed": None,
    "config": {
        "batch_per_site": True, "compiled_plans": False, "cross_query_caching": False,
        "frontier_batching": True, "log_subsumption": "language", "pump_budget": None,
        "scheduler": "fair",
    },
    "faults": [
        {"kind": "crash", "site": "s2.example", "at": 0.113, "restart_at": 2.276},
        {"kind": "crash", "site": "s0.example", "at": 0.811, "restart_at": 2.617},
    ],
    "latency": [],
    "queries": [{
        "contains": "index", "delimiter": "b", "pre": _L_OR_G_3, "relinfon": False,
        "start": "http://s2.example/",
    }],
    "query": _query("L", "http://s0.example/", "index", "b"),
    "web": {"sites": [
        {"name": "s0.example", "pages": [
            _page("/", "answer 0/",
                  links=[("archive", "/p1.html"), ("query", "/p8.html")],
                  emphasized=[("b", "sigma sigma"), ("i", "delta beta"), ("i", "index lab")],
                  paragraphs=["query archive omega", "answer sigma archive"]),
            _page("/p1.html", "query 0/p1.html",
                  links=[("omega", "http://s2.example/"), ("lab", "/"),
                         ("query", "/p1.html#sec1")],
                  emphasized=[("i", "report omega"), ("i", "answer index"),
                              ("b", "index answer")]),
        ]},
        {"name": "s1.example", "pages": [
            _page("/", "beta 1/",
                  links=[("alpha", "http://s0.example/p1.html"), ("omega", "/#sec3"),
                         ("query", "http://s3.example/"), ("answer", "http://s3.example/")],
                  paragraphs=["query sigma answer"]),
        ]},
        {"name": "s2.example", "pages": [
            _page("/", "query 2/",
                  links=[("sigma", "http://s3.example/p3.html"),
                         ("index", "http://s1.example/")],
                  emphasized=[("b", "gamma delta"), ("b", "alpha beta"),
                              ("b", "omega omega")]),
        ]},
    ]},
}


def test_zero_repeats_left_is_a_logged_duplicate_under_drops():
    result = run_case(SEED_978)
    assert result.ok, [str(v) for v in result.violations]
    assert (result.clean_status, result.status, result.rows) == ("complete", "complete", 4)


def test_recovered_rows_are_deduplicated_by_node_and_step():
    result = run_case(SEED_1919)
    assert result.ok, [str(v) for v in result.violations]
    assert (result.clean_status, result.status) == ("complete", "complete")

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

Six more failed ``oracle-partial``: seeds 225 and 286 of ``--seeds 0..1023
--schedules 2``, and seeds 127, 354, 813 and 970 of the same sweep with
``--sequential``, each with ``combine_results_and_cht`` drawn off (ROADMAP
item 22).  A server sends a report's data half only after its CHT half is
delivered, and under drops the data half can be lost with nothing noticing:
the user-site holds the node until a recovery round re-forwards it, and the
server's log table used to drop that re-forward as a duplicate, so the query
ended PARTIAL without the row.  Since the log table is epoch-aware (ROADMAP
item 19) the re-forward is answered again and its rows arrive; with the
halves combined the cases were clean all along.

Item 19's own case is seed 8 with one slow link, where a recovery round
supersedes a report still in flight: the query used to end COMPLETE without
that report's rows.
"""

from __future__ import annotations

import copy

import pytest

import repro.core.engine as engine_module
from repro.net.network import Network
from repro.testing import generate_case, run_case

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


def _split_halves_config(batch_per_site):
    return {
        "batch_per_site": batch_per_site, "combine_results_and_cht": False,
        "frontier_batching": True, "log_subsumption": "paper", "pump_budget": None,
    }


_L_OR_G = {"alt": ["L", "G"]}

SEED_225 = {
    "seed": 225,
    "schedule_seed": None,
    "config": _split_halves_config(batch_per_site=False),
    "faults": [
        {"kind": "drop", "p": 0.133, "end": 4.389},
        {"kind": "partition", "a": ["user.example"], "b": ["s0.example"],
         "start": 0.487, "end": 2.467},
        {"kind": "drop", "p": 0.099, "end": 3.404},
    ],
    "latency": [],
    "queries": [{
        "contains": "alpha", "delimiter": "b", "relinfon": True,
        "pre": {"alt": [_L_OR_G, {"alt": ["L", "L"]}]}, "start": "http://s1.example/",
    }],
    "query": {**_query({"bound": 1, "rep": _L_OR_G}, "http://s0.example/", "query", "i"),
              "relinfon": True},
    "web": {"sites": [
        {"name": "s0.example", "pages": [
            _page("/", "index 0/", emphasized=[("b", "alpha alpha")],
                  paragraphs=["alpha index report", "omega sigma lab"]),
        ]},
        {"name": "s1.example", "pages": [
            _page("/", "gamma 1/", links=[("delta", "http://s0.example/")],
                  paragraphs=["alpha gamma answer", "omega lab omega"]),
        ]},
    ]},
}

SEED_286 = {
    "seed": 286,
    "schedule_seed": None,
    "config": _split_halves_config(batch_per_site=True),
    "faults": [{"kind": "drop", "p": 0.219, "end": 4.861}],
    "latency": [],
    "queries": [{
        "contains": "omega", "delimiter": "b", "relinfon": True,
        "pre": {"bound": 2, "rep": _L_OR_G}, "start": "http://s2.example/",
    }],
    "query": {**_query("G", "http://s0.example/", "lab", "i"), "relinfon": True},
    "web": {"sites": [
        {"name": "s0.example", "pages": [
            _page("/", "report 0/", links=[("gamma", "http://s3.example/")]),
        ]},
        {"name": "s1.example", "pages": [
            _page("/", "archive 1/",
                  links=[("alpha", "http://s3.example/"),
                         ("archive", "http://s2.example/p3.html"), ("alpha", "/p1.html")],
                  paragraphs=["sigma lab sigma", "omega omega alpha"]),
            _page("/p1.html", "gamma 1/p1.html", emphasized=[("b", "sigma omega")],
                  paragraphs=["gamma delta delta"]),
        ]},
        {"name": "s2.example", "pages": [
            _page("/", "lab 2/",
                  links=[("index", "http://s3.example/"), ("query", "http://s1.example/")],
                  paragraphs=["omega delta lab", "report delta index"]),
        ]},
        {"name": "s3.example", "pages": [
            _page("/", "answer 3/", emphasized=[("b", "omega gamma")],
                  links=[("query", "http://s5.example/p1.html"), ("gamma", "/p1.html")],
                  paragraphs=["answer omega answer"]),
        ]},
        {"name": "s5.example", "pages": [
            _page("/p1.html", "report 5/p1.html", emphasized=[("b", "omega report")],
                  links=[("query", "http://s0.example/p3.html")],
                  paragraphs=["report answer sigma", "omega index delta"]),
        ]},
    ]},
}

#: The shrunk repros of the four seeds that fail only with ``--sequential``.
SEED_127_SEQUENTIAL = {'config': {'batch_per_site': True,
                'combine_results_and_cht': False,
                'compiled_plans': False,
                'frontier_batching': False,
                'log_subsumption': 'paper',
                'pump_budget': None},
     'faults': [{'end': 2.818, 'kind': 'drop', 'p': 0.245}],
     'latency': [],
     'queries': [{'contains': 'sigma',
                  'delimiter': 'b',
                  'pre': {'bound': 3, 'rep': {'alt': ['L', 'G']}},
                  'relinfon': False,
                  'start': 'http://s4.example/'}],
     'query': {'anchor': False,
               'contains': 'archive',
               'delimiter': 'i',
               'label_join': False,
               'pre': {'bound': 2, 'rep': {'alt': ['L', 'G']}},
               'relinfon': True,
               'start': 'http://s0.example/'},
     'schedule_seed': None,
     'seed': 127,
     'sequential': True,
     'web': {'sites': [{'name': 's0.example',
                        'pages': [{'emphasized': [['i', 'archive beta']],
                                   'links': [['index', 'http://s2.example/'],
                                             ['sigma', '/p9.html']],
                                   'paragraphs': ['answer report report'],
                                   'path': '/',
                                   'title': 'delta 0/'}]},
                       {'name': 's1.example',
                        'pages': [{'emphasized': [],
                                   'links': [['omega', 'http://s2.example/'],
                                             ['query', '/p1.html']],
                                   'paragraphs': ['delta query alpha', 'delta answer lab'],
                                   'path': '/',
                                   'title': 'omega 1/'}]},
                       {'name': 's2.example',
                        'pages': [{'emphasized': [],
                                   'links': [['query', 'http://s4.example/'],
                                             ['gamma', '/p6.html']],
                                   'paragraphs': [],
                                   'path': '/',
                                   'title': 'gamma 2/'}]},
                       {'name': 's3.example', 'pages': []},
                       {'name': 's4.example',
                        'pages': [{'emphasized': [],
                                   'links': [['report', 'http://s3.example/p3.html'],
                                             ['sigma', '/p1.html']],
                                   'paragraphs': [],
                                   'path': '/',
                                   'title': 'lab 4/'},
                                  {'emphasized': [],
                                   'links': [['sigma', 'http://s1.example/'],
                                             ['delta', '/p8.html']],
                                   'paragraphs': [],
                                   'path': '/p1.html',
                                   'title': 'alpha 4/p1.html'}]}]}}

SEED_354_SEQUENTIAL = {'config': {'batch_per_site': True,
                'combine_results_and_cht': False,
                'compiled_plans': False,
                'frontier_batching': True,
                'log_subsumption': 'paper',
                'pump_budget': None},
     'faults': [{'end': 2.015, 'kind': 'drop', 'p': 0.235},
                {'a': ['user.example'],
                 'b': ['s1.example', 's0.example'],
                 'end': 2.941,
                 'kind': 'partition',
                 'start': 0.901}],
     'latency': [],
     'queries': [{'contains': 'answer',
                  'delimiter': 'i',
                  'pre': {'bound': 1, 'rep': {'alt': ['L', 'G']}},
                  'relinfon': False,
                  'start': 'http://s1.example/'}],
     'query': {'anchor': False,
               'contains': 'alpha',
               'delimiter': 'b',
               'label_join': False,
               'pre': 'N',
               'relinfon': False,
               'start': 'http://s0.example/'},
     'schedule_seed': None,
     'seed': 354,
     'sequential': True,
     'web': {'sites': [{'name': 's0.example',
                        'pages': [{'emphasized': [],
                                   'links': [],
                                   'paragraphs': ['archive delta index', 'omega delta query'],
                                   'path': '/',
                                   'title': 'sigma 0/'}]},
                       {'name': 's1.example',
                        'pages': [{'emphasized': [],
                                   'links': [],
                                   'paragraphs': [],
                                   'path': '/',
                                   'title': 'index 1/'}]}]}}

SEED_813_SEQUENTIAL = {'config': {'batch_per_site': True,
                'combine_results_and_cht': False,
                'compiled_plans': False,
                'frontier_batching': True,
                'log_subsumption': 'paper',
                'pump_budget': 2},
     'faults': [{'end': 4.326, 'kind': 'drop', 'p': 0.118},
                {'end': 2.489, 'kind': 'drop', 'p': 0.113}],
     'latency': [],
     'queries': [],
     'query': {'anchor': False,
               'contains': 'lab',
               'delimiter': 'i',
               'label_join': False,
               'pre': {'bound': 2, 'rep': {'alt': ['L', 'G']}},
               'relinfon': False,
               'start': 'http://s0.example/'},
     'schedule_seed': None,
     'seed': 813,
     'sequential': True,
     'web': {'sites': [{'name': 's0.example',
                        'pages': [{'emphasized': [],
                                   'links': [['sigma', '/p2.html'], ['archive', '/p1.html']],
                                   'paragraphs': [],
                                   'path': '/',
                                   'title': 'delta 0/'},
                                  {'emphasized': [],
                                   'links': [['lab', 'http://s2.example/']],
                                   'paragraphs': ['delta omega gamma'],
                                   'path': '/p1.html',
                                   'title': 'lab 0/p1.html'},
                                  {'emphasized': [],
                                   'links': [['report', 'http://s1.example/p1.html'],
                                             ['sigma', '/p6.html']],
                                   'paragraphs': ['query report query', 'query index archive'],
                                   'path': '/p2.html',
                                   'title': 'lab 0/p2.html'}]},
                       {'name': 's1.example', 'pages': []},
                       {'name': 's2.example',
                        'pages': [{'emphasized': [],
                                   'links': [],
                                   'paragraphs': ['alpha archive lab'],
                                   'path': '/',
                                   'title': 'alpha 2/'}]}]}}

SEED_970_SEQUENTIAL = {'config': {'batch_per_site': True,
                'combine_results_and_cht': False,
                'compiled_plans': False,
                'frontier_batching': True,
                'log_subsumption': 'paper',
                'pump_budget': None},
     'faults': [{'a': ['user.example'],
                 'b': ['s3.example'],
                 'end': 2.047,
                 'kind': 'partition',
                 'start': 0.141},
                {'end': 4.465, 'kind': 'drop', 'p': 0.086}],
     'latency': [],
     'queries': [],
     'query': {'anchor': False,
               'contains': 'alpha',
               'delimiter': 'i',
               'label_join': False,
               'pre': {'bound': 2, 'rep': {'alt': ['L', 'G']}},
               'relinfon': True,
               'start': 'http://s0.example/'},
     'schedule_seed': None,
     'seed': 970,
     'sequential': True,
     'web': {'sites': [{'name': 's0.example',
                        'pages': [{'emphasized': [],
                                   'links': [['report', 'http://s2.example/'],
                                             ['delta', 'http://s5.example/'],
                                             ['beta', '/p1.html']],
                                   'paragraphs': ['alpha gamma omega'],
                                   'path': '/',
                                   'title': 'gamma 0/'},
                                  {'emphasized': [],
                                   'links': [['alpha', 'http://s3.example/'],
                                             ['index', 'http://s5.example/'],
                                             ['beta', 'http://s1.example/']],
                                   'paragraphs': ['sigma answer sigma'],
                                   'path': '/p1.html',
                                   'title': 'delta 0/p1.html'}]},
                       {'name': 's1.example',
                        'pages': [{'emphasized': [],
                                   'links': [['sigma', 'http://s4.example/']],
                                   'paragraphs': ['delta answer sigma'],
                                   'path': '/',
                                   'title': 'report 1/'}]},
                       {'name': 's2.example',
                        'pages': [{'emphasized': [],
                                   'links': [['omega', '/p3.html']],
                                   'paragraphs': [],
                                   'path': '/',
                                   'title': 'query 2/'}]},
                       {'name': 's3.example',
                        'pages': [{'emphasized': [['i', 'alpha index']],
                                   'links': [],
                                   'paragraphs': ['archive omega beta', 'report index index'],
                                   'path': '/',
                                   'title': 'query 3/'}]},
                       {'name': 's5.example', 'pages': []}]}}

_SPLIT_HALVES = pytest.mark.parametrize(
    "spec",
    [
        SEED_225, SEED_286, SEED_127_SEQUENTIAL, SEED_354_SEQUENTIAL, SEED_813_SEQUENTIAL,
        SEED_970_SEQUENTIAL,
    ],
    ids=["225", "286", "127-sequential", "354-sequential", "813-sequential", "970-sequential"],
)


@_SPLIT_HALVES
def test_a_lost_data_half_comes_back_with_the_recovery_round(spec):
    result = run_case(spec)
    assert result.ok, [str(v) for v in result.violations]


@_SPLIT_HALVES
def test_the_same_cases_are_clean_with_the_halves_combined(spec):
    combined = copy.deepcopy(spec)
    combined["config"]["combine_results_and_cht"] = True
    result = run_case(combined)
    assert result.ok, [str(v) for v in result.violations]


# --- slow is not dead (ROADMAP item 19) --------------------------------------------
# Seed 8's generated case, with s0's messages to the user-site held back
# ``_SLOW`` seconds until the supervisor's first recovery round (its quiet
# timeout is 2 s).  s0's first report is then still in flight when the round
# supersedes its dispatch and re-forwards it under epoch 1.  When s0's log
# table dropped that re-forward as a duplicate of its epoch-0 entry, the
# report it sent retired the new instance with no rows, the CHT balanced and
# the query ended COMPLETE without the slow report's rows.  The log table is
# epoch-aware: the re-forward is processed again, so its report carries the
# rows and announces the children.  The delay is fixed per link and window,
# not drawn and not a function of message size.

_SLOW = 3.0
_FIRST_ROUND = 2.0


class _SlowLinkNetwork(Network):
    """The simulator with s0 → user-site sends leaving ``_SLOW`` seconds late
    before ``_FIRST_ROUND``."""

    def send(self, src, dst, port, payload, *, on_outcome=None):
        if (src, dst) == ("s0.example", "user.example") and self.clock.now < _FIRST_ROUND:
            self.clock.schedule(
                _SLOW,
                lambda: Network.send(self, src, dst, port, payload, on_outcome=on_outcome),
            )
        else:
            super().send(src, dst, port, payload, on_outcome=on_outcome)


def test_seed_8_is_clean_without_the_slow_link():
    result = run_case(generate_case(8))
    assert result.ok, [str(v) for v in result.violations]
    assert result.status == "complete"


def test_a_slow_report_superseded_by_a_recovery_round_keeps_its_rows(monkeypatch):
    monkeypatch.setattr(engine_module, "Network", _SlowLinkNetwork)
    result = run_case(generate_case(8))
    assert result.ok, [str(v) for v in result.violations]
    assert result.status == "complete"

"""Seeded generators for DST cases: webs, queries, fault schedules.

A *case* is one fully-specified simulation scenario, serialized as a plain
JSON-able dict so a failing case can be written to disk, shrunk and
replayed bit-identically (``tools/dst.py replay``).  The spec carries:

``web``
    A synthetic multi-site web (built through
    :class:`~repro.web.builders.WebBuilder`): sites, pages, titles,
    paragraphs, links (local, global and interior) and emphasized segments
    that give ``relinfon`` rows something to match.

``query``
    A well-formed DISQL web-query: a start URL on the first site, a PRE
    as a small JSON tree (rendered through the real
    :mod:`repro.pre.ast` constructors, so the text the DISQL parser sees
    is exactly what the engine's printer produces), and optionally a
    ``relinfon`` join with a ``contains`` predicate.

``faults``
    A list of fault events instantiated as a seeded
    :class:`~repro.net.faults.FaultPlan` — crashes (with/without restart),
    user-to-group partitions, flaky edge windows and background drop
    probability.  Roughly a quarter of generated cases are fault-free
    (the oracle then demands exact equivalence).

``latency`` / ``schedule_seed`` / ``config``
    Directed slow edges (message reordering), the
    :meth:`~repro.net.simclock.SimClock.set_tie_breaker` seed for schedule
    exploration, and the engine ablation knobs the case runs under.

Everything is a pure function of the seed: ``generate_case(s)`` returns
the same spec forever, which is what makes the corpus a regression suite.
"""

from __future__ import annotations

import random
from typing import Any

from ..model.relations import LinkType
from ..net.faults import FaultPlan
from ..pre.ast import EMPTY, Atom, Pre, alt, concat, repeat
from ..web.builders import WebBuilder
from ..web.web import Web

__all__ = [
    "generate_case",
    "build_web",
    "query_text",
    "query_specs",
    "query_texts",
    "build_fault_plan",
    "latency_overrides",
    "pre_from_tree",
]

#: Small closed vocabulary — keeps ``contains`` predicates hitting often.
WORDS = (
    "alpha", "beta", "gamma", "delta", "omega", "sigma",
    "answer", "query", "index", "archive", "report", "lab",
)
DELIMITERS = ("b", "i")

Spec = dict[str, Any]


# -- PRE trees -----------------------------------------------------------------
#
# JSON form: "L"/"G"/"I"/"N" for atoms, {"cat": [...]}, {"alt": [...]},
# {"rep": tree, "bound": int|None}.


def pre_from_tree(tree: Any) -> Pre:
    """Instantiate a JSON PRE tree through the real smart constructors."""
    if isinstance(tree, str):
        return EMPTY if tree == "N" else Atom(LinkType(tree))
    if "cat" in tree:
        return concat(pre_from_tree(part) for part in tree["cat"])
    if "alt" in tree:
        return alt(pre_from_tree(option) for option in tree["alt"])
    return repeat(pre_from_tree(tree["rep"]), tree["bound"])


def _gen_pre_tree(rng: random.Random, depth: int) -> Any:
    """A random PRE tree: atoms weighted toward L/G, bounded depth."""
    if depth <= 0 or rng.random() < 0.45:
        return rng.choice(("L", "L", "G", "G", "I", "N"))
    shape = rng.random()
    if shape < 0.4:
        return {"cat": [_gen_pre_tree(rng, depth - 1) for __ in range(2)]}
    if shape < 0.7:
        return {"alt": [_gen_pre_tree(rng, depth - 1) for __ in range(2)]}
    bound = None if rng.random() < 0.25 else rng.randint(1, 3)
    return {"rep": _gen_pre_tree(rng, depth - 1), "bound": bound}


# -- case generation -----------------------------------------------------------


def generate_case(seed: int, schedule_seed: int | None = None) -> Spec:
    """The deterministic case spec for ``seed`` (see module doc)."""
    rng = random.Random(f"dst-case:{seed}")
    sites = _gen_web(rng)
    site_names = [site["name"] for site in sites]

    # Most PREs should actually reach a useful fraction of the web —
    # all-random trees too often die at the start node, leaving the oracle
    # nothing to check — so bias toward reachy shapes.
    shape = rng.random()
    if shape < 0.35:
        pre_tree: Any = {"rep": {"alt": ["L", "G"]}, "bound": rng.choice((2, 3, None))}
    elif shape < 0.6:
        pre_tree = {
            "cat": ["G", {"rep": rng.choice(("L", {"alt": ["L", "G"]})),
                          "bound": rng.randint(1, 3)}]
        }
    else:
        pre_tree = _gen_pre_tree(rng, depth=3)

    # Pick the contains-word from a segment that actually exists, usually.
    segments = [
        (em[0], word)
        for site in sites
        for page in site["pages"]
        for em in page["emphasized"]
        for word in em[1].split()
    ]
    if segments and rng.random() < 0.8:
        delimiter, contains = rng.choice(segments)
    else:
        delimiter, contains = rng.choice(DELIMITERS), rng.choice(WORDS)
    query = {
        "start": f"http://{site_names[0]}/",
        "pre": pre_tree,
        "relinfon": rng.random() < 0.6,
        "delimiter": delimiter,
        "contains": contains,
    }

    faults = _gen_faults(rng, site_names)

    latency: list[list[Any]] = []
    for __ in range(rng.choice((0, 0, 0, 1, 1, 2))):
        src = rng.choice(site_names)
        latency.append([src, "user.example", round(rng.uniform(1.0, 3.0), 3)])

    # Newer knobs are drawn *last* (in introduction order) so adding each
    # left every earlier draw — and therefore every existing seed's
    # web/query/faults — intact.
    config = {
        "log_subsumption": "language" if rng.random() < 0.2 else "paper",
        "batch_per_site": rng.random() < 0.75,
    }
    # ``compiled_plans``' draw position, discarded: every case compiles at
    # its servers, because the oracle's reference interprets.
    rng.random()
    config["frontier_batching"] = rng.random() < 0.5
    # ``scheduler``'s draw position, discarded: every server is fair.
    rng.random()
    config["pump_budget"] = rng.choice((None, None, None, 2, 4, 8))

    # Extra tenants: 0–2 more queries on the same web, so fair scheduling
    # and the cross-query isolation oracle see real interleavings.  Drawn
    # after every single-query knob (ordering rule above).
    queries: list[dict] = []
    for __ in range(rng.choice((0, 1, 1, 2))):
        start_site = rng.choice(site_names)
        if rng.random() < 0.5:
            extra_tree: Any = {
                "rep": {"alt": ["L", "G"]}, "bound": rng.choice((1, 2, 3))
            }
        else:
            extra_tree = _gen_pre_tree(rng, depth=2)
        if segments and rng.random() < 0.8:
            extra_delimiter, extra_contains = rng.choice(segments)
        else:
            extra_delimiter = rng.choice(DELIMITERS)
            extra_contains = rng.choice(WORDS)
        queries.append(
            {
                "start": f"http://{start_site}/",
                "pre": extra_tree,
                "relinfon": rng.random() < 0.5,
                "delimiter": extra_delimiter,
                "contains": extra_contains,
            }
        )

    # Overload-pressure knobs only on faulted cases: a clean case must
    # finish COMPLETE with the exact reference rows, which admission
    # refusals and load shedding would (by design) break.
    if faults:
        if rng.random() < 0.25:
            config["per_query_queue_limit"] = rng.choice((8, 12, 16))
        if rng.random() < 0.2:
            config["server_queue_limit"] = rng.choice((16, 24, 32))
            config["shed_after"] = round(rng.uniform(0.5, 2.0), 3)

    # Two retired knobs' draw positions (ordering rule above), the
    # ``cross_query_caching`` one first: discarding the values instead of
    # skipping the draws keeps every seed's later draws.  Every server
    # keeps a memo.
    rng.random()
    rng.random()

    # Join-depth axis — newest draw, appended last (ordering rule
    # above).  An anchor alias joined on a shared variable
    # (``a.base = d.url``) deepens the main node-query by one plan level —
    # three levels when the relinfon join is also on — so the batch
    # pipeline's per-binding residuals are cross-checked against the
    # interpreter on multi-level joins per case, not just in the
    # hypothesis suite.
    query["anchor"] = rng.random() < 0.35

    # Cross-level contains axis — newest draw, appended last (ordering rule
    # above).  With the relinfon and anchor axes both on, the query takes
    # ``eval_join``'s shape — the relinfon leaf's first residual is
    # ``a.label contains r.delimiter`` — so the batched cross-level kernel
    # is checked against the oracle per case.
    query["label_join"] = rng.random() < 0.5

    return {
        "seed": seed,
        "web": {"sites": sites},
        "query": query,
        "queries": queries,
        "faults": faults,
        "latency": latency,
        "schedule_seed": schedule_seed,
        "config": config,
    }


def _gen_web(rng: random.Random) -> list[dict]:
    n_sites = rng.randint(2, 6)
    names = [f"s{i}.example" for i in range(n_sites)]
    sites = []
    for i, name in enumerate(names):
        n_pages = rng.randint(1, 4)
        paths = ["/"] + [f"/p{j}.html" for j in range(1, n_pages)]
        pages = []
        for path in paths:
            links: list[list[str]] = []
            local_targets = [p for p in paths if p != path]
            for __ in range(rng.randint(2, 5)):
                kind = rng.random()
                if kind < 0.35 and local_targets:  # local link to a real page
                    links.append([rng.choice(WORDS), rng.choice(local_targets)])
                elif kind < 0.45:  # dangling local link (404 coverage)
                    links.append([rng.choice(WORDS), f"/p{rng.randint(5, 9)}.html"])
                elif kind < 0.9:  # global link, usually to a root page
                    other = rng.choice([n for n in names if n != name] or names)
                    target_path = "/" if rng.random() < 0.7 else f"/p{rng.randint(1, 3)}.html"
                    links.append([rng.choice(WORDS), f"http://{other}{target_path}"])
                else:  # interior link (same document, fragment only)
                    links.append([rng.choice(WORDS), f"{path}#sec{rng.randint(1, 3)}"])
            emphasized = [
                [rng.choice(DELIMITERS), f"{rng.choice(WORDS)} {rng.choice(WORDS)}"]
                for __ in range(rng.randint(0, 3))
            ]
            paragraphs = [
                f"{rng.choice(WORDS)} {rng.choice(WORDS)} {rng.choice(WORDS)}"
                for __ in range(rng.randint(0, 2))
            ]
            pages.append(
                {
                    "path": path,
                    "title": f"{rng.choice(WORDS)} {i}{path}",
                    "links": links,
                    "emphasized": emphasized,
                    "paragraphs": paragraphs,
                }
            )
        sites.append({"name": name, "pages": pages})
    return sites


def _gen_faults(rng: random.Random, site_names: list[str]) -> list[dict]:
    if rng.random() < 0.25:
        return []  # clean case: the oracle demands exact equivalence
    events: list[dict] = []
    for __ in range(rng.randint(1, 4)):
        kind = rng.random()
        if kind < 0.35:
            at = round(rng.uniform(0.1, 3.0), 3)
            restart_at = (
                round(at + rng.uniform(0.5, 3.0), 3) if rng.random() < 0.8 else None
            )
            events.append(
                {
                    "kind": "crash",
                    "site": rng.choice(site_names),
                    "at": at,
                    "restart_at": restart_at,
                }
            )
        elif kind < 0.6:
            group = rng.sample(site_names, k=rng.randint(1, min(2, len(site_names))))
            start = round(rng.uniform(0.1, 2.0), 3)
            events.append(
                {
                    "kind": "partition",
                    "a": ["user.example"],
                    "b": group,
                    "start": start,
                    "end": round(start + rng.uniform(0.5, 2.5), 3),
                }
            )
        elif kind < 0.85:
            start = round(rng.uniform(0.1, 2.5), 3)
            events.append(
                {
                    "kind": "flaky",
                    "src": rng.choice(site_names + ["user.example"]),
                    "dst": rng.choice(site_names),
                    "start": start,
                    "end": round(start + rng.uniform(0.3, 1.5), 3),
                }
            )
        else:
            events.append(
                {
                    "kind": "drop",
                    "p": round(rng.uniform(0.02, 0.25), 3),
                    "end": round(rng.uniform(2.0, 5.0), 3),
                }
            )
    return events


# -- spec instantiation --------------------------------------------------------


def build_web(spec: Spec) -> Web:
    """Materialize the spec's web through :class:`WebBuilder`."""
    builder = WebBuilder()
    for site in spec["web"]["sites"]:
        site_builder = builder.site(site["name"])
        for page in site["pages"]:
            site_builder.page(
                page["path"],
                title=page["title"],
                paragraphs=page.get("paragraphs", ()),
                links=[tuple(link) for link in page.get("links", ())],
                emphasized=[tuple(em) for em in page.get("emphasized", ())],
            )
    return builder.build()


def _render_query(query: dict) -> str:
    """Render one query dict as DISQL text.

    Composed from declaration / select / where fragments so the optional
    axes stack: ``relinfon`` adds the delimiter-keyed join, ``anchor``
    (absent in older repro files — ``.get`` keeps them byte-identical)
    adds an anchor alias equality-joined on the shared ``d.url`` variable.
    With both on, the node-query is a three-level join, and ``label_join``
    declares the anchor alias before the relinfon one and adds
    ``eval_join``'s cross-level ``a.label contains r.delimiter``.
    """
    pre = pre_from_tree(query["pre"])
    decls = [f'document d such that "{query["start"]}" {pre} d']
    if query["relinfon"]:
        select = ["d.url", "r.text"]
        decls.append(f'relinfon r such that r.delimiter = "{query["delimiter"]}"')
        where = [f'r.text contains "{query["contains"]}"']
    else:
        select = ["d.url", "d.title"]
        where = []
    if query.get("anchor"):
        select.append("a.href")
        where.append("a.href != a.base")
        anchor = "anchor a such that a.base = d.url"
        if query["relinfon"] and query.get("label_join"):
            # eval_join's level order (d, a, r): the conjunct is then the
            # first residual of a leaf without a probe — the batched kernel.
            decls.insert(1, anchor)
            where.append("a.label contains r.delimiter")
        else:
            decls.append(anchor)
    text = "select " + ", ".join(select) + "\nfrom " + ",\n     ".join(decls)
    if where:
        text += "\nwhere " + " and ".join(where)
    return text


def query_specs(spec: Spec) -> list[dict]:
    """All of the spec's query dicts: the main query, then the extra
    tenants (``queries`` is absent in pre-multi-tenant repro files)."""
    return [spec["query"], *spec.get("queries", ())]


def query_text(spec: Spec) -> str:
    """Render the spec's main query as DISQL text."""
    return _render_query(spec["query"])


def query_texts(spec: Spec) -> list[str]:
    """Render every query of the spec, in submission order (the main query
    first — so index ``i`` here matches ``qid.number`` order at runtime)."""
    return [_render_query(query) for query in query_specs(spec)]


def build_fault_plan(spec: Spec) -> FaultPlan | None:
    """The spec's fault schedule as a seeded plan, or None when clean.

    Events referencing sites that no longer exist in the spec's web (the
    shrinker removes sites) are skipped rather than crashing the setup —
    a shrunk case must fail on the *protocol*, not on a dangling name.
    """
    known = {site["name"] for site in spec["web"]["sites"]} | {"user.example"}
    plan = FaultPlan(seed=spec["seed"])
    installed = 0
    for event in spec["faults"]:
        kind = event["kind"]
        if kind == "crash":
            if event["site"] not in known:
                continue
            plan.crash(event["site"], at=event["at"], restart_at=event["restart_at"])
        elif kind == "partition":
            group_a = [s for s in event["a"] if s in known]
            group_b = [s for s in event["b"] if s in known]
            if not group_a or not group_b:
                continue
            plan.partition(group_a, group_b, start=event["start"], end=event["end"])
        elif kind == "flaky":
            if event["src"] not in known or event["dst"] not in known:
                continue
            plan.flaky(event["src"], event["dst"], start=event["start"], end=event["end"])
        elif kind == "drop":
            plan.drop(event["p"], end=event["end"])
        else:
            raise ValueError(f"unknown fault kind {kind!r}")
        installed += 1
    return plan if installed else None


def latency_overrides(spec: Spec) -> dict[tuple[str, str], float] | None:
    """The spec's directed slow edges, keyed for :class:`NetworkConfig`."""
    known = {site["name"] for site in spec["web"]["sites"]} | {"user.example"}
    overrides = {
        (src, dst): delay
        for src, dst, delay in spec.get("latency", ())
        if src in known and dst in known
    }
    return overrides or None

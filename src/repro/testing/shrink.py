"""Greedy failure shrinking: minimize a failing case to a replayable repro.

Classic delta-debugging over the case spec (:mod:`repro.testing.generators`
JSON form): each pass proposes structurally smaller candidates — fewer
fault events, fewer sites/pages/links, a simpler PRE, a plainer query, no
schedule jitter, no latency overrides — and a candidate is kept iff the
failure predicate still fires.  Passes repeat until a full sweep finds
nothing removable, so the result is 1-minimal with respect to the pass
vocabulary.

The predicate is usually :func:`repro.testing.runner.case_fails`, which
treats *any* surviving violation as "still failing" (shrinking often
morphs one symptom into a related one — e.g. a hang into a spurious
PARTIAL — and chasing a single invariant label would abandon perfectly
good reductions).  Setup exceptions do **not** count as failures, so the
shrinker cannot cheat by producing a malformed spec.

The minimized spec serializes to one JSON file; ``tools/dst.py replay``
re-runs it bit-identically.
"""

from __future__ import annotations

import copy
import json
from typing import Any, Callable, Iterator

from .generators import Spec

__all__ = ["shrink", "spec_size", "to_json", "from_json"]


def spec_size(spec: Spec) -> tuple[int, ...]:
    """A lexicographic size for progress reporting (smaller is better)."""
    sites = spec["web"]["sites"]
    return (
        len(spec["faults"]),
        len(spec.get("queries", ())),
        len(sites),
        sum(len(site["pages"]) for site in sites),
        sum(
            len(page.get("links", ())) + len(page.get("emphasized", ()))
            for site in sites
            for page in site["pages"]
        ),
        _pre_size(spec["query"]["pre"]),
        len(spec.get("latency", ())),
        1 if spec.get("schedule_seed") is not None else 0,
        1 if spec["query"]["relinfon"] else 0,
        1 if spec["query"].get("anchor") else 0,
        1 if spec["query"].get("label_join") else 0,
    )


def _pre_size(tree: Any) -> int:
    if isinstance(tree, str):
        return 1
    if "cat" in tree:
        return 1 + sum(_pre_size(part) for part in tree["cat"])
    if "alt" in tree:
        return 1 + sum(_pre_size(option) for option in tree["alt"])
    return 1 + _pre_size(tree["rep"])


def to_json(spec: Spec, *, inject_bug: bool = False) -> str:
    """Serialize a (shrunk) spec as a replayable repro document."""
    return json.dumps(
        {"version": 1, "inject_bug": inject_bug, "spec": spec},
        indent=2,
        sort_keys=True,
    )


def from_json(text: str) -> tuple[Spec, bool]:
    """Parse a repro document; returns ``(spec, inject_bug)``."""
    doc = json.loads(text)
    return doc["spec"], bool(doc.get("inject_bug", False))


# -- candidate passes ----------------------------------------------------------


def _candidates(spec: Spec) -> Iterator[Spec]:
    """Structurally smaller variants of ``spec``, most aggressive first."""
    # 1. Drop fault events, one at a time.
    for index in range(len(spec["faults"])):
        candidate = copy.deepcopy(spec)
        del candidate["faults"][index]
        yield candidate
    # 1b. Drop extra tenant queries, one at a time (older repro files have
    # no "queries" key), and relax the overload-pressure knobs.
    for index in range(len(spec.get("queries", ()))):
        candidate = copy.deepcopy(spec)
        del candidate["queries"][index]
        yield candidate
    for knob in ("per_query_queue_limit", "server_queue_limit", "shed_after"):
        if spec.get("config", {}).get(knob) is not None:
            candidate = copy.deepcopy(spec)
            candidate["config"][knob] = None
            yield candidate
    # 1c. Fall back to the interpreter: a repro that still fails without
    # compiled plans rules out plan compilation, the batch pipeline and its
    # rollback-and-replay machinery as the culprit.
    if spec.get("config", {}).get("compiled_plans", True):
        candidate = copy.deepcopy(spec)
        candidate.setdefault("config", {})["compiled_plans"] = False
        yield candidate
    # 2. Disable schedule jitter.
    if spec.get("schedule_seed") is not None:
        candidate = copy.deepcopy(spec)
        candidate["schedule_seed"] = None
        yield candidate
    # 3. Drop latency overrides.
    for index in range(len(spec.get("latency", ()))):
        candidate = copy.deepcopy(spec)
        del candidate["latency"][index]
        yield candidate
    # 4. Remove whole sites (never any query's start site — a dangling
    # start would fail on setup, not on the protocol).
    start_hosts = {
        query["start"].split("//", 1)[1].split("/", 1)[0]
        for query in (spec["query"], *spec.get("queries", ()))
    }
    start_host = spec["query"]["start"].split("//", 1)[1].split("/", 1)[0]
    sites = spec["web"]["sites"]
    for index, site in enumerate(sites):
        if site["name"] in start_hosts:
            continue
        candidate = copy.deepcopy(spec)
        del candidate["web"]["sites"][index]
        yield candidate
    # 5. Remove pages (never the start site's "/").
    for site_index, site in enumerate(sites):
        for page_index, page in enumerate(site["pages"]):
            if site["name"] == start_host and page["path"] == "/":
                continue
            candidate = copy.deepcopy(spec)
            del candidate["web"]["sites"][site_index]["pages"][page_index]
            yield candidate
    # 6. Remove individual links and emphasized segments.
    for site_index, site in enumerate(sites):
        for page_index, page in enumerate(site["pages"]):
            for link_index in range(len(page.get("links", ()))):
                candidate = copy.deepcopy(spec)
                del candidate["web"]["sites"][site_index]["pages"][page_index][
                    "links"
                ][link_index]
                yield candidate
            for em_index in range(len(page.get("emphasized", ()))):
                candidate = copy.deepcopy(spec)
                del candidate["web"]["sites"][site_index]["pages"][page_index][
                    "emphasized"
                ][em_index]
                yield candidate
    # 7. Simplify the PRE: replace it with any proper subtree, shrink bounds.
    for subtree in _pre_reductions(spec["query"]["pre"]):
        candidate = copy.deepcopy(spec)
        candidate["query"]["pre"] = subtree
        yield candidate
    # 8. Simplify the query: drop the cross-level contains, the anchor join
    # level, then the relinfon join ("anchor" and "label_join" are absent in
    # older repro files).  Each level drop removes one plan level, so a
    # repro that still fails pinpoints the shallowest join depth that
    # triggers it.
    if spec["query"].get("label_join"):
        candidate = copy.deepcopy(spec)
        candidate["query"]["label_join"] = False
        yield candidate
    if spec["query"].get("anchor"):
        candidate = copy.deepcopy(spec)
        candidate["query"]["anchor"] = False
        yield candidate
    if spec["query"]["relinfon"]:
        candidate = copy.deepcopy(spec)
        candidate["query"]["relinfon"] = False
        yield candidate


def _pre_reductions(tree: Any) -> Iterator[Any]:
    """Structurally smaller PRE trees (subtrees, reduced bounds)."""
    if isinstance(tree, str):
        return
    if "cat" in tree:
        for part in tree["cat"]:
            yield copy.deepcopy(part)
        for index, part in enumerate(tree["cat"]):
            for reduced in _pre_reductions(part):
                candidate = copy.deepcopy(tree)
                candidate["cat"][index] = reduced
                yield candidate
    elif "alt" in tree:
        for option in tree["alt"]:
            yield copy.deepcopy(option)
        for index, option in enumerate(tree["alt"]):
            for reduced in _pre_reductions(option):
                candidate = copy.deepcopy(tree)
                candidate["alt"][index] = reduced
                yield candidate
    else:
        yield copy.deepcopy(tree["rep"])
        if tree["bound"] is None:
            candidate = copy.deepcopy(tree)
            candidate["bound"] = 2
            yield candidate
        elif tree["bound"] > 1:
            candidate = copy.deepcopy(tree)
            candidate["bound"] = tree["bound"] - 1
            yield candidate


def shrink(
    spec: Spec,
    fails: Callable[[Spec], bool],
    *,
    max_checks: int = 500,
    progress: Callable[[str], None] | None = None,
) -> Spec:
    """Minimize ``spec`` while ``fails(candidate)`` keeps returning True.

    Greedy first-improvement: take the first candidate that still fails,
    restart the pass list from it, stop when a full sweep yields nothing
    (1-minimal) or after ``max_checks`` predicate evaluations.
    """
    if not fails(spec):
        raise ValueError("shrink() needs a failing spec to start from")
    current = copy.deepcopy(spec)
    checks = 0
    improved = True
    while improved and checks < max_checks:
        improved = False
        for candidate in _candidates(current):
            checks += 1
            if checks >= max_checks:
                break
            if fails(candidate):
                current = candidate
                improved = True
                if progress is not None:
                    progress(f"shrunk to {spec_size(current)} after {checks} checks")
                break
    return current

"""Command-line interface for the WEBDIS reproduction.

Usage (installed as ``python -m repro.cli`` or via the console entry)::

    python -m repro.cli query --web campus --file query.disql --trace
    python -m repro.cli query --web campus --disql 'select d.url from ...'
    python -m repro.cli sitemap --web synthetic --start http://site000.example/
    python -m repro.cli linkcheck --web synthetic --floating 0.2
    python -m repro.cli demo

Webs: ``campus`` (the paper's scenario), ``figure1`` / ``figure5`` (the
paper's traversal examples) or ``synthetic`` (seeded random; shape flags
``--sites/--pages/--seed/--floating``).
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from .apps import build_site_map, find_floating_links
from .core.engine import WebDisEngine
from .errors import WebDisError
from .web import (
    SyntheticWebConfig,
    Web,
    build_campus_web,
    build_figure1_web,
    build_figure5_web,
    build_synthetic_web,
)
from .web.campus import CAMPUS_QUERY_DISQL, CAMPUS_START_URL
from .web.synthetic import synthetic_start_url

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="webdis",
        description="WEBDIS: distributed query-shipping over a simulated Web",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    def add_web_flags(sub: argparse.ArgumentParser) -> None:
        sub.add_argument(
            "--web",
            choices=("campus", "figure1", "figure5", "synthetic"),
            default="campus",
            help="which simulated web to deploy on (default: campus)",
        )
        sub.add_argument("--sites", type=int, default=8, help="synthetic web: site count")
        sub.add_argument("--pages", type=int, default=6, help="synthetic web: pages per site")
        sub.add_argument("--seed", type=int, default=1999, help="synthetic web: RNG seed")
        sub.add_argument(
            "--floating", type=float, default=0.0,
            help="synthetic web: fraction of dangling links",
        )

    query = subparsers.add_parser("query", help="run a DISQL query")
    add_web_flags(query)
    source = query.add_mutually_exclusive_group()
    source.add_argument("--disql", help="the DISQL text")
    source.add_argument("--file", help="file containing the DISQL text")
    query.add_argument("--trace", action="store_true", help="print the traversal trace")
    query.add_argument("--stats", action="store_true", help="print traffic statistics")
    query.add_argument("--html", metavar="PATH", help="write a standalone HTML run report")
    query.add_argument("--dot", metavar="PATH", help="write the traversal as Graphviz DOT")

    sitemap = subparsers.add_parser("sitemap", help="build a domain site map")
    add_web_flags(sitemap)
    sitemap.add_argument("--start", help="root URL (defaults to the web's natural root)")
    sitemap.add_argument("--depth", type=int, default=6)
    sitemap.add_argument("--global-links", action="store_true", dest="global_links")

    linkcheck = subparsers.add_parser("linkcheck", help="find floating links")
    add_web_flags(linkcheck)
    linkcheck.add_argument("--start", help="root URL (defaults to the web's natural root)")
    linkcheck.add_argument("--depth", type=int, default=6)

    lint = subparsers.add_parser("lint", help="lint a web for authoring defects")
    add_web_flags(lint)
    lint.add_argument("--root", action="append", dest="roots",
                      help="reachability root URL (repeatable)")

    explain = subparsers.add_parser(
        "explain", help="show a DISQL query in the paper's Q = S p1 q1 ... formalism"
    )
    explain_source = explain.add_mutually_exclusive_group(required=True)
    explain_source.add_argument("--disql", help="the DISQL text")
    explain_source.add_argument("--file", help="file containing the DISQL text")
    explain.add_argument(
        "--plan", action="store_true",
        help="also show, per node-query, where the executor runs each where-conjunct",
    )

    subparsers.add_parser("demo", help="run the paper's sample query end to end")
    return parser


def _build_web(args: argparse.Namespace) -> tuple[Web, str]:
    """The selected web plus its natural root/start URL."""
    if args.web == "campus":
        return build_campus_web(), CAMPUS_START_URL
    if args.web == "figure1":
        return build_figure1_web(), "http://site-s.example/"
    if args.web == "figure5":
        return build_figure5_web(), "http://site-s.example/"
    config = SyntheticWebConfig(
        sites=args.sites,
        pages_per_site=args.pages,
        seed=args.seed,
        floating_fraction=args.floating,
    )
    return build_synthetic_web(config), synthetic_start_url(config)


def _cmd_query(args: argparse.Namespace) -> int:
    web, __ = _build_web(args)
    if args.file:
        with open(args.file, encoding="utf-8") as handle:
            disql = handle.read()
    elif args.disql:
        disql = args.disql
    else:
        disql = CAMPUS_QUERY_DISQL
        if args.web != "campus":
            print("error: --disql or --file is required for non-campus webs", file=sys.stderr)
            return 2
    want_trace = args.trace or bool(args.dot) or bool(args.html)
    engine = WebDisEngine(web, trace=want_trace)
    handle = engine.run_query(disql)
    if args.trace:
        print(engine.tracer.render())
        print()
    if args.html:
        from .report_html import render_run_report

        with open(args.html, "w", encoding="utf-8") as out:
            out.write(render_run_report(engine, handle))
        print(f"wrote HTML report to {args.html}")
    if args.dot:
        with open(args.dot, "w", encoding="utf-8") as out:
            out.write(engine.tracer.to_dot())
        print(f"wrote DOT traversal to {args.dot}")
    print(handle.display_table())
    print()
    print(f"status: {handle.status.value}  "
          f"response time: {handle.response_time():.3f}s  "
          f"rows: {len(handle.rows())}")
    if args.stats:
        for key, value in engine.stats.summary().items():
            print(f"  {key:<24} {value}")
    return 0


def _cmd_sitemap(args: argparse.Namespace) -> int:
    web, default_start = _build_web(args)
    start = args.start or default_start
    site_map = build_site_map(
        web, start, depth=args.depth, include_global=args.global_links
    )
    print(site_map.render())
    print()
    print(f"pages: {len(site_map.pages)}  edges: {len(site_map.edges)}  "
          f"bytes on wire: {site_map.bytes_on_wire}")
    return 0


def _cmd_linkcheck(args: argparse.Namespace) -> int:
    web, default_start = _build_web(args)
    start = args.start or default_start
    report = find_floating_links(web, start, depth=args.depth, include_global=True)
    print(report.render())
    return 0 if report.ok else 1


def _cmd_lint(args: argparse.Namespace) -> int:
    from .web.validation import lint_web

    web, default_start = _build_web(args)
    roots = args.roots if args.roots else [default_start]
    report = lint_web(web, roots)
    print(report.render())
    return 0 if report.ok else 1


def _cmd_explain(args: argparse.Namespace) -> int:
    from .disql import compile_disql, explain_webquery

    if args.file:
        with open(args.file, encoding="utf-8") as handle:
            disql = handle.read()
    else:
        disql = args.disql
    print(explain_webquery(compile_disql(disql), narrate=True, plans=args.plan))
    return 0


def _cmd_demo(__: argparse.Namespace) -> int:
    engine = WebDisEngine(build_campus_web(), trace=True)
    handle = engine.run_query(CAMPUS_QUERY_DISQL)
    print("DISQL (the paper's example query 2):")
    print(CAMPUS_QUERY_DISQL.strip())
    print()
    print(engine.tracer.render())
    print()
    print(handle.display_table())
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "query": _cmd_query,
        "sitemap": _cmd_sitemap,
        "linkcheck": _cmd_linkcheck,
        "lint": _cmd_lint,
        "explain": _cmd_explain,
        "demo": _cmd_demo,
    }
    try:
        return handlers[args.command](args)
    except WebDisError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

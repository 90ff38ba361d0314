"""Tests for the web scenario linter."""

from __future__ import annotations

from repro.cli import main
from repro.web import SyntheticWebConfig, build_campus_web, build_synthetic_web
from repro.web.builders import WebBuilder
from repro.web.site import Site
from repro.web.validation import lint_web
from repro.web.web import Web


def _codes(report):
    return {f.code for f in report.findings}


class TestLintChecks:
    def test_campus_web_clean(self):
        report = lint_web(build_campus_web(), ["http://www.csa.iisc.ernet.in/"])
        assert report.ok
        assert "floating-link" not in _codes(report)
        assert "unreachable-page" not in _codes(report)

    def test_floating_link_detected(self):
        builder = WebBuilder()
        builder.site("a.example").page(
            "/", title="root", links=[("gone", "/missing.html")]
        )
        report = lint_web(builder.build())
        assert report.by_code("floating-link")
        assert report.ok  # warnings only

    def test_unreachable_page_detected(self):
        builder = WebBuilder()
        site = builder.site("a.example")
        site.page("/", title="root")
        site.page("/island.html", title="island")
        report = lint_web(builder.build(), ["http://a.example/"])
        subjects = {f.subject for f in report.by_code("unreachable-page")}
        assert subjects == {"http://a.example/island.html"}

    def test_default_roots_are_first_pages(self):
        builder = WebBuilder()
        site = builder.site("a.example")
        site.page("/", title="root", links=[("z", "/z.html")])
        site.page("/z.html", title="z")
        report = lint_web(builder.build())
        assert not report.by_code("unreachable-page")

    def test_empty_site_is_error(self):
        web = Web()
        web.add_site(Site("hollow.example"))
        report = lint_web(web)
        assert not report.ok
        assert report.by_code("empty-site")

    def test_no_title_detected(self):
        builder = WebBuilder()
        builder.site("a.example").raw_page("/", "<html><body>text</body></html>")
        report = lint_web(builder.build())
        assert report.by_code("no-title")

    def test_empty_page_detected(self):
        builder = WebBuilder()
        builder.site("a.example").raw_page(
            "/", "<html><head><title>t</title></head><body></body></html>"
        )
        report = lint_web(builder.build())
        assert report.by_code("empty-page")

    def test_duplicate_title_info(self):
        builder = WebBuilder()
        site = builder.site("a.example")
        site.page("/", title="Same Title", links=[("x", "/x.html")])
        site.page("/x.html", title="Same Title")
        report = lint_web(builder.build())
        assert report.by_code("duplicate-title")

    def test_self_link_only_info(self):
        builder = WebBuilder()
        builder.site("a.example").page("/", title="loop", links=[("me", "/")])
        report = lint_web(builder.build())
        assert report.by_code("self-link-only")

    def test_render_clean(self):
        report = lint_web(build_campus_web())
        # The campus web has some acceptable infos; render never crashes.
        assert report.render().startswith("web lint:")


def test_each_page_is_parsed_once(parse_calls):
    web = build_campus_web()
    lint_web(web)
    assert len(parse_calls) == web.page_count()


class TestLintCli:
    def test_clean_exit_zero(self, capsys):
        code = main(["lint", "--web", "campus"])
        assert code == 0

    def test_synthetic_with_floating_links(self, capsys):
        code = main(
            ["lint", "--web", "synthetic", "--floating", "0.3", "--seed", "13"]
        )
        out = capsys.readouterr().out
        # floating links are warnings: exit stays 0, findings printed
        assert code == 0
        assert "floating-link" in out

    def test_custom_root(self, capsys):
        code = main(
            ["lint", "--web", "campus", "--root", "http://www.csa.iisc.ernet.in/"]
        )
        assert code == 0

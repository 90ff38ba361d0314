"""Shared fixtures for the WEBDIS test suite."""

from __future__ import annotations

import pytest

from repro.web import (
    SyntheticWebConfig,
    build_campus_web,
    build_figure1_web,
    build_figure5_web,
    build_synthetic_web,
)


@pytest.fixture(scope="session")
def campus_web():
    return build_campus_web()


@pytest.fixture(scope="session")
def figure1_web():
    return build_figure1_web()


@pytest.fixture(scope="session")
def figure5_web():
    return build_figure5_web()


@pytest.fixture()
def small_synthetic_web():
    return build_synthetic_web(SyntheticWebConfig(sites=4, pages_per_site=3, seed=42))


@pytest.fixture()
def parse_calls(monkeypatch):
    """The pages handed to ``parse_html`` by the web, lint and crawl modules."""
    from repro.html import parser
    from repro.index import crawler
    from repro.web import validation, web

    calls = []

    def counting(html):
        calls.append(html)
        return parser.parse_html(html)

    for module in (crawler, validation, web):
        monkeypatch.setattr(module, "parse_html", counting)
    return calls

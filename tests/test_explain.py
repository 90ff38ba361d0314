"""Tests for the paper-formalism explain output."""

from __future__ import annotations

from collections import OrderedDict

from repro.disql import compile_disql, explain_webquery, format_node_query
from repro.relational.compile import compile_node_query
from tests.test_disql_parser import EXAMPLE_2


class TestExplain:
    def test_headline_matches_paper(self):
        text = explain_webquery(compile_disql(EXAMPLE_2))
        first = text.splitlines()[0]
        # Paper: Q = http://csa.iisc.ernet.in  L  q1  G.(L*1)  q2
        assert first == "Q = http://csa.iisc.ernet.in/  L  q1  G.L*1  q2"

    def test_lists_each_node_query(self):
        text = explain_webquery(compile_disql(EXAMPLE_2))
        assert "where q1 is" in text
        assert "where q2 is" in text
        assert 'd0.title contains "lab"' in text

    def test_multiple_start_nodes(self):
        query = compile_disql(
            'select d.url from document d such that'
            ' "http://a.example/" | "http://b.example/" G d'
        )
        headline = explain_webquery(query).splitlines()[0]
        assert "http://a.example/ | http://b.example/" in headline

    def test_node_query_without_where(self):
        query = compile_disql(
            'select a.href from document d such that "http://a.example/" L d, anchor a'
        )
        rendered = format_node_query(query.steps[0].query)
        assert "where" not in rendered
        assert "document d,\n     anchor a" in rendered

    def test_sitewide_shown(self):
        query = compile_disql(
            "select d.url, e.url\n"
            'from document d such that "http://a.example/" L d,\n'
            "     document e such that sitewide\n"
            'where e.title contains "contact"'
        )
        rendered = format_node_query(query.steps[0].query)
        assert "document e such that sitewide" in rendered

    def test_fuzzy_contains_rendered(self):
        query = compile_disql(
            'select d.url from document d such that "http://a.example/" L d\n'
            'where d.title contains~2 "convener"'
        )
        assert "contains~2" in explain_webquery(query)


# EXP-E1's ``eval_join`` node-query (benchmarks/e2e/workloads.py), one literal.
EVAL_JOIN = (
    'select d.url, a.href, r.text from document d such that "http://rich0.example/p0.html" '
    "(G|L)*2 d, anchor a, relinfon r "
    'where r.text contains "q0a1b2" and a.label contains r.delimiter '
    "and a.href != a.base"
)


class TestExplainPlans:
    """``plans=True``: where the executor runs each conjunct, per table."""

    def test_paper_example(self):
        text = explain_webquery(compile_disql(EXAMPLE_2), plans=True)
        assert (
            'where d0.title contains "lab"\n'
            "plan of q1:\n"
            "bind document d0\n"
            '  selection: d0.title contains "lab"\n'
            "\n"
        ) in text
        assert text.endswith(
            "plan of q2:\n"
            "bind document d1\n"
            "bind relinfon r\n"
            '  selection: r.delimiter = "hr"\n'
            '  selection: r.text contains "convener"\n'
        )

    def test_eval_join(self):
        text = explain_webquery(compile_disql(EVAL_JOIN), plans=True)
        assert text.endswith(
            "plan of q1:\n"
            "bind document d\n"
            "bind anchor a\n"
            "  selection (after non-total): a.href != a.base\n"
            "bind relinfon r\n"
            '  selection: r.text contains "q0a1b2"\n'
            "  residual: a.label contains r.delimiter\n"
        )

    def test_a_total_selection_ahead_of_a_non_total_one_is_marked(self):
        def plan(where, tables="anchor a, relinfon r"):
            query = compile_disql(
                'select d.url from document d such that "http://a.example/" L d,\n'
                f"     {tables} where {where}"
            )
            return compile_node_query(query.steps[0].query).describe()

        # Only totals: level order, nothing marked.
        assert "after non-total" not in plan('a.href != a.base and r.delimiter = "b"')
        # A total behind the last non-total already runs after it.
        assert plan('d.title contains "x" and a.href != a.base', "anchor a") == (
            "bind document d\n"
            '  selection: d.title contains "x"\n'
            "bind anchor a\n"
            "  selection: a.href != a.base"
        )
        assert plan(
            'd.title contains "x" and a.href != a.base and a.ltype = "G"'
            ' and r.text contains "y"'
        ) == (
            "bind document d\n"
            '  selection: d.title contains "x"\n'
            "bind anchor a\n"
            "  selection (after non-total): a.href != a.base\n"
            '  selection (after non-total): a.ltype = "G"\n'
            "bind relinfon r\n"
            '  selection: r.text contains "y"'
        )

    def test_probe_and_gate_lines(self):
        query = compile_disql(
            'select a.href from document d such that "http://a.example/" L d,\n'
            "     anchor a such that a.base = d.url\n"
            'where "x" = "x" and a.label contains d.title and a.ltype = "G"'
        )
        plan = explain_webquery(query, plans=True).split("plan of q1:\n")[1]
        assert plan == (
            'gate: "x" = "x"\n'
            "bind document d\n"
            "bind anchor a\n"
            "  residual: a.base = d.url\n"
            "  residual: a.label contains d.title\n"
            '  residual: a.ltype = "G"\n'
        )

    def test_plans_sharing_a_lowering_describe_their_own_literals(self):
        lowerings = OrderedDict()
        described = []
        for literal in ("q0a1b2", "zzzzzz"):
            query = compile_disql(EVAL_JOIN.replace("q0a1b2", literal)).steps[0].query
            described.append(compile_node_query(query, lowerings).describe())
        assert len(lowerings) == 1
        assert '  selection: r.text contains "q0a1b2"\n' in described[0]
        assert described[1] == described[0].replace("q0a1b2", "zzzzzz")

    def test_off_by_default(self):
        assert "plan of" not in explain_webquery(compile_disql(EVAL_JOIN))

    def test_cli_flag(self, capsys):
        from repro.cli import main

        assert main(["explain", "--plan", "--disql", EVAL_JOIN]) == 0
        assert "  residual: a.label contains r.delimiter\n" in capsys.readouterr().out

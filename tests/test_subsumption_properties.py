"""Property tests for the log table's ``A*m·B`` subsumption analysis.

Unit level: random bodies, tails and bounds drive
:func:`repro.pre.ops.compare_for_log` and
:func:`repro.pre.ops.rewrite_superset`; the classification must match the
bound arithmetic (``None`` = unbounded), and the multi-rewrite must
preserve the language it is allowed to drop nothing from —
``A*m·B  =  B  ∪  A·A*(m-1)·B``, the rewritten clone covering exactly the
paths with at least one leading repetition.

Engine level: the rewrite-and-forward path (log table on, which rewrites
superset arrivals and drops duplicates) must produce the same distinct
result set as the same query with the log table disabled, fault-free, on
randomly generated webs.  Bounded repeats only — without the log table an
unbounded PRE never terminates on a cyclic web.
"""

from __future__ import annotations

from hypothesis import assume, example, given, settings, strategies as st

from repro.core.client import QueryStatus
from repro.core.config import EngineConfig
from repro.core.engine import WebDisEngine
from repro.model.relations import LinkType
from repro.pre.ast import Atom, alt, concat, repeat
from repro.pre.automaton import language_equivalent, language_subsumes
from repro.pre.ops import LogComparison, compare_for_log, nullable, rewrite_superset
from repro.testing import build_web, generate_case
from repro.testing.generators import query_specs, query_texts
from tests.conftest import without_memo

ATOMS = st.sampled_from([Atom(LinkType.LOCAL), Atom(LinkType.GLOBAL), Atom(LinkType.INTERIOR)])

# Non-nullable repeat bodies: atoms and two-way alternations of atoms.
bodies = st.one_of(
    ATOMS,
    st.tuples(ATOMS, ATOMS).map(lambda pair: alt(pair)),
)

# Tails: empty (pure A*m), one atom, or atom·atom.
tails = st.one_of(
    st.just(()),
    ATOMS.map(lambda a: (a,)),
    st.tuples(ATOMS, ATOMS),
)

bounds = st.one_of(st.none(), st.integers(1, 5))


def _bound_le(m, n):
    if n is None:
        return True
    if m is None:
        return False
    return m <= n


class TestCompareForLog:
    @settings(max_examples=300, deadline=None)
    @given(body=bodies, tail=tails, m=bounds, n=bounds)
    def test_same_shape_classified_by_bound(self, body, tail, m, n):
        incoming = concat((repeat(body, m), *tail))
        logged = concat((repeat(body, n), *tail))
        expected = (
            LogComparison.DUPLICATE if _bound_le(m, n) else LogComparison.SUPERSET
        )
        assert compare_for_log(incoming, logged) == expected

    @settings(max_examples=200, deadline=None)
    @given(body=bodies, tail=tails, m=bounds)
    def test_exact_match_is_duplicate(self, body, tail, m):
        pre = concat((repeat(body, m), *tail))
        assert compare_for_log(pre, pre) == LogComparison.DUPLICATE

    @settings(max_examples=200, deadline=None)
    @given(body=bodies, tail=tails.filter(bool), m=bounds, n=bounds)
    def test_different_tail_unrelated(self, body, tail, m, n):
        incoming = concat((repeat(body, m), *tail))
        logged = repeat(body, n)
        if incoming == logged:  # smart constructors may collapse the shapes
            return
        assert compare_for_log(incoming, logged) == LogComparison.UNRELATED


class TestRewriteSuperset:
    @settings(max_examples=200, deadline=None)
    @given(body=bodies, tail=tails, m=bounds)
    def test_rewrite_preserves_language_modulo_tail(self, body, tail, m):
        """``A*m·B  ≡  B | A·A*(m-1)·B`` — the rewrite drops exactly the
        zero-repetition branch, which the logged clone already covers."""
        original = concat((repeat(body, m), *tail))
        rewritten = rewrite_superset(original)
        zero_branch = concat(tail)
        assert language_equivalent(alt((zero_branch, rewritten)), original)

    @settings(max_examples=200, deadline=None)
    @given(body=bodies, tail=tails, m=bounds)
    def test_rewrite_is_a_pure_router(self, body, tail, m):
        """The rewritten PRE starts with a mandatory body traversal: the
        rewritten clone is strictly narrower than the original."""
        original = concat((repeat(body, m), *tail))
        rewritten = rewrite_superset(original)
        assert not nullable(rewritten)
        # Re-classifying against the original log entry can only find
        # DUPLICATE or UNRELATED, never SUPERSET again (no rewrite loops).
        assert compare_for_log(rewritten, original) != LogComparison.SUPERSET


#: ``A*m·B`` families with zero repeats on either side: ``m = 0`` builds the
#: plain tail ``B``.  Tails add a bounded repeat of an atom to the shapes
#: above, so a tail can itself be repeat-headed.
zero_bounds = st.one_of(st.just(0), bounds)
family_tails = st.one_of(
    tails,
    st.tuples(ATOMS, st.integers(1, 3)).map(lambda pair: (repeat(*pair),)),
)
family_pres = st.builds(
    lambda body, bound, tail: concat((repeat(body, bound), *tail)),
    bodies, zero_bounds, family_tails,
)


class TestVerdictsAgainstTheAutomaton:
    """Every verdict checked by language containment, not by the comparator.

    The data-shipping reference and the log-table-on engine both classify
    with :func:`compare_for_log`, so an unsound drop would pass a
    comparison of the two.  :func:`language_subsumes` decides containment
    on the automaton and shares nothing with it.
    """

    @staticmethod
    def _check(incoming, logged):
        verdict = compare_for_log(incoming, logged)
        if verdict is LogComparison.DUPLICATE:
            assert language_subsumes(logged, incoming)
        elif verdict is LogComparison.SUPERSET:
            assert language_subsumes(incoming, logged)
            assert not language_subsumes(logged, incoming)
            # The logged visit and the rewritten clone cover the incoming
            # language together: the rewrite drops nothing unvisited.
            assert language_subsumes(alt((rewrite_superset(incoming), logged)), incoming)
        return verdict

    @settings(max_examples=300, deadline=None)
    @given(body=bodies, tail=family_tails, m=zero_bounds, n=zero_bounds)
    def test_one_family_zero_repeats_included(self, body, tail, m, n):
        incoming = concat((repeat(body, m), *tail))
        logged = concat((repeat(body, n), *tail))
        verdict = self._check(incoming, logged)
        if incoming != logged and 0 in (m, n):
            # §3.1.1's rule at zero: m = 0 <= n drops, m > n = 0 rewrites.
            expected = LogComparison.DUPLICATE if m == 0 else LogComparison.SUPERSET
            assert verdict is expected

    @settings(max_examples=300, deadline=None)
    @given(incoming=family_pres, logged=family_pres)
    def test_any_two_states(self, incoming, logged):
        self._check(incoming, logged)


def _distinct_rows(handle):
    return {(label, row.header, row.values) for label, row, __ in handle.results}


def _bounded(tree) -> bool:
    """No unbounded repeat in a generated JSON PRE tree."""
    if isinstance(tree, str):
        return True
    if "rep" in tree:
        return tree["bound"] is not None and _bounded(tree["rep"])
    return all(map(_bounded, tree.get("cat", tree.get("alt", ()))))


class TestEngineEquivalence:
    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 400), m=st.integers(1, 3))
    def test_log_table_rewrites_lose_no_rows(self, seed, m):
        """Fault-free, the rewrite-and-forward path returns the same
        distinct rows as the raw (log-disabled) traversal."""
        spec = generate_case(seed)
        query = (
            "select d.url, d.title\n"
            f'from document d such that "http://s0.example/" (L|G)*{m} d'
        )
        results = {}
        for flag in (True, False):
            engine = WebDisEngine(
                build_web(spec), config=EngineConfig(log_table_enabled=flag)
            )
            handle = engine.submit_disql(query)
            engine.run()
            results[flag] = _distinct_rows(handle)
        assert results[True] == results[False]

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 299))
    @example(seed=38)
    @example(seed=99)
    def test_generated_queries_match_the_raw_traversal(self, seed):
        """On generated webs and bounded generated PREs, the default
        engine — log table, §3.1.1 drops and rewrites, fan-out memo — and
        ``language`` mode with the memo off return the distinct rows of a
        traversal with neither log table nor memo.

        Seeds 38 and 99 are the two of 0..299 where dropping ``A*m·B``
        against a logged ``B`` (instead of rewriting it) loses rows."""
        spec = generate_case(seed)
        queries = [
            text for query, text in zip(query_specs(spec), query_texts(spec))
            if _bounded(query["pre"])
        ]
        assume(queries)
        web = build_web(spec)
        configs = (
            (EngineConfig(log_table_enabled=False), False),
            (EngineConfig(), True),
            (EngineConfig(log_subsumption="language"), False),
        )
        for text in queries:
            results = []
            for config, memo in configs:
                engine = WebDisEngine(web, config=config)
                if not memo:
                    without_memo(engine)
                handle = engine.submit_disql(text)
                engine.run()
                assert handle.status is QueryStatus.COMPLETE
                results.append(_distinct_rows(handle))
            assert results[1] == results[0] and results[2] == results[0]

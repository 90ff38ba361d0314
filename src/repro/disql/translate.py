"""Lowering DISQL to the web-query formalism ``S p1 q1 p2 q2 ... pn qn``.

Per paper Section 2.3: the single user-level select clause is *split* so
that each node-query only references attributes of virtual relations
declared in its own sub-query; ``such that`` conditions fold into the
node-query's ``where``; the path specifications chain the sub-queries
together and the first one's source strings become the StartNodes.
"""

from __future__ import annotations

from ..errors import DisqlSemanticsError
from ..relational.expr import TRUE, Attr, attrs_referenced, conjoin
from ..relational.query import NodeQuery, TableDecl
from ..urlutils import parse_url
from ..core.webquery import QueryId, WebQuery, WebQueryStep
from .ast import AliasSource, DisqlQuery, IndexSource, StartSource, SubQuery
from .parser import parse_disql

__all__ = ["translate", "compile_disql", "PLACEHOLDER_QID"]

#: Filled in by the user-site client at submission time.
PLACEHOLDER_QID = QueryId("anonymous", "user.example", 0, 0)


_RELATION_ATTRS = {
    "document": ("url", "title", "text", "length"),
    "anchor": ("label", "base", "href", "ltype"),
    "relinfon": ("delimiter", "url", "text", "length"),
}


def _expand_select_all(query: DisqlQuery) -> DisqlQuery:
    """Expand ``select *`` to every attribute of every declared relation."""
    from dataclasses import replace

    select = tuple(
        Attr(decl.alias, attr)
        for subquery in query.subqueries
        for decl in subquery.decls
        for attr in _RELATION_ATTRS[decl.relation]
    )
    return replace(query, select=select, select_all=False)


def translate(query: DisqlQuery, *, optimize: bool = False, search_index=None) -> WebQuery:
    """Lower a parsed DISQL query to a :class:`WebQuery`.

    ``optimize=True`` runs each PRE through the language-preserving
    simplifier (:func:`repro.pre.optimize.optimize_pre`) before shipping —
    smaller clones and better structural duplicate detection.

    ``search_index`` supplies the :class:`~repro.index.inverted.InvertedIndex`
    an ``index("keywords", k)`` StartNode source resolves against (§1.1).

    Raises:
        DisqlSemanticsError: on broken chaining (a sub-query whose path
            source is not the previous traversal alias), missing path specs,
            duplicate aliases, or select/where references that cross
            sub-query boundaries.
    """
    if query.select_all:
        query = _expand_select_all(query)
    _check_alias_uniqueness(query)
    steps: list[WebQueryStep] = []
    start_urls: tuple = ()
    previous_traversal_alias: str | None = None

    for index, subquery in enumerate(query.subqueries):
        label = f"q{index + 1}"
        traversal = subquery.traversal_decl()
        if traversal is None or traversal.path is None:
            raise DisqlSemanticsError(
                f"sub-query {label} has no path specification; every sub-query "
                "needs one 'document <alias> such that <source> <PRE> <alias>'"
            )
        path = traversal.path
        if traversal.relation != "document":
            raise DisqlSemanticsError(
                f"sub-query {label}: path specifications belong on document "
                f"declarations, not {traversal.relation!r}"
            )
        if sum(1 for decl in subquery.decls if decl.path is not None) > 1:
            raise DisqlSemanticsError(f"sub-query {label} has multiple path specifications")

        if index == 0:
            if isinstance(path.source, IndexSource):
                start_urls = _resolve_index_source(path.source, search_index)
            elif isinstance(path.source, StartSource):
                start_urls = tuple(parse_url(text) for text in path.source.urls)
            else:
                raise DisqlSemanticsError(
                    "the first sub-query's path must start from StartNode URL "
                    "strings or an index(...) source"
                )
        else:
            if not isinstance(path.source, AliasSource):
                raise DisqlSemanticsError(
                    f"sub-query {label}: only the first sub-query may name StartNode URLs"
                )
            if path.source.alias != previous_traversal_alias:
                raise DisqlSemanticsError(
                    f"sub-query {label} must continue from {previous_traversal_alias!r}, "
                    f"not {path.source.alias!r}"
                )
        previous_traversal_alias = path.dest_alias

        pre = path.pre
        if optimize:
            from ..pre.optimize import optimize_pre

            pre = optimize_pre(pre)
        steps.append(WebQueryStep(pre, _node_query(query, subquery, label)))

    header = tuple(str(attr) for attr in query.select)
    _check_select_coverage(query)
    declared = {alias for sub in query.subqueries for alias in sub.aliases()}
    for attr, __ in query.order_by:
        if attr.alias not in declared:
            raise DisqlSemanticsError(f"ORDER BY references undeclared alias {attr.alias!r}")
    order = tuple((str(attr), desc) for attr, desc in query.order_by)
    return WebQuery(
        PLACEHOLDER_QID, start_urls, tuple(steps), header,
        display_distinct=query.distinct, display_order=order,
        display_limit=query.limit,
    )


def _resolve_index_source(source: IndexSource, search_index) -> tuple:
    if search_index is None:
        raise DisqlSemanticsError(
            "the query uses index(...) StartNodes but no search index was "
            "supplied; pass search_index= to translate()/compile_disql()"
        )
    hits = search_index.search(source.keywords, source.k)
    if not hits:
        raise DisqlSemanticsError(
            f"index({source.keywords!r}) resolved no StartNodes"
        )
    return tuple(hit.url for hit in hits)


def _node_query(query: DisqlQuery, subquery: SubQuery, label: str) -> NodeQuery:
    aliases = set(subquery.aliases())
    select = tuple(attr for attr in query.select if attr.alias in aliases)
    if not select:
        # The user asked for nothing from this step; the node-query still
        # needs a success test, so project the traversal document's URL.
        traversal = subquery.traversal_decl()
        assert traversal is not None
        select = (Attr(traversal.alias, "url"),)
    conditions = [decl.condition for decl in subquery.decls if decl.condition is not None]
    if subquery.where is not None:
        conditions.append(subquery.where)
    where = conjoin(conditions) if conditions else TRUE
    for attr in attrs_referenced(where):
        if attr.alias not in aliases:
            raise DisqlSemanticsError(
                f"sub-query {label}: WHERE references {attr} but node-queries are "
                "evaluated locally — conditions cannot cross sub-query boundaries"
            )
    tables = tuple(TableDecl(decl.relation, decl.alias) for decl in subquery.decls)
    sitewide = tuple(decl.alias for decl in subquery.decls if decl.sitewide)
    return NodeQuery(select, tables, where, label, sitewide)


def _check_alias_uniqueness(query: DisqlQuery) -> None:
    seen: set[str] = set()
    for subquery in query.subqueries:
        for alias in subquery.aliases():
            if alias in seen:
                raise DisqlSemanticsError(f"alias {alias!r} declared more than once")
            seen.add(alias)


def _check_select_coverage(query: DisqlQuery) -> None:
    declared = {
        alias for subquery in query.subqueries for alias in subquery.aliases()
    }
    for attr in query.select:
        if attr.alias not in declared:
            raise DisqlSemanticsError(f"select references undeclared alias {attr.alias!r}")


def compile_disql(
    text: str, *, optimize: bool = False, search_index=None, templates=None
) -> WebQuery:
    """Parse and translate in one step.

    ``templates`` (a :class:`~repro.disql.template.TemplateCache`) compiles
    a text whose template it holds by binding the text's strings instead;
    the result is the same.  ``optimize=True`` bypasses it.
    """
    if templates is not None and not optimize:
        return templates.compile(text, search_index)
    return translate(parse_disql(text), optimize=optimize, search_index=search_index)

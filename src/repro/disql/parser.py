"""DISQL recursive-descent parser.

Grammar (keywords case-insensitive, commas between items optional)::

    query      := SELECT attr (',' attr)* FROM item+
    item       := decl | WHERE expr
    decl       := relation IDENT [SUCH THAT suchthat]
    relation   := DOCUMENT | ANCHOR | RELINFON
    suchthat   := pathspec | expr
    pathspec   := source PRETEXT IDENT        -- IDENT must be the decl alias
    source     := STRING ('|' STRING)* | IDENT
    attr       := IDENT '.' IDENT
    expr       := orx ; orx := andx (OR andx)* ; andx := notx (AND notx)*
    notx       := NOT notx | cmp
    cmp        := '(' expr ')' | operand (op operand | CONTAINS operand)
    operand    := attr | STRING | NUMBER

Sub-query grouping: a declaration with a path specification starts a new
sub-query (unless it is the first declaration); any declaration after a
``where`` clause also starts a new sub-query.  This reproduces the layout of
the paper's example queries.
"""

from __future__ import annotations

from ..errors import DisqlSyntaxError
from ..pre.parser import parse_pre
from ..relational.expr import And, Attr, Compare, Contains, Expr, Literal, Not, Or
from .ast import AliasSource, Decl, DisqlQuery, IndexSource, PathSpec, StartSource, SubQuery
from .lexer import Token, TokenKind, tokenize_disql

__all__ = ["parse_disql"]

_RELATIONS = ("document", "anchor", "relinfon")
_COMPARE_OPS = ("=", "!=", "<", "<=", ">", ">=")


class _Parser:
    def __init__(self, text: str) -> None:
        self.text = text
        self.tokens = tokenize_disql(text)
        self.pos = 0
        #: What each string token consumed as an operand or a StartNode URL
        #: became, in token order: the operand's ``Literal`` object, or the
        #: URL's index in its ``StartSource``.  Strings used any other way
        #: (``index(...)`` keywords, text inside a PRE) are not recorded.
        self.strings: list[Literal | int] = []

    # -- token helpers ---------------------------------------------------------

    def _peek(self, ahead: int = 0) -> Token:
        index = min(self.pos + ahead, len(self.tokens) - 1)
        return self.tokens[index]

    def _next(self) -> Token:
        token = self._peek()
        if token.kind is not TokenKind.EOF:
            self.pos += 1
        return token

    def _error(self, message: str, token: Token | None = None) -> DisqlSyntaxError:
        token = token if token is not None else self._peek()
        return DisqlSyntaxError(f"{message}, got {token}", token.line, token.column)

    def _expect_keyword(self, word: str) -> Token:
        token = self._peek()
        if not token.is_keyword(word):
            raise self._error(f"expected {word.upper()}")
        return self._next()

    def _expect_op(self, op: str) -> Token:
        token = self._peek()
        if token.kind is not TokenKind.OP or token.text != op:
            raise self._error(f"expected {op!r}")
        return self._next()

    def _skip_commas(self) -> None:
        while self._peek().kind is TokenKind.OP and self._peek().text == ",":
            self._next()

    # -- query ---------------------------------------------------------------

    def parse(self) -> DisqlQuery:
        self._expect_keyword("select")
        distinct = False
        if self._peek().is_keyword("distinct"):
            self._next()
            distinct = True
        select: list[Attr] = []
        select_all = False
        if self._peek().text == "*":
            self._next()
            select_all = True
        else:
            select.append(self._attr())
            while self._peek().text == ",":
                self._next()
                select.append(self._attr())
        self._expect_keyword("from")

        subqueries: list[SubQuery] = []
        decls: list[Decl] = []
        where: Expr | None = None
        saw_where = False

        def close() -> None:
            nonlocal decls, where, saw_where
            if decls:
                subqueries.append(SubQuery(tuple(decls), where))
            elif where is not None:
                raise DisqlSyntaxError("WHERE clause with no declarations")
            decls, where, saw_where = [], None, False

        order_by: list[tuple[Attr, bool]] = []
        limit: int | None = None
        while self._peek().kind is not TokenKind.EOF:
            self._skip_commas()
            token = self._peek()
            if token.kind is TokenKind.EOF:
                break
            if token.is_keyword("order"):
                self._next()
                self._expect_keyword("by")
                order_by = self._order_list()
                limit = self._maybe_limit()
                if self._peek().kind is not TokenKind.EOF:
                    raise self._error("ORDER BY [LIMIT] must be the final clause")
                break
            if token.is_keyword("limit"):
                limit = self._maybe_limit()
                if self._peek().kind is not TokenKind.EOF:
                    raise self._error("LIMIT must be the final clause")
                break
            if token.is_keyword("where"):
                self._next()
                clause = self._expr()
                where = clause if where is None else And(where, clause)
                saw_where = True
                continue
            if token.kind is TokenKind.IDENT and token.text.lower() in _RELATIONS:
                decl = self._decl()
                if decls and (decl.path is not None or saw_where):
                    close()
                decls.append(decl)
                continue
            raise self._error("expected a relation declaration or WHERE")
        close()

        if not subqueries:
            raise DisqlSyntaxError("query has no FROM declarations")
        return DisqlQuery(
            tuple(select), tuple(subqueries), distinct, tuple(order_by), limit,
            select_all,
        )

    def _maybe_limit(self) -> int | None:
        if not self._peek().is_keyword("limit"):
            return None
        self._next()
        token = self._peek()
        if token.kind is not TokenKind.NUMBER or int(str(token.value)) < 1:
            raise self._error("expected a positive row count after LIMIT")
        self._next()
        return int(str(token.value))

    def _index_source(self) -> IndexSource:
        """``index("keywords" [, k])`` — §1.1 automated StartNode source."""
        self._next()  # 'index'
        self._expect_op("(")
        token = self._peek()
        if token.kind is not TokenKind.STRING:
            raise self._error("expected a keyword string inside index(...)")
        self._next()
        keywords = str(token.value)
        k = 3
        if self._peek().text == ",":
            self._next()
            bound = self._peek()
            if bound.kind is not TokenKind.NUMBER or int(str(bound.value)) < 1:
                raise self._error("expected a positive hit count in index(...)")
            self._next()
            k = int(str(bound.value))
        self._expect_op(")")
        return IndexSource(keywords, k)

    def _order_list(self) -> list[tuple[Attr, bool]]:
        entries = [self._order_entry()]
        while self._peek().text == ",":
            self._next()
            entries.append(self._order_entry())
        return entries

    def _order_entry(self) -> tuple[Attr, bool]:
        attr = self._attr()
        descending = False
        if self._peek().is_keyword("desc"):
            self._next()
            descending = True
        elif self._peek().is_keyword("asc"):
            self._next()
        return (attr, descending)

    def _attr(self) -> Attr:
        alias = self._ident("table alias")
        self._expect_op(".")
        name = self._ident("attribute name")
        return Attr(alias, name)

    def _ident(self, what: str) -> str:
        token = self._peek()
        if token.kind is not TokenKind.IDENT:
            raise self._error(f"expected {what}")
        self._next()
        return token.text

    # -- declarations -----------------------------------------------------------

    def _decl(self) -> Decl:
        relation = self._next().text.lower()
        alias = self._ident("table alias")
        if not self._peek().is_keyword("such"):
            return Decl(relation, alias)
        self._next()
        self._expect_keyword("that")
        return self._such_that(relation, alias)

    def _such_that(self, relation: str, alias: str) -> Decl:
        token = self._peek()
        if token.is_keyword("sitewide"):
            self._next()
            if relation != "document":
                raise self._error("only document declarations can be sitewide", token)
            return Decl(relation, alias, sitewide=True)
        if token.kind is TokenKind.STRING:
            return Decl(relation, alias, path=self._path_spec(alias))
        if token.kind is TokenKind.IDENT and self._peek(1).text == ".":
            # attribute reference => condition expression
            return Decl(relation, alias, condition=self._expr())
        if token.kind is TokenKind.IDENT:
            return Decl(relation, alias, path=self._path_spec(alias))
        if token.kind is TokenKind.OP and token.text == "(":
            return Decl(relation, alias, condition=self._expr())
        raise self._error("expected a path specification or condition after SUCH THAT")

    def _path_spec(self, decl_alias: str) -> PathSpec:
        token = self._peek()
        source: StartSource | AliasSource | IndexSource
        if token.kind is TokenKind.STRING:
            urls = [str(self._next().value)]
            self.strings.append(0)
            while self._peek().text == "|" and self._peek(1).kind is TokenKind.STRING:
                self._next()
                self.strings.append(len(urls))
                urls.append(str(self._next().value))
            source = StartSource(tuple(urls))
        elif token.is_keyword("index") and self._peek(1).text == "(":
            source = self._index_source()
        else:
            source = AliasSource(self._ident("source alias"))

        # Everything between here and the standalone destination-alias token
        # is raw PRE text; find the IDENT equal to the declared alias.
        pre_start_token = self._peek()
        depth = 0
        end_index = None
        for index in range(self.pos, len(self.tokens)):
            candidate = self.tokens[index]
            if candidate.kind is TokenKind.OP and candidate.text == "(":
                depth += 1
            elif candidate.kind is TokenKind.OP and candidate.text == ")":
                depth -= 1
            elif (
                candidate.kind is TokenKind.IDENT
                and depth == 0
                and candidate.text == decl_alias
            ):
                end_index = index
                break
            elif candidate.kind is TokenKind.EOF:
                break
        if end_index is None:
            raise self._error(
                f"path specification must end with the declared alias {decl_alias!r}",
                pre_start_token,
            )
        pre_text = self.text[pre_start_token.start : self.tokens[end_index].start].strip()
        if not pre_text:
            raise self._error("empty PRE in path specification", pre_start_token)
        pre = parse_pre(pre_text)
        self.pos = end_index + 1  # consume PRE tokens + destination alias
        return PathSpec(source, pre, pre_text, decl_alias)

    # -- expressions -------------------------------------------------------------

    def _expr(self) -> Expr:
        return self._or()

    def _or(self) -> Expr:
        left = self._and()
        while self._peek().is_keyword("or"):
            self._next()
            left = Or(left, self._and())
        return left

    def _and(self) -> Expr:
        left = self._not()
        while self._peek().is_keyword("and"):
            self._next()
            left = And(left, self._not())
        return left

    def _not(self) -> Expr:
        if self._peek().is_keyword("not"):
            self._next()
            return Not(self._not())
        return self._comparison()

    def _comparison(self) -> Expr:
        token = self._peek()
        if token.kind is TokenKind.OP and token.text == "(":
            self._next()
            inner = self._expr()
            self._expect_op(")")
            return inner
        left = self._operand()
        token = self._peek()
        if token.is_keyword("contains"):
            self._next()
            max_edits = 0
            if self._peek().text == "~":
                self._next()
                bound = self._peek()
                if bound.kind is not TokenKind.NUMBER:
                    raise self._error("expected an edit bound after contains~")
                self._next()
                max_edits = int(str(bound.value))
            return Contains(left, self._operand(), max_edits)
        if token.kind is TokenKind.OP and token.text in _COMPARE_OPS:
            self._next()
            return Compare(token.text, left, self._operand())
        raise self._error("expected a comparison operator or CONTAINS")

    def _operand(self) -> Expr:
        token = self._peek()
        if token.kind is TokenKind.STRING:
            self._next()
            literal = Literal(str(token.value))
            self.strings.append(literal)
            return literal
        if token.kind is TokenKind.NUMBER:
            self._next()
            return Literal(int(str(token.value)))
        if token.kind is TokenKind.IDENT:
            return self._attr()
        raise self._error("expected an attribute, string or number")


def parse_disql(text: str) -> DisqlQuery:
    """Parse DISQL ``text`` into a :class:`DisqlQuery` AST."""
    return _parse_recording_strings(text)[0]


def _parse_recording_strings(text: str) -> tuple[DisqlQuery, list[Literal | int]]:
    """:func:`parse_disql`, plus what its operand and StartNode strings
    became (``_Parser.strings``)."""
    if not text or not text.strip():
        raise DisqlSyntaxError("empty DISQL query")
    parser = _Parser(text)
    return parser.parse(), parser.strings

"""In-memory tables, stored as columns."""

from __future__ import annotations

from typing import Iterable, Iterator, NamedTuple, Sequence

from ..errors import SchemaError
from .expr import _to_number
from .schema import Schema

__all__ = ["Folded", "Profile", "Table"]

#: What joins a folded column's cells into its text.  Any separator is
#: sound — a needle that spans two cells only costs the filter pass — and
#: NUL is rare in page text.
FOLD_SEPARATOR = "\x00"


def _maybe_numeric_str(text: str) -> bool:
    """Cheap pre-filter for "does this string parse as a number?".

    A string that compares equal to a *finite* number under
    :func:`~repro.relational.expr._coerce_pair` must start with a digit,
    a sign, a dot or whitespace.  Spellings like ``"inf"``/``"nan"`` slip
    through the filter, but they can never equal an ``int`` cell (and a
    column holding a ``float`` is not ``plain_exact``), so missing them
    keeps the plain comparisons a :class:`Profile` allows sound.
    """
    head = text[:1]
    if not (head.isdigit() or head in "+-." or head.isspace()):
        return False
    return _to_number(text) is not None


class Profile(NamedTuple):
    """What a column's value kinds allow a batch kernel to assume.

    Python ``==`` (what a plain comparison of two columns uses) is the
    interpreter's *coerced* equality only when numeric coercion provably
    cannot apply: :func:`~repro.relational.expr._coerce_pair` makes ``5 =
    "5"`` true.  ``plain_exact`` is false when the column holds a value
    outside the system's ``str`` / ``int`` / ``bool`` types (a float, a
    ``str`` subclass, an exotic type with a custom ``__eq__``); a kernel
    then compares through the interpreter's own closure.
    """

    plain_exact: bool
    has_number: bool
    has_numeric_str: bool


def _profile(values: Iterable[object]) -> Profile:
    has_number = False
    has_numeric_str = False
    plain_exact = True
    for value in values:
        kind = type(value)
        if kind is str:
            if not has_numeric_str and _maybe_numeric_str(value):
                has_numeric_str = True
        elif kind is int or kind is bool:
            has_number = True
        else:
            plain_exact = False
            if isinstance(value, float):
                has_number = True
    return Profile(plain_exact, has_number, has_numeric_str)


class Folded(NamedTuple):
    """A column case-folded once, for ``contains``.

    ``column[i]`` is ``value.lower()`` for the ``str`` cell ``value`` — the
    value itself when lowering leaves it equal, so an already-lower cell
    costs a pointer, and an already-lower column nothing — and ``None`` for
    a cell that is not a ``str``, which raises ``TypeError`` out of ``in``
    on either side exactly when a kernel reads it.  ``text`` joins the
    folded cells with :data:`FOLD_SEPARATOR` when every one of them is an
    exact ``str`` (``None`` otherwise): a needle not in it is in no cell.
    It joins the *folded* cells; the joined text is never folded itself,
    because ``str.lower`` is context-sensitive (a final ``'Σ'`` lowers to
    ``'ς'``).
    """

    column: Sequence
    text: str | None


def _fold(values: Sequence) -> Folded:
    """The :class:`Folded` form of ``values`` — ``values`` itself as the
    column when every cell is an already-lower ``str``.

    A ``str`` subclass is lowered through its own ``lower`` and kept as
    lowered, as the interpreter's ``contains`` evaluates it.
    """
    column: list = []
    append = column.append
    exact = True
    changed = False
    for value in values:
        if type(value) is str:
            folded = value.lower()
            if folded == value:
                append(value)
                continue
        elif isinstance(value, str):
            folded = value.lower()
            exact = exact and type(folded) is str
        else:
            folded = None
            exact = False
        append(folded)
        changed = True
    if not changed:
        column = values
    return Folded(column, FOLD_SEPARATOR.join(column) if exact else None)


class Table:
    """A bag of rows conforming to a :class:`Schema`, stored as columns.

    The one stored form is one value sequence per schema attribute, in
    insertion order (:meth:`columns`); :meth:`rows` and :meth:`row_list`
    zip them into tuples on every call and keep nothing.  A node's tables
    live as long as the document store keeps the page
    (:class:`~repro.model.database.DatabaseConstructor`) and are scanned by
    every query that visits the node, so what a table caches is only what
    every query can share, each built on first use: the per-column value
    profiles (:meth:`profile`) and case folds (:meth:`folded`).  A query's
    selection over a table depends on the query's own literals, so the
    executor computes it per execution and keeps nothing here.

    A table is loaded from rows or, by :meth:`from_columns`, from the
    columns themselves; either way every row has the schema's arity.
    ``stats`` (a :class:`~repro.net.stats.TrafficStats`), when provided, is
    where a compiled plan over the table counts its replays
    (``plan_replays``).
    """

    __slots__ = ("schema", "stats", "_columns", "_profiles", "_folds")

    def __init__(
        self,
        schema: Schema,
        rows: Iterable[tuple[object, ...]] = (),
        stats: "object | None" = None,
    ) -> None:
        self.schema = schema
        self.stats = stats
        rows = list(rows)
        for row in rows:
            if len(row) != schema.arity:
                raise SchemaError(
                    f"row arity {len(row)} does not match schema "
                    f"{schema.name!r} arity {schema.arity}"
                )
        self._columns: tuple[Sequence[object], ...] = (
            tuple(map(list, zip(*rows))) if rows else tuple([] for __ in schema.attributes)
        )
        self._profiles: dict[int, Profile] | None = None
        self._folds: dict[int, Folded] | None = None

    @classmethod
    def from_columns(
        cls,
        schema: Schema,
        columns: Iterable[Sequence[object]],
        stats: "object | None" = None,
    ) -> "Table":
        """A table over pre-built ``columns``, one value sequence (a list, or
        a tuple) per attribute.

        The arity guarantee is checked once for the table — as many columns
        as the schema has attributes, all of one length — instead of once
        per row.  The sequences are adopted, not copied.
        """
        columns = tuple(columns)
        if len(columns) != schema.arity:
            raise SchemaError(
                f"{len(columns)} columns do not match schema "
                f"{schema.name!r} arity {schema.arity}"
            )
        if len({len(column) for column in columns}) > 1:
            raise SchemaError(
                f"columns for schema {schema.name!r} differ in length: "
                f"{[len(column) for column in columns]}"
            )
        table = cls(schema, stats=stats)
        table._columns = columns
        return table

    def insert(self, row: tuple[object, ...]) -> None:
        """Append ``row``; its arity must match the schema.

        The row goes onto copies of the columns, so sequences adopted by
        :meth:`from_columns` are never changed; what was derived from the
        old columns is dropped.
        """
        self._columns = Table(self.schema, [*self.rows(), row])._columns
        self._profiles = self._folds = None

    def rows(self) -> Iterator[tuple[object, ...]]:
        """Iterate rows in insertion order, zipped from the columns."""
        return zip(*self._columns)

    def row_list(self) -> list[tuple[object, ...]]:
        """The rows as a new list (nothing is kept)."""
        return list(zip(*self._columns))

    def columns(self) -> tuple[Sequence[object], ...]:
        """The stored form: one value sequence per schema attribute.

        ``columns()[schema.position(a)][i] == row_list()[i][position(a)]``.
        Callers must treat the sequences as read-only.
        """
        return self._columns

    def profile(self, position: int) -> Profile:
        """The cached :class:`Profile` of the column at ``position``.

        What a kernel comparing two columns needs.
        """
        profiles = self._profiles
        if profiles is None:
            profiles = self._profiles = {}
        profile = profiles.get(position)
        if profile is None:
            profile = profiles[position] = _profile(self._columns[position])
        return profile

    def folded(self, position: int) -> Folded:
        """The cached :class:`Folded` form of the column at ``position``.

        Built on the first ``contains`` read and dropped by :meth:`insert`,
        like :meth:`profile`; it lives as long as the table, so the document
        store's bound on databases is its bound too.
        """
        folds = self._folds
        if folds is None:
            folds = self._folds = {}
        folded = folds.get(position)
        if folded is None:
            folded = folds[position] = _fold(self._columns[position])
        return folded

    def column(self, attribute: str) -> list[object]:
        """All values of ``attribute`` in insertion order."""
        return list(self._columns[self.schema.position(attribute)])

    def __len__(self) -> int:
        return len(self._columns[0])

    def __repr__(self) -> str:
        return f"Table({self.schema.name!r}, {len(self)} rows)"

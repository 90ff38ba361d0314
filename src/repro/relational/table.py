"""In-memory tables of immutable rows."""

from __future__ import annotations

from typing import Iterable, Iterator

from ..errors import SchemaError
from .expr import _to_number
from .schema import Schema

__all__ = ["ColumnIndex", "Table"]

#: Shared empty probe result — `ColumnIndex.probe` misses return this.
_NO_ROWS: tuple[int, ...] = ()


def _maybe_numeric_str(text: str) -> bool:
    """Cheap pre-filter for "does this string parse as a number?".

    A string that compares equal to a *finite* number under
    :func:`~repro.relational.expr._coerce_pair` must start with a digit,
    a sign, a dot or whitespace.  Spellings like ``"inf"``/``"nan"`` slip
    through the filter, but they can never equal an ``int`` probe value
    (and ``float`` probes always bypass the hash path), so missing them
    keeps :meth:`ColumnIndex.probe` sound.
    """
    head = text[:1]
    if not (head.isdigit() or head in "+-." or head.isspace()):
        return False
    return _to_number(text) is not None


class ColumnIndex:
    """Hash index over one column: value → row positions, insertion-ordered.

    Bucket lists preserve row order, so probing reproduces the row
    executor's scan order exactly.  The index also profiles the column's
    value kinds, because Python ``==`` (what dict lookup uses) is only the
    interpreter's *coerced* equality when numeric coercion provably cannot
    apply: :func:`~repro.relational.expr._coerce_pair` makes ``5 = "5"``
    true, which a hash lookup on mixed keys would miss.  :meth:`probe`
    refuses (returns ``None``) whenever the profile cannot rule that out.
    """

    __slots__ = ("buckets", "has_number", "has_numeric_str", "hash_exact")

    def __init__(self, values: Iterable[object]) -> None:
        buckets: dict[object, list[int]] | None = {}
        has_number = False
        has_numeric_str = False
        #: False when the column holds values for which dict equality may
        #: diverge from the interpreter's (floats: NaN identity shortcut;
        #: unhashables; exotic types with custom __eq__/__hash__).
        hash_exact = True
        try:
            for position, value in enumerate(values):
                kind = type(value)
                if kind is str:
                    if not has_numeric_str and _maybe_numeric_str(value):
                        has_numeric_str = True
                elif kind is int or kind is bool:
                    has_number = True
                else:
                    hash_exact = False
                    if isinstance(value, float):
                        has_number = True
                bucket = buckets.get(value)
                if bucket is None:
                    buckets[value] = [position]
                else:
                    bucket.append(position)
        except TypeError:
            buckets = None  # unhashable value: the index can only refuse
        self.buckets = buckets
        self.has_number = has_number
        self.has_numeric_str = has_numeric_str
        self.hash_exact = hash_exact

    def probe(self, value: object) -> "list[int] | tuple[int, ...] | None":
        """Positions whose value compares ``=``-equal to ``value``.

        Returns the bucket (row positions in insertion order; a shared
        empty tuple on a miss), or ``None`` when a hash lookup is not
        provably the interpreter's equality for this value — numeric
        coercion could apply, the column profile is not hash-exact, or the
        probe value is outside the ``str``/``int`` system types.  ``None``
        means "fall back to a scan", never "no rows".
        """
        buckets = self.buckets
        if buckets is None or not self.hash_exact:
            return None
        kind = type(value)
        if kind is str:
            if self.has_number and _to_number(value) is not None:
                return None
        elif kind is int or kind is bool:
            if self.has_numeric_str:
                return None
        else:
            return None
        return buckets.get(value, _NO_ROWS)


class Table:
    """A bag of rows conforming to a :class:`Schema`.

    Rows are plain tuples in schema attribute order; the structure is
    deliberately simple, an append-only list with full scans.  A node's
    tables live as long as the document store keeps the page
    (:class:`~repro.model.database.DatabaseConstructor`) and are scanned by
    every query that visits the node, so what a table caches is only what
    every query can share: its two views and the per-column hash indexes.
    A query's selection over a table depends on the query's own literals,
    so the executor computes it per execution and keeps nothing here.

    The columnar executor (:mod:`repro.relational.columnar`) reads the same
    data as parallel per-attribute arrays via :meth:`columns` and probes
    equality joins through per-column hash indexes via :meth:`index`.  A
    table is loaded from rows or, by :meth:`from_columns`, from the arrays;
    whichever view it was not given is derived on first use and cached until
    the next :meth:`insert`, so no consumer pays for the other's.  Either way
    every row has the schema's arity.  ``stats`` (a
    :class:`~repro.net.stats.TrafficStats`) mirrors index reuse into the
    ``index_builds`` / ``index_hits`` counters when provided.
    """

    __slots__ = ("schema", "stats", "_rows", "_columns", "_indexes")

    def __init__(
        self,
        schema: Schema,
        rows: Iterable[tuple[object, ...]] = (),
        stats: "object | None" = None,
    ) -> None:
        self.schema = schema
        self.stats = stats
        # At least one of the two views is held at any time.
        self._rows: list[tuple[object, ...]] | None = [self._checked(row) for row in rows]
        self._columns: tuple[list[object], ...] | None = None
        self._indexes: dict[int, ColumnIndex] = {}

    @classmethod
    def from_columns(
        cls,
        schema: Schema,
        columns: Iterable[list[object]],
        stats: "object | None" = None,
    ) -> "Table":
        """A table over pre-built ``columns``, one value list per attribute.

        The arity guarantee is checked once for the table — as many columns
        as the schema has attributes, all of one length — instead of once
        per row.  The lists are adopted, not copied.
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
        table._rows = None
        table._columns = columns
        return table

    def _checked(self, row: tuple[object, ...]) -> tuple[object, ...]:
        if len(row) != self.schema.arity:
            raise SchemaError(
                f"row arity {len(row)} does not match schema "
                f"{self.schema.name!r} arity {self.schema.arity}"
            )
        return tuple(row)

    def insert(self, row: tuple[object, ...]) -> None:
        """Append ``row``; its arity must match the schema."""
        self.row_list().append(self._checked(row))
        self._columns = None
        if self._indexes:
            self._indexes.clear()

    def rows(self) -> Iterator[tuple[object, ...]]:
        """Iterate rows in insertion order."""
        return iter(self.row_list())

    def row_list(self) -> list[tuple[object, ...]]:
        """The backing row list, re-iterable without copying.

        Compiled scans (:mod:`repro.relational.compile`) loop this directly;
        callers must treat it as read-only.
        """
        rows = self._rows
        if rows is None:
            rows = self._rows = list(zip(*self._columns))
        return rows

    def columns(self) -> tuple[list[object], ...]:
        """The columnar view: one value list per schema attribute.

        ``columns()[schema.position(a)][i] == row_list()[i][position(a)]``.
        Built once per table generation and cached; callers must treat the
        lists as read-only.
        """
        cols = self._columns
        if cols is None:
            rows = self._rows
            cols = self._columns = tuple(
                [row[index] for row in rows] for index in range(self.schema.arity)
            )
        return cols

    def index(self, position: int) -> ColumnIndex:
        """The cached :class:`ColumnIndex` for the column at ``position``.

        Built on first use, invalidated by :meth:`insert` — so repeated
        node-queries joining on the same column reuse one build, exactly
        like :meth:`~repro.model.database.NodeDatabase.forward_targets`
        reuses its per-link-type selections.  Reuse is visible in
        ``TrafficStats.index_hits`` / ``index_builds`` when the table
        carries a stats mirror.
        """
        index = self._indexes.get(position)
        stats = self.stats
        if index is None:
            index = self._indexes[position] = ColumnIndex(self.columns()[position])
            if stats is not None:
                stats.index_builds += 1
        elif stats is not None:
            stats.index_hits += 1
        return index

    def column(self, attribute: str) -> list[object]:
        """All values of ``attribute`` in insertion order."""
        return list(self.columns()[self.schema.position(attribute)])

    def __len__(self) -> int:
        rows = self._rows
        return len(self._columns[0]) if rows is None else len(rows)

    def __repr__(self) -> str:
        return f"Table({self.schema.name!r}, {len(self)} rows)"

"""Hash-once support for the frozen value types that key the protocol tables.

``Url``, ``QueryId``, ``QueryState``, the PRE nodes, ``NodeQuery`` and
``ChtEntry`` are immutable trees that the log table, the memo and the CHT
hash on every hop.  A dataclass-generated ``__hash__`` re-walks the whole
tree each time; :func:`stored_hash` replaces it with one that walks it once
and keeps the number on the object.

Equality is untouched — the stored hash is the hash of exactly the fields
``==`` compares — and the cache slot is not part of the value: the class
declares it with :func:`cache_field`, so it is invisible to ``repr`` (which
``structural_key`` is built from), to ``==``, to ``dataclasses.replace`` and
to the wire codec.  String hashes are per process, so a stored hash must
never be serialised.
"""

from __future__ import annotations

from dataclasses import field, fields
from typing import Any

__all__ = ["cache_field", "stored_hash"]


def cache_field() -> Any:
    """A dataclass field that holds derived data and is not part of the value.

    Starts as None, is not an ``__init__`` parameter, and is skipped by
    ``repr`` and ``==`` — the one spelling of "invisible" every stored hash
    and every other per-object cache in the package uses.
    """
    return field(default=None, init=False, repr=False, compare=False)


def stored_hash(cls: type) -> type:
    """Class decorator, applied *under* ``@dataclass(frozen=True, ...)``.

    Gives ``cls`` an explicit ``__hash__`` (which the dataclass machinery
    then leaves alone) that computes ``hash()`` of the compared fields on
    first use and stores it in the instance's ``_hash`` slot.
    """
    compared: list[str] | None = None

    def __hash__(self) -> int:
        nonlocal compared
        stored = self._hash
        if stored is None:
            if compared is None:
                compared = [spec.name for spec in fields(self) if spec.compare]
            stored = hash(tuple([getattr(self, name) for name in compared]))
            object.__setattr__(self, "_hash", stored)
        return stored

    cls.__hash__ = __hash__  # type: ignore[method-assign]
    return cls

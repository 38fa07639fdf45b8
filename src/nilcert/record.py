"""Immutable value records.

A record is a tuple of its field values.  A subclass declares
``__slots__ = ()`` and a ``__new__`` whose parameters after ``cls`` are
the fields, in order and with their defaults, and which returns
``tuple.__new__(cls, (field, ...))``; Record reads the field names off
that signature and adds one read-only attribute per field.  Records
are equal only to records of the same class with equal fields (the
first ``_compared`` of them, when a class sets it), hash accordingly,
and pickle, copy and ``_replace`` through ``__new__``.  Nothing is
generated from source text, so defining a record costs no more than
defining any class; every CLI call imports these modules.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Any

try:  # the C field accessor that collections.namedtuple uses
    from _collections import _tuplegetter
except ImportError:  # interpreters without it
    def _tuplegetter(index: int, doc: str) -> property:
        return property(itemgetter(index), doc=doc)

__all__ = ["Record"]


class Record(tuple):
    __slots__ = ()
    _fields: tuple[str, ...] = ()
    _compared: int | None = None  # leading fields that equality, hashing and repr read

    def __init_subclass__(cls) -> None:
        if "__new__" in vars(cls):
            code = cls.__new__.__code__
            cls._set_fields(code.co_varnames[1:code.co_argcount])

    @classmethod
    def _set_fields(cls, names: tuple[str, ...]) -> None:
        cls._fields = names
        for index, name in enumerate(names):
            setattr(cls, name, _tuplegetter(index, f"field {index} of {cls.__name__}"))

    def __eq__(self, other: object) -> bool:
        count = self._compared
        return type(other) is type(self) and self[:count] == other[:count]

    def __ne__(self, other: object) -> bool:
        return not self == other

    def __hash__(self) -> int:
        return hash(self[:self._compared])

    def __getnewargs__(self) -> tuple:
        return tuple(self)

    def __repr__(self) -> str:
        shown = zip(self._fields[:self._compared], self)
        return f"{type(self).__name__}({', '.join([f'{name}={value!r}' for name, value in shown])})"

    def _replace(self, **changes: Any) -> Record:
        """A copy with the named fields changed."""
        values = [changes.pop(name, value) for name, value in zip(self._fields, self)]
        if changes:
            raise TypeError(f"{type(self).__name__} has no field {sorted(changes)}")
        return type(self)(*values)

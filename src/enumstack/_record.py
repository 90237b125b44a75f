"""Value semantics for the package's slotted record classes.

A :class:`Record` compares and prints by the values of its class's
``__slots__``, in order; a :class:`HashedRecord` also hashes by them.
Neither defines a constructor, so each record class keeps its own
written-out ``__init__``, and neither adds a slot, so an instance still
has no ``__dict__``.
"""

from __future__ import annotations


class Record:
    """Equal to an instance of the same class with equal slot values.

    Defining ``__eq__`` leaves the class unhashable.
    """

    __slots__ = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __repr__(self) -> str:
        fields = ", ".join([f"{name}={getattr(self, name)!r}" for name in self.__slots__])
        return f"{self.__class__.__name__}({fields})"


class HashedRecord(Record):
    """A :class:`Record` that also hashes by its slot values."""

    __slots__ = ()

    def __hash__(self) -> int:
        return hash(self._values())

"""The base of qrank's value records: slotted classes whose fields are
set once by their own __init__.

A record compares, hashes and prints by its fields, in the order of its
__slots__, leaving out those named as hidden (a proof it carries along
that is not part of its value).  Its fields cannot be assigned.
replace() returns a copy with some fields changed, built by the class's
own __init__, which validates them again; copy and pickle rebuild a
record the same way, so every record's __init__ takes its fields, hidden
ones included, in the order of its __slots__.
"""

from __future__ import annotations

from operator import attrgetter

# records set their fields in __init__ through this, past their own
# __setattr__
set_field = object.__setattr__


class Record:
    __slots__ = ()

    def __init_subclass__(cls, hidden: tuple[str, ...] = ()):
        super().__init_subclass__()
        cls._shown = tuple(f for f in cls.__slots__ if f not in hidden)
        cls._key = attrgetter(*cls._shown)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        key = self._key
        return key(self) == key(other)

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._shown)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), tuple(getattr(self, f) for f in self.__slots__)

    def replace(self, **changes):
        """A copy with the given fields changed."""
        for f in self.__slots__:
            changes.setdefault(f, getattr(self, f))
        return type(self)(**changes)

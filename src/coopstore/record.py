"""Record: the repr and equality of a plain record class, over its __slots__.

The value records of the package are namedtuple subclasses.  A record
that is mutable, or that must not act as a tuple, is a Record subclass
that names its fields in __slots__ and sets them in __init__.
"""

from __future__ import annotations


class Record:
    """repr as Name(field=value, ...) and equality by value, over __slots__.

    An instance equals only an instance of its own type with equal fields,
    and is unhashable: a frozen subclass defines __hash__ from _astuple().
    """

    __slots__ = ()
    __hash__ = None

    def _astuple(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._astuple() == other._astuple()

"""Record classes without the dataclasses module, which costs start-up time.

Plain records are typing.NamedTuples marked @same_class_eq.  Records that
check their fields subclass Record and set each field once, in __init__,
with _set.  Both keep the frozen-dataclass contract: the hash is the hash
of the field tuple (so set and dict orders do not change), a record equals
only a record of its own class, fields cannot be reassigned, and the repr
is "Name(field=value, ...)".  Copy and pickle rebuild a Record from its
fields, through its __init__ and so through its checks.
"""

from __future__ import annotations

_set = object.__setattr__


def same_class_eq(cls):
    """Make a NamedTuple class equal only to records of its own class; it
    keeps the tuple hash."""
    cls.__eq__ = lambda self, other: type(other) is type(self) and tuple.__eq__(self, other)
    cls.__ne__ = lambda self, other: not self == other
    return cls


class Record:
    """A record whose subclass names its fields in _fields."""

    __slots__ = ()
    _fields: tuple = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        # record -> field tuple, compiled as dataclasses and namedtuple do:
        # plain attribute reads are about twice as fast as operator.attrgetter
        cls._key = eval(f"lambda self: ({''.join(f'self.{f}, ' for f in cls._fields)})")

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __eq__(self, other):
        return type(other) is type(self) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __reduce__(self):
        return type(self), self._key()

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({fields})"

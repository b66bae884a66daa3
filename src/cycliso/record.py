"""The package's one record type, and its one integer check.

Every record in cycliso derives from ``Record``: the CLI's answers
(``RankReport``, ``GreenClasses``, ``VerifyReport`` and the rest) and
the small values they are built from.  A record's fields are its
``__slots__``; it is shown, compared and hashed as a frozen dataclass
with those fields is, and assigning to or deleting a field raises
``AttributeError``.  A record that checks its fields does so in its own
``__init__`` before calling ``Record.__init__``.  ``dataclasses``
imports ``inspect``, a large share of start-up, so no module of the
package imports it.
"""

from operator import index

__all__ = ["Record", "integer"]


def integer(value, what):
    """``operator.index(value)``; a non-integer raises ValueError."""
    try:
        return index(value)
    except TypeError:
        raise ValueError(f"{what} {value!r} is not an integer") from None


class Record:
    __slots__ = ()

    def __init__(self, *values):
        """The field values, in ``__slots__`` order."""
        if len(values) != len(self.__slots__):
            raise TypeError(
                f"{type(self).__qualname__} takes {len(self.__slots__)} values, got {len(values)}"
            )
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def _values(self):
        return tuple(getattr(self, name) for name in self.__slots__)

    def __repr__(self):
        body = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({body})"

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._values()

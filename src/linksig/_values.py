"""The slotted base of the package's value classes.  A subclass names its
fields in __slots__; Frozen derives repr, == and a hash from them and refuses
assignment.  repr shows each field as errors.shown does, so a value that holds
an int past Python's digit limit still prints.  One rule stores a value:
Frozen.__init__ sets every field, in __slots__ order, and a subclass only
checks and normalises its arguments, then calls it once.  A value is built
once, complete, and never changes; hashing one that holds a list raises
TypeError, as it would for a tuple.
"""

from .errors import shown


class Frozen:
    __slots__ = ()

    def __init__(self, *values):
        names = self.__slots__
        if len(values) != len(names):
            raise TypeError(
                f"{type(self).__qualname__} takes {len(names)} fields, got {len(values)}"
            )
        for name, value in zip(names, values):
            object.__setattr__(self, name, value)

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __repr__(self) -> str:
        args = ", ".join(f"{name}={shown(getattr(self, name))}" for name in self.__slots__)
        return f"{type(self).__qualname__}({args})"

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __reduce__(self):
        # rebuild through __init__, so copy and pickle never assign a field
        return (type(self), self._fields())

    def __setattr__(self, name, value=None):
        raise AttributeError(f"field {name!r} is read-only")

    __delattr__ = __setattr__

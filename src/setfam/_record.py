"""Frozen value records, the base of setfam's value types.

A record class annotates its fields and lists them in order in
``__slots__``; ``_defaults`` gives the defaults of its trailing fields.
From those the base derives a constructor, field-wise equality and hashing
between records of the same class, a ``repr`` of the form
``Name(field=value, ...)``, immutability, and pickling and copying.  A
record built many times per search, or one that validates its fields,
defines its own ``__init__`` that sets each field with
``object.__setattr__``.  Plain slotted classes stand in for frozen
dataclasses because importing ``dataclasses`` costs a one-shot
command-line call more than its search does.
"""

__all__ = ["Record"]


class Record:
    __slots__ = ()
    _defaults: dict = {}

    def __init__(self, *args, **kwargs):
        names = self.__slots__
        if len(args) > len(names):
            raise TypeError(f"{type(self).__name__}() takes {len(names)} arguments")
        for name, value in zip(names, args):
            object.__setattr__(self, name, value)
        for name in names[len(args):]:
            if name in kwargs:
                value = kwargs.pop(name)
            elif name in self._defaults:
                value = self._defaults[name]
            else:
                raise TypeError(f"{type(self).__name__}() missing argument {name!r}")
            object.__setattr__(self, name, value)
        if kwargs:
            raise TypeError(f"{type(self).__name__}() got unexpected arguments {sorted(kwargs)}")

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of a frozen {type(self).__name__}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of a frozen {type(self).__name__}")

    def __reduce__(self):
        # rebuild through the constructor: restoring slot state by setattr
        # would meet the frozen __setattr__
        return type(self), self._values()

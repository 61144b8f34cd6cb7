"""Plain record classes: the base of every value type in the package.

A record lists its fields in ``_fields`` and sets them in an explicit
``__init__``; a frozen record sets them with ``set_field``.  From its base
it gets equality and ``repr`` field by field, and a :class:`Frozen` record
also gets a hash of its fields and assignment that raises
``AttributeError``.  The fields live in ``__slots__`` unless a
``functools.cached_property`` needs an instance ``__dict__``.

The classes are written out, not generated by the standard library's class
decorator: that module imports ``inspect`` (and with it ``ast``, ``dis`` and
``tokenize``), and the import and the decorations were about a tenth of a
cold ``ml`` process.
"""

set_field = object.__setattr__  # how a frozen record's __init__ sets a field


class Record:
    """A mutable record: field-wise ``==`` and ``repr``, and unhashable."""

    __slots__ = ()
    _fields: tuple = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, f) for f in self._fields])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    __hash__ = None

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{self.__class__.__qualname__}({fields})"

    def __reduce__(self):
        # rebuilt through __init__; an instance __dict__ also brings back the
        # cached_property values, such as a derivation's integer images
        return self.__class__, self._values(), getattr(self, "__dict__", None)


class Frozen(Record):
    """An immutable record, hashed by its fields."""

    __slots__ = ()

    def __hash__(self):
        return hash(self._values())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

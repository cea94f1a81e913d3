"""Frozen records: the value classes of every layer.

A subclass of :class:`Record` lists its fields as class annotations, in
order; a class attribute of the same name is that field's default. A
record is built positionally or by keyword, refuses assignment, equals
only a record of the same class with equal fields, and hashes as the
tuple of its fields, computed once per record. :func:`replace` copies a
record with some fields changed.

Each class compiles its ``__init__`` and a field-tuple getter in one
small ``exec`` when it is defined. No standard-library class generator
(and its import of :mod:`inspect`) is loaded, so importing a layer costs
only its own code.
"""

from __future__ import annotations

_setattr = object.__setattr__


class Record:
    _fields: tuple[str, ...] = ()
    _hash = None  # the cached hash; set on the record by its first __hash__

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        names = tuple(cls.__dict__.get("__annotations__", ()))
        defaults = [cls.__dict__[f] for f in names if f in cls.__dict__]
        if any(f not in cls.__dict__ for f in names[len(names) - len(defaults):]):
            raise TypeError(f"{cls.__name__}: a field without default follows a default")
        # object.__setattr__, never self.__dict__: touching __dict__ makes
        # CPython 3.11+ build the instance dict, and every read gets slower
        lines = [f"def __init__(self, {', '.join(names)}):"]
        lines += [f"    _setattr(self, {f!r}, {f})" for f in names] or ["    pass"]
        lines += ["def _values(self):", f"    return ({''.join(f'self.{f}, ' for f in names)})"]
        scope = {"_setattr": _setattr}
        exec("\n".join(lines), scope)
        init = scope["__init__"]
        init.__defaults__ = tuple(defaults) or None
        init.__qualname__ = f"{cls.__qualname__}.__init__"
        cls.__init__, cls._values, cls._fields = init, scope["_values"], names

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash(self._values())
            _setattr(self, "_hash", h)
        return h

    def __repr__(self) -> str:
        body = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{self.__class__.__qualname__}({body})"

    def __reduce__(self):
        # rebuilt from its fields, so no cached hash outlives its process
        return self.__class__, self._values()


def replace(record: Record, **changes) -> Record:
    """A copy of record with the named fields changed."""
    return record.__class__(**{**dict(zip(record._fields, record._values())), **changes})

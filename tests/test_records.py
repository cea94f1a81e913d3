"""Record semantics, against the standard library's frozen dataclasses.

Every value class of the package is a ``records.Record``. Each one is
checked against a frozen dataclass twin with the same fields, the form
these classes had before: the same repr, equality and hash, inequality
across classes whose fields are equal, refused assignment, ``replace``
and keyword construction. The package itself never imports dataclasses.
"""

import dataclasses
import importlib
import itertools
import pickle
import pkgutil

import pytest

import xmodkit
from xmodkit.cat1 import enumerate_cat1_morphisms, xmod_to_cat1
from xmodkit.morphisms import kernel
from xmodkit.records import Record, replace
from xmodkit.structures import verify_structure
from xmodkit.terms import law_table
from xmodkit.xmod import _XMOD_LAWS, enumerate_xmod_morphisms
from xmodkit.zoo import make_standard_xmods


def _record_classes():
    for info in pkgutil.iter_modules(xmodkit.__path__):
        if info.name != "__main__":
            importlib.import_module(f"xmodkit.{info.name}")
    return sorted(Record.__subclasses__(), key=lambda c: (c.__module__, c.__name__))


CLASSES = _record_classes()
_TWINS: dict = {}


def _twin_class(cls):
    """The frozen dataclass with cls's name, fields and defaults."""
    if cls not in _TWINS:
        spec = [
            (f, "object", dataclasses.field(default=cls.__dict__[f]))
            if f in cls.__dict__ else (f, "object")
            for f in cls._fields
        ]
        _TWINS[cls] = dataclasses.make_dataclass(cls.__qualname__, spec, frozen=True)
    return _TWINS[cls]


def _twin(value):
    """value with every record in it, however deep, replaced by its twin."""
    if isinstance(value, Record):
        return _twin_class(type(value))(*[_twin(getattr(value, f)) for f in value._fields])
    if isinstance(value, tuple):
        return tuple([_twin(v) for v in value])
    if isinstance(value, dict):
        return {k: _twin(v) for k, v in value.items()}
    return value


def _sample(cls, tag: str = ""):
    """A record whose field i holds "v<i><tag>", so equal-arity classes share fields."""
    return cls(*[f"v{i}{tag}" for i in range(len(cls._fields))])


def test_every_value_class_is_a_record():
    names = {f"{c.__module__.split('.')[-1]}.{c.__name__}" for c in CLASSES}
    assert len(names) == 19
    assert {"terms.Law", "profiles.VarietyProfile", "report.Report", "cat1.Cat1Morphism"} <= names
    assert all(c._fields or c.__name__ == "Zero" for c in CLASSES)


def test_equality_hash_and_repr_match_the_dataclass_twin():
    for cls in CLASSES:
        a, b = _sample(cls), _sample(cls)
        assert a == b and not a != b and a is not b
        assert hash(a) == hash(b) == hash(_twin(a)) == hash(tuple(b._values()))
        assert repr(a) == repr(_twin(a))
        assert cls(**dict(zip(cls._fields, a._values()))) == a
        assert pickle.loads(pickle.dumps(a)) == a
        if cls._fields:
            assert a != _sample(cls, "'")
        assert a != _twin(a) and a != a._values()


def test_defaults_match_the_dataclass_twin():
    defaulted = 0
    for cls in CLASSES:
        required = [f for f in cls._fields if f not in cls.__dict__]
        values = [f"v{i}" for i in range(len(required))]
        assert repr(cls(*values)) == repr(_twin_class(cls)(*values))
        defaulted += len(required) < len(cls._fields)
    assert defaulted == 3  # CheckItem, Report, Equation


def test_records_of_different_classes_never_compare_equal():
    pairs = 0
    for a, b in itertools.combinations(CLASSES, 2):
        if len(a._fields) == len(b._fields):
            x, y = _sample(a), _sample(b)
            assert x._values() == y._values()
            assert x != y and not x == y
            pairs += 1
    assert pairs > 10


def test_assignment_and_deletion_are_refused():
    for cls in CLASSES:
        a = _sample(cls)
        for name in cls._fields + ("extra",):
            with pytest.raises(AttributeError):
                setattr(a, name, "x")
            with pytest.raises(AttributeError):
                delattr(a, name)
        assert a == _sample(cls)


def test_replace_changes_only_the_named_fields():
    for cls in CLASSES:
        a = _sample(cls)
        assert replace(a) == a and replace(a) is not a
        for k, name in enumerate(cls._fields):
            r = replace(a, **{name: "new"})
            assert type(r) is cls and getattr(r, name) == "new"
            assert [v for i, v in enumerate(r._values()) if i != k] == [
                v for i, v in enumerate(a._values()) if i != k
            ]
            assert repr(r) == repr(dataclasses.replace(_twin(a), **{name: "new"}))
        assert a == _sample(cls)
        with pytest.raises(TypeError):
            replace(a, no_such_field=1)


def test_built_objects_match_their_dataclass_twins():
    # nested records all the way down: modules, structures, profiles, terms
    xm = make_standard_xmods()["xm_z2_z4"]
    c = xmod_to_cat1(xm)
    objects = [
        xm,
        c,
        enumerate_xmod_morphisms(xm, xm)[0],
        enumerate_cat1_morphisms(c, c)[0],
        kernel(xm.boundary),
        verify_structure(xm.c1),
        law_table(_XMOD_LAWS, ("mul", "mulop")),
        make_standard_xmods()["xm_ideal_dialg2"].c0.profile,
    ]
    assert {type(x).__name__ for x in objects if isinstance(x, Record)} >= {
        "CrossedModule", "Cat1Object", "XModMorphism", "Cat1Morphism", "Subobject", "Report",
    }
    for x in objects:
        assert repr(x) == repr(_twin(x))
        assert x == _rebuilt(x)
        try:  # a record holding a structure's dict of tables is unhashable, as before
            expected = hash(_twin(x))
        except TypeError:
            with pytest.raises(TypeError):
                hash(x)
        else:
            assert hash(x) == expected


def _rebuilt(value):
    """A fresh copy of value, every record in it rebuilt from its fields."""
    if isinstance(value, Record):
        return replace(value, **{f: _rebuilt(getattr(value, f)) for f in value._fields})
    if isinstance(value, tuple):
        return tuple([_rebuilt(v) for v in value])
    if isinstance(value, dict):
        return {k: _rebuilt(v) for k, v in value.items()}
    return value


def test_hash_is_computed_once_per_record():
    calls = []

    class Counted(str):
        def __hash__(self):
            calls.append(self)
            return str.__hash__(self)

    cls = next(c for c in CLASSES if c.__name__ == "Var")
    v = cls(Counted("x"))
    assert hash(v) == hash(v) == hash(cls("x"))
    assert len(calls) == 1

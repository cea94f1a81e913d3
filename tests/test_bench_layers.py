"""The benchmark's span tracer wraps xmodkit functions by name.

``bench/tracer.py`` lists them in ``LAYERS``; a renamed or removed
function would only surface when a traced benchmark run crashes, so the
names are checked here against the package. Its cone counter reads the
searches of ``verify_universal_cone`` in groups of ``_CONE_GROUP``, so
the order of those searches is pinned here too.
"""

import importlib
import importlib.util
import pkgutil
import sys
from pathlib import Path

import pytest

import xmodkit
from conftest import oracle_cyclic
from xmodkit import cli, xmod
from xmodkit.actions import trivial_action
from xmodkit.errors import StructuralError
from xmodkit.structures import Morphism

TRACER = Path(__file__).parent.parent / "bench" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up while the class is built
    sys.modules[spec.name] = tracer
    try:
        spec.loader.exec_module(tracer)
    finally:
        del sys.modules[spec.name]
    return tracer


def _layers():
    return _tracer().LAYERS


def test_every_traced_function_exists():
    layers = _layers()
    missing = [
        f"{modname}.{fname}"
        for modname, funcs in layers.items()
        for fname in funcs
        if not callable(getattr(importlib.import_module(f"xmodkit.{modname}"), fname, None))
    ]
    assert missing == []
    assert sum(len(funcs) for funcs in layers.values()) > 50


def _unreachable(value, layer_funcs: dict, nested: bool = False) -> list[str]:
    """LAYERS functions held in value where the tracer cannot rebind them.

    The tracer rebinds module attributes and the values of module-level
    dicts. A function inside a tuple, list or set, or in a dict below
    module level, keeps its unwrapped form and is silently untraced.
    """
    if isinstance(value, dict):
        inner, deeper = list(value.values()), True
    elif isinstance(value, (tuple, list, set, frozenset)):
        inner, nested, deeper = list(value), True, True
    else:
        return []
    found = []
    for v in inner:
        if id(v) in layer_funcs:
            if nested:
                found.append(layer_funcs[id(v)])
        else:
            found += _unreachable(v, layer_funcs, deeper)
    return found


def test_no_traced_function_is_out_of_the_tracers_reach():
    layer_funcs = {
        id(getattr(importlib.import_module(f"xmodkit.{modname}"), fname)): f"{modname}.{fname}"
        for modname, funcs in _layers().items()
        for fname in funcs
    }
    modules = [
        importlib.import_module(f"xmodkit.{info.name}")
        for info in pkgutil.iter_modules(xmodkit.__path__)
        if info.name != "__main__"
    ]
    assert len(modules) > 10
    hidden = [
        f"{mod.__name__}.{key}: {name}"
        for mod in modules
        for key, value in vars(mod).items()
        for name in _unreachable(value, layer_funcs)
    ]
    assert hidden == []


def _cone_cases():
    """kind -> (candidate, legs, parallel) over the base Z4."""
    z2, z4 = oracle_cyclic(2, "z2"), oracle_cyclic(4, "z4")
    xm = xmod.make_xmod("z2_into_z4", Morphism("double", z2, z4, (0, 2)), trivial_action(z4, z2))
    term, ini = xmod.slice_terminal(z4), xmod.slice_initial(z4)
    prod, *prod_legs = xmod.slice_product(xm, xmod.inclusion_xmod(z4, (0, 2)))
    bang = xmod.XModMorphism("bang", xm, term, xm.boundary, xmod.identity_morphism(z4))
    pb, *pb_legs = xmod.slice_pullback(bang, xmod.xmod_identity(term))
    ident = xmod.xmod_identity(xm)
    neg = xmod.XModMorphism(
        "negate", xm, xm,
        Morphism("n1", xm.c1, xm.c1, tuple(xm.c1.neg)),
        Morphism("n0", xm.c0, xm.c0, tuple(xm.c0.neg)),
    )
    eq, incl = xmod.xmod_equalizer(ident, neg)
    cases = {
        "terminal": (term, (), None),
        "initial": (ini, (), None),
        "product": (prod, tuple(prod_legs), None),
        "pullback": (pb, tuple(pb_legs), (bang, xmod.xmod_identity(term))),
        "equalizer": (eq, (incl,), (ident, neg)),
    }
    return cases, [xm, ini]


def test_cone_searches_arrive_in_the_tracers_groups(monkeypatch):
    group = _tracer()._CONE_GROUP
    cases, testers = _cone_cases()
    assert set(group) == set(cases)
    calls = []
    for name in ("enumerate_slice_morphisms", "enumerate_xmod_morphisms"):
        search = getattr(xmod, name)

        def record(dom, cod, *args, search=search):
            calls.append((dom.name, cod.name))
            return search(dom, cod, *args)

        monkeypatch.setattr(xmod, name, record)
    for kind, (cand, legs, parallel) in cases.items():
        calls.clear()
        rep = xmod.verify_universal_cone(kind, cand, legs, testers, parallel)
        assert rep.ok, rep.render()
        # per tester: each leg's codomain in leg order, then the candidate
        expected = []
        for t in testers:
            expected += [(t.name, leg.cod.name) for leg in legs]
            expected.append((cand.name, t.name) if kind == "initial" else (t.name, cand.name))
        assert len(expected) == group[kind] * len(testers), kind
        assert calls == expected, kind


def test_cone_group_kinds_are_the_accepted_kinds():
    # every _CONE_GROUP kind passes above; the CLI offers the same kinds,
    # and the function refuses any other
    group = _tracer()._CONE_GROUP
    sub = next(a for a in cli._build_parser()._actions if a.dest == "command")
    kind_arg = next(a for a in sub.choices["check-universal"]._actions if a.dest == "kind")
    assert set(kind_arg.choices) == set(group)
    term = xmod.slice_terminal(oracle_cyclic(4, "z4"))
    for kind in ("coproduct", "coequalizer", "pushout"):
        with pytest.raises(StructuralError) as err:
            xmod.verify_universal_cone(kind, term, testers=[term])
        assert str(err.value) == f"unknown cone kind {kind!r}"

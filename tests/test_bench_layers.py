"""The benchmark's span tracer wraps xmodkit functions by name.

``bench/tracer.py`` lists them in ``LAYERS``; a renamed or removed
function would only surface when a traced benchmark run crashes, so the
names are checked here against the package.
"""

import importlib
import importlib.util
import pkgutil
import sys
from pathlib import Path

import xmodkit

TRACER = Path(__file__).parent.parent / "bench" / "tracer.py"


def _layers():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up while the class is built
    sys.modules[spec.name] = tracer
    try:
        spec.loader.exec_module(tracer)
    finally:
        del sys.modules[spec.name]
    return tracer.LAYERS


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

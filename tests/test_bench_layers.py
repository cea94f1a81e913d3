"""The benchmark's span tracer wraps xmodkit functions by name.

``bench/tracer.py`` lists them in ``LAYERS``; a renamed or removed
function would only surface when a traced benchmark run crashes, so the
names are checked here against the package.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

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

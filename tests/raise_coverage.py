"""List every ``raise`` in src/xmodkit that the tier-1 suite never runs.

    PYTHONPATH=src python tests/raise_coverage.py [pytest args]

Finds each ``raise`` statement of the package with :mod:`ast`, leaving out
``__main__.py`` and the bodies of ``if __name__ == "__main__":``, then runs
the tier-1 suite in this process under :func:`sys.settrace`. A raise has
run when any line it spans has. Exits 1 and lists each one that never ran,
else exits with pytest's status. Uses the standard library and pytest only;
the name keeps pytest from collecting it as a test module. Tracing makes
the suite run three to four times slower.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "xmodkit"


def _is_main_guard(node: ast.AST) -> bool:
    return (
        isinstance(node, ast.If)
        and isinstance(node.test, ast.Compare)
        and isinstance(node.test.left, ast.Name)
        and node.test.left.id == "__name__"
        and any(
            isinstance(c, ast.Constant) and c.value == "__main__" for c in node.test.comparators
        )
    )


def _raises(node: ast.AST):
    """(first line, last line) of every raise under node, main guards skipped."""
    for child in ast.iter_child_nodes(node):
        if _is_main_guard(child):
            continue
        if isinstance(child, ast.Raise):
            yield child.lineno, child.end_lineno
        yield from _raises(child)


def find_raises() -> dict[str, dict[int, int]]:
    """file path -> {line -> first line of the raise spanning it}."""
    out: dict[str, dict[int, int]] = {}
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__main__.py":
            continue
        spans = out[str(path)] = {}
        for first, last in _raises(ast.parse(path.read_text(), str(path))):
            spans.update(dict.fromkeys(range(first, last + 1), first))
    return out


def main(argv: list[str]) -> int:
    spans = find_raises()
    hit: set[tuple[str, int]] = set()
    tracers: dict = {}  # code file name as the interpreter gives it -> local tracer

    def tracer_for(path: str, found: dict[int, int]):
        def tracer(frame, event, arg):
            if event == "line":
                first = found.get(frame.f_lineno)
                if first is not None:
                    hit.add((path, first))
            return tracer

        return tracer

    def call(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in tracers:
            path = str(Path(name).resolve())
            tracers[name] = tracer_for(path, spans[path]) if path in spans else None
        return tracers[name]

    sys.settrace(call)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", str(ROOT / "tests"), *argv])
    finally:
        sys.settrace(None)
    missed = sorted(
        (Path(f).relative_to(ROOT), first)
        for f, found in spans.items()
        for first in set(found.values())
        if (f, first) not in hit
    )
    for path, first in missed:
        print(f"{path}:{first}: raise never ran")
    if missed:
        print(f"{len(missed)} raise statements never ran under tier-1")
        return 1
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

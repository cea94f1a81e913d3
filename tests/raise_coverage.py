"""List every statement in src/xmodkit that the tier-1 suite never runs.

    PYTHONPATH=src python tests/raise_coverage.py [pytest args]

Finds each simple statement of the package (one holding no other
statement: a ``raise``, a ``return``, an assignment, ...) with :mod:`ast`,
leaving out ``__main__.py``, the bodies of ``if __name__ == "__main__":``
and of ``if TYPE_CHECKING:``, and statements that compile to no code, such
as docstrings. It then runs the tier-1 suite once in this process under
:func:`sys.settrace`. A statement has run when any line it spans has. A
compound statement has run when one in its body has, so the simple ones
cover every line of code. Exits 1 and lists each statement that never ran,
raises first, else exits with pytest's status. Uses the standard library
and pytest only; the name keeps pytest from collecting it as a test module.
Tracing makes the suite run three to four times slower.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "xmodkit"


def _is_skipped_block(node: ast.AST) -> bool:
    """``if __name__ == "__main__":`` or ``if TYPE_CHECKING:``."""
    if not isinstance(node, ast.If):
        return False
    test = node.test
    if isinstance(test, ast.Name):
        return test.id == "TYPE_CHECKING"
    return (
        isinstance(test, ast.Compare)
        and isinstance(test.left, ast.Name)
        and test.left.id == "__name__"
        and any(isinstance(c, ast.Constant) and c.value == "__main__" for c in test.comparators)
    )


def _statements(node: ast.AST):
    """Every simple statement under node, skipped blocks left out."""
    for child in ast.iter_child_nodes(node):
        if _is_skipped_block(child):
            continue
        if isinstance(child, ast.stmt) and not any(
            isinstance(c, ast.stmt) for c in ast.iter_child_nodes(child)
        ):
            yield child
        yield from _statements(child)


def _code_lines(code) -> set[int]:
    """The lines that hold bytecode in code and every code object inside it."""
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= _code_lines(const)
    return lines


def find_statements() -> dict[str, dict[int, ast.stmt]]:
    """file path -> {line -> the statement spanning it}, lines with bytecode only."""
    out: dict[str, dict[int, ast.stmt]] = {}
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__main__.py":
            continue
        source = path.read_text()
        code = _code_lines(compile(source, str(path), "exec"))
        spans = out[str(path)] = {}
        for st in _statements(ast.parse(source, str(path))):
            spans.update(dict.fromkeys(code.intersection(range(st.lineno, st.end_lineno + 1)), st))
    return out


def main(argv: list[str]) -> int:
    spans = find_statements()
    hit: set[tuple[str, int]] = set()
    tracers: dict = {}  # code file name as the interpreter gives it -> local tracer

    def tracer_for(path: str, found: dict[int, ast.stmt]):
        def tracer(frame, event, arg):
            if event == "line":
                st = found.get(frame.f_lineno)
                if st is not None:
                    hit.add((path, st.lineno))
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
        {
            (not isinstance(st, ast.Raise), Path(f).relative_to(ROOT), st.lineno, type(st).__name__)
            for f, found in spans.items()
            for st in found.values()
            if (f, st.lineno) not in hit
        }
    )
    for _, path, line, kind in missed:
        print(f"{path}:{line}: {kind.lower()} never ran")
    if missed:
        print(f"{len(missed)} statements never ran under tier-1")
        return 1
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

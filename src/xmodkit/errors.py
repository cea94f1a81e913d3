"""Exception hierarchy, and the default size guards behind SizeGuardError.

StructuralError covers malformed input: bad table shapes, unknown ids,
profile mismatches, parse errors. It is distinct from a *law failure*,
which is reported through Report items, never raised.
"""

from __future__ import annotations


class XmodkitError(Exception):
    pass


class StructuralError(XmodkitError):
    def __init__(self, message: str, line: int | None = None, col: int | None = None):
        self.message = message
        self.line = line
        self.col = col
        where = ""
        if line is not None:
            where = f" (line {line}" + (f", col {col}" if col is not None else "") + ")"
        super().__init__(message + where)


class ParseError(StructuralError):
    pass


class ClosureError(StructuralError):
    """A requested subset is not closed under the ambient operations."""


class SizeGuardError(XmodkitError):
    """A carrier exceeded the configured size guard for this operation."""


# default carrier guards: constructions and searches, and universal-cone testers
DEFAULT_MAX_SIZE = 12
UNIVERSAL_MAX_SIZE = 8


class IncompatibleActionError(XmodkitError):
    """Action compatibility precondition failed; carries a witness tuple."""

    def __init__(self, message: str, witness: tuple[str, ...] = ()):
        self.witness = witness
        super().__init__(message)

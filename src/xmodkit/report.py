"""Deterministic check reports.

Every verifier returns a Report: an ordered tuple of named check items,
each PASS or FAIL with a witness (element ids bound to the law's
variables in order) and a short rendering of both sides. Item order is a
function of the profile and the checked object only, so rendering the
same report twice is byte-identical.
"""

from __future__ import annotations

from typing import Mapping

from .records import Record
from .terms import Law, Sorts, first_violation


class CheckItem(Record):
    law: str
    ok: bool
    witness: tuple[str, ...] = ()
    detail: str = ""

    def line(self) -> str:
        if self.ok:
            return f"PASS {self.law}"
        out = f"FAIL {self.law}"
        if self.witness:
            out += " at (" + ", ".join(self.witness) + ")"
        if self.detail:
            out += ": " + self.detail
        return out


class Report(Record):
    subject: str
    items: tuple[CheckItem, ...] = ()

    @property
    def ok(self) -> bool:
        return all(i.ok for i in self.items)

    def failures(self) -> tuple[CheckItem, ...]:
        return tuple([i for i in self.items if not i.ok])

    def lines(self) -> list[str]:
        return [i.line() for i in self.items]

    def render(self) -> str:
        verdict = "PASS" if self.ok else "FAIL"
        return "\n".join(self.lines() + [f"RESULT {verdict} {self.subject}"])


def merge_pre(name: str, sub: Report) -> CheckItem:
    """Summarize a component report as a single pre-check item."""
    if sub.ok:
        return CheckItem(name, True)
    first = sub.failures()[0]
    detail = first.law + (f": {first.detail}" if first.detail else "")
    return CheckItem(name, False, first.witness, detail)


def check(lw: Law, sorts: Sorts, ops: Mapping[str, object]) -> CheckItem:
    """The report item of one law: PASS, or FAIL at its first witness."""
    found = first_violation(lw, sorts, ops)
    if found is None:
        return CheckItem(lw.name, True)
    values, k, lhs, rhs = found
    e = lw.equations[k]
    ids = sorts[e.sort][1]
    witness = tuple([sorts[s][1][v] for (_, s), v in zip(lw.variables, values)])
    return CheckItem(lw.name, False, witness, e.detail.format(lhs=ids[lhs], rhs=ids[rhs]))

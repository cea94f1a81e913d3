"""Variety profiles: operation signatures plus equational laws.

A profile fixes the binary star symbols (closed under formal opposites),
the unary symbols with their distribution kind, and any extra identities
beyond the core axioms. Structures, actions and everything above them are
always relative to one profile.

The builtin profiles come from one table of families: each lists its
star symbols with their opposites and its identities as ``"lhs = rhs"``
rows in the term language of :mod:`terms`. Every family member over F_p
also gets ``add-comm`` and scalar unaries s0..s(p-1), each pinned to
repeated addition.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .errors import StructuralError
from .records import Record
from .terms import Identity, parse_identity, term_ops

RESERVED = ("add", "neg", "0")


class BinaryOp(Record):
    symbol: str
    opposite: str


class UnaryOp(Record):
    symbol: str
    kind: str  # "S": w(x*y) = w(x)*y, "D": w(x*y) = w(x)*w(y)


class VarietyProfile(Record):
    name: str
    binary: tuple[BinaryOp, ...]
    unary: tuple[UnaryOp, ...]
    identities: tuple[Identity, ...]

    def binary_symbols(self) -> tuple[str, ...]:
        return tuple([b.symbol for b in self.binary])

    def unary_symbols(self) -> tuple[str, ...]:
        return tuple([u.symbol for u in self.unary])

    def opposite_of(self, symbol: str) -> str:
        for b in self.binary:
            if b.symbol == symbol:
                return b.opposite
        raise StructuralError(f"unknown star symbol {symbol!r} in profile {self.name}")

    def is_primary(self, symbol: str) -> bool:
        """Primary symbols carry tables in files; opposites are transposed."""
        opp = self.opposite_of(symbol)
        if opp == symbol:
            return True
        syms = self.binary_symbols()
        return syms.index(symbol) < syms.index(opp)

    def primary_binary_symbols(self) -> tuple[str, ...]:
        return tuple([s for s in self.binary_symbols() if self.is_primary(s)])

    def unary_kind(self, symbol: str) -> str:
        for u in self.unary:
            if u.symbol == symbol:
                return u.kind
        raise StructuralError(f"unknown unary symbol {symbol!r} in profile {self.name}")


def make_profile(
    name: str,
    binary: Sequence[tuple[str, str]],
    unary: Sequence[tuple[str, str]],
    identities: Iterable[Identity],
) -> VarietyProfile:
    bops = tuple([BinaryOp(s, o) for s, o in binary])
    uops = tuple([UnaryOp(*u) for u in unary])
    idents = tuple(identities)

    syms = [b.symbol for b in bops]
    if len(set(syms)) != len(syms):
        raise StructuralError(f"duplicate star symbol in profile {name}")
    usyms = [u.symbol for u in uops]
    if len(set(usyms)) != len(usyms):
        raise StructuralError(f"duplicate unary symbol in profile {name}")
    for s in syms + usyms:
        if s in RESERVED:
            raise StructuralError(f"symbol {s!r} is reserved")
    if set(syms) & set(usyms):
        raise StructuralError(f"star and unary symbols overlap in profile {name}")
    for b in bops:
        if b.opposite not in syms:
            raise StructuralError(
                f"profile {name}: opposite {b.opposite!r} of {b.symbol!r} is not declared"
            )
    for b in bops:
        # opposition must be an involution
        if next(x.opposite for x in bops if x.symbol == b.opposite) != b.symbol:
            raise StructuralError(f"profile {name}: opposites of {b.symbol!r} do not pair up")
    for u in uops:
        if u.kind not in ("S", "D"):
            raise StructuralError(f"profile {name}: unary kind must be S or D, got {u.kind!r}")

    arity = {"add": 2, "neg": 1}
    arity.update({s: 2 for s in syms})
    arity.update({s: 1 for s in usyms})
    names = set()
    for ident in idents:
        if ident.name in names:
            raise StructuralError(f"profile {name}: duplicate identity name {ident.name!r}")
        names.add(ident.name)
        for term in (ident.lhs, ident.rhs):
            for op, n in term_ops(term):
                if op not in arity:
                    raise StructuralError(
                        f"profile {name}: identity {ident.name!r} uses unknown op {op!r}"
                    )
                if arity[op] != n:
                    raise StructuralError(
                        f"profile {name}: identity {ident.name!r} uses {op!r} with arity {n}"
                    )
    return VarietyProfile(name, bops, uops, idents)


# family -> (primes p, star symbols with their opposites, identity rows);
# _family puts add-comm first and the scalar pins last
_FAMILIES = {
    "comm-algebra": ((2, 3, 5), [("mul", "mul")], [
        ("mul-assoc", "(mul x (mul y z)) = (mul (mul x y) z)"),
    ]),
    "lie": ((3, 5), [("bracket", "bracketop"), ("bracketop", "bracket")], [
        ("antisym", "(bracket x y) = (neg (bracket y x))"),
        ("jacobi", "(add (bracket x (bracket y z)) "
                   "(add (bracket y (bracket z x)) (bracket z (bracket x y)))) = 0"),
    ]),
    # right Leibniz identity: [[x,y],z] = [[x,z],y] + [x,[y,z]]
    "leibniz": ((2, 3), [("bracket", "bracketop"), ("bracketop", "bracket")], [
        ("leibniz", "(bracket (bracket x y) z) = "
                    "(add (bracket (bracket x z) y) (bracket x (bracket y z)))"),
    ]),
    "dialgebra": ((2,), [("lprod", "lprodop"), ("lprodop", "lprod"),
                         ("rprod", "rprodop"), ("rprodop", "rprod")], [
        ("dialg-1", "(lprod x (lprod y z)) = (lprod (lprod x y) z)"),
        ("dialg-2", "(lprod x (rprod y z)) = (lprod (lprod x y) z)"),
        ("dialg-3", "(lprod (rprod x y) z) = (rprod x (lprod y z))"),
        ("dialg-4", "(rprod (lprod x y) z) = (rprod (rprod x y) z)"),
        ("dialg-5", "(rprod x (rprod y z)) = (rprod (rprod x y) z)"),
    ]),
}


def _family(name: str, p: int) -> VarietyProfile:
    """The family's profile over F_p; scalar sk is pinned to x added k times."""
    _, stars, rows = _FAMILIES[name]
    sums = ["0", "x"]
    while len(sums) < p:
        sums.append(f"(add {sums[-1]} x)")
    rows = [("add-comm", "(add x y) = (add y x)"), *rows]
    rows += [(f"scalar-s{k}", f"(s{k} x) = {t}") for k, t in enumerate(sums[:p])]
    scalars = [(f"s{k}", "S") for k in range(p)]
    return make_profile(f"{name}-f{p}", stars, scalars, [parse_identity(*r) for r in rows])


_BUILTIN_NAMES = ("group",) + tuple(
    [f"{name}-f{p}" for name, (primes, _, _) in _FAMILIES.items() for p in primes]
)


def _builtin(name: str) -> VarietyProfile:
    """The builtin profile called name: group, or a family member <family>-f<p>."""
    if name == "group":
        return make_profile("group", [], [], [])
    family, p = name.rsplit("-f", 1)
    return _family(family, int(p))


def builtin_profiles() -> dict[str, VarietyProfile]:
    return {name: _builtin(name) for name in _BUILTIN_NAMES}


_BUILTINS: dict[str, VarietyProfile] = {}


def get_profile(name: str) -> VarietyProfile:
    """The builtin profile called name, built on its first lookup."""
    if name not in _BUILTIN_NAMES:
        raise StructuralError(f"unknown profile {name!r}")
    if name not in _BUILTINS:
        _BUILTINS[name] = _builtin(name)
    return _BUILTINS[name]

"""Variety profiles: operation signatures plus equational laws.

A profile fixes the binary star symbols (closed under formal opposites),
the unary symbols with their distribution kind, and any extra identities
beyond the core axioms. Structures, actions and everything above them are
always relative to one profile.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Sequence

from .errors import StructuralError
from .terms import App, Identity, Var, Zero, term_ops

if TYPE_CHECKING:  # pragma: no cover
    from .terms import Term

RESERVED = ("add", "neg", "0")


@dataclass(frozen=True)
class BinaryOp:
    symbol: str
    opposite: str


@dataclass(frozen=True)
class UnaryOp:
    symbol: str
    kind: str  # "S": w(x*y) = w(x)*y, "D": w(x*y) = w(x)*w(y)


@dataclass(frozen=True)
class VarietyProfile:
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
    unary: Sequence[tuple[str, str] | UnaryOp],
    identities: Iterable[Identity],
) -> VarietyProfile:
    bops = tuple([BinaryOp(s, o) for s, o in binary])
    uops = tuple([u if isinstance(u, UnaryOp) else UnaryOp(*u) for u in unary])
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


def _v(n: str) -> Term:
    return Var(n)


def _add(a: Term, b: Term) -> Term:
    return App("add", (a, b))


def _repeated_add(t: Term, k: int) -> Term:
    if k == 0:
        return Zero()
    out = t
    for _ in range(k - 1):
        out = _add(out, t)
    return out


def _scalar_ops(p: int) -> tuple[list[tuple[str, str]], list[Identity]]:
    """S-kind scalar unaries s0..s(p-1) pinned to repeated addition."""
    ops = [(f"s{k}", "S") for k in range(p)]
    idents = [
        Identity(f"scalar-s{k}", App(f"s{k}", (_v("x"),)), _repeated_add(_v("x"), k))
        for k in range(p)
    ]
    return ops, idents


_ADD_COMM = Identity("add-comm", _add(_v("x"), _v("y")), _add(_v("y"), _v("x")))


def _comm_algebra(p: int) -> VarietyProfile:
    sc, pins = _scalar_ops(p)
    mul = lambda a, b: App("mul", (a, b))  # noqa: E731
    idents = [
        _ADD_COMM,
        Identity("mul-assoc", mul(_v("x"), mul(_v("y"), _v("z"))), mul(mul(_v("x"), _v("y")), _v("z"))),
    ] + pins
    return make_profile(f"comm-algebra-f{p}", [("mul", "mul")], sc, idents)


def _lie(p: int) -> VarietyProfile:
    sc, pins = _scalar_ops(p)
    br = lambda a, b: App("bracket", (a, b))  # noqa: E731
    jacobi = _add(
        br(_v("x"), br(_v("y"), _v("z"))),
        _add(br(_v("y"), br(_v("z"), _v("x"))), br(_v("z"), br(_v("x"), _v("y")))),
    )
    idents = [
        _ADD_COMM,
        Identity("antisym", br(_v("x"), _v("y")), App("neg", (br(_v("y"), _v("x")),))),
        Identity("jacobi", jacobi, Zero()),
    ] + pins
    return make_profile(
        f"lie-f{p}", [("bracket", "bracketop"), ("bracketop", "bracket")], sc, idents
    )


def _leibniz(p: int) -> VarietyProfile:
    sc, pins = _scalar_ops(p)
    br = lambda a, b: App("bracket", (a, b))  # noqa: E731
    # right Leibniz identity: [[x,y],z] = [[x,z],y] + [x,[y,z]]
    idents = [
        _ADD_COMM,
        Identity(
            "leibniz",
            br(br(_v("x"), _v("y")), _v("z")),
            _add(br(br(_v("x"), _v("z")), _v("y")), br(_v("x"), br(_v("y"), _v("z")))),
        ),
    ] + pins
    return make_profile(
        f"leibniz-f{p}", [("bracket", "bracketop"), ("bracketop", "bracket")], sc, idents
    )


def _dialgebra(p: int) -> VarietyProfile:
    sc, pins = _scalar_ops(p)
    lp = lambda a, b: App("lprod", (a, b))  # noqa: E731
    rp = lambda a, b: App("rprod", (a, b))  # noqa: E731
    x, y, z = _v("x"), _v("y"), _v("z")
    idents = [
        _ADD_COMM,
        Identity("dialg-1", lp(x, lp(y, z)), lp(lp(x, y), z)),
        Identity("dialg-2", lp(x, rp(y, z)), lp(lp(x, y), z)),
        Identity("dialg-3", lp(rp(x, y), z), rp(x, lp(y, z))),
        Identity("dialg-4", rp(lp(x, y), z), rp(rp(x, y), z)),
        Identity("dialg-5", rp(x, rp(y, z)), rp(rp(x, y), z)),
    ] + pins
    return make_profile(
        f"dialgebra-f{p}",
        [("lprod", "lprodop"), ("lprodop", "lprod"), ("rprod", "rprodop"), ("rprodop", "rprod")],
        sc,
        idents,
    )


def builtin_profiles() -> dict[str, VarietyProfile]:
    out = [make_profile("group", [], [], [])]
    out += [_comm_algebra(p) for p in (2, 3, 5)]
    out += [_lie(p) for p in (3, 5)]
    out += [_leibniz(p) for p in (2, 3)]
    out += [_dialgebra(2)]
    return {p.name: p for p in out}


_BUILTINS: dict[str, VarietyProfile] | None = None


def get_profile(name: str) -> VarietyProfile:
    global _BUILTINS
    if _BUILTINS is None:
        _BUILTINS = builtin_profiles()
    if name not in _BUILTINS:
        raise StructuralError(f"unknown profile {name!r}")
    return _BUILTINS[name]

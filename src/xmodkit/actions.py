"""Derived actions and semidirect products.

An action of B on A is a dot table (group action data) plus one mixed
star table per binary symbol, opposites included: star_act[sym][b][a]
stores b sym a, and a sym b is read from the opposite table. The checker
runs twelve quantified conditions; the last one is evaluated inside the
assembled product because it constrains sums of star values there.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from .errors import StructuralError
from .morphisms import compose, is_morphism, kernel
from .report import CheckItem, Report
from .structures import (
    Morphism,
    Structure,
    Subobject,
    Table2,
    _Restriction,
    make_structure,
)


@dataclass(frozen=True)
class DerivedAction:
    name: str
    actor: Structure
    acted: Structure
    dot: Table2  # [actor][acted] -> acted
    star_act: Mapping[str, Table2]  # same indexing, one table per symbol


def make_action(
    name: str,
    actor: Structure,
    acted: Structure,
    dot,
    star_act,
) -> DerivedAction:
    if actor.profile.name != acted.profile.name:
        raise StructuralError(
            f"action {name}: profiles differ ({actor.profile.name} vs {acted.profile.name})"
        )
    if actor.zero is None or acted.zero is None:
        raise StructuralError(f"action {name}: both carriers need an additive zero")

    def fix(table, what: str) -> Table2:
        table = tuple(tuple(row) for row in table)
        if len(table) != actor.n:
            raise StructuralError(f"action {name}: {what} has {len(table)} rows, expected {actor.n}")
        for row in table:
            if len(row) != acted.n:
                raise StructuralError(
                    f"action {name}: {what} row has {len(row)} entries, expected {acted.n}"
                )
            for v in row:
                if not (0 <= v < acted.n):
                    raise StructuralError(f"action {name}: {what} entry {v} out of range")
        return table

    syms = actor.profile.binary_symbols()
    if set(star_act) != set(syms):
        raise StructuralError(
            f"action {name}: star tables {sorted(star_act)} do not match symbols {sorted(syms)}"
        )
    return DerivedAction(
        name,
        actor,
        acted,
        fix(dot, "dot"),
        {sym: fix(star_act[sym], f"star {sym}") for sym in syms},
    )


def trivial_action(actor: Structure, acted: Structure, name: str | None = None) -> DerivedAction:
    dot = tuple(tuple(range(acted.n)) for _ in range(actor.n))
    zrow = tuple((acted.zero,) * acted.n for _ in range(actor.n))
    star = {sym: zrow for sym in actor.profile.binary_symbols()}
    return make_action(name or f"triv_{actor.name}_{acted.name}", actor, acted, dot, star)


def restrict_action(name: str, actor: Structure, acted: Structure, keep, parts) -> DerivedAction:
    """Componentwise action of actor on a restricted product carrier.

    acted is ``restricted_product(..., components, keep)``. parts holds one
    (action, lift) pair per component: actor element b acts on coordinate
    i as lift_i[b] does in action_i. A Structure given as the action acts
    on itself by conjugation and its own stars. Only lifted rows at kept
    columns are read; a value outside keep raises ClosureError.
    """
    comps = [p.acted if isinstance(p, DerivedAction) else p for p, _ in parts]
    stars = [p.star_act if isinstance(p, DerivedAction) else p.star for p, _ in parts]
    r = _Restriction(name, comps, keep)
    heads = [(e,) for e in actor.elements]

    def dot_column(part, lift, get):
        if isinstance(part, DerivedAction):
            return list(map(get, map(part.dot.__getitem__, lift)))
        add, neg = part.add, part.neg
        return [[add[v][neg[l]] for v in get(add[l])] for l in lift]

    dot = r.locate(
        [dot_column(p, lift, get) for (p, lift), get in zip(parts, r.getters)],
        "dot", heads, acted.elements,
    )
    star = {
        sym: r.locate(
            [
                list(map(get, map(st[sym].__getitem__, lift)))
                for st, (_, lift), get in zip(stars, parts, r.getters)
            ],
            sym, heads, acted.elements,
        )
        for sym in actor.profile.binary_symbols()
    }
    return make_action(name, actor, acted, dot, star)


def conjugation_action(
    parent: Structure, sub: Subobject | None = None, name: str | None = None
) -> DerivedAction:
    """parent acting on itself (or on an ideal) by b+a-b and the own stars."""
    if sub is None:
        dot = tuple(tuple(parent.conj(b, a) for a in range(parent.n)) for b in range(parent.n))
        return make_action(
            name or f"conj_{parent.name}", parent, parent, dot, dict(parent.star)
        )
    if sub.parent is not parent:
        raise StructuralError("conjugation_action: subobject belongs to a different parent")
    return restrict_action(
        name or f"conj_{sub.induced.name}", parent, sub.induced,
        [(p,) for p in sub.elements], [(parent, range(parent.n))],
    )


def action_from_section(proj: Morphism, sect: Morphism, name: str | None = None) -> DerivedAction:
    """Action of the base on the kernel of a split quotient map."""
    if sect.dom is not proj.cod or sect.cod is not proj.dom:
        raise StructuralError("action_from_section: section endpoints do not match the projection")
    if not is_morphism(sect):
        raise StructuralError(f"action_from_section: {sect.name} is not a morphism")
    if compose(proj, sect).map != tuple(range(proj.cod.n)):
        raise StructuralError(
            f"action_from_section: {sect.name} is not a section of {proj.name}"
        )
    ker = kernel(proj)
    return restrict_action(
        name or f"sec_{proj.name}", proj.cod, ker.induced,
        [(p,) for p in ker.elements], [(proj.dom, sect.map)],
    )


# ---------------------------------------------------------------------------
# the twelve conditions


def _product_tables(act: DerivedAction):
    a, b, dot, sa = act.acted, act.actor, act.dot, act.star_act
    bn = b.n
    pairs = [(ia, ib) for ia in range(a.n) for ib in range(bn)]
    ids = tuple(f"({a.elements[ia]},{b.elements[ib]})" for ia, ib in pairs)
    at = lambda ia, ib: ia * bn + ib  # noqa: E731

    add = tuple(
        tuple(at(a.add[i1][dot[j1][i2]], b.add[j1][j2]) for i2, j2 in pairs)
        for i1, j1 in pairs
    )
    neg = tuple(at(dot[b.neg[j]][a.neg[i]], b.neg[j]) for i, j in pairs)
    star = {}
    for sym in b.profile.binary_symbols():
        opp = b.profile.opposite_of(sym)
        aster, bster = a.star[sym], b.star[sym]
        mixed, mixed_op = sa[sym], sa[opp]
        rows = []
        for i1, j1 in pairs:
            row = []
            for i2, j2 in pairs:
                mix = a.add[a.add[aster[i1][i2]][mixed_op[j2][i1]]][mixed[j1][i2]]
                row.append(at(mix, bster[j1][j2]))
            rows.append(tuple(row))
        star[sym] = tuple(rows)
    omega = {
        sym: tuple(at(a.omega[sym][i], b.omega[sym][j]) for i, j in pairs)
        for sym in b.profile.unary_symbols()
    }
    return ids, add, neg, star, omega


def semidirect_product(
    act: DerivedAction, name: str | None = None
) -> tuple[Structure, Morphism, Morphism, Morphism]:
    """Product structure plus kernel injection, projection, and section."""
    a, b = act.acted, act.actor
    ids, add, neg, star, omega = _product_tables(act)
    name = name or f"sdp_{a.name}_{b.name}"
    prod = make_structure(name, b.profile, ids, add, neg, star, omega)
    inj = Morphism(f"inj_{name}", a, prod, tuple(ia * b.n + b.zero for ia in range(a.n)))
    proj = Morphism(f"proj_{name}", prod, b, tuple(k % b.n for k in range(prod.n)))
    sect = Morphism(f"sect_{name}", b, prod, tuple(a.zero * b.n + ib for ib in range(b.n)))
    return prod, inj, proj, sect


def check_derived_action(act: DerivedAction) -> Report:
    a, b, dot, sa = act.acted, act.actor, act.dot, act.star_act
    syms = b.profile.binary_symbols()
    usyms = b.profile.unary_symbols()
    aid, bid = a.elements, b.elements
    items: list[CheckItem] = []

    def emit(law: str, witness=None, detail: str = "") -> None:
        if witness is None:
            items.append(CheckItem(law, True))
        else:
            items.append(CheckItem(law, False, witness, detail))

    def scan(law, gen):
        for wit in gen:
            emit(law, *wit)
            return
        emit(law)

    def c1():
        row = dot[b.zero]
        for x in range(a.n):
            if row[x] != x:
                yield (aid[x],), f"lhs={aid[row[x]]} rhs={aid[x]}"
                return

    def c2():
        for j in range(b.n):
            drow = dot[j]
            for x in range(a.n):
                for y in range(a.n):
                    l, r = drow[a.add[x][y]], a.add[drow[x]][drow[y]]
                    if l != r:
                        yield (bid[j], aid[x], aid[y]), f"lhs={aid[l]} rhs={aid[r]}"
                        return

    def c3():
        for j1 in range(b.n):
            for j2 in range(b.n):
                drow = dot[b.add[j1][j2]]
                for x in range(a.n):
                    l, r = drow[x], dot[j1][dot[j2][x]]
                    if l != r:
                        yield (bid[j1], bid[j2], aid[x]), f"lhs={aid[l]} rhs={aid[r]}"
                        return

    def c4():
        for sym in syms:
            t = sa[sym]
            for j in range(b.n):
                row = t[j]
                for x in range(a.n):
                    for y in range(a.n):
                        l, r = row[a.add[x][y]], a.add[row[x]][row[y]]
                        if l != r:
                            yield (sym, bid[j], aid[x], aid[y]), f"lhs={aid[l]} rhs={aid[r]}"
                            return

    def c5():
        for sym in syms:
            t = sa[sym]
            for j1 in range(b.n):
                for j2 in range(b.n):
                    row = t[b.add[j1][j2]]
                    for x in range(a.n):
                        l, r = row[x], a.add[t[j1][x]][t[j2][x]]
                        if l != r:
                            yield (sym, bid[j1], bid[j2], aid[x]), f"lhs={aid[l]} rhs={aid[r]}"
                            return

    def c6():
        for sym in syms:
            bt = b.star[sym]
            for j1 in range(b.n):
                for j2 in range(b.n):
                    drow = dot[bt[j1][j2]]
                    for tau in syms:
                        at = a.star[tau]
                        for x in range(a.n):
                            for y in range(a.n):
                                v = at[x][y]
                                if drow[v] != v:
                                    yield (
                                        (sym, bid[j1], bid[j2], tau, aid[x], aid[y]),
                                        f"lhs={aid[drow[v]]} rhs={aid[v]}",
                                    )
                                    return

    def c7():
        for sym in syms:
            bt = b.star[sym]
            for j1 in range(b.n):
                for j2 in range(b.n):
                    drow = dot[bt[j1][j2]]
                    for tau in syms:
                        t = sa[tau]
                        for j in range(b.n):
                            for x in range(a.n):
                                v = t[j][x]
                                if drow[v] != v:
                                    yield (
                                        (sym, bid[j1], bid[j2], tau, bid[j], aid[x]),
                                        f"lhs={aid[drow[v]]} rhs={aid[v]}",
                                    )
                                    return

    def c8():
        for sym in syms:
            at = a.star[sym]
            for x in range(a.n):
                row = at[x]
                for j in range(b.n):
                    drow = dot[j]
                    for y in range(a.n):
                        l, r = row[drow[y]], row[y]
                        if l != r:
                            yield (sym, aid[x], bid[j], aid[y]), f"lhs={aid[l]} rhs={aid[r]}"
                            return

    def c9():
        for sym in syms:
            t = sa[sym]
            for j in range(b.n):
                row = t[j]
                for j1 in range(b.n):
                    drow = dot[j1]
                    for x in range(a.n):
                        l, r = row[drow[x]], row[x]
                        if l != r:
                            yield (sym, bid[j], bid[j1], aid[x]), f"lhs={aid[l]} rhs={aid[r]}"
                            return

    def c10():
        for u in usyms:
            ua, ub = a.omega[u], b.omega[u]
            for j in range(b.n):
                drow = dot[j]
                imrow = dot[ub[j]]
                for x in range(a.n):
                    l, r = ua[drow[x]], imrow[ua[x]]
                    if l != r:
                        yield (u, bid[j], aid[x]), f"lhs={aid[l]} rhs={aid[r]}"
                        return

    def c11():
        for u in usyms:
            ua, ub = a.omega[u], b.omega[u]
            kind = b.profile.unary_kind(u)
            for sym in syms:
                t = sa[sym]
                for j in range(b.n):
                    for x in range(a.n):
                        l = ua[t[j][x]]
                        if kind == "S":
                            r1, r2 = t[j][ua[x]], t[ub[j]][x]
                            if l != r1:
                                yield (
                                    (u, sym, bid[j], aid[x]),
                                    f"acted slot: lhs={aid[l]} rhs={aid[r1]}",
                                )
                                return
                            if l != r2:
                                yield (
                                    (u, sym, bid[j], aid[x]),
                                    f"actor slot: lhs={aid[l]} rhs={aid[r2]}",
                                )
                                return
                        else:
                            r = t[ub[j]][ua[x]]
                            if l != r:
                                yield (u, sym, bid[j], aid[x]), f"lhs={aid[l]} rhs={aid[r]}"
                                return

    for k, gen in enumerate((c1, c2, c3, c4, c5, c6, c7, c8, c9, c10, c11), start=1):
        scan(f"cond-{k}", gen())

    # star values must commute with each other inside the product
    ids, add, _, star, _ = _product_tables(act)
    prov: dict[int, tuple[str, str, str]] = {}
    for sym in syms:
        t = star[sym]
        for i in range(len(ids)):
            for j in range(len(ids)):
                prov.setdefault(t[i][j], (ids[i], sym, ids[j]))
    wit12 = None
    vals = sorted(prov)
    for u in vals:
        for v in vals:
            if add[u][v] != add[v][u]:
                wit12 = (
                    prov[u] + prov[v],
                    f"lhs={ids[add[u][v]]} rhs={ids[add[v][u]]}",
                )
                break
        if wit12:
            break
    emit("cond-12", *(wit12 or (None,)))
    return Report(f"action {act.name}", tuple(items))


def is_derived_action(act: DerivedAction) -> bool:
    return check_derived_action(act).ok

"""Derived actions and semidirect products.

An action of B on A is a dot table (group action data) plus one mixed
star table per binary symbol, opposites included: star_act[sym][b][a]
stores b sym a, and a sym b is read from the opposite table. The checker
runs twelve quantified conditions as laws of the engine in :mod:`terms`,
listed in ``_ACTION_LAWS``; symbol variables range over the star and
unary symbols. Condition 12 constrains sums of star values inside the
semidirect product, so it runs over the product's star values, with the
product's add rows made only at those values.
"""

from __future__ import annotations

from typing import Mapping

from .errors import StructuralError
from .morphisms import compose, is_morphism, kernel
from .records import Record
from .report import CheckItem, Report, check
from .structures import (
    Morphism,
    Structure,
    Subobject,
    Table2,
    _check_table2,
    _Restriction,
    _transpose,
    carrier,
    make_structure,
    operations,
    same_structure,
)
from .terms import first_violation, law_table


class DerivedAction(Record):
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

    def fix(table, op: str) -> Table2:
        return _check_table2(f"action {name}", op, table, actor.n, acted.n)

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
        {sym: fix(star_act[sym], sym) for sym in syms},
    )


def trivial_action(actor: Structure, acted: Structure, name: str | None = None) -> DerivedAction:
    dot = tuple([tuple(range(acted.n)) for _ in range(actor.n)])
    zrow = tuple([(acted.zero,) * acted.n for _ in range(actor.n)])
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
        add, neg = parent.add, parent.neg
        dot = tuple([tuple([add[v][neg[b]] for v in add[b]]) for b in range(parent.n)])
        return make_action(
            name or f"conj_{parent.name}", parent, parent, dot, dict(parent.star)
        )
    if not same_structure(sub.parent, parent):
        raise StructuralError("conjugation_action: subobject belongs to a different parent")
    return restrict_action(
        name or f"conj_{sub.induced.name}", parent, sub.induced,
        [(p,) for p in sub.elements], [(parent, range(parent.n))],
    )


def action_from_section(proj: Morphism, sect: Morphism, name: str | None = None) -> DerivedAction:
    """Action of the base on the kernel of a split quotient map."""
    if not (same_structure(sect.dom, proj.cod) and same_structure(sect.cod, proj.dom)):
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


def _pair_index(act: DerivedAction) -> list[tuple[int, ...]]:
    """pair[ia][ib] is the product index ia * |B| + ib, one int object per element."""
    bn = act.actor.n
    return [tuple(range(x * bn, x * bn + bn)) for x in range(act.acted.n)]


def _product_rows(act: DerivedAction, op: str, rows, pair):
    """Rows of the semidirect product's add or star table at the given indices.

    Product index ia * |B| + ib stands for the pair (ia, ib); every entry
    is read from ``pair = _pair_index(act)``, so the tables share its ints.
    """
    a, b, dot = act.acted, act.actor, act.dot
    bn = b.n
    if op == "add":
        padd = [list(map(pair.__getitem__, row)) for row in a.add]  # pair[i1 + i2]
        for k in rows:
            i1, j1 = divmod(k, bn)
            bj = b.add[j1]
            yield tuple([p[y] for p in map(padd[i1].__getitem__, dot[j1]) for y in bj])
        return
    aadd, aster, bster = a.add, a.star[op], b.star[op]
    mixed, opcol = act.star_act[op], _transpose(act.star_act[b.profile.opposite_of(op)])
    for k in rows:
        i1, j1 = divmod(k, bn)
        cols = list(zip(opcol[i1], bster[j1]))
        yield tuple([
            pair[aadd[r[c]][w]][y]
            for r, w in zip(map(aadd.__getitem__, aster[i1]), mixed[j1])
            for c, y in cols
        ])


def _product_ids(act: DerivedAction) -> tuple[str, ...]:
    a, b = act.acted, act.actor
    return tuple([f"({x},{y})" for x in a.elements for y in b.elements])


def _product_tables(act: DerivedAction):
    a, b, dot = act.acted, act.actor, act.dot
    pair, everything = _pair_index(act), range(a.n * b.n)
    # tuple(list(rows)), not tuple(rows): a tuple grown as rows arrive is
    # resized between row allocations, and RSS then rose with every product
    # built in a long loop; cols above is a list for the same reason
    add = tuple(list(_product_rows(act, "add", everything, pair)))
    neg = tuple([pair[dot[j][a.neg[i]]][j] for i in range(a.n) for j in b.neg])
    star = {
        sym: tuple(list(_product_rows(act, sym, everything, pair)))
        for sym in b.profile.binary_symbols()
    }
    omega = {
        sym: tuple([pair[x][y] for x in a.omega[sym] for y in b.omega[sym]])
        for sym in b.profile.unary_symbols()
    }
    return _product_ids(act), add, neg, star, omega


def semidirect_product(
    act: DerivedAction, name: str | None = None
) -> tuple[Structure, Morphism, Morphism, Morphism]:
    """Product structure plus kernel injection, projection, and section."""
    a, b = act.acted, act.actor
    ids, add, neg, star, omega = _product_tables(act)
    name = name or f"sdp_{a.name}_{b.name}"
    prod = make_structure(name, b.profile, ids, add, neg, star, omega)
    inj = Morphism(f"inj_{name}", a, prod, tuple([ia * b.n + b.zero for ia in range(a.n)]))
    proj = Morphism(f"proj_{name}", prod, b, tuple([k % b.n for k in range(prod.n)]))
    sect = Morphism(f"sect_{name}", b, prod, tuple([a.zero * b.n + ib for ib in range(b.n)]))
    return prod, inj, proj, sect


# sorts: A acted, B actor, S star symbols, U unary symbols; act[s], A*[s],
# B*[s], A~[u] and B~[u] pick the table of a symbol
_ACTION_LAWS = (
    ("cond-1", "x:A", "(dot (B.0) x) = x", "A"),
    ("cond-2", "j:B x y:A", "(dot j (A.add x y)) = (A.add (dot j x) (dot j y))", "A"),
    ("cond-3", "j1 j2:B x:A", "(dot (B.add j1 j2) x) = (dot j1 (dot j2 x))", "A"),
    ("cond-4", "s:S j:B x y:A", "(act[s] j (A.add x y)) = (A.add (act[s] j x) (act[s] j y))", "A"),
    ("cond-5", "s:S j1 j2:B x:A",
     "(act[s] (B.add j1 j2) x) = (A.add (act[s] j1 x) (act[s] j2 x))", "A"),
    ("cond-6", "s:S j1 j2:B t:S x y:A", "(dot (B*[s] j1 j2) (A*[t] x y)) = (A*[t] x y)", "A"),
    ("cond-7", "s:S j1 j2:B t:S j:B x:A", "(dot (B*[s] j1 j2) (act[t] j x)) = (act[t] j x)", "A"),
    ("cond-8", "s:S x:A j:B y:A", "(A*[s] x (dot j y)) = (A*[s] x y)", "A"),
    ("cond-9", "s:S j j1:B x:A", "(act[s] j (dot j1 x)) = (act[s] j x)", "A"),
    ("cond-10", "u:U j:B x:A", "(A~[u] (dot j x)) = (dot (B~[u] j) (A~[u] x))", "A"),
    ("cond-11", "u:U s:S j:B x:A", "(A~[u] (act[s] j x)) = (act[s] j (A~[u] x))", "A",
     "acted slot: lhs={lhs} rhs={rhs}", "(S-kind[u])"),
    ("cond-11", "u:U s:S j:B x:A", "(A~[u] (act[s] j x)) = (act[s] (B~[u] j) x)", "A",
     "actor slot: lhs={lhs} rhs={rhs}", "(S-kind[u])"),
    ("cond-11", "u:U s:S j:B x:A", "(A~[u] (act[s] j x)) = (act[s] (B~[u] j) (A~[u] x))", "A",
     "lhs={lhs} rhs={rhs}", "(D-kind[u])"),
    # V: the distinct star values of the product, in index order
    ("cond-12", "u v:V", "(add u v) = (add v u)", "V"),
)


def check_derived_action(act: DerivedAction) -> Report:
    a, b = act.acted, act.actor
    syms = b.profile.binary_symbols()
    usyms = b.profile.unary_symbols()
    kinds = [b.profile.unary_kind(u) == "S" for u in usyms]
    sorts = {
        "A": carrier(a), "B": carrier(b),
        "S": (range(len(syms)), syms), "U": (range(len(usyms)), usyms),
    }
    ops = {
        **operations(a, "A."), **operations(b, "B."), "dot": act.dot,
        "act": tuple([act.star_act[s] for s in syms]),
        "A*": tuple([a.star[s] for s in syms]), "B*": tuple([b.star[s] for s in syms]),
        "A~": tuple([a.omega[u] for u in usyms]), "B~": tuple([b.omega[u] for u in usyms]),
        "S-kind": kinds, "D-kind": [not k for k in kinds],
    }
    *laws, commute = law_table(_ACTION_LAWS)
    items = [check(lw, sorts, ops) for lw in laws]

    # star values must commute with each other inside the product; rows
    # are made one at a time, and add rows only at the star values
    ids, pair = _product_ids(act), _pair_index(act)
    prov: dict[int, tuple[str, str, str]] = {}
    for sym in syms:
        for i, row in enumerate(_product_rows(act, sym, range(len(ids)), pair)):
            for j, v in enumerate(row):
                if v not in prov:
                    prov[v] = (ids[i], sym, ids[j])
    vals = sorted(prov)
    add = dict(zip(vals, _product_rows(act, "add", vals, pair)))
    found = first_violation(commute, {"V": (vals, ids)}, {"add": add})
    if found is None:
        items.append(CheckItem("cond-12", True))
    else:
        (u, v), _, lhs, rhs = found
        detail = f"lhs={ids[lhs]} rhs={ids[rhs]}"
        items.append(CheckItem("cond-12", False, prov[u] + prov[v], detail))
    return Report(f"action {act.name}", tuple(items))

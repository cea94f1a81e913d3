"""Crossed modules over a structure profile.

A crossed module is a boundary morphism together with a derived action of
the codomain on the domain, subject to two table families: the boundary
reports every action as conjugation (and the matching star rule), and
elements of the domain act on each other the way their boundary images
do. Slice constructions keep one base fixed and only move the top level.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .actions import (
    DerivedAction,
    check_derived_action,
    conjugation_action,
    make_action,
    restrict_action,
)
from .errors import IncompatibleActionError, SizeGuardError, StructuralError
from .limits import equalizer, fiber_product, same_structure
from .morphisms import (
    DEFAULT_MAX_SIZE,
    UNIVERSAL_MAX_SIZE,
    compose,
    enumerate_morphisms,
    identity_morphism,
    morphism_report,
)
from .report import CheckItem, Report, merge_pre
from .structures import Morphism, Structure, _Restriction, subobject, verify_structure


@dataclass(frozen=True)
class CrossedModule:
    name: str
    boundary: Morphism
    action: DerivedAction

    @property
    def c1(self) -> Structure:
        return self.boundary.dom

    @property
    def c0(self) -> Structure:
        return self.boundary.cod


@dataclass(frozen=True)
class XModMorphism:
    name: str
    dom: CrossedModule
    cod: CrossedModule
    top: Morphism
    bottom: Morphism


def make_xmod(name: str, boundary: Morphism, action: DerivedAction) -> CrossedModule:
    c1, c0 = boundary.dom, boundary.cod
    if len(boundary.map) != c1.n or any(not (0 <= v < c0.n) for v in boundary.map):
        raise StructuralError(f"crossed module {name}: boundary map has wrong shape")
    if not same_structure(action.actor, c0) or not same_structure(action.acted, c1):
        raise StructuralError(
            f"crossed module {name}: action endpoints do not match the boundary"
        )
    return CrossedModule(name, boundary, action)


def verify_xmod(xm: CrossedModule) -> Report:
    c1, c0, bnd = xm.c1, xm.c0, xm.boundary.map
    dot, sa = xm.action.dot, xm.action.star_act
    syms = c0.profile.binary_symbols()
    items: list[CheckItem] = [
        merge_pre("pre:c1", verify_structure(c1)),
        merge_pre("pre:c0", verify_structure(c0)),
        merge_pre("pre:boundary", morphism_report(xm.boundary)),
        merge_pre("pre:action", check_derived_action(xm.action)),
    ]

    wit = next(
        (
            (b, x)
            for b in range(c0.n)
            for x in range(c1.n)
            if bnd[dot[b][x]] != c0.conj(b, bnd[x])
        ),
        None,
    )
    if wit is None:
        items.append(CheckItem("xm1-dot", True))
    else:
        b, x = wit
        items.append(
            CheckItem(
                "xm1-dot",
                False,
                (c0.elements[b], c1.elements[x]),
                f"lhs={c0.elements[bnd[dot[b][x]]]} rhs={c0.elements[c0.conj(b, bnd[x])]}",
            )
        )
    for sym in syms:
        t = sa[sym]
        wit = next(
            (
                (b, x)
                for b in range(c0.n)
                for x in range(c1.n)
                if bnd[t[b][x]] != c0.star[sym][b][bnd[x]]
            ),
            None,
        )
        if wit is None:
            items.append(CheckItem(f"xm1-star[{sym}]", True))
        else:
            b, x = wit
            items.append(
                CheckItem(
                    f"xm1-star[{sym}]",
                    False,
                    (c0.elements[b], c1.elements[x]),
                    f"lhs={c0.elements[bnd[t[b][x]]]} rhs={c0.elements[c0.star[sym][b][bnd[x]]]}",
                )
            )

    wit = next(
        (
            (x, y)
            for x in range(c1.n)
            for y in range(c1.n)
            if dot[bnd[x]][y] != c1.conj(x, y)
        ),
        None,
    )
    if wit is None:
        items.append(CheckItem("xm2-dot", True))
    else:
        x, y = wit
        items.append(
            CheckItem(
                "xm2-dot",
                False,
                (c1.elements[x], c1.elements[y]),
                f"lhs={c1.elements[dot[bnd[x]][y]]} rhs={c1.elements[c1.conj(x, y)]}",
            )
        )
    for sym in syms:
        t = sa[sym]
        wit = next(
            (
                (x, y)
                for x in range(c1.n)
                for y in range(c1.n)
                if t[bnd[x]][y] != c1.star[sym][x][y]
            ),
            None,
        )
        if wit is None:
            items.append(CheckItem(f"xm2-star[{sym}]", True))
        else:
            x, y = wit
            items.append(
                CheckItem(
                    f"xm2-star[{sym}]",
                    False,
                    (c1.elements[x], c1.elements[y]),
                    f"lhs={c1.elements[t[bnd[x]][y]]} rhs={c1.elements[c1.star[sym][x][y]]}",
                )
            )
    return Report(f"crossed module {xm.name}", tuple(items))


def verify_xmod_morphism(m: XModMorphism) -> Report:
    if m.top.dom is not m.dom.c1 or m.top.cod is not m.cod.c1:
        if not (same_structure(m.top.dom, m.dom.c1) and same_structure(m.top.cod, m.cod.c1)):
            raise StructuralError(f"morphism {m.name}: top endpoints do not match")
    if not (same_structure(m.bottom.dom, m.dom.c0) and same_structure(m.bottom.cod, m.cod.c0)):
        raise StructuralError(f"morphism {m.name}: bottom endpoints do not match")
    top, bot = m.top.map, m.bottom.map
    dc1, dc0 = m.dom.c1, m.dom.c0
    items: list[CheckItem] = [
        merge_pre("pre:top", morphism_report(m.top)),
        merge_pre("pre:bottom", morphism_report(m.bottom)),
    ]

    dbnd, cbnd = m.dom.boundary.map, m.cod.boundary.map
    wit = next((x for x in range(dc1.n) if cbnd[top[x]] != bot[dbnd[x]]), None)
    if wit is None:
        items.append(CheckItem("square", True))
    else:
        items.append(
            CheckItem(
                "square",
                False,
                (dc1.elements[wit],),
                f"lhs={m.cod.c0.elements[cbnd[top[wit]]]} rhs={m.cod.c0.elements[bot[dbnd[wit]]]}",
            )
        )

    ddot, cdot = m.dom.action.dot, m.cod.action.dot
    wit = next(
        (
            (b, x)
            for b in range(dc0.n)
            for x in range(dc1.n)
            if top[ddot[b][x]] != cdot[bot[b]][top[x]]
        ),
        None,
    )
    if wit is None:
        items.append(CheckItem("equivariant-dot", True))
    else:
        b, x = wit
        items.append(
            CheckItem(
                "equivariant-dot",
                False,
                (dc0.elements[b], dc1.elements[x]),
                f"lhs={m.cod.c1.elements[top[ddot[b][x]]]} rhs={m.cod.c1.elements[cdot[bot[b]][top[x]]]}",
            )
        )
    for sym in dc0.profile.binary_symbols():
        dt, ct = m.dom.action.star_act[sym], m.cod.action.star_act[sym]
        wit = next(
            (
                (b, x)
                for b in range(dc0.n)
                for x in range(dc1.n)
                if top[dt[b][x]] != ct[bot[b]][top[x]]
            ),
            None,
        )
        if wit is None:
            items.append(CheckItem(f"equivariant-star[{sym}]", True))
        else:
            b, x = wit
            items.append(
                CheckItem(
                    f"equivariant-star[{sym}]",
                    False,
                    (dc0.elements[b], dc1.elements[x]),
                    f"lhs={m.cod.c1.elements[top[dt[b][x]]]} rhs={m.cod.c1.elements[ct[bot[b]][top[x]]]}",
                )
            )
    return Report(f"crossed module morphism {m.name}", tuple(items))


def xmod_identity(xm: CrossedModule) -> XModMorphism:
    return XModMorphism(
        f"id_{xm.name}", xm, xm, identity_morphism(xm.c1), identity_morphism(xm.c0)
    )


def compose_xmod_morphisms(g: XModMorphism, f: XModMorphism) -> XModMorphism:
    return XModMorphism(
        f"{g.name}.{f.name}",
        f.dom,
        g.cod,
        compose(g.top, f.top),
        compose(g.bottom, f.bottom),
    )


# ---------------------------------------------------------------------------
# constructions


def inclusion_xmod(parent: Structure, indices: Sequence[int], name: str | None = None) -> CrossedModule:
    """Ideal inclusion with the conjugation action of the parent."""
    sub = subobject(parent, indices)
    act = conjugation_action(parent, sub)
    return make_xmod(name or f"incl_{sub.induced.name}", sub.embed, act)


def slice_terminal(x: Structure, name: str | None = None) -> CrossedModule:
    return make_xmod(name or f"term_{x.name}", identity_morphism(x), conjugation_action(x))


def slice_initial(x: Structure, name: str | None = None) -> CrossedModule:
    if x.zero is None:
        raise StructuralError(f"slice_initial: {x.name} has no zero")
    return inclusion_xmod(x, (x.zero,), name or f"init_{x.name}")


def xmod_fiber_product(
    xm1: CrossedModule, xm2: CrossedModule, name: str | None = None
) -> tuple[CrossedModule, XModMorphism, XModMorphism]:
    """Matching-boundary pairs over a shared base, with diagonal action."""
    if not same_structure(xm1.c0, xm2.c0):
        raise StructuralError(
            f"fiber product of {xm1.name} and {xm2.name}: bases differ"
        )
    name = name or f"fib_{xm1.name}_{xm2.name}"
    # carrier gets its own name so module and structure files never collide
    fib, fst, snd = fiber_product(xm1.boundary, xm2.boundary, name=f"c1_{name}")
    base = xm1.c0
    bnd = Morphism(f"bnd_{name}", fib, base, tuple(xm1.boundary.map[p] for p in fst.map))
    act = restrict_action(
        f"diag_{fib.name}", base, fib, list(zip(fst.map, snd.map)),
        [(xm1.action, range(base.n)), (xm2.action, range(base.n))],
    )
    out = make_xmod(name, bnd, act)
    p1 = XModMorphism(f"fst_{name}", out, xm1, fst, identity_morphism(base))
    p2 = XModMorphism(f"snd_{name}", out, xm2, snd, identity_morphism(base))
    return out, p1, p2


def induced_xmod(f: XModMorphism, name: str | None = None) -> CrossedModule:
    """Rebase the domain of a slice morphism onto the codomain's top level.

    For f: (P, X) -> (S, X) with identity bottom, the result is P over S
    with boundary f.top; S acts through its own boundary into X.
    """
    if f.bottom.map != tuple(range(f.dom.c0.n)):
        raise StructuralError("induced_xmod: bottom level must be the identity")
    if not same_structure(f.dom.c0, f.cod.c0):
        raise StructuralError("induced_xmod: bases differ")
    src, tgt = f.dom, f.cod
    s = tgt.c1
    bmap = tgt.boundary.map
    dot = tuple(src.action.dot[bmap[b]] for b in range(s.n))
    star = {
        sym: tuple(src.action.star_act[sym][bmap[b]] for b in range(s.n))
        for sym in s.profile.binary_symbols()
    }
    act = make_action(f"ind_{f.name}", s, src.c1, dot, star)
    bnd = Morphism(f"bnd_ind_{f.name}", src.c1, s, f.top.map)
    return make_xmod(name or f"ind_{f.name}", bnd, act)


def compose_xmod(
    upper: CrossedModule,
    lower: CrossedModule,
    base_action: DerivedAction,
    name: str | None = None,
) -> CrossedModule:
    """Stack boundaries; the supplied base action must restrict correctly.

    Every action of the middle level must agree with acting through its
    boundary image, otherwise the composite is rejected.
    """
    if not same_structure(upper.c0, lower.c1):
        raise StructuralError(
            f"compose of {upper.name} and {lower.name}: middle levels differ"
        )
    if not same_structure(base_action.actor, lower.c0) or not same_structure(
        base_action.acted, upper.c1
    ):
        raise StructuralError("compose_xmod: base action endpoints do not match")
    mid, q = upper.c0, upper.c1
    lbnd = lower.boundary.map
    for b in range(mid.n):
        for x in range(q.n):
            if base_action.dot[lbnd[b]][x] != upper.action.dot[b][x]:
                raise IncompatibleActionError(
                    f"composite {upper.name};{lower.name}: base action disagrees with "
                    f"the middle action at dot({mid.elements[b]}, {q.elements[x]})",
                    witness=(mid.elements[b], q.elements[x]),
                )
            for sym in mid.profile.binary_symbols():
                if base_action.star_act[sym][lbnd[b]][x] != upper.action.star_act[sym][b][x]:
                    raise IncompatibleActionError(
                        f"composite {upper.name};{lower.name}: base action disagrees "
                        f"with the middle action at {sym}({mid.elements[b]}, {q.elements[x]})",
                        witness=(sym, mid.elements[b], q.elements[x]),
                    )
    name = name or f"{upper.name}_then_{lower.name}"
    bnd = Morphism(f"bnd_{name}", q, lower.c0, tuple(lbnd[v] for v in upper.boundary.map))
    return make_xmod(name, bnd, base_action)


def slice_pullback(
    f: XModMorphism, g: XModMorphism, name: str | None = None
) -> tuple[CrossedModule, XModMorphism, XModMorphism]:
    """Pullback of two slice morphisms into a shared crossed module."""
    if f.cod is not g.cod and not (
        same_structure(f.cod.c1, g.cod.c1) and same_structure(f.cod.c0, g.cod.c0)
    ):
        raise StructuralError("slice_pullback: codomains differ")
    for leg in (f, g):
        rep = verify_xmod_morphism(leg)
        if not rep.ok:
            raise StructuralError(f"slice_pullback: leg {leg.name} is not a morphism")
    name = name or f"pb_{f.dom.name}_{g.dom.name}"
    ind_f = induced_xmod(f, name=f"ind_{f.name}")
    ind_g = induced_xmod(g, name=f"ind_{g.name}")
    fib, q1, q2 = xmod_fiber_product(ind_f, ind_g, name=name)
    base = f.dom.c0
    act = restrict_action(
        f"diag_{fib.c1.name}", base, fib.c1, list(zip(q1.top.map, q2.top.map)),
        [(f.dom.action, range(base.n)), (g.dom.action, range(base.n))],
    )
    out = compose_xmod(fib, f.cod, act, name=name)
    p1 = XModMorphism(f"fst_{name}", out, f.dom, q1.top, identity_morphism(base))
    p2 = XModMorphism(f"snd_{name}", out, g.dom, q2.top, identity_morphism(base))
    return out, p1, p2


def slice_product(
    xm1: CrossedModule, xm2: CrossedModule, name: str | None = None
) -> tuple[CrossedModule, XModMorphism, XModMorphism]:
    """Binary product in the slice: pull back over the terminal object."""
    if not same_structure(xm1.c0, xm2.c0):
        raise StructuralError(f"product of {xm1.name} and {xm2.name}: bases differ")
    term = slice_terminal(xm1.c0)
    f = XModMorphism(
        f"bang_{xm1.name}", xm1, term, xm1.boundary, identity_morphism(xm1.c0)
    )
    g = XModMorphism(
        f"bang_{xm2.name}", xm2, term, xm2.boundary, identity_morphism(xm2.c0)
    )
    return slice_pullback(f, g, name=name or f"prod_{xm1.name}_{xm2.name}")


def xmod_equalizer(
    f: XModMorphism, g: XModMorphism, name: str | None = None
) -> tuple[CrossedModule, XModMorphism]:
    """Componentwise equalizer at both levels, with restricted structure."""
    if f.dom is not g.dom and not (
        same_structure(f.dom.c1, g.dom.c1) and same_structure(f.dom.c0, g.dom.c0)
    ):
        raise StructuralError("xmod_equalizer: domains differ")
    e1 = equalizer(f.top, g.top, name=f"eq1_{f.name}_{g.name}")
    e0 = equalizer(f.bottom, g.bottom, name=f"eq0_{f.name}_{g.name}")
    src = f.dom
    into_e0 = _Restriction(e0.induced.name, (src.c0,), [(p,) for p in e0.elements])
    bnd = Morphism(
        f"bnd_eq_{f.name}",
        e1.induced,
        e0.induced,
        into_e0.image(
            [[src.boundary.map[p] for p in e1.elements]], "boundary", e1.induced.elements
        ),
    )
    act = restrict_action(
        f"eqact_{f.name}", e0.induced, e1.induced,
        [(p,) for p in e1.elements], [(src.action, e0.elements)],
    )
    out = make_xmod(name or f"eq_{f.name}_{g.name}", bnd, act)
    incl = XModMorphism(f"incl_{out.name}", out, src, e1.embed, e0.embed)
    return out, incl


# ---------------------------------------------------------------------------
# morphism search and universal properties


def _square_pairs(
    dom: CrossedModule, cod: CrossedModule, tops, bottoms, prefix: str
) -> list[XModMorphism]:
    """Candidate (top, bottom) pairs that commute with the boundaries and
    respect the dot and star actions; names are prefix, count, endpoints.
    """
    dbnd, cbnd = dom.boundary.map, cod.boundary.map
    out = []
    for bot_m in bottoms:
        bot = bot_m.map
        for top_m in tops:
            top = top_m.map
            if any(cbnd[top[x]] != bot[dbnd[x]] for x in range(dom.c1.n)):
                continue
            if any(
                top[dom.action.dot[b][x]] != cod.action.dot[bot[b]][top[x]]
                for b in range(dom.c0.n)
                for x in range(dom.c1.n)
            ):
                continue
            bad = False
            for sym in dom.c0.profile.binary_symbols():
                dt, ct = dom.action.star_act[sym], cod.action.star_act[sym]
                if any(
                    top[dt[b][x]] != ct[bot[b]][top[x]]
                    for b in range(dom.c0.n)
                    for x in range(dom.c1.n)
                ):
                    bad = True
                    break
            if bad:
                continue
            out.append(
                XModMorphism(
                    f"{prefix}{len(out)}_{dom.name}_{cod.name}",
                    dom,
                    cod,
                    Morphism(top_m.name, dom.c1, cod.c1, top),
                    Morphism(bot_m.name, dom.c0, cod.c0, bot),
                )
            )
    return out


def enumerate_slice_morphisms(
    dom: CrossedModule, cod: CrossedModule, max_size: int = DEFAULT_MAX_SIZE
) -> list[XModMorphism]:
    """All morphisms with identity bottom between objects over one base."""
    if not same_structure(dom.c0, cod.c0):
        raise StructuralError(
            f"slice morphisms between {dom.name} and {cod.name}: bases differ"
        )
    base = dom.c0
    ident = Morphism(f"id_{base.name}", dom.c0, cod.c0, tuple(range(base.n)))
    return _square_pairs(dom, cod, enumerate_morphisms(dom.c1, cod.c1, max_size), [ident], "sl")


def enumerate_xmod_morphisms(
    dom: CrossedModule, cod: CrossedModule, max_size: int = DEFAULT_MAX_SIZE
) -> list[XModMorphism]:
    """All (top, bottom) morphism pairs between two crossed modules."""
    tops = enumerate_morphisms(dom.c1, cod.c1, max_size)
    bottoms = enumerate_morphisms(dom.c0, cod.c0, max_size)
    return _square_pairs(dom, cod, tops, bottoms, "xm")


def find_xmod_isomorphism(
    a: CrossedModule, b: CrossedModule, max_size: int = DEFAULT_MAX_SIZE
) -> Optional[XModMorphism]:
    if a.c1.profile.name != b.c1.profile.name:
        return None
    if a.c1.n != b.c1.n or a.c0.n != b.c0.n:
        return None
    for cand in enumerate_xmod_morphisms(a, b, max_size):
        if len(set(cand.top.map)) != a.c1.n or len(set(cand.bottom.map)) != a.c0.n:
            continue
        inv_top = [0] * a.c1.n
        for i, v in enumerate(cand.top.map):
            inv_top[v] = i
        inv_bot = [0] * a.c0.n
        for i, v in enumerate(cand.bottom.map):
            inv_bot[v] = i
        inverse = XModMorphism(
            f"inv_{cand.name}",
            b,
            a,
            Morphism("t", b.c1, a.c1, tuple(inv_top)),
            Morphism("b", b.c0, a.c0, tuple(inv_bot)),
        )
        if verify_xmod_morphism(inverse).ok:
            return XModMorphism(f"iso_{a.name}_{b.name}", a, b, cand.top, cand.bottom)
    return None


def _guard_testers(testers, max_size: int) -> None:
    for t in testers:
        if t.c1.n > max_size or t.c0.n > max_size:
            raise SizeGuardError(
                f"universal cone tester {t.name} exceeds guard {max_size}"
            )


def verify_universal_cone(
    kind: str,
    candidate: CrossedModule,
    legs: Sequence[XModMorphism] = (),
    testers: Sequence[CrossedModule] = (),
    parallel: Sequence[XModMorphism] | None = None,
    max_size: int = UNIVERSAL_MAX_SIZE,
) -> Report:
    """Count mediating morphisms from every tester cone; each must be 1.

    terminal/initial/product/pullback work in the slice over the shared
    base (identity bottoms); equalizer works with unrestricted morphism
    pairs.
    """
    _guard_testers(testers, max_size)
    items: list[CheckItem] = []

    def emit(tester_name: str, counts: list[int], cones: int) -> None:
        law = f"mediator[{tester_name}]"
        if cones == 0:
            items.append(CheckItem(law, True, (), "no cones from this tester"))
        elif all(c == 1 for c in counts):
            items.append(CheckItem(law, True, (), f"cones={cones}"))
        else:
            bad = next(i for i, c in enumerate(counts) if c != 1)
            items.append(
                CheckItem(law, False, (str(bad),), f"cone {bad} has {counts[bad]} mediators")
            )

    if kind == "terminal":
        for t in testers:
            count = len(enumerate_slice_morphisms(t, candidate))
            emit(t.name, [count], 1)
    elif kind == "initial":
        for t in testers:
            count = len(enumerate_slice_morphisms(candidate, t))
            emit(t.name, [count], 1)
    elif kind in ("product", "pullback"):
        if len(legs) != 2:
            raise StructuralError(f"{kind} cone needs two legs")
        p1, p2 = legs
        if kind == "pullback":
            if parallel is None or len(parallel) != 2:
                raise StructuralError("pullback cone needs the two cospan morphisms")
            f, g = parallel
        for t in testers:
            into_a = enumerate_slice_morphisms(t, p1.cod)
            into_b = enumerate_slice_morphisms(t, p2.cod)
            into_c = enumerate_slice_morphisms(t, candidate)
            counts = []
            cones = 0
            for u in into_a:
                for v in into_b:
                    if kind == "pullback":
                        if (
                            compose(f.top, u.top).map
                            != compose(g.top, v.top).map
                        ):
                            continue
                    cones += 1
                    counts.append(
                        sum(
                            1
                            for w in into_c
                            if compose(p1.top, w.top).map == u.top.map
                            and compose(p2.top, w.top).map == v.top.map
                        )
                    )
            emit(t.name, counts, cones)
    elif kind == "equalizer":
        if len(legs) != 1:
            raise StructuralError("equalizer cone needs one inclusion leg")
        if parallel is None or len(parallel) != 2:
            raise StructuralError("equalizer cone needs the parallel morphism pair")
        incl = legs[0]
        f, g = parallel
        for t in testers:
            into_a = enumerate_xmod_morphisms(t, f.dom)
            into_e = enumerate_xmod_morphisms(t, candidate)
            counts = []
            cones = 0
            for u in into_a:
                if (
                    compose(f.top, u.top).map != compose(g.top, u.top).map
                    or compose(f.bottom, u.bottom).map != compose(g.bottom, u.bottom).map
                ):
                    continue
                cones += 1
                counts.append(
                    sum(
                        1
                        for w in into_e
                        if compose(incl.top, w.top).map == u.top.map
                        and compose(incl.bottom, w.bottom).map == u.bottom.map
                    )
                )
            emit(t.name, counts, cones)
    else:
        raise StructuralError(f"unknown cone kind {kind!r}")
    return Report(f"{kind} cone {candidate.name}", tuple(items))

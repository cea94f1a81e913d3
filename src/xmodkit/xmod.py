"""Crossed modules over a structure profile.

A crossed module is a boundary morphism together with a derived action of
the codomain on the domain, subject to two table families: the boundary
reports every action as conjugation (and the matching star rule), and
elements of the domain act on each other the way their boundary images
do. Slice constructions keep one base fixed and only move the top level;
fibre products (so slice products) and slice pullbacks are one fibre with
the diagonal action. ``_level_report`` verifies the morphisms of both
two-level kinds, and ``_same_object`` is their one sameness rule, asked at
every join of a diagram: one kind, ``same_structure`` carriers at both
``levels`` and equal ``tables``; slice legs are checked by ``_slice_leg``.
The square laws and the boundary-pinned top search ``_top_search`` stay here.
"""

from __future__ import annotations

from collections import Counter
from itertools import product
from typing import Optional, Sequence

from .actions import DerivedAction, check_derived_action, conjugation_action, restrict_action
from .errors import IncompatibleActionError, SizeGuardError, StructuralError
from .limits import equalizer, fiber_product
from .morphisms import (
    DEFAULT_MAX_SIZE,
    UNIVERSAL_MAX_SIZE,
    _level_homs,
    _level_iso,
    _pinned_pairs,
    _search_guard,
    _validate_endpoints,
    compose,
    identity_morphism,
    morphism_report,
)
from .records import Record
from .report import CheckItem, Report, check, merge_pre
from .structures import (
    Morphism,
    Structure,
    _Restriction,
    carrier,
    operations,
    same_structure,
    subobject,
    verify_structure,
)
from .terms import first_violation, law_filter, law_table


class CrossedModule(Record):
    name: str
    boundary: Morphism
    action: DerivedAction

    @property
    def c1(self) -> Structure:
        return self.boundary.dom

    @property
    def c0(self) -> Structure:
        return self.boundary.cod

    @property
    def levels(self) -> tuple[Structure, Structure]:
        return self.boundary.dom, self.boundary.cod

    @property
    def tables(self) -> tuple:
        return self.boundary.map, self.action.dot, self.action.star_act


class XModMorphism(Record):
    name: str
    dom: CrossedModule
    cod: CrossedModule
    top: Morphism
    bottom: Morphism

    @property
    def maps(self) -> tuple[Morphism, Morphism]:
        return self.top, self.bottom


def make_xmod(name: str, boundary: Morphism, action: DerivedAction) -> CrossedModule:
    c1, c0 = boundary.dom, boundary.cod
    _validate_endpoints(boundary)
    if not same_structure(action.actor, c0) or not same_structure(action.acted, c1):
        raise StructuralError(
            f"crossed module {name}: action endpoints do not match the boundary"
        )
    return CrossedModule(name, boundary, action)


def _action_ops(act: DerivedAction, tag: str) -> dict:
    """The dot table of an action as op tag, and its star tables as tag.<symbol>."""
    return {tag: act.dot, **{f"{tag}.{s}": t for s, t in act.star_act.items()}}


_XMOD_LAWS = (
    ("xm1-dot", "b:C0 x:C1", "(bnd (X b x)) = (C0.add (C0.add b (bnd x)) (C0.neg b))", "C0"),
    ("xm1-star[{sym}]", "b:C0 x:C1", "(bnd (X.{sym} b x)) = (C0.{sym} b (bnd x))", "C0"),
    ("xm2-dot", "x y:C1", "(X (bnd x) y) = (C1.add (C1.add x y) (C1.neg x))", "C1"),
    ("xm2-star[{sym}]", "x y:C1", "(X.{sym} (bnd x) y) = (C1.{sym} x y)", "C1"),
)


def verify_xmod(xm: CrossedModule) -> Report:
    c1, c0 = xm.c1, xm.c0
    items: list[CheckItem] = [
        merge_pre("pre:c1", verify_structure(c1)),
        merge_pre("pre:c0", verify_structure(c0)),
        merge_pre("pre:boundary", morphism_report(xm.boundary)),
        merge_pre("pre:action", check_derived_action(xm.action)),
    ]
    sorts = {"C1": carrier(c1), "C0": carrier(c0)}
    ops = {
        **operations(c1, "C1."), **operations(c0, "C0."), **_action_ops(xm.action, "X"),
        "bnd": xm.boundary.map,
    }
    items += [check(lw, sorts, ops) for lw in law_table(_XMOD_LAWS, c0.profile.binary_symbols())]
    return Report(f"crossed module {xm.name}", tuple(items))


# top and bot commute with the boundaries and respect both actions
_SQUARE_LAWS = (
    ("square", "x:D1", "(cbnd (top x)) = (bot (dbnd x))", "C0"),
    ("equivariant-dot", "b:D0 x:D1", "(top (D b x)) = (C (bot b) (top x))", "C1"),
    ("equivariant-star[{sym}]", "b:D0 x:D1",
     "(top (D.{sym} b x)) = (C.{sym} (bot b) (top x))", "C1"),
)


def _square_env(dom: CrossedModule, cod: CrossedModule):
    sorts = {
        "D1": carrier(dom.c1), "D0": carrier(dom.c0),
        "C1": carrier(cod.c1), "C0": carrier(cod.c0),
    }
    ops = {
        **_action_ops(dom.action, "D"), **_action_ops(cod.action, "C"),
        "dbnd": dom.boundary.map, "cbnd": cod.boundary.map,
    }
    return law_table(_SQUARE_LAWS, dom.c0.profile.binary_symbols()), sorts, ops


def _level_report(m, subject: str, words, env, free) -> Report:
    """m's maps checked at each level named by words: endpoints, then their
    laws as pre:<word>, then the square laws env gives, the maps bound to free."""
    for word, f, d, c in zip(words, m.maps, m.dom.levels, m.cod.levels):
        if not (same_structure(f.dom, d) and same_structure(f.cod, c)):
            raise StructuralError(f"morphism {m.name}: {word} endpoints do not match")
    items = [merge_pre(f"pre:{word}", morphism_report(f)) for word, f in zip(words, m.maps)]
    laws, sorts, ops = env(m.dom, m.cod)
    ops.update(zip(free, [f.map for f in m.maps]))
    items += [check(lw, sorts, ops) for lw in laws]
    return Report(f"{subject} {m.name}", tuple(items))


def verify_xmod_morphism(m: XModMorphism) -> Report:
    return _level_report(
        m, "crossed module morphism", ("top", "bottom"), _square_env, ("top", "bot")
    )


def _same_object(a, b) -> bool:
    """One two-level kind, the same carriers at both levels and equal tables."""
    return a is b or (
        type(a) is type(b)
        and all(map(same_structure, a.levels, b.levels))
        and a.tables == b.tables
    )


def xmod_identity(xm: CrossedModule) -> XModMorphism:
    return XModMorphism(f"id_{xm.name}", xm, xm, *map(identity_morphism, xm.levels))


def compose_xmod_morphisms(g: XModMorphism, f: XModMorphism) -> XModMorphism:
    if not _same_object(f.cod, g.dom):
        raise StructuralError(f"cannot compose {g.name} after {f.name}: endpoint mismatch")
    return XModMorphism(f"{g.name}.{f.name}", f.dom, g.cod, *map(compose, g.maps, f.maps))


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


def _fibre(
    xm1: CrossedModule, xm2: CrossedModule, alpha: Morphism, beta: Morphism, name: str
) -> tuple[CrossedModule, XModMorphism, XModMorphism]:
    """The pairs that alpha and beta send to one element, over xm1's base
    through xm1's boundary, with the diagonal action, and the two legs."""
    # carrier gets its own name so module and structure files never collide
    fib, fst, snd = fiber_product(alpha, beta, name=f"c1_{name}")
    base = xm1.c0
    bnd = Morphism(f"bnd_{name}", fib, base, tuple([xm1.boundary.map[p] for p in fst.map]))
    act = restrict_action(
        f"diag_{fib.name}", base, fib, list(zip(fst.map, snd.map)),
        [(xm1.action, range(base.n)), (xm2.action, range(base.n))],
    )
    out = make_xmod(name, bnd, act)
    p1 = XModMorphism(f"fst_{name}", out, xm1, fst, identity_morphism(base))
    p2 = XModMorphism(f"snd_{name}", out, xm2, snd, identity_morphism(base))
    return out, p1, p2


def xmod_fiber_product(
    xm1: CrossedModule, xm2: CrossedModule, name: str | None = None
) -> tuple[CrossedModule, XModMorphism, XModMorphism]:
    """Matching-boundary pairs over a shared base, with diagonal action."""
    if not same_structure(xm1.c0, xm2.c0):
        raise StructuralError(
            f"fiber product of {xm1.name} and {xm2.name}: bases differ"
        )
    return _fibre(xm1, xm2, xm1.boundary, xm2.boundary, name or f"fib_{xm1.name}_{xm2.name}")


def _slice_leg(f: XModMorphism, who: str) -> None:
    """Refuse f, for who, unless it is a slice morphism: identity bottom, one base."""
    if f.bottom.map != tuple(range(f.dom.c0.n)):
        raise StructuralError(f"{who}: bottom level must be the identity")
    if not same_structure(f.dom.c0, f.cod.c0):
        raise StructuralError(f"{who}: bases differ")


def induced_xmod(f: XModMorphism, name: str | None = None) -> CrossedModule:
    """Rebase the domain of a slice morphism onto the codomain's top level.

    For f: (P, X) -> (S, X) with identity bottom, the result is P over S
    with boundary f.top; S acts through its own boundary into X.
    """
    _slice_leg(f, "induced_xmod")
    src, s = f.dom, f.cod.c1
    act = restrict_action(
        f"ind_{f.name}", s, src.c1, [(p,) for p in range(src.c1.n)],
        [(src.action, f.cod.boundary.map)],
    )
    bnd = Morphism(f"bnd_ind_{f.name}", src.c1, s, f.top.map)
    return make_xmod(name or f"ind_{f.name}", bnd, act)


# the base action through the lower boundary is the middle action
_COMPOSE_LAW = (
    ("compose", "b:M x:Q", "(base (lbnd b) x) = (mid b x)", "Q"),
    ("compose", "b:M x:Q", "(base.{sym} (lbnd b) x) = (mid.{sym} b x)", "Q"),
)


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
    syms = mid.profile.binary_symbols()
    sorts = {"M": carrier(mid), "Q": carrier(q)}
    ops = {**_action_ops(base_action, "base"), **_action_ops(upper.action, "mid"), "lbnd": lbnd}
    found = first_violation(law_table(_COMPOSE_LAW, syms)[0], sorts, ops)
    if found is not None:
        (b, x), k, _, _ = found
        at = ("dot", *syms)[k]
        ids = (mid.elements[b], q.elements[x])
        raise IncompatibleActionError(
            f"composite {upper.name};{lower.name}: base action disagrees with "
            f"the middle action at {at}({ids[0]}, {ids[1]})",
            witness=ids if k == 0 else (at, *ids),
        )
    name = name or f"{upper.name}_then_{lower.name}"
    bnd = Morphism(f"bnd_{name}", q, lower.c0, tuple([lbnd[v] for v in upper.boundary.map]))
    return make_xmod(name, bnd, base_action)


def slice_pullback(
    f: XModMorphism, g: XModMorphism, name: str | None = None
) -> tuple[CrossedModule, XModMorphism, XModMorphism]:
    """Pullback of two slice morphisms into a shared crossed module: the
    fibre of f.top and g.top over the shared base, with the diagonal action."""
    if not _same_object(f.cod, g.cod):
        raise StructuralError("slice_pullback: codomains differ")
    for leg in (f, g):
        if not verify_xmod_morphism(leg).ok:
            raise StructuralError(f"slice_pullback: leg {leg.name} is not a morphism")
    for leg in (f, g):
        _slice_leg(leg, "slice_pullback")
    return _fibre(f.dom, g.dom, f.top, g.top, name or f"pb_{f.dom.name}_{g.dom.name}")


def slice_product(
    xm1: CrossedModule, xm2: CrossedModule, name: str | None = None
) -> tuple[CrossedModule, XModMorphism, XModMorphism]:
    """Binary product in the slice: the pullback over the terminal object,
    whose cospan is the two boundaries, so their fibre (``xmod_fiber_product``)."""
    return xmod_fiber_product(xm1, xm2, name or f"prod_{xm1.name}_{xm2.name}")


def xmod_equalizer(
    f: XModMorphism, g: XModMorphism, name: str | None = None
) -> tuple[CrossedModule, XModMorphism]:
    """Componentwise equalizer at both levels, with restricted structure."""
    if not _same_object(f.dom, g.dom):
        raise StructuralError("xmod_equalizer: domains differ")
    if not _same_object(f.cod, g.cod):
        raise StructuralError("xmod_equalizer: codomains differ")
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


def _top_search(dom: CrossedModule, cod: CrossedModule, bottoms, name, keep=None):
    """Morphisms over the bottoms, bottom-major, named name(k): under a bottom,
    a top generator g only goes into the fibre of cbnd over bot(dbnd g) (the
    square law at g) where keep(g, y) holds."""
    dbnd, cbnd = dom.boundary.map, cod.boundary.map

    def pin(bot, g, ys):
        return [y for y in ys if cbnd[y] == bot[dbnd[g]] and (keep is None or keep(g, y))]

    holds = law_filter(*_square_env(dom, cod), "bot", "top")
    pairs = _pinned_pairs(dom.c1, cod.c1, bottoms, pin, holds)
    return [
        XModMorphism(name(k), dom, cod, Morphism(f"top_{name(k)}", dom.c1, cod.c1, top), bot)
        for k, (bot, top) in enumerate(pairs)
    ]


def enumerate_slice_morphisms(
    dom: CrossedModule, cod: CrossedModule, max_size: int = DEFAULT_MAX_SIZE
) -> list[XModMorphism]:
    """All morphisms with identity bottom between objects over one base."""
    if not same_structure(dom.c0, cod.c0):
        raise StructuralError(
            f"slice morphisms between {dom.name} and {cod.name}: bases differ"
        )
    _search_guard(dom.c1, cod.c1, max_size)
    base = dom.c0
    ident = Morphism(f"id_{base.name}", dom.c0, cod.c0, tuple(range(base.n)))
    return _top_search(dom, cod, [ident], lambda k: f"sl{k}_{dom.name}_{cod.name}")


def enumerate_xmod_morphisms(
    dom: CrossedModule, cod: CrossedModule, max_size: int = DEFAULT_MAX_SIZE
) -> list[XModMorphism]:
    """All (top, bottom) morphism pairs between two crossed modules."""
    return _level_homs(dom, cod, _top_search, "xm", max_size)


def find_xmod_isomorphism(
    a: CrossedModule, b: CrossedModule, max_size: int = DEFAULT_MAX_SIZE
) -> Optional[XModMorphism]:
    """First morphism, bottom-major, that is bijective at both levels, or None."""
    return _level_iso(a, b, _top_search, max_size)


def verify_universal_cone(
    kind: str,
    candidate: CrossedModule,
    legs: Sequence[XModMorphism] = (),
    testers: Sequence[CrossedModule] = (),
    parallel: Sequence[XModMorphism] | None = None,
    max_size: int = UNIVERSAL_MAX_SIZE,
) -> Report:
    """Count mediating morphisms from every tester cone; each must be 1.

    The diagram must meet by ``_same_object``: every leg starts at the
    candidate, and the parallel pair (a pullback's cospan, an equalizer's
    pair) starts where the first and the last leg end and ends at one object.
    A cone from a tester is one morphism into each leg's codomain, in leg
    order, that the pair sends to one morphism. The slice kinds search
    identity bottoms and read the top level; equalizer searches all pairs
    and reads both levels. The mediators are the same search from the tester
    to the candidate (from it, for initial), counted once by their composites.
    """
    for t in testers:
        if t.c1.n > max_size or t.c0.n > max_size:
            raise SizeGuardError(f"universal cone tester {t.name} exceeds guard {max_size}")
    search, depth = enumerate_slice_morphisms, 1
    if kind in ("product", "pullback"):
        if len(legs) != 2:
            raise StructuralError(f"{kind} cone needs two legs")
        if kind == "pullback" and (parallel is None or len(parallel) != 2):
            raise StructuralError("pullback cone needs the two cospan morphisms")
    elif kind == "equalizer":
        if len(legs) != 1:
            raise StructuralError("equalizer cone needs one inclusion leg")
        if parallel is None or len(parallel) != 2:
            raise StructuralError("equalizer cone needs the parallel morphism pair")
        search, depth = enumerate_xmod_morphisms, 2
    elif kind in ("terminal", "initial"):
        if legs:
            raise StructuralError(f"{kind} cone takes no legs")
    else:
        raise StructuralError(f"unknown cone kind {kind!r}")
    if parallel and kind not in ("pullback", "equalizer"):
        raise StructuralError(f"{kind} cone takes no parallel pair")
    joins = [(leg.dom, candidate) for leg in legs]
    if parallel:
        f, g = parallel
        joins += [(f.dom, legs[0].cod), (g.dom, legs[-1].cod), (f.cod, g.cod)]
    if not all(_same_object(a, b) for a, b in joins):
        raise StructuralError(f"{kind} cone: legs and parallel pair do not meet")
    # the testers are guarded above; the searches from the candidate
    # (initial) keep at least the default search guard
    size = max(max_size, DEFAULT_MAX_SIZE)
    # mediators run from the tester to the candidate, backwards for initial
    ends = -1 if kind == "initial" else 1

    def maps(w: XModMorphism, outer: XModMorphism | None = None) -> tuple:
        """w's tables at the first depth levels, composed after outer's when given."""
        own = w.maps[:depth]
        return tuple([u.map for u in (map(compose, outer.maps, own) if outer else own)])

    items: list[CheckItem] = []
    for t in testers:
        into = [search(t, leg.cod, size) for leg in legs]
        cones = [
            tuple([maps(u) for u in us])
            for us in product(*into)
            if not parallel or maps(us[0], parallel[0]) == maps(us[-1], parallel[1])
        ]
        mediators = search(*(t, candidate)[::ends], size)
        index = Counter(tuple([maps(w, leg) for leg in legs]) for w in mediators)
        counts = [index[c] for c in cones]
        law = f"mediator[{t.name}]"
        if not counts:
            items.append(CheckItem(law, True, (), "no cones from this tester"))
        elif all(c == 1 for c in counts):
            items.append(CheckItem(law, True, (), f"cones={len(counts)}"))
        else:
            bad = next(i for i, c in enumerate(counts) if c != 1)
            items.append(
                CheckItem(law, False, (str(bad),), f"cone {bad} has {counts[bad]} mediators")
            )
    return Report(f"{kind} cone {candidate.name}", tuple(items))

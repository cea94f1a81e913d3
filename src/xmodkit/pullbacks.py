"""Base change: pulling crossed modules and split objects back along a map.

A crossed module X is pulled back along phi: T -> X0 as the fibre
``xmod._fibre`` of X and the terminal module of T over the boundary and
phi: the pairs that agree under them, over T, with T acting through phi
on the first coordinate and by conjugation or stars on the second, and
the first leg as projection. Split objects pull
back on triples (outer, middle, outer) whose outer coordinates map to
the source and target of the middle one. Both constructions come with a
projection; one square check ``_square`` (codomain by ``_same_object``,
then base map and lower level), one fill-in ``_fill_in`` (each kind gives
its fibre columns) and one scan ``_mediator_scan`` (under the identity
lower level, with the kind's search) serve both kinds' mediators. The two
routes around the square (translate then pull back, pull back then
translate) are compared by isomorphism search.
"""

from __future__ import annotations

from typing import Optional

from .cat1 import (
    Cat1Morphism,
    Cat1Object,
    _big_search,
    find_cat1_isomorphism,
    make_cat1,
    verify_cat1,
    xmod_to_cat1,
)
from .errors import StructuralError
from .morphisms import DEFAULT_MAX_SIZE, _search_guard, is_morphism
from .records import replace
from .report import CheckItem, Report, merge_pre
from .structures import Morphism, _Restriction, restricted_product, same_structure
from .xmod import (
    CrossedModule,
    XModMorphism,
    _fibre,
    _same_object,
    _slice_leg,
    _top_search,
    compose_xmod_morphisms,
    inclusion_xmod,
    slice_terminal,
)


def pullback_xmod(
    x: CrossedModule, phi: Morphism, name: Optional[str] = None
) -> tuple[CrossedModule, XModMorphism]:
    """Pull x back along phi; returns the new module and its projection."""
    if not same_structure(phi.cod, x.c0):
        raise StructuralError(
            f"pullback of {x.name}: {phi.name} does not land in its base"
        )
    name = name or f"pb_{x.name}_{phi.name}"
    out, fst, _ = _fibre(x, slice_terminal(phi.dom), x.boundary, phi, name, phi)
    return out, replace(fst, name=f"proj_{name}")


def _square(pb, proj, f) -> Morphism:
    """Both mediator routes' check that f lands in proj's codomain with its base
    map from pb's lower level; returns the identity lower level of f's mediators."""
    if not _same_object(f.cod, proj.cod):
        raise StructuralError(f"mediator for {f.name}: codomain differs")
    lower, f_lower = pb.levels[1], f.dom.levels[1]
    if f.maps[1].map != proj.maps[1].map or not same_structure(f_lower, lower):
        raise StructuralError(f"mediator for {f.name}: base change does not match")
    return Morphism(f"id_{lower.name}", f_lower, lower, tuple(range(lower.n)))


def _fill_in(pb, proj, f, comps, keep, values):
    """The unique fill-in for f onto the pullback pb, projection proj: pb's
    upper carrier is the rows of the columns keep over comps, and f's upper
    element goes to the row of values at it; the lower level stays fixed."""
    lower = _square(pb, proj, f)
    upper, f_upper = pb.levels[0], f.dom.levels[0]
    rows = _Restriction(upper.name, comps, list(zip(*keep)))
    image = rows.image(values, f"med_{f.name}", f_upper.elements)
    return f.__class__(
        f"med_{f.name}", f.dom, pb, Morphism(f"med_{f.name}", f_upper, upper, image), lower
    )


def _mediator_scan(pb, proj, f, search, max_size: int) -> list:
    """All morphisms into the pullback pb that solve the square of f, named
    med<k>_<f>: once ``_square`` passes, the identity lower level and each
    upper generator g into the fibre of proj's upper map over f's image of g."""
    lower = _square(pb, proj, f)
    _search_guard(f.dom.levels[0], pb.levels[0], max_size)
    over, leg = proj.maps[0].map, f.maps[0].map
    keep = lambda g, y: over[y] == leg[g]  # noqa: E731
    return search(f.dom, pb, [lower], lambda k: f"med{k}_{f.name}", keep=keep)


def xmod_pullback_mediator(
    pb: CrossedModule, proj: XModMorphism, f: XModMorphism
) -> XModMorphism:
    """Unique fill-in for a square onto the pulled-back module.

    f must share the projection's codomain and base map; the mediator
    pairs each element with its boundary value and keeps the base fixed.
    """
    return _fill_in(
        pb, proj, f, (proj.cod.c1, pb.c0), (proj.top.map, pb.boundary.map),
        [f.top.map, f.dom.boundary.map],
    )


def xmod_pullback_mediators(
    pb: CrossedModule,
    proj: XModMorphism,
    f: XModMorphism,
    max_size: int = DEFAULT_MAX_SIZE,
) -> list[XModMorphism]:
    """All morphisms into the pullback that solve the square of the morphism
    f, named med<k>_<f>: f must pass the fill-in's square check; identity
    bottom, top generator g into the fibre of proj.top over f.top(g)."""
    return _mediator_scan(pb, proj, f, _top_search, max_size)


def pullback_xmod_morphism(
    h: XModMorphism, phi: Morphism, name: Optional[str] = None
) -> XModMorphism:
    """Apply the base-change functor to a morphism over a fixed base.

    The result is the fill-in of h after the domain's projection.
    """
    _slice_leg(h, f"pullback of {h.name}")
    pd, prd = pullback_xmod(h.dom, phi)
    pc, prc = pullback_xmod(h.cod, phi)
    name = name or f"pb_{h.name}"
    med = xmod_pullback_mediator(pc, prc, compose_xmod_morphisms(h, prd))
    return replace(med, name=name, top=replace(med.top, name=f"top_{name}"))


def preimage_xmod(
    phi: Morphism, indices: tuple[int, ...], name: Optional[str] = None
) -> CrossedModule:
    """Inclusion module of the preimage of a codomain subset under phi."""
    if not is_morphism(phi):
        raise StructuralError(f"preimage along {phi.name}: not a morphism")
    idx = set(indices)
    for i in idx:
        if not 0 <= i < phi.cod.n:
            raise StructuralError(f"preimage along {phi.name}: index {i} out of range")
    pre = tuple([i for i in range(phi.dom.n) if phi.map[i] in idx])
    return inclusion_xmod(phi.dom, pre, name=name or f"pre_{phi.name}")


def pullback_cat1(
    c: Cat1Object, phi: Morphism, name: Optional[str] = None
) -> tuple[Cat1Object, Cat1Morphism]:
    """Pull a split object back along a morphism into its base."""
    if not same_structure(phi.cod, c.base):
        raise StructuralError(
            f"pullback of {c.name}: {phi.name} does not land in its base"
        )
    if not is_morphism(phi):
        raise StructuralError(f"pullback of {c.name}: {phi.name} is not a morphism")
    name = name or f"pb_{c.name}_{phi.name}"
    t, r = phi.dom, c.big
    triples = [
        (q1, k, q2)
        for q1 in range(t.n)
        for k in range(r.n)
        for q2 in range(t.n)
        if phi.map[q1] == c.src.map[k] and phi.map[q2] == c.tgt.map[k]
    ]
    if not triples:
        raise StructuralError(f"pullback of {c.name}: empty carrier")
    comps = (t, r, t)
    big = restricted_product(f"big_{name}", comps, triples)
    src = Morphism(f"src_{name}", big, t, tuple([q1 for q1, _, _ in triples]))
    tgt = Morphism(f"tgt_{name}", big, t, tuple([q2 for _, _, q2 in triples]))
    lifted = [c.embed.map[v] for v in phi.map]
    embed = Morphism(
        f"embed_{name}",
        t,
        big,
        _Restriction(big.name, comps, triples).image(
            [range(t.n), lifted, range(t.n)], "embed", t.elements
        ),
    )
    pc = make_cat1(name, embed, src, tgt)
    proj = Cat1Morphism(
        f"proj_{name}",
        pc,
        c,
        Morphism(f"pi_{name}", big, r, tuple([k for _, k, _ in triples])),
        Morphism(phi.name, t, c.base, phi.map),
    )
    return pc, proj


def cat1_pullback_mediator(
    pc: Cat1Object, proj: Cat1Morphism, g: Cat1Morphism
) -> Cat1Morphism:
    """Unique fill-in for a square onto the pulled-back split object."""
    return _fill_in(
        pc, proj, g, (pc.base, proj.cod.big, pc.base),
        (pc.src.map, proj.big_map.map, pc.tgt.map),
        [g.dom.src.map, g.big_map.map, g.dom.tgt.map],
    )


def cat1_pullback_mediators(
    pc: Cat1Object,
    proj: Cat1Morphism,
    g: Cat1Morphism,
    max_size: int = DEFAULT_MAX_SIZE,
) -> list[Cat1Morphism]:
    """All morphisms into the pullback that solve the square of the morphism
    g, named med<k>_<g>: g must pass the fill-in's square check; identity
    base, big generator k into the fibre of proj's big map over g's image of k."""
    return _mediator_scan(pc, proj, g, _big_search, max_size)


def square_commutes(
    x: CrossedModule, phi: Morphism, max_size: int = DEFAULT_MAX_SIZE
) -> Report:
    """Compare pulling back before and after translating to a split object.

    Both routes are verified, then an invertible comparison morphism is
    searched for; its images are printed in the passing detail.
    """
    pbx, _ = pullback_xmod(x, phi)
    a = xmod_to_cat1(pbx)
    b, _ = pullback_cat1(xmod_to_cat1(x), phi)
    items = [
        merge_pre("route-xmod-first", verify_cat1(a)),
        merge_pre("route-cat1-first", verify_cat1(b)),
    ]
    iso = find_cat1_isomorphism(a, b, max_size)
    if iso is None:
        items.append(
            CheckItem("isomorphic", False, (), "no invertible comparison found")
        )
    else:
        bigs = " ".join(b.big.elements[v] for v in iso.big_map.map)
        bases = " ".join(b.base.elements[v] for v in iso.base_map.map)
        items.append(
            CheckItem("isomorphic", True, (), f"big images: {bigs}; base images: {bases}")
        )
    return Report(f"square {x.name} along {phi.name}", tuple(items))

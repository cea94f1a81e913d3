"""The square-pinned searches against the unpinned route they replace.

The unpinned route enumerates both level Hom sets in full with
``enumerate_morphisms`` (itself checked against a brute-force scan) and
keeps, lower level major, the pairs that pass the square laws of
``verify_*_morphism``, written out here as plain loops. Isomorphisms are
its first pair bijective at both levels, and mediators are its pairs
with the identity lower level whose composite with the projection is
the leg. The searches must return the same level tables in the same
order, under the same names and lower level names; mediators are named
med<k>_<leg> over the identity named id_<base>, and an upper level map
is named after its morphism.

Inputs: every same-profile pair of zoo crossed modules and of two
modules z4 -> z2 with trivial action (their split objects too, up to 18
big elements), and each pullback of one of these along a criterion-8
morphism with split carrier within the default guard, paired with the
module it was pulled back from and with itself, with the mediators of
every leg into it from the zoo and from itself. Every zoo boundary is
injective, so there a pinned generator has at most one image; the two
extra modules have boundaries that are not, so their searches pin
generators to lists of several images."""

from collections import Counter

import xmodkit.cat1
import xmodkit.xmod
from xmodkit.actions import trivial_action
from xmodkit.cat1 import (
    Cat1Morphism,
    enumerate_cat1_morphisms,
    find_cat1_isomorphism,
    xmod_to_cat1,
)
from xmodkit.morphisms import DEFAULT_MAX_SIZE, enumerate_morphisms
from xmodkit.pullbacks import (
    cat1_pullback_mediators,
    pullback_cat1,
    pullback_xmod,
    xmod_pullback_mediators,
)
from xmodkit.structures import Morphism
from xmodkit.xmod import (
    XModMorphism,
    enumerate_slice_morphisms,
    enumerate_xmod_morphisms,
    find_xmod_isomorphism,
    make_xmod,
)
from xmodkit.zoo import (
    make_cyclic,
    make_dialgebra,
    make_leibniz2,
    make_lie2,
    make_standard_xmods,
    make_symmetric3,
    make_truncated_poly,
)

# the big carriers of zoo split objects searched by the unpinned route
CAT1_ROUTE_MAX = 18


def _bijective(table, n) -> bool:
    return len(table) == n == len(set(table))


def _xmod_squares(d, c, top, bot) -> bool:
    """The squares of verify_xmod_morphism, written out: boundaries commute
    and top is equivariant for the dot and every star action."""
    acts = [(d.action.dot, c.action.dot)]
    acts += [(t, c.action.star_act[sym]) for sym, t in d.action.star_act.items()]
    return all(
        c.boundary.map[top[x]] == bot[d.boundary.map[x]] for x in range(d.c1.n)
    ) and all(
        top[da[b][x]] == ca[bot[b]][top[x]]
        for da, ca in acts for b in range(d.c0.n) for x in range(d.c1.n)
    )


def _cat1_squares(d, c, phi, psi) -> bool:
    """The squares of verify_cat1_morphism, written out."""
    return all(
        phi[d.embed.map[q]] == c.embed.map[psi[q]] for q in range(d.base.n)
    ) and all(
        psi[d.src.map[k]] == c.src.map[phi[k]] and psi[d.tgt.map[k]] == c.tgt.map[phi[k]]
        for k in range(d.big.n)
    )


def _xmod_route(d, c) -> list:
    """(name, top, bottom, bottom name) of every morphism d -> c, unpinned."""
    tops = enumerate_morphisms(d.c1, c.c1, d.c1.n)
    bottoms = enumerate_morphisms(d.c0, c.c0, d.c0.n)
    pairs = [(t.map, b) for b in bottoms for t in tops if _xmod_squares(d, c, t.map, b.map)]
    return [(f"xm{k}_{d.name}_{c.name}", t, b.map, b.name) for k, (t, b) in enumerate(pairs)]


def _cat1_route(d, c) -> list:
    """(name, big, base, base name) of every morphism d -> c, unpinned."""
    bigs = enumerate_morphisms(d.big, c.big, d.big.n)
    bases = enumerate_morphisms(d.base, c.base, d.base.n)
    pairs = [(p.map, q) for p in bigs for q in bases if _cat1_squares(d, c, p.map, q.map)]
    return [(f"c1m{k}_{d.name}_{c.name}", p, q.map, q.name) for k, (p, q) in enumerate(pairs)]


def _renamed(rows, name) -> list:
    return [(name(k), *row[1:]) for k, row in enumerate(rows)]


def _iso(rows, name, upper_n, lower_n):
    """The first row of a route bijective at both levels, under the isomorphism name, or None."""
    first = next((r for r in rows if _bijective(r[1], upper_n) and _bijective(r[2], lower_n)), None)
    return None if first is None else [(name, *first[1:])]


def _xrows(found) -> list:
    found = [found] if isinstance(found, XModMorphism) else found or []
    for m in found:
        assert m.top.name == f"top_{m.name}"
    return [(m.name, m.top.map, m.bottom.map, m.bottom.name) for m in found] or None


def _crows(found) -> list:
    found = [found] if isinstance(found, Cat1Morphism) else found or []
    for m in found:
        assert m.big_map.name == f"big_{m.name}"
    return [(m.name, m.big_map.map, m.base_map.map, m.base_map.name) for m in found] or None


def _xmod_cases(d, c):
    """(label, pinned result, unpinned result) for the crossed module searches d -> c."""
    route = _xmod_route(d, c)
    yield "xmod", _xrows(enumerate_xmod_morphisms(d, c)), route or None
    iso = f"iso_{d.name}_{c.name}"
    yield "xmod-iso", _xrows(find_xmod_isomorphism(d, c)), _iso(route, iso, c.c1.n, c.c0.n)
    if d.c0 is c.c0 or d.c0 == c.c0:
        ident = tuple(range(d.c0.n))
        slices = [(*r[:3], f"id_{d.c0.name}") for r in route if r[2] == ident]
        want = _renamed(slices, lambda k: f"sl{k}_{d.name}_{c.name}") or None
        yield "slice", _xrows(enumerate_slice_morphisms(d, c)), want


def _cat1_cases(d, c):
    """(label, pinned result, unpinned result) for the split object searches d -> c."""
    route = _cat1_route(d, c)
    guard = max(DEFAULT_MAX_SIZE, d.big.n)
    yield "cat1", _crows(enumerate_cat1_morphisms(d, c, guard)), route or None
    iso = _iso(route, f"iso_{d.name}_{c.name}", c.big.n, c.base.n)
    yield "cat1-iso", _crows(find_cat1_isomorphism(d, c, guard)), iso


def _mediator_cases(x, phi, testers):
    """Both mediator scans into the pullbacks of x along phi, for every
    leg with bottom phi that the unpinned route finds."""
    pb, proj = pullback_xmod(x, phi)
    ident = tuple(range(phi.dom.n))
    for t in (pb, *testers):
        into_pb = [r for r in _xmod_route(t, pb) if r[2] == ident]
        for name, top, bottom, _ in _xmod_route(t, x):
            if bottom != phi.map:
                continue
            f = XModMorphism(name, t, x, Morphism("top", t.c1, x.c1, top), phi)
            route = [(*r[:3], f"id_{pb.c0.name}") for r in into_pb
                     if tuple(proj.top.map[v] for v in r[1]) == top]
            want = _renamed(route, lambda k: f"med{k}_{name}") or None
            yield "xmod-mediators", _xrows(xmod_pullback_mediators(pb, proj, f)), want
    cx = xmod_to_cat1(x)
    pc, cproj = pullback_cat1(cx, phi)
    for t in (pc, xmod_to_cat1(pb)):
        into_pc = [r for r in _cat1_route(t, pc) if r[2] == ident]
        for name, big, base, _ in _cat1_route(t, cx):
            if base != phi.map:
                continue
            g = Cat1Morphism(name, t, cx, Morphism("big", t.big, cx.big, big), phi)
            route = [(*r[:3], f"id_{pc.base.name}") for r in into_pc
                     if tuple(cproj.big_map.map[v] for v in r[1]) == big]
            want = _renamed(route, lambda k: f"med{k}_{name}") or None
            yield "cat1-mediators", _crows(cat1_pullback_mediators(pc, cproj, g)), want


def _non_injective():
    """z4 -> z2 crossed modules with trivial action: the zero map and reduction mod 2."""
    z4, z2 = make_cyclic(4), make_cyclic(2)
    return [
        make_xmod(name, Morphism(f"bnd_{name}", z4, z2, table), trivial_action(z2, z4))
        for name, table in (("zero_z4_z2", (0, 0, 0, 0)), ("mod2_z4_z2", (0, 1, 0, 1)))
    ]


def _zoo_cases():
    zoo = [*make_standard_xmods().values(), *_non_injective()]
    for d in zoo:
        for c in zoo:
            if d.c1.profile.name != c.c1.profile.name:
                continue
            yield from _xmod_cases(d, c)
            if max(d.c1.n * d.c0.n, c.c1.n * c.c0.n) <= CAT1_ROUTE_MAX:
                yield from _cat1_cases(xmod_to_cat1(d), xmod_to_cat1(c))


def _pullback_cases():
    zoo = [*make_standard_xmods().values(), *_non_injective()]
    structures = (
        make_cyclic(2), make_cyclic(3), make_cyclic(4), make_symmetric3(),
        make_truncated_poly(2), make_truncated_poly(3), make_lie2(3),
        make_leibniz2(2), make_dialgebra(2),
    )
    for x in zoo:
        hits = Counter(x.boundary.map)
        for s in structures:
            if s.profile.name != x.c0.profile.name:
                continue
            for phi in enumerate_morphisms(s, x.c0):
                if sum(hits.get(c, 0) for c in phi.map) * s.n > DEFAULT_MAX_SIZE:
                    continue
                pb, _ = pullback_xmod(x, phi)
                yield from _xmod_cases(pb, x)
                yield from _xmod_cases(pb, pb)
                pc, _ = pullback_cat1(xmod_to_cat1(x), phi)
                yield from _cat1_cases(pc, xmod_to_cat1(x))
                yield from _cat1_cases(xmod_to_cat1(pb), pc)
                testers = [t for t in zoo if t.c1.profile.name == x.c1.profile.name
                           and t.c0.n == s.n and t.c1.n * t.c0.n <= DEFAULT_MAX_SIZE]
                yield from _mediator_cases(x, phi, testers)


def _mismatches(cases) -> tuple[list, Counter]:
    seen, bad = Counter(), []
    for label, got, want in cases:
        seen[label, want is not None] += 1
        if got != want:
            bad.append((label, got, want))
    return bad, seen


def test_zoo_searches_match_unpinned_route():
    bad, seen = _mismatches(_zoo_cases())
    assert not bad, bad[:3]
    assert seen["xmod", True] == 41 and seen["cat1", True] == 39
    assert seen["slice", True] == 15
    assert seen["xmod-iso", True] == 11 and seen["cat1-iso", True] == 9


def test_pullback_searches_match_unpinned_route():
    bad, seen = _mismatches(_pullback_cases())
    assert not bad, bad[:3]
    assert seen["xmod", True] == seen["cat1", True] == 70
    assert seen["xmod-mediators", True] == 92 and seen["cat1-mediators", True] == 84
    assert seen["xmod-mediators", False] == seen["cat1-mediators", False] == 0


def _drop_last(monkeypatch, only_from_several: bool):
    """Make every pinned search lose the last image of each list it pins
    (of each list with several images, if only_from_several)."""
    for module in (xmodkit.xmod, xmodkit.cat1):
        search = module._pinned_pairs

        def lossy(a, b, lowers, pin, holds, first=(), search=search):
            def pin_less(low, g, ys):
                kept = pin(low, g, ys)
                return kept if only_from_several and len(kept) < 2 else kept[:-1]

            return search(a, b, lowers, pin_less, holds, first)

        monkeypatch.setattr(module, "_pinned_pairs", lossy)


def test_oracle_sees_an_image_dropped_from_several(monkeypatch):
    _drop_last(monkeypatch, only_from_several=True)
    bad, _ = _mismatches(_zoo_cases())
    assert {label for label, _, _ in bad} == {"xmod", "slice", "cat1"}


def test_oracle_sees_a_dropped_only_image(monkeypatch):
    _drop_last(monkeypatch, only_from_several=False)
    bad, _ = _mismatches(_pullback_cases())
    assert {label for label, _, _ in bad} == {
        "xmod", "xmod-iso", "slice", "cat1", "cat1-iso", "xmod-mediators", "cat1-mediators"
    }

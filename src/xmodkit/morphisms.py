"""Morphism verification, kernels, ideals, and the one morphism search.

Every search in the package runs on the pieces here. The additive reduct
of a valid structure is a finite group, so a morphism is determined by
the images of a greedy generating set (``structures._generating_data``,
the one shared with the generator-reduced law scans of
``verify_structure``); ``_image_tables`` tries every
tuple of generator images from one candidate list per generator, extends
it along recorded sum derivations and keeps the tables that pass the law
table ``morphism_report`` runs, bound once per search. Each list holds
the elements whose order divides the generator's, and ``_pinned_pairs``
fixes each lower level map and cuts the lists by the square laws at each
generator. ``_bijective`` is the isomorphism test of both two-level
finders; ``find_isomorphism`` takes the first bijective table
``_image_tables`` yields, which is the least. Crossed modules and
cat1-objects are two-level kinds: an object's ``levels`` and a morphism's
``maps`` are (upper, lower), and one Hom search ``_level_homs`` and one
isomorphism finder ``_level_iso`` serve both, each running the kind's own
pinned search ``search(dom, cod, lowers, name)`` of upper maps under lower maps.
The tests keep a brute-force scan and the unpinned route (full Hom sets,
then the square laws) as oracles."""

from __future__ import annotations

import itertools
from typing import Optional

# the guards live in errors (the CLI reads them without this layer); xmod reads both here
from .errors import DEFAULT_MAX_SIZE, UNIVERSAL_MAX_SIZE, SizeGuardError, StructuralError
from .report import CheckItem, Report, check
from .structures import Morphism, Structure, Subobject, _generating_data, carrier, operations
from .structures import same_structure, subobject
from .terms import law_filter, law_table


def identity_morphism(s: Structure) -> Morphism:
    return Morphism(f"id_{s.name}", s, s, tuple(range(s.n)))


def compose(g: Morphism, f: Morphism) -> Morphism:
    """g after f."""
    if not same_structure(f.cod, g.dom):
        raise StructuralError(f"cannot compose {g.name} after {f.name}: endpoint mismatch")
    return Morphism(f"{g.name}.{f.name}", f.dom, g.cod, tuple([g.map[v] for v in f.map]))


def _validate_endpoints(f: Morphism) -> None:
    if f.dom.profile.name != f.cod.profile.name:
        raise StructuralError(
            f"morphism {f.name}: profiles differ ({f.dom.profile.name} vs {f.cod.profile.name})"
        )
    if len(f.map) != f.dom.n:
        raise StructuralError(f"morphism {f.name}: map has {len(f.map)} entries, expected {f.dom.n}")
    for v in f.map:
        if not (0 <= v < f.cod.n):
            raise StructuralError(f"morphism {f.name}: image index {v} out of range")


# f preserves zero and every table, from A to B; the search filters share it
_HOM_LAWS = (
    ("hom-zero", "x:A0", "(f x) = (B.0)", "B", "maps to {lhs}"),
    ("hom-add", "x y:A", "(f (A.add x y)) = (B.add (f x) (f y))", "B",
     "f(x+y)={lhs} f(x)+f(y)={rhs}"),
    ("hom-star[{sym}]", "x y:A", "(f (A.{sym} x y)) = (B.{sym} (f x) (f y))", "B",
     "f(x{sym}y)={lhs} f(x){sym}f(y)={rhs}"),
    ("hom-unary[{un}]", "x:A", "(f (A.{un} x)) = (B.{un} (f x))", "B",
     "f({un}(x))={lhs} {un}(f(x))={rhs}"),
)


def _hom_env(a: Structure, b: Structure):
    laws = law_table(_HOM_LAWS, a.profile.binary_symbols(), a.profile.unary_symbols())
    sorts = {"A": carrier(a), "A0": ((a.zero,), a.elements), "B": carrier(b)}
    return laws, sorts, {**operations(a, "A."), **operations(b, "B.")}


def morphism_report(f: Morphism) -> Report:
    _validate_endpoints(f)
    a, b = f.dom, f.cod
    if a.zero is None or b.zero is None:
        item = CheckItem("hom-zero", False, (), "an endpoint has no additive zero")
        return Report(f"morphism {f.name}", (item,))
    laws, sorts, ops = _hom_env(a, b)
    ops["f"] = f.map
    return Report(f"morphism {f.name}", tuple([check(lw, sorts, ops) for lw in laws]))


def is_morphism(f: Morphism) -> bool:
    return morphism_report(f).ok


def element_order(s: Structure, i: int) -> int:
    if s.zero is None:
        raise StructuralError(f"{s.name}: no zero, orders undefined")
    acc = i
    for k in range(1, s.n + 1):
        if acc == s.zero:
            return k
        acc = s.add[acc][i]
    raise StructuralError(f"{s.name}: element {s.elements[i]} has no additive order")


def kernel(f: Morphism) -> Subobject:
    rep = morphism_report(f)
    if not rep.ok:
        first = rep.failures()[0]
        raise StructuralError(f"kernel of non-morphism {f.name}: {first.law}")
    subset = tuple([i for i in range(f.dom.n) if f.map[i] == f.cod.zero])
    return subobject(f.dom, subset, name=f"ker_{f.name}")


# in retracts P onto the subset: an escaping value goes to zero, which is inside
_IDEAL_LAWS = (
    ("ideal-conj", "g:P a:I",
     "(in (P.add (P.add g a) (P.neg g))) = (P.add (P.add g a) (P.neg g))", "P",
     "g+a-g={rhs} escapes"),
    ("ideal-star[{sym}]", "g:P a:I", "(in (P.{sym} g a)) = (P.{sym} g a)", "P",
     "g{sym}a={rhs} escapes"),
)


def ideal_report(sub: Subobject) -> Report:
    p = sub.parent
    inside = set(sub.elements)
    sorts = {"P": carrier(p), "I": (sub.elements, p.elements)}
    ops = {**operations(p, "P."), "in": tuple([v if v in inside else p.zero for v in range(p.n)])}
    laws = law_table(_IDEAL_LAWS, p.profile.binary_symbols())
    return Report(f"ideal {sub.induced.name}", tuple([check(lw, sorts, ops) for lw in laws]))


# ---------------------------------------------------------------------------
# search


def _search_guard(a: Structure, b: Structure, max_size: int) -> None:
    """The checks every search of a -> b makes before it starts."""
    if a.profile.name != b.profile.name:
        raise StructuralError(
            f"cannot enumerate morphisms across profiles ({a.profile.name} vs {b.profile.name})"
        )
    if a.n > max_size:
        raise SizeGuardError(
            f"enumerate_morphisms: domain carrier {a.n} exceeds guard {max_size}"
        )
    for s in (b, a):
        if s.zero is None:
            raise StructuralError(f"{s.name}: no zero, cannot enumerate morphisms")


def _image_tables(a: Structure, b: Structure, order, allowed):
    """Image tables of the morphisms a -> b, in candidate order.

    A candidate gives generator k an image from allowed[k]; it is
    extended along the derivations order of _generating_data and yielded
    if it passes the laws of ``morphism_report``, bound once. Without seeds
    and with each allowed[k] ascending, tables come in increasing order:
    generator k is the least index outside the span of the earlier ones and
    its image is its candidate, so every earlier position is fixed by
    earlier candidates."""
    preserves = law_filter(*_hom_env(a, b), "f")
    n, b_add, b_zero = a.n, b.add, b.zero
    for images in itertools.product(*allowed):
        img = [b_zero] * n
        for e, parent, k in order:
            img[e] = b_add[img[parent]][images[k]]
        m = tuple(img)
        if preserves(m):
            yield m


def _by_order(a: Structure, b: Structure, gens) -> list[list[int]]:
    """Per generator of a, the elements of b whose order divides its order."""
    orders = [element_order(b, y) for y in range(b.n)]
    return [
        [y for y in range(b.n) if o % orders[y] == 0] for o in [element_order(a, g) for g in gens]
    ]


def _pinned_pairs(a: Structure, b: Structure, lowers, pin, holds, first=()) -> list:
    """(lower, table) pairs, lower-major, in ``_image_tables`` order (so
    tables ascending without first): under each lower morphism, the tables
    a -> b whose generators g (from first on) take images pin(lower map,
    g, ys) of the order-allowed ys, and that pass holds(lower map, table)."""
    gens, order = _generating_data(a, first)
    ranked = _by_order(a, b, gens)
    return [
        (low, m)
        for low in lowers
        for m in _image_tables(a, b, order, [pin(low.map, *p) for p in zip(gens, ranked)])
        if holds(low.map, m)
    ]


def _bijective(*maps: Morphism) -> bool:
    """Every map is one-to-one onto its codomain.

    A bijective morphism of finite structures inverts to a morphism, and
    squares of bijective levels flip, so the isomorphism searches need no
    other check.
    """
    return all(len(set(f.map)) == len(f.map) == f.cod.n for f in maps)


def enumerate_morphisms(a: Structure, b: Structure, max_size: int = DEFAULT_MAX_SIZE) -> list[Morphism]:
    """All morphisms a -> b, sorted by image tuple (``_image_tables`` order)."""
    _search_guard(a, b, max_size)
    gens, order = _generating_data(a)
    found = _image_tables(a, b, order, _by_order(a, b, gens))
    return [Morphism(f"hom{k}_{a.name}_{b.name}", a, b, m) for k, m in enumerate(found)]


def find_isomorphism(
    a: Structure, b: Structure, max_size: int = DEFAULT_MAX_SIZE
) -> Optional[Morphism]:
    """The least bijective morphism a -> b, or None: the first one
    ``_image_tables`` yields."""
    if a.profile.name != b.profile.name or a.n != b.n:
        return None
    if max(a.n, b.n) > max_size:
        raise SizeGuardError(f"find_isomorphism: carrier {a.n} exceeds guard {max_size}")
    if a.zero is None or b.zero is None:
        return None
    if sorted(element_order(a, i) for i in range(a.n)) != sorted(
        element_order(b, i) for i in range(b.n)
    ):
        return None
    gens, order = _generating_data(a)
    for m in _image_tables(a, b, order, _by_order(a, b, gens)):
        if len(set(m)) == b.n:
            return Morphism(f"iso_{a.name}_{b.name}", a, b, m)
    return None


def _level_homs(dom, cod, search, name: str, max_size: int) -> list:
    """Every morphism dom -> cod, named <name><k>_<dom>_<cod>."""
    _search_guard(dom.levels[0], cod.levels[0], max_size)
    lowers = enumerate_morphisms(dom.levels[1], cod.levels[1], max_size)
    return search(dom, cod, lowers, lambda k: f"{name}{k}_{dom.name}_{cod.name}")


def _level_iso(a, b, search, max_size: int):
    """The first morphism a -> b bijective at both levels, or None (at once
    if the profiles or a level's sizes differ)."""
    if a.levels[0].profile.name != b.levels[0].profile.name or any(
        x.n != y.n for x, y in zip(a.levels, b.levels)
    ):
        return None
    _search_guard(a.levels[0], b.levels[0], max_size)
    lowers = [f for f in enumerate_morphisms(a.levels[1], b.levels[1], max_size) if _bijective(f)]
    isos = search(a, b, lowers, lambda k: f"iso_{a.name}_{b.name}")
    return next((f for f in isos if _bijective(f.maps[0])), None)

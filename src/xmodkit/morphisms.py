"""Morphism verification, kernels, ideals, and the one morphism search.

Every search in the package runs on the pieces here. The additive reduct
of a valid structure is a finite group, so a morphism is determined by
the images of a greedy generating set; ``_image_tables`` tries every
tuple of generator images allowed by element orders (order divides for
``enumerate_morphisms``, order equal for ``find_isomorphism``), extends
it along recorded sum derivations and keeps the tables that pass the law
table ``morphism_report`` runs, bound once per search. ``_level_pairs``
filters pairs of level morphisms through a square law filter (crossed
module and cat1 morphisms), and ``_bijective`` is the isomorphism test
of every ``find_*`` function. A brute-force scan is kept in the tests as
the oracle for these routines.
"""

from __future__ import annotations

import itertools
import operator
from typing import Optional

from .errors import SizeGuardError, StructuralError
from .report import CheckItem, Report, check
from .structures import Morphism, Structure, Subobject, carrier, operations, subobject
from .terms import law_filter, law_table

DEFAULT_MAX_SIZE = 12
UNIVERSAL_MAX_SIZE = 8


def identity_morphism(s: Structure) -> Morphism:
    return Morphism(f"id_{s.name}", s, s, tuple(range(s.n)))


def compose(g: Morphism, f: Morphism) -> Morphism:
    """g after f."""
    if f.cod is not g.dom and f.cod != g.dom:
        raise StructuralError(f"cannot compose {g.name} after {f.name}: endpoint mismatch")
    return Morphism(f"{g.name}.{f.name}", f.dom, g.cod, tuple(g.map[v] for v in f.map))


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
    return Report(f"morphism {f.name}", tuple(check(lw, sorts, ops) for lw in laws))


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
    subset = tuple(i for i in range(f.dom.n) if f.map[i] == f.cod.zero)
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
    ops = {**operations(p, "P."), "in": tuple(v if v in inside else p.zero for v in range(p.n))}
    laws = law_table(_IDEAL_LAWS, p.profile.binary_symbols())
    return Report(f"ideal {sub.induced.name}", tuple(check(lw, sorts, ops) for lw in laws))


def is_ideal(sub: Subobject) -> bool:
    return ideal_report(sub).ok


# ---------------------------------------------------------------------------
# search


def _generating_data(s: Structure):
    """Greedy additive generators plus a derivation of every nonzero element.

    A derivation (element, parent, k) means element = parent + gens[k],
    with parent zero or derived earlier; generator k is zero + gens[k].
    """
    if s.zero is None:
        raise StructuralError(f"{s.name}: no zero, cannot enumerate morphisms")
    known = {s.zero}
    order: list[tuple[int, int, int]] = []
    gens: list[int] = []
    for x in range(s.n):
        if x in known:
            continue
        gens.append(x)
        known.add(x)
        order.append((x, s.zero, len(gens) - 1))
        grew = True
        while grew:
            grew = False
            for e, _, _ in list(order):
                for k, g in enumerate(gens):
                    z = s.add[e][g]
                    if z not in known:
                        known.add(z)
                        order.append((z, e, k))
                        grew = True
    return gens, order


def _image_tables(a: Structure, b: Structure, admissible):
    """Image tables of the morphisms a -> b, in candidate order.

    A candidate gives each generator an image y with
    ``admissible(order of the generator, order of y)``; it is extended
    along the derivations and yielded if it passes the laws of
    ``morphism_report``, bound once.
    """
    gens, order = _generating_data(a)
    allowed = []
    for g in gens:
        o = element_order(a, g)
        allowed.append([y for y in range(b.n) if admissible(o, element_order(b, y))])
    preserves = law_filter(*_hom_env(a, b), "f")
    n, b_add, b_zero = a.n, b.add, b.zero
    for images in itertools.product(*allowed):
        img = [b_zero] * n
        for e, parent, k in order:
            img[e] = b_add[img[parent]][images[k]]
        m = tuple(img)
        if preserves(m):
            yield m


def _bijective(*maps: Morphism) -> bool:
    """Every map is one-to-one onto its codomain.

    A bijective morphism of finite structures inverts to a morphism, and
    squares of bijective levels flip, so the isomorphism searches need no
    other check.
    """
    return all(len(set(f.map)) == len(f.map) == f.cod.n for f in maps)


def _level_pairs(outer, inner, holds) -> list:
    """(o, i) pairs of level morphisms, outer-major, with holds(o.map, i.map)."""
    return [(o, i) for o in outer for i in inner if holds(o.map, i.map)]


def enumerate_morphisms(a: Structure, b: Structure, max_size: int = DEFAULT_MAX_SIZE) -> list[Morphism]:
    """All morphisms a -> b, sorted by image tuple."""
    if a.profile.name != b.profile.name:
        raise StructuralError(
            f"cannot enumerate morphisms across profiles ({a.profile.name} vs {b.profile.name})"
        )
    if a.n > max_size:
        raise SizeGuardError(
            f"enumerate_morphisms: domain carrier {a.n} exceeds guard {max_size}"
        )
    if b.zero is None:
        raise StructuralError(f"{b.name}: no zero, cannot enumerate morphisms")
    found = sorted(_image_tables(a, b, lambda o, p: o % p == 0))
    return [Morphism(f"hom{k}_{a.name}_{b.name}", a, b, m) for k, m in enumerate(found)]


def find_isomorphism(
    a: Structure, b: Structure, max_size: int = DEFAULT_MAX_SIZE
) -> Optional[Morphism]:
    """First bijective morphism in candidate order, or None."""
    if a.profile.name != b.profile.name:
        return None
    if a.n != b.n:
        return None
    if max(a.n, b.n) > max_size:
        raise SizeGuardError(f"find_isomorphism: carrier {a.n} exceeds guard {max_size}")
    if a.zero is None or b.zero is None:
        return None
    if sorted(element_order(a, i) for i in range(a.n)) != sorted(
        element_order(b, i) for i in range(b.n)
    ):
        return None
    for m in _image_tables(a, b, operator.eq):
        iso = Morphism(f"iso_{a.name}_{b.name}", a, b, m)
        if _bijective(iso):
            return iso
    return None

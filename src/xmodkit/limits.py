"""Finite limits on plain structures: products, fiber products, equalizers.

All constructions are componentwise on explicit pair carriers. The fiber
product keeps only the pairs where the two legs agree; its tables are the
product tables restricted to that subset, which is closed because the legs
are morphisms.
"""

from __future__ import annotations

from .errors import StructuralError
from .morphisms import is_morphism
from .structures import Morphism, Structure, Subobject, restricted_product, subobject


def same_structure(a: Structure, b: Structure) -> bool:
    return a is b or (
        a.profile.name == b.profile.name
        and a.elements == b.elements
        and a.add == b.add
        and a.neg == b.neg
        and a.star == b.star
        and a.omega == b.omega
    )


def direct_product(
    a: Structure, b: Structure, name: str | None = None
) -> tuple[Structure, Morphism, Morphism]:
    """Componentwise product with its two projections."""
    if a.profile.name != b.profile.name:
        raise StructuralError(
            f"product needs one profile, got {a.profile.name} and {b.profile.name}"
        )
    pairs = [(p, r) for p in range(a.n) for r in range(b.n)]
    name = name or f"prod_{a.name}_{b.name}"
    prod = restricted_product(name, (a, b), pairs)
    fst = Morphism(f"fst_{name}", prod, a, tuple([p for p, _ in pairs]))
    snd = Morphism(f"snd_{name}", prod, b, tuple([r for _, r in pairs]))
    return prod, fst, snd


def fiber_product(
    alpha: Morphism, beta: Morphism, name: str | None = None
) -> tuple[Structure, Morphism, Morphism]:
    """Pairs where the two legs agree, with the coordinate projections."""
    if not same_structure(alpha.cod, beta.cod):
        raise StructuralError(
            f"fiber product of {alpha.name} and {beta.name}: codomains differ"
        )
    for leg in (alpha, beta):
        if not is_morphism(leg):
            raise StructuralError(f"fiber product leg {leg.name} is not a morphism")
    a, b = alpha.dom, beta.dom
    if a.profile.name != b.profile.name:
        raise StructuralError(
            f"fiber product needs one profile, got {a.profile.name} and {b.profile.name}"
        )
    pairs = [
        (p, r) for p in range(a.n) for r in range(b.n) if alpha.map[p] == beta.map[r]
    ]
    if not pairs:
        raise StructuralError(
            f"fiber product of {alpha.name} and {beta.name}: empty carrier"
        )
    name = name or f"fib_{a.name}_{b.name}"
    fib = restricted_product(name, (a, b), pairs)
    fst = Morphism(f"fst_{name}", fib, a, tuple([p for p, _ in pairs]))
    snd = Morphism(f"snd_{name}", fib, b, tuple([r for _, r in pairs]))
    return fib, fst, snd


def equalizer(f: Morphism, g: Morphism, name: str | None = None) -> Subobject:
    """Subobject of the shared domain where the parallel pair agrees."""
    if not same_structure(f.dom, g.dom) or not same_structure(f.cod, g.cod):
        raise StructuralError(f"equalizer of {f.name} and {g.name}: pair is not parallel")
    for leg in (f, g):
        if not is_morphism(leg):
            raise StructuralError(f"equalizer leg {leg.name} is not a morphism")
    subset = tuple([i for i in range(f.dom.n) if f.map[i] == g.map[i]])
    return subobject(f.dom, subset, name=name or f"eq_{f.name}_{g.name}")

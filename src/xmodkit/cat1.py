"""Split objects: one structure fibred over a base by source and target.

A split object carries a big structure R over a base S with an embedding
e and two retractions s, t (source and target). Both retractions split e,
and the two kernels annihilate each other: additive commutators vanish
and every star product between them is zero. Such objects translate back
and forth to crossed modules; both translations are implemented here and
the roundtrips are exercised in the tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .actions import action_from_section, semidirect_product
from .errors import StructuralError
from .limits import same_structure
from .morphisms import (
    DEFAULT_MAX_SIZE,
    _validate_endpoints,
    enumerate_morphisms,
    kernel,
    morphism_report,
)
from .report import CheckItem, Report, merge_pre
from .structures import Morphism, Structure, verify_structure
from .xmod import CrossedModule, XModMorphism, make_xmod


@dataclass(frozen=True)
class Cat1Object:
    name: str
    embed: Morphism
    src: Morphism
    tgt: Morphism

    @property
    def big(self) -> Structure:
        return self.embed.cod

    @property
    def base(self) -> Structure:
        return self.embed.dom


@dataclass(frozen=True)
class Cat1Morphism:
    name: str
    dom: Cat1Object
    cod: Cat1Object
    big_map: Morphism
    base_map: Morphism


def make_cat1(name: str, embed: Morphism, src: Morphism, tgt: Morphism) -> Cat1Object:
    """Bundle the three legs, re-pinning them onto shared endpoint objects."""
    big, base = embed.cod, embed.dom
    for leg, which in ((src, "src"), (tgt, "tgt")):
        if not (same_structure(leg.dom, big) and same_structure(leg.cod, base)):
            raise StructuralError(f"cat1 {name}: {which} does not run from big to base")
    for leg in (embed, src, tgt):
        _validate_endpoints(leg)
    if len(set(embed.map)) != base.n:
        raise StructuralError(f"cat1 {name}: embedding {embed.name} is not injective")
    src = Morphism(src.name, big, base, src.map)
    tgt = Morphism(tgt.name, big, base, tgt.map)
    return Cat1Object(name, embed, src, tgt)


def verify_cat1(c: Cat1Object) -> Report:
    big, base = c.big, c.base
    items: list[CheckItem] = [
        merge_pre("pre:big", verify_structure(big)),
        merge_pre("pre:base", verify_structure(base)),
        merge_pre("pre:embed", morphism_report(c.embed)),
        merge_pre("pre:src", morphism_report(c.src)),
        merge_pre("pre:tgt", morphism_report(c.tgt)),
    ]

    for leg, law in ((c.src, "src-split"), (c.tgt, "tgt-split")):
        wit = next((q for q in range(base.n) if leg.map[c.embed.map[q]] != q), None)
        if wit is None:
            items.append(CheckItem(law, True))
        else:
            got = base.elements[leg.map[c.embed.map[wit]]]
            items.append(
                CheckItem(law, False, (base.elements[wit],), f"retraction sends it to {got}")
            )

    if big.zero is None or base.zero is None:
        items.append(CheckItem("kernel-commute", False, (), "missing zero element"))
        for sym in big.profile.binary_symbols():
            items.append(
                CheckItem(f"kernel-star[{sym}]", False, (), "missing zero element")
            )
        return Report(f"cat1 {c.name}", tuple(items))

    ker_s = [i for i in range(big.n) if c.src.map[i] == base.zero]
    ker_t = [i for i in range(big.n) if c.tgt.map[i] == base.zero]

    def commute_witness():
        for x in ker_s:
            for y in ker_t:
                v = big.add[big.add[big.add[x][y]][big.neg[x]]][big.neg[y]]
                if v != big.zero:
                    return (x, y, v)
        return None

    wit = commute_witness()
    if wit is None:
        items.append(CheckItem("kernel-commute", True))
    else:
        x, y, v = wit
        items.append(
            CheckItem(
                "kernel-commute",
                False,
                (big.elements[x], big.elements[y]),
                f"x+y-x-y = {big.elements[v]}",
            )
        )

    for sym in big.profile.binary_symbols():
        table = big.star[sym]
        wit = next(
            ((x, y) for x in ker_s for y in ker_t if table[x][y] != big.zero), None
        )
        if wit is None:
            items.append(CheckItem(f"kernel-star[{sym}]", True))
        else:
            x, y = wit
            items.append(
                CheckItem(
                    f"kernel-star[{sym}]",
                    False,
                    (big.elements[x], big.elements[y]),
                    f"product is {big.elements[table[x][y]]}",
                )
            )

    return Report(f"cat1 {c.name}", tuple(items))


def verify_cat1_morphism(m: Cat1Morphism) -> Report:
    if not (
        same_structure(m.big_map.dom, m.dom.big)
        and same_structure(m.big_map.cod, m.cod.big)
    ):
        raise StructuralError(f"morphism {m.name}: big endpoints do not match")
    if not (
        same_structure(m.base_map.dom, m.dom.base)
        and same_structure(m.base_map.cod, m.cod.base)
    ):
        raise StructuralError(f"morphism {m.name}: base endpoints do not match")
    phi, psi = m.big_map.map, m.base_map.map
    items: list[CheckItem] = [
        merge_pre("pre:big", morphism_report(m.big_map)),
        merge_pre("pre:base", morphism_report(m.base_map)),
    ]

    wit = next(
        (
            q
            for q in range(m.dom.base.n)
            if phi[m.dom.embed.map[q]] != m.cod.embed.map[psi[q]]
        ),
        None,
    )
    if wit is None:
        items.append(CheckItem("square-embed", True))
    else:
        lhs = m.cod.big.elements[phi[m.dom.embed.map[wit]]]
        rhs = m.cod.big.elements[m.cod.embed.map[psi[wit]]]
        items.append(
            CheckItem(
                "square-embed",
                False,
                (m.dom.base.elements[wit],),
                f"lhs={lhs} rhs={rhs}",
            )
        )

    for dleg, cleg, law in (
        (m.dom.src, m.cod.src, "square-src"),
        (m.dom.tgt, m.cod.tgt, "square-tgt"),
    ):
        wit = next(
            (k for k in range(m.dom.big.n) if psi[dleg.map[k]] != cleg.map[phi[k]]),
            None,
        )
        if wit is None:
            items.append(CheckItem(law, True))
        else:
            lhs = m.cod.base.elements[psi[dleg.map[wit]]]
            rhs = m.cod.base.elements[cleg.map[phi[wit]]]
            items.append(
                CheckItem(law, False, (m.dom.big.elements[wit],), f"lhs={lhs} rhs={rhs}")
            )

    return Report(f"cat1 morphism {m.name}", tuple(items))


def xmod_to_cat1(xm: CrossedModule, name: Optional[str] = None) -> Cat1Object:
    """Split object on the product carrier; target folds boundary into base."""
    name = name or f"cat1_{xm.name}"
    c0 = xm.c0
    prod, _, proj, sect = semidirect_product(xm.action, name=f"big_{name}")
    bmap = xm.boundary.map
    tgt = Morphism(
        f"tgt_{name}",
        prod,
        c0,
        tuple(c0.add[bmap[k // c0.n]][k % c0.n] for k in range(prod.n)),
    )
    src = Morphism(f"src_{name}", prod, c0, proj.map)
    embed = Morphism(f"embed_{name}", c0, prod, sect.map)
    return Cat1Object(name, embed, src, tgt)


def cat1_to_xmod(c: Cat1Object, name: Optional[str] = None) -> CrossedModule:
    """Crossed module on the source kernel; base acts through the embedding."""
    name = name or f"xmod_{c.name}"
    src = Morphism(c.src.name, c.big, c.base, c.src.map)
    embed = Morphism(c.embed.name, c.base, c.big, c.embed.map)
    act = action_from_section(src, embed, name=f"act_{name}")
    ker = kernel(src)
    bnd = Morphism(
        f"bnd_{name}",
        act.acted,
        c.base,
        tuple(c.tgt.map[p] for p in ker.embed.map),
    )
    return make_xmod(name, bnd, act)


def xmod_morphism_to_cat1(
    m: XModMorphism,
    dom_c: Optional[Cat1Object] = None,
    cod_c: Optional[Cat1Object] = None,
) -> Cat1Morphism:
    """Translate a crossed module morphism between the translated objects."""
    dom_c = dom_c if dom_c is not None else xmod_to_cat1(m.dom)
    cod_c = cod_c if cod_c is not None else xmod_to_cat1(m.cod)
    dn, cn = m.dom.c0.n, m.cod.c0.n
    big = Morphism(
        f"big_{m.name}",
        dom_c.big,
        cod_c.big,
        tuple(m.top.map[k // dn] * cn + m.bottom.map[k % dn] for k in range(dom_c.big.n)),
    )
    base = Morphism(m.bottom.name, dom_c.base, cod_c.base, m.bottom.map)
    return Cat1Morphism(f"cat1_{m.name}", dom_c, cod_c, big, base)


def _squares_ok(dom: Cat1Object, cod: Cat1Object, phi, psi) -> bool:
    for q in range(dom.base.n):
        if phi[dom.embed.map[q]] != cod.embed.map[psi[q]]:
            return False
    for k in range(dom.big.n):
        if psi[dom.src.map[k]] != cod.src.map[phi[k]]:
            return False
        if psi[dom.tgt.map[k]] != cod.tgt.map[phi[k]]:
            return False
    return True


def enumerate_cat1_morphisms(
    dom: Cat1Object, cod: Cat1Object, max_size: int = DEFAULT_MAX_SIZE
) -> list[Cat1Morphism]:
    bigs = enumerate_morphisms(dom.big, cod.big, max_size)
    bases = enumerate_morphisms(dom.base, cod.base, max_size)
    out: list[Cat1Morphism] = []
    for phi in bigs:
        for psi in bases:
            if _squares_ok(dom, cod, phi.map, psi.map):
                out.append(
                    Cat1Morphism(
                        f"c1m{len(out)}_{dom.name}_{cod.name}", dom, cod, phi, psi
                    )
                )
    return out


def find_cat1_isomorphism(
    a: Cat1Object, b: Cat1Object, max_size: int = DEFAULT_MAX_SIZE
) -> Optional[Cat1Morphism]:
    """First invertible morphism between the two objects, or None.

    A bijective morphism of finite structures inverts to a morphism, and
    bijective squares flip, so checking invertibility of both levels is
    enough.
    """
    if a.big.profile.name != b.big.profile.name:
        return None
    if a.big.n != b.big.n or a.base.n != b.base.n:
        return None
    for f in enumerate_cat1_morphisms(a, b, max_size):
        if len(set(f.big_map.map)) == a.big.n and len(set(f.base_map.map)) == a.base.n:
            return Cat1Morphism(f"iso_{a.name}_{b.name}", a, b, f.big_map, f.base_map)
    return None

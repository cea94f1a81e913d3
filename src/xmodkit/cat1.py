"""Split objects: one structure fibred over a base by source and target.

A split object carries a big structure R over a base S with an embedding
e and two retractions s, t (source and target). Both retractions split e,
and the two kernels annihilate each other: additive commutators vanish
and every star product between them is zero. Such objects translate back
and forth to crossed modules; both translations are implemented here and
the roundtrips are exercised in the tests. Legs meet at ``same_structure``
carriers; ``xmod._same_object`` compares split objects by carriers and
``tables`` (embed, src, tgt). The crossed modules' morphism verifier, Hom
search and isomorphism finder serve here too; the square laws and the
pins of ``_big_search`` stay here.
"""

from __future__ import annotations

from typing import Optional

from .actions import action_from_section, semidirect_product
from .errors import StructuralError
from .morphisms import (
    DEFAULT_MAX_SIZE,
    _level_homs,
    _level_iso,
    _pinned_pairs,
    _validate_endpoints,
    morphism_report,
)
from .records import Record
from .report import CheckItem, Report, check, merge_pre
from .structures import Morphism, Structure, carrier, operations, same_structure
from .structures import verify_structure
from .terms import law_filter, law_table
from .xmod import CrossedModule, XModMorphism, _level_report, make_xmod


class Cat1Object(Record):
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

    @property
    def levels(self) -> tuple[Structure, Structure]:
        return self.embed.cod, self.embed.dom

    @property
    def tables(self) -> tuple:
        return self.embed.map, self.src.map, self.tgt.map


class Cat1Morphism(Record):
    name: str
    dom: Cat1Object
    cod: Cat1Object
    big_map: Morphism
    base_map: Morphism

    @property
    def maps(self) -> tuple[Morphism, Morphism]:
        return self.big_map, self.base_map


def make_cat1(name: str, embed: Morphism, src: Morphism, tgt: Morphism) -> Cat1Object:
    """Bundle the three legs as given; src and tgt must run between carriers
    that are ``same_structure`` as embed's codomain and domain."""
    big, base = embed.cod, embed.dom
    for leg, which in ((src, "src"), (tgt, "tgt")):
        if not (same_structure(leg.dom, big) and same_structure(leg.cod, base)):
            raise StructuralError(f"cat1 {name}: {which} does not run from big to base")
    for leg in (embed, src, tgt):
        _validate_endpoints(leg)
    if len(set(embed.map)) != base.n:
        raise StructuralError(f"cat1 {name}: embedding {embed.name} is not injective")
    return Cat1Object(name, embed, src, tgt)


# both legs split the embedding; the kernels Ks and Kt annihilate each other
_CAT1_LAWS = (
    ("src-split", "q:S", "(src (embed q)) = q", "S", "retraction sends it to {lhs}"),
    ("tgt-split", "q:S", "(tgt (embed q)) = q", "S", "retraction sends it to {lhs}"),
    ("kernel-commute", "x:Ks y:Kt", "(R.add (R.add (R.add x y) (R.neg x)) (R.neg y)) = (R.0)", "R",
     "x+y-x-y = {lhs}"),
    ("kernel-star[{sym}]", "x:Ks y:Kt", "(R.{sym} x y) = (R.0)", "R", "product is {lhs}"),
)


def verify_cat1(c: Cat1Object) -> Report:
    big, base = c.big, c.base
    items: list[CheckItem] = [
        merge_pre("pre:big", verify_structure(big)),
        merge_pre("pre:base", verify_structure(base)),
        merge_pre("pre:embed", morphism_report(c.embed)),
        merge_pre("pre:src", morphism_report(c.src)),
        merge_pre("pre:tgt", morphism_report(c.tgt)),
    ]
    laws = law_table(_CAT1_LAWS, big.profile.binary_symbols())
    src, tgt = c.src.map, c.tgt.map
    sorts = {
        "S": carrier(base), "R": carrier(big),
        "Ks": ([i for i in range(big.n) if src[i] == base.zero], big.elements),
        "Kt": ([i for i in range(big.n) if tgt[i] == base.zero], big.elements),
    }
    ops = {**operations(big, "R."), "src": src, "tgt": tgt, "embed": c.embed.map}
    items += [check(lw, sorts, ops) for lw in laws[:2]]
    if big.zero is None or base.zero is None:
        items += [CheckItem(lw.name, False, (), "missing zero element") for lw in laws[2:]]
    else:
        items += [check(lw, sorts, ops) for lw in laws[2:]]
    return Report(f"cat1 {c.name}", tuple(items))


_CAT1_SQUARES = (
    ("square-embed", "q:DS", "(phi (D.embed q)) = (C.embed (psi q))", "CR"),
    ("square-src", "k:DR", "(psi (D.src k)) = (C.src (phi k))", "CS"),
    ("square-tgt", "k:DR", "(psi (D.tgt k)) = (C.tgt (phi k))", "CS"),
)


def _square_env(dom: Cat1Object, cod: Cat1Object):
    sorts = {
        "DS": carrier(dom.base), "DR": carrier(dom.big),
        "CS": carrier(cod.base), "CR": carrier(cod.big),
    }
    ops = {
        f"{tag}.{leg}": getattr(c, leg).map
        for tag, c in (("D", dom), ("C", cod))
        for leg in ("embed", "src", "tgt")
    }
    return law_table(_CAT1_SQUARES), sorts, ops


def verify_cat1_morphism(m: Cat1Morphism) -> Report:
    return _level_report(m, "cat1 morphism", ("big", "base"), _square_env, ("phi", "psi"))


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
        tuple([c0.add[bmap[k // c0.n]][k % c0.n] for k in range(prod.n)]),
    )
    src = Morphism(f"src_{name}", prod, c0, proj.map)
    embed = Morphism(f"embed_{name}", c0, prod, sect.map)
    return Cat1Object(name, embed, src, tgt)


def cat1_to_xmod(c: Cat1Object, name: Optional[str] = None) -> CrossedModule:
    """Crossed module on the source kernel; base acts through the embedding."""
    name = name or f"xmod_{c.name}"
    act = action_from_section(c.src, c.embed, name=f"act_{name}")
    # the acted structure is the kernel of src, in index order
    zero = c.base.zero
    rows = tuple([c.tgt.map[p] for p, v in enumerate(c.src.map) if v == zero])
    return make_xmod(name, Morphism(f"bnd_{name}", act.acted, c.base, rows), act)


def xmod_morphism_to_cat1(
    m: XModMorphism,
    dom_c: Optional[Cat1Object] = None,
    cod_c: Optional[Cat1Object] = None,
) -> Cat1Morphism:
    """Translate a crossed module morphism between the translated objects;
    dom_c and cod_c, when given, are trusted as those translations, unchecked."""
    dom_c = dom_c if dom_c is not None else xmod_to_cat1(m.dom)
    cod_c = cod_c if cod_c is not None else xmod_to_cat1(m.cod)
    dn, cn = m.dom.c0.n, m.cod.c0.n
    big = Morphism(
        f"big_{m.name}",
        dom_c.big,
        cod_c.big,
        tuple([m.top.map[k // dn] * cn + m.bottom.map[k % dn] for k in range(dom_c.big.n)]),
    )
    base = Morphism(m.bottom.name, dom_c.base, cod_c.base, m.bottom.map)
    return Cat1Morphism(f"cat1_{m.name}", dom_c, cod_c, big, base)


def _big_search(dom: Cat1Object, cod: Cat1Object, bases, name, keep=None):
    """Morphisms over the base maps, base-major, named name(k): under psi,
    the square laws at a big generator g pin embed(q) to embed(psi q) and
    any g to the y over psi(src g) and psi(tgt g), where keep(g, y) holds."""
    d_src, d_tgt, c_src, c_tgt = dom.src.map, dom.tgt.map, cod.src.map, cod.tgt.map
    embedded = {g: q for q, g in enumerate(dom.embed.map)}

    def pin(psi, g, ys):
        ys = [cod.embed.map[psi[embedded[g]]]] if g in embedded else ys
        return [
            y for y in ys if c_src[y] == psi[d_src[g]] and c_tgt[y] == psi[d_tgt[g]]
            and (keep is None or keep(g, y))
        ]

    holds = law_filter(*_square_env(dom, cod), "psi", "phi")
    pairs = _pinned_pairs(dom.big, cod.big, bases, pin, holds)
    return [
        Cat1Morphism(name(k), dom, cod, Morphism(f"big_{name(k)}", dom.big, cod.big, big), base)
        for k, (base, big) in enumerate(pairs)
    ]


def enumerate_cat1_morphisms(
    dom: Cat1Object, cod: Cat1Object, max_size: int = DEFAULT_MAX_SIZE
) -> list[Cat1Morphism]:
    """All (big, base) morphism pairs, base-major, that pass the squares."""
    return _level_homs(dom, cod, _big_search, "c1m", max_size)


def find_cat1_isomorphism(
    a: Cat1Object, b: Cat1Object, max_size: int = DEFAULT_MAX_SIZE
) -> Optional[Cat1Morphism]:
    """First morphism, base-major, that is bijective at both levels, or None."""
    return _level_iso(a, b, _big_search, max_size)

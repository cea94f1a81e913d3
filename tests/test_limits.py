"""Product, fiber product, and equalizer on plain structures.

Expected carriers and tables come from the pair-arithmetic oracles below,
built directly from modular arithmetic rather than from the library.
"""

import pytest

from xmodkit.errors import StructuralError
from xmodkit.limits import direct_product, equalizer, fiber_product
from xmodkit.morphisms import (
    compose,
    enumerate_morphisms,
    find_isomorphism,
    is_morphism,
)
from xmodkit.structures import restricted_product, verify_structure

from conftest import hom, oracle_cyclic, oracle_poly


def test_product_carrier_and_ids(z2, z3):
    p, pa, pb = direct_product(z2, z3)
    assert p.n == 6
    assert p.elements == ("(0,0)", "(0,1)", "(0,2)", "(1,0)", "(1,1)", "(1,2)")
    assert pa.map == (0, 0, 0, 1, 1, 1)
    assert pb.map == (0, 1, 2, 0, 1, 2)
    assert verify_structure(p).ok
    assert is_morphism(pa) and is_morphism(pb)


def test_product_tables_match_pair_arithmetic(z2, z3):
    p, _, _ = direct_product(z2, z3)
    # oracle: index (i, j) -> 3 * i + j, componentwise mod arithmetic
    for i1 in range(2):
        for j1 in range(3):
            for i2 in range(2):
                for j2 in range(3):
                    x = 3 * i1 + j1
                    y = 3 * i2 + j2
                    assert p.add[x][y] == 3 * ((i1 + i2) % 2) + ((j1 + j2) % 3)
    for i in range(2):
        for j in range(3):
            assert p.neg[3 * i + j] == 3 * ((-i) % 2) + ((-j) % 3)
    # three coordinates, the (outer, middle, outer) carrier of a pulled-back
    # split object: triples of z2 x z3 x z2 whose outer coordinates agree
    keep = [(i, j, k) for i in range(2) for j in range(3) for k in range(2) if i == k]
    t = restricted_product("t", (z2, z3, z2), keep)
    assert t.elements[keep.index((1, 2, 1))] == "(1,2,1)"
    for x, (i1, j1, k1) in enumerate(keep):
        assert t.neg[x] == keep.index(((-i1) % 2, (-j1) % 3, (-k1) % 2))
        for y, (i2, j2, k2) in enumerate(keep):
            assert t.add[x][y] == keep.index(((i1 + i2) % 2, (j1 + j2) % 3, (k1 + k2) % 2))


def test_product_is_cyclic_when_coprime(z2, z3):
    p, _, _ = direct_product(z2, z3)
    assert find_isomorphism(p, oracle_cyclic(6, "z6")) is not None


def test_product_of_algebras_keeps_profile(f2x):
    p, pa, pb = direct_product(f2x, f2x)
    assert p.profile.name == "comm-algebra-f2"
    assert p.n == 16
    rep = verify_structure(p)
    assert rep.ok, rep.render()
    assert is_morphism(pa) and is_morphism(pb)


def test_product_universal_property_small(z2, z4):
    p, pa, pb = direct_product(z4, z2)
    into_a = enumerate_morphisms(z2, z4)
    into_b = enumerate_morphisms(z2, z2)
    into_p = enumerate_morphisms(z2, p)
    assert len(into_p) == len(into_a) * len(into_b)
    for u in into_a:
        for v in into_b:
            hits = [
                w
                for w in into_p
                if compose(pa, w).map == u.map and compose(pb, w).map == v.map
            ]
            assert len(hits) == 1


def test_product_profile_mismatch_rejected(z2, f2x):
    with pytest.raises(StructuralError):
        direct_product(z2, f2x)


def test_fiber_product_mod2(z2, z4):
    alpha = hom("mod2", z4, z2, (0, 1, 0, 1))
    beta = hom("idz2", z2, z2, (0, 1))
    fp, pa, pb = fiber_product(alpha, beta)
    assert fp.elements == ("(0,0)", "(1,1)", "(2,0)", "(3,1)")
    assert pa.map == (0, 1, 2, 3)
    assert pb.map == (0, 1, 0, 1)
    assert verify_structure(fp).ok
    assert is_morphism(pa) and is_morphism(pb)
    assert find_isomorphism(fp, z4) is not None
    # mediating square really commutes
    assert compose(alpha, pa).map == compose(beta, pb).map


def test_fiber_product_against_zero_leg_is_kernel(z2, z4):
    alpha = hom("mod2", z4, z2, (0, 1, 0, 1))
    one = oracle_cyclic(1, "z1")
    beta = hom("z0", one, z2, (0,))
    fp, pa, _ = fiber_product(alpha, beta)
    assert fp.elements == ("(0,0)", "(2,0)")
    assert [z4.elements[i] for i in pa.map] == ["0", "2"]
    assert find_isomorphism(fp, z2) is not None


def test_fiber_product_requires_common_codomain(z2, z3, z4):
    alpha = hom("mod2", z4, z2, (0, 1, 0, 1))
    beta = hom("z3id", z3, z3, (0, 1, 2))
    with pytest.raises(StructuralError):
        fiber_product(alpha, beta)


def test_fiber_product_of_algebra_maps():
    f2x = oracle_poly(2, "f2x")
    ident = hom("i", f2x, f2x, (0, 1, 2, 3))
    zero = hom("z", f2x, f2x, (0, 0, 0, 0))
    fp, _, pb = fiber_product(ident, zero)
    # first coordinate pinned to 0, second free
    assert fp.elements == ("(0,0)", "(0,1)", "(0,x)", "(0,1+x)")
    assert fp.profile.name == "comm-algebra-f2"
    assert verify_structure(fp).ok
    assert find_isomorphism(fp, f2x) is not None
    assert pb.map == (0, 1, 2, 3)


def test_equalizer_of_identity_and_negation(z4):
    ident = hom("i", z4, z4, (0, 1, 2, 3))
    neg = hom("m", z4, z4, (0, 3, 2, 1))
    eq = equalizer(ident, neg)
    assert eq.elements == (0, 2)
    assert [z4.elements[i] for i in eq.elements] == ["0", "2"]
    assert verify_structure(eq.induced).ok
    assert is_morphism(eq.embed)


def test_equalizer_of_equal_maps_is_everything(z4):
    ident = hom("i", z4, z4, (0, 1, 2, 3))
    eq = equalizer(ident, ident)
    assert eq.elements == (0, 1, 2, 3)


def test_equalizer_requires_parallel_pair(z2, z4):
    f = hom("mod2", z4, z2, (0, 1, 0, 1))
    g = hom("i", z4, z4, (0, 1, 2, 3))
    with pytest.raises(StructuralError):
        equalizer(f, g)


def test_equalizer_universal_property_small(z2, z4):
    ident = hom("i", z4, z4, (0, 1, 2, 3))
    neg = hom("m", z4, z4, (0, 3, 2, 1))
    eq = equalizer(ident, neg)
    # any map that equalizes the pair factors uniquely through the embed
    for u in enumerate_morphisms(z2, z4):
        equalizes = compose(ident, u).map == compose(neg, u).map
        hits = [
            w
            for w in enumerate_morphisms(z2, eq.induced)
            if compose(eq.embed, w).map == u.map
        ]
        assert len(hits) == (1 if equalizes else 0)

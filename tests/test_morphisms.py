"""Morphism checks, kernels, ideals, enumeration, isomorphism search."""

import pytest

from conftest import brute_force_morphisms, hom, oracle_cyclic, oracle_poly, oracle_s3
from xmodkit.errors import SizeGuardError, StructuralError
from xmodkit.morphisms import (
    compose,
    element_order,
    enumerate_morphisms,
    find_isomorphism,
    identity_morphism,
    ideal_report,
    is_ideal,
    is_morphism,
    kernel,
    morphism_report,
)
from xmodkit.structures import subobject


def test_doubling_map_is_morphism(z2, z4):
    f = hom("phi", z2, z4, (0, 2))
    rep = morphism_report(f)
    assert rep.ok
    assert is_morphism(f)


def test_bad_map_fails_with_witness(z2, z4):
    f = hom("bad", z2, z4, (0, 1))  # 1+1 must land on 2*1=... 1+1=2 != map(0)=0
    rep = morphism_report(f)
    assert not rep.ok
    assert rep.failures()[0].law == "hom-add"


def test_zero_preservation_item(z2, z4):
    f = hom("nz", z2, z4, (1, 3))
    rep = morphism_report(f)
    assert any(i.law == "hom-zero" and not i.ok for i in rep.items)


def test_profile_mismatch_rejected(z4, f2x):
    with pytest.raises(StructuralError):
        morphism_report(hom("m", z4, f2x, (0, 0, 0, 0)))


def test_arity_mismatch_rejected(z2, z4):
    with pytest.raises(StructuralError):
        morphism_report(hom("m", z2, z4, (0, 2, 0)))


def test_algebra_morphism_checks_star_and_unary(f2x):
    assert is_morphism(identity_morphism(f2x))
    # additive-only map x -> 1 is not multiplicative: swaps x and 1
    swap = hom("sw", f2x, f2x, (0, 2, 1, 3))
    rep = morphism_report(swap)
    assert not rep.ok
    assert any(i.law == "hom-star[mul]" and not i.ok for i in rep.items)


def test_compose_and_identity(z2, z4):
    f = hom("phi", z2, z4, (0, 2))
    assert compose(identity_morphism(z4), f).map == (0, 2)
    assert compose(f, identity_morphism(z2)).map == (0, 2)


def test_element_orders(z4):
    assert [element_order(z4, i) for i in range(4)] == [1, 4, 2, 4]


def test_kernel_of_mod2(z4, z2):
    f = hom("mod2", z4, z2, (0, 1, 0, 1))
    k = kernel(f)
    assert k.elements == (0, 2)
    assert k.induced.add == ((0, 1), (1, 0))


def test_kernel_requires_morphism(z4, z2):
    with pytest.raises(StructuralError):
        kernel(hom("junk", z4, z2, (0, 0, 1, 0)))


def test_ideal_normal_subgroup(s3):
    n = subobject(s3, (0, 1, 2))  # rotations
    assert is_ideal(n)
    t = subobject(s3, (0, 3))  # a transposition generates a non-normal copy of Z2
    rep = ideal_report(t)
    assert not rep.ok
    assert rep.failures()[0].law == "ideal-conj"


def test_ideal_in_algebra(f2x):
    ix = subobject(f2x, (0, 2))  # {0, x}
    assert is_ideal(ix)
    one = subobject(f2x, (0, 1))  # {0, 1} is a subalgebra but not an ideal
    rep = ideal_report(one)
    assert not rep.ok
    assert any(i.law.startswith("ideal-star") for i in rep.failures())


@pytest.mark.parametrize(
    "na,nb,count",
    [(2, 2, 2), (3, 2, 1), (4, 4, 4), (4, 2, 2), (2, 4, 2), (1, 4, 1), (6, 4, 2)],
)
def test_hom_counts_match_brute_force(na, nb, count):
    a, b = oracle_cyclic(na), oracle_cyclic(nb)
    found = enumerate_morphisms(a, b)
    assert len(found) == count
    assert [f.map for f in found] == brute_force_morphisms(a, b)


def test_enumerate_s3_and_algebras():
    s3 = oracle_s3()
    z2 = oracle_cyclic(2)
    found = enumerate_morphisms(s3, z2)
    assert [f.map for f in found] == brute_force_morphisms(s3, z2)
    assert len(found) == 2  # trivial and sign
    f2x = oracle_poly(2)
    found = enumerate_morphisms(f2x, f2x)
    assert [f.map for f in found] == brute_force_morphisms(f2x, f2x)
    for f in found:
        assert is_morphism(f)


def test_enumerate_deterministic_order(z4):
    maps1 = [f.map for f in enumerate_morphisms(z4, z4)]
    maps2 = [f.map for f in enumerate_morphisms(z4, z4)]
    assert maps1 == maps2 == sorted(maps1)


def test_enumerate_size_guard(z4):
    big = oracle_cyclic(13)
    with pytest.raises(SizeGuardError):
        enumerate_morphisms(big, z4)
    assert enumerate_morphisms(big, z4, max_size=13)


def test_find_isomorphism_z4_relabelled(z4):
    relabel = oracle_cyclic(4, name="w4")
    iso = find_isomorphism(z4, relabel)
    assert iso is not None
    assert sorted(iso.map) == [0, 1, 2, 3]
    assert is_morphism(iso)
    inv = [0] * 4
    for i, v in enumerate(iso.map):
        inv[v] = i
    assert is_morphism(hom("inv", relabel, z4, inv))


def test_find_isomorphism_none_for_klein(z4):
    klein_add = ((0, 1, 2, 3), (1, 0, 3, 2), (2, 3, 0, 1), (3, 2, 1, 0))
    from xmodkit.profiles import get_profile
    from xmodkit.structures import make_structure

    klein = make_structure(
        "v4", get_profile("group"), ("0", "a", "b", "c"), klein_add, (0, 1, 2, 3), {}, {}
    )
    assert find_isomorphism(z4, klein) is None
    assert find_isomorphism(klein, oracle_cyclic(3)) is None


def test_find_isomorphism_refusals(z2, z4):
    from xmodkit.limits import direct_product
    from xmodkit.profiles import get_profile
    from xmodkit.structures import make_structure
    from xmodkit.zoo import make_truncated_poly

    # profiles and sizes are compared before the size guard
    assert find_isomorphism(oracle_poly(2), z4, max_size=1) is None
    # a constant add table has no zero
    flat = make_structure(
        "flat", get_profile("group"), ("a", "b"), ((0, 0), (0, 0)), (0, 0), {}, {}
    )
    assert flat.zero is None
    assert find_isomorphism(flat, z2) is None
    assert find_isomorphism(z2, flat) is None
    # both additive groups are Z2 x Z2, but only F2 x F2 has a unit that is not 1
    f2 = make_truncated_poly(2, k=1, name="f2")
    f2x, f2f2 = make_truncated_poly(2), direct_product(f2, f2)[0]
    orders = [sorted(element_order(s, i) for i in range(4)) for s in (f2x, f2f2)]
    assert orders[0] == orders[1]
    homs = enumerate_morphisms(f2x, f2f2)
    assert homs and not any(sorted(f.map) == [0, 1, 2, 3] for f in homs)
    assert find_isomorphism(f2x, f2f2) is None
    with pytest.raises(SizeGuardError) as err:
        find_isomorphism(oracle_cyclic(5), oracle_cyclic(5, "w5"), max_size=4)
    assert str(err.value) == "find_isomorphism: carrier 5 exceeds guard 4"

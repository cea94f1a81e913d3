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
    is_morphism,
    kernel,
    morphism_report,
)
from xmodkit.structures import make_structure, subobject


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


def test_compose_meets_at_equal_carriers(z2):
    # a renamed copy of a carrier is the same carrier: the name does not count
    z4, w4 = oracle_cyclic(4, "z4"), oracle_cyclic(4, "w4")
    mod2, double = hom("mod2", w4, z2, (0, 1, 0, 1)), hom("double", z2, z4, (0, 2))
    assert compose(mod2, double).map == (0, 0)
    assert compose(mod2, double).dom is z2
    with pytest.raises(StructuralError) as err:
        compose(double, double)
    assert str(err.value) == "cannot compose double after double: endpoint mismatch"


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
    assert ideal_report(n).ok
    t = subobject(s3, (0, 3))  # a transposition generates a non-normal copy of Z2
    rep = ideal_report(t)
    assert not rep.ok
    assert rep.failures()[0].law == "ideal-conj"


def test_ideal_in_algebra(f2x):
    ix = subobject(f2x, (0, 2))  # {0, x}
    assert ideal_report(ix).ok
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


def _backtrack_homs(a, b):
    """Oracle: every morphism a -> b, by backtracking over a's elements in
    index order. An element that is the sum of two smaller ones takes that
    sum's image, any other tries every element of b; each partial map is
    checked on the table entries whose arguments and value it has reached."""
    due = [[] for _ in range(a.n)]
    tables = [(a.add, b.add)] + [(a.star[s], b.star[s]) for s in a.profile.binary_symbols()]
    for ta, tb in tables:
        for x in range(a.n):
            for y in range(a.n):
                due[max(x, y, ta[x][y])].append((ta[x][y], tb, x, y))
    for sym in a.profile.unary_symbols():
        ua, ub = a.omega[sym], b.omega[sym]
        for x in range(a.n):
            due[max(x, ua[x])].append((ua[x], ub, x, None))
    sums = {}
    for x in range(a.n):
        for y in range(a.n):
            if max(x, y) < a.add[x][y]:
                sums.setdefault(a.add[x][y], (x, y))
    found, f = [], [0] * a.n

    def holds(z, tb, x, y):
        return f[z] == (tb[f[x]] if y is None else tb[f[x]][f[y]])

    def walk(i):
        if i == a.n:
            found.append(tuple(f))
            return
        x, y = sums.get(i, (None, None))
        for v in range(b.n) if x is None else [b.add[f[x]][f[y]]]:
            f[i] = v
            if (i != a.zero or v == b.zero) and all(holds(*d) for d in due[i]):
                walk(i + 1)

    walk(0)
    return sorted(found)


def _reversed(s):
    """s with its elements listed backwards, so its zero comes last."""

    def r1(t):
        return tuple([s.n - 1 - v for v in reversed(t)])

    def r2(t):
        return tuple([r1(row) for row in reversed(t)])

    return make_structure(
        f"{s.name}_rev", s.profile, s.elements[::-1], r2(s.add), r1(s.neg),
        {sym: r2(t) for sym, t in s.star.items()}, {sym: r1(t) for sym, t in s.omega.items()},
    )


def test_search_order_and_least_isomorphism_match_the_oracle():
    """enumerate_morphisms lists the sorted oracle Hom set without sorting,
    and find_isomorphism is its least bijection, over every same-profile
    pair of the zoo structures up to 16 elements (zero last in two of them)."""
    from fail_corpus import zoo_structures
    from xmodkit.zoo import make_cyclic, make_symmetric3, make_truncated_poly

    f2x3, f2x4 = make_truncated_poly(2, 3), make_truncated_poly(2, 4)
    zoo = zoo_structures() + [make_cyclic(n) for n in (3, 8, 12, 16)] + [f2x3, f2x4]
    zoo += [_reversed(make_symmetric3()), _reversed(f2x3)]
    pairs = [(a, b) for a in zoo for b in zoo if a.profile.name == b.profile.name]
    isos = 0
    for a, b in pairs:
        found = [f.map for f in enumerate_morphisms(a, b, max_size=16)]
        assert found == _backtrack_homs(a, b), (a.name, b.name)
        least = next((m for m in found if len(m) == len(set(m)) == b.n), None)
        iso = find_isomorphism(a, b, max_size=16)
        assert (None if iso is None else iso.map) == least, (a.name, b.name)
        isos += least is not None
    assert (len(pairs), isos) == (85, 21)

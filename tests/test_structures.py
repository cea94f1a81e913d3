"""Structure verification tests.

Oracles: modular arithmetic and truncated-polynomial arithmetic are
recomputed inline (independent of the zoo constructors) and frozen
expectations are asserted against them.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xmodkit.errors import ClosureError, StructuralError
from xmodkit.profiles import get_profile
from xmodkit.records import replace
from xmodkit.structures import (
    evaluate_law,
    make_structure,
    restricted_product,
    structure_laws,
    subobject,
    verify_structure,
)


def cyclic(n, name=None):
    add = tuple(tuple((i + j) % n for j in range(n)) for i in range(n))
    neg = tuple((-i) % n for i in range(n))
    return make_structure(
        name or f"z{n}", get_profile("group"), tuple(str(i) for i in range(n)), add, neg, {}, {}
    )


def poly_f2():
    # independent oracle for F2[x]/(x^2): elements a0 + a1 x as (a0, a1)
    elems = [(0, 0), (1, 0), (0, 1), (1, 1)]
    ids = ("0", "1", "x", "1+x")
    idx = {e: i for i, e in enumerate(elems)}
    add = tuple(
        tuple(idx[((a0 + b0) % 2, (a1 + b1) % 2)] for (b0, b1) in elems) for (a0, a1) in elems
    )
    neg = tuple(idx[((-a0) % 2, (-a1) % 2)] for (a0, a1) in elems)
    mul = tuple(
        tuple(idx[((a0 * b0) % 2, (a0 * b1 + a1 * b0) % 2)] for (b0, b1) in elems)
        for (a0, a1) in elems
    )
    s0 = tuple(idx[(0, 0)] for _ in elems)
    s1 = tuple(range(4))
    return make_structure(
        "f2x", get_profile("comm-algebra-f2"), ids, add, neg, {"mul": mul}, {"s0": s0, "s1": s1}
    )


def test_z4_passes():
    rep = verify_structure(cyclic(4))
    assert rep.ok
    laws = [i.law for i in rep.items]
    # group profile: exactly the group laws
    assert laws == [
        "add-zero-exists",
        "add-assoc",
        "add-zero-left",
        "add-zero-right",
        "add-neg-right",
        "add-neg-left",
    ]


def test_z1_single_element_passes():
    assert verify_structure(cyclic(1)).ok


def test_z4_bad_entry_fails_with_genuine_witness():
    z4 = cyclic(4)
    add = [list(r) for r in z4.add]
    add[1][1] = 1  # spec example: add(1,1) = 1
    bad = replace(z4, add=tuple(tuple(r) for r in add))
    rep = verify_structure(bad)
    assert not rep.ok
    for item in rep.failures():
        assert not evaluate_law(bad, item.law, item.witness)
    assert {f.law for f in rep.failures()} & {"add-assoc", "add-neg-right", "add-neg-left"}


def test_no_identity_element_reported():
    # constant add table has no two-sided identity
    add = tuple(tuple(0 for _ in range(3)) for _ in range(3))
    s = make_structure("junk", get_profile("group"), ("0", "1", "2"), add, (0, 0, 0), {}, {})
    assert s.zero is None
    rep = verify_structure(s)
    assert [i.law for i in rep.items] == ["add-zero-exists"]
    assert not rep.ok
    assert not evaluate_law(s, "add-zero-exists", ())


def test_no_law_holds_without_a_zero():
    # every law but add-zero-exists is stated over a structure with a zero
    add = tuple(tuple(0 for _ in range(3)) for _ in range(3))
    s = make_structure("junk", get_profile("group"), ("0", "1", "2"), add, (0, 0, 0), {}, {})
    assert s.zero is None
    assert evaluate_law(s, "add-assoc", ("0", "1", "2")) is False


def test_f2x_passes_all_laws():
    rep = verify_structure(poly_f2())
    assert rep.ok
    laws = [i.law for i in rep.items]
    for expected in [
        "distrib[mul]",
        "unary-add[s0]",
        "unary-star[s0,mul]",
        "unary-star[s1,mul]",
        "central[mul]",
        "opposite[mul]",
        "id[add-comm]",
        "id[mul-assoc]",
        "id[scalar-s0]",
        "id[scalar-s1]",
    ]:
        assert expected in laws


def test_commutativity_is_opposite_coherence():
    s = poly_f2()
    mul = [list(r) for r in s.star["mul"]]
    mul[1][2] = 0  # break symmetry: 1*x = 0 but x*1 = x
    bad = replace(s, star={"mul": tuple(tuple(r) for r in mul)})
    rep = verify_structure(bad)
    assert not rep.ok
    assert any(f.law == "opposite[mul]" for f in rep.failures())


def test_unary_table_perturbation_caught():
    s = poly_f2()
    s1 = list(s.omega["s1"])
    s1[2] = 0  # s1 must stay the identity map
    bad = replace(s, omega={"s0": s.omega["s0"], "s1": tuple(s1)})
    rep = verify_structure(bad)
    assert not rep.ok
    for item in rep.failures():
        assert not evaluate_law(bad, item.law, item.witness)


def test_core_only_excludes_extra_identities():
    # zero multiplication on a nonabelian group: every core law holds but
    # the commutative-algebra extra identity add-comm fails

    perms = [(0, 1, 2), (1, 2, 0), (2, 0, 1), (1, 0, 2), (2, 1, 0), (0, 2, 1)]
    idx = {p: i for i, p in enumerate(perms)}
    compose = lambda p, q: tuple(p[q[i]] for i in range(3))  # noqa: E731
    add = tuple(tuple(idx[compose(p, q)] for q in perms) for p in perms)
    inv = tuple(idx[tuple(sorted(range(3), key=lambda i: p[i]))] for p in perms)
    zero_t = tuple(tuple(0 for _ in perms) for _ in perms)
    s = make_structure(
        "weird",
        get_profile("comm-algebra-f2"),
        tuple(f"p{i}" for i in range(6)),
        add,
        inv,
        {"mul": zero_t},
        {"s0": tuple(0 for _ in perms), "s1": tuple(range(6))},
    )
    rep = verify_structure(s)
    assert all(item.ok for item in rep.items if not item.law.startswith("id["))
    assert not rep.ok
    assert {f.law for f in rep.failures()} == {"id[add-comm]"}


def test_structural_errors():
    z4 = cyclic(4)
    with pytest.raises(StructuralError):
        make_structure("bad", get_profile("group"), ("0", "1"), ((0,), (1, 0)), (0, 1), {}, {})
    with pytest.raises(StructuralError):
        make_structure("bad", get_profile("group"), ("0", "0"), z4.add, z4.neg, {}, {})
    with pytest.raises(StructuralError):  # missing star table for profile
        make_structure("bad", get_profile("comm-algebra-f2"), z4.elements, z4.add, z4.neg, {}, {})
    with pytest.raises(StructuralError):  # out-of-range index
        make_structure(
            "bad", get_profile("group"), ("0", "1"), ((0, 1), (1, 9)), (0, 1), {}, {}
        )


def test_subobject_closed():
    z4 = cyclic(4)
    sub = subobject(z4, (0, 2), name="two_torsion")
    assert sub.elements == (0, 2)
    assert sub.induced.elements == ("0", "2")
    assert verify_structure(sub.induced).ok
    assert sub.embed.map == (0, 2)
    # oracle: induced table is Z2 in disguise
    assert sub.induced.add == ((0, 1), (1, 0))


def test_subobject_not_closed():
    z4 = cyclic(4)
    with pytest.raises(ClosureError, match=r"^z4\.sub: not closed under add at \(1, 1\) -> 2$"):
        subobject(z4, (0, 1))
    # two coordinates, the carrier shape of products and fiber products
    with pytest.raises(
        ClosureError, match=r"^pairs: not closed under add at \(\(1,2\), \(1,2\)\) -> \(2,0\)$"
    ):
        restricted_product("pairs", (z4, z4), [(0, 0), (1, 2)])


def test_opposite_tables_autogenerated():
    # lie bracket over F3, one-dimensional abelian case: bracket = 0
    p = get_profile("lie-f3")
    zero_t = ((0,),)
    s = make_structure("triv", p, ("0",), ((0,),), (0,), {"bracket": zero_t}, {f"s{k}": (0,) for k in range(3)})
    assert s.star["bracketop"] == zero_t
    assert verify_structure(s).ok


@settings(max_examples=60, deadline=None)
@given(
    which=st.sampled_from(["add", "neg"]),
    i=st.integers(0, 3),
    j=st.integers(0, 3),
    v=st.integers(0, 3),
)
def test_z4_perturbations_fail_honestly(which, i, j, v):
    z4 = cyclic(4)
    if which == "add":
        tab = [list(r) for r in z4.add]
        if tab[i][j] == v:
            return
        tab[i][j] = v
        bad = replace(z4, add=tuple(tuple(r) for r in tab))
    else:
        tab = list(z4.neg)
        if tab[i] == v:
            return
        tab[i] = v
        bad = replace(z4, neg=tuple(tab))
    rep = verify_structure(bad)
    for item in rep.failures():
        assert not evaluate_law(bad, item.law, item.witness)
    if not rep.ok:
        return
    # a passing perturbation must itself be a lawful structure; re-verify agrees
    assert verify_structure(bad).ok


def test_laws_are_deterministic():
    p = get_profile("comm-algebra-f3")
    a = [l.name for l in structure_laws(p)]
    b = [l.name for l in structure_laws(p)]
    assert a == b

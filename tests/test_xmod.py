"""Crossed modules: verification, slice constructions, and universality.

Oracles: the two compatibility families are recomputed by hand at the
reported witnesses; small carriers make every universal-property claim
checkable by exhaustive morphism search (the enumerator itself is
validated against brute force in its own test module).
"""

import pytest

from xmodkit.actions import make_action, trivial_action
from xmodkit.cat1 import make_cat1, xmod_to_cat1
from xmodkit.errors import ClosureError, IncompatibleActionError, StructuralError
from xmodkit.morphisms import identity_morphism, is_morphism
from xmodkit.pullbacks import pullback_cat1, pullback_xmod
from xmodkit.structures import Morphism, subobject
from xmodkit.xmod import (
    XModMorphism,
    compose_xmod,
    compose_xmod_morphisms,
    enumerate_slice_morphisms,
    enumerate_xmod_morphisms,
    find_xmod_isomorphism,
    inclusion_xmod,
    induced_xmod,
    make_xmod,
    slice_initial,
    slice_product,
    slice_pullback,
    slice_terminal,
    verify_universal_cone,
    verify_xmod,
    verify_xmod_morphism,
    xmod_equalizer,
    xmod_fiber_product,
    xmod_identity,
)

from conftest import brute_force_morphisms, oracle_cyclic, oracle_poly, oracle_s3


def xm_z2_z4():
    z2, z4 = oracle_cyclic(2, "z2"), oracle_cyclic(4, "z4")
    bnd = Morphism("double", z2, z4, (0, 2))
    return make_xmod("z2_into_z4", bnd, trivial_action(z4, z2))


def test_abelian_xmod_passes():
    rep = verify_xmod(xm_z2_z4())
    assert [i.law for i in rep.items] == [
        "pre:c1",
        "pre:c0",
        "pre:boundary",
        "pre:action",
        "xm1-dot",
        "xm2-dot",
    ]
    assert rep.ok, rep.render()


def test_conjugation_inclusion_passes():
    s3 = oracle_s3()
    xm = inclusion_xmod(s3, (0, 1, 2))
    assert xm.boundary.map == (0, 1, 2)
    assert verify_xmod(xm).ok


def test_algebra_inclusion_passes_with_star_items():
    f2x = oracle_poly(2, "f2x")
    xm = inclusion_xmod(f2x, (0, 2))
    rep = verify_xmod(xm)
    assert rep.ok, rep.render()
    laws = [i.law for i in rep.items]
    assert "xm1-star[mul]" in laws and "xm2-star[mul]" in laws


def test_inclusion_requires_ideal():
    s3 = oracle_s3()
    with pytest.raises(ClosureError, match="not closed under dot"):
        inclusion_xmod(s3, (0, 3))
    # an action that ignores the boundary leaves every pair carrier
    bad = make_xmod("bad", identity_morphism(s3), trivial_action(s3, s3))
    with pytest.raises(ClosureError, match="^diag_c1_fib_bad_term_s3: not closed under dot"):
        xmod_fiber_product(bad, slice_terminal(s3))
    with pytest.raises(ClosureError, match="^act_pb_bad_id_s3: not closed under dot"):
        pullback_xmod(bad, identity_morphism(s3))
    # bottoms that disagree on a boundary value
    xm = xm_z2_z4()
    z4 = xm.c0
    zero = Morphism("zero", z4, z4, (0, 0, 0, 0))
    g = XModMorphism("g", xm, xm, identity_morphism(xm.c1), zero)
    with pytest.raises(ClosureError, match=r"not closed under boundary at \(1\) -> 2$"):
        xmod_equalizer(xmod_identity(xm), g)
    # a source leg that is not additive breaks the triples of a split object
    c = xmod_to_cat1(xm)
    src = Morphism("src", c.big, z4, tuple((k + k // 4) % 4 for k in range(8)))
    skew = make_cat1("skew", c.embed, src, c.tgt)
    with pytest.raises(ClosureError, match="^big_pb_skew_id_z4: not closed under add"):
        pullback_cat1(skew, identity_morphism(z4))


def test_peiffer_failure_detected():
    s3, z1 = oracle_s3(), oracle_cyclic(1, "z1")
    bnd = Morphism("crush", s3, z1, (0,) * 6)
    xm = make_xmod("bad", bnd, trivial_action(z1, s3))
    rep = verify_xmod(xm)
    assert {i.law for i in rep.failures()} == {"xm2-dot"}
    item = rep.failures()[0]
    x, y = (s3.index(w) for w in item.witness)
    assert xm.action.dot[bnd.map[x]][y] != s3.conj(x, y)


def test_equivariance_failure_detected():
    s3, z3 = oracle_s3(), oracle_cyclic(3, "z3")
    bnd = Morphism("rot", z3, s3, (0, 1, 2))
    xm = make_xmod("bad", bnd, trivial_action(s3, z3))
    rep = verify_xmod(xm)
    assert {i.law for i in rep.failures()} == {"xm1-dot"}
    item = rep.failures()[0]
    b, x = s3.index(item.witness[0]), z3.index(item.witness[1])
    assert bnd.map[xm.action.dot[b][x]] != s3.conj(b, bnd.map[x])


def test_star_equivariance_failure_detected():
    f2x = oracle_poly(2, "f2x")
    sub = subobject(f2x, (0, 2), name="xideal")
    act = trivial_action(f2x, sub.induced)
    xm = make_xmod("bad", sub.embed, act)
    rep = verify_xmod(xm)
    assert {i.law for i in rep.failures()} == {"xm1-star[mul]"}
    item = rep.failures()[0]
    assert item.witness == ("1", "x")


def test_xmod_morphism_to_terminal():
    z4 = oracle_cyclic(4, "z4")
    xm = xm_z2_z4()
    term = slice_terminal(z4)
    m = XModMorphism("to_term", xm, term, xm.boundary, identity_morphism(z4))
    rep = verify_xmod_morphism(m)
    assert [i.law for i in rep.items] == [
        "pre:top",
        "pre:bottom",
        "square",
        "equivariant-dot",
    ]
    assert rep.ok, rep.render()


def test_xmod_morphism_square_failure():
    s3 = oracle_s3()
    xm = inclusion_xmod(s3, (0, 1, 2))
    term = slice_terminal(s3)
    twist = Morphism("c_s", s3, s3, tuple(s3.conj(3, i) for i in range(6)))
    assert is_morphism(twist)
    m = XModMorphism("skew", xm, term, xm.boundary, twist)
    rep = verify_xmod_morphism(m)
    assert not rep.ok
    assert "square" in {i.law for i in rep.failures()}
    item = [i for i in rep.failures() if i.law == "square"][0]
    x = xm.c1.index(item.witness[0])
    assert twist.map[xm.boundary.map[x]] != term.boundary.map[xm.boundary.map[x]]


def test_xmod_morphism_endpoints_must_match():
    z4 = oracle_cyclic(4, "z4")
    xm, term, ident = xm_z2_z4(), slice_terminal(z4), identity_morphism(z4)
    cases = [
        (XModMorphism("m", xm, term, ident, ident), "morphism m: top endpoints do not match"),
        (XModMorphism("m", xm, term, xm.boundary, identity_morphism(xm.c1)),
         "morphism m: bottom endpoints do not match"),
    ]
    for m, message in cases:
        with pytest.raises(StructuralError) as err:
            verify_xmod_morphism(m)
        assert str(err.value) == message


def test_identity_and_composition_of_xmod_morphisms():
    xm = xm_z2_z4()
    i = xmod_identity(xm)
    assert verify_xmod_morphism(i).ok
    c = compose_xmod_morphisms(i, i)
    assert c.top.map == i.top.map and c.bottom.map == i.bottom.map


def test_fiber_product_with_terminal_recovers_object():
    z4 = oracle_cyclic(4, "z4")
    xm = xm_z2_z4()
    term = slice_terminal(z4)
    fib, p1, p2 = xmod_fiber_product(xm, term)
    assert fib.c1.n == 2
    assert fib.c1.elements == ("(0,0)", "(1,2)")
    assert verify_xmod(fib).ok
    assert verify_xmod_morphism(p1).ok and verify_xmod_morphism(p2).ok
    assert find_xmod_isomorphism(fib, xm) is not None


def test_fiber_product_diagonal_of_terminal():
    z4 = oracle_cyclic(4, "z4")
    term = slice_terminal(z4)
    fib, _, _ = xmod_fiber_product(term, term)
    assert fib.c1.n == 4
    assert verify_xmod(fib).ok


def test_fiber_product_needs_common_base():
    xm = xm_z2_z4()
    s3 = oracle_s3()
    with pytest.raises(StructuralError):
        xmod_fiber_product(xm, slice_terminal(s3))


def test_induced_along_slice_morphism():
    z4 = oracle_cyclic(4, "z4")
    xm = xm_z2_z4()
    term = slice_terminal(z4)
    f = XModMorphism("to_term", xm, term, xm.boundary, identity_morphism(z4))
    ind = induced_xmod(f)
    assert ind.c0 is term.c1
    assert ind.boundary.map == xm.boundary.map
    assert verify_xmod(ind).ok


def test_compose_requires_compatible_actions():
    z2, z4 = oracle_cyclic(2, "z2"), oracle_cyclic(4, "z4")
    xm = xm_z2_z4()
    lower = slice_terminal(z4)
    good = trivial_action(z4, z2)
    comp = compose_xmod(xm, lower, good)
    assert comp.boundary.map == (0, 2)
    assert verify_xmod(comp).ok
    swapped = make_action("swap", z4, z2, ((0, 1), (1, 0), (0, 1), (1, 0)), {})
    with pytest.raises(IncompatibleActionError):
        compose_xmod(xm, lower, swapped)


def test_slice_terminal_and_initial_verify():
    for x in (oracle_cyclic(4, "z4"), oracle_poly(2, "f2x"), oracle_s3()):
        assert verify_xmod(slice_terminal(x)).ok
        ini = slice_initial(x)
        assert ini.c1.n == 1
        assert verify_xmod(ini).ok


def test_slice_product_against_terminal():
    z4 = oracle_cyclic(4, "z4")
    xm = xm_z2_z4()
    prod, p1, p2 = slice_product(xm, slice_terminal(z4))
    assert prod.c1.n == 2
    assert verify_xmod(prod).ok
    assert verify_xmod_morphism(p1).ok and verify_xmod_morphism(p2).ok
    assert find_xmod_isomorphism(prod, xm) is not None


def test_slice_product_self_is_diagonal():
    xm = xm_z2_z4()
    prod, _, _ = slice_product(xm, xm)
    # the boundary is injective, so matching boundary values forces p == r
    assert prod.c1.n == 2
    assert verify_xmod(prod).ok


def test_slice_pullback_carrier_and_projections():
    z4 = oracle_cyclic(4, "z4")
    xm = xm_z2_z4()
    term = slice_terminal(z4)
    f = XModMorphism("f", xm, term, xm.boundary, identity_morphism(z4))
    g = xmod_identity(term)
    pb, p1, p2 = slice_pullback(f, g)
    assert pb.c1.n == 2
    assert verify_xmod(pb).ok
    assert verify_xmod_morphism(p1).ok and verify_xmod_morphism(p2).ok


def test_equalizer_of_identity_and_inner_twist():
    s3 = oracle_s3()
    xm = inclusion_xmod(s3, (0, 1, 2))
    ident = xmod_identity(xm)
    top = Morphism("tw1", xm.c1, xm.c1, tuple({0: 0, 1: 2, 2: 1}[i] for i in range(3)))
    bottom = Morphism("tw0", s3, s3, tuple(s3.conj(3, i) for i in range(6)))
    tw = XModMorphism("twist", xm, xm, top, bottom)
    assert verify_xmod_morphism(tw).ok
    eq, incl = xmod_equalizer(ident, tw)
    assert eq.c1.n == 1
    assert eq.c0.elements == ("e", "s")
    assert verify_xmod(eq).ok
    assert verify_xmod_morphism(incl).ok


def test_equalizer_of_negation_both_levels():
    xm = xm_z2_z4()
    ident = xmod_identity(xm)
    neg = XModMorphism(
        "negate",
        xm,
        xm,
        Morphism("n1", xm.c1, xm.c1, tuple(xm.c1.neg)),
        Morphism("n0", xm.c0, xm.c0, tuple(xm.c0.neg)),
    )
    assert verify_xmod_morphism(neg).ok
    eq, _ = xmod_equalizer(ident, neg)
    assert eq.c1.elements == ("0", "1")
    assert eq.c0.elements == ("0", "2")
    assert verify_xmod(eq).ok


def test_enumerate_slice_morphisms_terminal_and_initial():
    z4 = oracle_cyclic(4, "z4")
    xm = xm_z2_z4()
    term, ini = slice_terminal(z4), slice_initial(z4)
    others = [xm, term, ini, inclusion_xmod(z4, (0, 2))]
    for t in others:
        assert len(enumerate_slice_morphisms(t, term)) == 1
        assert len(enumerate_slice_morphisms(ini, t)) == 1


def test_enumerate_xmod_morphisms_matches_brute_force():
    xm = xm_z2_z4()
    found = {
        (m.top.map, m.bottom.map) for m in enumerate_xmod_morphisms(xm, xm)
    }
    expected = set()
    for bot in brute_force_morphisms(xm.c0, xm.c0):
        for top in brute_force_morphisms(xm.c1, xm.c1):
            if any(
                bot[xm.boundary.map[x]] != xm.boundary.map[top[x]] for x in range(2)
            ):
                continue
            # trivial actions make equivariance automatic
            expected.add((top, bot))
    assert found == expected
    assert len(found) == 4


def test_find_xmod_isomorphism_negative_cases():
    xm = xm_z2_z4()
    f2x = oracle_poly(2, "f2x")
    assert find_xmod_isomorphism(xm, inclusion_xmod(f2x, (0, 2))) is None
    z2, z4 = oracle_cyclic(2, "z2"), oracle_cyclic(4, "z4")
    crushed = make_xmod(
        "crushed", Morphism("zero", z2, z4, (0, 0)), trivial_action(z4, z2)
    )
    assert find_xmod_isomorphism(xm, crushed) is None


def test_universal_cone_terminal_initial_product():
    z4 = oracle_cyclic(4, "z4")
    xm = xm_z2_z4()
    term, ini = slice_terminal(z4), slice_initial(z4)
    testers = [xm, ini, term, inclusion_xmod(z4, (0, 2))]
    assert verify_universal_cone("terminal", term, testers=testers).ok
    assert verify_universal_cone("initial", ini, testers=testers).ok
    incl = inclusion_xmod(z4, (0, 2))
    testers.append(incl)
    prod, p1, p2 = slice_product(xm, incl)
    rep = verify_universal_cone("product", prod, legs=(p1, p2), testers=testers)
    assert rep.ok, rep.render()
    # the initial object posing as this product has no mediator from xm
    leg = enumerate_slice_morphisms(ini, xm)[0]
    bad = verify_universal_cone("product", ini, legs=(leg, leg), testers=[xm])
    assert bad.lines()[0] == "FAIL mediator[z2_into_z4] at (0): cone 0 has 0 mediators"
    assert not bad.ok


def test_universal_cone_counts_every_mediator():
    # a zero boundary lets both levels of the product move freely: posed
    # with legs (p1, p1), the diagonal cone (u, u) has one mediator per
    # second component and the off-diagonal cones have none
    z2, z4 = oracle_cyclic(2, "z2"), oracle_cyclic(4, "z4")
    crushed = make_xmod("crushed", Morphism("zero", z2, z4, (0, 0)), trivial_action(z4, z2))
    assert len(enumerate_slice_morphisms(crushed, crushed)) == 2
    prod, p1, p2 = slice_product(crushed, crushed)
    testers = [crushed, slice_initial(z4)]
    good = verify_universal_cone("product", prod, legs=(p1, p2), testers=testers)
    assert [item.detail for item in good.items] == ["cones=4", "cones=1"]
    bad = verify_universal_cone("product", prod, legs=(p1, p1), testers=testers)
    assert bad.render() == (
        "FAIL mediator[crushed] at (0): cone 0 has 2 mediators\n"
        "PASS mediator[init_z4]\n"
        "RESULT FAIL product cone prod_crushed_crushed"
    )


def test_universal_cone_rejects_malformed_requests():
    z4 = oracle_cyclic(4, "z4")
    xm, ini = xm_z2_z4(), slice_initial(z4)
    prod, p1, p2 = slice_product(xm, inclusion_xmod(z4, (0, 2)))
    ident = xmod_identity(xm)
    cases = [
        (("product", prod), {"legs": (p1,)}, "product cone needs two legs"),
        (("pullback", prod), {"legs": (p1, p2)}, "pullback cone needs the two cospan morphisms"),
        (("pullback", prod), {"legs": (p1, p2), "parallel": (ident,)},
         "pullback cone needs the two cospan morphisms"),
        (("equalizer", xm), {"legs": (ident, ident), "parallel": (ident, ident)},
         "equalizer cone needs one inclusion leg"),
        (("equalizer", xm), {"legs": (ident,)}, "equalizer cone needs the parallel morphism pair"),
        (("coproduct", xm), {}, "unknown cone kind 'coproduct'"),
        (("terminal", xm), {"legs": (ident,)}, "terminal cone takes no legs"),
        (("initial", xm), {"legs": (ident,), "parallel": (ident, ident)},
         "initial cone takes no legs"),
        (("terminal", xm), {"parallel": (ident, ident)}, "terminal cone takes no parallel pair"),
        (("product", prod), {"legs": (p1, p2), "parallel": (ident, ident)},
         "product cone takes no parallel pair"),
    ]
    for args, kwargs, message in cases:
        with pytest.raises(StructuralError) as err:
            verify_universal_cone(*args, testers=[ini], **kwargs)
        assert str(err.value) == message
    # legs that start at another object do not meet the candidate
    with pytest.raises(StructuralError, match="product cone: legs and parallel pair do not meet"):
        verify_universal_cone("product", ini, legs=(p1, p2), testers=[ini])
    # an equalizer leg landing off the pair's domain does not meet the pair
    with pytest.raises(StructuralError) as err:
        verify_universal_cone(
            "equalizer", ini, legs=(xmod_identity(ini),), parallel=(ident, ident), testers=[ini]
        )
    assert str(err.value) == "equalizer cone: legs and parallel pair do not meet"


def test_universal_cone_pullback_and_equalizer():
    z4 = oracle_cyclic(4, "z4")
    xm = xm_z2_z4()
    term = slice_terminal(z4)
    f = XModMorphism("f", xm, term, xm.boundary, identity_morphism(z4))
    g = xmod_identity(term)
    pb, p1, p2 = slice_pullback(f, g)
    testers = [xm, slice_initial(z4), term]
    rep = verify_universal_cone(
        "pullback", pb, legs=(p1, p2), testers=testers, parallel=(f, g)
    )
    assert rep.ok, rep.render()

    ident = xmod_identity(xm)
    neg = XModMorphism(
        "negate",
        xm,
        xm,
        Morphism("n1", xm.c1, xm.c1, tuple(xm.c1.neg)),
        Morphism("n0", xm.c0, xm.c0, tuple(xm.c0.neg)),
    )
    eq, incl = xmod_equalizer(ident, neg)
    rep = verify_universal_cone(
        "equalizer", eq, legs=(incl,), testers=testers, parallel=(ident, neg)
    )
    assert rep.ok, rep.render()

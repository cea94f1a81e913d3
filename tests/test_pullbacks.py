"""Base-change of crossed modules and split objects along a morphism.

Frozen carriers and maps are computed by hand from the pairing rules:
crossed module pullbacks pair kernel elements with new-base elements
matching under the boundary, split object pullbacks pick triples whose
outer coordinates hit the source and target of the middle one.
"""

import pytest

from xmodkit.actions import conjugation_action, make_action, trivial_action
from xmodkit.cat1 import (
    Cat1Morphism,
    find_cat1_isomorphism,
    verify_cat1,
    verify_cat1_morphism,
    xmod_morphism_to_cat1,
    xmod_to_cat1,
)
from xmodkit.errors import ClosureError, StructuralError
from xmodkit.morphisms import identity_morphism
from xmodkit.pullbacks import (
    cat1_pullback_mediator,
    cat1_pullback_mediators,
    preimage_xmod,
    pullback_cat1,
    pullback_xmod,
    pullback_xmod_morphism,
    square_commutes,
    xmod_pullback_mediator,
    xmod_pullback_mediators,
)
from xmodkit.structures import Morphism, same_structure
from xmodkit.xmod import (
    XModMorphism,
    find_xmod_isomorphism,
    inclusion_xmod,
    make_xmod,
    slice_terminal,
    verify_xmod,
    verify_xmod_morphism,
    xmod_identity,
)

from conftest import hom, oracle_cyclic, oracle_poly


def xm_whole_z4():
    z4 = oracle_cyclic(4, "z4")
    return make_xmod("whole_z4", identity_morphism(z4), conjugation_action(z4))


def double_into(z4):
    z2 = oracle_cyclic(2, "z2")
    return hom("double", z2, z4, (0, 2))


def test_pullback_of_ideal_inclusion_frozen():
    z4 = oracle_cyclic(4, "z4")
    xm = inclusion_xmod(z4, (0, 2))
    pb, proj = pullback_xmod(xm, double_into(z4))
    assert pb.c1.elements == ("(0,0)", "(2,1)")
    assert pb.boundary.map == (0, 1)
    assert pb.c0.n == 2
    assert verify_xmod(pb).ok
    rep = verify_xmod_morphism(proj)
    assert rep.ok, rep.render()
    assert proj.top.map == (0, 1)
    assert proj.bottom.map == (0, 2)


def test_pullback_along_identity_is_isomorphic():
    z4 = oracle_cyclic(4, "z4")
    xm = inclusion_xmod(z4, (0, 2))
    pb, _ = pullback_xmod(xm, identity_morphism(z4))
    assert pb.c1.n == 2
    assert find_xmod_isomorphism(pb, xm) is not None


def inversion_xmod():
    z3, z2 = oracle_cyclic(3, "z3"), oracle_cyclic(2, "z2")
    act = make_action("inv", z2, z3, ((0, 1, 2), (0, 2, 1)), {})
    return make_xmod("inv_mod", Morphism("zero", z3, z2, (0, 0, 0)), act)


def test_pullback_to_trivial_base_forgets_action():
    xm = inversion_xmod()
    z1 = oracle_cyclic(1, "z1")
    pb, _ = pullback_xmod(xm, Morphism("pt", z1, xm.c0, (0,)))
    assert pb.c1.elements == ("(0,0)", "(1,0)", "(2,0)")
    assert pb.action.dot == ((0, 1, 2),)
    assert verify_xmod(pb).ok


def test_pullback_along_identity_keeps_action():
    xm = inversion_xmod()
    pb, _ = pullback_xmod(xm, identity_morphism(xm.c0))
    assert pb.c1.elements == ("(0,0)", "(1,0)", "(2,0)")
    assert pb.action.dot == ((0, 1, 2), (0, 2, 1))
    assert verify_xmod(pb).ok


def test_pullback_mediator_is_unique():
    z4 = oracle_cyclic(4, "z4")
    xm = xm_whole_z4()
    phi = double_into(z4)
    pb, proj = pullback_xmod(xm, phi)
    assert pb.c1.elements == ("(0,0)", "(2,1)")

    y = inclusion_xmod(phi.dom, (0,))
    f = XModMorphism(
        "corner", y, xm, Morphism("zero", y.c1, z4, (0,)), phi
    )
    assert verify_xmod_morphism(f).ok
    med = xmod_pullback_mediator(pb, proj, f)
    assert verify_xmod_morphism(med).ok
    assert med.bottom.map == (0, 1)
    assert tuple(proj.top.map[v] for v in med.top.map) == f.top.map
    meds = xmod_pullback_mediators(pb, proj, f)
    assert len(meds) == 1 and meds[0].top.map == med.top.map

    self_meds = xmod_pullback_mediators(pb, proj, proj)
    assert len(self_meds) == 1
    assert self_meds[0].top.map == tuple(range(pb.c1.n))


def test_mediator_requires_matching_base_change():
    z4 = oracle_cyclic(4, "z4")
    xm = xm_whole_z4()
    pb, proj = pullback_xmod(xm, double_into(z4))
    bad = XModMorphism(
        "bad",
        inclusion_xmod(z4, (0,)),
        xm,
        Morphism("zero", inclusion_xmod(z4, (0,)).c1, z4, (0,)),
        identity_morphism(z4),
    )
    half = inclusion_xmod(z4, (0, 2), name="half")
    c = base_cat1()
    pc, cproj = pullback_cat1(c, double_into(c.base))
    c_ident = Cat1Morphism("c_id", c, c, identity_morphism(c.big), identity_morphism(c.base))
    c_half = xmod_to_cat1(half)
    c_other = Cat1Morphism(
        "c_other", c_half, c_half, identity_morphism(c_half.big), identity_morphism(c_half.base)
    )
    # flat has the carriers of xm_z2_z4 but the zero boundary
    z2 = oracle_cyclic(2, "z2")
    xm_z2_z4 = make_xmod("xm_z2_z4", hom("double", z2, z4, (0, 2)), trivial_action(z4, z2))
    flat = make_xmod("flat", hom("zero", z2, z4, (0, 0)), trivial_action(z4, z2))
    assert verify_xmod(flat).ok
    neg_pb, neg_proj = pullback_xmod(xm_z2_z4, hom("neg", z4, z4, (0, 3, 2, 1)))
    id_pb, id_proj = pullback_xmod(xm_z2_z4, identity_morphism(z4))
    c_pb, c_proj = pullback_cat1(xmod_to_cat1(xm_z2_z4), identity_morphism(z4))
    c_flat = xmod_to_cat1(flat)
    assert all(map(same_structure, c_flat.levels, c_proj.cod.levels))
    assert c_flat.tgt.map != c_proj.cod.tgt.map
    c_flat_id = Cat1Morphism(
        "c_flat", c_flat, c_flat, identity_morphism(c_flat.big), identity_morphism(c_flat.base)
    )
    xm_routes = (xmod_pullback_mediator, xmod_pullback_mediators)
    c1_routes = (cat1_pullback_mediator, cat1_pullback_mediators)
    cases = [
        (xm_routes, pb, proj, bad, "mediator for bad: base change does not match"),
        (xm_routes, pb, proj, xmod_identity(half), "mediator for id_half: codomain differs"),
        (c1_routes, pc, cproj, c_ident, "mediator for c_id: base change does not match"),
        (c1_routes, pc, cproj, c_other, "mediator for c_other: codomain differs"),
        # the base map is not the one pulled back along
        (xm_routes, neg_pb, neg_proj, xmod_identity(xm_z2_z4),
         "mediator for id_xm_z2_z4: base change does not match"),
        # the same carriers under another module, and other carriers
        (xm_routes, id_pb, id_proj, xmod_identity(flat), "mediator for id_flat: codomain differs"),
        (xm_routes, id_pb, id_proj, xmod_identity(slice_terminal(z4)),
         "mediator for id_term_z4: codomain differs"),
        # the same big and base tables under another tgt
        (c1_routes, c_pb, c_proj, c_flat_id, "mediator for c_flat: codomain differs"),
    ]
    for routes, target, projection, f, message in cases:
        for route in routes:  # the fill-in and the scan refuse alike
            with pytest.raises(StructuralError) as err:
                route(target, projection, f)
            assert str(err.value) == message
    # a square that does not commute has no image in the fiber
    phi = double_into(z4)
    y = inclusion_xmod(phi.dom, (0,))
    skew = XModMorphism("skew", y, xm, Morphism("one", y.c1, z4, (1,)), phi)
    with pytest.raises(ClosureError, match=r"not closed under med_skew at \(0\) -> \(1,0\)$"):
        xmod_pullback_mediator(pb, proj, skew)


def test_preimage_matches_pullback_for_groups():
    z4, z2 = oracle_cyclic(4, "z4"), oracle_cyclic(2, "z2")
    mod2 = hom("mod2", z4, z2, (0, 1, 0, 1))
    pre = preimage_xmod(mod2, (0,))
    assert pre.c1.elements == ("0", "2")
    pb, _ = pullback_xmod(inclusion_xmod(z2, (0,)), mod2)
    assert pb.c1.elements == ("(0,0)", "(0,2)")
    assert find_xmod_isomorphism(pb, pre) is not None


def test_preimage_matches_pullback_for_algebras():
    f2x = oracle_poly(2, "f2x")
    phi = hom("collapse", f2x, f2x, (0, 1, 0, 1))
    pre = preimage_xmod(phi, (0,))
    assert pre.c1.elements == ("0", "x")
    pb, _ = pullback_xmod(inclusion_xmod(f2x, (0,)), phi)
    assert pb.c1.elements == ("(0,0)", "(0,x)")
    assert verify_xmod(pb).ok
    assert find_xmod_isomorphism(pb, pre) is not None


def test_pullback_functor_on_morphisms():
    z4 = oracle_cyclic(4, "z4")
    phi = double_into(z4)
    xm = xm_whole_z4()
    y = inclusion_xmod(z4, (0,))
    h = XModMorphism(
        "into", y, xm, Morphism("zero", y.c1, z4, (0,)), identity_morphism(z4)
    )
    assert verify_xmod_morphism(h).ok
    ph = pullback_xmod_morphism(h, phi)
    assert verify_xmod_morphism(ph).ok
    assert ph.bottom.map == (0, 1)
    assert ph.dom.c1.n == 1 and ph.cod.c1.n == 2
    assert ph.top.map == (0,)

    ident = XModMorphism(
        "same", y, y, identity_morphism(y.c1), identity_morphism(z4)
    )
    pid = pullback_xmod_morphism(ident, phi)
    assert pid.top.map == tuple(range(pid.dom.c1.n))


def test_pullback_functor_needs_identity_base():
    z4 = oracle_cyclic(4, "z4")
    xm = xm_whole_z4()
    y = inclusion_xmod(z4, (0,))
    h = XModMorphism(
        "skew",
        y,
        xm,
        Morphism("zero", y.c1, z4, (0,)),
        Morphism("n", z4, z4, tuple(z4.neg)),
    )
    with pytest.raises(StructuralError):
        pullback_xmod_morphism(h, double_into(z4))


def base_cat1():
    z2, z4 = oracle_cyclic(2, "z2"), oracle_cyclic(4, "z4")
    bnd = Morphism("double", z2, z4, (0, 2))
    return xmod_to_cat1(make_xmod("z2_into_z4", bnd, trivial_action(z4, z2)))


def test_pullback_cat1_frozen():
    c = base_cat1()
    phi = double_into(c.base)
    pc, proj = pullback_cat1(c, phi)
    assert pc.big.elements == (
        "(0,(0,0),0)",
        "(0,(1,0),1)",
        "(1,(0,2),1)",
        "(1,(1,2),0)",
    )
    assert pc.src.map == (0, 0, 1, 1)
    assert pc.tgt.map == (0, 1, 1, 0)
    assert pc.embed.map == (0, 2)
    rep = verify_cat1(pc)
    assert rep.ok, rep.render()
    assert proj.big_map.map == (0, 4, 2, 6)
    assert proj.base_map.map == (0, 2)
    assert verify_cat1_morphism(proj).ok


def test_pullback_cat1_along_identity():
    c = base_cat1()
    pc, _ = pullback_cat1(c, identity_morphism(c.base))
    assert pc.big.n == c.big.n
    assert find_cat1_isomorphism(pc, c) is not None


def test_cat1_mediator_is_unique():
    c = base_cat1()
    phi = double_into(c.base)
    pc, proj = pullback_cat1(c, phi)

    self_meds = cat1_pullback_mediators(pc, proj, proj)
    assert len(self_meds) == 1
    assert self_meds[0].big_map.map == tuple(range(pc.big.n))

    z2 = oracle_cyclic(2, "z2")
    xm = make_xmod(
        "z2_into_z4",
        Morphism("double", z2, c.base, (0, 2)),
        trivial_action(c.base, z2),
    )
    pbx, phi_prime = pullback_xmod(xm, phi)
    tester = xmod_to_cat1(pbx)
    g = xmod_morphism_to_cat1(phi_prime, tester, c)
    assert verify_cat1_morphism(g).ok
    med = cat1_pullback_mediator(pc, proj, g)
    assert verify_cat1_morphism(med).ok
    assert med.base_map.map == tuple(range(pc.base.n))
    assert tuple(proj.big_map.map[v] for v in med.big_map.map) == g.big_map.map
    meds = cat1_pullback_mediators(pc, proj, g)
    assert len(meds) == 1 and meds[0].big_map.map == med.big_map.map


def test_square_commutes_report():
    c_base = oracle_cyclic(4, "z4")
    z2 = oracle_cyclic(2, "z2")
    xm = make_xmod(
        "z2_into_z4",
        Morphism("double", z2, c_base, (0, 2)),
        trivial_action(c_base, z2),
    )
    rep = square_commutes(xm, double_into(c_base))
    assert [i.law for i in rep.items] == [
        "route-xmod-first",
        "route-cat1-first",
        "isomorphic",
    ]
    assert rep.ok, rep.render()
    assert "images" in rep.items[2].detail


def test_square_commutes_for_algebra_ideal():
    f2x = oracle_poly(2, "f2x")
    xm = inclusion_xmod(f2x, (0, 2))
    phi = hom("collapse", f2x, f2x, (0, 1, 0, 1))
    rep = square_commutes(xm, phi)
    assert rep.ok, rep.render()


def test_pullback_needs_matching_codomain():
    z4 = oracle_cyclic(4, "z4")
    xm = inversion_xmod()
    with pytest.raises(StructuralError):
        pullback_xmod(xm, identity_morphism(z4))
    with pytest.raises(StructuralError):
        pullback_cat1(base_cat1(), identity_morphism(oracle_cyclic(2, "z2")))
